"""Command-line front end: verification, evolution, scans, quotient checks.

Commands emit machine-readable reports (JSON or CSV) with every float
serialized at 17 significant digits, so identical inputs reproduce identical
bytes.  Exit codes: 0 success/agreement, 1 usage or input error, 2 internal
verification mismatch (certificate and numerics disagree).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import chain as chain_mod
from . import quotient, revival, walk
from .errors import InvalidInputError, ResourceLimitError

SCHEMA_VERSION = 1
DEFAULT_SCAN_GRID = 2000


def _fmt(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInputError("non-finite value in report")
    return format(x, ".17g")


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, complex):
        return _render_json([obj.real, obj.imag], indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        if all(isinstance(v, (int, float, complex, np.integer, np.floating)) for v in items):
            return "[" + ", ".join(_render_json(v) for v in items) + "]"
        rows = [f"{pad}  {_render_json(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write(text: str, args: argparse.Namespace) -> None:
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _certificate_dict(cert: revival.RevivalCertificate) -> dict:
    return {
        "kind": cert.kind,
        "tau_fr": cert.tau_fr,
        "tau_pst": cert.tau_pst,
        "reason": cert.reason,
    }


def _params(args: argparse.Namespace, cert: revival.RevivalCertificate) -> dict:
    return {"N": args.N, "alpha": args.alpha, "beta": args.beta, "p": cert.p, "q": cert.q}


def cmd_verify(args: argparse.Namespace) -> int:
    report = revival.certify_numeric(args.N, args.alpha, args.beta, p=args.p, q=args.q)
    cert = report.certificate
    ok = report.passed
    appendix_obj = None
    if cert.kind == revival.BALANCED_FR:
        ap = revival.appendix_phase_check(args.N, args.alpha, args.beta, p=args.p, q=args.q)
        appendix_obj = {
            "delta": ap.delta,
            "phi_prime": ap.phi_prime,
            "sign": ap.sign,
            "max_identity_dev": ap.max_identity_dev,
        }
        ok = ok and ap.passed
    payload = {
        "schema": SCHEMA_VERSION,
        "params": _params(args, cert),
        "certificate": _certificate_dict(cert),
        "numeric": {"mu": report.mu, "nu": report.nu, "leakage": report.leakage},
        "appendix": appendix_obj,
        "scan": asdict(report.scan) if report.scan is not None else None,
    }
    _write(_render_json(payload) + "\n", args)
    return 0 if ok else 2


def _resolve_tau(args: argparse.Namespace) -> float:
    if isinstance(args.tau, float):
        return args.tau
    cert = revival.check_conditions(args.N, args.alpha, args.beta, p=args.p, q=args.q)
    if args.tau == "fr":
        if cert.tau_fr is None:
            raise InvalidInputError("no FR time exists for these parameters")
        return cert.tau_fr
    if args.tau == "pst":
        if cert.tau_pst is None:
            raise InvalidInputError("no PST time exists for these parameters")
        return cert.tau_pst
    raise InvalidInputError(f"tau must be a number, 'fr' or 'pst', got {args.tau!r}")


def _amplitude_rows(system: str, psi: np.ndarray, one_based: bool) -> list:
    rows = []
    for i, a in enumerate(psi):
        idx = i + 1 if one_based else i
        rows.append([system, idx, a.real, a.imag, abs(a) ** 2])
    return rows


def cmd_evolve(args: argparse.Namespace) -> int:
    tau = _resolve_tau(args)
    rows = []
    quotient_dev = None
    leakage = None
    if args.target in ("graph", "both"):
        spec = walk.WalkSpec(M=args.N - 1, alpha=args.alpha, beta=args.beta)
        psi_g = walk.evolve_graph(spec, walk.corner_state(spec.M), tau)
        rows += _amplitude_rows("graph", psi_g, one_based=False)
    if args.target in ("chain", "both"):
        spec_c = chain_mod.ChainSpec(N=args.N, alpha=args.alpha, beta=args.beta)
        psi_c = chain_mod.chain_evolve(spec_c, chain_mod.site_state(args.N, 1), tau)
        rows += _amplitude_rows("chain", psi_c, one_based=True)
    if args.target == "both":
        report = quotient.equivalence_check(args.N, args.alpha, args.beta, tau)
        quotient_dev = report.max_deviation
        leakage = report.leakage

    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "params": {"N": args.N, "alpha": args.alpha, "beta": args.beta},
            "tau": tau,
            "target": args.target,
            "amplitudes": [
                {"system": r[0], "index": r[1], "re": r[2], "im": r[3], "probability": r[4]}
                for r in rows
            ],
            "quotient_max_deviation": quotient_dev,
            "leakage": leakage,
        }
        _write(_render_json(payload) + "\n", args)
    else:
        lines = ["system,index,re,im,probability"]
        for r in rows:
            lines.append(f"{r[0]},{r[1]},{_fmt(r[2])},{_fmt(r[3])},{_fmt(r[4])}")
        if quotient_dev is not None:
            lines.append(f"# quotient_max_deviation = {_fmt(quotient_dev)}")
            lines.append(f"# leakage = {_fmt(leakage)}")
        _write("\n".join(lines) + "\n", args)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    tau_max = args.tau_max
    if tau_max is None:
        scales = [abs(v) for v in (args.alpha, args.beta) if v != 0.0]
        if not scales:
            raise InvalidInputError("(alpha, beta) != (0, 0) required")
        tau_max = 2.0 * math.pi / min(scales)
    if not (tau_max > args.tau_min):
        raise InvalidInputError(f"empty tau range [{args.tau_min}, {tau_max}]")
    if args.steps < 1:
        raise InvalidInputError("need at least one step")
    spec = walk.WalkSpec(M=args.N - 1, alpha=args.alpha, beta=args.beta)
    taus = np.linspace(args.tau_min, tau_max, args.steps + 1)
    mus, nus = walk.antipodal_scan(spec, taus)
    lines = ["tau,p_corner,p_antipode,leakage"]
    for t, mu, nu in zip(taus, mus, nus):
        p_corner = abs(mu) ** 2
        p_anti = abs(nu) ** 2
        lines.append(f"{_fmt(t)},{_fmt(p_corner)},{_fmt(p_anti)},{_fmt(1.0 - p_corner - p_anti)}")
    _write("\n".join(lines) + "\n", args)
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    table = quotient.quotient_matrix_elements(args.N)
    shifted = quotient.verify_shifted_diagonal(args.N)
    ok = table.exact_closed_forms and table.max_closed_form_deviation < 1e-12 and shifted.passed

    equivalence_obj = None
    if args.tau is not None:
        tau = _resolve_tau(args)
        rep = quotient.equivalence_check(args.N, args.alpha, args.beta, tau)
        equivalence_obj = {
            "tau": rep.tau,
            "max_deviation": rep.max_deviation,
            "leakage": rep.leakage,
            "passed": rep.passed,
        }
        ok = ok and rep.passed

    random_obj = None
    if args.random_trials > 0:
        rng = np.random.default_rng(args.seed)
        worst_dev = 0.0
        worst_leak = 0.0
        for _ in range(args.random_trials):
            alpha = float(rng.uniform(-2.0, 2.0))
            beta = float(rng.uniform(-2.0, 2.0))
            if abs(alpha) < 1e-3 and abs(beta) < 1e-3:
                alpha = 1.0
            tau = float(rng.uniform(0.0, 2.0 * math.pi))
            rep = quotient.equivalence_check(args.N, alpha, beta, tau)
            worst_dev = max(worst_dev, rep.max_deviation)
            worst_leak = max(worst_leak, abs(rep.leakage))
        random_obj = {
            "trials": args.random_trials,
            "seed": args.seed,
            "max_deviation": worst_dev,
            "max_leakage": worst_leak,
        }
        ok = ok and worst_dev < 1e-10 and worst_leak < 1e-10

    payload = {
        "schema": SCHEMA_VERSION,
        "N": args.N,
        "elements": {
            "a1_upper": list(table.a1_upper),
            "a2_upper": list(table.a2_upper),
            "a2_diag": list(table.a2_diag),
        },
        "max_closed_form_deviation": table.max_closed_form_deviation,
        "exact_closed_forms": table.exact_closed_forms,
        "shifted_diagonal": {"exact": shifted.exact, "max_deviation": shifted.max_deviation},
        "equivalence": equivalence_obj,
        "random_equivalence": random_obj,
    }
    _write(_render_json(payload) + "\n", args)
    return 0 if ok else 2


def cmd_appendix(args: argparse.Namespace) -> int:
    report = revival.appendix_phase_check(args.N, args.alpha, args.beta, p=args.p, q=args.q)
    cert = revival.check_conditions(args.N, args.alpha, args.beta, p=args.p, q=args.q)
    payload = {
        "schema": SCHEMA_VERSION,
        "params": _params(args, cert),
        "certificate": _certificate_dict(cert),
        "appendix": {
            "tau": report.tau,
            "delta": report.delta,
            "phi_prime": report.phi_prime,
            "sign": report.sign,
            "winding_max_dev": report.winding_max_dev,
            "step_phase_max_dev": report.step_phase_max_dev,
            "delta_dev": report.delta_dev,
            "assembled_max_dev": report.assembled_max_dev,
            "phi_consistency_dev": report.phi_consistency_dev,
            "max_identity_dev": report.max_identity_dev,
        },
    }
    _write(_render_json(payload) + "\n", args)
    return 0 if report.passed else 2


def _tau_arg(raw: str):
    if raw in ("fr", "pst"):
        return raw
    try:
        return float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"tau must be a number, 'fr' or 'pst', got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracrevival",
        description="Balanced fractional revival on the hypercube with face diagonals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tau=False):
        p.add_argument("--N", type=int, required=True, help="number of chain sites (graph has 2^(N-1) vertices)")
        p.add_argument("--alpha", type=float, default=0.0, help="next-to-nearest / face-diagonal strength")
        p.add_argument("--beta", type=float, default=0.0, help="nearest / hypercube-edge strength")
        p.add_argument("--p", type=int, default=None, help="exact ratio numerator (bypasses rationalization)")
        p.add_argument("--q", type=int, default=None, help="exact ratio denominator")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if tau:
            p.add_argument("--tau", type=_tau_arg, default=None, help="evolution time, or 'fr'/'pst'")

    p_verify = sub.add_parser("verify", help="certificate + numeric certification + phase identity")
    add_common(p_verify)
    p_verify.add_argument("--json", action="store_true", help="JSON output (the default)")

    p_evolve = sub.add_parser("evolve", help="corner-initialized evolution amplitudes")
    add_common(p_evolve, tau=True)
    p_evolve.add_argument("--target", choices=("graph", "chain", "both"), default="graph")
    p_evolve.add_argument("--json", action="store_true", help="JSON instead of CSV rows")

    p_scan = sub.add_parser("scan", help="antipodal probabilities over a tau grid (CSV)")
    add_common(p_scan)
    p_scan.add_argument("--tau-min", type=float, default=0.0)
    p_scan.add_argument("--tau-max", type=float, default=None)
    p_scan.add_argument("--steps", type=int, default=DEFAULT_SCAN_GRID)

    p_quot = sub.add_parser("quotient", help="column-basis matrix elements and graph-chain equivalence")
    add_common(p_quot, tau=True)
    p_quot.add_argument("--random-trials", type=int, default=0, help="random equivalence checks")
    p_quot.add_argument("--seed", type=int, default=0)

    p_app = sub.add_parser("appendix", help="balanced-FR matrix identity, phase by phase")
    add_common(p_app)
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "evolve": cmd_evolve,
    "scan": cmd_scan,
    "quotient": cmd_quotient,
    "appendix": cmd_appendix,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command == "evolve" and args.tau is None:
        print("error: evolve requires --tau", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (InvalidInputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
