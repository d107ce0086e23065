"""Command-line front end: verification, evolution, scans, quotient checks.

Commands emit machine-readable reports (JSON or CSV) with every float
serialized at 17 significant digits, so identical inputs reproduce identical
bytes.  Exit codes: 0 success/agreement, 1 usage or input error, 2 internal
verification mismatch (certificate and numerics disagree).
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import chain as chain_mod
from . import quotient, revival, walk
from .errors import InvalidInputError, ResourceLimitError

SCHEMA_VERSION = 1
DEFAULT_SCAN_GRID = 2000

# Table reports are written ROWS_PER_BLOCK rows at a time, from plain Python
# values: "%.17g" % x is format(x, ".17g"), so each row has the bytes
# _render_json gives it.  A scan row is one template.  An amplitude row is
# head % system, its index, and tail % (re, im, probability) formatted once
# per distinct bit pattern in a block (see _amplitude_blocks).
ROWS_PER_BLOCK = 4096
AMPLITUDE_CSV = ("%s,", ",%.17g,%.17g,%.17g\n")
AMPLITUDE_JSON = (
    '    {\n      "system": "%s",\n      "index": ',
    ',\n      "re": %.17g,\n      "im": %.17g,\n      "probability": %.17g\n    }',
)
_PATTERN = np.dtype((np.void, 16))  # the 16 bytes of one complex128, compared as bytes
SCAN_CSV_ROW = "%.17g,%.17g,%.17g,%.17g\n"
_TABLE = "\0table"  # stands in for the amplitude list while the JSON envelope is rendered


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


def _require_finite(*arrays: np.ndarray) -> None:
    """Refuse a table with a NaN or infinity, before any byte of the report is written."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidInputError("non-finite value in report")


def _write(pieces, args: argparse.Namespace) -> None:
    """Write the text pieces in order to --out or stdout; the report is never joined whole.

    An --out that cannot be opened (a directory, a missing parent), written or
    closed (a full disk) is an input error, and so is a stdout that is closed
    or cannot be written; the bytes written before stay.  A stdout whose
    reader has gone raises BrokenPipeError, which main turns into a silent
    exit 1.
    """
    if args.out:
        verb = "open"
        try:
            handle = open(args.out, "w", newline="")
            verb = "write"
            with handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise InvalidInputError(f"cannot {verb} --out {args.out!r}: {exc.strerror or exc}") from exc
        return
    if sys.stdout is None:  # Python starts without one when descriptor 1 is closed
        raise InvalidInputError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except OSError as exc:
        # stdout still buffers what it could not write: point it at devnull, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise
        raise InvalidInputError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _fields(report, names: str) -> dict:
    """One JSON block: the named attributes of a report, in output order."""
    return {name: getattr(report, name) for name in names.split()}


PARAMS_FIELDS = "N alpha beta p q"
CERTIFICATE_FIELDS = "kind tau_fr tau_pst reason"


def cmd_verify(args: argparse.Namespace) -> int:
    report = revival.certify_numeric(args.N, args.alpha, args.beta, p=args.p, q=args.q)
    cert = report.certificate
    payload = {
        "schema": SCHEMA_VERSION,
        "params": _fields(cert, PARAMS_FIELDS),
        "certificate": _fields(cert, CERTIFICATE_FIELDS),
        "numeric": _fields(report, "mu nu leakage"),
        "appendix": (_fields(report.appendix, "delta phi_prime sign max_identity_dev")
                     if report.appendix is not None else None),
        "scan": asdict(report.scan) if report.scan is not None else None,
    }
    _write([_render_json(payload) + "\n"], args)
    return 0 if report.passed else 2


def _resolve_tau(args: argparse.Namespace) -> float:
    if isinstance(args.tau, float):
        return args.tau
    # _tau_arg admits only a number, "fr" or "pst"
    cert = revival.check_conditions(args.N, args.alpha, args.beta, p=args.p, q=args.q)
    tau = cert.tau_fr if args.tau == "fr" else cert.tau_pst
    if tau is None:
        raise InvalidInputError(f"no {args.tau.upper()} time exists for these parameters")
    return tau


def _amplitude_blocks(states, layout: tuple[str, str], sep: str = ""):
    """Amplitude rows of each (system, psi, first index) state, ROWS_PER_BLOCK a piece, joined by sep.

    The corner-started walk stays in the (M+1)-dimensional column space, so
    a block holds few distinct amplitudes.  np.unique over the 16-byte
    patterns of a block finds them; re, im and the probability are formatted
    once per pattern, and a row is head, index and its pattern's tail.  The
    key is the bits, never the value: 0.0 == -0.0, yet they print as "0" and
    "-0".  The probability is abs(c) ** 2 on the Python complex, equal bit
    for bit to numpy's scalar abs(c) ** 2; the vectorized np.abs(psi) ** 2
    differs in the last bits.  Tails carry over to the next block until
    ROWS_PER_BLOCK are kept, so working memory stays O(ROWS_PER_BLOCK).  The
    states must be finite: the caller checks them before the first byte.
    """
    head_template, tail_template = layout
    lead = ""
    for system, psi, first in states:
        head = head_template % system
        tails = {}
        for lo in range(0, len(psi), ROWS_PER_BLOCK):
            block = np.ascontiguousarray(psi[lo:lo + ROWS_PER_BLOCK], dtype=np.complex128)
            patterns, index, inverse = np.unique(block.view(_PATTERN), return_index=True, return_inverse=True)
            if len(tails) >= ROWS_PER_BLOCK:
                tails.clear()
            block_tails = []
            for key, c in zip(patterns.tolist(), block[index].tolist()):
                tail = tails.get(key)
                if tail is None:
                    tail = tails[key] = tail_template % (c.real, c.imag, abs(c) ** 2)
                block_tails.append(tail)
            indices = range(first + lo, first + lo + len(block))
            yield lead + sep.join([f"{head}{i}{block_tails[k]}" for i, k in zip(indices, inverse.tolist())])
            lead = sep


def cmd_evolve(args: argparse.Namespace) -> int:
    tau = _resolve_tau(args)
    states = []
    quotient_dev = None
    leakage = None
    if args.target in ("graph", "both"):
        spec = walk.WalkSpec(M=args.N - 1, alpha=args.alpha, beta=args.beta)
        psi_g = walk.evolve_graph(spec, walk.corner_state(spec.M), tau)
        states.append(("graph", psi_g, 0))
    if args.target in ("chain", "both"):
        spec_c = chain_mod.ChainSpec(N=args.N, alpha=args.alpha, beta=args.beta)
        psi_c = chain_mod.chain_evolve(spec_c, chain_mod.site_state(args.N, 1), tau)
        states.append(("chain", psi_c, 1))
    if args.target == "both":
        report = quotient.compare_states(args.N, args.alpha, args.beta, tau, psi_g, psi_c)
        quotient_dev = report.max_deviation
        leakage = report.leakage
    _require_finite(*[psi for _, psi, _ in states])

    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "params": _fields(args, "N alpha beta"),
            "tau": tau,
            "target": args.target,
            "amplitudes": _TABLE,
            "quotient_max_deviation": quotient_dev,
            "leakage": leakage,
        }
        head, tail = (_render_json(payload) + "\n").split(json.dumps(_TABLE))
        pieces = [head + "[\n"], _amplitude_blocks(states, AMPLITUDE_JSON, ",\n"), ["\n  ]" + tail]
    else:
        tail = ""
        if quotient_dev is not None:
            tail = f"# quotient_max_deviation = {_fmt(quotient_dev)}\n# leakage = {_fmt(leakage)}\n"
        pieces = ["system,index,re,im,probability\n"], _amplitude_blocks(states, AMPLITUDE_CSV), [tail]
    _write(itertools.chain(*pieces), args)
    return 0


def _scan_blocks(taus: np.ndarray, mus: np.ndarray, nus: np.ndarray):
    """SCAN_CSV_ROW of (tau, p_corner, p_antipode, leakage) per grid point, ROWS_PER_BLOCK rows a piece."""
    for lo in range(0, len(taus), ROWS_PER_BLOCK):
        part = slice(lo, lo + ROWS_PER_BLOCK)
        rows = []
        for tau, mu, nu in zip(taus[part].tolist(), mus[part].tolist(), nus[part].tolist()):
            p_corner = abs(mu) ** 2
            p_anti = abs(nu) ** 2
            rows.append(SCAN_CSV_ROW % (tau, p_corner, p_anti, 1.0 - p_corner - p_anti))
        yield "".join(rows)


def cmd_scan(args: argparse.Namespace) -> int:
    spec = walk.WalkSpec(M=args.N - 1, alpha=args.alpha, beta=args.beta)
    tau_max = args.tau_max
    if tau_max is None:
        scales = [abs(v) for v in (args.alpha, args.beta) if v != 0.0]
        if not scales:
            raise InvalidInputError("(alpha, beta) != (0, 0) required")
        tau_max = 2.0 * math.pi / min(scales)
    taus = revival.tau_grid(args.tau_min, tau_max, args.steps)
    mus, nus = walk.antipodal_scan(spec, taus)
    # |mu|, |nu| <= 1, so finite amplitudes give finite probabilities and leakage
    _require_finite(taus, mus, nus)
    _write(itertools.chain(["tau,p_corner,p_antipode,leakage\n"], _scan_blocks(taus, mus, nus)), args)
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    if args.random_trials < 0:
        raise InvalidInputError(f"random trials must be non-negative, got {args.random_trials}")
    if args.seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {args.seed}")
    table = quotient.quotient_matrix_elements(args.N)
    ok = table.passed and table.shifted.passed

    equivalence_obj = None
    if args.tau is not None:
        tau = _resolve_tau(args)
        rep = quotient.equivalence_check(args.N, args.alpha, args.beta, tau)
        equivalence_obj = _fields(rep, "tau max_deviation leakage passed")
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
            ok = ok and rep.passed
        random_obj = {
            "trials": args.random_trials,
            "seed": args.seed,
            "max_deviation": worst_dev,
            "max_leakage": worst_leak,
        }

    payload = {
        "schema": SCHEMA_VERSION,
        "N": args.N,
        "elements": _fields(table, "a1_upper a2_upper a2_diag"),
        "max_closed_form_deviation": table.max_closed_form_deviation,
        "exact_closed_forms": table.exact_closed_forms,
        "shifted_diagonal": _fields(table.shifted, "exact max_deviation"),
        "equivalence": equivalence_obj,
        "random_equivalence": random_obj,
    }
    _write([_render_json(payload) + "\n"], args)
    return 0 if ok else 2


def cmd_appendix(args: argparse.Namespace) -> int:
    report = revival.appendix_phase_check(args.N, args.alpha, args.beta, p=args.p, q=args.q)
    payload = {
        "schema": SCHEMA_VERSION,
        "params": _fields(report.certificate, PARAMS_FIELDS),
        "certificate": _fields(report.certificate, CERTIFICATE_FIELDS),
        "appendix": _fields(report, "tau delta phi_prime sign winding_max_dev step_phase_max_dev "
                                    "delta_dev assembled_max_dev phi_consistency_dev max_identity_dev"),
    }
    _write([_render_json(payload) + "\n"], args)
    return 0 if report.passed else 2


def _require_ratio(args: argparse.Namespace) -> None:
    """Refuse a --p/--q that contradicts alpha/beta, once per command.

    verify, appendix and a symbolic --tau hand p and q to check_conditions;
    the other commands use no ratio, so they call it here for its refusals.
    """
    if (args.p is None and args.q is None or args.command in ("verify", "appendix")
            or getattr(args, "tau", None) in ("fr", "pst")):
        return
    revival.check_conditions(args.N, args.alpha, args.beta, p=args.p, q=args.q)


def _tau_arg(raw: str):
    if raw in ("fr", "pst"):
        return raw
    try:
        return float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"tau must be a number, 'fr' or 'pst', got {raw!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="fracrevival",
        description="Balanced fractional revival on the hypercube with face diagonals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tau=False):
        # argparse reads "-1e-5" as an option, not a value; this pattern, a
        # superset of argparse's own, also takes exponents as negative numbers
        p._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")
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
        _require_ratio(args)
        return _COMMANDS[args.command](args)
    except (InvalidInputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1  # the reader of stdout has gone, so there is no one to tell


if __name__ == "__main__":
    sys.exit(main())
