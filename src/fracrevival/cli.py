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
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import chain as chain_mod
from . import quotient, revival, scheme, walk
from .errors import InvalidInputError, ResourceLimitError

SCHEMA_VERSION = 1
DEFAULT_SCAN_GRID = 2000

# Table reports are written ROWS_PER_BLOCK rows at a time, from plain Python
# values: "%.17g" % x is format(x, ".17g"), so each row has the bytes
# _render_json gives it.  A scan row is one template.  An amplitude row is
# head % system, its index, and tail % (re, im, probability) formatted once
# per value; it is written as the low three digits of its index, from the
# two tables below, and a tail that carries the next row's head and
# thousands part (see _amplitude_blocks).
ROWS_PER_BLOCK = 4096
_DIGITS = [str(i) for i in range(1000)]
_PADDED = ["%03d" % i for i in range(1000)]
AMPLITUDE_CSV = ("%s,", ",%.17g,%.17g,%.17g\n")
AMPLITUDE_JSON = (
    '    {\n      "system": "%s",\n      "index": ',
    ',\n      "re": %.17g,\n      "im": %.17g,\n      "probability": %.17g\n    }',
)
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
        return encode_basestring_ascii(obj)  # what json.dumps(obj) returns, without building an encoder
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, complex):
        return _render_json([obj.real, obj.imag], indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {encode_basestring_ascii(str(k))}: {_render_json(v, indent + 1)}' for k, v in obj.items()]
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


def cmd_verify(args: argparse.Namespace) -> int:
    report = revival.certify_numeric(args.N, args.alpha, args.beta, p=args.p, q=args.q)
    _write([_render_json({"schema": SCHEMA_VERSION, **report.to_dict()}) + "\n"], args)
    return 0 if report.passed else 2


def _resolve_tau(args: argparse.Namespace) -> float:
    if isinstance(args.tau, float):
        return args.tau
    # _tau_arg admits only a number, "fr" or "pst"
    return revival.check_conditions(args.N, args.alpha, args.beta, p=args.p, q=args.q).time(args.tau)


def _amplitude_blocks(tables, layout: tuple[str, str], sep: str = ""):
    """Amplitude rows of each (system, values, value index per row, first index) table, ROWS_PER_BLOCK a piece.

    Row r of a table is numbered first + r and holds values[rows[r]]; the
    pieces are joined by sep.  re, im and the probability are formatted once
    per value into its tail: a graph report has one value per weight class of
    the corner-started walk, M + 1 in all, and a chain report one per site.
    A row is written as two texts: the low digits of its index, from _DIGITS
    below 1000 and _PADDED above, and a carried tail, its value's tail then
    sep, head and the thousands part of the next row's index.  The last row
    of a table carries nothing.  Within a run of indices that share a
    thousands part, a row's carried tail depends on its value alone, so the
    run builds one per value and gathers them by rows with a numpy object
    index; the run's last row carries the next run's thousands part.  A
    block is one flat list of these texts, filled by slice assignment and
    headed by the text before its first low digits (lead and head at a
    table's start, else empty), and is joined once.  The probability is abs(c) ** 2 on the Python complex, equal
    bit for bit to numpy's scalar abs(c) ** 2; the vectorized np.abs(psi) ** 2
    differs in the last bits.  Beyond the tables, working memory is
    O(ROWS_PER_BLOCK).  The values must be finite: the caller checks them
    before the first byte.
    """
    head_template, tail_template = layout
    lead = ""
    for system, values, rows, first in tables:
        head = head_template % system
        tails = [tail_template % (c.real, c.imag, abs(c) ** 2) for c in values.tolist()]
        stop = first + len(rows)
        for lo in range(0, len(rows), ROWS_PER_BLOCK):
            block = rows[lo:lo + ROWS_PER_BLOCK]
            pieces = [""] * (2 * len(block) + 1)
            at = 0
            while at < len(block):
                thousands, low = divmod(first + lo + at, 1000)
                high = str(thousands) if thousands else ""
                if lo == at == 0:
                    pieces[0] = lead + head + high
                run = min(len(block) - at, 1000 - low)
                carried = np.array([tail + sep + head + high for tail in tails], dtype=object)
                pieces[2 * at + 1:2 * (at + run):2] = (_PADDED if thousands else _DIGITS)[low:low + run]
                pieces[2 * at + 2:2 * (at + run) + 1:2] = carried[block[at:at + run]].tolist()
                at += run
                following = first + lo + at  # the index after the run's last row
                if following == stop:
                    pieces[2 * at] = tails[block[at - 1]]
                elif following % 1000 == 0:
                    pieces[2 * at] = tails[block[at - 1]] + sep + head + str(following // 1000)
            yield "".join(pieces)
            lead = sep


def cmd_evolve(args: argparse.Namespace) -> int:
    tau = _resolve_tau(args)
    tables = []
    quotient_dev = None
    leakage = None
    if args.target in ("graph", "both"):
        # vertex z holds the amplitude of its weight class: one byte per vertex (the one 2^M table, so guarded first)
        spec = walk.WalkSpec(M=args.N - 1, alpha=args.alpha, beta=args.beta)
        weights = scheme.hamming_weights(spec.M)
        psi_w = walk.column_amplitudes(spec, tau)
        tables.append(("graph", psi_w, weights, 0))
    if args.target in ("chain", "both"):
        spec_c = chain_mod.ChainSpec(N=args.N, alpha=args.alpha, beta=args.beta)
        psi_c = chain_mod.chain_evolve(spec_c, chain_mod.site_state(args.N, 1), tau)
        tables.append(("chain", psi_c, np.arange(args.N), 1))
    if args.target == "both":
        report = quotient.compare_states(args.N, args.alpha, args.beta, tau, quotient.column_state(psi_w), psi_c)
        quotient_dev = report.max_deviation
        leakage = report.leakage
    _require_finite(*[values for _, values, _, _ in tables])

    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "params": {"N": args.N, "alpha": args.alpha, "beta": args.beta},
            "tau": tau,
            "target": args.target,
            "amplitudes": _TABLE,
            "quotient_max_deviation": quotient_dev,
            "leakage": leakage,
        }
        head, tail = (_render_json(payload) + "\n").split(_render_json(_TABLE))
        pieces = [head + "[\n"], _amplitude_blocks(tables, AMPLITUDE_JSON, ",\n"), ["\n  ]" + tail]
    else:
        tail = ""
        if quotient_dev is not None:
            tail = f"# quotient_max_deviation = {_fmt(quotient_dev)}\n# leakage = {_fmt(leakage)}\n"
        pieces = ["system,index,re,im,probability\n"], _amplitude_blocks(tables, AMPLITUDE_CSV), [tail]
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
    if tau_max is None:  # WalkSpec refused (0, 0), so a coupling is nonzero
        tau_max = 2.0 * math.pi / min(abs(v) for v in (args.alpha, args.beta) if v != 0.0)
    taus = revival.tau_grid(args.tau_min, tau_max, args.steps)
    mus, nus = walk.antipodal_scan(spec, taus)
    # |mu|, |nu| <= 1, so finite amplitudes give finite probabilities and leakage
    _require_finite(taus, mus, nus)
    _write(itertools.chain(["tau,p_corner,p_antipode,leakage\n"], _scan_blocks(taus, mus, nus)), args)
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    trials = quotient.RandomEquivalence(args.N, args.random_trials, args.seed)
    table = quotient.quotient_matrix_elements(args.N)
    equivalence = None
    if args.tau is not None:
        equivalence = quotient.equivalence_check(args.N, args.alpha, args.beta, _resolve_tau(args))
    payload = {"schema": SCHEMA_VERSION, **table.to_dict(),
               "equivalence": None if equivalence is None else equivalence.to_dict(),
               "random_equivalence": trials.to_dict() if trials.trials else None}
    _write([_render_json(payload) + "\n"], args)
    passed = table.passed and table.shifted.passed and (equivalence is None or equivalence.passed)
    return 0 if passed and trials.passed else 2


def cmd_appendix(args: argparse.Namespace) -> int:
    report = revival.appendix_phase_check(args.N, args.alpha, args.beta, p=args.p, q=args.q)
    _write([_render_json({"schema": SCHEMA_VERSION, **report.to_dict()}) + "\n"], args)
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
    """The argument parser, built once per process; parse_args keeps no state in it.

    Its commands attribute maps each command name to that command's own parser.
    """
    parser = argparse.ArgumentParser(
        prog="fracrevival",
        description="Balanced fractional revival on the hypercube with face diagonals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # argparse reads "-1e-5" or "-inf" as an option, not a value; this pattern, a
        # superset of argparse's own, also takes exponents, inf and nan as float() spells them
        p._negative_number_matcher = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.I)
        p.add_argument("--N", type=int, required=True, help="number of chain sites (graph has 2^(N-1) vertices)")
        p.add_argument("--alpha", type=float, default=0.0, help="next-to-nearest / face-diagonal strength")
        p.add_argument("--beta", type=float, default=0.0, help="nearest / hypercube-edge strength")
        p.add_argument("--p", type=int, default=None, help="exact ratio numerator (bypasses rationalization)")
        p.add_argument("--q", type=int, default=None, help="exact ratio denominator")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_verify = sub.add_parser("verify", help="certificate + numeric certification + phase identity")
    add_common(p_verify)
    p_verify.add_argument("--json", action="store_true", help="JSON output (the default)")

    p_evolve = sub.add_parser("evolve", help="corner-initialized evolution amplitudes")
    add_common(p_evolve)
    p_evolve.add_argument("--tau", type=_tau_arg, required=True, help="evolution time, or 'fr'/'pst'")
    p_evolve.add_argument("--target", choices=("graph", "chain", "both"), default="graph")
    p_evolve.add_argument("--json", action="store_true", help="JSON instead of CSV rows")

    p_scan = sub.add_parser("scan", help="antipodal probabilities over a tau grid (CSV)")
    add_common(p_scan)
    p_scan.add_argument("--tau-min", type=float, default=0.0)
    p_scan.add_argument("--tau-max", type=float, default=None)
    p_scan.add_argument("--steps", type=int, default=DEFAULT_SCAN_GRID)

    p_quot = sub.add_parser("quotient", help="column-basis matrix elements and graph-chain equivalence")
    add_common(p_quot)
    p_quot.add_argument("--tau", type=_tau_arg, default=None, help="evolution time, or 'fr'/'pst'")
    p_quot.add_argument("--random-trials", type=int, default=0, help="random equivalence checks")
    p_quot.add_argument("--seed", type=int, default=0)

    p_app = sub.add_parser("appendix", help="balanced-FR matrix identity, phase by phase")
    add_common(p_app)
    parser.commands = sub.choices
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "evolve": cmd_evolve,
    "scan": cmd_scan,
    "quotient": cmd_quotient,
    "appendix": cmd_appendix,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        # One parse: the top-level parser would hand everything after the command to the
        # command's own parser, so call that parser directly; its help and errors are the
        # same bytes either way.  Left-over arguments, and an argv that names no command,
        # go to the top-level parser, which alone prints their usage line and error.
        command = parser.commands.get(argv[0]) if argv else None
        if command is not None:
            args, extra = command.parse_known_args(argv[1:])
            args.command = argv[0]
        if command is None or extra:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
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
