"""The benchmark's workloads: seeded inputs, one timed call per op, and checks.

Each workload is a fixed cycle of cells.  A cell fixes everything an op's
cost depends on (N, the command, the certificate kind); the seed draws only
couplings and times inside a cell.  Every run and every seed therefore times
the same mix, and the cell counts place the median and p90 inside one cell's
cost band rather than on the boundary between two.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

from . import checks

ODD = (1, 3, 5, 7, 9, 11)
EVEN = (2, 4, 6, 8, 10)

# cell -> (N, choices of p, choices of q); None means beta = 0.
VERIFY_CELLS = {
    "fr_dense": (9, ODD, EVEN),       # M = 8: the appendix identity is also checked densely
    "fr_fwht": (16, ODD, ODD),
    "fr_nnn": (15, None, None),
    "pst": (17, EVEN, ODD),
    "refuse_parity": (9, ODD, ODD),   # runs the 10^4-step refusal scan
    "refuse_nnn": (8, None, None),
}
# Cost order: fr_nnn < fr_fwht ~ pst ~ fr_dense < refuse_nnn < refuse_parity.
# Sorted by cost the shares are 1 | 3 | 2 | 1 | 1 | 2 tenths, so the median
# sits in the middle of the fr_fwht/pst/fr_dense band and p90 in the middle
# of the refuse_parity band.
VERIFY_CYCLE = (
    "fr_fwht", "refuse_parity", "pst", "fr_nnn", "fr_fwht",
    "refuse_nnn", "pst", "fr_dense", "refuse_parity", "fr_fwht",
)

# cell -> (--target both, --json).  Equal shares put the median in the
# csv_both band and p90 in the json_both band.
REPORT_CELLS = {
    "csv_graph": (False, False),
    "csv_both": (True, False),
    "json_both": (True, True),
}
REPORT_CYCLE = ("csv_graph", "csv_both", "json_both")
REPORT_N = 15

@dataclass(frozen=True)
class VerifyOp:
    cell: str
    N: int
    alpha: float
    beta: float
    p: int | None   # alpha/beta = p/q in lowest terms, sign on p; None when beta = 0
    q: int | None

    @property
    def argv(self) -> list[str]:
        return ["verify", "--N", str(self.N), "--alpha", repr(self.alpha), "--beta", repr(self.beta)]


@dataclass(frozen=True)
class ReportOp:
    cell: str
    N: int
    alpha: float
    beta: float
    tau: float
    both: bool
    as_json: bool

    @property
    def argv(self) -> list[str]:
        argv = ["evolve", "--N", str(self.N), "--alpha", repr(self.alpha),
                "--beta", repr(self.beta), "--tau", repr(self.tau)]
        if self.both:
            argv += ["--target", "both"]
        if self.as_json:
            argv.append("--json")
        return argv


def _magnitude(rng: np.random.Generator, lo: float = 0.5, hi: float = 2.0) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def draw_verify(rng: np.random.Generator, cell: str) -> VerifyOp:
    N, ps, qs = VERIFY_CELLS[cell]
    if qs is None:
        return VerifyOp(cell, N, _magnitude(rng), 0.0, None, None)
    while True:
        p, q = int(rng.choice(ps)), int(rng.choice(qs))
        if math.gcd(p, q) == 1:
            break
    p *= int(rng.choice((-1, 1)))
    beta = _magnitude(rng)
    return VerifyOp(cell, N, beta * p / q, beta, p, q)


# Balanced FR by the parity rule (p odd, q even, N odd), yet the package exits 2
# on it: tau * E ~ 1e7 costs the appendix check its phase precision.
LARGE_RATIO = VerifyOp("large_ratio", 9, 999_999 / 1_000_000, 1.0, 999_999, 1_000_000)


def draw_report(rng: np.random.Generator, cell: str) -> ReportOp:
    both, as_json = REPORT_CELLS[cell]
    alpha = _magnitude(rng, 0.3, 2.0)
    beta = _magnitude(rng, 0.3, 2.0)
    tau = float(rng.uniform(0.1, 2.0 * math.pi))
    return ReportOp(cell, REPORT_N, alpha, beta, tau, both, as_json)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One `fracrevival` command in this process; its stdout is kept in memory."""
    from fracrevival import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class _CliWorkload:
    """Ops that are one `fracrevival` command each, drawn by `draw`."""

    probe = None

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0])
        self.warm_rng = np.random.default_rng([seed, 1])  # warm-up inputs leave the timed stream alone

    def next_op(self, cell: str):
        return self.draw(self.rng, cell)

    @staticmethod
    def run(op) -> tuple[int, str]:
        return run_cli(op.argv)

    @staticmethod
    def output_bytes(result) -> int:
        return len(result[1])  # reports are ASCII: one byte per character


class Verify(_CliWorkload):
    """`fracrevival verify` over the revival, transfer and refusal paths."""

    name = "verify"
    cycle = VERIFY_CYCLE
    draw = staticmethod(draw_verify)

    @staticmethod
    def check(op: VerifyOp, result) -> str | None:
        return checks.check_verify(op, *result)

    def setup(self) -> list[str]:
        failures = []
        for cell in VERIFY_CELLS:
            op = self.draw(self.warm_rng, cell)
            reason = self.check(op, self.run(op))
            if reason:
                failures.append(f"warm-up {cell}: {reason}")
        return failures

    def probe(self) -> dict:
        """The large-ratio case, run once outside the timed loop."""
        code, text = self.run(LARGE_RATIO)
        return {"cell": LARGE_RATIO.cell, "exit_code": code,
                "expected_kind": checks.expected_kind(LARGE_RATIO.N, LARGE_RATIO.p, LARGE_RATIO.q),
                "check": checks.check_verify(LARGE_RATIO, code, text) or "ok"}


class EvolveReport(_CliWorkload):
    """`fracrevival evolve` at N = 15: building and serializing the report."""

    name = "evolve_report"
    cycle = REPORT_CYCLE
    draw = staticmethod(draw_report)

    @staticmethod
    def check(op: ReportOp, result) -> str | None:
        return checks.check_report(op, *result)

    def setup(self) -> list[str]:
        failures = []
        for cell in REPORT_CELLS:
            op = self.draw(self.warm_rng, cell)
            first, second = self.run(op), self.run(op)
            reason = self.check(op, first)
            if reason is None and first != second:
                reason = "a repeated input gave different bytes"
            if reason:
                failures.append(f"warm-up {cell}: {reason}")
        return failures


WORKLOADS = {cls.name: cls for cls in (Verify, EvolveReport)}
