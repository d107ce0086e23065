"""Regenerate the golden corpus: one SHA-256 of (exit code, stdout, stderr) per command line.

    PYTHONPATH=src python tests/golden/regenerate.py

rewrites tests/golden/corpus.txt, one "<sha256>  <argv>" line per command
line, the argv quoted as shlex.join quotes it.  tests/test_golden.py runs
every line in-process through cli.main and compares the digests.  A change
that moves bytes commits the regenerated file and lists the moved command
lines.  No output depends on the BLAS or LAPACK kernel, chain rows included,
so CI runs the corpus again under OPENBLAS_CORETYPE=Prescott.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

from fracrevival import cli

CORPUS = Path(__file__).resolve().with_name("corpus.txt")

SIZES = [*range(2, 14), 30, 600, 10000]
COUPLINGS = [
    ("1", "1"), ("2", "2"), ("3", "2"), ("2", "1"), ("1", "2"), ("0", "1"), ("1", "0"),
    ("-1.5", "0.5"), ("0.6", "0.4"), ("1e-5", "2"), ("3.141592653589793", "1"), ("1e8", "1"),
    ("5e307", "5e307"), ("0", "0"), ("nan", "1"),
]
# refusals of every command, and the order of the quotient refusals
REFUSALS = [
    "verify --N 1 --alpha 1 --beta 1",
    "verify --N 3 --alpha 1 --beta 1 --p 1",
    "verify --N 5 --alpha 3 --beta 2 --p 1 --q 1",
    "verify --N 3 --alpha 1e308 --beta 1 --p 3 --q 0",
    "appendix --N 1 --alpha 1 --beta 1",
    "appendix --N 5 --alpha 3 --beta 2 --p 5 --q 2",
    "evolve --N 1 --alpha 1 --beta 1 --tau 1",
    "evolve --N 5 --alpha 2 --beta 2 --tau fr",
    "evolve --N 4 --alpha 1.00000001 --beta 1 --tau pst",
    "evolve --N 4 --alpha 1 --beta 1 --tau inf",
    "evolve --N 4 --alpha 1 --beta 1 --tau 1 --p 2 --q 1",
    "evolve --N 4 --alpha 1 --beta 1 --tau fr --target chain --p 2 --q 1",
    "scan --N 1 --alpha 1 --beta 1",
    "scan --N 4 --alpha 1 --beta 1 --tau-min 5 --tau-max 1",
    "scan --N 4 --alpha 1 --beta 1 --steps 0",
    "scan --N 4 --alpha 1 --beta 1 --steps 1000001",
    "scan --N 4 --alpha 1 --beta 1 --tau-max nan",
    "scan --N 4 --alpha 1 --beta 1 --tau-min -1e308 --tau-max 1e308",
    "quotient --N 1",
    "quotient --N 518",
    "quotient --N 5 --random-trials -3",
    "quotient --N 5 --random-trials -1 --tau fr",
    "quotient --N 5 --seed -1",
    "quotient --N 5 --random-trials 1 --seed -1",
    "quotient --N 10000 --random-trials 2",
    "quotient --N 5 --alpha 2 --beta 2 --tau fr",
    "quotient --N 4 --alpha 1 --beta 1 --tau nan",
    "quotient --N 4 --alpha 0 --beta 0 --tau 1",
    "quotient --N 4 --alpha 1 --beta 1 --p 1 --q 2",
]


def argvs() -> list[list[str]]:
    """The corpus's command lines, in a fixed order."""
    lines = []
    for N in SIZES:
        for alpha, beta in COUPLINGS:
            model = ["--N", str(N), "--alpha", alpha, "--beta", beta]
            lines += [["verify", *model], ["appendix", *model]]
            lines.append(["scan", *model, "--steps", "40"])
            lines.append(["quotient", *model])
            lines += [["quotient", *model, "--tau", tau, "--random-trials", "2"] for tau in ("1.3", "fr")]
            if N <= 30:
                for tau in ("1.3", "fr", "pst"):
                    for target in ([], ["--target", "chain"], ["--target", "both"]):
                        lines.append(["evolve", *model, "--tau", tau, *target])
                        lines.append(["evolve", *model, "--tau", tau, *target, "--json"])
        lines.append(["scan", "--N", str(N), "--alpha", "2", "--beta", "2", "--tau-max", "3", "--steps", "25"])
    lines += [shlex.split(line) for line in REFUSALS]
    return lines


def digest(argv: list[str]) -> str:
    """SHA-256 of the exit code, stdout and stderr of cli.main(argv), joined by NUL bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def main() -> int:
    os.environ.pop("REVIVAL_MAX_M", None)
    CORPUS.write_text("".join(f"{digest(argv)}  {shlex.join(argv)}\n" for argv in argvs()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
