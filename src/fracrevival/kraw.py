"""Krawtchouk polynomials and the analytic spectrum of the walk Hamiltonian.

The values K_i(s; 2, M) at integer points are the eigenvalues of the Hamming
scheme adjacency operators: A_i acts as K_i(s; 2, M) on the common eigenspace
E(s) of dimension C(M, s), where A_1 has eigenvalue lambda_s = M - 2s.  Two
independent evaluations are provided (three-term recurrence and terminating
hypergeometric sum), both in exact rational arithmetic; spectra destined for
evolution are assembled in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import InvalidInputError

SPECTRUM_MAX_M = 66  # the largest M whose C(M, M // 2) fits an int64


def krawtchouk(n: int, x: int, M: int, q: int = 2) -> Fraction:
    """K_n(x; q, M) by the three-term recurrence, exact.

    (n+1) K_{n+1}(x) = [(M-n)(q-1) + n - qx] K_n(x) - (q-1)(M-n+1) K_{n-1}(x)
    with K_{-1} = 0 and K_0 = 1.  Only q = 2 is exercised in this package.
    """
    if not 0 <= n <= M:
        raise InvalidInputError(f"degree must lie in [0, M] = [0, {M}], got {n}")
    prev = Fraction(0)
    cur = Fraction(1)
    for m in range(n):
        nxt = (((M - m) * (q - 1) + m - q * x) * cur - (q - 1) * (M - m + 1) * prev) / (m + 1)
        prev, cur = cur, nxt
    return cur


def krawtchouk_hypergeometric(n: int, x: int, M: int) -> Fraction:
    """K_n(x; 2, M) = C(M,n) * 2F1(-n, -x; -M; 2), as the terminating sum.

    The sum runs over k <= min(n, x), where both numerator Pochhammer symbols
    vanish; exact rational arithmetic makes the agreement with the recurrence
    an equality, not an approximation.
    """
    if not 0 <= n <= M or not 0 <= x <= M:
        raise InvalidInputError(f"need 0 <= n, x <= M = {M}, got n={n}, x={x}")
    total = Fraction(0)
    term = Fraction(1)
    for k in range(min(n, x) + 1):
        if k:
            term *= Fraction(2 * (-n + k - 1) * (-x + k - 1), (-M + k - 1) * k)
        total += term
    return comb(M, n) * total


@dataclass(frozen=True)
class SpectrumTable:
    """Per-eigenspace data of H(M,2): lambda_s, p_2(lambda_s) and dim E(s)."""

    M: int
    lam: np.ndarray           # p_1(lambda_s) = M - 2s, s = 0..M
    p2: np.ndarray            # p_2(lambda_s) = ((M - 2s)^2 - M) / 2
    multiplicity: np.ndarray  # C(M, s)


def spectrum_table(M: int) -> SpectrumTable:
    """The table for 1 <= M <= SPECTRUM_MAX_M, where every C(M, s) fits an int64."""
    if M < 1:
        raise InvalidInputError("M must be at least 1")
    if M > SPECTRUM_MAX_M:
        raise InvalidInputError(
            f"M = {M} exceeds {SPECTRUM_MAX_M}: the multiplicities C(M, s) overflow int64"
        )
    s = np.arange(M + 1)
    lam = (M - 2 * s).astype(float)
    p2 = (lam * lam - M) / 2.0
    mult = np.array([comb(M, int(v)) for v in s], dtype=np.int64)
    return SpectrumTable(M=M, lam=lam, p2=p2, multiplicity=mult)


def graph_eigenvalue(s: int, spec) -> float:
    """Eigenvalue (alpha/2) p_2(lambda_s) + (beta/2) p_1(lambda_s) of the walk Hamiltonian.

    `spec` is any object with M, alpha, beta attributes (see walk.WalkSpec).
    """
    if not 0 <= s <= spec.M:
        raise InvalidInputError(f"s must lie in [0, {spec.M}], got {s}")
    lam = spec.M - 2 * s
    return 0.5 * spec.alpha * (lam * lam - spec.M) / 2.0 + 0.5 * spec.beta * lam


def graph_eigenvalues(spec) -> np.ndarray:
    """All walk eigenvalues indexed by s = 0..M as a float array."""
    # lambda_s = M - 2s directly: spectrum_table stops at SPECTRUM_MAX_M (int64 C(M, s))
    lam = (spec.M - 2 * np.arange(spec.M + 1)).astype(float)
    # an overflow leaves inf or NaN, which errors.eigenphases refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * spec.alpha * ((lam * lam - spec.M) / 2.0) + 0.5 * spec.beta * lam
