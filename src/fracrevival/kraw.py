"""The analytic spectrum of the walk Hamiltonian, from Krawtchouk polynomials.

The values K_i(s; 2, M) at integer points are the eigenvalues of the Hamming
scheme adjacency operators: A_i acts as K_i(s; 2, M) on the common eigenspace
E(s) of dimension C(M, s), where A_1 has eigenvalue lambda_s = M - 2s.
Spectra destined for evolution are assembled in double precision; the
weights K_s(w)/2^M of the corner-started walk are exact integers divided once.
"""

from __future__ import annotations

from itertools import accumulate
from numbers import Integral
from operator import sub

import numpy as np

from .errors import InvalidInputError, check_elements


def graph_eigenvalues(spec) -> np.ndarray:
    """All walk eigenvalues indexed by s = 0..M as a float array, M + 1 within the size guard."""
    check_elements(spec.M + 1, "the spectrum")
    # lambda_s = M - 2s directly: oracle.spectrum_table stops where C(M, s) leaves int64
    lam = (spec.M - 2 * np.arange(spec.M + 1)).astype(float)
    # an overflow leaves inf or NaN, which errors.eigenphases refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * spec.alpha * ((lam * lam - spec.M) / 2.0) + 0.5 * spec.beta * lam


def column_weights(M: int, rows=None) -> np.ndarray:
    """K_s(w; 2, M)/2^M at row j and column s = 0..M, for the weight class w = rows[j] (every w by default).

    The weights of the corner-started walk's amplitude on class w: K_s(w), the
    coefficient of z^s in P_w = (1 - z)^w (1 + z)^(M - w), is an exact integer
    divided once by 2^M, never converted to float on its own.  P_0 holds the
    binomials, C(M, s + 1) = C(M, s)(M - s)/(s + 1); (1 + z) P_{w+1} =
    (1 - z) P_w makes the coefficient of z^s in P_{w+1} a_s - a_{s-1} minus
    its own coefficient of z^(s-1); and K_s(M - w) = (-1)^s K_s(w).  Row 0
    holds about M^2/2 bits and each division costs O(M), so (M + 1)^2 above
    the size guard is refused first for any rows, then a class that is not an
    integer in [0, M].  No classes give a (0, M + 1) table; oracle.krawtchouk is the reference.
    """
    check_elements((M + 1) ** 2, f"the binomial row C({M}, s)")
    if rows is None:
        rows = range(M + 1)
    elif not all(isinstance(w, Integral) for w in rows):
        raise InvalidInputError(f"weight classes must be integers, got {list(rows)}")
    elif not all(0 <= w <= M for w in rows):
        raise InvalidInputError(f"weight classes must lie in [0, {M}], got {list(rows)}")
    table = [list(accumulate(range(M), lambda c, s: c * (M - s) // (s + 1), initial=1))]
    for _ in range(max((min(w, M - w) for w in rows), default=0)):
        differences = map(sub, table[-1], [0] + table[-1][:-1])  # a_s - a_{s-1}
        table.append(list(accumulate(differences, lambda below, d: d - below)))
    scale = 2 ** M  # a class above M/2 takes its mirror's integers with the signs (-1)^s
    return np.array([[(-k if s % 2 else k) / scale for s, k in enumerate(table[M - w])] if 2 * w > M
                     else [k / scale for k in table[w]] for w in rows]).reshape(len(rows), M + 1)
