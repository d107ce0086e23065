"""The analytic spectrum of the walk Hamiltonian, from Krawtchouk polynomials.

The values K_i(s; 2, M) at integer points are the eigenvalues of the Hamming
scheme adjacency operators: A_i acts as K_i(s; 2, M) on the common eigenspace
E(s) of dimension C(M, s), where A_1 has eigenvalue lambda_s = M - 2s.
Spectra destined for evolution are assembled in double precision; the matrix
of values K_s(w) is built in exact integers and converted to float once.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import check_elements


def graph_eigenvalues(spec) -> np.ndarray:
    """All walk eigenvalues indexed by s = 0..M as a float array, M + 1 within the size guard."""
    check_elements(spec.M + 1, "the spectrum")
    # lambda_s = M - 2s directly: oracle.spectrum_table stops where C(M, s) leaves int64
    lam = (spec.M - 2 * np.arange(spec.M + 1)).astype(float)
    # an overflow leaves inf or NaN, which errors.eigenphases refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * spec.alpha * ((lam * lam - spec.M) / 2.0) + 0.5 * spec.beta * lam


def krawtchouk_matrix(M: int) -> np.ndarray:
    """K_s(w; 2, M) at row s and column w, s, w = 0..M, as a float array within the size guard.

    Column w holds the coefficients of (1 - z)^w (1 + z)^(M - w), in exact
    integers: (1 + z) P_{w+1} = (1 - z) P_w, so the coefficient of z^s in
    P_{w+1} is a_s - a_{s-1} minus its own coefficient of z^(s-1).  Converted
    to float once; oracle.krawtchouk is the reference.
    """
    check_elements((M + 1) ** 2, "the Krawtchouk matrix")
    column = [comb(M, s) for s in range(M + 1)]  # (1 + z)^M, w = 0
    columns = [column]
    for _ in range(M):
        previous, column = column, []
        for s, a in enumerate(previous):
            column.append(a - previous[s - 1] - column[s - 1] if s else a)
        columns.append(column)
    return np.array(columns, dtype=float).T
