"""The analytic spectrum of the walk Hamiltonian, from Krawtchouk polynomials.

The values K_i(s; 2, M) at integer points are the eigenvalues of the Hamming
scheme adjacency operators: A_i acts as K_i(s; 2, M) on the common eigenspace
E(s) of dimension C(M, s), where A_1 has eigenvalue lambda_s = M - 2s.
Spectra destined for evolution are assembled in double precision.
"""

from __future__ import annotations

import numpy as np


def graph_eigenvalues(spec) -> np.ndarray:
    """All walk eigenvalues indexed by s = 0..M as a float array."""
    # lambda_s = M - 2s directly: oracle.spectrum_table stops where C(M, s) leaves int64
    lam = (spec.M - 2 * np.arange(spec.M + 1)).astype(float)
    # an overflow leaves inf or NaN, which errors.eigenphases refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * spec.alpha * ((lam * lam - spec.M) / 2.0) + 0.5 * spec.beta * lam
