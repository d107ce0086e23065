"""One-excitation sector of the Krawtchouk chain with next-to-nearest couplings.

Sites are numbered 1..N in the API (stored in array slot n-1).  The hopping
amplitudes J_n = sqrt(n(N-n))/2 are the recurrence coefficients of the
Krawtchouk polynomials; the one-excitation Hamiltonian is the pentadiagonal
operator with nearest couplings beta*J_n, next-to-nearest couplings
alpha*J_n*J_{n+1} and on-site terms alpha*(J_n^2 + J_{n-1}^2), which factors
exactly as alpha*J^2 + beta*J.  Evolution uses a full symmetric
eigendecomposition; N stays at desk scale, so exactness beats scalability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_elements, eigenphases, require_length, require_model, require_unit_norm


@dataclass(frozen=True)
class ChainSpec:
    """Chain model parameters: N sites, NNN strength alpha, NN strength beta.

    errors.require_model refuses them, (alpha, beta) = (0, 0) included.
    """

    N: int
    alpha: float
    beta: float

    def __post_init__(self):
        require_model(self.N, self.alpha, self.beta)


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """The dense N x N pentadiagonal Hamiltonian, which equals alpha*J^2 + beta*J.

    J_0 = J_N = 0 make the on-site formula total.  The factorization is an
    exact identity (in floats, up to a few ulp of the largest entry); the
    tests check it against oracle.hopping_matrix.  Refused within the size
    guard, and when an entry overflows a float: max|E| is at least the largest
    |entry| of a symmetric matrix, and eigh cannot take an inf.
    """
    N, alpha, beta = spec.N, spec.alpha, spec.beta
    check_elements(N * N, "the chain Hamiltonian")
    n = np.arange(1, N)
    J = 0.5 * np.sqrt(n * (N - n))
    Jpad = np.concatenate(([0.0], J, [0.0]))  # J_0 .. J_N
    with np.errstate(over="ignore"):
        h = np.diag(alpha * (Jpad[1:N + 1] ** 2 + Jpad[0:N] ** 2))
        h += np.diag(beta * J, 1) + np.diag(beta * J, -1)
        if N > 2:
            J2 = alpha * J[:-1] * J[1:]
            h += np.diag(J2, 2) + np.diag(J2, -2)
    if not np.isfinite(h).all():
        raise InvalidInputError("the spectrum overflows a float")
    return h


def site_state(N: int, site: int) -> np.ndarray:
    """Unit basis vector for a single excitation at the given site (1-based), within the size guard."""
    check_elements(N, "the chain state")
    if not 1 <= site <= N:
        raise InvalidInputError(f"site must lie in [1, {N}], got {site}")
    psi = np.zeros(N, dtype=complex)
    psi[site - 1] = 1.0
    return psi


def chain_evolve(spec: ChainSpec, psi0: np.ndarray, tau: float) -> np.ndarray:
    """Evolve a one-excitation state: returns exp(-i tau H) psi0.

    The input must already be unit norm (no silent renormalization); the
    propagator is built from the dense symmetric eigendecomposition, whose
    N x N matrix the size guard holds.  The eigenphase refusals come before
    the norm check.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    require_length(psi0, spec.N)
    w, v = np.linalg.eigh(build_hamiltonian(spec))
    phases = eigenphases(tau, w)
    require_unit_norm(psi0)
    return v @ (phases * (v.T @ psi0))


def graph_phase(N: int, alpha: float, tau: float) -> complex:
    """exp(+i tau alpha (N-1)/4), which turns the site-1 chain at tau into the corner-started walk's column coordinates.

    It restores the constant (alpha/4)(N-1) I dropped in reducing the graph Hamiltonian
    to (alpha/2)A_2 + (beta/2)A_1; a phase that overflows is refused.
    """
    shift = tau * alpha * (N - 1) / 4.0
    if not np.isfinite(shift):
        raise InvalidInputError("the chain phase tau * alpha * (N - 1) / 4 overflows a float")
    return np.exp(1j * shift)
