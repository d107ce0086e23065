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
from typing import NamedTuple

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


class Couplings(NamedTuple):
    J: np.ndarray   # J_n = sqrt(n(N-n))/2 for n = 1..N-1
    J1: np.ndarray  # nearest couplings beta*J_n, n = 1..N-1
    J2: np.ndarray  # next-to-nearest couplings alpha*J_n*J_{n+1}, n = 1..N-2
    B: np.ndarray   # on-site terms alpha*(J_n^2 + J_{n-1}^2), n = 1..N


def couplings(spec: ChainSpec) -> Couplings:
    """All coupling arrays of the chain; J_0 = J_N = 0 make the on-site formula total."""
    N = spec.N
    n = np.arange(1, N)
    J = 0.5 * np.sqrt(n * (N - n))
    J1 = spec.beta * J
    J2 = spec.alpha * J[:-1] * J[1:]
    Jpad = np.concatenate(([0.0], J, [0.0]))  # J_0 .. J_N
    B = spec.alpha * (Jpad[1:N + 1] ** 2 + Jpad[0:N] ** 2)
    return Couplings(J=J, J1=J1, J2=J2, B=B)


@dataclass(frozen=True)
class ChainOperator:
    """Symmetric pentadiagonal one-excitation Hamiltonian."""

    diag: np.ndarray      # length N
    offdiag1: np.ndarray  # length N-1
    offdiag2: np.ndarray  # length N-2

    @property
    def N(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        h = np.diag(self.diag)
        h += np.diag(self.offdiag1, 1) + np.diag(self.offdiag1, -1)
        if len(self.offdiag2):
            h += np.diag(self.offdiag2, 2) + np.diag(self.offdiag2, -2)
        return h


def build_hamiltonian(spec: ChainSpec) -> ChainOperator:
    """Assemble the pentadiagonal operator, which equals alpha*J^2 + beta*J.

    The factorization is an exact identity (in floats, up to a few ulp of the
    largest entry); the tests check it against oracle.hopping_matrix.
    """
    c = couplings(spec)
    return ChainOperator(diag=c.B, offdiag1=c.J1, offdiag2=c.J2)


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
    check_elements(spec.N * spec.N, "the chain Hamiltonian")
    with np.errstate(over="ignore"):
        h = build_hamiltonian(spec).to_dense()
    # max|E| is at least the largest |entry| of a symmetric matrix, and eigh cannot take an inf
    if not np.isfinite(h).all():
        raise InvalidInputError("the spectrum overflows a float")
    w, v = np.linalg.eigh(h)
    phases = eigenphases(tau, w)
    require_unit_norm(psi0)
    return v @ (phases * (v.T @ psi0))
