"""One-excitation sector of the Krawtchouk chain with next-to-nearest couplings.

Sites are numbered 1..N in the API (stored in array slot n-1).  The hopping
amplitudes J_n = sqrt(n(N-n))/2 are the recurrence coefficients of the
Krawtchouk polynomials; the one-excitation Hamiltonian is the pentadiagonal
operator with nearest couplings beta*J_n, next-to-nearest couplings
alpha*J_n*J_{n+1} and on-site terms alpha*(J_n^2 + J_{n-1}^2), which factors
exactly as alpha*J^2 + beta*J: on the column space, the walk's Hamiltonian
plus c = (alpha/4)(N-1), formed here alone.  J's exact spectrum (N-1)/2 - s
(quant-ph/0309131) lets evolution take J's eigenvectors from its own recurrence, the phases
from the walk's spectrum and c as one phase (graph_phase): no eigh and no BLAS, at O(N^2)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_elements, eigenphases, require_length, require_model, require_unit_norm
from .walk import WalkSpec


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


def _couplings(N: int) -> np.ndarray:
    """The hopping amplitudes J_n = sqrt(n(N-n))/2, n = 1..N-1: what the chain reads of its model besides alpha and beta."""
    n = np.arange(1, N)
    return 0.5 * np.sqrt(n * (N - n))


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """The dense N x N pentadiagonal Hamiltonian alpha*J^2 + beta*J: with eigh, the tests' reference, which no command calls.

    J_0 = J_N = 0 make the on-site formula total; the factorization is exact up to a few ulp of the
    largest entry (checked against oracle.hopping_matrix).  Refused within the size guard, and when an entry overflows.
    """
    N, alpha, beta = spec.N, spec.alpha, spec.beta
    check_elements(N * N, "the chain Hamiltonian")
    J = _couplings(N)
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


def _eigenbasis(N: int) -> np.ndarray:
    """J's unit eigenvectors: column s for the eigenvalue (N-1)/2 - s, row n-1 for site n.

    The recurrence J_n v_{n+1} = lambda v_n - J_{n-1} v_{n-1} from v_1 = 1 runs
    to the middle, where every vector grows or oscillates, so rounding does
    not grow; J commutes with the reversal of the sites, so the rest is the
    mirror image times (-1)^s, and at odd N an odd s is exactly 0 at the middle.
    A vector grows by 1/|v_s(1)| = sqrt(2^(N-1)/C(N-1, s)) at most, so above N = 513 a column
    past 2^256 is scaled by 2^-256, exactly, and the norm, summed over the sites in order, is finite.
    """
    J = _couplings(N)
    lam = (N - 1) / 2.0 - np.arange(N)
    v = np.empty((N, N))
    v[0] = 1.0
    for i in range(1, (N + 1) // 2):  # row i holds site i + 1
        v[i] = (lam * v[i - 1] - (J[i - 2] * v[i - 2] if i > 1 else 0.0)) / J[i - 1]
        if N > 513 and (big := np.abs(v[i]) > 2.0 ** 256).any():
            v[:i + 1, big] *= 2.0 ** -256
    v[N // 2, 1::2] = 0.0  # the middle site at odd N; at even N the mirror overwrites the row
    np.multiply(v[N // 2 - 1::-1], (-1.0) ** np.arange(N), out=v[(N + 1) // 2:])
    v /= np.sqrt(sum(row * row for row in v))
    return v


def site_state(N: int, site: int) -> np.ndarray:
    """Unit basis vector for a single excitation at the given site (1-based), within the size guard."""
    check_elements(N, "the chain state")
    if not 1 <= site <= N:
        raise InvalidInputError(f"site must lie in [1, {N}], got {site}")
    psi = np.zeros(N, dtype=complex)
    psi[site - 1] = 1.0
    return psi


def chain_evolve(spec: ChainSpec, psi0: np.ndarray, tau: float) -> np.ndarray:
    """Evolve a one-excitation state: returns exp(-i tau H) psi0, V (phases * V^T psi0) summed in order (no BLAS).

    H - cI has the walk's E_s on J's eigenvector of (N-1)/2 - s (_eigenbasis), so the phases are
    errors.eigenphases of WalkSpec.energies, with the walk's refusals and reach, times
    exp(-i tau c) = conj(graph_phase).  The N x N basis is held by the size guard; the input
    must be unit norm (no silent renormalization), checked after the phases' refusals.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    require_length(psi0, spec.N)
    check_elements(spec.N * spec.N, "the chain Hamiltonian")
    phases = eigenphases(tau, WalkSpec(spec.N - 1, spec.alpha, spec.beta).energies) * np.conj(graph_phase(spec.N, spec.alpha, tau))
    require_unit_norm(psi0)
    v = _eigenbasis(spec.N)
    return _in_order(v, phases * _in_order(v.T, psi0))


def _in_order(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """rows @ x, each sum taken left to right (a cumulative sum, 2^20 products alive at a time), with no BLAS."""
    block = max(1, (1 << 20) // len(x))
    return np.concatenate([np.cumsum(rows[lo:lo + block] * x, axis=1)[:, -1].copy() for lo in range(0, len(rows), block)])


def _on_site(N: int, alpha: float) -> float:
    """c = (alpha/4)(N-1), the constant the walk's Hamiltonian drops: alpha/4 first, so no product overflows before c."""
    return alpha / 4.0 * (N - 1)


def graph_phase(N: int, alpha: float, tau: float) -> complex:
    """exp(+i tau c), which cancels chain_evolve's exp(-i tau c): the site-1 chain times it is the walk's column coordinates.

    tau * c is finite wherever tau max|E_s + c| is, as |c| <= max|E_s + c|; a phase that overflows is refused.
    """
    shift = tau * _on_site(N, alpha)
    if not np.isfinite(shift):
        raise InvalidInputError("the chain phase tau * alpha * (N - 1) / 4 overflows a float")
    return np.exp(1j * shift)
