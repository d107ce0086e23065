"""Continuous-time quantum walk on the hypercube with face diagonals.

The Hamiltonian is H = (alpha/2) A_2 + (beta/2) A_1 on {0,1}^M: hypercube
edges carry weight beta/2 and face diagonals weight alpha/2.  Both operators
are diagonalized by the +-1 character vectors of (Z_2)^M, so evolution is
exact and analytic: Walsh-Hadamard transform, multiply by the per-weight
eigenphases exp(-i tau E_s), transform back.  Cost O(M 2^M) with bit-exact
deterministic output: the transform fuses its butterfly stages in pairs,
ceil(M/2) passes over memory instead of M, in the radix-2 order, so the output
bits do not depend on the fusion.

The corner-started walk stays in the column space of the Hamming scheme, so
the two amplitudes a verdict needs, at the start corner and at the antipode,
come from a closed form in O(M) per time (antipodal_scan, and
antipodal_amplitudes as its one-point case), with no 2^M state.  The full
evolution serves the evolve reports and, at oracle scale, the cross-check of
that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from . import kraw, scheme
from .errors import InvalidInputError, ResourceLimitError, check_size, eigenphases, require_length, require_model, require_unit_norm

ORACLE_MAX_M = 10


@dataclass(frozen=True)
class WalkSpec:
    """Graph model parameters: M = N-1 bits, diagonal weight alpha/2, edge weight beta/2.

    errors.require_model refuses them as the model of N = M + 1 sites.
    """

    M: int
    alpha: float
    beta: float

    def __post_init__(self):
        require_model(self.M + 1, self.alpha, self.beta)

    @property
    def size(self) -> int:
        return 1 << self.M


def basis_state(M: int, vertex: int) -> np.ndarray:
    """Unit amplitude vector localized on one vertex of {0,1}^M."""
    check_size(M)
    size = 1 << M
    if not 0 <= vertex < size:
        raise InvalidInputError(f"vertex must lie in [0, 2^{M}), got {vertex}")
    psi = np.zeros(size, dtype=complex)
    psi[vertex] = 1.0
    return psi


def corner_state(M: int) -> np.ndarray:
    """The walk's canonical start: everything at the all-zeros corner."""
    return basis_state(M, 0)


def fwht(psi: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform (unitary, involutive).

    Component z of the output is 2^(-M/2) * sum_x (-1)^(x.z) psi(x).  The
    radix-2 butterfly stages h = 1, 2, 4, ... are fused in pairs (h, 2h) into
    one radix-4 pass over memory, with a last radix-2 stage when M is odd.
    A fused pass performs the same additions in the same order as the two
    stages it replaces, so the output bits do not depend on the fusion and
    the result is deterministic.
    """
    psi = np.asarray(psi)
    n = psi.shape[0] if psi.ndim == 1 else 0
    if psi.ndim != 1 or n < 1 or (n & (n - 1)) != 0:
        raise InvalidInputError("input length must be a power of two")
    out = psi.astype(complex, copy=True)
    h = 1
    while 4 * h <= n:
        x = out.reshape(-1, 4, h)
        t0 = x[:, 0] + x[:, 1]
        t1 = x[:, 0] - x[:, 1]
        t2 = x[:, 2] + x[:, 3]
        t3 = x[:, 2] - x[:, 3]
        np.add(t0, t2, out=x[:, 0])
        np.subtract(t0, t2, out=x[:, 2])
        np.add(t1, t3, out=x[:, 1])
        np.subtract(t1, t3, out=x[:, 3])
        h *= 4
    if h < n:
        x = out.reshape(2, h)
        top = x[0] + x[1]
        np.subtract(x[0], x[1], out=x[1])
        x[0] = top
    out *= 1.0 / np.sqrt(n)
    return out


def phase_table(spec: WalkSpec, tau) -> np.ndarray:
    """exp(-i tau E_s) for s = 0..M, E_s the analytic eigenvalue on E(s), via errors.eigenphases.

    An array of times gives one row per time.
    """
    return eigenphases(tau, kraw.graph_eigenvalues(spec))


def evolve_graph(spec: WalkSpec, psi0: np.ndarray, tau: float) -> np.ndarray:
    """Evolve an amplitude vector: exp(-i tau H) psi0 via the character transform.

    The transform index z picks up the eigenphase of s = popcount(z); no
    numerical diagonalization is involved anywhere on this path.
    """
    check_size(spec.M)
    psi0 = np.asarray(psi0, dtype=complex)
    require_length(psi0, spec.size)
    phases = phase_table(spec, tau)
    require_unit_norm(psi0)
    transformed = fwht(psi0)
    transformed *= phases[scheme.hamming_weights(spec.M)]
    return fwht(transformed)


def dense_hamiltonian(spec: WalkSpec) -> np.ndarray:
    """Materialize (alpha/2) A_2 + (beta/2) A_1 densely (oracle scale only)."""
    if spec.M > ORACLE_MAX_M:
        raise ResourceLimitError(f"dense oracle refused for M = {spec.M} > {ORACLE_MAX_M}")
    h = 0.5 * spec.beta * scheme.dense_adjacency(spec.M, 1).astype(float)
    if spec.M >= 2:
        h += 0.5 * spec.alpha * scheme.dense_adjacency(spec.M, 2).astype(float)
    return h


class AntipodalAmplitudes(NamedTuple):
    mu: complex      # amplitude left at the start corner
    nu: complex      # amplitude at the all-ones antipode
    leakage: float   # 1 - |mu|^2 - |nu|^2


def antipodal_amplitudes(spec: WalkSpec, tau: float) -> AntipodalAmplitudes:
    """The corner-started walk's amplitudes at the start corner and the antipode.

    The one-point case of antipodal_scan: read from the closed form at O(M),
    with no 2^M state.  evolve_graph(spec, corner_state(M), tau)[0] and [-1]
    give the same amplitudes within rounding, and certify_numeric checks this
    at oracle scale.  antipodal_scan makes the refusals.
    """
    mus, nus = antipodal_scan(spec, [tau])
    mu = complex(mus[0])
    nu = complex(nus[0])
    return AntipodalAmplitudes(mu=mu, nu=nu, leakage=1.0 - abs(mu) ** 2 - abs(nu) ** 2)


def antipodal_scan(spec: WalkSpec, taus: np.ndarray):
    """Corner-start antipodal amplitudes (mu, nu) at many times at once.

    The corner-started walk stays in the column space, so
    mu = 2^-M sum_s C(M,s) e^{-i tau E_s} and nu is the same sum with a factor
    (-1)^s, at O(M) per time.  The size guard applies as for evolution, so
    scans refuse the same M; then phase_table refuses, in the order
    evolve_graph does, a time that is not finite, a spectrum that overflows,
    and a largest |tau| whose phase overflows, before exp(-i tau E).
    """
    check_size(spec.M)
    phases = phase_table(spec, np.atleast_1d(taus))
    weights = np.array([comb(spec.M, s) / 2 ** spec.M for s in range(spec.M + 1)])
    return phases @ weights, phases @ (weights * (-1.0) ** np.arange(spec.M + 1))
