"""Continuous-time quantum walk on the hypercube with face diagonals.

The Hamiltonian is H = (alpha/2) A_2 + (beta/2) A_1 on {0,1}^M: hypercube
edges carry weight beta/2 and face diagonals weight alpha/2.  Both operators
are diagonalized by the +-1 character vectors of (Z_2)^M, so evolution is
exact and analytic: Walsh-Hadamard transform, multiply by the per-weight
eigenphases exp(-i tau E_s), transform back.  Cost O(M 2^M), one radix-2
butterfly stage per bit, with deterministic output.

The corner-started walk stays in the column space of the Hamming scheme:
every vertex of weight w carries the same amplitude
psi_w = 2^-M sum_s K_s(w) exp(-i tau E_s).  column_amplitudes is the one
home of that sum: evolve writes its 2^M rows from the M + 1 values psi_w,
quotient compares their column coordinates with the chain, and a verdict
reads the classes w = 0 and M, the start corner and the antipode, at O(M)
per time (antipodal_scan, and antipodal_amplitudes as its one-point case).
None of them builds a 2^M state.  The full evolution is the engine for
general states and the tests' oracle of those closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kraw, scheme
from .errors import InvalidInputError, ResourceLimitError, check_size, eigenphases, require_length, require_model, require_unit_norm

ORACLE_MAX_M = 10
EPS = 2.0 ** -52


@dataclass(frozen=True)
class WalkSpec:
    """Graph model parameters: M = N-1 bits, diagonal weight alpha/2, edge weight beta/2.

    errors.require_model refuses them as the model of N = M + 1 sites, (0, 0) included.
    """

    M: int
    alpha: float
    beta: float

    def __post_init__(self):
        require_model(self.M + 1, self.alpha, self.beta)

    @property
    def size(self) -> int:
        return 1 << self.M

    @cached_property
    def energies(self) -> np.ndarray:
        """kraw.graph_eigenvalues, computed once per spec (read-only), with its size guard."""
        energies = kraw.graph_eigenvalues(self)
        energies.flags.writeable = False
        return energies

    @cached_property
    def reach(self) -> float:
        """max |E_s|, computed once per spec."""
        return float(np.abs(self.energies).max())


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

    Component z of the output is 2^(-M/2) * sum_x (-1)^(x.z) psi(x), from the
    radix-2 butterfly stages h = 1, 2, 4, ... in that order.
    """
    psi = np.asarray(psi)
    n = psi.shape[0] if psi.ndim == 1 else 0
    if psi.ndim != 1 or n < 1 or (n & (n - 1)) != 0:
        raise InvalidInputError("input length must be a power of two")
    out = psi.astype(complex, copy=True)
    h = 1
    while h < n:
        a, b = out.reshape(-1, 2, h).transpose(1, 0, 2)
        top = a + b
        np.subtract(a, b, out=b)
        a[...] = top
        h *= 2
    out *= 1.0 / np.sqrt(n)
    return out


def phase_table(spec: WalkSpec, tau) -> np.ndarray:
    """exp(-i tau E_s) for s = 0..M, E_s the analytic eigenvalue on E(s), via errors.eigenphases.

    An array of times gives one row per time.
    """
    return eigenphases(tau, spec.energies)


def resolves(reach: float, tau: float, tolerance: float) -> bool:
    """Whether a float gate of this tolerance at time tau lies above 3 eps |tau| R, the most rounding can move it.

    R is the reach max|E| (WalkSpec.reach); chain.chain_evolve takes the same phases, so it covers both engines.
    A gate weighs computed phases tau E_s against one another: the appendix
    identity sets each against that of s = 0, and an amplitude sums them.
    With eps = 2^-52 and R = max|E|, each phase carries two roundings:
    (a) of E_s = a + b, its alpha term a and beta term b.
        kraw.graph_eigenvalues rounds a, b and their sum once each, so E_s is
        off by at most (eps/2)(|a| + |b| + |E_s|).  |a| + |b| is largest at
        s = 0 and M, which share a while b changes sign, so it is the larger
        of |E_0| and |E_M|, at most R; E_s is within eps R, and the phase
        within eps |tau| R;
    (b) of the product tau E_s: eps/2 |tau| R.
    Two phases so move apart by up to 2 (eps + eps/2) |tau| R.  A gate at or
    below that cannot tell a deviation from rounding, so a report that
    cannot resolve it says so instead of failing on it.  tau is taken as
    the gate's exact time.  Left out is a floor with no factor tau, about
    2(M + 1) eps from the fixed-order sum and the exp: the tests hold rows 0
    and M of column_amplitudes within 3 eps |tau| R + 2(M + 1) eps of an exact
    integer evaluation of the same float model.  No gate lies near 1e-16.
    """
    return 3 * EPS * abs(tau) * reach < tolerance


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


def column_amplitudes(spec: WalkSpec, taus, rows=None) -> np.ndarray:
    """The corner-started walk's amplitude psi_w on each vertex of weight w: a row per time, a column per w of rows.

    psi_w = 2^-M sum_s K_s(w) exp(-i tau E_s) with kraw.column_weights (every
    w by default; one time gives one row), summed over s = 0..M left to right
    (a cumulative sum, a block of times at once, with no BLAS and no pairwise
    reduction), so a value's bits depend on its own time and class alone: not
    on the rest of the call or the BLAS kernel.  O(M) per value, with no 2^M
    table; evolve_graph of the corner state is its oracle.  Refused before any
    exp by kraw.column_weights, then by phase_table, in evolve_graph's order.
    """
    weights = kraw.column_weights(spec.M, rows)
    phases = phase_table(spec, taus)
    flat = phases.reshape(-1, spec.M + 1)
    psi = np.empty((len(flat), len(weights)), dtype=complex)
    block = max(1, -(-len(flat) // max(1, 2 * len(weights))))  # half the phases' room, one block alive at a time
    for lo in range(0, len(flat), block):
        terms = flat[lo:lo + block, None] * weights
        psi[lo:lo + block] = np.cumsum(terms, axis=-1, out=terms)[..., -1]
        del terms
    return psi.reshape(phases.shape[:-1] + psi.shape[1:])


def dense_hamiltonian(spec: WalkSpec) -> np.ndarray:
    """Materialize (alpha/2) A_2 + (beta/2) A_1 densely: the tests' reference, which no command calls (oracle scale only)."""
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

    @classmethod
    def of(cls, mu, nu) -> AntipodalAmplitudes:
        """The two amplitudes as Python complex values, with their leakage."""
        mu, nu = complex(mu), complex(nu)
        return cls(mu=mu, nu=nu, leakage=1.0 - abs(mu) ** 2 - abs(nu) ** 2)


def antipodal_amplitudes(spec: WalkSpec, tau: float) -> AntipodalAmplitudes:
    """The corner-started walk's amplitudes at the start corner and the antipode.

    The one-point case of antipodal_scan, so equal bit for bit to the row of
    any scan that holds tau: read from the closed form at O(M), with no 2^M
    state.  evolve_graph(spec, corner_state(M), tau)[0] and [-1] give the
    same amplitudes within rounding (the tests' oracle).  antipodal_scan
    makes the refusals.
    """
    mus, nus = antipodal_scan(spec, [tau])
    return AntipodalAmplitudes.of(mus[0], nus[0])


def antipodal_scan(spec: WalkSpec, taus: np.ndarray):
    """Corner-start antipodal amplitudes (mu, nu) at many times at once: the classes w = 0 and M of column_amplitudes.

    mu = 2^-M sum_s C(M,s) e^{-i tau E_s} and nu is the same sum with a factor
    (-1)^s, at O(M) per time; a row's bits depend on its own time alone.
    column_amplitudes makes the refusals.
    """
    return tuple(column_amplitudes(spec, np.atleast_1d(taus), (0, spec.M)).T)
