"""Column-space projection tying the graph walk to the chain dynamics.

Column n collects the vertices at Hamming distance n-1 from the all-zeros
corner (k_n = C(N-1, n-1) of them); |col n> is their normalized uniform
superposition.  The walk Hamiltonian preserves the span of these N vectors,
and its matrix elements there reproduce the chain couplings exactly:
<col n+1|A_1|col n> = 2 J_n, <col n+2|A_2|col n> = 2 J_n J_{n+1}, and the
diagonal of A_2/2 + (N-1)/4 reproduces the on-site terms.  Everything here is
verified by explicit summation over vertices, in exact integers wherever the
quantity is rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite

import numpy as np

from . import chain as chain_mod
from . import scheme, walk
from .errors import InvalidInputError, ResourceLimitError, require_length, require_model

# Explicit two-index summation over all vertex pairs stops here.
ENUMERATION_MAX_N = 14


def _check_enumeration(N: int) -> None:
    """Refuse what errors.require_model refuses, then N above ENUMERATION_MAX_N, before enumerating."""
    require_model(N)
    if N > ENUMERATION_MAX_N:
        raise ResourceLimitError(f"explicit enumeration refused for N = {N} > {ENUMERATION_MAX_N}")


@dataclass(frozen=True)
class ColumnBasis:
    """The N orthonormal column vectors over {0,1}^(N-1), indexed n = 1..N."""

    N: int

    def __post_init__(self):
        require_model(self.N)

    @property
    def M(self) -> int:
        return self.N - 1

    @property
    def sizes(self) -> np.ndarray:
        """k_n = C(N-1, n-1) vertices in column n."""
        return np.array([comb(self.M, n) for n in range(self.N)], dtype=np.int64)

    def members(self, n: int) -> np.ndarray:
        """Vertices of column n (bit-weight n-1), computed on demand."""
        if not 1 <= n <= self.N:
            raise InvalidInputError(f"column index must lie in [1, {self.N}], got {n}")
        return np.nonzero(scheme.hamming_weights(self.M) == n - 1)[0]

    def column_vector(self, n: int) -> np.ndarray:
        """|col n> as a full amplitude vector."""
        members = self.members(n)
        psi = np.zeros(1 << self.M, dtype=complex)
        psi[members] = 1.0 / np.sqrt(len(members))
        return psi


@dataclass(frozen=True)
class ColumnState:
    """Column coordinates c_n = <col n|psi> plus the squared norm outside the span."""

    coords: np.ndarray
    leakage: float


def project(basis: ColumnBasis, psi: np.ndarray) -> ColumnState:
    """Project an amplitude vector onto the column space.

    c_n = k_n^(-1/2) * sum of psi over the weight-(n-1) vertices; the leakage
    is ||psi||^2 - sum |c_n|^2.
    """
    psi = np.asarray(psi)
    require_length(psi, 1 << basis.M)
    weights = scheme.hamming_weights(basis.M)
    psi = psi.astype(complex)
    sums = (
        np.bincount(weights, weights=psi.real, minlength=basis.N)
        + 1j * np.bincount(weights, weights=psi.imag, minlength=basis.N)
    )
    coords = sums / np.sqrt(basis.sizes)
    leakage = float(np.linalg.norm(psi) ** 2 - np.sum(np.abs(coords) ** 2))
    return ColumnState(coords=coords, leakage=leakage)


def _pair_counts(M: int, distance: int) -> np.ndarray:
    """counts[a, b] = ordered vertex pairs (y, x) with |y| = a, |x| = b, d(x, y) = distance."""
    weights = scheme.hamming_weights(M).astype(np.int64)
    idx = np.arange(1 << M)
    counts = np.zeros((M + 1) * (M + 1), dtype=np.int64)
    for mask in scheme.weight_masks(M, distance):
        counts += np.bincount(
            weights * (M + 1) + weights[idx ^ mask], minlength=(M + 1) * (M + 1)
        )
    return counts.reshape(M + 1, M + 1)


@dataclass(frozen=True)
class ShiftedDiagonalReport:
    """Check of <col n|A_2/2 + (N-1)/4|col n> = J_n^2 + J_{n-1}^2, per column."""

    N: int
    exact: bool
    max_deviation: float

    @property
    def passed(self) -> bool:
        return self.exact and self.max_deviation < 1e-12


@dataclass(frozen=True)
class QuotientTable:
    """Column-basis matrix elements of A_1 and A_2, from explicit summation."""

    N: int
    a1_upper: np.ndarray   # <col n+1|A_1|col n>, n = 1..N-1
    a2_upper: np.ndarray   # <col n+2|A_2|col n>, n = 1..N-2
    a2_lower: np.ndarray   # <col n-2|A_2|col n>, n = 3..N
    a2_diag: np.ndarray    # <col n|A_2|col n>,  n = 1..N
    max_closed_form_deviation: float
    exact_closed_forms: bool
    shifted: ShiftedDiagonalReport  # the on-site check, from the same distance-2 counts

    @property
    def distance4_same_column(self) -> np.ndarray:
        """Ordered vertex pairs inside each column at distance 4, counted when read."""
        return _pair_counts(self.N - 1, 4).diagonal().copy()

    @property
    def passed(self) -> bool:
        """Every closed form holds exactly on integers and within 1e-12 in floats."""
        return self.exact_closed_forms and self.max_closed_form_deviation < 1e-12

    def q1(self) -> np.ndarray:
        """Quotient of A_1: tridiagonal with the measured elements (equals 2J)."""
        return np.diag(self.a1_upper, -1) + np.diag(self.a1_upper, 1)

    def q2(self) -> np.ndarray:
        """Quotient of A_2: measured diagonal and distance-2 bands."""
        q = np.diag(self.a2_diag)
        if len(self.a2_upper):
            q += np.diag(self.a2_upper, -2) + np.diag(self.a2_upper, 2)
        return q


def quotient_matrix_elements(N: int) -> QuotientTable:
    """Measure every column-basis matrix element of A_1 and A_2 and check the closed forms.

    Closed forms asserted exactly on integers (squared where a square root is
    involved): <col n+1|A_1|col n>^2 = n(N-n), 4<col n+/-2|A_2|col n>^2 =
    n(n+1)(N-n)(N-n-1), <col n|A_2|col n> = (n-1)(N-n).  Vertex pairs inside a
    column at distance 4 never contribute to A_2; the table counts them only
    when distance4_same_column is read.  The same distance-2 counts give the
    exact rational check of the shifted diagonal, table.shifted.
    """
    _check_enumeration(N)
    M = N - 1
    k = ColumnBasis(N).sizes
    counts1 = _pair_counts(M, 1)
    counts2 = _pair_counts(M, 2)

    # counts index by bit-weight w = n-1
    a1_upper = np.array(
        [counts1[n - 1, n] / np.sqrt(k[n - 1] * k[n]) for n in range(1, N)]
    )
    a2_upper = np.array(
        [counts2[n - 1, n + 1] / np.sqrt(k[n - 1] * k[n + 1]) for n in range(1, N - 1)]
    )
    a2_lower = np.array(
        [counts2[n - 1, n - 3] / np.sqrt(k[n - 1] * k[n - 3]) for n in range(3, N + 1)]
    )
    a2_diag = np.array([counts2[n - 1, n - 1] / k[n - 1] for n in range(1, N + 1)], dtype=float)

    exact = True
    for n in range(1, N):
        c = int(counts1[n - 1, n])
        exact &= c == k[n - 1] * (N - n)
        exact &= c * c == n * (N - n) * int(k[n - 1]) * int(k[n])
    for n in range(1, N - 1):
        c = int(counts2[n - 1, n + 1])
        exact &= 2 * c == int(k[n - 1]) * (N - n) * (N - n - 1)
        exact &= 4 * c * c == n * (n + 1) * (N - n) * (N - n - 1) * int(k[n - 1]) * int(k[n + 1])
    for n in range(3, N + 1):
        exact &= int(counts2[n - 1, n - 3]) == int(counts2[n - 3, n - 1])
    shifted_exact = True
    shifted_dev = 0.0
    for n in range(1, N + 1):
        exact &= int(counts2[n - 1, n - 1]) == int(k[n - 1]) * (n - 1) * (N - n)
        lhs = Fraction(int(counts2[n - 1, n - 1]), int(k[n - 1])) / 2 + Fraction(N - 1, 4)
        rhs = Fraction(n * (N - n) + (n - 1) * (N - n + 1), 4)  # J_n^2 + J_{n-1}^2
        shifted_exact &= lhs == rhs
        shifted_dev = max(shifted_dev, abs(float(lhs) - float(rhs)))

    nvals = np.arange(1, N, dtype=float)
    dev = np.abs(a1_upper - np.sqrt(nvals * (N - nvals))).max()
    if N >= 3:
        nvals = np.arange(1, N - 1, dtype=float)
        closed = 0.5 * np.sqrt(nvals * (nvals + 1) * (N - nvals) * (N - nvals - 1))
        dev = max(dev, np.abs(a2_upper - closed).max())
        # symmetry: <col n-2|A_2|col n> for n = 3..N equals the forward band
        dev = max(dev, np.abs(a2_lower - closed).max())
    nvals = np.arange(1, N + 1, dtype=float)
    dev = max(dev, np.abs(a2_diag - (nvals - 1) * (N - nvals)).max())

    return QuotientTable(
        N=N,
        a1_upper=a1_upper,
        a2_upper=a2_upper,
        a2_lower=a2_lower,
        a2_diag=a2_diag,
        max_closed_form_deviation=float(dev),
        exact_closed_forms=bool(exact),
        shifted=ShiftedDiagonalReport(N=N, exact=bool(shifted_exact), max_deviation=shifted_dev),
    )


def verify_shifted_diagonal(N: int) -> ShiftedDiagonalReport:
    """Exact rational check that the shifted A_2 diagonal equals the on-site couplings."""
    return quotient_matrix_elements(N).shifted


@dataclass(frozen=True)
class EquivalenceReport:
    """Projected graph evolution versus phase-corrected chain evolution."""

    N: int
    alpha: float
    beta: float
    tau: float
    max_deviation: float
    leakage: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < 1e-10 and abs(self.leakage) < 1e-10


def equivalence_check(N: int, alpha: float, beta: float, tau: float) -> EquivalenceReport:
    """Certify that the corner-started walk projects onto the chain dynamics."""
    spec = walk.WalkSpec(M=N - 1, alpha=alpha, beta=beta)
    evolved = walk.evolve_graph(spec, walk.corner_state(spec.M), tau)
    chain_side = chain_mod.chain_evolve(
        chain_mod.ChainSpec(N=N, alpha=alpha, beta=beta), chain_mod.site_state(N, 1), tau
    )
    return compare_states(N, alpha, beta, tau, evolved, chain_side)


def compare_states(
    N: int, alpha: float, beta: float, tau: float, graph_state: np.ndarray, chain_state: np.ndarray
) -> EquivalenceReport:
    """Compare the corner-started walk and the site-1 chain, both already evolved to tau.

    The chain side is multiplied by exp(+i tau alpha (N-1)/4), compensating
    the constant (alpha/4)(N-1) I dropped when the graph Hamiltonian was
    reduced to (alpha/2)A_2 + (beta/2)A_1; a phase that overflows is refused.
    """
    shift = tau * alpha * (N - 1) / 4.0
    if not isfinite(shift):
        raise InvalidInputError("the chain phase tau * alpha * (N - 1) / 4 overflows a float")
    state = project(ColumnBasis(N), graph_state)
    chain_side = np.exp(1j * shift) * chain_state
    dev = float(np.abs(state.coords - chain_side).max())
    return EquivalenceReport(
        N=N, alpha=alpha, beta=beta, tau=tau, max_deviation=dev, leakage=state.leakage
    )
