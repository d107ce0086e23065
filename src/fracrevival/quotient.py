"""Column-space projection tying the graph walk to the chain dynamics.

Column n collects the vertices at Hamming distance n-1 from the all-zeros
corner (k_n = C(N-1, n-1) of them); |col n> is their normalized uniform
superposition.  The walk Hamiltonian preserves the span of these N vectors,
and its matrix elements there reproduce the chain couplings exactly:
<col n+1|A_1|col n> = 2 J_n, <col n+2|A_2|col n> = 2 J_n J_{n+1}, and the
diagonal of A_2/2 + (N-1)/4 reproduces the on-site terms.  The elements come
from exact pair counts between distance shells, a binomial times an
intersection number of H(M,2), and are checked in exact integers wherever the
quantity is rational.  The corner-started walk's coordinates are the
column_state of walk.column_amplitudes, with no 2^M state; project is their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import chain as chain_mod
from . import scheme, walk
from .errors import InvalidInputError, check_elements, require_length, require_model


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
        """k_n = C(N-1, n-1) vertices in column n, each exact integer rounded once to float."""
        return np.array([float(comb(self.M, n)) for n in range(self.N)])


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


def column_state(psi_w: np.ndarray) -> ColumnState:
    """project of the state holding psi_w[w] on every weight-w vertex, without that 2^M state.

    c_w = sqrt(C(M, w)) psi_w, and the leakage is still the squared norm
    outside the span, sum_w C(M, w) |psi_w|^2 - sum |c_w|^2.
    """
    psi_w = np.asarray(psi_w, dtype=complex)
    sizes = ColumnBasis(len(psi_w)).sizes
    coords = np.sqrt(sizes) * psi_w
    leakage = float(sizes @ np.abs(psi_w) ** 2 - np.sum(np.abs(coords) ** 2))
    return ColumnState(coords=coords, leakage=leakage)


def _pair_counts(M: int, distance: int) -> dict[tuple[int, int], int]:
    """counts[a, b] = ordered vertex pairs (y, x) with |y| = a, |x| = b, d(x, y) = distance.

    y flips j of the b ones of x and distance - j of its M - b zeros, so
    a = b + distance - 2j and counts[a, b] = C(M,b) C(b,j) C(M-b,distance-j),
    exact in Python ints (comb is 0 where j does not fit).  Only these band
    entries are stored; every other count is zero.
    """
    counts = {}
    for b in range(M + 1):
        for j in range(distance + 1):
            a = b + distance - 2 * j
            if 0 <= a <= M:
                counts[a, b] = comb(M, b) * comb(b, j) * comb(M - b, distance - j)
    return counts


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
    """Column-basis matrix elements of A_1 and A_2, from exact pair counts."""

    N: int
    a1_upper: np.ndarray   # <col n+1|A_1|col n>, n = 1..N-1
    a2_upper: np.ndarray   # <col n+2|A_2|col n>, n = 1..N-2
    a2_diag: np.ndarray    # <col n|A_2|col n>,  n = 1..N
    exact_closed_forms: bool
    shifted: ShiftedDiagonalReport  # the on-site check, from the same distance-2 counts

    def _closed_form_pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each float element array with its closed form: sqrt(n(N-n)), the A_2 band and (n-1)(N-n)."""
        N = self.N
        n = np.arange(1, N, dtype=float)
        pairs = [(self.a1_upper, np.sqrt(n * (N - n)))]
        if N >= 3:
            n = np.arange(1, N - 1, dtype=float)
            pairs.append((self.a2_upper, 0.5 * np.sqrt(n * (n + 1) * (N - n) * (N - n - 1))))
        n = np.arange(1, N + 1, dtype=float)
        pairs.append((self.a2_diag, (n - 1) * (N - n)))
        return pairs

    @property
    def max_closed_form_deviation(self) -> float:
        """The largest |element - closed form|, in absolute terms."""
        return float(max(np.abs(measured - closed).max() for measured, closed in self._closed_form_pairs()))

    @property
    def passed(self) -> bool:
        """Every closed form holds exactly on integers, and each float element within 1e-12 max(1, |closed form|).

        The gate is relative to each element's size: the diagonal (n-1)(N-n)
        reaches N^2/4, where one rounding exceeds an absolute 1e-12 (N >= 226).
        """
        return self.exact_closed_forms and all(
            (np.abs(measured - closed) < 1e-12 * np.maximum(1.0, np.abs(closed))).all()
            for measured, closed in self._closed_form_pairs()
        )

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

    Refused as errors.require_model refuses, then, before any count, when
    (M + 1)^2, the order of the pair-count band's bits, exceeds the size guard
    or the largest product k_a k_b of column sizes leaves the float range.  The
    elements come from the exact counts of _pair_counts and the sizes k_n as
    Python ints.  Closed forms asserted exactly on integers (squared where a
    square root is involved): <col n+1|A_1|col n>^2 = n(N-n),
    4<col n+/-2|A_2|col n>^2 = n(n+1)(N-n)(N-n-1), <col n|A_2|col n> = (n-1)(N-n).
    The same distance-2 counts give table.shifted, the exact rational check of the shifted diagonal.
    """
    require_model(N)
    M = N - 1
    check_elements((M + 1) ** 2, f"the pair-count band of M = {M}")
    try:
        float(comb(M, M // 2) * comb(M, M // 2 + 1))  # the largest product k_a k_b read below
    except OverflowError as exc:
        raise InvalidInputError(f"the products of the column sizes C({M}, n) overflow a float") from exc
    k = [comb(M, n) for n in range(N)]
    counts1 = _pair_counts(M, 1)
    counts2 = _pair_counts(M, 2)

    # counts index by bit-weight w = n-1
    a1_upper = np.array([counts1[n - 1, n] / np.sqrt(float(k[n - 1] * k[n])) for n in range(1, N)])
    a2_upper = np.array([counts2[n - 1, n + 1] / np.sqrt(float(k[n - 1] * k[n + 1])) for n in range(1, N - 1)])
    a2_diag = np.array([counts2[n - 1, n - 1] / k[n - 1] for n in range(1, N + 1)], dtype=float)

    exact = True
    for n in range(1, N):
        c = counts1[n - 1, n]
        exact &= c == k[n - 1] * (N - n)
        exact &= c * c == n * (N - n) * k[n - 1] * k[n]
    for n in range(1, N - 1):
        c = counts2[n - 1, n + 1]
        exact &= 2 * c == k[n - 1] * (N - n) * (N - n - 1)
        exact &= 4 * c * c == n * (n + 1) * (N - n) * (N - n - 1) * k[n - 1] * k[n + 1]
    for n in range(3, N + 1):
        exact &= counts2[n - 1, n - 3] == counts2[n - 3, n - 1]
    shifted_exact = True
    shifted_dev = 0.0
    for n in range(1, N + 1):
        exact &= counts2[n - 1, n - 1] == k[n - 1] * (n - 1) * (N - n)
        lhs = Fraction(counts2[n - 1, n - 1], k[n - 1]) / 2 + Fraction(N - 1, 4)
        rhs = Fraction(n * (N - n) + (n - 1) * (N - n + 1), 4)  # J_n^2 + J_{n-1}^2
        shifted_exact &= lhs == rhs
        shifted_dev = max(shifted_dev, abs(float(lhs) - float(rhs)))

    return QuotientTable(
        N=N,
        a1_upper=a1_upper,
        a2_upper=a2_upper,
        a2_diag=a2_diag,
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
    def resolved(self) -> bool:
        """Whether walk.resolves the 1e-10 deviation gate at tau: the chain evolves in the walk's spectrum too."""
        spec = walk.WalkSpec(M=self.N - 1, alpha=self.alpha, beta=self.beta)
        return walk.resolves(spec.reach, self.tau, 1e-10)

    @property
    def passed(self) -> bool:
        """The deviation below 1e-10 wherever the float resolves that at tau, and the leakage below 1e-10.

        The leakage is two equal sums of the same amplitudes, so rounding, not
        tau, sets its size.
        """
        return (self.max_deviation < 1e-10 or not self.resolved) and abs(self.leakage) < 1e-10


def equivalence_check(N: int, alpha: float, beta: float, tau: float) -> EquivalenceReport:
    """Certify that the corner-started walk projects onto the chain dynamics, as evolve --target both compares them."""
    spec = walk.WalkSpec(M=N - 1, alpha=alpha, beta=beta)
    graph_columns = column_state(walk.column_amplitudes(spec, tau))
    chain_side = chain_mod.chain_evolve(
        chain_mod.ChainSpec(N=N, alpha=alpha, beta=beta), chain_mod.site_state(N, 1), tau
    )
    return compare_states(N, alpha, beta, tau, graph_columns, chain_side)


def compare_states(
    N: int, alpha: float, beta: float, tau: float, graph_columns: ColumnState, chain_state: np.ndarray
) -> EquivalenceReport:
    """Compare the corner-started walk and the site-1 chain, both already evolved to tau.

    The walk comes as its column coordinates (project or column_state), and
    the chain side is multiplied by chain.graph_phase (with its refusal),
    which cancels chain_evolve's exp(-i tau c).
    """
    chain_side = chain_mod.graph_phase(N, alpha, tau) * chain_state
    dev = float(np.abs(graph_columns.coords - chain_side).max())
    return EquivalenceReport(
        N=N, alpha=alpha, beta=beta, tau=tau, max_deviation=dev, leakage=graph_columns.leakage
    )
