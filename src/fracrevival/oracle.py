"""Reference code that no command runs: the exact and brute-force checks the tests compare against.

Krawtchouk values in exact rationals, the spectrum table, single walk
eigenvalues, the action of each distance class, intersection numbers and the
A_i A_1 product rule in integers, the dense walk eigendecomposition, the
chain's hopping matrix and the lift of column coordinates.  No production
module imports this one; the package re-exports its public names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import scheme, walk
from .errors import InvalidInputError, ResourceLimitError, check_size, require_length
from .quotient import ColumnBasis

SPECTRUM_MAX_M = 66  # the largest M whose C(M, M // 2) fits an int64


def krawtchouk(n: int, x: int, M: int, q: int = 2) -> Fraction:
    """K_n(x; q, M) by the three-term recurrence, exact.

    (n+1) K_{n+1}(x) = [(M-n)(q-1) + n - qx] K_n(x) - (q-1)(M-n+1) K_{n-1}(x)
    with K_{-1} = 0 and K_0 = 1.  Only q = 2 is exercised in this package.
    """
    if not 0 <= n <= M:
        raise InvalidInputError(f"degree must lie in [0, M] = [0, {M}], got {n}")
    prev = Fraction(0)
    cur = Fraction(1)
    for m in range(n):
        nxt = (((M - m) * (q - 1) + m - q * x) * cur - (q - 1) * (M - m + 1) * prev) / (m + 1)
        prev, cur = cur, nxt
    return cur


def krawtchouk_hypergeometric(n: int, x: int, M: int) -> Fraction:
    """K_n(x; 2, M) = C(M,n) * 2F1(-n, -x; -M; 2), as the terminating sum.

    The sum runs over k <= min(n, x), where both numerator Pochhammer symbols
    vanish; exact rational arithmetic makes the agreement with the recurrence
    an equality, not an approximation.
    """
    if not 0 <= n <= M or not 0 <= x <= M:
        raise InvalidInputError(f"need 0 <= n, x <= M = {M}, got n={n}, x={x}")
    total = Fraction(0)
    term = Fraction(1)
    for k in range(min(n, x) + 1):
        if k:
            term *= Fraction(2 * (-n + k - 1) * (-x + k - 1), (-M + k - 1) * k)
        total += term
    return comb(M, n) * total


@dataclass(frozen=True)
class SpectrumTable:
    """Per-eigenspace data of H(M,2): lambda_s, p_2(lambda_s) and dim E(s)."""

    M: int
    lam: np.ndarray           # p_1(lambda_s) = M - 2s, s = 0..M
    p2: np.ndarray            # p_2(lambda_s) = ((M - 2s)^2 - M) / 2
    multiplicity: np.ndarray  # C(M, s)


def spectrum_table(M: int) -> SpectrumTable:
    """The table for 1 <= M <= SPECTRUM_MAX_M, where every C(M, s) fits an int64."""
    if M < 1:
        raise InvalidInputError("M must be at least 1")
    if M > SPECTRUM_MAX_M:
        raise InvalidInputError(
            f"M = {M} exceeds {SPECTRUM_MAX_M}: the multiplicities C(M, s) overflow int64"
        )
    s = np.arange(M + 1)
    lam = (M - 2 * s).astype(float)
    p2 = (lam * lam - M) / 2.0
    mult = np.array([comb(M, int(v)) for v in s], dtype=np.int64)
    return SpectrumTable(M=M, lam=lam, p2=p2, multiplicity=mult)


def graph_eigenvalue(s: int, spec) -> float:
    """Eigenvalue (alpha/2) p_2(lambda_s) + (beta/2) p_1(lambda_s) of the walk Hamiltonian.

    `spec` is any object with M, alpha, beta attributes (see walk.WalkSpec).
    """
    if not 0 <= s <= spec.M:
        raise InvalidInputError(f"s must lie in [0, {spec.M}], got {s}")
    lam = spec.M - 2 * s
    return 0.5 * spec.alpha * (lam * lam - spec.M) / 2.0 + 0.5 * spec.beta * lam


def hamming_distance(x: int, y: int) -> int:
    """Number of bit positions where the two vertex labels differ."""
    if x < 0 or y < 0:
        raise InvalidInputError("vertex labels are non-negative integers")
    return (x ^ y).bit_count()


@dataclass(frozen=True)
class SchemeOperator:
    """The adjacency operator A_i of the distance-i graph of H(M,2)."""

    M: int
    distance_class: int

    def __post_init__(self):
        if self.M < 0:
            raise InvalidInputError("M must be non-negative")
        if not 0 <= self.distance_class <= self.M:
            raise InvalidInputError(
                f"distance class must lie in [0, {self.M}], got {self.distance_class}"
            )


def apply_adjacency(op: SchemeOperator, psi: np.ndarray) -> np.ndarray:
    """Apply A_i to an amplitude vector: (A_i psi)(x) = sum over d(x,y)=i of psi(y).

    Implemented as one gather per weight-i mask (XOR permutation of the index),
    C(M, i) gathers in total.  A_0 is the identity.
    """
    psi = np.asarray(psi)
    size = 1 << op.M
    require_length(psi, size)
    if op.distance_class == 0:
        return psi.copy()
    idx = np.arange(size)
    out = np.zeros_like(psi)
    for mask in scheme.weight_masks(op.M, op.distance_class):
        out += psi[idx ^ mask]
    return out


def intersection_table(k: int, M: int, x: int = 0, y: int | None = None) -> np.ndarray:
    """All p_{ij}^k of H(M,2) for 0 <= i, j <= M, as an (M+1) x (M+1) integer array.

    Entry (i, j) counts the z with d(x,z) = i and d(y,z) = j, by brute force
    over all 2^M vertices, for base vertices x, y of the cube with d(x,y) = k.
    The default base pair is x = 0 and y = the integer with the first k bits
    set; the counts do not depend on that choice (a property the test suite
    checks rather than assumes).
    """
    check_size(M)
    if not 0 <= k <= M:
        raise InvalidInputError(f"k must lie in [0, {M}], got {k}")
    if y is None:
        y = (1 << k) - 1
    if not (0 <= x < 1 << M and 0 <= y < 1 << M):
        raise InvalidInputError(f"base vertices must lie in [0, 2^{M}), got x={x}, y={y}")
    if hamming_distance(x, y) != k:
        raise InvalidInputError(f"base pair has d(x,y) = {hamming_distance(x, y)}, expected {k}")
    z = np.arange(1 << M, dtype=np.uint64)
    di = np.bitwise_count(z ^ np.uint64(x)).astype(np.int64)
    dj = np.bitwise_count(z ^ np.uint64(y)).astype(np.int64)
    flat = np.bincount(di * (M + 1) + dj, minlength=(M + 1) * (M + 1))
    return flat.reshape(M + 1, M + 1)


def intersection_number(i: int, j: int, k: int, M: int, x: int = 0, y: int | None = None) -> int:
    """p_{ij}^k of H(M,2): entry (i, j) of intersection_table(k, M, x, y)."""
    for name, v in (("i", i), ("j", j)):
        if not 0 <= v <= M:
            raise InvalidInputError(f"{name} must lie in [0, {M}], got {v}")
    return int(intersection_table(k, M, x, y)[i, j])


@dataclass(frozen=True)
class BoseMesnerReport:
    """Outcome of the entrywise check A_i A_1 = c_{i+1} A_{i+1} + b_{i-1} A_{i-1}."""

    M: int
    i: int
    c_next: int
    b_prev: int
    max_deviation: int

    @property
    def passed(self) -> bool:
        return self.max_deviation == 0


def verify_bose_mesner_row(i: int, M: int) -> BoseMesnerReport:
    """Check A_i A_1 = c_{i+1} A_{i+1} + b_{i-1} A_{i-1} entrywise in integers.

    c_{i+1} = i + 1 and b_{i-1} = M - i + 1, with the boundary convention
    c_{M+1} = b_{-1} = 0.  The product A_i A_1 is accumulated as one column
    gather per single-bit mask, avoiding an O(8^M) matrix multiply.
    """
    if M > scheme.DENSE_MAX_M:
        raise ResourceLimitError(f"dense verification refused for M = {M} > {scheme.DENSE_MAX_M}")
    if not 0 <= i <= M:
        raise InvalidInputError(f"i must lie in [0, {M}], got {i}")
    size = 1 << M
    ai = scheme.dense_adjacency(M, i).astype(np.int16)
    idx = np.arange(size)
    prod = np.zeros((size, size), dtype=np.int16)
    for b in range(M):
        prod += ai[:, idx ^ (1 << b)]
    c_next = i + 1 if i + 1 <= M else 0
    b_prev = M - i + 1 if i - 1 >= 0 else 0
    rhs = np.zeros((size, size), dtype=np.int16)
    if c_next:
        rhs += np.int16(c_next) * scheme.dense_adjacency(M, i + 1).astype(np.int16)
    if b_prev:
        rhs += np.int16(b_prev) * scheme.dense_adjacency(M, i - 1).astype(np.int16)
    dev = int(np.abs(prod - rhs).max())
    return BoseMesnerReport(M=M, i=i, c_next=c_next, b_prev=b_prev, max_deviation=dev)


def dense_oracle_evolve(spec: walk.WalkSpec, psi0: np.ndarray, tau: float) -> np.ndarray:
    """Independent verification path: numeric eigendecomposition of the dense H.

    Only used to cross-check evolve_graph and the antipodal matrix identity;
    never on the production path.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    require_length(psi0, spec.size)
    h = walk.dense_hamiltonian(spec)
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * tau * w) * (v.T @ psi0))


def remove_global_phase(psi: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude component is real and positive.

    States that differ by a global phase compare equal after this; ties on
    magnitude resolve to the lowest index.
    """
    psi = np.asarray(psi, dtype=complex)
    k = int(np.argmax(np.abs(psi)))
    mag = abs(psi[k])
    if mag == 0.0:
        return psi.copy()
    return psi * (psi[k].conjugate() / mag)


def hopping_matrix(N: int) -> np.ndarray:
    """Dense tridiagonal J with J|n> = J_n|n+1> + J_{n-1}|n-1>."""
    n = np.arange(1, N)
    J = 0.5 * np.sqrt(n * (N - n))
    return np.diag(J, 1) + np.diag(J, -1)


def lift(basis: ColumnBasis, coords: np.ndarray) -> np.ndarray:
    """Expand column coordinates back to a full amplitude vector."""
    coords = np.asarray(coords, dtype=complex)
    require_length(coords, basis.N)
    weights = scheme.hamming_weights(basis.M).astype(np.int64)
    return (coords / np.sqrt(basis.sizes))[weights]
