"""Binary Hamming scheme H(M,2) on the vertex set {0,1}^M.

Vertices are machine integers in [0, 2^M); the Hamming distance between two
vertices is the population count of their XOR.  A_i denotes the 0/1 adjacency
matrix of the distance-i graph G_i.  For M beyond a dozen bits these matrices
are never materialized: their action on an amplitude vector is computed by
XOR-ing the vertex index with every bit mask of weight i, so memory stays at
O(2^M) instead of O(4^M).

Combinatorial identities (intersection numbers, the tridiagonal product rule
A_i A_1 = c_{i+1} A_{i+1} + b_{i-1} A_{i-1}) are checked in exact integer
arithmetic; floating point appears only in amplitude vectors.  Every function
that builds a 2^M table from M calls errors.check_size before it allocates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError, check_size, require_length

# Dense 2^M x 2^M verification is refused above this M (memory scales as 4^M).
DENSE_MAX_M = 12


def hamming_distance(x: int, y: int) -> int:
    """Number of bit positions where the two vertex labels differ."""
    if x < 0 or y < 0:
        raise InvalidInputError("vertex labels are non-negative integers")
    return (x ^ y).bit_count()


def hamming_weights(M: int) -> np.ndarray:
    """Population count of every vertex 0 .. 2^M - 1, as a uint8 array.

    Built by doubling in place: the vertices 2^k .. 2^(k+1) - 1 are those
    below 2^k with bit k set, so w[2^k : 2^(k+1)] = w[:2^k] + 1, and no wider
    integer array is ever allocated.
    """
    check_size(M)
    if M < 0:
        raise InvalidInputError("M must be non-negative")
    w = np.zeros(1 << M, dtype=np.uint8)
    for k in range(M):
        np.add(w[:1 << k], 1, out=w[1 << k:2 << k])
    return w


def weight_masks(M: int, i: int):
    """Yield every M-bit mask of population count i (deterministic order)."""
    for bits in itertools.combinations(range(M), i):
        m = 0
        for b in bits:
            m |= 1 << b
        yield m


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
    for mask in weight_masks(op.M, op.distance_class):
        out += psi[idx ^ mask]
    return out


def intersection_number(i: int, j: int, k: int, M: int, x: int = 0, y: int | None = None) -> int:
    """p_{ij}^k of H(M,2): the number of z with d(x,z) = i and d(y,z) = j when d(x,y) = k.

    Computed by brute force over all 2^M vertices.  The default base pair is
    x = 0 and y = the integer with the first k bits set; the count does not
    depend on that choice (a property the test suite checks rather than
    assumes).
    """
    check_size(M)
    for name, v in (("i", i), ("j", j), ("k", k)):
        if not 0 <= v <= M:
            raise InvalidInputError(f"{name} must lie in [0, {M}], got {v}")
    if y is None:
        y = (1 << k) - 1
    if hamming_distance(x, y) != k:
        raise InvalidInputError(f"base pair has d(x,y) = {hamming_distance(x, y)}, expected {k}")
    z = np.arange(1 << M, dtype=np.uint64)
    di = np.bitwise_count(z ^ np.uint64(x))
    dj = np.bitwise_count(z ^ np.uint64(y))
    return int(np.count_nonzero((di == i) & (dj == j)))


def intersection_table(k: int, M: int, x: int = 0, y: int | None = None) -> np.ndarray:
    """All p_{ij}^k for 0 <= i, j <= M at once, as an (M+1) x (M+1) integer array."""
    check_size(M)
    if not 0 <= k <= M:
        raise InvalidInputError(f"k must lie in [0, {M}], got {k}")
    if y is None:
        y = (1 << k) - 1
    if hamming_distance(x, y) != k:
        raise InvalidInputError(f"base pair has d(x,y) = {hamming_distance(x, y)}, expected {k}")
    z = np.arange(1 << M, dtype=np.uint64)
    di = np.bitwise_count(z ^ np.uint64(x)).astype(np.int64)
    dj = np.bitwise_count(z ^ np.uint64(y)).astype(np.int64)
    flat = np.bincount(di * (M + 1) + dj, minlength=(M + 1) * (M + 1))
    return flat.reshape(M + 1, M + 1)


def dense_adjacency(M: int, i: int) -> np.ndarray:
    """Materialize A_i as a dense int8 matrix (verification scale only)."""
    if M > DENSE_MAX_M:
        raise ResourceLimitError(f"dense adjacency refused for M = {M} > {DENSE_MAX_M}")
    check_size(M)
    if not 0 <= i <= M:
        raise InvalidInputError(f"distance class must lie in [0, {M}], got {i}")
    size = 1 << M
    idx = np.arange(size, dtype=np.uint64)
    out = np.empty((size, size), dtype=np.int8)
    # Row blocks keep the XOR grid small at M = 12.
    block = 1024
    for r in range(0, size, block):
        rows = idx[r:r + block]
        d = np.bitwise_count(rows[:, None] ^ idx[None, :])
        out[r:r + block] = (d == i)
    return out


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
    if M > DENSE_MAX_M:
        raise ResourceLimitError(f"dense verification refused for M = {M} > {DENSE_MAX_M}")
    if not 0 <= i <= M:
        raise InvalidInputError(f"i must lie in [0, {M}], got {i}")
    size = 1 << M
    ai = dense_adjacency(M, i).astype(np.int16)
    idx = np.arange(size)
    prod = np.zeros((size, size), dtype=np.int16)
    for b in range(M):
        prod += ai[:, idx ^ (1 << b)]
    c_next = i + 1 if i + 1 <= M else 0
    b_prev = M - i + 1 if i - 1 >= 0 else 0
    rhs = np.zeros((size, size), dtype=np.int16)
    if c_next:
        rhs += np.int16(c_next) * dense_adjacency(M, i + 1).astype(np.int16)
    if b_prev:
        rhs += np.int16(b_prev) * dense_adjacency(M, i - 1).astype(np.int16)
    dev = int(np.abs(prod - rhs).max())
    return BoseMesnerReport(M=M, i=i, c_next=c_next, b_prev=b_prev, max_deviation=dev)
