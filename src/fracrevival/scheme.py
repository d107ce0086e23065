"""Binary Hamming scheme H(M,2) on the vertex set {0,1}^M.

Vertices are machine integers in [0, 2^M); the Hamming distance between two
vertices is the population count of their XOR.  A_i denotes the 0/1 adjacency
matrix of the distance-i graph G_i; it is materialized only up to
DENSE_MAX_M bits.  Every function that builds a 2^M table from M calls
errors.check_size before it allocates.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, ResourceLimitError, check_size

# Dense 2^M x 2^M verification is refused above this M (memory scales as 4^M).
DENSE_MAX_M = 12


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
