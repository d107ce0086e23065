"""Hamming scheme H(M,2): distances, adjacency action, intersection numbers."""

from math import comb

import numpy as np
import pytest

from fracrevival import oracle, scheme
from fracrevival.errors import InvalidInputError, ResourceLimitError


def test_hamming_distance_examples():
    assert oracle.hamming_distance(0b000, 0b000) == 0
    assert oracle.hamming_distance(0b000, 0b110) == 2


def test_hamming_distance_antipode():
    M = 6
    full = (1 << M) - 1
    assert all(oracle.hamming_distance(x, x ^ full) == M for x in range(1 << M))


def test_hamming_distance_metric_axioms():
    rng = np.random.default_rng(0)
    for _ in range(300):
        x, y, z = (int(v) for v in rng.integers(0, 1 << 8, size=3))
        assert oracle.hamming_distance(x, x) == 0
        assert oracle.hamming_distance(x, y) == oracle.hamming_distance(y, x)
        assert oracle.hamming_distance(x, z) <= (
            oracle.hamming_distance(x, y) + oracle.hamming_distance(y, z)
        )


def test_hamming_weights_table():
    w = scheme.hamming_weights(5)
    assert w.shape == (32,)
    assert all(int(w[x]) == bin(x).count("1") for x in range(32))


def test_hamming_weights_match_popcount_of_arange():
    # the doubling construction against a popcount of every index, dtype included
    for M in range(17):
        w = scheme.hamming_weights(M)
        reference = np.bitwise_count(np.arange(1 << M, dtype=np.uint64)).astype(np.uint8)
        assert w.dtype == reference.dtype
        assert np.array_equal(w, reference), M


def test_apply_adjacency_square_neighbours():
    # M=2: vertex 00 has distance-1 neighbours 01 and 10, antipode 11
    psi = np.zeros(4)
    psi[0] = 1.0
    out1 = oracle.apply_adjacency(oracle.SchemeOperator(2, 1), psi)
    np.testing.assert_array_equal(out1, [0, 1, 1, 0])
    out2 = oracle.apply_adjacency(oracle.SchemeOperator(2, 2), psi)
    np.testing.assert_array_equal(out2, [0, 0, 0, 1])


def test_apply_adjacency_identity_class():
    rng = np.random.default_rng(1)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    out = oracle.apply_adjacency(oracle.SchemeOperator(3, 0), psi)
    np.testing.assert_array_equal(out, psi)


def test_apply_adjacency_regularity_on_uniform():
    # row sums of A_i are C(M, i): A_i of the uniform vector is C(M, i) * uniform
    from math import comb

    for M in range(1, 7):
        uniform = np.full(1 << M, 1.0)
        for i in range(M + 1):
            out = oracle.apply_adjacency(oracle.SchemeOperator(M, i), uniform)
            np.testing.assert_allclose(out, comb(M, i) * uniform, atol=1e-12)


def test_apply_adjacency_linearity():
    rng = np.random.default_rng(2)
    op = oracle.SchemeOperator(5, 2)
    psi = rng.normal(size=32) + 1j * rng.normal(size=32)
    phi = rng.normal(size=32) + 1j * rng.normal(size=32)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    lhs = oracle.apply_adjacency(op, a * psi + b * phi)
    rhs = a * oracle.apply_adjacency(op, psi) + b * oracle.apply_adjacency(op, phi)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_apply_adjacency_symmetric_matrix():
    # <x|A_i|y> = <y|A_i|x>: compare against an explicitly built dense matrix
    M = 4
    for i in range(M + 1):
        dense = np.array(
            [oracle.apply_adjacency(oracle.SchemeOperator(M, i), e) for e in np.eye(1 << M)]
        )
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_array_equal(dense, scheme.dense_adjacency(M, i).astype(float))


def test_apply_adjacency_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        oracle.apply_adjacency(oracle.SchemeOperator(3, 1), np.zeros(7))


def test_adjacency_classes_sum_to_all_ones():
    rng = np.random.default_rng(3)
    for M in (2, 4, 6):
        psi = rng.normal(size=1 << M)
        total = sum(
            oracle.apply_adjacency(oracle.SchemeOperator(M, i), psi) for i in range(M + 1)
        )
        np.testing.assert_allclose(total, np.full(1 << M, psi.sum()), atol=1e-11)


def test_intersection_number_reference_values():
    assert oracle.intersection_number(2, 1, 3, 5) == 3  # c_{i+1} = i+1 at i=2
    assert oracle.intersection_number(2, 1, 1, 5) == 4  # b_{i-1} = M-i+1 at i=2
    assert oracle.intersection_number(1, 1, 2, 3) == 2


def test_intersection_number_base_pair_invariance():
    # the count must not depend on which (x, y) at distance k is used
    rng = np.random.default_rng(4)
    for M in (4, 6, 8):
        for _ in range(20):
            x = int(rng.integers(0, 1 << M))
            k = int(rng.integers(0, M + 1))
            flip = rng.permutation(M)[:k]
            y = x
            for b in flip:
                y ^= 1 << int(b)
            i = int(rng.integers(0, M + 1))
            j = int(rng.integers(0, M + 1))
            assert oracle.intersection_number(i, j, k, M, x=x, y=y) == oracle.intersection_number(
                i, j, k, M
            )


def test_intersection_table_matches_scalar_and_symmetry():
    for M in range(1, 11):
        for k in range(M + 1):
            table = oracle.intersection_table(k, M)
            np.testing.assert_array_equal(table, table.T)  # p_ij^k = p_ji^k
    table = oracle.intersection_table(3, 5)
    assert table[2, 1] == oracle.intersection_number(2, 1, 3, 5)


def test_intersection_table_matches_the_closed_form():
    # z differs from x = 0 in a of the k bits set in y and in b of the other M - k bits, so
    # i = a + b and j = k - a + b: p_ij^k = C(k, a) C(M - k, b) (Brouwer, Cohen and Neumaier 1989)
    def closed(i, j, k, M):
        a, b = (i - j + k) // 2, (i + j - k) // 2
        if (i + j + k) % 2 or not (0 <= a <= k and 0 <= b <= M - k):
            return 0
        return comb(k, a) * comb(M - k, b)

    for M in range(11):
        for k in range(M + 1):
            expected = [[closed(i, j, k, M) for j in range(M + 1)] for i in range(M + 1)]
            np.testing.assert_array_equal(oracle.intersection_table(k, M), expected)


@pytest.mark.parametrize("x, y", [(8, 8), (0, 8), (8, None), (-1, -1)])
@pytest.mark.parametrize("count", [
    lambda x, y: oracle.intersection_number(0, 0, 0, 3, x=x, y=y),
    lambda x, y: oracle.intersection_table(0, 3, x=x, y=y),
], ids=["intersection_number", "intersection_table"])
def test_base_vertices_outside_the_cube_are_refused(count, x, y):
    with pytest.raises(InvalidInputError, match=r"base vertices must lie in \[0, 2\^3\)"):
        count(x, y)


def test_intersection_number_range_errors():
    with pytest.raises(InvalidInputError):
        oracle.intersection_number(6, 0, 0, 5)
    with pytest.raises(InvalidInputError):
        oracle.intersection_number(0, 0, 2, 5, x=0, y=1)  # d(x,y) != k


def test_bose_mesner_identity_factor():
    report = oracle.verify_bose_mesner_row(0, 5)
    assert report.c_next == 1 and report.b_prev == 0
    assert report.max_deviation == 0


def test_bose_mesner_a1_squared():
    # A_1^2 = 2 A_2 + M A_0 on the 3-cube
    report = oracle.verify_bose_mesner_row(1, 3)
    assert (report.c_next, report.b_prev) == (2, 3)
    assert report.passed


def test_bose_mesner_top_row_truncates():
    # i = M: c_{M+1} = 0 leaves only b_{M-1} A_{M-1} = 1 * A_{M-1}
    report = oracle.verify_bose_mesner_row(4, 4)
    assert (report.c_next, report.b_prev) == (0, 1)
    assert report.passed


@pytest.mark.parametrize("M", range(1, 7))
def test_bose_mesner_all_rows_exact(M):
    for i in range(M + 1):
        assert oracle.verify_bose_mesner_row(i, M).max_deviation == 0


def test_bose_mesner_resource_guard():
    with pytest.raises(ResourceLimitError):
        oracle.verify_bose_mesner_row(1, 13)


@pytest.mark.parametrize("build", [
    scheme.hamming_weights,
    lambda M: oracle.intersection_number(0, 0, 0, M),
    lambda M: oracle.intersection_table(0, M),
    lambda M: scheme.dense_adjacency(M, 1),
], ids=["hamming_weights", "intersection_number", "intersection_table", "dense_adjacency"])
def test_tables_built_from_m_obey_the_size_guard(monkeypatch, build):
    monkeypatch.setenv("REVIVAL_MAX_M", "4")
    with pytest.raises(ResourceLimitError, match="set REVIVAL_MAX_M to override"):
        build(5)
    build(4)
