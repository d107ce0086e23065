"""Krawtchouk values, the hypergeometric cross-check, and analytic spectra."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from fracrevival import kraw, oracle, walk
from fracrevival.errors import InvalidInputError


def test_constant_polynomial():
    for M in (1, 4, 9):
        for x in range(M + 1):
            assert oracle.krawtchouk(0, x, M) == 1
            assert oracle.krawtchouk_hypergeometric(0, x, M) == 1


def test_linear_polynomial_is_lambda():
    # K_1(s; 2, M) = M - 2s
    for M in range(1, 10):
        for s in range(M + 1):
            assert oracle.krawtchouk(1, s, M) == M - 2 * s
    assert oracle.krawtchouk(1, 1, 4) == 2


def test_quadratic_value():
    assert oracle.krawtchouk(2, 1, 4) == 0  # ((4-2)^2 - 4)/2
    assert oracle.krawtchouk_hypergeometric(2, 1, 4) == 0


def test_recurrence_equals_hypergeometric_exactly():
    for M in range(1, 13):
        for n in range(M + 1):
            for x in range(M + 1):
                assert oracle.krawtchouk(n, x, M) == oracle.krawtchouk_hypergeometric(n, x, M)


def test_alternating_endpoint():
    # K_M(s; 2, M) = (-1)^s
    for M in range(1, 13):
        for s in range(M + 1):
            assert oracle.krawtchouk(M, s, M) == (-1) ** s
            assert oracle.krawtchouk_hypergeometric(M, s, M) == (-1) ** s
    assert oracle.krawtchouk_hypergeometric(3, 1, 3) == -1


def test_values_are_exact_rationals():
    assert isinstance(oracle.krawtchouk(3, 2, 7), Fraction)
    assert isinstance(oracle.krawtchouk_hypergeometric(3, 2, 7), Fraction)


def test_general_q_recurrence():
    # K_1(x; q, M) = M(q-1) - qx; the general recurrence is wired even though
    # everything downstream fixes q = 2
    assert oracle.krawtchouk(1, 2, 4, q=3) == 4 * 2 - 3 * 2
    assert oracle.krawtchouk(1, 0, 5, q=4) == 15


def test_degree_out_of_range():
    with pytest.raises(InvalidInputError):
        oracle.krawtchouk(-1, 0, 4)
    with pytest.raises(InvalidInputError):
        oracle.krawtchouk(5, 0, 4)
    with pytest.raises(InvalidInputError):
        oracle.krawtchouk_hypergeometric(2, 5, 4)


def test_eigenvalue_level_square_identity():
    # p_1(lambda_s)^2 = 2 p_2(lambda_s) + M, the operator identity A_1^2 = 2A_2 + M
    for M in range(1, 13):
        for s in range(M + 1):
            p1 = oracle.krawtchouk(1, s, M)
            p2 = oracle.krawtchouk(2, s, M) if M >= 2 else Fraction((M - 2 * s) ** 2 - M, 2)
            assert p1 * p1 == 2 * p2 + M


def test_spectrum_table_invariants():
    for M in (1, 5, 10):
        table = oracle.spectrum_table(M)
        np.testing.assert_array_equal(table.lam, M - 2 * np.arange(M + 1))
        np.testing.assert_allclose(table.p2, (table.lam**2 - M) / 2)
        assert table.multiplicity.sum() == 1 << M
        assert all(table.multiplicity[s] == comb(M, s) for s in range(M + 1))
        assert (np.diff(table.lam) < 0).all()


def test_spectrum_table_stops_at_int64_binomials():
    table = oracle.spectrum_table(oracle.SPECTRUM_MAX_M)
    assert table.multiplicity.dtype == np.int64
    assert table.multiplicity.max() == comb(66, 33)
    with pytest.raises(InvalidInputError, match="exceeds 66"):
        oracle.spectrum_table(67)


def test_graph_eigenvalue_reference_points():
    spec = walk.WalkSpec(M=3, alpha=1.0, beta=0.0)
    assert oracle.graph_eigenvalue(1, spec) == pytest.approx(-0.5)
    # alpha = 0 leaves the pure hypercube spectrum (beta/2)(M - 2s)
    spec = walk.WalkSpec(M=5, alpha=0.0, beta=1.4)
    for s in range(6):
        assert oracle.graph_eigenvalue(s, spec) == pytest.approx(0.7 * (5 - 2 * s))
    # s = 0 corner: alpha M(M-1)/4 + beta M/2
    spec = walk.WalkSpec(M=6, alpha=1.1, beta=-0.3)
    assert oracle.graph_eigenvalue(0, spec) == pytest.approx(1.1 * 6 * 5 / 4 - 0.3 * 6 / 2)


def test_graph_eigenvalues_match_dense_spectrum():
    rng = np.random.default_rng(5)
    for M in range(1, 8):
        alpha, beta = rng.uniform(-2, 2, size=2)
        spec = walk.WalkSpec(M=M, alpha=float(alpha), beta=float(beta))
        table = oracle.spectrum_table(M)
        analytic = np.repeat(kraw.graph_eigenvalues(spec), table.multiplicity)
        dense = np.linalg.eigvalsh(walk.dense_hamiltonian(spec))
        np.testing.assert_allclose(np.sort(analytic), dense, atol=1e-10)


def test_graph_eigenvalues_beyond_int64_binomials():
    # at M = 80 some C(M, s) exceed int64; the spectrum must not depend on them
    spec = walk.WalkSpec(M=80, alpha=1.3, beta=-0.7)
    expected = [oracle.graph_eigenvalue(s, spec) for s in range(81)]
    np.testing.assert_array_equal(kraw.graph_eigenvalues(spec), expected)


def test_graph_eigenvalue_range_check():
    spec = walk.WalkSpec(M=4, alpha=1.0, beta=1.0)
    with pytest.raises(InvalidInputError):
        oracle.graph_eigenvalue(5, spec)
