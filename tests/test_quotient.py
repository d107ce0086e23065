"""Column projection, quotient matrix elements, and graph-chain equivalence."""

from math import pi, sqrt

import numpy as np
import pytest

from fracrevival import chain, oracle, quotient, walk
from fracrevival.errors import InvalidInputError, ResourceLimitError


def test_project_corner_state():
    basis = quotient.ColumnBasis(5)
    state = quotient.project(basis, walk.corner_state(4))
    np.testing.assert_allclose(state.coords, [1, 0, 0, 0, 0], atol=1e-15)
    assert state.leakage == pytest.approx(0.0, abs=1e-14)


def test_project_column_vectors_are_orthonormal():
    basis = quotient.ColumnBasis(6)
    for n in range(1, 7):
        state = quotient.project(basis, basis.column_vector(n))
        expected = np.zeros(6)
        expected[n - 1] = 1.0
        np.testing.assert_allclose(state.coords, expected, atol=1e-14)
        assert abs(state.leakage) < 1e-13


def test_project_single_vertex_leaks():
    # one weight-1 vertex of the 3-cube: c_2 = 1/sqrt(3), leakage 2/3
    basis = quotient.ColumnBasis(4)
    state = quotient.project(basis, walk.basis_state(3, 0b010))
    assert state.coords[1] == pytest.approx(1 / sqrt(3), abs=1e-14)
    assert state.leakage == pytest.approx(2 / 3, abs=1e-12)


def test_project_norm_bookkeeping():
    rng = np.random.default_rng(20)
    basis = quotient.ColumnBasis(6)
    psi = rng.normal(size=32) + 1j * rng.normal(size=32)
    state = quotient.project(basis, psi)
    total = np.sum(np.abs(state.coords) ** 2) + state.leakage
    assert total == pytest.approx(np.linalg.norm(psi) ** 2, abs=1e-11)


def test_project_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        quotient.project(quotient.ColumnBasis(4), np.zeros(16))


def test_lift_then_project_roundtrip():
    rng = np.random.default_rng(21)
    basis = quotient.ColumnBasis(7)
    coords = rng.normal(size=7) + 1j * rng.normal(size=7)
    state = quotient.project(basis, oracle.lift(basis, coords))
    np.testing.assert_allclose(state.coords, coords, atol=1e-13)
    assert abs(state.leakage) < 1e-12


def test_quotient_elements_four_sites():
    table = quotient.quotient_matrix_elements(4)
    assert table.a1_upper[0] == pytest.approx(sqrt(3), abs=1e-14)   # 2 J_1
    assert table.a2_upper[0] == pytest.approx(sqrt(3), abs=1e-14)   # 2 J_1 J_2
    assert table.a2_diag[1] == pytest.approx(2.0, abs=1e-14)        # (n-1)(N-n) at n=2
    assert table.exact_closed_forms


@pytest.mark.parametrize("N", range(2, 11))
def test_quotient_elements_closed_forms(N):
    table = quotient.quotient_matrix_elements(N)
    assert table.exact_closed_forms
    assert table.max_closed_form_deviation < 1e-12
    c = chain.couplings(chain.ChainSpec(N=N, alpha=1.0, beta=1.0))
    np.testing.assert_allclose(table.a1_upper, 2 * c.J, atol=1e-13)
    if N >= 3:
        np.testing.assert_allclose(table.a2_upper, 2 * c.J[:-1] * c.J[1:], atol=1e-13)
        np.testing.assert_allclose(table.a2_lower, table.a2_upper, atol=1e-15)


def test_distance4_pairs_exist_but_are_excluded():
    # interchanging two 0/1 pairs stays in the column at distance 4; A_2 must
    # not count those pairs, and the diagonal closed form proves it does not
    table = quotient.quotient_matrix_elements(7)
    assert table.distance4_same_column.max() > 0
    assert table.exact_closed_forms
    nvals = np.arange(1, 8, dtype=float)
    np.testing.assert_allclose(table.a2_diag, (nvals - 1) * (7 - nvals), atol=1e-13)


def test_quotient_guard():
    with pytest.raises(ResourceLimitError):
        quotient.quotient_matrix_elements(15)


@pytest.mark.parametrize("build", [
    lambda basis: oracle.lift(basis, np.eye(basis.N)[0]),
    lambda basis: quotient.project(basis, np.full(1 << basis.M, 2.0 ** (-basis.M / 2))),
    lambda basis: basis.members(1),
    lambda basis: basis.column_vector(1),
], ids=["lift", "project", "members", "column_vector"])
def test_column_tables_obey_the_size_guard(monkeypatch, build):
    monkeypatch.setenv("REVIVAL_MAX_M", "4")
    with pytest.raises(ResourceLimitError, match="set REVIVAL_MAX_M to override"):
        build(quotient.ColumnBasis(6))
    build(quotient.ColumnBasis(5))


@pytest.mark.parametrize("N", range(2, 11))
def test_shifted_diagonal_identity(N):
    report = quotient.verify_shifted_diagonal(N)
    assert report.exact
    assert report.max_deviation < 1e-12
    assert report.passed


def test_shifted_diagonal_two_sites_by_hand():
    # lhs = 0/2 + 1/4, rhs = J_1^2 = 1/4
    report = quotient.verify_shifted_diagonal(2)
    assert report.exact


def test_quotient_matrices_satisfy_square_relation():
    # (1/4) Q1^2 = (1/2) Q2 + (N-1)/4 I: the lifted operator identity
    for N in (2, 4, 7, 10):
        table = quotient.quotient_matrix_elements(N)
        q1, q2 = table.q1(), table.q2()
        lhs = 0.25 * q1 @ q1
        rhs = 0.5 * q2 + 0.25 * (N - 1) * np.eye(N)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_projection_intertwines_adjacency_action():
    # for psi inside the column space, project(A_i psi) = Q_i project(psi)
    rng = np.random.default_rng(22)
    N = 7
    basis = quotient.ColumnBasis(N)
    table = quotient.quotient_matrix_elements(N)
    coords = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi = oracle.lift(basis, coords)
    for i, q in ((1, table.q1()), (2, table.q2())):
        applied = oracle.apply_adjacency(oracle.SchemeOperator(N - 1, i), psi)
        state = quotient.project(basis, applied)
        np.testing.assert_allclose(state.coords, q @ coords, atol=1e-12)


def test_column_space_is_invariant_under_evolution():
    rng = np.random.default_rng(23)
    for _ in range(15):
        N = int(rng.integers(2, 9))
        spec = walk.WalkSpec(M=N - 1, alpha=float(rng.uniform(-2, 2)), beta=float(rng.uniform(-2, 2)))
        tau = float(rng.uniform(0, 2 * pi))
        evolved = walk.evolve_graph(spec, walk.corner_state(spec.M), tau)
        state = quotient.project(quotient.ColumnBasis(N), evolved)
        assert abs(state.leakage) < 1e-10


def test_equivalence_at_zero_time():
    report = quotient.equivalence_check(5, 1.0, 1.0, 0.0)
    assert report.max_deviation < 1e-14
    assert abs(report.leakage) < 1e-14


def test_equivalence_unweighted_revival():
    report = quotient.equivalence_check(4, 2.0, 2.0, pi / 4)
    assert report.passed
    assert report.max_deviation < 1e-10
    assert abs(report.leakage) < 1e-12


def test_equivalence_nnn_only_odd_chain():
    report = quotient.equivalence_check(5, 1.0, 0.0, pi / 2)
    assert report.passed


def test_equivalence_random_parameters():
    rng = np.random.default_rng(24)
    for _ in range(25):
        N = int(rng.integers(2, 11))
        alpha = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(-2, 2))
        if abs(alpha) < 1e-3 and abs(beta) < 1e-3:
            alpha = 1.0
        tau = float(rng.uniform(0, 2 * pi))
        report = quotient.equivalence_check(N, alpha, beta, tau)
        assert report.max_deviation < 1e-10, (N, alpha, beta, tau)
        assert abs(report.leakage) < 1e-10
