"""Column projection, quotient matrix elements, and graph-chain equivalence."""

import dataclasses
from math import comb, pi, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracrevival import chain, oracle, quotient, scheme, walk
from fracrevival.errors import InvalidInputError, ResourceLimitError


def test_project_corner_state():
    basis = quotient.ColumnBasis(5)
    state = quotient.project(basis, walk.corner_state(4))
    np.testing.assert_allclose(state.coords, [1, 0, 0, 0, 0], atol=1e-15)
    assert state.leakage == pytest.approx(0.0, abs=1e-14)


def test_project_column_vectors_are_orthonormal():
    basis = quotient.ColumnBasis(6)
    for n in range(1, 7):
        column = oracle.lift(basis, np.eye(6)[n - 1])
        # |col n> is uniform on the weight-(n-1) vertices and zero elsewhere
        members = scheme.hamming_weights(5) == n - 1
        np.testing.assert_array_equal(column[members], 1.0 / np.sqrt(comb(5, n - 1)))
        assert not column[~members].any()
        state = quotient.project(basis, column)
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


@pytest.mark.parametrize("M", [1, 4, 13])
def test_column_state_equals_the_projection_of_the_gathered_state(M):
    rng = np.random.default_rng(M)
    psi_w = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
    psi_w /= np.sqrt(quotient.ColumnBasis(M + 1).sizes @ np.abs(psi_w) ** 2)  # a unit state
    state = quotient.column_state(psi_w)
    oracle_state = quotient.project(quotient.ColumnBasis(M + 1), psi_w[scheme.hamming_weights(M)])
    np.testing.assert_allclose(state.coords, oracle_state.coords, rtol=1e-13)
    assert abs(state.leakage) < 1e-14
    assert abs(state.leakage - oracle_state.leakage) < 1e-13


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
    h = chain.build_hamiltonian(chain.ChainSpec(N=N, alpha=1.0, beta=1.0))
    np.testing.assert_allclose(table.a1_upper, 2 * np.diag(h, 1), atol=1e-13)  # beta J_n
    if N >= 3:
        np.testing.assert_allclose(table.a2_upper, 2 * np.diag(h, 2), atol=1e-13)  # alpha J_n J_{n+1}


def test_distance4_pairs_exist_but_are_excluded():
    # interchanging two 0/1 pairs stays in the column at distance 4; A_2 must
    # not count those pairs, and the diagonal closed form proves it does not
    counts = quotient._pair_counts(6, 4)
    assert max(counts[a, a] for a in range(7)) > 0
    table = quotient.quotient_matrix_elements(7)
    assert table.exact_closed_forms
    nvals = np.arange(1, 8, dtype=float)
    np.testing.assert_allclose(table.a2_diag, (nvals - 1) * (7 - nvals), atol=1e-13)


@pytest.mark.parametrize("M", range(11))
def test_pair_counts_equal_the_brute_force_intersection_numbers(M):
    # C(M, b) vertices x of weight b, each with p^b_{a,i} vertices y of weight a at distance i
    for i in (1, 2, 4):
        counts = quotient._pair_counts(M, i)
        assert all(abs(a - b) <= i and (a - b - i) % 2 == 0 for a, b in counts)  # only the band is stored
        for b in range(M + 1):
            table = oracle.intersection_table(b, M)
            for a in range(M + 1):
                expected = comb(M, b) * int(table[a, i]) if i <= M else 0
                assert type(counts.get((a, b), 0)) is int
                assert counts.get((a, b), 0) == expected, (M, i, a, b)


@pytest.mark.parametrize("N", range(15, 28))
def test_quotient_runs_to_the_size_guard(N):
    table = quotient.quotient_matrix_elements(N)
    assert table.passed and table.exact_closed_forms and table.shifted.passed


@pytest.mark.parametrize("N", [226, 300, 517])
def test_quotient_gate_is_relative_to_each_element(N):
    table = quotient.quotient_matrix_elements(N)
    assert table.max_closed_form_deviation > 1e-12  # above an absolute gate, one rounding near N^2/4
    assert table.passed
    middle = N // 2
    for name, index, error in (("a2_diag", middle, 1e-9 * N * N), ("a1_upper", 0, 1e-10 * N),
                               ("a2_upper", middle, 1e-9 * N * N),
                               ("a2_diag", 0, 1e-11)):
        perturbed = getattr(table, name).copy()
        perturbed[index] += error
        assert not dataclasses.replace(table, **{name: perturbed}).passed, (name, index)


@pytest.mark.parametrize("build", [
    lambda basis: oracle.lift(basis, np.eye(basis.N)[0]),
    lambda basis: quotient.project(basis, np.full(1 << basis.M, 2.0 ** (-basis.M / 2))),
], ids=["lift", "project"])
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


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(2, 12),
    alpha=st.floats(-1e8, 1e8),
    beta=st.floats(-1e8, 1e8),
    tau=st.floats(0.0, 10.0),
)
def test_equivalence_stays_within_the_walks_rounding_account(N, alpha, beta, tau):
    # the chain evolves in the walk's spectrum, so walk.resolves' 3 eps |tau| max|E| bounds the deviation,
    # up to the rounding of exp, eigh's vectors and the sums: a few eps with no factor tau
    assume(alpha != 0.0 or beta != 0.0)
    report = quotient.equivalence_check(N, alpha, beta, tau)
    reach = walk.WalkSpec(M=N - 1, alpha=alpha, beta=beta).reach
    assert report.max_deviation < 3 * walk.EPS * tau * reach + 1e-14
    assert report.passed


@settings(max_examples=80, deadline=None)
@given(
    N=st.integers(2, 15),
    alpha=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    beta=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    tau=st.floats(0.0, 8.0),
)
def test_equivalence_check_matches_the_projected_fwht_evolution(N, alpha, beta, tau):
    # the FWHT evolution of the corner state, projected, is the oracle of the column amplitudes
    assume(alpha != 0.0 or beta != 0.0)
    report = quotient.equivalence_check(N, alpha, beta, tau)
    spec = walk.WalkSpec(M=N - 1, alpha=alpha, beta=beta)
    projected = quotient.project(quotient.ColumnBasis(N), walk.evolve_graph(spec, walk.corner_state(spec.M), tau))
    chain_side = chain.chain_evolve(chain.ChainSpec(N=N, alpha=alpha, beta=beta), chain.site_state(N, 1), tau)
    oracle_report = quotient.compare_states(N, alpha, beta, tau, projected, chain_side)
    assert abs(report.max_deviation - oracle_report.max_deviation) < 1e-12
    assert abs(report.leakage - oracle_report.leakage) < 1e-12
    assert np.abs(quotient.column_state(walk.column_amplitudes(spec, tau)).coords - projected.coords).max() < 1e-12
