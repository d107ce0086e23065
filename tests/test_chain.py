"""Chain couplings, read as the bands of the dense Hamiltonian, the recurrence eigenbasis, and one-excitation evolution."""

from math import comb, pi, sqrt
from pathlib import Path

import ast
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrevival import chain, oracle, walk
from fracrevival.errors import InvalidInputError, ResourceLimitError

EPS = walk.EPS


def _hamiltonian(N, alpha, beta):
    return chain.build_hamiltonian(chain.ChainSpec(N=N, alpha=alpha, beta=beta))


def test_couplings_four_sites():
    h = _hamiltonian(4, 0.0, 1.0)
    np.testing.assert_allclose(np.diag(h, 1), [sqrt(3) / 2, 1.0, sqrt(3) / 2], atol=1e-15)


def test_couplings_vanish_without_nnn_term():
    h = _hamiltonian(6, 0.0, 2.0)
    np.testing.assert_array_equal(np.diag(h, 2), np.zeros(4))
    np.testing.assert_array_equal(np.diag(h), np.zeros(6))


def test_couplings_two_sites():
    h = _hamiltonian(2, 1.2, 0.5)
    np.testing.assert_allclose(np.diag(h, 1), [0.5 * 0.5])  # beta * J_1, J_1 = 1/2
    np.testing.assert_allclose(np.diag(h), [1.2 / 4, 1.2 / 4])


def test_couplings_mirror_symmetry():
    # J_n = J_{N-n}: the chain is persymmetric
    for N in (3, 8, 13):
        J = np.diag(_hamiltonian(N, 0.0, 1.0), 1)
        np.testing.assert_allclose(J, J[::-1], atol=1e-15)


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        chain.ChainSpec(N=1, alpha=1.0, beta=0.0)
    with pytest.raises(InvalidInputError):
        chain.ChainSpec(N=4, alpha=float("nan"), beta=0.0)


def test_hamiltonian_nn_only_three_sites():
    h = _hamiltonian(3, 0.0, 1.0)
    np.testing.assert_allclose(np.diag(h, 1), [1 / sqrt(2), 1 / sqrt(2)], atol=1e-15)
    np.testing.assert_array_equal(np.diag(h), np.zeros(3))
    np.testing.assert_array_equal(np.diag(h, 2), np.zeros(1))


def test_hamiltonian_nnn_only_three_sites():
    alpha = 1.7
    h = _hamiltonian(3, alpha, 0.0)
    np.testing.assert_array_equal(np.diag(h, 1), np.zeros(2))
    np.testing.assert_allclose(np.diag(h, 2), [alpha / 2], atol=1e-15)
    np.testing.assert_allclose(np.diag(h), [alpha / 2, alpha, alpha / 2], atol=1e-15)


def test_hamiltonian_factorizes_through_hopping_matrix():
    rng = np.random.default_rng(6)
    for N in (2, 3, 5, 9, 15):
        alpha, beta = rng.uniform(-3, 3, size=2)
        h = _hamiltonian(N, float(alpha), float(beta))
        J = oracle.hopping_matrix(N)
        np.testing.assert_array_equal(h, h.T)
        assert np.abs(h - (alpha * J @ J + beta * J)).max() < 1e-14
    # at N = 40 entries reach ~300, where one ulp exceeds 1e-14, so the bound
    # is 1e-14 relative to the largest entry
    alpha, beta = rng.uniform(-3, 3, size=2)
    h = _hamiltonian(40, float(alpha), float(beta))
    J = oracle.hopping_matrix(40)
    reference = alpha * J @ J + beta * J
    np.testing.assert_array_equal(h, h.T)
    assert np.abs(h - reference).max() < 1e-14 * np.abs(reference).max()


def test_hamiltonian_is_the_three_closed_form_bands():
    rng = np.random.default_rng(16)
    for N in range(2, 41):
        alpha, beta = (float(x) for x in rng.uniform(-3, 3, size=2))
        J = [0.5 * sqrt(n * (N - n)) for n in range(N + 1)]  # J_0 .. J_N, J_0 = J_N = 0
        expected = np.zeros((N, N))
        for i in range(N):  # site n = i + 1
            expected[i, i] = alpha * (J[i + 1] * J[i + 1] + J[i] * J[i])
            if i + 1 < N:
                expected[i, i + 1] = expected[i + 1, i] = beta * J[i + 1]
            if i + 2 < N:
                expected[i, i + 2] = expected[i + 2, i] = alpha * J[i + 1] * J[i + 2]
        h = _hamiltonian(N, alpha, beta)
        assert type(h) is np.ndarray and h.dtype == np.float64
        np.testing.assert_array_equal(h, expected)
        rows, cols = np.indices((N, N))
        assert not h[np.abs(rows - cols) > 2].any()


def test_hamiltonian_refuses_overflow_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^the spectrum overflows a float$"):
            _hamiltonian(5, 1e308, 1e308)


def test_hamiltonian_refused_before_allocation(monkeypatch):
    monkeypatch.delenv("REVIVAL_MAX_M", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="^the chain Hamiltonian needs 10000000000 elements, above the guard"):
            _hamiltonian(100000, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hamiltonian_commutes_with_reversal():
    for N in (4, 7):
        h = _hamiltonian(N, 0.9, 1.1)
        r = np.eye(N)[::-1]
        assert np.abs(r @ h @ r - h).max() < 1e-14


def test_evolve_zero_time_is_identity():
    spec = chain.ChainSpec(N=5, alpha=1.0, beta=1.0)
    psi = chain.site_state(5, 2)
    np.testing.assert_allclose(chain.chain_evolve(spec, psi, 0.0), psi, atol=1e-14)


def test_evolve_nn_chain_transfers_perfectly():
    # pure NN chain moves the excitation end to end at tau = pi/beta
    for N in (2, 3, 6, 11):
        spec = chain.ChainSpec(N=N, alpha=0.0, beta=1.0)
        out = chain.chain_evolve(spec, chain.site_state(N, 1), pi)
        assert abs(abs(out[-1]) - 1.0) < 1e-12
        assert np.abs(out[:-1]).max() < 1e-10


def test_evolve_balanced_revival_four_sites():
    spec = chain.ChainSpec(N=4, alpha=2.0, beta=2.0)
    out = chain.chain_evolve(spec, chain.site_state(4, 1), pi / 4)
    probs = np.abs(out) ** 2
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[3] == pytest.approx(0.5, abs=1e-12)
    assert probs[1] < 1e-10 and probs[2] < 1e-10


def test_evolve_is_unitary():
    rng = np.random.default_rng(7)
    spec = chain.ChainSpec(N=9, alpha=0.8, beta=-1.2)
    for _ in range(20):
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        out = chain.chain_evolve(spec, psi, float(rng.uniform(-8, 8)))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_evolve_group_law():
    rng = np.random.default_rng(8)
    spec = chain.ChainSpec(N=7, alpha=1.4, beta=0.6)
    psi = rng.normal(size=7) + 1j * rng.normal(size=7)
    psi /= np.linalg.norm(psi)
    t1, t2 = 0.9, -2.3
    once = chain.chain_evolve(spec, psi, t1 + t2)
    twice = chain.chain_evolve(spec, chain.chain_evolve(spec, psi, t1), t2)
    np.testing.assert_allclose(once, twice, atol=1e-10)


def test_evolve_rejects_unnormalized_state():
    spec = chain.ChainSpec(N=4, alpha=1.0, beta=1.0)
    with pytest.raises(InvalidInputError):
        chain.chain_evolve(spec, np.ones(4), 1.0)


def test_evolve_rejects_trivial_hamiltonian():
    with pytest.raises(InvalidInputError):
        chain.chain_evolve(chain.ChainSpec(N=4, alpha=0.0, beta=0.0), chain.site_state(4, 1), 1.0)


def test_site_state_bounds():
    with pytest.raises(InvalidInputError):
        chain.site_state(4, 0)
    with pytest.raises(InvalidInputError):
        chain.site_state(4, 5)


# J's eigenbasis from its three-term recurrence, against the dense J and LAPACK's eigh: the references
# no command reads.  Bounds are multiples of N eps (of N eps max|lambda| for the residual at large N).


def _eigenvalues(N):
    return (N - 1) / 2.0 - np.arange(N)


@pytest.mark.parametrize("N", range(2, 65))
def test_recurrence_basis_diagonalizes_the_hopping_matrix(N):
    v = chain._eigenbasis(N)
    J = oracle.hopping_matrix(N)
    assert np.abs(J @ v - v * _eigenvalues(N)).max() <= 2 * N * EPS
    assert np.abs(v.T @ v - np.eye(N)).max() <= N * EPS
    # eigh sorts ascending, so its column N - 1 - s holds lambda_s, up to a sign; its own
    # rounding grows with max|lambda| = (N - 1)/2, and the gaps are 1
    w, u = np.linalg.eigh(J)
    np.testing.assert_allclose(w[::-1], _eigenvalues(N), rtol=0, atol=N * EPS * (N - 1) / 2)
    assert np.abs(np.abs(v.T @ u[:, ::-1]) - np.eye(N)).max() <= N * EPS * (N - 1) / 2


@pytest.mark.parametrize("N", [3, 5, 9, 33, 63, 1025])
def test_odd_vectors_vanish_exactly_at_the_middle_of_an_odd_chain(N):
    v = chain._eigenbasis(N)
    assert (v[N // 2, 1::2] == 0.0).all()
    assert (v[N // 2, 0::2] != 0.0).all()
    # and each vector is its own mirror image times (-1)^s, bit for bit
    assert (v[::-1] == v * (-1.0) ** np.arange(N)).all()


@pytest.mark.parametrize("N", [2100, 4096])
def test_recurrence_basis_stays_finite_and_orthonormal_past_the_rescale(N):
    # a vector grows by up to 2^((N-1)/2), so these columns were scaled by 2^-256 several times
    v = chain._eigenbasis(N)
    assert np.isfinite(v).all()
    columns = np.r_[0:4, N // 4, N // 2 - 1, N // 2, 3 * N // 4, N - 4:N]
    picked = v[:, columns]
    assert np.abs(picked.T @ v - np.eye(N)[columns]).max() <= N * EPS
    J = np.concatenate(([0.0], 0.5 * np.sqrt(np.arange(1, N) * (N - np.arange(1, N))), [0.0]))
    padded = np.pad(picked, ((1, 1), (0, 0)))
    applied = J[:-1, None] * padded[:-2] + J[1:, None] * padded[2:]  # (J v)_n = J_{n-1} v_{n-1} + J_n v_{n+1}
    assert np.abs(applied - picked * _eigenvalues(N)[columns]).max() <= N * EPS * (N - 1) / 2
    # the first site carries sqrt(C(N-1, s)/2^(N-1)), the corner's weight on eigenspace s
    for s in columns:
        weight = comb(N - 1, int(s)) / 2 ** (N - 1)
        if weight > 1e-300:
            assert abs(v[0, s] ** 2 / weight - 1) <= N * EPS
        else:
            assert v[0, s] ** 2 <= 1e-300


@settings(max_examples=300, deadline=None)
@given(N=st.integers(2, 64), alpha=st.floats(-3, 3), beta=st.floats(-3, 3), tau=st.floats(-20, 20),
       site=st.integers(1, 64))
def test_evolution_matches_the_eigendecomposition_of_the_dense_hamiltonian(N, alpha, beta, tau, site):
    if alpha == 0.0 and beta == 0.0:
        alpha = 1.0
    spec = chain.ChainSpec(N, alpha, beta)
    psi = chain.site_state(N, min(site, N))
    w, u = np.linalg.eigh(chain.build_hamiltonian(spec))
    reference = u @ (np.exp(-1j * tau * w) * (u.T @ psi))
    # the rounding of each side's phases tau E (walk.resolves), and N eps of the sums
    bound = 2 * (3 * EPS * abs(tau) * np.abs(w).max() + N * EPS)
    assert np.abs(chain.chain_evolve(spec, psi, tau) - reference).max() <= bound


def test_evolution_runs_no_eigendecomposition_and_builds_no_hamiltonian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense diagonalization on the chain path")

    expected = chain.chain_evolve(chain.ChainSpec(7, 0.8, -1.2), chain.site_state(7, 3), 1.7)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(chain, "build_hamiltonian", refuse)
    monkeypatch.setattr(np, "dot", refuse)
    out = chain.chain_evolve(chain.ChainSpec(7, 0.8, -1.2), chain.site_state(7, 3), 1.7)
    assert out.tobytes() == expected.tobytes()


def test_evolution_reads_the_walks_spectrum(monkeypatch):
    # the phases come from WalkSpec.energies: a shifted spectrum moves the chain by the same phase
    psi = chain.site_state(6, 1)
    spec = chain.ChainSpec(6, 0.7, 1.3)
    before = chain.chain_evolve(spec, psi, 0.9)
    real = walk.kraw.graph_eigenvalues
    monkeypatch.setattr(walk.kraw, "graph_eigenvalues", lambda s: real(s) + 0.5)
    after = chain.chain_evolve(spec, psi, 0.9)
    np.testing.assert_allclose(after, np.exp(-0.45j) * before, rtol=0, atol=1e-14)


def test_no_command_module_calls_eigh_and_the_chain_path_multiplies_no_matrices():
    source = Path(chain.__file__).resolve().parent
    users = sorted(path.name for path in source.glob("*.py") if "linalg.eigh" in path.read_text())
    assert users == ["oracle.py"]
    tree = ast.parse(Path(chain.__file__).read_text())
    path = [node for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name in ("chain_evolve", "_eigenbasis", "_in_order", "_couplings")]
    assert len(path) == 4
    for function in path:
        nodes = list(ast.walk(function))
        assert not any(isinstance(node, ast.MatMult) for node in nodes), function.name
        assert not any(isinstance(node, ast.Attribute) and node.attr in ("dot", "eigh", "matmul") for node in nodes)
        assert not any(isinstance(node, ast.Name) and node.id == "build_hamiltonian" for node in nodes)
