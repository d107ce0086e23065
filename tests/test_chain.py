"""Chain couplings, read as the bands of the dense Hamiltonian, and one-excitation evolution."""

from math import pi, sqrt

import tracemalloc
import warnings

import numpy as np
import pytest

from fracrevival import chain, oracle
from fracrevival.errors import InvalidInputError, ResourceLimitError


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
