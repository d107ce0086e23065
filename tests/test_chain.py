"""Chain couplings, the pentadiagonal operator, and one-excitation evolution."""

from math import pi, sqrt

import numpy as np
import pytest

from fracrevival import chain, oracle
from fracrevival.errors import InvalidInputError


def test_couplings_four_sites():
    c = chain.couplings(chain.ChainSpec(N=4, alpha=0.0, beta=1.0))
    np.testing.assert_allclose(c.J, [sqrt(3) / 2, 1.0, sqrt(3) / 2], atol=1e-15)


def test_couplings_vanish_without_nnn_term():
    c = chain.couplings(chain.ChainSpec(N=6, alpha=0.0, beta=2.0))
    np.testing.assert_array_equal(c.J2, np.zeros(4))
    np.testing.assert_array_equal(c.B, np.zeros(6))


def test_couplings_two_sites():
    c = chain.couplings(chain.ChainSpec(N=2, alpha=1.2, beta=0.5))
    np.testing.assert_allclose(c.J, [0.5])
    np.testing.assert_allclose(c.B, [1.2 / 4, 1.2 / 4])


def test_couplings_mirror_symmetry():
    # J_n = J_{N-n}: the chain is persymmetric
    for N in (3, 8, 13):
        c = chain.couplings(chain.ChainSpec(N=N, alpha=1.0, beta=1.0))
        np.testing.assert_allclose(c.J, c.J[::-1], atol=1e-15)


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        chain.ChainSpec(N=1, alpha=1.0, beta=0.0)
    with pytest.raises(InvalidInputError):
        chain.ChainSpec(N=4, alpha=float("nan"), beta=0.0)


def test_hamiltonian_nn_only_three_sites():
    op = chain.build_hamiltonian(chain.ChainSpec(N=3, alpha=0.0, beta=1.0))
    np.testing.assert_allclose(op.offdiag1, [1 / sqrt(2), 1 / sqrt(2)], atol=1e-15)
    np.testing.assert_array_equal(op.diag, np.zeros(3))
    np.testing.assert_array_equal(op.offdiag2, np.zeros(1))


def test_hamiltonian_nnn_only_three_sites():
    alpha = 1.7
    op = chain.build_hamiltonian(chain.ChainSpec(N=3, alpha=alpha, beta=0.0))
    np.testing.assert_array_equal(op.offdiag1, np.zeros(2))
    np.testing.assert_allclose(op.offdiag2, [alpha / 2], atol=1e-15)
    np.testing.assert_allclose(op.diag, [alpha / 2, alpha, alpha / 2], atol=1e-15)


def test_hamiltonian_factorizes_through_hopping_matrix():
    rng = np.random.default_rng(6)
    for N in (2, 3, 5, 9, 15):
        alpha, beta = rng.uniform(-3, 3, size=2)
        op = chain.build_hamiltonian(chain.ChainSpec(N=N, alpha=float(alpha), beta=float(beta)))
        J = oracle.hopping_matrix(N)
        np.testing.assert_array_equal(op.to_dense(), op.to_dense().T)
        assert np.abs(op.to_dense() - (alpha * J @ J + beta * J)).max() < 1e-14
    # at N = 40 entries reach ~300, where one ulp exceeds 1e-14, so the bound
    # is 1e-14 relative to the largest entry
    alpha, beta = rng.uniform(-3, 3, size=2)
    op = chain.build_hamiltonian(chain.ChainSpec(N=40, alpha=float(alpha), beta=float(beta)))
    J = oracle.hopping_matrix(40)
    reference = alpha * J @ J + beta * J
    np.testing.assert_array_equal(op.to_dense(), op.to_dense().T)
    assert np.abs(op.to_dense() - reference).max() < 1e-14 * np.abs(reference).max()


def test_hamiltonian_commutes_with_reversal():
    for N in (4, 7):
        h = chain.build_hamiltonian(chain.ChainSpec(N=N, alpha=0.9, beta=1.1)).to_dense()
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
    spec = chain.ChainSpec(N=4, alpha=0.0, beta=0.0)
    with pytest.raises(InvalidInputError):
        chain.chain_evolve(spec, chain.site_state(4, 1), 1.0)


def test_site_state_bounds():
    with pytest.raises(InvalidInputError):
        chain.site_state(4, 0)
    with pytest.raises(InvalidInputError):
        chain.site_state(4, 5)
