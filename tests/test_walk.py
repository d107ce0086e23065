"""Walsh-Hadamard engine versus the dense oracle, and antipodal readout."""

from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrevival import oracle, walk
from fracrevival.errors import InvalidInputError, ResourceLimitError


def random_state(rng, size):
    psi = rng.normal(size=size) + 1j * rng.normal(size=size)
    return psi / np.linalg.norm(psi)


def test_fwht_single_qubit():
    out = walk.fwht(np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [1 / sqrt(2), 1 / sqrt(2)], atol=1e-15)


def test_fwht_corner_gives_uniform():
    out = walk.fwht(walk.basis_state(4, 0))
    np.testing.assert_allclose(out, np.full(16, 0.25), atol=1e-15)


def test_fwht_is_involutive_and_unitary():
    rng = np.random.default_rng(10)
    for M in (1, 3, 6, 10):
        psi = random_state(rng, 1 << M)
        once = walk.fwht(psi)
        assert abs(np.linalg.norm(once) - 1.0) < 1e-13
        np.testing.assert_allclose(walk.fwht(once), psi, atol=1e-13)


def test_fwht_matches_character_sum():
    # component z = 2^(-M/2) sum_x (-1)^(x.z) psi(x), checked directly at M=3
    rng = np.random.default_rng(11)
    M = 3
    psi = random_state(rng, 8)
    out = walk.fwht(psi)
    for z in range(8):
        signs = np.array([(-1) ** bin(x & z).count("1") for x in range(8)])
        assert abs(out[z] - signs @ psi / sqrt(8)) < 1e-14


def radix2_fwht(psi):
    # the transform as one radix-2 butterfly stage per bit, h = 1, 2, 4, ...
    out = np.asarray(psi).astype(complex, copy=True)
    n = out.shape[0]
    h = 1
    while h < n:
        out = out.reshape(-1, 2, h)
        top = out[:, 0, :] + out[:, 1, :]
        bottom = out[:, 0, :] - out[:, 1, :]
        out[:, 0, :] = top
        out[:, 1, :] = bottom
        out = out.reshape(n)
        h *= 2
    out *= 1.0 / np.sqrt(n)
    return out


def test_fwht_bits_match_radix2_stage_order():
    # fusing stages in pairs must keep every output bit, for odd and even M
    # and for M = 1, where no fused pass runs
    rng = np.random.default_rng(17)
    for M in range(13):
        real = rng.normal(size=1 << M)
        for psi in (real, random_state(rng, 1 << M)):
            assert np.array_equal(
                walk.fwht(psi).view(np.uint64), radix2_fwht(psi).view(np.uint64)
            ), M


def test_fwht_rejects_bad_length():
    with pytest.raises(InvalidInputError):
        walk.fwht(np.zeros(6))
    with pytest.raises(InvalidInputError):
        walk.fwht(np.zeros((4, 4)))


def test_evolve_zero_time():
    rng = np.random.default_rng(12)
    spec = walk.WalkSpec(M=5, alpha=1.3, beta=0.4)
    psi = random_state(rng, 32)
    np.testing.assert_allclose(walk.evolve_graph(spec, psi, 0.0), psi, atol=1e-13)


def test_evolve_unweighted_revival():
    spec = walk.WalkSpec(M=3, alpha=2.0, beta=2.0)
    out = walk.evolve_graph(spec, walk.corner_state(3), pi / 4)
    probs = np.abs(out) ** 2
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[7] == pytest.approx(0.5, abs=1e-12)
    assert probs[1:7].max() < 1e-10


def test_evolve_matches_dense_oracle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        M = int(rng.integers(1, 7))
        spec = walk.WalkSpec(M=M, alpha=float(rng.uniform(-2, 2)), beta=float(rng.uniform(-2, 2)))
        tau = float(rng.uniform(-4, 4))
        psi = random_state(rng, 1 << M)
        fast = walk.evolve_graph(spec, psi, tau)
        slow = oracle.dense_oracle_evolve(spec, psi, tau)
        assert np.abs(fast - slow).max() < 1e-11


def test_evolve_unitary_and_reversible():
    rng = np.random.default_rng(14)
    spec = walk.WalkSpec(M=8, alpha=0.9, beta=-0.5)
    psi = random_state(rng, 256)
    for tau in (0.3, 2.7, -5.1):
        out = walk.evolve_graph(spec, psi, tau)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        back = walk.evolve_graph(spec, out, -tau)
        np.testing.assert_allclose(back, psi, atol=1e-11)


def test_evolve_group_law():
    rng = np.random.default_rng(15)
    spec = walk.WalkSpec(M=6, alpha=1.7, beta=0.2)
    psi = random_state(rng, 64)
    once = walk.evolve_graph(spec, psi, 1.9)
    twice = walk.evolve_graph(spec, walk.evolve_graph(spec, psi, 0.8), 1.1)
    np.testing.assert_allclose(once, twice, atol=1e-11)


def test_evolve_alpha_zero_reduces_to_hypercube_walk():
    # without face diagonals the dynamics is the plain NN hypercube walk
    rng = np.random.default_rng(16)
    M, beta, tau = 5, 1.6, 2.2
    psi = random_state(rng, 32)
    reduced = walk.evolve_graph(walk.WalkSpec(M=M, alpha=0.0, beta=beta), psi, tau)
    a1 = np.array(
        [oracle.apply_adjacency(oracle.SchemeOperator(M, 1), e) for e in np.eye(32)]
    ).T
    w, v = np.linalg.eigh(0.5 * beta * a1)
    np.testing.assert_allclose(reduced, v @ (np.exp(-1j * tau * w) * (v.T @ psi)), atol=1e-11)


def test_evolve_rejects_unnormalized_and_wrong_length():
    spec = walk.WalkSpec(M=3, alpha=1.0, beta=1.0)
    with pytest.raises(InvalidInputError):
        walk.evolve_graph(spec, np.ones(8), 1.0)
    with pytest.raises(InvalidInputError):
        walk.evolve_graph(spec, walk.corner_state(4), 1.0)


def test_dense_oracle_two_level_oscillation():
    # M=1, H = A_1: exp(-i tau sigma_x) on (1,0) gives (cos tau, -i sin tau)
    spec = walk.WalkSpec(M=1, alpha=0.0, beta=2.0)
    out = oracle.dense_oracle_evolve(spec, np.array([1.0, 0.0]), pi / 2)
    np.testing.assert_allclose(out, [0.0, -1j], atol=1e-14)


def test_dense_oracle_hamiltonian_is_symmetric():
    spec = walk.WalkSpec(M=5, alpha=1.1, beta=0.7)
    h = walk.dense_hamiltonian(spec)
    assert np.abs(h - h.T).max() == 0.0


def test_dense_oracle_guard():
    spec = walk.WalkSpec(M=11, alpha=1.0, beta=1.0)
    with pytest.raises(ResourceLimitError):
        oracle.dense_oracle_evolve(spec, walk.corner_state(11), 1.0)


def test_antipodal_amplitudes_at_zero():
    amp = walk.antipodal_amplitudes(walk.WalkSpec(M=4, alpha=1.0, beta=1.0), 0.0)
    assert amp.mu == pytest.approx(1.0)
    assert amp.nu == pytest.approx(0.0)
    assert amp.leakage == pytest.approx(0.0, abs=1e-14)


def test_antipodal_amplitudes_unweighted_revival():
    amp = walk.antipodal_amplitudes(walk.WalkSpec(M=3, alpha=2.0, beta=2.0), pi / 4)
    assert abs(amp.mu) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(amp.nu) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert amp.leakage < 1e-10
    rotated = amp.nu * np.exp(-1j * np.angle(amp.mu))
    assert abs(rotated.real) < 1e-12  # nu pure imaginary once mu is made real


def test_antipodal_amplitudes_pst():
    amp = walk.antipodal_amplitudes(walk.WalkSpec(M=3, alpha=0.0, beta=1.0), pi)
    assert abs(amp.nu) == pytest.approx(1.0, abs=1e-12)
    assert amp.leakage < 1e-10


def test_antipodal_scan_matches_pointwise_evolution():
    # the closed-form scan against its one-point case, antipodal_amplitudes;
    # the FWHT oracle for both is test_closed_form_amplitudes_match_fwht_evolution
    for M in (1, 4, 8, 14):
        spec = walk.WalkSpec(M=M, alpha=1.3, beta=0.9)
        taus = np.linspace(0.0, 5.0, 37)
        mus, nus = walk.antipodal_scan(spec, taus)
        for t, mu, nu in zip(taus, mus, nus):
            amp = walk.antipodal_amplitudes(spec, float(t))
            assert abs(mu - amp.mu) < 1e-12
            assert abs(nu - amp.nu) < 1e-12


def assert_closed_form_matches_fwht(spec, tau):
    amp = walk.antipodal_amplitudes(spec, tau)
    psi = walk.evolve_graph(spec, walk.corner_state(spec.M), tau)
    assert abs(amp.mu - psi[0]) < 1e-12
    assert abs(amp.nu - psi[-1]) < 1e-12


@pytest.mark.parametrize("M", [1, 4, 8, 14])
@pytest.mark.parametrize("alpha, beta", [(1.3, 0.9), (-1.3, 0.9), (1.3, -0.9), (-0.7, -2.1), (1.1, 0.0)])
def test_closed_form_amplitudes_match_fwht_evolution(M, alpha, beta):
    spec = walk.WalkSpec(M=M, alpha=alpha, beta=beta)
    for tau in np.linspace(0.0, 5.0, 11):
        assert_closed_form_matches_fwht(spec, float(tau))


@settings(max_examples=150, deadline=None)
@given(
    M=st.integers(1, 12),
    alpha=st.floats(-3.0, 3.0),
    beta=st.floats(-3.0, 3.0),
    tau=st.floats(0.0, 20.0),
)
def test_closed_form_amplitudes_match_fwht_property(M, alpha, beta, tau):
    assert_closed_form_matches_fwht(walk.WalkSpec(M=M, alpha=alpha, beta=beta), tau)


def test_antipodal_scan_refuses_overflowing_phase():
    spec = walk.WalkSpec(M=3, alpha=1e300, beta=1e300)
    with pytest.raises(InvalidInputError, match="overflows"):
        walk.antipodal_scan(spec, [0.0, 1e10])
    with pytest.raises(InvalidInputError, match="overflows"):
        walk.antipodal_amplitudes(spec, 1e10)
    with pytest.raises(InvalidInputError, match="tau must be finite"):
        walk.antipodal_amplitudes(spec, float("inf"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_antipodal_scan_refuses_non_finite_times(bad):
    # the refusal comes before the overflow check, so no grid point reads as an overflow
    with pytest.raises(InvalidInputError, match="tau must be finite"):
        walk.antipodal_scan(walk.WalkSpec(M=3, alpha=1.0, beta=1.0), [0.0, bad, 1.0])


def test_resource_guard_and_env_override(monkeypatch):
    monkeypatch.setenv("REVIVAL_MAX_M", "4")
    spec = walk.WalkSpec(M=5, alpha=1.0, beta=1.0)
    with pytest.raises(ResourceLimitError):
        walk.evolve_graph(spec, walk.corner_state(5), 1.0)
    monkeypatch.setenv("REVIVAL_MAX_M", "5")
    out = walk.evolve_graph(spec, walk.corner_state(5), 1.0)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    monkeypatch.delenv("REVIVAL_MAX_M")
    with pytest.raises(ResourceLimitError):
        # guard fires before any allocation, so the dummy state is never touched
        walk.evolve_graph(walk.WalkSpec(M=27, alpha=1.0, beta=1.0), np.zeros(1), 1.0)
    with pytest.raises(ResourceLimitError):
        walk.corner_state(27)  # refused before the 2 GiB start state is allocated


def test_remove_global_phase():
    rng = np.random.default_rng(17)
    psi = random_state(rng, 16)
    rotated = psi * np.exp(1j * 0.83)
    np.testing.assert_allclose(
        oracle.remove_global_phase(psi), oracle.remove_global_phase(rotated), atol=1e-13
    )
    fixed = oracle.remove_global_phase(psi)
    k = np.argmax(np.abs(fixed))
    assert fixed[k].imag == pytest.approx(0.0, abs=1e-15)
    assert fixed[k].real > 0
