"""Walsh-Hadamard engine versus the dense oracle, and antipodal readout."""

import tracemalloc
from fractions import Fraction
from math import comb, gcd, pi, sqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracrevival import errors, oracle, revival, scheme, walk
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
    # every output bit is that of one butterfly stage per bit in the order
    # h = 1, 2, 4, ...; a faster transform (fused stages, say) must keep them
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
    if alpha == 0.0 and beta == 0.0:
        with pytest.raises(InvalidInputError, match=r"^\(alpha, beta\) != \(0, 0\) required$"):
            walk.WalkSpec(M=M, alpha=alpha, beta=beta)
        return
    assert_closed_form_matches_fwht(walk.WalkSpec(M=M, alpha=alpha, beta=beta), tau)


@settings(max_examples=100, deadline=None)
@given(
    M=st.integers(1, 14),
    alpha=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    beta=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    tau=st.floats(0.0, 8.0),
)
def test_column_amplitudes_match_fwht_evolution(M, alpha, beta, tau):
    # the FWHT evolution of the corner state is the oracle of the column amplitudes
    assume(alpha != 0.0 or beta != 0.0)
    spec = walk.WalkSpec(M=M, alpha=alpha, beta=beta)
    psi = walk.evolve_graph(spec, walk.corner_state(M), tau)
    gathered = walk.column_amplitudes(spec, tau)[scheme.hamming_weights(M)]
    assert np.abs(gathered - psi).max() < 1e-12


@pytest.mark.parametrize("M", [1, 3, 8])
def test_an_empty_array_of_times_gives_empty_amplitudes(M):
    # errors.eigenphases accepts an empty array of times; so do the readouts
    spec = walk.WalkSpec(M=M, alpha=1.3, beta=0.9)
    mus, nus = walk.antipodal_scan(spec, np.array([]))
    assert mus.shape == nus.shape == (0,) and mus.dtype == nus.dtype == complex
    assert walk.column_amplitudes(spec, np.empty(0)).shape == (0, M + 1)
    assert walk.column_amplitudes(spec, np.empty((0, 2))).shape == (0, 2, M + 1)
    assert walk.column_amplitudes(spec, np.empty((0, 2)), (0, M)).shape == (0, 2, 2)


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
    # the M + 1 class amplitudes need no 2^M table, so no 2^M guard
    assert walk.column_amplitudes(walk.WalkSpec(M=27, alpha=1.0, beta=1.0), 1.0).shape == (28,)


def test_a_phase_table_peaks_below_twice_its_size():
    # the exp runs in place: at its peak the complex table and the real products it came from, 24 bytes a phase
    taus = np.linspace(0.0, 2.0, 1001)
    energies = np.linspace(-3.0, 3.0, 1024)
    tracemalloc.start()
    try:
        table = errors.eigenphases(taus, energies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * table.nbytes
    reference = np.exp(-1j * np.multiply.outer(taus, energies))
    assert np.array_equal(table.view(np.uint64), reference.view(np.uint64))


def test_column_amplitudes_hold_one_block_of_products_at_a_time():
    # the eigenphases' own 1.5x, then the table and one block of products (half its size) at a time
    spec = walk.WalkSpec(M=1023, alpha=1.0, beta=1.0)
    taus = np.linspace(0.0, 2.0, 1001)
    tracemalloc.start()
    try:
        walk.antipodal_scan(spec, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * taus.size * (spec.M + 1) * np.dtype(complex).itemsize


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


def bits(values) -> bytes:
    return np.ascontiguousarray(values).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    M=st.integers(1, 14),
    alpha=st.one_of(st.just(0.0), st.floats(-30.0, 30.0)),
    beta=st.one_of(st.just(0.0), st.floats(-30.0, 30.0)),
    tau_max=st.floats(0.1, 1e4),
    count=st.integers(2, 3000),
    data=st.data(),
)
def test_antipodal_scan_rows_depend_on_their_own_time_alone(M, alpha, beta, tau_max, count, data):
    # a row's bits must not depend on the other times of the call (BLAS gemv fails this)
    assume(alpha != 0.0 or beta != 0.0)
    spec = walk.WalkSpec(M=M, alpha=alpha, beta=beta)
    taus = np.linspace(0.0, tau_max, count)
    mus, nus = walk.antipodal_scan(spec, taus)
    idx = np.array(sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=1, max_size=50))))
    sub_mus, sub_nus = walk.antipodal_scan(spec, taus[idx])
    assert bits(sub_mus) == bits(mus[idx]) and bits(sub_nus) == bits(nus[idx])
    k = int(idx[0])
    amp = walk.antipodal_amplitudes(spec, float(taus[k]))
    assert bits([amp.mu, amp.nu]) == bits([mus[k], nus[k]])
    # every class holds the same bits whatever times and classes, in whatever order, the call holds
    psi = walk.column_amplitudes(spec, taus)
    assert bits(psi[:, [0, M]]) == bits(np.stack([mus, nus], axis=1))
    classes = data.draw(st.lists(st.integers(0, M), min_size=1, max_size=M + 1, unique=True))
    assert bits(walk.column_amplitudes(spec, taus[idx[::-1]], classes)) == bits(psi[np.ix_(idx[::-1], classes)])
    assert bits(walk.column_amplitudes(spec, float(taus[k]))) == bits(psi[k])


@pytest.mark.parametrize("tau", [1e6, -1e6])
def test_a_gate_above_three_eps_tau_reach_resolves(tau):
    # walk.resolves' account is 3 eps |tau| R; a gate at 3.5 eps |tau| R lies above it, one at 2.5 below
    reach = walk.WalkSpec(M=3, alpha=1.0, beta=1.0).reach
    assert walk.resolves(reach, tau, 3.5 * walk.EPS * abs(tau) * reach)
    assert not walk.resolves(reach, tau, 2.5 * walk.EPS * abs(tau) * reach)


# An exact reference for the corner and antipode amplitudes of the float model: the walk's
# E_s = (alpha/2)(lambda^2 - M)/2 + (beta/2) lambda from the float alpha and beta as exact
# fractions, tau E_s exact, reduced mod 2 pi with a Machin pi, and cos and sin by Taylor
# series, all in integers scaled by 2^BITS (no mpmath, no float).
BITS = 320


def _atan_inverse(x, one):
    """atan(1/x) * one for an integer x > 1, by its alternating series."""
    total, power, j = 0, one // x, 0
    while power:
        total += (-1) ** j * (power // (2 * j + 1))
        power //= x * x
        j += 1
    return total


def _two_pi(bits):
    """2 pi * 2^bits, from pi = 16 atan(1/5) - 4 atan(1/239) with 32 guard bits."""
    one = 1 << (bits + 32)
    return (2 * (16 * _atan_inverse(5, one) - 4 * _atan_inverse(239, one))) >> 32


def _cos_sin(r, one):
    """cos and sin of r / one for 0 <= r < 2 pi one, by their Taylor series."""
    cos = sin = 0
    term, n = one, 0
    while term:
        if n % 2:
            sin += -term if n % 4 == 3 else term
        else:
            cos += -term if n % 4 == 2 else term
        n += 1
        term = term * r // (one * n)
    return cos, sin


def exact_corner_and_antipode(M, alpha, beta, tau):
    """mu = 2^-M sum_s C(M, s) e^{-i tau E_s}, and nu with a factor (-1)^s, each part within about 2^-300."""
    one, two_pi = 1 << BITS, _two_pi(BITS)
    sums = [[0, 0], [0, 0]]  # real and imaginary parts of mu and nu, times one 2^M
    for s in range(M + 1):
        lam = M - 2 * s
        x = Fraction(tau) * (Fraction(alpha) / 2 * Fraction(lam * lam - M, 2) + Fraction(beta) / 2 * lam)
        cos, sin = _cos_sin((x.numerator << BITS) // x.denominator % two_pi, one)
        for parts, sign in zip(sums, (1, (-1) ** s)):
            parts[0] += sign * comb(M, s) * cos
            parts[1] -= sign * comb(M, s) * sin
    scale = one << M
    return [complex(float(Fraction(re, scale)), float(Fraction(im, scale))) for re, im in sums]


def test_the_exact_reference_knows_its_phases():
    one = 1 << BITS
    assert abs(Fraction(_two_pi(BITS), one) - Fraction(884279719003555, 140737488355328)) < Fraction(1, 10 ** 15)
    # two sites, beta = 1, tau = pi (the float): E = +-1/2, and cos(pi/2) is the float pi's offset from pi
    mu, nu = exact_corner_and_antipode(1, 0.0, 1.0, pi)
    assert abs(mu - 6.123233995736766e-17) < 1e-30 and abs(nu + 1j) < 1e-30
    # two sites, beta = 2: E = +-1, so mu = cos(tau) and nu = -i sin(tau)
    for tau in (0.3, 2.5, 1e6):
        mu, nu = exact_corner_and_antipode(1, 0.0, 2.0, tau)
        assert abs(mu - np.cos(tau)) < 1e-15 * max(1.0, tau) and abs(nu + 1j * np.sin(tau)) < 1e-15 * max(1.0, tau)


_coupling = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]),
                                              st.floats(-5, 8)))


@settings(max_examples=200, deadline=None)
@example(M=3, alpha=1.4e-4, beta=0.0, tau=2.9)  # tau max|E| tiny: the floor 2(M + 1) eps decides
@example(M=30, alpha=1e8, beta=-1e8, tau=1e9)
@given(M=st.integers(1, 30), alpha=_coupling, beta=_coupling, tau=st.floats(-1e9, 1e9))
def test_corner_and_antipode_amplitudes_stay_within_the_rounding_account(M, alpha, beta, tau):
    # walk.resolves' account, 3 eps |tau| max|E|, plus its floor 2(M + 1) eps from the sum and the exp;
    # the chain evolves with the same eigenphases, so the account covers both engines' phases
    assume(alpha != 0.0 or beta != 0.0)
    spec = walk.WalkSpec(M, alpha, beta)
    mu, nu = walk.column_amplitudes(spec, tau, (0, M))
    exact_mu, exact_nu = exact_corner_and_antipode(M, alpha, beta, tau)
    bound = 3 * walk.EPS * abs(tau) * spec.reach + 2 * (M + 1) * walk.EPS
    assert abs(mu - exact_mu) <= bound and abs(nu - exact_nu) <= bound


def screened_at(values, steps, rows):
    """The screen's values (revival._screen's layout) at grid rows; a row below those held reads its mirror steps - k."""
    held = [k if k > steps - values.size else steps - k for k in rows]
    # entry (j, a) holds grid row steps - a B - j
    return np.array([values[(steps - k) % len(values), (steps - k) // len(values)] for k in held])


@settings(max_examples=40, deadline=None)
@example(N=13, alpha=1.3, beta=0.0, p=None, q=None, steps=10 ** 4, mirror=True, picks=[1, 2, 4999, 5000, 5001, 9999])
@example(N=9, alpha=0.6, beta=1.0, p=3, q=5, steps=10 ** 4, mirror=False, picks=[1, 100, 101, 9898, 9999, 10 ** 4])
@given(N=st.integers(2, 13), alpha=st.floats(0.3, 3.0), beta=st.sampled_from((0.0, 1.0, -0.7, 2.5)),
       p=st.integers(-12, 12), q=st.integers(1, 11), steps=st.sampled_from((1, 2, 3, 10 ** 4)),
       mirror=st.booleans(), picks=st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=6))
def test_the_screen_stays_within_delta_of_the_exact_reference(N, alpha, beta, p, q, steps, mirror, picks):
    # revival._screen at sampled grid rows of a window of _scan_window, every row held or half of
    # them read from mirrors, against the pure-integer sums of the same float model
    if beta != 0.0:
        assume(gcd(p, q) == 1)
        alpha = beta * p / q
    else:
        p = q = None
    cert = revival.check_conditions(N, alpha, beta, p, q)
    spec = walk.WalkSpec(N - 1, alpha, beta)
    taus = revival.tau_grid(0.0, revival._scan_window(cert), steps)
    corner, total, delta = revival._screen(spec, taus, revival._integers(cert) if mirror else None)
    rows = sorted({k % steps + 1 for k in picks})
    exact = np.array([exact_corner_and_antipode(N - 1, alpha, beta, float(taus[k])) for k in rows])
    exact_corner = np.abs(exact[:, 0]) ** 2
    assert np.abs(screened_at(corner, steps, rows) - exact_corner).max() <= delta
    assert np.abs(screened_at(total, steps, rows) - exact_corner - np.abs(exact[:, 1]) ** 2).max() <= delta
