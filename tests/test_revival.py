"""Revival arithmetic, numeric certification, and the antipodal phase identity."""

from math import gcd, pi

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracrevival import revival, walk
from fracrevival.errors import InvalidInputError


def test_unweighted_graph_certificate():
    cert = revival.check_conditions(4, 2.0, 2.0)
    assert cert.kind == revival.BALANCED_FR
    assert (cert.p, cert.q) == (1, 1)
    assert cert.tau_fr == pytest.approx(pi / 4)
    assert cert.tau_pst == pytest.approx(pi / 2)


def test_nnn_only_certificate():
    cert = revival.check_conditions(5, 1.0, 0.0)
    assert cert.kind == revival.BALANCED_FR
    assert cert.tau_fr == pytest.approx(pi / 2)
    cert = revival.check_conditions(4, 1.0, 0.0)
    assert cert.kind == revival.NONE
    assert "odd" in cert.reason


def test_even_numerator_gives_pst_only():
    cert = revival.check_conditions(4, 2.0, 1.0)
    assert cert.kind == revival.PST_ONLY
    assert (cert.p, cert.q) == (2, 1)
    assert cert.tau_pst == pytest.approx(pi)  # pi q / beta
    assert cert.tau_fr is None


def test_nn_chain_certificate_is_pst_only():
    cert = revival.check_conditions(6, 0.0, 1.0)
    assert cert.kind == revival.PST_ONLY
    assert (cert.p, cert.q) == (0, 1)
    assert cert.tau_pst == pytest.approx(pi)


def test_matched_parity_is_refused():
    cert = revival.check_conditions(5, 2.0, 2.0)
    assert cert.kind == revival.NONE
    assert "parity" in cert.reason


def test_degenerate_couplings_rejected():
    with pytest.raises(InvalidInputError):
        revival.check_conditions(3, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        revival.check_conditions(1, 1.0, 1.0)


def test_ratio_rationalization_policy():
    # no fraction with q <= 1e6 sits within 1e-9 of 1 + 1e-8, so it is refused
    cert = revival.check_conditions(4, 1.0 + 1e-8, 1.0)
    assert cert.kind == revival.NONE
    assert "rationalizable" in cert.reason
    # whereas the double closest to sqrt(2) is within ~2e-12 of a continued
    # fraction convergent, so the policy accepts it with that huge q
    cert = revival.check_conditions(4, np.sqrt(2), 1.0)
    assert (cert.p, cert.q) == (665857, 470832)


def test_ratio_rationalization_reduces():
    cert = revival.check_conditions(4, 3.0, 9.0)
    assert (cert.p, cert.q) == (1, 3)
    assert cert.kind == revival.BALANCED_FR  # q=3 odd vs N=4 even
    assert cert.tau_fr == pytest.approx(pi * 3 / 18)


def test_explicit_pq_bypass():
    auto = revival.check_conditions(6, 2.0, 2.0)
    manual = revival.check_conditions(6, 2.0, 2.0, p=2, q=2)
    assert (manual.p, manual.q) == (1, 1)  # reduced
    assert manual.kind == auto.kind == revival.BALANCED_FR
    with pytest.raises(InvalidInputError):
        revival.check_conditions(6, 2.0, 2.0, p=1, q=None)


def test_negative_couplings_fold_into_magnitudes():
    for alpha, beta in ((-2.0, 2.0), (2.0, -2.0), (-2.0, -2.0)):
        cert = revival.check_conditions(4, alpha, beta)
        assert cert.kind == revival.BALANCED_FR, (alpha, beta)
        assert cert.tau_fr == pytest.approx(pi / 4)
    cert = revival.check_conditions(5, -1.0, 0.0)
    assert cert.tau_fr == pytest.approx(pi / 2)


def test_scale_covariance_of_certificates_and_engine():
    rng = np.random.default_rng(30)
    base = revival.check_conditions(6, 3.0, 1.0)
    for c in (2.0, 0.5, 7.0):
        scaled = revival.check_conditions(6, 3.0 * c, 1.0 * c)
        assert scaled.kind == base.kind
        assert scaled.tau_fr == pytest.approx(base.tau_fr / c)
    # (alpha, beta, tau) -> (c alpha, c beta, tau/c) leaves the evolution alone
    psi = rng.normal(size=32) + 1j * rng.normal(size=32)
    psi /= np.linalg.norm(psi)
    one = walk.evolve_graph(walk.WalkSpec(5, 3.0, 1.0), psi, 1.25)
    other = walk.evolve_graph(walk.WalkSpec(5, 6.0, 2.0), psi, 0.625)
    np.testing.assert_allclose(one, other, atol=1e-12)


def test_certify_unweighted_graph():
    rep = revival.certify_numeric(4, 2.0, 2.0)
    assert rep.passed
    assert rep.checks["mu_prob_dev"] < 1e-9
    assert rep.checks["nu_prob_dev"] < 1e-9
    assert rep.checks["leakage"] < 1e-9
    assert rep.checks["nu_real_part"] < 1e-9
    assert rep.checks["pst_at_double"] > 1 - 1e-9


def test_certify_nnn_only_odd_chain():
    rep = revival.certify_numeric(5, 1.0, 0.0)
    assert rep.passed


def test_certify_negative_couplings():
    # the time reversal hidden in negative weights is invisible to probabilities
    for alpha, beta in ((-2.0, 2.0), (2.0, -2.0), (-2.0, -2.0)):
        rep = revival.certify_numeric(4, alpha, beta)
        assert rep.certificate.kind == revival.BALANCED_FR
        assert rep.passed, (alpha, beta)


def test_certify_pst_only_case():
    rep = revival.certify_numeric(4, 2.0, 1.0)
    assert rep.passed
    assert abs(rep.nu) > 1 - 1e-9
    # and the candidate FR time really shows no balanced revival
    outcome = revival.scan_balanced_fr(walk.WalkSpec(3, 2.0, 1.0), 2 * pi)
    assert not outcome.balanced_found


def test_certify_refusal_is_confirmed_by_scan():
    rep = revival.certify_numeric(5, 2.0, 2.0)
    assert rep.certificate.kind == revival.NONE
    assert rep.passed
    assert rep.scan is not None and not rep.scan.balanced_found
    # evidence evaluated at the would-be FR time
    assert rep.tau_evaluated == pytest.approx(pi / 4)
    assert abs(rep.leakage) > 1e-3 or abs(abs(rep.mu) ** 2 - 0.5) > 1e-3


def test_certify_nn_chain_has_pst_but_no_fr():
    rep = revival.certify_numeric(3, 0.0, 1.0)
    assert rep.certificate.kind == revival.PST_ONLY
    assert rep.passed
    outcome = revival.scan_balanced_fr(walk.WalkSpec(2, 0.0, 1.0), 2 * pi)
    assert not outcome.balanced_found


@pytest.mark.parametrize("N", range(3, 11))
def test_certificate_numeric_agreement_sweep(N):
    # ratios p/q with p, q in [1, 5]: certification passes exactly when the
    # parity rules predict a revival, with no false positives or negatives
    for p in range(1, 6):
        for q in range(1, 6):
            rep = revival.certify_numeric(N, float(p), float(q))
            assert rep.passed, (N, p, q, rep.certificate.kind)


def test_two_site_chain_breaks_necessity():
    # On two sites the NNN term is alpha/4 times the identity, so balanced
    # revival happens at pi/(2|beta|) for every ratio; the parity rule is
    # sufficient but not necessary here, and the scan documents the exception.
    rep = revival.certify_numeric(2, 1.0, 2.0)
    assert rep.certificate.kind == revival.NONE
    assert not rep.passed
    assert rep.scan.balanced_found
    assert rep.scan.balanced_tau == pytest.approx(pi / 4)
    amp = walk.antipodal_amplitudes(walk.WalkSpec(1, 1.0, 2.0), pi / 4)
    assert abs(amp.mu) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(amp.nu) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_pst_at_double_fr_time():
    for N, alpha, beta in ((4, 2.0, 2.0), (6, 1.0, 1.0), (5, 1.0, 0.0), (8, 3.0, 1.0)):
        cert = revival.check_conditions(N, alpha, beta)
        assert cert.kind == revival.BALANCED_FR
        amp = walk.antipodal_amplitudes(walk.WalkSpec(N - 1, alpha, beta), 2 * cert.tau_fr)
        assert abs(amp.nu) > 1 - 1e-9


def test_appendix_unweighted_graph():
    report = revival.appendix_phase_check(4, 2.0, 2.0)
    assert report.passed
    assert report.winding_max_dev < 1e-10
    assert report.step_phase_max_dev < 1e-10
    assert report.delta_dev < 1e-10
    assert report.assembled_max_dev < 1e-10
    assert report.dense_identity_dev < 1e-10
    assert report.phi_consistency_dev < 1e-10
    assert report.sign in (1, -1)


def test_appendix_nnn_only_case():
    report = revival.appendix_phase_check(5, 1.0, 0.0)
    assert report.passed
    # M_s = 2 pi s^2 - pi (N-1) s is a multiple of 2 pi because N-1 is even
    assert report.winding_max_dev < 1e-10


def test_appendix_anchor_fixes_phase():
    # the s = 0 eigenphase alone determines phi': e^{-i tau E_0} = e^{-i phi'}(1 + i eps)/sqrt(2)
    report = revival.appendix_phase_check(6, 1.0, 1.0)
    spec = walk.WalkSpec(5, 1.0, 1.0)
    from fracrevival import oracle

    u0 = np.exp(-1j * report.tau * oracle.graph_eigenvalue(0, spec))
    reconstructed = np.exp(-1j * report.phi_prime) * (1 + 1j * report.sign) / np.sqrt(2)
    assert abs(u0 - reconstructed) < 1e-12


@pytest.mark.parametrize("N, alpha, beta, p, q", [
    (4, 2.0, 2.0, None, None), (5, 1.0, 0.0, None, None), (6, -1.0, 3.0, None, None),
    (5, -0.5, 1.0, -1, 2), (4, 3.0, 9.0, 1, 3),
])
def test_appendix_report_carries_its_certificate(N, alpha, beta, p, q):
    report = revival.appendix_phase_check(N, alpha, beta, p=p, q=q)
    assert report.certificate == revival.check_conditions(N, alpha, beta, p=p, q=q)
    assert report.tau == report.certificate.tau_fr


@pytest.mark.parametrize("N, alpha, beta", [(4, 2.0, 2.0), (5, 1.0, 0.0), (6, 1.0, 1.0)])
def test_certify_carries_the_appendix_of_its_certificate(N, alpha, beta):
    assert revival.certify_numeric(N, alpha, beta).appendix == revival.appendix_phase_check(N, alpha, beta)


@pytest.mark.parametrize("N, alpha, beta", [(4, 2.0, 1.0), (5, 2.0, 2.0), (4, 1.0, 0.0)])
def test_certify_has_no_appendix_without_balanced_fr(N, alpha, beta):
    rep = revival.certify_numeric(N, alpha, beta)
    assert rep.certificate.kind in (revival.PST_ONLY, revival.NONE)
    assert rep.appendix is None


def test_fr_time_of_couplings_near_the_float_limit():
    # 2|beta| overflows above 8.99e307; the FR time itself is an ordinary small float
    c = 1e308
    assert revival.check_conditions(4, c, c).tau_fr == pytest.approx(0.5 * pi / c, rel=1e-15, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_ratio_without_a_close_rational_or_contradicting_pq():
    for alpha, beta in ((1e300, 1e-10), (1.0, 1e-310), (-1.0, 1e-310),
                        (np.float64(1e300), np.float64(1e-10))):
        cert = revival.check_conditions(4, alpha, beta)
        assert cert.kind == revival.NONE and "rationalizable" in cert.reason
    with pytest.raises(InvalidInputError, match="contradicts alpha/beta = 1.0"):
        revival.check_conditions(4, 2.0, 2.0, p=2, q=1)
    with pytest.raises(InvalidInputError, match="contradicts alpha/beta = -inf"):
        revival.check_conditions(5, -2.0, 0.0, p=1, q=2)
    with pytest.raises(InvalidInputError, match="contradicts alpha/beta = inf"):
        revival.check_conditions(4, 1.0, 1e-310, p=1, q=1)
    with pytest.raises(InvalidInputError, match="contradicts alpha/beta = 1.0"):
        revival.check_conditions(4, 1.0, 1.0, p=10 ** 400, q=1)  # p / q would overflow a float
    # agreement within RATIO_TOL is accepted, huge integers included
    assert revival.check_conditions(4, 1.0, 1.0, p=10 ** 400 + 1, q=10 ** 400).p == 10 ** 400 + 1


def test_appendix_refuses_without_balanced_fr():
    with pytest.raises(InvalidInputError):
        revival.appendix_phase_check(5, 2.0, 2.0)
    with pytest.raises(InvalidInputError):
        revival.appendix_phase_check(4, 2.0, 1.0)


def test_appendix_reconstruction_matches_engine_columns():
    # e^{-i phi'} (A_0 + i eps A_M)/sqrt(2) applied to every basis vector
    # agrees with the production engine at the FR time
    N, alpha, beta = 4, 2.0, 2.0
    report = revival.appendix_phase_check(N, alpha, beta)
    spec = walk.WalkSpec(N - 1, alpha, beta)
    size = 1 << spec.M
    factor = np.exp(-1j * report.phi_prime)
    for x in range(size):
        target = np.zeros(size, dtype=complex)
        target[x] = factor / np.sqrt(2)
        target[x ^ (size - 1)] = factor * 1j * report.sign / np.sqrt(2)
        evolved = walk.evolve_graph(spec, walk.basis_state(spec.M, x), report.tau)
        np.testing.assert_allclose(evolved, target, atol=1e-10)


def test_appendix_dense_check_skipped_for_large_m():
    report = revival.appendix_phase_check(12, 1.0, 1.0)  # M = 11 > 8
    assert report.dense_identity_dev is None
    assert report.passed


def _full_identity_dev(report, h, sign=None):
    """max |e^{-i tau H} - e^{-i phi'} (I + i sign J)/sqrt(2)| from one eigendecomposition of all of h."""
    sign = report.sign if sign is None else sign
    w, v = np.linalg.eigh(h)
    propagator = (v * np.exp(-1j * report.tau * w)) @ v.T
    size = h.shape[0]
    antipode = np.eye(size)[::-1]  # J sends x to 2^M - 1 - x
    target = np.exp(-1j * report.phi_prime) * (np.eye(size) + 1j * sign * antipode) / np.sqrt(2.0)
    return float(np.abs(propagator - target).max())


def _balanced_fr(N, p, k, magnitude, sign, nnn):
    """(alpha, beta, p, q) of a balanced FR on N sites: beta = 0 at odd N, else p odd and q = 2k + 1 + N % 2.

    q then has the parity opposite to N; dividing out gcd(p, q), which is odd, keeps p odd and q's parity.
    """
    if nnn and N % 2 == 1:
        return sign * magnitude, 0.0, None, None
    q = 2 * k + 1 + N % 2
    g = gcd(p, q)
    beta = sign * magnitude
    return beta * (p // g) / (q // g), beta, p // g, q // g


@pytest.mark.parametrize("N", range(2, 10))
@settings(max_examples=12, deadline=None)
@given(
    p=st.sampled_from([-9, -7, -5, -3, -1, 1, 3, 5, 7, 9]),
    k=st.integers(0, 3),
    magnitude=st.floats(0.5, 2.0),
    sign=st.sampled_from([1.0, -1.0]),
    nnn=st.booleans(),
)
def test_sector_fold_equals_the_full_propagator_deviation(N, p, k, magnitude, sign, nnn):
    alpha, beta, p, q = _balanced_fr(N, p, k, magnitude, sign, nnn)
    report = revival.appendix_phase_check(N, alpha, beta, p=p, q=q)
    h = walk.dense_hamiltonian(walk.WalkSpec(N - 1, alpha, beta))
    assert report.passed
    assert abs(report.dense_identity_dev - _full_identity_dev(report, h)) <= 1e-13
    # against the other sign the whole deviation, sqrt(2), sits on the entries (x, J x)
    wrong = revival._sector_identity_dev(h, report.tau, np.exp(-1j * report.phi_prime), -report.sign)
    assert abs(wrong - _full_identity_dev(report, h, -report.sign)) <= 1e-13


def _record_eigh(monkeypatch):
    shapes = []
    real = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


@pytest.mark.parametrize("N, alpha, beta", [
    (2, 1.0, 1.0), (3, 1.0, 0.0), (4, 2.0, 2.0), (5, -1.0, 2.0),
    (6, 1.0, -1.0), (7, 1.0, 2.0), (8, 3.0, 1.0), (9, 1.0, 2.0),
])
def test_appendix_diagonalizes_only_the_two_sectors(monkeypatch, N, alpha, beta):
    shapes = _record_eigh(monkeypatch)
    revival.appendix_phase_check(N, alpha, beta)
    half = 1 << (N - 2)
    assert shapes == [(half, half), (half, half)]


def _shifted_hamiltonian(monkeypatch, symmetric):
    """Add 1e-6 to H[0, 0], and with symmetric also to H[J 0, J 0], so H commutes with J or does not."""
    real = walk.dense_hamiltonian

    def shifted(spec):
        h = real(spec)
        h[0, 0] += 1e-6
        if symmetric:
            h[-1, -1] += 1e-6
        return h

    monkeypatch.setattr(walk, "dense_hamiltonian", shifted)
    return shifted


def test_a_j_symmetric_perturbation_fails_through_the_sectors(monkeypatch):
    shifted = _shifted_hamiltonian(monkeypatch, symmetric=True)
    report = revival.appendix_phase_check(4, 2.0, 2.0)
    assert report.assembled_max_dev < 1e-10  # the eigenvalue-level checks still pass
    assert not report.passed
    assert report.dense_identity_dev > 1e-7
    full = _full_identity_dev(report, shifted(walk.WalkSpec(3, 2.0, 2.0)))
    assert abs(report.dense_identity_dev - full) <= 1e-13


def test_an_asymmetric_perturbation_fails_through_the_commutation_defect(monkeypatch):
    _shifted_hamiltonian(monkeypatch, symmetric=False)
    shapes = _record_eigh(monkeypatch)
    report = revival.appendix_phase_check(4, 2.0, 2.0)
    assert not report.passed
    assert report.dense_identity_dev == 1e-6  # |H[0, 0] - H[J 0, J 0]|, with no eigendecomposition
    assert shapes == []


def test_scan_rejects_empty_grid():
    with pytest.raises(InvalidInputError):
        revival.scan_balanced_fr(walk.WalkSpec(3, 1.0, 1.0), 0.0)


def test_scan_grid_is_bounded():
    spec = walk.WalkSpec(1, 1.0, 1.0)
    with pytest.raises(InvalidInputError, match="at most"):
        revival.scan_balanced_fr(spec, 2 * pi, steps=revival.MAX_SCAN_STEPS + 1)
    outcome = revival.scan_balanced_fr(spec, 2 * pi, steps=revival.MAX_SCAN_STEPS)
    assert outcome.steps == revival.MAX_SCAN_STEPS


@pytest.mark.parametrize("N, alpha, beta", [
    (4, 2.0, 2.0), (5, 2.0, 2.0), (4, 2.0, 1.0),
    (walk.ORACLE_MAX_M + 1, 1.0, 2.0), (walk.ORACLE_MAX_M + 1, 1.0, 1.0),
    (walk.ORACLE_MAX_M + 2, 1.0, 1.0), (walk.ORACLE_MAX_M + 2, 1.0, 0.0),
    (walk.ORACLE_MAX_M + 2, 2.0, 1.0),
])
def test_engine_cross_check_runs_exactly_at_oracle_scale(N, alpha, beta):
    rep = revival.certify_numeric(N, alpha, beta)
    assert ("engine_dev" in rep.checks) == (N - 1 <= walk.ORACLE_MAX_M)
    assert rep.checks.get("engine_dev", 0.0) < 1e-12
    assert rep.passed


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(2, 60),
    p=st.integers(0, 999),
    q=st.integers(1, 999),
    sign_alpha=st.sampled_from([1, -1]),
    sign_beta=st.sampled_from([1, -1]),
    explicit=st.booleans(),
)
def test_check_conditions_property(N, p, q, sign_alpha, sign_beta, explicit):
    assume(gcd(p, q) == 1)
    alpha, beta = float(sign_alpha * p), float(sign_beta * q)
    rp = sign_alpha * sign_beta * p
    cert = revival.check_conditions(N, alpha, beta, *((rp, q) if explicit else ()))
    if p % 2 == 0:
        kind = revival.PST_ONLY
    elif q % 2 != N % 2:
        kind = revival.BALANCED_FR
    else:
        kind = revival.NONE
    assert (cert.kind, cert.p, cert.q) == (kind, rp, q)
    if kind == revival.BALANCED_FR:
        assert cert.tau_fr == 0.5 * pi * q / abs(beta)
        assert cert.tau_pst == 2.0 * cert.tau_fr
    else:
        assert cert.tau_fr is None
        assert cert.tau_pst == (pi * q / abs(beta) if kind == revival.PST_ONLY else None)
    assert (cert.reason != "") == (kind == revival.NONE)
