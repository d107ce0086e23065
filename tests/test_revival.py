"""Revival arithmetic, numeric certification, and the antipodal phase identity."""

import dataclasses
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, pi

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracrevival import chain, oracle, revival, walk
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


@pytest.mark.parametrize("N, alpha, beta", [(5, 2.0, 2.0), (6, 1.0, 2.0), (4, 1.0, 0.0), (6, -1.3, 0.0)])
def test_the_solver_refutes_the_identity_of_a_forged_certificate(N, alpha, beta):
    # the parity rule refuses these; claim FR at the would-be time anyway
    cert = revival.check_conditions(N, alpha, beta)
    assert cert.kind == revival.NONE
    tau = revival._fr_time(alpha, beta, cert.q)
    forged = dataclasses.replace(cert, kind=revival.BALANCED_FR, tau_fr=tau, tau_pst=2 * tau)
    assert revival._confirms(forged) is False
    report = revival._appendix_identity(forged, walk.WalkSpec(N - 1, alpha, beta))
    assert not report.exact and report.resolved
    assert report.winding_max_dev > 1.0  # a quarter or half turn off, in floats too
    assert not report.passed


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


coprime_ratios = st.tuples(st.integers(-30, 30), st.integers(1, 30)).filter(lambda r: gcd(*r) == 1)


LAZY_DEVIATIONS = ("winding_max_dev", "step_phase_max_dev", "phi_consistency_dev")


def eager_appendix(report):
    """sign, factor, assembled_max_dev and the three lazy deviations, as the report's inputs gave them eagerly, one sign at a time."""
    N, alpha, beta, tau = report.N, report.alpha, report.beta, report.tau
    M = N - 1
    u = walk.phase_table(walk.WalkSpec(M, alpha, beta), tau)
    s = np.arange(M + 1, dtype=float)
    winding = 4 * (tau * alpha) * s ** 2 - 2 * (tau * alpha) * (N - 1) * s - 2 * (tau * beta) * s
    delta = (tau / 2.0) * (alpha - alpha * (N - 1) - beta)
    phi = tau * (alpha / 4.0 * (N - 1) * (N - 2) + beta / 2.0 * (N - 1)) + delta
    parity = (-1.0) ** np.arange(M + 1)
    best = None
    for eps in (1, -1):
        factor = u[0] * np.sqrt(2.0) / (1 + 1j * eps)
        dev = float(np.abs(u - factor * (1 + 1j * eps * parity) / np.sqrt(2.0)).max())
        if best is None or dev < best[0]:
            best = (dev, eps, factor)
    dev, sign, factor = best
    return {
        "sign": sign, "factor": factor, "assembled_max_dev": dev,
        "winding_max_dev": float(np.abs(np.exp(-1j * winding) - 1.0).max()),
        "step_phase_max_dev": float(np.abs(np.exp(-1j * 4 * (tau * alpha) * s) - 1.0).max()),
        "phi_consistency_dev": float(min(abs(factor - np.exp(-1j * phi)), abs(factor + np.exp(-1j * phi)))),
    }


def bits(value):
    """A value with floats, and the parts of complex values, as their exact hex."""
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value.hex() if isinstance(value, float) else value


def test_a_verdict_computes_no_appendix_deviation_it_does_not_print():
    appendix = revival.certify_numeric(6, 1.0, 1.0).appendix
    assert not set(LAZY_DEVIATIONS) & appendix.__dict__.keys()
    assert appendix.passed and appendix.max_identity_dev < 1e-10
    assert not set(LAZY_DEVIATIONS) & appendix.__dict__.keys()


@settings(max_examples=150, deadline=None)
@given(N=st.integers(2, 40), ratio=st.one_of(st.just((1, 0)), coprime_ratios),
       beta=st.floats(0.05, 20.0), negative=st.booleans())
@example(N=3, ratio=(1, 200000), beta=2.0, negative=False)
@example(N=11, ratio=(1, 50000), beta=0.5, negative=True)
def test_appendix_deviations_read_lazily_equal_the_eager_ones_bit_for_bit(N, ratio, beta, negative):
    p, q = ratio
    beta = -beta if negative else beta
    alpha, beta = (beta, 0.0) if q == 0 else (beta * p / q, beta)
    assume(revival.check_conditions(N, alpha, beta).kind == revival.BALANCED_FR)
    report = revival.appendix_phase_check(N, alpha, beta)
    eager = eager_appendix(report)
    assert {name: bits(getattr(report, name)) for name in eager} == {name: bits(value) for name, value in eager.items()}
    assert report.phi_prime == float(-np.angle(eager["factor"]))


def test_appendix_reports_of_one_input_compare_and_hash_equal():
    read = revival.appendix_phase_check(6, 1.0, 1.0)
    unread = revival.certify_numeric(6, 1.0, 1.0).appendix
    for name in LAZY_DEVIATIONS:
        getattr(read, name)
    assert set(LAZY_DEVIATIONS) <= read.__dict__.keys()
    assert read == unread and hash(read) == hash(unread)
    assert read == revival.appendix_phase_check(6, 1.0, 1.0)
    assert read != revival.appendix_phase_check(6, 1.0, 3.0)


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


def _full_identity_dev(h, tau, factor, sign, columns=slice(None)):
    """max |e^{-i tau H} - factor (I + i sign J)/sqrt(2)| from one eigendecomposition of all of h.

    columns restricts the maximum to some columns of the difference.
    """
    w, v = np.linalg.eigh(h)
    propagator = (v * np.exp(-1j * tau * w)) @ v.T
    size = h.shape[0]
    antipode = np.eye(size)[::-1]  # J sends x to 2^M - 1 - x
    target = factor * (np.eye(size) + 1j * sign * antipode) / np.sqrt(2.0)
    return float(np.abs(propagator - target)[:, columns].max())


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
def test_chain_reduction_equals_the_full_propagator_deviation(N, p, k, magnitude, sign, nnn):
    alpha, beta, p, q = _balanced_fr(N, p, k, magnitude, sign, nnn)
    report = revival.appendix_phase_check(N, alpha, beta, p=p, q=q)
    spec = walk.WalkSpec(N - 1, alpha, beta)
    h = walk.dense_hamiltonian(spec)
    assert report.passed
    factor = np.exp(-1j * report.phi_prime)
    assert abs(report.dense_identity_dev - _full_identity_dev(h, report.tau, factor, report.sign)) <= 1e-13
    # against the other sign the whole deviation, sqrt(2), sits on the entries (x, J x); at a third
    # of the FR time the propagator spreads over every weight class
    for tau, sign in ((report.tau, -report.sign), (report.tau / 3, report.sign)):
        reduced = revival._chain_identity_dev(spec, tau, factor, sign)
        assert abs(reduced - _full_identity_dev(h, tau, factor, sign)) <= 1e-13


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
    (6, 1.0, -1.0), (7, 1.0, 2.0), (8, 3.0, 1.0), (9, 1.0, 2.0), (10, 1.0, 1.0),
])
def test_appendix_diagonalizes_only_the_chain(monkeypatch, N, alpha, beta):
    # by the chain's own recurrence at M <= 8, and by no numeric eigendecomposition at all
    shapes = _record_eigh(monkeypatch)
    bases = []
    real = chain._eigenbasis
    monkeypatch.setattr(chain, "_eigenbasis", lambda n: bases.append(n) or real(n))
    revival.appendix_phase_check(N, alpha, beta)
    assert shapes == []
    assert bases == ([N] if N <= 9 else [])


def _shifted_chain(monkeypatch, symmetric):
    """Add 1e-6 to the chain's first coupling J_1, and with symmetric also to its mirror J_{N-1}."""
    real = chain._couplings

    def shifted(N):
        J = real(N)
        J[0] += 1e-6
        if symmetric:
            J[-1] += 1e-6
        return J

    monkeypatch.setattr(chain, "_couplings", shifted)


@pytest.mark.parametrize("symmetric", [True, False], ids=["mirror-symmetric", "asymmetric"])
def test_a_perturbed_chain_fails_the_entrywise_identity_alone(monkeypatch, symmetric):
    # the chain's basis reads its couplings, and the walk's spectrum does not: the eigenvalue-level
    # checks pass, and the entrywise identity fails by about the perturbation
    _shifted_chain(monkeypatch, symmetric)
    shapes = _record_eigh(monkeypatch)
    report = revival.appendix_phase_check(4, 2.0, 2.0)
    assert report.assembled_max_dev < 1e-10
    assert not report.passed
    assert 1e-7 < report.dense_identity_dev < 1e-5
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
def test_the_solver_confirms_the_certificate_at_every_scale(N, alpha, beta):
    rep = revival.certify_numeric(N, alpha, beta)
    assert rep.exact is True
    assert rep.unresolved == ()
    assert ("engine_dev" in rep.checks) == (N - 1 <= revival.ENGINE_CHECK_MAX_M)
    assert rep.checks.get("engine_dev", 0.0) < 1e-12
    assert rep.passed


def test_an_unrationalizable_ratio_has_no_exact_check():
    rep = revival.certify_numeric(5, 1.0 + 1e-8, 1.0)  # no q <= 1e6 within 1e-9
    assert rep.certificate.kind == revival.NONE and rep.certificate.p is None
    assert rep.exact is None
    assert rep.passed


@settings(max_examples=200, deadline=None)
@given(N=st.integers(2, 200), ratio=st.one_of(st.just((1, 0)), coprime_ratios))
def test_the_solver_equals_the_brute_force(N, ratio):
    times = revival.solve_revival(N, *ratio)
    assert (times.fr, times.pst) == oracle.brute_force_revival_times(N, *ratio)
    for x, turns in ((times.fr, (1, 3)), (times.pst, (2,))):
        if x is not None:
            assert times.quarter_turns(x.numerator, x.denominator) in turns


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(3, 200),
    p=st.integers(0, 999),
    q=st.integers(0, 999),
    sign_alpha=st.sampled_from([1, -1]),
    sign_beta=st.sampled_from([1, -1]),
)
@example(N=3, p=1, q=0, sign_alpha=-1, sign_beta=1)  # beta = 0, N odd
@example(N=4, p=1, q=0, sign_alpha=1, sign_beta=1)   # beta = 0, N even
def test_the_solver_equals_the_parity_rule(N, p, q, sign_alpha, sign_beta):
    # q = 0 is beta = 0, with (p, q) = (1, 0) and u = alpha
    assume(gcd(p, q) == 1)
    rp = sign_alpha * sign_beta * p
    beta = float(sign_beta * q)
    cert = revival.check_conditions(N, float(sign_alpha * p), beta, *((rp, q) if q else ()))
    times = revival.solve_revival(N, rp, q)
    assert times.kind == cert.kind
    unit = abs(beta) / q if q else float(p)  # |u|
    assert (2 * pi * times.fr / unit if times.fr else None) == pytest.approx(cert.tau_fr, rel=1e-12)
    if cert.kind != revival.NONE:
        assert 2 * pi * times.pst / unit == pytest.approx(cert.tau_pst, rel=1e-12)
    assert revival._confirms(cert) is True


@settings(max_examples=300, deadline=None)
@given(N=st.integers(2, 300), p=st.integers(-10 ** 6, 10 ** 6), q=st.integers(0, 10 ** 6))
@example(N=5, p=1, q=0)
@example(N=6, p=0, q=0)  # every d_s zero: no revival
def test_two_terms_give_the_gcd_over_every_site(N, p, q):
    M = N - 1
    d = [p * s * (s - M) - q * s for s in range(N)]
    G = gcd(*d[2::2], *(v - d[1] for v in d[3::2]), 4 * d[1])
    assert revival.solve_revival(N, p, q) == revival.RevivalTimes(G=G, a=4 * d[1] // G if G else 0)


def test_the_solver_holds_no_per_site_table():
    tracemalloc.start()
    try:
        times = revival.solve_revival(10 ** 9, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    assert times.kind == revival.check_conditions(10 ** 9, 1.5, 1.0).kind == revival.NONE  # q, N both even


@pytest.mark.parametrize("N, alpha, beta", [(4, 2.0, 2.0), (5, 1.0, 0.0), (4, 2.0, 1.0), (4, 1.0, 1.0), (5, 1.0 + 1e-8, 1.0)])
def test_a_verdict_calls_the_solver_at_most_once(monkeypatch, N, alpha, beta):
    calls = []
    solve = revival.solve_revival
    monkeypatch.setattr(revival, "solve_revival", lambda *args: calls.append(args) or solve(*args))
    report = revival.certify_numeric(N, alpha, beta)
    assert len(calls) == (report.exact is not None)
    if report.appendix is not None:
        assert report.exact is report.appendix.exact is True


@pytest.mark.parametrize("p, q, kind", [(1, 1, revival.BALANCED_FR), (2, 1, revival.PST_ONLY), (1, 2, revival.NONE),
                                        (3, 5, revival.BALANCED_FR), (4, 5, revival.PST_ONLY)])
def test_two_sites_revive_at_a_quarter_turn_of_beta_for_every_ratio(p, q, kind):
    # the NNN term is a multiple of the identity: FR at x = 1/(4q), tau = pi/(2|beta|)
    times = revival.solve_revival(2, p, q)
    assert (times.kind, times.fr, times.pst) == (revival.BALANCED_FR, Fraction(1, 4 * q), Fraction(1, 2 * q))
    cert = revival.check_conditions(2, p / q, 1.0, p, q)
    assert cert.kind == kind
    # the certificate's times still revive as it claims; only a refusal is refuted
    assert revival._confirms(cert) is (kind != revival.NONE)


@pytest.mark.parametrize("N", range(2, 28))
@pytest.mark.parametrize("beta", [1.0, -0.37])
def test_the_plain_hypercube_transfers_perfectly_at_pi_over_beta(N, beta):
    # alpha = 0 is the hypercube with edge weight beta/2: PST at pi/|beta|, FR only on one edge (N = 2)
    times = revival.solve_revival(N, 0, 1)
    if N == 2:
        assert (times.kind, times.fr) == (revival.BALANCED_FR, Fraction(1, 4))
        return
    assert (times.kind, times.pst) == (revival.PST_ONLY, Fraction(1, 2))
    rep = revival.certify_numeric(N, 0.0, beta)
    assert rep.certificate.kind == revival.PST_ONLY
    assert rep.certificate.tau_pst == pytest.approx(pi / abs(beta), rel=1e-15)
    assert rep.exact is True and rep.passed
    assert abs(rep.nu) == pytest.approx(1.0, abs=1e-12)


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


@st.composite
def scan_inputs(draw, scale=st.just(1.0)):
    """(N, alpha, beta, p, q, steps, stretch): signed couplings, beta = 0 included, p/q in lowest terms.

    The window is one period stretched by 1 + stretch; a stretch of about
    1e-7 moves an FR time off the grid, so a hit can sit below the maximum.
    """
    N = draw(st.integers(2, 14))
    size = draw(st.floats(0.3, 3.0)) * draw(scale)
    sign = draw(st.sampled_from((-1.0, 1.0)))
    steps = draw(st.sampled_from((1, 2, 3, 10 ** 4)))
    stretch = draw(st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)))
    if draw(st.booleans()):
        return N, sign * size, 0.0, None, None, steps, stretch
    p, q = draw(st.integers(-12, 12)), draw(st.integers(1, 11))
    assume(gcd(p, q) == 1)
    return N, sign * size * p / q, sign * size, p, q, steps, stretch


def scan_case(N, alpha, beta, p, q, stretch=0.0):
    """The walk and the window: the one period certify_numeric sweeps (a refusal's, or one holding FR/PST times)."""
    cert = revival.check_conditions(N, alpha, beta, p=p, q=q)
    return walk.WalkSpec(N - 1, alpha, beta), revival._scan_window(cert) * (1.0 + stretch)


@settings(max_examples=150, deadline=None)
@given(scan_inputs())
@example((9, 1e11 + 1, 1.0, None, None, 10 ** 4, 0.0))  # tau_max max|E| ~ 1e13: delta ~ 0.1 admits many points
# FR hits below the maximum by more than 2 delta: only the threshold candidates find them
@example((3, 0.0713784836863248, 0.5710278694905984, 1, 8, 10 ** 4, -4.793878663399305e-07))
@example((4, 2.802685213415608, 2.802685213415608, 1, 1, 10 ** 4, -1.2958274084261754e-07))
def test_screened_scan_equals_the_full_grid(inputs):
    *model, steps, stretch = inputs
    spec, tau_max = scan_case(*model, stretch)
    # repr tells every float apart bit for bit, signed zeros included
    assert repr(revival.scan_balanced_fr(spec, tau_max, steps)) == repr(oracle.full_grid_scan(spec, tau_max, steps))


@settings(max_examples=80, deadline=None)
@given(scan_inputs(scale=st.sampled_from((1.0, 1e3, 1e6))))
def test_screen_error_is_within_a_quarter_of_its_bound(inputs):
    *model, steps, stretch = inputs
    spec, tau_max = scan_case(*model, stretch)
    taus = revival.tau_grid(0.0, tau_max, steps)
    corner, total, delta = revival._screen(spec, taus)
    # entry (j, a) is grid row steps - a B - j, B offsets; rows 0 and below read -inf
    offset, anchor = np.indices(total.shape)
    rows = steps - len(total) * anchor - offset
    grid = rows > 0
    assert sorted(rows[grid]) == list(range(1, steps + 1))
    assert (total[~grid] == -np.inf).all()
    exact_corner, exact_total = revival._probabilities(*walk.antipodal_scan(spec, taus))
    assert np.abs(corner[grid] - exact_corner[rows[grid]]).max() <= delta / 4
    assert np.abs(total[grid] - exact_total[rows[grid]]).max() <= delta / 4


def count_exp_elements(monkeypatch) -> list:
    """Patch the walk's eigenphases to record the number of exp elements of each call."""
    counted = []
    eigenphases = walk.eigenphases

    def counting(tau, energies):
        phases = eigenphases(tau, energies)
        counted.append(phases.size)
        return phases

    monkeypatch.setattr(walk, "eigenphases", counting)
    return counted


def test_a_refusal_runs_exp_on_few_grid_points(monkeypatch):
    counted = count_exp_elements(monkeypatch)
    rep = revival.certify_numeric(9, 0.6, 1.0)  # p/q = 3/5 shares parity with N: no revival
    assert rep.certificate.kind == revival.NONE and rep.passed
    grid = (revival.DEFAULT_SCAN_STEPS + 1) * 9
    assert 0 < sum(counted) <= 0.05 * grid
    # one exp for the screen and one for the exact pass; over a whole period the screen
    # reads the lower half from mirrors, so it holds at most half its anchors plus one, and the B offsets
    block = isqrt(revival.DEFAULT_SCAN_STEPS) + 1
    anchors = revival.DEFAULT_SCAN_STEPS // block + 1
    assert len(counted) == 2 and counted[0] <= (anchors // 2 + 1 + block) * 9


@pytest.mark.parametrize("alpha, share", [(1e11 + 1, 0.1), (1e12 + 1, 1.0)])
def test_a_large_tau_times_energy_falls_back_toward_the_full_grid(monkeypatch, alpha, share):
    # tau_max max|E| ~ 1e13 makes delta ~ 0.1, and ~ 1e14 makes it ~ 1: the whole grid
    spec, tau_max = scan_case(9, alpha, 1.0, None, None)
    counted = count_exp_elements(monkeypatch)
    screened = revival.scan_balanced_fr(spec, tau_max)
    assert sum(counted) > share * (revival.DEFAULT_SCAN_STEPS + 1) * 9
    assert repr(screened) == repr(oracle.full_grid_scan(spec, tau_max))


@st.composite
def period_windows(draw, steps=st.sampled_from((1, 2, 3, 10 ** 4))):
    """(N, alpha, beta, p, q, steps): beta = 0, or p/q in lowest terms with q up to 999,999, over a window of _scan_window."""
    N = draw(st.integers(2, 14))
    size = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.3, 3.0))
    steps = draw(steps)
    if draw(st.booleans()):
        return N, size, 0.0, None, None, steps
    p, q = draw(st.integers(-12, 12)), draw(st.one_of(st.integers(1, 11), st.integers(1, 999_999)))
    assume(gcd(p, q) == 1)
    return N, size * p / q, size, p, q, steps


@settings(max_examples=60, deadline=None)
@given(period_windows())
@example((9, 0.7 * 999_997 / 999_999, 0.7, 999_997, 999_999, 10 ** 4))  # tau_max ~ 9e6
@example((12, 1.3, 0.0, None, None, 10 ** 4))
def test_a_whole_period_agrees_with_its_mirror_within_a_quarter_of_eta(inputs):
    *model, steps = inputs
    spec, tau_max = scan_case(*model)
    taus = revival.tau_grid(0.0, tau_max, steps)
    integers = revival._integers(revival.check_conditions(*model))
    _, held, delta = revival._screen(spec, taus)
    _, mirrored, widened = revival._screen(spec, taus, integers)
    eta = widened - delta
    assert eta > 0 and mirrored.size <= held.size  # the mirror is taken
    corner, total = revival._probabilities(*walk.antipodal_scan(spec, taus))
    # rows k and steps - k of the exact pass, tau = 0 and tau_max included
    assert np.abs(corner - corner[::-1]).max() <= eta / 4
    assert np.abs(total - total[::-1]).max() <= eta / 4


@settings(max_examples=150, deadline=None)
@given(period_windows(steps=st.one_of(st.integers(1, 64), st.just(10 ** 4))))
@example((2, -1.0, 0.0, None, None, 3))  # the first maximum, row 1, is the mirror of row 2, the lowest held
def test_a_mirrored_scan_equals_the_full_grid(inputs):
    # a whole period's maximum recurs at its mirror, so the first one often lies in the half read from mirrors
    *model, steps = inputs
    spec, tau_max = scan_case(*model)
    integers = revival._integers(revival.check_conditions(*model))
    assert repr(revival._scan(spec, tau_max, steps, integers=integers)[0]) == repr(oracle.full_grid_scan(spec, tau_max, steps))


@pytest.mark.parametrize("N, alpha, beta, p, q", [
    (9, 0.6 + 9e-10, 1.0, 3, 5),       # p/q within RATIO_TOL, 9e-10 from alpha/beta: eta ~ 4e-6
    (12, -1.5 - 9e-10, 1.0, -3, 2),
    (9, 2.0 + 1e-8, -1.0, None, None),  # no close rational: no integers
])
def test_a_refusal_far_from_its_rational_model_screens_every_row(monkeypatch, N, alpha, beta, p, q):
    counted = count_exp_elements(monkeypatch)
    rep = revival.certify_numeric(N, alpha, beta, p, q)
    assert rep.certificate.kind == revival.NONE
    block = isqrt(revival.DEFAULT_SCAN_STEPS) + 1
    assert counted[0] == (revival.DEFAULT_SCAN_STEPS // block + 1 + block) * N
    spec = walk.WalkSpec(N - 1, alpha, beta)
    assert repr(rep.scan) == repr(oracle.full_grid_scan(spec, revival._scan_window(rep.certificate)))


def refusal_cases():
    """(N, alpha, beta, p, q) refused by the parity rule: beta = 0, small and large q, and a ratio with no close rational."""
    for N in range(2, 13):
        if N % 2 == 0:
            yield N, 1.3, 0.0, None, None
            yield N, 0.7 * 1 / 10 ** 6, 0.7, 1, 10 ** 6
        else:
            yield N, 0.7 * 999_997 / 999_999, 0.7, 999_997, 999_999
        yield N, -0.9 * 3 / (N % 2 + 4), 0.9, -3, N % 2 + 4
        yield N, 2.0 + 1e-8, -1.0, None, None  # no q <= 1e6 within 1e-9, and near PST, not FR


@pytest.mark.parametrize("N, alpha, beta, p, q", list(refusal_cases()))
def test_a_refusal_reads_its_scan_and_amplitudes_from_one_exact_pass(N, alpha, beta, p, q):
    rep = revival.certify_numeric(N, alpha, beta, p, q)
    assert rep.certificate.kind == revival.NONE
    spec = walk.WalkSpec(N - 1, alpha, beta)
    # repr tells every float apart bit for bit, signed zeros included
    assert repr(rep.scan) == repr(oracle.full_grid_scan(spec, revival._scan_window(rep.certificate)))
    if rep.certificate.q is None and beta != 0.0:
        assert rep.tau_evaluated == rep.scan.tau_at_max_sum
    else:
        assert rep.tau_evaluated == revival._fr_time(alpha, beta, rep.certificate.q)
    amp = walk.antipodal_amplitudes(spec, rep.tau_evaluated)
    assert repr((rep.mu, rep.nu, rep.leakage)) == repr(tuple(amp))
    # two sites revive at pi/(2|beta|) for every ratio (the documented exception)
    assert rep.passed == (N > 2 or beta == 0.0)
