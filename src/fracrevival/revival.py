"""Revival arithmetic and numeric certification.

Whether the walk (equivalently the chain) admits balanced fractional revival
or perfect state transfer between antipodes is a parity question about the
coupling ratio.  With beta != 0 write alpha/beta = p/q in lowest terms:
balanced FR needs p odd and q, N of opposite parity, and first occurs at
tau = pi q / (2 beta), with PST at twice that; p even (hence q odd) gives PST
only, at tau = pi q / beta.  With beta = 0 revival needs N odd and occurs at
tau = pi / (2 alpha).  Negative alpha or beta are folded into |.| for the
times; the dynamics only reverses in time.

`check_conditions` applies the arithmetic, `certify_numeric` confronts the
resulting certificate with the corner and antipode amplitudes of the walk and,
for balanced FR, with the closed matrix identity
e^{-i tau H} = e^{-i phi'} (A_0 +- i A_M)/sqrt(2) that `appendix_phase_check`
verifies eigenvalue by eigenvalue and, at small M, against the dense oracle.

`certify_numeric` reads the amplitudes from the closed form at O(M), with no
2^M state.  At oracle scale (M <= walk.ORACLE_MAX_M) it also evolves the
corner state once with the Walsh-Hadamard engine at the evaluated time and
records engine_dev, the larger deviation of its corner and antipode entries
from the closed form; the verdict requires engine_dev below PROB_TOL, so every
small verdict rests on two independent engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import copysign, gcd, inf, isfinite, pi

import numpy as np

from . import walk
from .errors import InvalidInputError

BALANCED_FR = "balanced_FR"
PST_ONLY = "PST_only"
NONE = "none"

RATIO_TOL = 1e-9
MAX_DENOMINATOR = 10 ** 6
PROB_TOL = 1e-9          # on probabilities at certified times
SCAN_TOL = 1e-6          # revival detection threshold on the tau grid
DEFAULT_SCAN_STEPS = 10 ** 4
MAX_SCAN_STEPS = 10 ** 6  # the grid's phase matrix is (steps+1) x (M+1) complex values


@dataclass(frozen=True)
class RevivalCertificate:
    """Arithmetic verdict: revival kind, coupling ratio, and the revival times."""

    kind: str
    N: int
    alpha: float
    beta: float
    p: int | None = None
    q: int | None = None
    tau_fr: float | None = None
    tau_pst: float | None = None
    reason: str = ""


def _rationalize(alpha: float, beta: float, p: int | None, q: int | None):
    """alpha/beta as a reduced fraction, or None when no close rational exists.

    A ratio that is not finite (beta = 0, or an overflowing quotient) has no
    close rational.  An explicit p/q must lie within RATIO_TOL of alpha/beta.
    """
    ratio = float(alpha) / float(beta) if beta != 0.0 else copysign(inf, alpha)
    if p is not None or q is not None:
        if p is None or q is None or q == 0:
            raise InvalidInputError("pass both p and q (q nonzero) to fix the ratio exactly")
        # below 2^1023, p / q cannot overflow; an infinite ratio agrees with no p/q
        if not (abs(p) < abs(q) << 1023 and abs(ratio - p / q) <= RATIO_TOL):
            raise InvalidInputError(f"p/q = {p}/{q} contradicts alpha/beta = {ratio}")
        sign = -1 if q < 0 else 1
        g = gcd(abs(p), abs(q))
        return sign * p // g, abs(q) // g
    if not isfinite(ratio):
        return None
    frac = Fraction(ratio).limit_denominator(MAX_DENOMINATOR)
    if abs(float(frac) - ratio) > RATIO_TOL:
        return None
    return frac.numerator, frac.denominator


def _fr_time(alpha: float, beta: float, q: int | None) -> float:
    """The first balanced-FR time: pi q / (2|beta|), or pi / (2|alpha|) when beta = 0."""
    # 0.5 * pi is exact, and unlike 2|beta| it cannot overflow
    return 0.5 * pi * q / abs(beta) if beta != 0.0 else 0.5 * pi / abs(alpha)


def check_conditions(
    N: int, alpha: float, beta: float, p: int | None = None, q: int | None = None
) -> RevivalCertificate:
    """Classify (N, alpha, beta) into balanced FR / PST only / no revival.

    The ratio alpha/beta is rationalized by continued fractions (tolerance
    1e-9, denominator capped at 10^6); callers holding the exact integers may
    pass p and q to bypass the float round trip.  Explicit p and q must agree
    with alpha/beta within that tolerance, so beta = 0 refuses them.
    """
    if N < 2:
        raise InvalidInputError(f"need N >= 2, got {N}")
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise InvalidInputError("alpha and beta must be finite")
    if alpha == 0.0 and beta == 0.0:
        raise InvalidInputError("(alpha, beta) != (0, 0) required")

    ratio = _rationalize(alpha, beta, p, q)
    if beta == 0.0:
        if N % 2 == 1:
            tau_fr = _fr_time(alpha, beta, None)
            return RevivalCertificate(
                kind=BALANCED_FR, N=N, alpha=alpha, beta=beta,
                tau_fr=tau_fr, tau_pst=2.0 * tau_fr,
            )
        return RevivalCertificate(
            kind=NONE, N=N, alpha=alpha, beta=beta,
            reason="beta = 0 admits revival only for odd N",
        )

    if ratio is None:
        return RevivalCertificate(
            kind=NONE, N=N, alpha=alpha, beta=beta,
            reason="ratio not rationalizable (no p/q within 1e-9 with q <= 1e6)",
        )
    rp, rq = ratio
    if rp % 2 != 0:
        if rq % 2 != N % 2:
            tau_fr = _fr_time(alpha, beta, rq)
            return RevivalCertificate(
                kind=BALANCED_FR, N=N, alpha=alpha, beta=beta, p=rp, q=rq,
                tau_fr=tau_fr, tau_pst=2.0 * tau_fr,
            )
        return RevivalCertificate(
            kind=NONE, N=N, alpha=alpha, beta=beta, p=rp, q=rq,
            reason=f"p = {rp} odd but q = {rq} and N = {N} share parity",
        )
    # p even forces q odd (coprimality): transfer without revival
    return RevivalCertificate(
        kind=PST_ONLY, N=N, alpha=alpha, beta=beta, p=rp, q=rq,
        tau_pst=pi * rq / abs(beta),
    )


@dataclass(frozen=True)
class ScanOutcome:
    """Balanced-revival search over a uniform tau grid."""

    tau_max: float
    steps: int
    balanced_found: bool
    balanced_tau: float | None
    max_revival_sum: float      # max over the grid of |mu|^2 + |nu|^2
    tau_at_max_sum: float


def tau_grid(tau_min: float, tau_max: float, steps: int) -> np.ndarray:
    """steps + 1 evenly spaced times from tau_min to tau_max, inclusive.

    Refused before the grid is allocated, in this order: an empty range
    (tau_max not above tau_min, or NaN), fewer than one step, more than
    MAX_SCAN_STEPS steps, and a width tau_max - tau_min that is not finite.
    """
    if not (tau_max > tau_min):
        raise InvalidInputError(f"empty tau range [{tau_min}, {tau_max}]")
    if steps < 1:
        raise InvalidInputError("need at least one step")
    if steps > MAX_SCAN_STEPS:
        raise InvalidInputError(f"steps must be at most {MAX_SCAN_STEPS}, got {steps}")
    if not isfinite(tau_max - tau_min):
        raise InvalidInputError(f"tau range [{tau_min}, {tau_max}] must have a finite width")
    return np.linspace(tau_min, tau_max, steps + 1)


def scan_balanced_fr(
    spec: walk.WalkSpec, tau_max: float, steps: int = DEFAULT_SCAN_STEPS
) -> ScanOutcome:
    """Sweep tau in [0, tau_max] looking for a balanced revival.

    A grid point counts as balanced FR when |mu|^2 + |nu|^2 >= 1 - 1e-6 with
    both probabilities within 1e-6 of one half.  tau = 0 (perfect return) is
    excluded from detection but included in the sweep.  The grid is
    tau_grid(0.0, tau_max, steps), with its refusals.
    """
    taus = tau_grid(0.0, tau_max, steps)
    mus, nus = walk.antipodal_scan(spec, taus)
    pm = np.abs(mus) ** 2
    pn = np.abs(nus) ** 2
    total = pm + pn
    balanced = (total >= 1.0 - SCAN_TOL) & (np.abs(pm - 0.5) <= SCAN_TOL) & (taus > 0)
    hits = np.nonzero(balanced)[0]
    k = 1 + int(np.argmax(total[1:]))  # skip the trivial revival at tau = 0
    return ScanOutcome(
        tau_max=float(tau_max),
        steps=steps,
        balanced_found=bool(hits.size),
        balanced_tau=float(taus[hits[0]]) if hits.size else None,
        max_revival_sum=float(total[k]),
        tau_at_max_sum=float(taus[k]),
    )


def _scan_window(cert: RevivalCertificate) -> float:
    if cert.beta != 0.0:
        q = cert.q if cert.q else 1
        return 2.0 * pi * q / abs(cert.beta)
    return 4.0 * pi / abs(cert.alpha)


@dataclass(frozen=True)
class CertifyReport:
    """Numeric confrontation of a certificate with the walk; passed is the whole verdict."""

    certificate: RevivalCertificate
    passed: bool
    tau_evaluated: float
    mu: complex
    nu: complex
    leakage: float
    checks: dict
    scan: ScanOutcome | None = None              # the refuting sweep, kind none only
    appendix: AppendixReport | None = None      # the identity on this certificate, balanced FR only


def certify_numeric(
    N: int,
    alpha: float,
    beta: float,
    p: int | None = None,
    q: int | None = None,
    scan_steps: int = DEFAULT_SCAN_STEPS,
) -> CertifyReport:
    """Run the evolution the certificate promises and measure the outcome.

    balanced_FR: at tau_FR both antipodal probabilities must be 1/2 within
    1e-9 with leakage below 1e-9 and nu pure imaginary once the global phase
    makes mu real; PST at 2 tau_FR and the appendix_phase_check identity
    (report.appendix) are checked as well.  PST_only: probability one at the
    antipode at tau_PST.  none: a grid scan over one period must find no
    balanced revival.  At M <= walk.ORACLE_MAX_M every kind also needs the
    FWHT evolution to match the closed-form amplitudes within 1e-9
    (checks["engine_dev"]).  The certificate is derived once.
    """
    cert = check_conditions(N, alpha, beta, p=p, q=q)
    spec = walk.WalkSpec(M=N - 1, alpha=alpha, beta=beta)
    outcome = appendix = None

    if cert.kind == BALANCED_FR:
        tau = cert.tau_fr
        amp = walk.antipodal_amplitudes(spec, tau)
        rotated_nu = amp.nu * np.exp(-1j * np.angle(amp.mu))
        pst = walk.antipodal_amplitudes(spec, cert.tau_pst)
        checks = {
            "mu_prob_dev": abs(abs(amp.mu) ** 2 - 0.5),
            "nu_prob_dev": abs(abs(amp.nu) ** 2 - 0.5),
            "leakage": abs(amp.leakage),
            "nu_real_part": abs(rotated_nu.real),
            "pst_at_double": abs(pst.nu),
        }
        appendix = _appendix_identity(cert, spec)
        passed = (
            checks["mu_prob_dev"] < PROB_TOL
            and checks["nu_prob_dev"] < PROB_TOL
            and checks["leakage"] < PROB_TOL
            and checks["nu_real_part"] < PROB_TOL
            and checks["pst_at_double"] > 1.0 - PROB_TOL
            and appendix.passed
        )
    elif cert.kind == PST_ONLY:
        tau = cert.tau_pst
        amp = walk.antipodal_amplitudes(spec, tau)
        checks = {"nu_abs": abs(amp.nu), "leakage": abs(amp.leakage)}
        passed = checks["nu_abs"] > 1.0 - PROB_TOL
    else:
        # kind == NONE: refute by sweeping one period of the spectrum
        outcome = scan_balanced_fr(spec, _scan_window(cert), steps=scan_steps)
        tau = (_fr_time(cert.alpha, cert.beta, cert.q) if cert.beta == 0.0 or cert.q
               else outcome.tau_at_max_sum)
        amp = walk.antipodal_amplitudes(spec, tau)
        checks = {"max_revival_sum": outcome.max_revival_sum}
        passed = not outcome.balanced_found

    if spec.M <= walk.ORACLE_MAX_M:
        psi = walk.evolve_graph(spec, walk.corner_state(spec.M), tau)
        checks["engine_dev"] = float(max(abs(psi[0] - amp.mu), abs(psi[-1] - amp.nu)))
        passed = passed and checks["engine_dev"] < PROB_TOL
    return CertifyReport(
        certificate=cert, passed=passed, tau_evaluated=tau,
        mu=amp.mu, nu=amp.nu, leakage=amp.leakage, checks=checks, scan=outcome,
        appendix=appendix,
    )


@dataclass(frozen=True)
class AppendixReport:
    """Spectral verification of the balanced-revival matrix identity.

    certificate is the balanced-FR check_conditions verdict whose tau_fr the
    identity was checked at; reports read p, q and the times from it.
    """

    N: int
    alpha: float
    beta: float
    tau: float
    delta: float
    phi_prime: float
    sign: int                       # the fixed +-1 in (A_0 +- i A_M)/sqrt(2)
    winding_max_dev: float          # max |e^{-i M_s} - 1|
    step_phase_max_dev: float       # max |e^{-i 4 tau alpha s} - 1|
    delta_dev: float                # distance of e^{i delta} from {+-(1+-i)/sqrt(2)}
    assembled_max_dev: float        # eigenvalue-level identity deviation
    phi_consistency_dev: float      # |e^{-i phi'} -+ e^{-i phi}|, smaller branch
    dense_identity_dev: float | None  # entrywise vs dense oracle, M <= 8 only
    certificate: RevivalCertificate

    @property
    def passed(self) -> bool:
        devs = [
            self.winding_max_dev, self.step_phase_max_dev,
            self.delta_dev, self.assembled_max_dev,
        ]
        if self.dense_identity_dev is not None:
            devs.append(self.dense_identity_dev)
        return max(devs) < 1e-10

    @property
    def max_identity_dev(self) -> float:
        """The entrywise dense deviation where it was computed, else the eigenvalue-level one."""
        return self.dense_identity_dev if self.dense_identity_dev is not None else self.assembled_max_dev


def appendix_phase_check(
    N: int, alpha: float, beta: float, p: int | None = None, q: int | None = None
) -> AppendixReport:
    """Verify e^{-i tau H} = e^{-i phi'} (A_0 +- i A_{N-1}) / sqrt(2) at the FR time.

    Checks, for every eigenspace index s: the winding term
    M_s = 4 tau alpha s^2 - 2 tau alpha (N-1) s - 2 tau beta s and the step
    phase 4 tau alpha s are multiples of 2 pi; e^{i delta} with
    delta = (tau/2)(alpha - alpha(N-1) - beta) lands on {+-(1+-i)/sqrt(2)};
    and the assembled per-eigenvalue identity holds with one fixed sign and
    phase.  For M <= 8 the matrix identity is also checked entrywise against
    the dense oracle.
    """
    cert = check_conditions(N, alpha, beta, p=p, q=q)
    if cert.kind != BALANCED_FR:
        raise InvalidInputError(
            f"appendix identity requires balanced FR; certificate says {cert.kind}"
            + (f" ({cert.reason})" if cert.reason else "")
        )
    return _appendix_identity(cert, walk.WalkSpec(M=N - 1, alpha=alpha, beta=beta))


def _appendix_identity(cert: RevivalCertificate, spec: walk.WalkSpec) -> AppendixReport:
    """The checks of appendix_phase_check on a balanced-FR certificate and its walk."""
    N, alpha, beta, tau = cert.N, cert.alpha, cert.beta, cert.tau_fr
    M = spec.M
    # phase_table refuses a non-finite tau, spectrum or phase before any exp below
    u = walk.phase_table(spec, tau)
    s = np.arange(M + 1, dtype=float)

    # tau * alpha first: 4 * tau can overflow where the product with alpha does not
    winding = 4 * (tau * alpha) * s ** 2 - 2 * (tau * alpha) * (N - 1) * s - 2 * (tau * beta) * s
    winding_dev = float(np.abs(np.exp(-1j * winding) - 1.0).max())
    step_dev = float(np.abs(np.exp(-1j * 4 * (tau * alpha) * s) - 1.0).max())

    delta = (tau / 2.0) * (alpha - alpha * (N - 1) - beta)
    eighth_roots = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    delta_dev = float(np.abs(np.exp(1j * delta) - eighth_roots).min())

    parity = (-1.0) ** np.arange(M + 1)
    best = None
    for eps in (1, -1):
        factor = u[0] * np.sqrt(2.0) / (1 + 1j * eps)
        dev = float(np.abs(u - factor * (1 + 1j * eps * parity) / np.sqrt(2.0)).max())
        if best is None or dev < best[0]:
            best = (dev, eps, factor)
    assembled_dev, sign, factor = best
    phi_prime = float(-np.angle(factor))

    phi = tau * (alpha / 4.0 * (N - 1) * (N - 2) + beta / 2.0 * (N - 1)) + delta
    phi_consistency = float(
        min(abs(factor - np.exp(-1j * phi)), abs(factor + np.exp(-1j * phi)))
    )

    dense_dev = None
    if M <= 8:
        h = walk.dense_hamiltonian(spec)
        w, v = np.linalg.eigh(h)
        propagator = (v * np.exp(-1j * tau * w)) @ v.T
        size = 1 << M
        antipode = np.zeros((size, size), dtype=complex)
        antipode[np.arange(size), np.arange(size) ^ (size - 1)] = 1.0
        target = factor * (np.eye(size) + 1j * sign * antipode) / np.sqrt(2.0)
        dense_dev = float(np.abs(propagator - target).max())

    return AppendixReport(
        N=N, alpha=alpha, beta=beta, tau=tau, delta=delta, phi_prime=phi_prime,
        sign=sign, winding_max_dev=winding_dev, step_phase_max_dev=step_dev,
        delta_dev=delta_dev, assembled_max_dev=assembled_dev,
        phi_consistency_dev=phi_consistency, dense_identity_dev=dense_dev, certificate=cert,
    )
