"""Revival arithmetic and numeric certification.

Whether the walk (equivalently the chain) admits balanced fractional revival
or perfect state transfer between antipodes is a parity question about the
coupling ratio.  With beta != 0 write alpha/beta = p/q in lowest terms:
balanced FR needs p odd and q, N of opposite parity, and first occurs at
tau = pi q / (2 beta) for N >= 3 (on two sites at pi / (2 beta) for every
ratio: the README's N = 2 case), with PST at twice that; p even (hence q odd)
gives PST only, at tau = pi q / beta.  With beta = 0 revival needs N odd and
occurs at tau = pi / (2 alpha).  Negative alpha or beta are folded into |.|
for the times; the dynamics only reverses in time.

`check_conditions` applies the arithmetic, and `certify_numeric` confronts the
resulting certificate with two checks.  The first is exact: `solve_revival`
finds every revival time in Python integers (E_s - E_0 = u d_s with integers
d_s, so each revival is one linear congruence; see RevivalTimes), and the
certificate's times must revive as it claims.  The second reads the corner
and antipode amplitudes at O(M), with no 2^M state, from the closed form: the
classes w = 0 and M of walk.column_amplitudes.  For balanced FR it also
checks the closed matrix identity e^{-i tau H} = e^{-i phi'} (A_0 +- i A_M)/sqrt(2)
that `appendix_phase_check` verifies eigenvalue by eigenvalue and, at
M <= 8, entrywise.  Its exact check is the solver's: it holds exactly iff
the balanced-FR revival at tau_fr does (AppendixReport.exact).  An entry
(x, y) of either side depends on the weight of x xor y alone (H is a
Cayley graph on Z_2^M), so the entrywise check reads the M + 1 weight
classes of column 0 from the site-1 chain, the walk's distance quotient,
evolved on its own recurrence eigenvectors in the walk's spectrum (chain.chain_evolve).

A refusal sweeps one period of the spectrum, 10^4 steps (_scan), and
evaluates exactly only the grid points a screen of the whole grid cannot
rule out (_screen).  Where the ratio gives integers the window is a whole
number of periods, and the revival sum, with real weights, is
mirror-symmetric over it: rows k and steps - k agree within a derived eta,
so the screen holds half the grid and reads the rest from mirrors.

The float checks are cross-checks.  Where 3 eps |tau| max|E| reaches a gate
(walk.resolves), rounding alone can move a value that far, so the report
names the gate as one the float cannot resolve instead of failing on it;
the exact check still decides.  Exit 2 then means that the certificate and
the integers disagree, or that a float check missed a gate it resolves.

On the smallest cubes (M <= ENGINE_CHECK_MAX_M, at most 8 amplitudes) the
verdict also evolves the corner state once with the Walsh-Hadamard engine
and gates checks["engine_dev"], the larger deviation of its corner and
antipode entries from the closed form: an independent engine, cheap at
that size.  Above that no 2^M state is built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from math import copysign, gcd, inf, isfinite, isnan, isqrt, pi

import numpy as np

from . import chain, kraw, quotient, walk
from .errors import InvalidInputError, require_model

BALANCED_FR = "balanced_FR"
PST_ONLY = "PST_only"
NONE = "none"

RATIO_TOL = 1e-9
MAX_DENOMINATOR = 10 ** 6
PROB_TOL = 1e-9          # on probabilities at certified times
SCAN_TOL = 1e-6          # revival detection threshold on the tau grid
DEFAULT_SCAN_STEPS = 10 ** 4
MAX_SCAN_STEPS = 10 ** 6  # the grid's phase matrix is (steps+1) x (M+1) complex values
ENGINE_CHECK_MAX_M = 3    # verify also evolves the corner state with the FWHT up to here (8 amplitudes)


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

    def time(self, which: str) -> float:
        """tau_fr for which = "fr", else tau_pst; refused when the certificate has no such time."""
        if (tau := self.tau_fr if which == "fr" else self.tau_pst) is None:
            raise InvalidInputError(f"no {which.upper()} time exists for these parameters")
        return tau

    def to_dict(self) -> dict:
        """The params and certificate blocks of the verify and appendix reports."""
        return {"params": {"N": self.N, "alpha": self.alpha, "beta": self.beta, "p": self.p, "q": self.q},
                "certificate": {"kind": self.kind, "tau_fr": self.tau_fr, "tau_pst": self.tau_pst, "reason": self.reason}}


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


@dataclass(frozen=True)
class RevivalTimes:
    """Every antipodal revival of the corner-started walk, exactly, as x = tau |u| / (2 pi).

    With alpha/beta = p/q and u = beta/q (u = alpha, p = 1, q = 0 at
    beta = 0), E_s - E_0 = u d_s with the integers d_s = p s(s - M) - q s.
    The corner state weighs eigenspace s by C(M, s)/2^M and the antipode by
    that times (-1)^s, so the walk sits on the two corners exactly when every
    even-s phase x d_s is an integer and every odd-s one is a common c mod 1:
    balanced FR for c = 1/4 or 3/4, PST for c = 1/2.  Since 4 x d_1 is then an
    integer too, x = k/G with G the gcd of the even d_s, of d_s - d_1 over odd
    s and of 4 d_1, and the odd phase is c = k a/4 mod 1 with a = 4 d_1/G:
    one linear congruence k a = 4c (mod 4).  G = 0 (every d_s zero) means a
    scalar Hamiltonian and no revival.
    """

    G: int
    a: int

    def quarter_turns(self, num: int, den: int) -> int | None:
        """The common odd-s phase at x = num/den in quarter turns (1 or 3 balanced FR, 2 PST, 0 the start), or None."""
        k, rest = divmod(num * self.G, den)
        return None if rest else k * self.a % 4

    @property
    def fr(self) -> Fraction | None:
        """The first balanced-FR x, k = 1 when a is odd."""
        return Fraction(1, self.G) if self.a % 2 else None

    @property
    def pst(self) -> Fraction | None:
        """The first PST x: k a = 2 (mod 4) at k = 2 for odd a, k = 1 for a = 2 (mod 4)."""
        return Fraction(1 + self.a % 2, self.G) if self.a % 4 else None

    @property
    def kind(self) -> str:
        return BALANCED_FR if self.fr else PST_ONLY if self.pst else NONE


def solve_revival(N: int, p: int, q: int) -> RevivalTimes:
    """The exact revival times of the N-site model with alpha/beta = p/q (p = 1, q = 0 at beta = 0), Python ints only.

    O(1) at any N: G is gcd(d_2, 4 d_1), or 4 d_1 alone on two sites.  With
    e_t = d_{2t}, the even terms, and o_t = d_{2t+1} - d_1, the odd
    differences, e_t = t d_2 + 4p t(t - 1) and o_t = e_t + 4p t, while
    4p = 2 d_2 - 4 d_1: every term of the gcd is an integer combination of
    d_2 and 4 d_1, which are terms themselves (of the gcd of RevivalTimes).
    """
    M = N - 1
    d = [p * s * (s - M) - q * s for s in range(min(N, 3))]
    G = gcd(*d[2:], 4 * d[1])
    return RevivalTimes(G=G, a=4 * d[1] // G if G else 0)


def _integers(cert: RevivalCertificate) -> tuple[int, int] | None:
    """p, q with E_s - E_0 = u (p s(s - M) - q s): the certificate's ratio, 1, 0 at beta = 0, or None with no close rational."""
    if cert.beta == 0.0:
        return 1, 0
    return None if cert.p is None else (cert.p, cert.q)


def _confirms(cert: RevivalCertificate) -> bool | None:
    """Whether solve_revival confirms the certificate's claims, or None when the ratio gives no integers (_integers).

    tau_fr = pi q/(2|beta|) is x = 1/4 and tau_pst x = 1/2 (pi/(2|alpha|) is
    x = 1/4 at beta = 0): balanced FR needs x = 1/4 to be a balanced-FR time,
    PST only x = 1/2 to be a PST time, and a refusal no balanced-FR time at all.
    """
    if (integers := _integers(cert)) is None:
        return None
    times = solve_revival(cert.N, *integers)
    if cert.kind == BALANCED_FR:
        return times.quarter_turns(1, 4) in (1, 3)
    if cert.kind == PST_ONLY:
        return times.quarter_turns(1, 2) == 2
    return times.fr is None


def check_conditions(
    N: int, alpha: float, beta: float, p: int | None = None, q: int | None = None
) -> RevivalCertificate:
    """Classify (N, alpha, beta) into balanced FR / PST only / no revival.

    errors.require_model refuses what is no model, (0, 0) included.  The ratio
    alpha/beta is rationalized by continued fractions (tolerance 1e-9,
    denominator capped at 10^6); callers holding the exact integers may pass p
    and q to bypass the float round trip.  Explicit p and q must agree with
    alpha/beta within that tolerance, so beta = 0 refuses them.
    """
    require_model(N, alpha, beta)

    rp, rq = _rationalize(alpha, beta, p, q) or (None, None)
    if beta == 0.0 and N % 2 == 0:
        kind, reason = NONE, "beta = 0 admits revival only for odd N"
    elif beta == 0.0:
        kind, reason = BALANCED_FR, ""
    elif rp is None:
        kind, reason = NONE, "ratio not rationalizable (no p/q within 1e-9 with q <= 1e6)"
    elif rp % 2 == 0:
        # p even forces q odd (coprimality): transfer without revival
        kind, reason = PST_ONLY, ""
    elif rq % 2 != N % 2:
        kind, reason = BALANCED_FR, ""
    else:
        kind, reason = NONE, f"p = {rp} odd but q = {rq} and N = {N} share parity"

    tau_fr = tau_pst = None
    if kind == BALANCED_FR:
        tau_fr = _fr_time(alpha, beta, rq)
        tau_pst = 2.0 * tau_fr
    elif kind == PST_ONLY:
        tau_pst = pi * rq / abs(beta)
    return RevivalCertificate(kind, N, alpha, beta, rp, rq, tau_fr, tau_pst, reason)


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

    Refused before the grid is allocated, in this order: a NaN bound, an
    empty range (tau_max not above tau_min), fewer than one step, more than
    MAX_SCAN_STEPS steps, and a width tau_max - tau_min that is not finite.
    """
    if isnan(tau_min) or isnan(tau_max):
        raise InvalidInputError(f"tau bounds must be numbers, got [{tau_min}, {tau_max}]")
    if not (tau_max > tau_min):
        raise InvalidInputError(f"empty tau range [{tau_min}, {tau_max}]")
    if steps < 1:
        raise InvalidInputError("need at least one step")
    if steps > MAX_SCAN_STEPS:
        raise InvalidInputError(f"steps must be at most {MAX_SCAN_STEPS}, got {steps}")
    if not isfinite(tau_max - tau_min):
        raise InvalidInputError(f"tau range [{tau_min}, {tau_max}] must have a finite width")
    return np.linspace(tau_min, tau_max, steps + 1)


def _probabilities(mus: np.ndarray, nus: np.ndarray):
    """|mu|^2 and |mu|^2 + |nu|^2, each squared modulus as re^2 + im^2 (position-independent, unlike np.abs)."""
    corner = mus.real ** 2 + mus.imag ** 2
    return corner, corner + (nus.real ** 2 + nus.imag ** 2)


def _screen(spec: walk.WalkSpec, taus: np.ndarray, integers: tuple[int, int] | None = None):
    """|mu|^2 and |mu|^2 + |nu|^2 on the grid from O(sqrt(steps)) eigenphase rows, and their error bound.

    With B = ceil(sqrt(steps + 1)), every grid time tau_k is tau_c - tau_j up
    to rounding, for an anchor c = steps - aB and an offset j < B, so
    e^{-i tau_k E} is about e^{-i tau_c E} conj(e^{-i tau_j E}).  One exp runs
    on the anchors and the B offsets together, and one matrix product (BLAS)
    forms the weighted sums.  The anchors start at tau_max, so phase_table
    makes its refusals on the grid's largest time before any exp.  Both
    arrays keep the product's layout: entry (j, a) is grid row steps - aB - j.
    The rows it holds at and below 0 (tau = 0, swept but never a hit, and
    times outside the grid) all lie in the last column, and their total reads
    -inf, so no comparison admits them.  A row k below the lowest one held,
    steps + 1 - total.size, reads the values of its mirror steps - k.

    delta bounds the distance of either screened value from the one
    antipodal_scan gives at the same grid point.  With eps = 2^-52,
    T = tau_max max|E|, n = M + 1 and z = 2^-1074:
    (a) a grid time is k tau_max/steps within two roundings, 1.01 eps
        tau_max + (steps + 2) z (subnormal steps included), so
        |tau_c - tau_j - tau_k| <= 3.01 eps tau_max + 3(steps + 2) z and the
        exact phases there differ by at most 3.01 eps T + 3(steps + 2) z max|E|;
    (b) a computed eigenphase is within r = eps T/2 + 2 eps of the exact one at
        its time (one rounding of tau E, then cos and sin within an ulp), with
        modulus at most 1 + 2 eps, so a screened product is within 2.01 r and
        the reference phase within r;
    (c) the weights' moduli sum to 1, so the rounding of the reference's
        fixed-order sum, of the anchor-weight products and of the BLAS sum,
        in any order, adds at most 1.5(n + 2) eps;
    so the two sums differ by e <= 4.6 eps T + 9.1 eps + 1.5 n eps +
    3(steps + 2) z max|E|.  (d) Both sums have modulus at most 1.01, so the
    squared moduli, each re^2 + im^2 within 1.03 eps, differ by at most
    2.02 e + 2.1 eps, and the totals, one more rounding each, by 4.04 e +
    6.3 eps <= 18.6 eps T + 43.1 eps + 6.1 n eps + 12.2(steps + 2) z max|E|.
    delta = 64 eps (1 + T) + 8 n eps + 16(steps + 2) z max|E| exceeds that
    by more than 16 eps + 45 eps T, which covers the rounding of delta and of
    the comparisons that use it.  Against the exact sum of the float model
    (E_s in real arithmetic from the float alpha and beta) each phase moves
    by eps T more (walk.resolves (a)), which the same room covers.

    The mirror.  integers = (p, q) (1, 0 at beta = 0) says that taus spans
    _scan_window of a certificate with E_s - E_0 = u d_s for the integers
    d_s = p s(s - M) - q s (RevivalTimes): a whole number of periods 2 pi/|u|
    in the rational model alpha' = beta p/q (alpha itself at beta = 0).  Its
    weights are real, so its sum at W - tau is the conjugate of its sum at
    tau, and |mu| and |nu| agree at tau and W - tau: on the grid, at rows k
    and steps - k.  eta bounds the distance of the exact pass's values there:
    (e) the model gap: alpha - alpha' moves each E_s - E_0 by at most
        g M^2/4, g = |alpha - alpha'|, so a modulus by at most
        g' = 1.01 tau_max g M^2/4 at each of tau_k and W - tau_k;
    (f) the times: by (a), tau_k + tau_{steps-k} is within 2.02 eps tau_max +
        2(steps + 2) z of tau_max, which _scan_window rounded from W at most
        four times (pi, q, product, quotient), 2.01 eps tau_max; a modulus
        moves by at most that distance rho times max|E_s - E_0| <= 2.01 R,
        R = max|E|;
    (g) each exact-pass amplitude lies within its rounding account
        3 eps T + 2 n eps of the float model (walk.resolves);
    so the moduli at rows k and steps - k differ by e' <= 14.2 eps T +
    4 n eps + 2 g' + 4.02(steps + 2) z R, and by (d) the totals by
    4.04 e' + 6.3 eps <= 57.4 eps T + 16.2 n eps + 8.2 tau_max g M^2/4 +
    16.3(steps + 2) z R + 6.3 eps.  eta = 64 eps T + 20 n eps +
    9 tau_max g M^2/4 + 20(steps + 2) z R exceeds that with room for its own
    rounding.  The screen then holds the anchors down to row steps/2 alone,
    and a row below reads its mirror's values, within delta of the mirror's
    exact value and so within delta + eta of its own: it returns delta + eta.
    Without integers, or where eta reaches delta + SCAN_TOL (the mirror would
    more than double the width SCAN_TOL + delta of the balanced band), it
    holds every row and returns delta.
    """
    steps = len(taus) - 1
    block = isqrt(steps) + 1
    weights = kraw.column_weights(spec.M, (0, spec.M)).T  # with its size refusal, before any exp
    eps, tiny = walk.EPS, 2.0 ** -1074
    n, largest, tau_max = spec.M + 1, spec.reach, float(taus[-1])
    delta = 64 * eps * (1.0 + tau_max * largest) + 8 * n * eps + 16 * (steps + 2) * (tiny * largest)
    eta = inf
    if integers is not None:
        p, q = integers
        (a, a_den), (b, b_den) = float(spec.alpha).as_integer_ratio(), float(spec.beta).as_integer_ratio()
        # g = |alpha q - beta p|/q in integers, one rounding (zero at beta = 0, where alpha' = alpha)
        gap = abs(a * b_den * q - b * a_den * p) / (a_den * b_den * q) if q else 0.0
        eta = (64 * eps * tau_max * largest + 20 * n * eps + 2.25 * tau_max * gap * spec.M ** 2
               + 20 * (steps + 2) * (tiny * largest))
    mirrored = eta < delta + SCAN_TOL
    anchors = (steps // 2 if mirrored else steps) // block + 1

    table = walk.phase_table(spec, np.concatenate((taus[::-block][:anchors], taus[:block])))
    weighted = table[:anchors, :, None] * weights  # the anchors, from tau_max down
    sums = table[anchors:].conj() @ weighted.transpose(1, 0, 2).reshape(n, -1)
    corner, total = _probabilities(*sums.reshape(block, -1, 2).transpose(2, 0, 1))
    total[steps - (anchors - 1) * block:, -1] = -inf
    return corner, total, delta + eta if mirrored else delta


def scan_balanced_fr(
    spec: walk.WalkSpec, tau_max: float, steps: int = DEFAULT_SCAN_STEPS
) -> ScanOutcome:
    """Sweep tau in [0, tau_max] looking for a balanced revival.

    A grid point counts as balanced FR when |mu|^2 + |nu|^2 >= 1 - 1e-6 with
    |mu|^2 within 1e-6 of one half.  tau = 0 (perfect return) is excluded
    from detection but included in the sweep; the maximum of |mu|^2 + |nu|^2
    is taken over tau > 0, the first grid point winning a tie.  The grid is
    tau_grid(0.0, tau_max, steps), with its refusals, then those of
    kraw.column_weights and of the eigenphases on tau_max (no 2^M table).

    The outcome is, field for field and bit for bit, the one antipodal_scan
    on every grid point gives (oracle.full_grid_scan), but exp runs on few
    points: _screen approximates the whole grid within delta, and only the
    points that could decide the outcome are evaluated exactly, those within
    2 delta of the screened maximum and those within delta of the balanced
    thresholds.  Every other point is provably neither the first maximum
    nor a hit.  A large delta (a large tau max|E|) admits more points, up to
    the whole grid.
    """
    return _scan(spec, tau_max, steps)[0]


def _scan(spec: walk.WalkSpec, tau_max: float, steps: int, tau: float | None = None,
          integers: tuple[int, int] | None = None):
    """scan_balanced_fr's outcome, with the time and amplitudes of one more point from the same exact pass.

    The point is tau, appended to the exact evaluations, or the grid's best
    point (tau_at_max_sum) when tau is None; its row is the one
    antipodal_amplitudes gives at that time, bit for bit.  One threshold
    pass at the lower of the two bars finds the candidates, and both
    conditions run on those alone.  integers, for a window of _scan_window,
    lets _screen hold half the grid (its mirror): a candidate's mirror
    below the rows held is a candidate too.
    """
    taus = tau_grid(0.0, tau_max, steps)
    corner, total, delta = _screen(spec, taus, integers)
    top, bar = total.max() - 2 * delta, 1.0 - SCAN_TOL - delta
    at = np.flatnonzero(total >= min(top, bar))
    near, pm = total.ravel()[at], corner.ravel()[at]
    at = at[(near >= top) | ((near >= bar) & (np.abs(pm - 0.5) <= SCAN_TOL + delta))]
    offset, anchor = np.divmod(at, total.shape[1])
    rows = steps - len(total) * anchor - offset
    idx = np.sort(np.concatenate((rows, steps - rows[(rows >= total.size) & (rows < steps)])))

    times = taus[idx] if tau is None else np.append(taus[idx], tau)
    mus, nus = walk.antipodal_scan(spec, times)
    corner, total = _probabilities(mus[:idx.size], nus[:idx.size])
    balanced = (total >= 1.0 - SCAN_TOL) & (np.abs(corner - 0.5) <= SCAN_TOL) & (taus[idx] > 0)
    hits = idx[balanced]
    best = int(np.argmax(total))
    outcome = ScanOutcome(
        tau_max=float(tau_max),
        steps=steps,
        balanced_found=bool(hits.size),
        balanced_tau=float(taus[hits[0]]) if hits.size else None,
        max_revival_sum=float(total[best]),
        tau_at_max_sum=float(taus[idx[best]]),
    )
    at = best if tau is None else -1
    return outcome, float(times[at]), walk.AntipodalAmplitudes.of(mus[at], nus[at])


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
    exact: bool | None            # solve_revival confirms the certificate; None for a ratio with no close rational
    unresolved: tuple[str, ...]   # the checks whose tolerance the float cannot resolve at their time
    scan: ScanOutcome | None = None              # the refuting sweep, kind none only
    appendix: AppendixReport | None = None      # the identity on this certificate, balanced FR only

    def to_dict(self) -> dict:
        """The verify report: the certificate's blocks, the amplitudes, the identity's summary and every scan field."""
        app, scan = self.appendix, self.scan
        return {**self.certificate.to_dict(), "numeric": {"mu": self.mu, "nu": self.nu, "leakage": self.leakage},
                "appendix": None if app is None else {"delta": app.delta, "phi_prime": app.phi_prime, "sign": app.sign,
                                                      "max_identity_dev": app.max_identity_dev},
                "scan": None if scan is None else {f.name: getattr(scan, f.name) for f in fields(scan)}}


def certify_numeric(
    N: int, alpha: float, beta: float, p: int | None = None, q: int | None = None
) -> CertifyReport:
    """Run the evolution the certificate promises and measure the outcome.

    The exact check (report.exact) comes first: solve_revival must confirm
    the certificate (_confirms, read from report.appendix for balanced FR,
    so the solver runs once); it is None only for a ratio with no close
    rational, which gives no integers.  Then the float checks, each at its
    gate unless the float cannot resolve that gate at its time
    (report.unresolved).  balanced_FR: at tau_FR both antipodal probabilities
    must be 1/2 within 1e-9 with leakage below 1e-9 and nu pure imaginary
    once the global phase makes mu real; PST at 2 tau_FR and the
    appendix_phase_check identity (report.appendix) are checked as well.
    PST_only: probability one at the antipode at tau_PST.  none: a scan of
    DEFAULT_SCAN_STEPS points over one period must find no balanced revival;
    mu and nu, at tau_FR or else at the scan's best point, come from the
    scan's exact pass.  Where the ratio gives integers (_integers: p/q, or
    beta = 0) the screen holds the upper half of the period and reads the
    lower half from its mirror, unless alpha lies so far from beta p/q that
    the mirror's bound eta reaches delta + SCAN_TOL (_screen); a ratio with
    no close rational screens every row.  The outcome is the same either
    way, bit for bit.  At M <= ENGINE_CHECK_MAX_M every kind also needs the
    FWHT evolution to match the closed-form amplitudes within 1e-9
    (checks["engine_dev"]); above that no 2^M state is built.  The
    certificate and the spectrum (spec.energies) are derived once.
    """
    cert = check_conditions(N, alpha, beta, p=p, q=q)
    spec = walk.WalkSpec(M=N - 1, alpha=alpha, beta=beta)
    outcome = appendix = None

    if cert.kind == BALANCED_FR:
        tau = cert.tau_fr
        # one call for both times: each row equals its one-point antipodal_amplitudes
        mus, nus = walk.antipodal_scan(spec, [tau, cert.tau_pst])
        amp = walk.AntipodalAmplitudes.of(mus[0], nus[0])
        rotated_nu = amp.nu * np.exp(-1j * np.angle(amp.mu))
        checks = {
            "mu_prob_dev": abs(abs(amp.mu) ** 2 - 0.5),
            "nu_prob_dev": abs(abs(amp.nu) ** 2 - 0.5),
            "leakage": abs(amp.leakage),
            "nu_real_part": abs(rotated_nu.real),
            "pst_at_double": abs(complex(nus[1])),
        }
        appendix = _appendix_identity(cert, spec)
        # (name, holds, tolerance, time)
        gates = [(name, checks[name] < PROB_TOL, PROB_TOL, tau)
                 for name in ("mu_prob_dev", "nu_prob_dev", "leakage", "nu_real_part")]
        gates.append(("pst_at_double", checks["pst_at_double"] > 1.0 - PROB_TOL, PROB_TOL, cert.tau_pst))
    elif cert.kind == PST_ONLY:
        tau = cert.tau_pst
        amp = walk.antipodal_amplitudes(spec, tau)
        checks = {"nu_abs": abs(amp.nu), "leakage": abs(amp.leakage)}
        gates = [("nu_abs", checks["nu_abs"] > 1.0 - PROB_TOL, PROB_TOL, tau)]
    else:
        # kind == NONE: sweep one period of the spectrum, half of it read from mirrors where the ratio
        # gives integers; mu and nu at tau_FR (or the best point) come from its exact pass
        integers = _integers(cert)
        tau = _fr_time(cert.alpha, cert.beta, cert.q) if integers else None
        outcome, tau, amp = _scan(spec, _scan_window(cert), DEFAULT_SCAN_STEPS, tau, integers)
        checks = {"max_revival_sum": outcome.max_revival_sum}
        gates = [("max_revival_sum", not outcome.balanced_found, SCAN_TOL, outcome.tau_max)]

    if spec.M <= ENGINE_CHECK_MAX_M:
        psi = walk.evolve_graph(spec, walk.corner_state(spec.M), tau)
        checks["engine_dev"] = float(max(abs(psi[0] - amp.mu), abs(psi[-1] - amp.nu)))
        gates.append(("engine_dev", checks["engine_dev"] < PROB_TOL, PROB_TOL, tau))

    exact = appendix.exact if appendix is not None else _confirms(cert)
    unresolved = tuple(name for name, _, tolerance, time in gates if not walk.resolves(spec.reach, time, tolerance))
    passed = (exact is not False and all(holds or name in unresolved for name, holds, _, _ in gates)
              and (appendix is None or appendix.passed))
    return CertifyReport(
        certificate=cert, passed=passed, tau_evaluated=tau,
        mu=amp.mu, nu=amp.nu, leakage=amp.leakage, checks=checks, exact=exact,
        unresolved=unresolved, scan=outcome, appendix=appendix,
    )


@dataclass(frozen=True)
class AppendixReport:
    """Spectral verification of the balanced-revival matrix identity.

    certificate is the balanced-FR check_conditions verdict whose tau_fr the
    identity was checked at; reports read p, q and the times from it.  exact
    is the solver's check of it (_confirms): in eigenspace s, A_M is (-1)^s,
    so the identity holds exactly iff every even-s eigenphase e^{-i tau E_s}
    is equal and every odd-s one is a quarter turn off it, which is a
    balanced-FR revival at tau_fr, quarter_turns(1, 4) in {1, 3}.  The
    float deviations no gate reads, winding_max_dev, step_phase_max_dev and
    phi_consistency_dev, are computed on first read (cached_property, as
    WalkSpec.energies is) from the fields: a verdict never pays their exp,
    and the appendix command prints them.  They hold no field, so two reports
    of one input compare and hash equal whichever were read.
    """

    N: int
    alpha: float
    beta: float
    tau: float
    delta: float
    phi_prime: float
    sign: int                       # the fixed +-1 in (A_0 +- i A_M)/sqrt(2)
    factor: complex                 # e^{-i phi'}, fixed by e^{-i tau E_0}
    delta_dev: float                # distance of e^{i delta} from {+-(1+-i)/sqrt(2)}
    assembled_max_dev: float        # eigenvalue-level identity deviation
    dense_identity_dev: float | None  # entrywise over the whole matrix, from the chain, M <= 8 only
    certificate: RevivalCertificate
    exact: bool                     # solve_revival confirms the balanced revival at tau (_confirms)
    resolved: bool                  # the float resolves the 1e-10 gate at tau (walk.resolves)

    @property
    def passed(self) -> bool:
        """The exact identity, and the float deviations below 1e-10 wherever the float resolves that."""
        devs = [self.delta_dev, self.assembled_max_dev]
        if self.dense_identity_dev is not None:
            devs.append(self.dense_identity_dev)
        return self.exact and (max(devs) < 1e-10 or not self.resolved)

    @property
    def max_identity_dev(self) -> float:
        """The entrywise dense deviation where it was computed, else the eigenvalue-level one."""
        return self.dense_identity_dev if self.dense_identity_dev is not None else self.assembled_max_dev

    @cached_property
    def winding_max_dev(self) -> float:
        """max |e^{-i M_s} - 1|."""
        winding = _phases(self.N, self.alpha, self.beta, self.tau)[0]
        return float(np.abs(np.exp(-1j * winding) - 1.0).max())

    @cached_property
    def step_phase_max_dev(self) -> float:
        """max |e^{-i 4 tau alpha s} - 1|."""
        s = np.arange(self.N, dtype=float)
        return float(np.abs(np.exp(-1j * 4 * (self.tau * self.alpha) * s) - 1.0).max())

    @cached_property
    def phi_consistency_dev(self) -> float:
        """|e^{-i phi'} -+ e^{-i phi}|, the smaller branch."""
        rotation = np.exp(-1j * _phases(self.N, self.alpha, self.beta, self.tau)[2])
        return float(min(abs(self.factor - rotation), abs(self.factor + rotation)))

    def to_dict(self) -> dict:
        """The appendix report: the certificate's blocks, then each phase and deviation."""
        return {**self.certificate.to_dict(), "appendix": {
            "tau": self.tau, "delta": self.delta, "phi_prime": self.phi_prime, "sign": self.sign,
            "winding_max_dev": self.winding_max_dev, "step_phase_max_dev": self.step_phase_max_dev,
            "delta_dev": self.delta_dev, "assembled_max_dev": self.assembled_max_dev,
            "phi_consistency_dev": self.phi_consistency_dev, "max_identity_dev": self.max_identity_dev}}


def appendix_phase_check(
    N: int, alpha: float, beta: float, p: int | None = None, q: int | None = None
) -> AppendixReport:
    """Verify e^{-i tau H} = e^{-i phi'} (A_0 +- i A_{N-1}) / sqrt(2) at the FR time.

    Checks that the identity holds exactly, by solve_revival
    (AppendixReport.exact); the float deviations of the winding terms
    M_s = 4 tau alpha s^2 - 2 tau alpha (N-1) s - 2 tau beta s and the step
    phases 4 tau alpha s from multiples of 2 pi are reported; e^{i delta} with
    delta = (tau/2)(alpha - alpha(N-1) - beta) lands on {+-(1+-i)/sqrt(2)};
    and the assembled per-eigenvalue identity holds with one fixed sign and
    phase.  For M <= 8 the matrix identity is also checked entrywise, with
    the largest deviation over all 4^M entries read exactly from the M + 1
    weight classes of column 0 (_chain_identity_dev): the site-1 chain, on eigenvectors
    from its own couplings (independent of kraw.column_weights) with the walk's eigenphases.
    The float checks gate at 1e-10 where the float resolves that at tau.
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
    # phase_table refuses a non-finite tau, spectrum or phase before any exp below
    u = walk.phase_table(spec, tau)
    winding, delta, phi = _phases(N, alpha, beta, tau)
    # these can overflow where tau * E does not (delta and phi form alpha * (N - 1) before tau)
    if not (np.isfinite(winding).all() and isfinite(delta) and isfinite(phi)):
        raise InvalidInputError("the winding, delta or phi phase overflows a float")

    eighth_roots = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    delta_dev = float(np.abs(np.exp(1j * delta) - eighth_roots).min())

    # both signs eps = +-1, a row each; argmin keeps the first of a tie, eps = +1
    signs = np.array([1, -1])
    factors = u[0] * np.sqrt(2.0) / (1 + 1j * signs)
    # targets[row, parity of s]: the identity's eigenvalue factor (1 + i eps (-1)^s)/sqrt(2) on E(s)
    targets = factors[:, None] * (1 + 1j * signs[:, None] * np.array([1.0, -1.0])) / np.sqrt(2.0)
    devs = np.array([max(np.abs(u[0::2] - even).max(), np.abs(u[1::2] - odd).max()) for even, odd in targets])
    best = int(np.argmin(devs))
    sign, factor = int(signs[best]), complex(factors[best])

    dense_dev = _chain_identity_dev(spec, tau, factor, sign) if spec.M <= 8 else None
    return AppendixReport(
        N=N, alpha=alpha, beta=beta, tau=tau, delta=delta, phi_prime=float(-np.angle(factor)),
        sign=sign, factor=factor, delta_dev=delta_dev, assembled_max_dev=float(devs[best]),
        dense_identity_dev=dense_dev, certificate=cert, exact=_confirms(cert),
        resolved=walk.resolves(spec.reach, tau, 1e-10),
    )


def _phases(N: int, alpha: float, beta: float, tau: float):
    """The appendix's phases at tau: the winding terms M_s for s = 0..N-1 (an array), delta and phi."""
    s = np.arange(N, dtype=float)
    # tau * alpha first: 4 * tau can overflow where the product with alpha does not
    with np.errstate(over="ignore", invalid="ignore"):
        winding = 4 * (tau * alpha) * s ** 2 - 2 * (tau * alpha) * (N - 1) * s - 2 * (tau * beta) * s
    delta = (tau / 2.0) * (alpha - alpha * (N - 1) - beta)
    phi = tau * (alpha / 4.0 * (N - 1) * (N - 2) + beta / 2.0 * (N - 1)) + delta
    return winding, delta, phi


def _chain_identity_dev(spec: walk.WalkSpec, tau: float, factor: complex, sign: int) -> float:
    """max |e^{-i tau H} - factor (I + i sign J)/sqrt(2)| over all 4^M entries, from the site-1 chain.

    H = (beta/2)A_1 + (alpha/2)A_2 is a Cayley graph on Z_2^M, so the entry
    (x, y) of its propagator depends on the weight w of x xor y alone, as does
    the target's t_w: factor/sqrt(2) at w = 0, i sign factor/sqrt(2) at w = M,
    0 elsewhere.  The maximum is exactly max_w |g_w - t_w|, with g_w the
    site-1 chain evolved by tau, times chain.graph_phase, over sqrt(C(M, w)).
    """
    N = spec.M + 1
    coords = chain.chain_evolve(chain.ChainSpec(N, spec.alpha, spec.beta), chain.site_state(N, 1), tau)
    g = coords * chain.graph_phase(N, spec.alpha, tau) / np.sqrt(quotient.ColumnBasis(N).sizes)
    target = np.zeros(N, dtype=complex)
    target[[0, -1]] = factor * np.array([1.0, 1j * sign]) / np.sqrt(2.0)
    return float(np.abs(g - target).max())
