"""Output checks that do not rely on the package under test.

Every expected value here comes from the paper's closed forms, evaluated by
this file: the parity rule for the revival kind, the revival times, and the
Krawtchouk form of the corner and antipode amplitudes.  A check returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import functools
import json
import cmath
import math
from math import comb

BALANCED_FR = "balanced_FR"
PST_ONLY = "PST_only"
NONE = "none"

PROB_TOL = 1e-9       # the paper's probabilities at certified times
TIME_RTOL = 1e-12     # revival times against pi q / (2 |beta|)
REPORT_TOL = 1e-10    # probability sums, quotient deviation, leakage
CORNER_TOL = 1e-12    # corner and antipode amplitudes against the closed form


def expected_kind(N: int, p: int | None, q: int | None) -> str:
    """The paper's parity rule for alpha/beta = p/q in lowest terms (q None: beta = 0)."""
    if q is None:
        return BALANCED_FR if N % 2 == 1 else NONE
    if p % 2 == 0:
        return PST_ONLY
    return BALANCED_FR if q % 2 != N % 2 else NONE


def revival_times(alpha: float, beta: float, q: int | None) -> tuple[float, float]:
    """(tau_FR, tau_PST); tau_FR is the half period even where no FR exists."""
    if q is None:
        tau = math.pi / (2.0 * abs(alpha))
    else:
        tau = math.pi * q / (2.0 * abs(beta))
    return tau, 2.0 * tau


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _malformed_is_a_failure(check):
    """A report that does not parse is a failed op, not a crashed benchmark."""

    @functools.wraps(check)
    def guarded(op, code, text):
        try:
            return check(op, code, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"

    return guarded


@_malformed_is_a_failure
def check_verify(op, code: int, text: str) -> str | None:
    """A `verify` report against the verdict and times the generator's (p, q, N) imply."""
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(text)
    kind = expected_kind(op.N, op.p, op.q)
    cert = doc["certificate"]
    if cert["kind"] != kind:
        return f"kind {cert['kind']!r}, expected {kind!r}"
    if op.q is not None and (doc["params"]["p"], doc["params"]["q"]) != (op.p, op.q):
        return f"ratio {doc['params']['p']}/{doc['params']['q']}, expected {op.p}/{op.q}"
    tau_fr, tau_pst = revival_times(op.alpha, op.beta, op.q)
    mu = complex(*doc["numeric"]["mu"])
    nu = complex(*doc["numeric"]["nu"])
    if kind == BALANCED_FR:
        if not _close(cert["tau_fr"], tau_fr, TIME_RTOL):
            return f"tau_fr {cert['tau_fr']!r}, expected {tau_fr!r}"
        if abs(abs(mu) ** 2 - 0.5) > PROB_TOL or abs(abs(nu) ** 2 - 0.5) > PROB_TOL:
            return f"probabilities {abs(mu) ** 2!r}, {abs(nu) ** 2!r}, expected 1/2 each"
    elif kind == PST_ONLY:
        if not _close(cert["tau_pst"], tau_pst, TIME_RTOL):
            return f"tau_pst {cert['tau_pst']!r}, expected {tau_pst!r}"
        if abs(abs(nu) ** 2 - 1.0) > PROB_TOL:
            return f"antipode probability {abs(nu) ** 2!r}, expected 1"
    elif doc["scan"] is None or doc["scan"]["balanced_found"]:
        return "refusal without a clean scan"
    return None


def graph_energies(M: int, alpha: float, beta: float) -> list[float]:
    """E_s = (alpha/2) ((M - 2s)^2 - M) / 2 + (beta/2) (M - 2s), s = 0..M."""
    return [0.25 * alpha * ((M - 2 * s) ** 2 - M) + 0.5 * beta * (M - 2 * s) for s in range(M + 1)]


def corner_amplitudes(M: int, alpha: float, beta: float, tau: float) -> tuple[complex, complex]:
    """Corner and antipode amplitudes at tau of the walk started at the corner.

    2^-M sum_s K_s(d) e^{-i tau E_s} at d = 0 and d = M, where K_s(0) = C(M, s)
    and K_s(M) = (-1)^s C(M, s).
    """
    terms = [comb(M, s) * cmath.exp(-1j * tau * e) / 2.0**M for s, e in enumerate(graph_energies(M, alpha, beta))]
    return sum(terms), sum(t if s % 2 == 0 else -t for s, t in enumerate(terms))


def _report_rows(doc_or_lines, as_json: bool):
    """(system, index, amplitude, probability) rows plus (quotient deviation, leakage) of an `evolve` report."""
    if as_json:
        rows = [(a["system"], a["index"], complex(a["re"], a["im"]), a["probability"])
                for a in doc_or_lines["amplitudes"]]
        return rows, doc_or_lines["quotient_max_deviation"], doc_or_lines["leakage"]
    rows, extras = [], {}
    for line in doc_or_lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            extras[key] = float(value)
        else:
            system, index, re, im, prob = line.split(",")
            rows.append((system, int(index), complex(float(re), float(im)), float(prob)))
    return rows, extras.get("quotient_max_deviation"), extras.get("leakage")


@_malformed_is_a_failure
def check_report(op, code: int, text: str) -> str | None:
    """An `evolve` report: row counts, probability sums, the graph's corner and
    antipode amplitudes, quotient deviation and leakage."""
    if code != 0:
        return f"exit code {code}"
    if not text.endswith("\n"):
        return "report does not end with a newline"
    if op.as_json:
        rows, dev, leak = _report_rows(json.loads(text), True)
    else:
        lines = text[:-1].split("\n")
        if lines[0] != "system,index,re,im,probability":
            return f"header {lines[0]!r}"
        rows, dev, leak = _report_rows(lines, False)
    expected = {"graph": 1 << (op.N - 1)}
    if op.both:
        expected["chain"] = op.N
    for system, count in expected.items():
        probs = [prob for name, _, _, prob in rows if name == system]
        if len(probs) != count:
            return f"{len(probs)} {system} rows, expected {count}"
        if abs(math.fsum(probs) - 1.0) > REPORT_TOL:
            return f"{system} probabilities sum to {math.fsum(probs)!r}"
    if len(rows) != sum(expected.values()):
        return f"{len(rows)} rows, expected {sum(expected.values())}"
    corner, antipode = corner_amplitudes(op.N - 1, op.alpha, op.beta, op.tau)
    ends = {("graph", 0): corner, ("graph", (1 << (op.N - 1)) - 1): antipode}
    amps = {(system, index): amp for system, index, amp, _ in rows if (system, index) in ends}
    for key, want in ends.items():
        if abs(amps[key] - want) > CORNER_TOL:
            return f"{key[0]} amplitude {key[1]} is {amps[key]!r}, closed form {want!r}"
    if op.both:
        if dev is None or leak is None:
            return "quotient deviation or leakage missing"
        if dev > REPORT_TOL or abs(leak) > REPORT_TOL:
            return f"quotient deviation {dev!r}, leakage {leak!r}"
    return None
