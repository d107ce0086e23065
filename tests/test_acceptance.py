"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time
from math import pi

import numpy as np

from fracrevival import oracle, quotient, revival, walk


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def best_time(fn, repeats: int = 3) -> float:
    fn()  # warm caches outside the clock
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def balanced_revival_holds(spec: walk.WalkSpec, tau: float, tol: float) -> bool:
    amp = walk.antipodal_amplitudes(spec, tau)
    rotated = amp.nu * np.exp(-1j * np.angle(amp.mu))
    return (
        abs(abs(amp.mu) ** 2 - 0.5) < tol
        and abs(abs(amp.nu) ** 2 - 0.5) < tol
        and abs(amp.leakage) < tol
        and abs(rotated.real) < tol
    )


def certified_fr_cases(max_n: int):
    """Every balanced-FR certificate over the ratio grid p, q in [1,5] plus beta = 0."""
    cases = []
    for N in range(2, max_n + 1):
        for p in range(1, 6):
            for q in range(1, 6):
                cert = revival.check_conditions(N, float(p), float(q))
                if cert.kind == revival.BALANCED_FR:
                    cases.append((N, float(p), float(q), cert))
        cert = revival.check_conditions(N, 1.0, 0.0)
        if cert.kind == revival.BALANCED_FR:
            cases.append((N, 1.0, 0.0, cert))
    return cases


def test_criterion_1_unweighted_balanced_fr():
    spec = walk.WalkSpec(M=3, alpha=2.0, beta=2.0)
    ok = balanced_revival_holds(spec, pi / 4, 1e-9)
    elapsed = best_time(lambda: walk.antipodal_amplitudes(spec, pi / 4))
    ok = ok and elapsed < 0.010
    report(1, ok, f"N=4 unweighted graph: balanced FR at tau=pi/4 ({elapsed * 1e3:.2f} ms)")


def test_criterion_2_nnn_only_balanced_fr():
    spec = walk.WalkSpec(M=4, alpha=1.0, beta=0.0)
    ok = balanced_revival_holds(spec, pi / 2, 1e-9)
    elapsed = best_time(lambda: walk.antipodal_amplitudes(spec, pi / 2))
    ok = ok and elapsed < 0.010
    report(2, ok, f"N=5, beta=0: balanced FR at tau=pi/2 ({elapsed * 1e3:.2f} ms)")


def test_criterion_3_pst_limit():
    ok = True
    for N in range(2, 13):
        amp = walk.antipodal_amplitudes(walk.WalkSpec(M=N - 1, alpha=0.0, beta=1.0), pi)
        ok = ok and abs(abs(amp.nu) ** 2 - 1.0) < 1e-9
    spec12 = walk.WalkSpec(M=11, alpha=0.0, beta=1.0)
    elapsed = best_time(lambda: walk.antipodal_amplitudes(spec12, pi))
    ok = ok and elapsed < 0.100
    report(3, ok, f"alpha=0, beta=1: PST at tau=pi for N=2..12 (N=12 in {elapsed * 1e3:.2f} ms)")


def test_criterion_4_pst_at_double_fr():
    cases = certified_fr_cases(12)
    ok = bool(cases)
    for N, alpha, beta, cert in cases:
        amp = walk.antipodal_amplitudes(walk.WalkSpec(N - 1, alpha, beta), 2 * cert.tau_fr)
        ok = ok and abs(amp.nu) > 1 - 1e-9
    report(4, ok, f"|nu| > 1 - 1e-9 at 2*tau_FR for all {len(cases)} certified FR cases, N <= 12")


def test_criterion_5_graph_chain_equivalence():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst_dev = worst_leak = 0.0
    for _ in range(50):
        N = int(rng.integers(2, 11))
        alpha = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(-2, 2))
        if abs(alpha) < 1e-3 and abs(beta) < 1e-3:
            alpha = 1.0
        tau = float(rng.uniform(0, 2 * pi))
        rep = quotient.equivalence_check(N, alpha, beta, tau)
        worst_dev = max(worst_dev, rep.max_deviation)
        worst_leak = max(worst_leak, abs(rep.leakage))
    elapsed = time.perf_counter() - start
    ok = worst_dev < 1e-10 and worst_leak < 1e-10 and elapsed < 5.0
    report(5, ok, f"50 random tuples: dev <= {worst_dev:.2e}, leak <= {worst_leak:.2e} in {elapsed:.2f} s")


def test_criterion_6_quotient_matrix_elements():
    ok = True
    for N in range(2, 11):
        table = quotient.quotient_matrix_elements(N)
        shifted = quotient.verify_shifted_diagonal(N)
        ok = ok and table.exact_closed_forms and table.max_closed_form_deviation < 1e-12
        ok = ok and shifted.exact and shifted.max_deviation < 1e-12
    report(6, ok, "explicit summation reproduces 2J_n, 2J_nJ_(n+-1), (n-1)(N-n) and the shifted diagonal, N <= 10")


def test_criterion_7_appendix_identity():
    cases = [c for c in certified_fr_cases(9) if c[0] - 1 <= 8]
    ok = bool(cases)
    for N, alpha, beta, _ in cases:
        rep = revival.appendix_phase_check(N, alpha, beta)
        ok = ok and rep.dense_identity_dev is not None and rep.dense_identity_dev < 1e-10
        ok = ok and rep.passed
    report(7, ok, f"e^(-i tau H) = e^(-i phi')(A_0 +- i A_M)/sqrt(2) entrywise for {len(cases)} certified cases, M <= 8")


def test_criterion_8_algebraic_suite():
    ok = True
    for M in range(1, 11):
        for i in range(M + 1):
            ok = ok and oracle.verify_bose_mesner_row(i, M).max_deviation == 0
    for M in range(2, 11):
        one = oracle.verify_bose_mesner_row(1, M)  # A_1^2 = 2 A_2 + M A_0
        ok = ok and (one.c_next, one.b_prev) == (2, M) and one.max_deviation == 0
    for M in range(1, 13):
        for s in range(M + 1):
            ok = ok and oracle.krawtchouk(M, s, M) == (-1) ** s
        for n in range(M + 1):
            for x in range(M + 1):
                ok = ok and oracle.krawtchouk(n, x, M) == oracle.krawtchouk_hypergeometric(n, x, M)
    report(8, ok, "Bose-Mesner rows and A_1^2 = 2A_2 + M exact (M <= 10); endpoint and recurrence/2F1 exact (M <= 12)")


def test_criterion_9_engine_correctness_and_speed():
    rng = np.random.default_rng(2027)
    ok = True
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(1, 9))
        spec = walk.WalkSpec(M=M, alpha=float(rng.uniform(-2, 2)), beta=float(rng.uniform(-2, 2)))
        tau = float(rng.uniform(-4, 4))
        psi = rng.normal(size=1 << M) + 1j * rng.normal(size=1 << M)
        psi /= np.linalg.norm(psi)
        fast = walk.evolve_graph(spec, psi, tau)
        slow = oracle.dense_oracle_evolve(spec, psi, tau)
        worst = max(worst, float(np.abs(fast - slow).max()))
        ok = ok and abs(np.linalg.norm(fast) - 1.0) < 1e-12
    ok = ok and worst < 1e-11
    spec20 = walk.WalkSpec(M=20, alpha=2.0, beta=2.0)
    psi20 = walk.corner_state(20)
    start = time.perf_counter()
    out = walk.evolve_graph(spec20, psi20, 0.37)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0 and abs(np.linalg.norm(out) - 1.0) < 1e-12
    report(9, ok, f"engine vs oracle dev {worst:.2e} over 100 trials; M=20 evolution in {elapsed:.2f} s")


def test_criterion_10_negative_certification():
    ok = True
    # parity rule violated: N=5 with alpha=beta=2 (q and N both odd)
    spec = walk.WalkSpec(M=4, alpha=2.0, beta=2.0)
    outcome = revival.scan_balanced_fr(spec, 2 * pi / 2.0)
    amp = walk.antipodal_amplitudes(spec, pi / 4)  # would-be tau_FR
    ok = ok and not outcome.balanced_found
    ok = ok and (abs(amp.leakage) > 1e-6 or abs(abs(amp.mu) ** 2 - 0.5) > 1e-6)
    # p even: PST only for N=4, alpha=2, beta=1; no balanced FR anywhere
    spec = walk.WalkSpec(M=3, alpha=2.0, beta=1.0)
    outcome = revival.scan_balanced_fr(spec, 2 * pi)
    amp = walk.antipodal_amplitudes(spec, pi / 2)  # would-be tau_FR = pi q / (2 beta)
    ok = ok and not outcome.balanced_found
    ok = ok and (abs(amp.leakage) > 1e-6 or abs(abs(amp.mu) ** 2 - 0.5) > 1e-6)
    # certify_numeric agrees end to end
    ok = ok and revival.certify_numeric(5, 2.0, 2.0).passed
    ok = ok and revival.certify_numeric(4, 2.0, 1.0).passed
    report(10, ok, "scans confirm no balanced FR for N=5 a=b=2 and N=4 a=2 b=1 at candidate times")
