"""Command-line interface: exit codes, schemas, determinism."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from math import pi
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracrevival import chain, cli, quotient, revival, scheme, walk
from fracrevival.errors import InvalidInputError

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def certify(argv):
    """revival.certify_numeric on the model of a verify or appendix command line."""
    args = cli.build_parser().parse_args(argv)
    return revival.certify_numeric(args.N, args.alpha, args.beta, p=args.p, q=args.q)


def test_verify_unweighted_graph(capsys):
    code, out, _ = run(capsys, ["verify", "--N", "4", "--alpha", "2", "--beta", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["params"] == {"N": 4, "alpha": 2, "beta": 2, "p": 1, "q": 1}
    assert payload["certificate"]["kind"] == "balanced_FR"
    assert payload["certificate"]["tau_fr"] == pytest.approx(pi / 4)
    mu = payload["numeric"]["mu"]
    assert mu[0] ** 2 + mu[1] ** 2 == pytest.approx(0.5, abs=1e-9)
    assert payload["numeric"]["leakage"] < 1e-9
    assert payload["appendix"]["max_identity_dev"] < 1e-10
    assert payload["scan"] is None


def test_verify_refused_case_reports_scan(capsys):
    code, out, _ = run(capsys, ["verify", "--N", "5", "--alpha", "2", "--beta", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["kind"] == "none"
    assert payload["appendix"] is None
    assert payload["scan"]["balanced_found"] is False
    assert payload["scan"]["steps"] == 10000


def test_verify_rejects_degenerate_couplings(capsys):
    code, out, err = run(capsys, ["verify", "--N", "3", "--alpha", "0", "--beta", "0"])
    assert code == 1
    assert out == ""
    assert "(alpha, beta) != (0, 0)" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_rejects_non_finite_couplings(capsys, value):
    code, out, err = run(capsys, ["verify", "--N", "5", "--alpha", value, "--beta", "1"])
    assert code == 1
    assert out == ""
    assert "alpha and beta must be finite" in err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--alpha", "-inf", "--beta", "1"], "alpha and beta must be finite"),
    (["verify", "--alpha", "1", "--beta", "-nan"], "alpha and beta must be finite"),
    (["appendix", "--alpha", "-INFINITY", "--beta", "1"], "alpha and beta must be finite"),
    (["evolve", "--alpha", "1", "--beta", "1", "--tau", "-inf", "--target", "both"], "tau must be finite"),
    (["evolve", "--alpha", "-Inf", "--beta", "1", "--tau", "1"], "alpha and beta must be finite"),
    (["scan", "--alpha", "1", "--beta", "1", "--tau-max", "-Infinity"], "empty tau range [0.0, -inf]"),
    (["quotient", "--alpha", "1", "--beta", "1", "--tau", "-NaN"], "tau must be finite"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_negative_inf_and_nan_are_values_not_options(capsys, argv, message):
    assert run(capsys, argv + ["--N", "4"]) == (1, "", f"error: {message}\n")


def test_verify_mismatch_exits_two(capsys):
    # the two-site exception: certificate says none, the scan finds revival
    code, out, _ = run(capsys, ["verify", "--N", "2", "--alpha", "1", "--beta", "2"])
    assert code == 2
    payload = json.loads(out)
    assert payload["certificate"]["kind"] == "none"
    assert payload["scan"]["balanced_found"] is True


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["verify", "--N", "6", "--alpha", "3", "--beta", "1"])
    _, second, _ = run(capsys, ["verify", "--N", "6", "--alpha", "3", "--beta", "1"])
    assert first == second


def test_verify_round_trip_from_parsed_params(capsys):
    _, first, _ = run(capsys, ["verify", "--N", "4", "--alpha", "2", "--beta", "2"])
    params = json.loads(first)["params"]
    argv = [
        "verify",
        "--N", str(params["N"]),
        "--alpha", repr(float(params["alpha"])),
        "--beta", repr(float(params["beta"])),
    ]
    _, second, _ = run(capsys, argv)
    assert first == second


def test_evolve_graph_rows(capsys):
    code, out, _ = run(
        capsys, ["evolve", "--N", "4", "--alpha", "2", "--beta", "2", "--tau", "fr", "--target", "graph"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "system,index,re,im,probability"
    assert len(lines) == 9  # header + 8 vertices
    probs = {int(line.split(",")[1]): float(line.split(",")[4]) for line in lines[1:]}
    assert probs[0] == pytest.approx(0.5, abs=1e-9)
    assert probs[7] == pytest.approx(0.5, abs=1e-9)
    assert max(probs[i] for i in range(1, 7)) < 1e-10


def test_evolve_chain_pst(capsys):
    code, out, _ = run(
        capsys,
        ["evolve", "--N", "3", "--alpha", "0", "--beta", "1",
         "--tau", "3.141592653589793", "--target", "chain"],
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 3
    by_site = {int(r[1]): float(r[4]) for r in rows}
    assert by_site[3] == pytest.approx(1.0, abs=1e-9)


def test_evolve_both_appends_quotient_deviation(capsys):
    code, out, _ = run(
        capsys, ["evolve", "--N", "4", "--alpha", "2", "--beta", "2", "--tau", "fr", "--target", "both"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len([l for l in lines if l.startswith("graph,")]) == 8
    assert len([l for l in lines if l.startswith("chain,")]) == 4
    dev_line = [l for l in lines if l.startswith("# quotient_max_deviation")][0]
    assert float(dev_line.split("=")[1]) < 1e-10


def test_evolve_json_format(capsys):
    code, out, _ = run(
        capsys,
        ["evolve", "--N", "3", "--alpha", "1", "--beta", "1", "--tau", "0.5",
         "--target", "both", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 0.5
    assert len(payload["amplitudes"]) == 4 + 3
    assert payload["quotient_max_deviation"] < 1e-10


def test_evolve_symbolic_tau_requires_certificate(capsys):
    code, _, err = run(
        capsys, ["evolve", "--N", "5", "--alpha", "2", "--beta", "2", "--tau", "fr"]
    )
    assert code == 1
    assert "no FR time" in err


def test_evolve_requires_tau(capsys):
    code, out, err = run(capsys, ["evolve", "--N", "4", "--alpha", "2", "--beta", "2"])
    assert (code, out) == (1, "")
    assert err.endswith("error: the following arguments are required: --tau\n")


CHAIN_AT_TAU_1 = ["--alpha", "1", "--beta", "1", "--tau", "1", "--target", "chain"]


@pytest.mark.parametrize("refused, limit, message, runs", [
    (["evolve", "--N", "5"] + CHAIN_AT_TAU_1, "4", "the chain Hamiltonian needs 25 elements",
     ["evolve", "--N", "4"] + CHAIN_AT_TAU_1),
    (["evolve", "--N", "17"] + CHAIN_AT_TAU_1, "4", "the chain state needs 17 elements",
     ["evolve", "--N", "4"] + CHAIN_AT_TAU_1),
    (["appendix", "--N", "10", "--alpha", "1", "--beta", "1"], "3", "the spectrum needs 10 elements",
     ["appendix", "--N", "10", "--alpha", "1", "--beta", "1"]),
    # at M <= 8 the entrywise identity builds the N x N chain matrix, and no 2^M table
    (["appendix", "--N", "9", "--alpha", "0.6", "--beta", "0.4"], "6", "the chain Hamiltonian needs 81 elements",
     ["appendix", "--N", "4", "--alpha", "2", "--beta", "2"]),
], ids=["chain_hamiltonian", "chain_state", "spectrum", "appendix_chain"])
def test_chain_and_spectrum_refused_before_allocation(capsys, monkeypatch, refused, limit, message, runs):
    monkeypatch.setenv("REVIVAL_MAX_M", limit)
    code, out, err = run(capsys, refused)
    assert (code, out, err) == (
        1, "", f"error: {message}, above the guard (2^{limit}); set REVIVAL_MAX_M to override\n")
    monkeypatch.setenv("REVIVAL_MAX_M", "4")
    assert run(capsys, runs)[0] == 0


def test_evolve_above_the_guard_is_refused_before_any_amplitude(capsys, monkeypatch):
    # the report's 2^M rows are the one 2^M table evolve builds, so that guard refuses first
    def no_amplitudes(*args):
        raise AssertionError("amplitudes computed before the 2^M guard")

    monkeypatch.setattr(walk, "column_amplitudes", no_amplitudes)
    for target in ("graph", "both"):
        argv = ["evolve", "--N", "28", "--alpha", "1", "--beta", "1", "--tau", "1", "--target", target]
        assert run(capsys, argv) == (1, "", "error: M = 27 exceeds the guard (26); set REVIVAL_MAX_M to override\n")


@pytest.mark.parametrize("N", range(5, 13))
def test_verdicts_build_no_two_to_the_m_table(capsys, monkeypatch, N):
    # above M = 3, where verify still checks the FWHT engine, no verdict calls the 2^M guard
    def refuse(M):
        raise AssertionError(f"the 2^M guard was called at M = {M}")

    for name, module in list(sys.modules.items()):
        if name.startswith("fracrevival") and hasattr(module, "check_size"):
            monkeypatch.setattr(module, "check_size", refuse)
    fr_beta = "1" if N % 2 == 0 else "2"  # alpha/beta = 1/q needs q and N of opposite parity
    for argv in (["verify", "--alpha", "1", "--beta", "1"], ["verify", "--alpha", "1", "--beta", "2"],
                 ["appendix", "--alpha", "1", "--beta", fr_beta],
                 ["scan", "--alpha", "1", "--beta", "1", "--steps", "200"],
                 ["quotient", "--alpha", "1", "--beta", "1", "--tau", "1.3"]):
        code, out, err = run(capsys, argv + ["--N", str(N)])
        assert (code, err) == (0, ""), argv


def test_verdicts_run_to_the_binomial_budget(capsys):
    # (M + 1)^2 <= 2^26 up to M = 8191: the binomial row C(M, s) bounds verify and scan
    code, out, err = run(capsys, ["verify", "--N", "8192", "--alpha", "1", "--beta", "1"])
    assert (code, err) == (0, "") and json.loads(out)["certificate"]["kind"] == "balanced_FR"
    assert run(capsys, ["verify", "--N", "8193", "--alpha", "1", "--beta", "1"]) == (
        1, "", "error: the binomial row C(8192, s) needs 67125249 elements, above the guard (2^26); "
               "set REVIVAL_MAX_M to override\n")


def test_scan_header_and_zero_row(capsys):
    code, out, _ = run(capsys, ["scan", "--N", "4", "--alpha", "2", "--beta", "2", "--steps", "8"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "tau,p_corner,p_antipode,leakage"
    assert len(lines) == 10
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, abs=1e-12)
    assert first[2] == pytest.approx(0.0, abs=1e-12)
    assert first[3] == pytest.approx(0.0, abs=1e-12)


def test_scan_shows_revival_row(capsys):
    # default window 2 pi / 2 = pi with 2000 steps puts tau = pi/4 at row 500
    code, out, _ = run(capsys, ["scan", "--N", "4", "--alpha", "2", "--beta", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2002
    row = [float(v) for v in lines[1 + 500].split(",")]
    assert row[0] == pytest.approx(pi / 4)
    assert row[1] == pytest.approx(0.5, abs=1e-9)
    assert row[2] == pytest.approx(0.5, abs=1e-9)


def test_scan_pst_row(capsys):
    code, out, _ = run(capsys, ["scan", "--N", "3", "--alpha", "0", "--beta", "1", "--steps", "4"])
    assert code == 0
    lines = out.strip().split("\n")
    row = [float(v) for v in lines[3].split(",")]  # tau = pi
    assert row[0] == pytest.approx(pi)
    assert row[2] == pytest.approx(1.0, abs=1e-9)


def test_scan_empty_range(capsys):
    code, _, err = run(
        capsys, ["scan", "--N", "3", "--alpha", "1", "--beta", "1", "--tau-max", "0"]
    )
    assert code == 1
    assert "empty" in err


class GridReached(Exception):
    pass


def test_scan_steps_are_bounded(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise GridReached(args)

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    for steps in (revival.MAX_SCAN_STEPS + 1, 10 ** 8):
        code, out, err = run(
            capsys, ["scan", "--N", "4", "--alpha", "1", "--beta", "1", "--steps", str(steps)]
        )
        assert code == 1
        assert out == ""
        assert f"steps must be at most {revival.MAX_SCAN_STEPS}" in err
    # the largest accepted grid gets as far as np.linspace(start, stop, steps + 1)
    with pytest.raises(GridReached) as reached:
        cli.main(["scan", "--N", "4", "--alpha", "1", "--beta", "1",
                  "--steps", str(revival.MAX_SCAN_STEPS)])
    assert reached.value.args[0][2] == revival.MAX_SCAN_STEPS + 1


def run_without_warnings(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert caught == []
    return code, out, err


def test_scan_overflowing_phase_exits_one_without_warnings(capsys):
    argv = ["scan", "--N", "4", "--alpha", "1e300", "--beta", "1e300", "--tau-max", "1e10",
            "--steps", "5"]
    code, out, err = run_without_warnings(capsys, argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: tau * max|E| overflows")


@pytest.mark.parametrize("window", [["--tau-max", "inf"], ["--tau-min=-inf"],
                                    ["--tau-min=-inf", "--tau-max", "inf"],
                                    ["--tau-min=-1e308", "--tau-max", "1e308"]])
def test_scan_infinite_range_exits_one_without_warnings(capsys, window):
    argv = ["scan", "--N", "4", "--alpha", "1", "--beta", "1", "--steps", "5"] + window
    code, out, err = run_without_warnings(capsys, argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: tau range [") and err.endswith("must have a finite width\n")


@pytest.mark.parametrize("window, bounds", [(["--tau-max", "nan"], (0.0, float("nan"))),
                                           (["--tau-min", "nan"], (float("nan"), 2.0 * pi))])
def test_scan_nan_tau_bound_exits_one(capsys, window, bounds):
    # a NaN bound is not a number, not an empty range
    message = f"tau bounds must be numbers, got [{bounds[0]}, {bounds[1]}]"
    argv = ["scan", "--N", "4", "--alpha", "1", "--beta", "1"] + window
    assert run_without_warnings(capsys, argv) == (1, "", f"error: {message}\n")
    with pytest.raises(InvalidInputError) as refused:
        revival.tau_grid(*bounds, 5)
    assert str(refused.value) == message


@pytest.mark.parametrize("tau_max, steps, message", [
    (0.0, 5, "empty tau range [0.0, 0.0]"),
    (3.0, 0, "need at least one step"),
    (3.0, revival.MAX_SCAN_STEPS + 1,
     f"steps must be at most {revival.MAX_SCAN_STEPS}, got {revival.MAX_SCAN_STEPS + 1}"),
    (float("inf"), 5, "tau range [0.0, inf] must have a finite width"),
])
def test_scan_and_library_share_tau_grid_refusals(capsys, monkeypatch, tau_max, steps, message):
    def no_grid(*args, **kwargs):
        raise GridReached(args)

    monkeypatch.setattr(np, "linspace", no_grid)
    code, out, err = run(capsys, ["scan", "--N", "4", "--alpha", "1", "--beta", "1",
                                  "--tau-max", repr(tau_max), "--steps", str(steps)])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    with pytest.raises(InvalidInputError) as refused:
        revival.scan_balanced_fr(walk.WalkSpec(M=3, alpha=1.0, beta=1.0), tau_max, steps)
    assert str(refused.value) == message


@pytest.mark.parametrize("argv, message", [
    # an alpha/beta that overflows a float has no close rational
    (["verify", "--N", "4", "--alpha", "1e300", "--beta", "1e-10"], "tau * max|E| overflows a float"),
    (["verify", "--N", "4", "--alpha", "1", "--beta", "1e-310"],
     "tau range [0.0, inf] must have a finite width"),
    (["appendix", "--N", "4", "--alpha", "1e300", "--beta", "1e-10"], "appendix identity requires balanced FR"),
    (["evolve", "--N", "4", "--alpha", "1e300", "--beta", "1e-10", "--tau", "pst"], "no PST time"),
    (["quotient", "--N", "4", "--alpha", "1", "--beta", "1e-310", "--tau", "fr"], "no FR time"),
    # --p/--q must agree with alpha/beta, and beta = 0 has no ratio to agree with
    (["verify", "--N", "4", "--alpha", "2", "--beta", "2", "--p", "2", "--q", "1"],
     "p/q = 2/1 contradicts alpha/beta = 1.0"),
    (["verify", "--N", "5", "--alpha", "2", "--beta", "2", "--p", "1", "--q", "2"],
     "p/q = 1/2 contradicts alpha/beta = 1.0"),
    (["verify", "--N", "5", "--alpha", "2", "--beta", "0", "--p", "1", "--q", "2"],
     "p/q = 1/2 contradicts alpha/beta = inf"),
    (["appendix", "--N", "4", "--alpha", "2", "--beta", "2", "--p", "1", "--q", "3"],
     "p/q = 1/3 contradicts alpha/beta = 1.0"),
    # couplings at the ends of the float range: the spectrum, or tau_fr, overflows
    (["verify", "--N", "4", "--alpha", "1e308", "--beta", "1e308"], "the spectrum overflows a float"),
    (["appendix", "--N", "4", "--alpha", "1e308", "--beta", "1e308"], "the spectrum overflows a float"),
    (["evolve", "--N", "4", "--alpha", "1e308", "--beta", "1e308", "--tau", "fr"],
     "the spectrum overflows a float"),
    (["scan", "--N", "4", "--alpha", "1e308", "--beta", "1e308"], "the spectrum overflows a float"),
    (["verify", "--N", "4", "--alpha", "1e-310", "--beta", "1e-310"], "tau must be finite"),
    (["appendix", "--N", "4", "--alpha", "1e-310", "--beta", "1e-310"], "tau must be finite"),
    (["evolve", "--N", "4", "--alpha", "1e-310", "--beta", "1e-310", "--tau", "fr"], "tau must be finite"),
    (["scan", "--N", "4", "--alpha", "1e-310", "--beta", "1e-310"],
     "tau range [0.0, inf] must have a finite width"),
    # (0, 0) is no model, so it is refused before the time
    (["evolve", "--N", "4", "--alpha", "0", "--beta", "0", "--tau", "inf", "--target", "chain"],
     "(alpha, beta) != (0, 0) required"),
    # the appendix phases form alpha * (N - 1), or 4 tau alpha s^2, where tau * E stays finite
    (["appendix", "--N", "3", "--alpha", "1e308", "--beta", "0"], "the winding, delta or phi phase overflows"),
    (["verify", "--N", "3", "--alpha", "1e308", "--beta", "0"], "the winding, delta or phi phase overflows"),
    (["appendix", "--N", "3", "--alpha=-8.99e307", "--beta", "1e308"],
     "the winding, delta or phi phase overflows"),
    # an odd p next to 1e306 gives balanced FR at N = 16, where 4 tau alpha M^2 overflows
    (["appendix", "--N", "16", "--alpha", "1e306", "--beta", "1", "--p", str(int(1e306) + 1), "--q", "1"],
     "the winding, delta or phi phase overflows"),
    # the chain phase tau (alpha/4)(N - 1) overflows where the walk's max|E| = |beta|/2 at N = 2 does not
    (["quotient", "--N", "2", "--alpha", "1e308", "--beta", "1", "--tau", "10"],
     "the chain phase tau * alpha * (N - 1) / 4 overflows a float"),
    (["evolve", "--N", "2", "--alpha", "1e308", "--beta", "1", "--tau", "10", "--target", "chain"],
     "the chain phase tau * alpha * (N - 1) / 4 overflows a float"),
    (["evolve", "--N", "2", "--alpha", "1e308", "--beta", "1", "--tau", "10", "--target", "both", "--json"],
     "the chain phase tau * alpha * (N - 1) / 4 overflows a float"),
    # scan, evolve at a numeric tau and quotient take no ratio, yet refuse one that contradicts
    (["scan", "--N", "4", "--alpha", "1", "--beta", "1", "--p", "5", "--q", "0", "--steps", "2"],
     "pass both p and q (q nonzero) to fix the ratio exactly"),
    (["evolve", "--N", "4", "--alpha", "1", "--beta", "1", "--p", "7", "--q", "3", "--tau", "0.5"],
     "p/q = 7/3 contradicts alpha/beta = 1.0"),
    (["quotient", "--N", "4", "--alpha", "1", "--beta", "1", "--p", "7", "--q", "3"],
     "p/q = 7/3 contradicts alpha/beta = 1.0"),
    # a model at a non-finite time: the chain refuses the time
    (["evolve", "--N", "4", "--alpha", "1", "--beta", "0", "--tau", "inf", "--target", "chain"],
     "tau must be finite"),
    # p = 2^1024 - 1 is no float: the ratio is refused before p / q is formed
    (["verify", "--N", "3", "--alpha", "1e308", "--beta", "1", "--p", str(2 ** 1024 - 1), "--q", "1"],
     f"p/q = {2 ** 1024 - 1}/1 contradicts alpha/beta = 1e+308"),
])
def test_ratio_inputs_exit_one_with_one_line(capsys, argv, message):
    code, out, err = run_without_warnings(capsys, argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [
    # tau * alpha * (N - 1) overflows, but the chain phase is tau * ((alpha/4)(N - 1)), which fits
    ["quotient", "--N", "3", "--alpha", "6", "--beta", "2e-307", "--tau", "pst"],
    ["evolve", "--N", "3", "--alpha", "6", "--beta", "2e-307", "--tau", "pst", "--target", "both"],
    ["evolve", "--N", "3", "--alpha", "6", "--beta", "2e-307", "--tau", "pst", "--target", "both", "--json"],
    ["evolve", "--N", "3", "--alpha", "1e308", "--beta", "0", "--tau", "1.234", "--target", "both"],
])
def test_a_chain_phase_that_fits_a_float_runs(capsys, argv):
    code, out, err = run_without_warnings(capsys, argv)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("target", ["chain", "both"])
@pytest.mark.parametrize("tau", ["fr", "pst"])
def test_the_chain_runs_where_the_walk_runs(capsys, tau, target):
    # the walk's max|E| is 1.5e308, but H = alpha J^2 + beta J reaches 1.875e308 = max|E| + (alpha/4)(N - 1):
    # only H - cI fits a float
    argv = ["--N", "4", "--alpha", "5e307", "--beta", "5e307", "--tau", tau]
    code, out, err = run_without_warnings(capsys, ["evolve"] + argv + ["--target", target, "--json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    chain_rows = [row for row in report["amplitudes"] if row["system"] == "chain"]
    assert len(chain_rows) == 4 and abs(sum(row["probability"] for row in chain_rows) - 1.0) < 1e-12
    if target == "both":
        assert report["quotient_max_deviation"] < 1e-10 and abs(report["leakage"]) < 1e-10
    code, out, err = run_without_warnings(capsys, ["quotient"] + argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["equivalence"]["passed"] is True


@pytest.mark.parametrize("N", ["1", "0"])
@pytest.mark.parametrize("command", [
    ["verify"], ["appendix"], ["quotient"], ["scan"],
    ["evolve", "--tau", "1.0", "--target", "graph"],
    ["evolve", "--tau", "1.0", "--target", "chain"],
    ["evolve", "--tau", "1.0", "--target", "both"],
])
def test_every_command_refuses_fewer_than_two_sites_in_one_line(capsys, command, N):
    code, out, err = run_without_warnings(capsys, command + ["--N", N, "--alpha", "1", "--beta", "1"])
    assert (code, out, err) == (1, "", f"error: need N >= 2, got {N}\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_scan_rejects_non_finite_couplings(capsys, value):
    code, out, err = run(capsys, ["scan", "--N", "5", "--alpha", value, "--beta", "1"])
    assert code == 1
    assert out == ""
    assert "alpha and beta must be finite" in err


def test_quotient_command(capsys):
    code, out, _ = run(capsys, ["quotient", "--N", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_closed_forms"] is True
    assert payload["max_closed_form_deviation"] < 1e-12
    assert payload["shifted_diagonal"]["exact"] is True
    assert payload["equivalence"] is None


# SHA-256 of `quotient --N n` stdout, pinned from the enumerated pair counts.
# These reports hold only integer-to-float arithmetic and %.17g, no eigh.
QUOTIENT_REPORT_SHA256 = {
    2: "2bffea0dfb7b23f66af567515674a1886f182dde8409e87b77de87e85c743f13",
    3: "bdbe97d4362d510f43ff5cae5f6d7b6627e99293e7890df85a20575de4e4c206",
    4: "1b915157eb1d97db007d487b0cae7cc4412c842ee667281e77f861e8bfa11a43",
    5: "edf164bf895fcdcdd05503afe4484fea516cdfbae61d6108563251e2cdf9b822",
    6: "39161fe8668f1fa0684d54029fafd8efe5470db950058a7f8c204f0e75a60bae",
    7: "5616e2064d06f8b17d42dda7fa41348e6f16af269c7ead444fac2c81fc1570ff",
    8: "9df7c6bce285b2ec0fdf94fe3badb7953d90eaaf45a8e12972880db8880aa46d",
    9: "a99dcef3573a2aedc3460feac973626d1053a18b6774fea5eaa890e192f922c6",
    10: "479cd7882d430485d1d4ce90250e83fb11d325fe1236032aa84ddcf226785131",
    11: "578d52fd4d5f27dbe87f37fdd0e0df41540850b603160d8cc678e6e92704ea8c",
    12: "1ded98575a41890e13ae70ed897417fe82a0d272b595b932bb4d17e1cee6b7cd",
    13: "a40331492f30a5b05aec9d7b225b26836d92b12f15f3c942b3ffad45f983f5fb",
    14: "af58a31c2b9ab600090e7d00c1a26a72e71f20058d285e7dfd3b0599bb2c35af",
}


@pytest.mark.parametrize("N", sorted(QUOTIENT_REPORT_SHA256))
def test_quotient_report_bytes_are_pinned(capsys, N):
    code, out, err = run(capsys, ["quotient", "--N", str(N)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == QUOTIENT_REPORT_SHA256[N]


def test_quotient_above_the_guard_is_refused_before_any_count(capsys, monkeypatch):
    # quotient builds no 2^M table: N = 28 runs, and the pair-count band gets the (M + 1)^2 budget
    code, out, err = run(capsys, ["quotient", "--N", "28"])
    assert (code, err) == (0, "") and json.loads(out)["exact_closed_forms"] is True
    monkeypatch.setattr(quotient, "_pair_counts", None)
    assert run(capsys, ["quotient", "--N", "1000000000"]) == (
        1, "", "error: the pair-count band of M = 999999999 needs 1000000000000000000 elements, "
               "above the guard (2^26); set REVIVAL_MAX_M to override\n")


def test_quotient_at_large_n_needs_no_override(capsys, monkeypatch):
    code, out, err = run(capsys, ["quotient", "--N", "201"])
    assert (code, err) == (0, "")
    assert '"exact_closed_forms": true' in out
    # one rounding of the diagonal near N^2/4 passes the gate relative to the element's size
    code, out, err = run(capsys, ["quotient", "--N", "226"])
    assert (code, err) == (0, "")
    assert json.loads(out)["max_closed_form_deviation"] > 1e-12
    # from M = 63 a column size C(M, w) leaves int64, and no 2^M state is ever built
    code, out, err = run(capsys, ["quotient", "--N", "70", "--alpha", "1", "--beta", "1", "--tau", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["equivalence"]["passed"] is True
    # from N = 518 a product k_a k_b of column sizes leaves the float range,
    # refused before any pair is counted
    def refuse(M, distance):
        raise AssertionError("counted before the overflow refusal")

    monkeypatch.setattr(quotient, "_pair_counts", refuse)
    assert run(capsys, ["quotient", "--N", "600"]) == (
        1, "", "error: the products of the column sizes C(599, n) overflow a float\n")


def test_the_chain_on_site_constant_cancels_in_the_quotient(capsys):
    # the walk at N = 2 has no alpha term (max|E| = 1/2); the chain's on-site alpha (N - 1)/4 = 2.5e7
    # leaves its spectrum before eigh, and its phase cancels against graph_phase, rounding of tau c included
    code, out, err = run(capsys, ["quotient", "--N", "2", "--alpha", "1e8", "--beta", "1", "--tau", "1.3"])
    assert (code, err) == (0, "")
    equivalence = json.loads(out)["equivalence"]
    assert equivalence["passed"] is True and equivalence["max_deviation"] < 1e-14
    assert quotient.equivalence_check(2, 1e8, 1.0, 1.3).resolved
    assert quotient.equivalence_check(2, 1.0, 1.0, 1.3).resolved


@pytest.mark.parametrize("extra", [[], ["--alpha", "1", "--beta", "2", "--tau", "1.234"],
                                   ["--random-trials", "2"]])
def test_quotient_enumerates_distance_two_once(capsys, monkeypatch, extra):
    calls = []
    pair_counts = quotient._pair_counts

    def counted(M, distance):
        calls.append((M, distance))
        return pair_counts(M, distance)

    monkeypatch.setattr(quotient, "_pair_counts", counted)
    code, _, _ = run(capsys, ["quotient", "--N", "7"] + extra)
    assert code == 0
    assert calls.count((6, 2)) == 1


def test_quotient_with_equivalence_and_random_trials(capsys):
    code, out, _ = run(
        capsys,
        ["quotient", "--N", "5", "--alpha", "1.5", "--beta", "0.5", "--tau", "1.1",
         "--random-trials", "5", "--seed", "42"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalence"]["passed"] is True
    assert payload["random_equivalence"]["trials"] == 5
    assert payload["random_equivalence"]["max_deviation"] < 1e-10


def test_quotient_random_trials_gate_on_each_report(capsys, monkeypatch):
    class Failing(quotient.EquivalenceReport):
        passed = False

    real = quotient.equivalence_check
    calls = []

    def second_fails(*args):
        report = real(*args)
        calls.append(report)
        return Failing(**vars(report)) if len(calls) == 2 else report

    monkeypatch.setattr(quotient, "equivalence_check", second_fails)
    code, out, _ = run(capsys, ["quotient", "--N", "5", "--random-trials", "3"])
    assert code == 2
    assert len(calls) == 3
    worst = json.loads(out)["random_equivalence"]
    assert worst["max_deviation"] == pytest.approx(max(r.max_deviation for r in calls), rel=1e-15)
    assert worst["max_leakage"] == pytest.approx(max(abs(r.leakage) for r in calls), rel=1e-15)


def test_quotient_rejects_negative_random_trials(capsys):
    code, out, err = run(capsys, ["quotient", "--N", "5", "--random-trials", "-3"])
    assert code == 1
    assert out == ""
    assert "random trials must be non-negative" in err


def test_quotient_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, ["quotient", "--N", "5", "--random-trials", "1", "--seed", "-1"])
    assert (code, out, err) == (1, "", "error: seed must be non-negative, got -1\n")


def test_quotient_symbolic_tau(capsys):
    code, out, _ = run(
        capsys, ["quotient", "--N", "4", "--alpha", "2", "--beta", "2", "--tau", "fr"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalence"]["tau"] == pytest.approx(pi / 4)
    assert payload["equivalence"]["passed"] is True
    # symbolic tau without an FR certificate is an input error
    code, _, err = run(
        capsys, ["quotient", "--N", "5", "--alpha", "2", "--beta", "2", "--tau", "fr"]
    )
    assert code == 1
    assert "no FR time" in err


def test_verify_exact_ratio_bypass(capsys):
    # alpha = 2/3 cannot be written exactly in binary; --p/--q pins the ratio
    code, out, _ = run(
        capsys,
        ["verify", "--N", "6", "--alpha", "0.6666666666666666", "--beta", "1",
         "--p", "2", "--q", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["kind"] == "PST_only"
    assert payload["certificate"]["tau_pst"] == pytest.approx(3 * pi)
    assert payload["params"]["p"] == 2 and payload["params"]["q"] == 3


def test_appendix_command(capsys):
    code, out, _ = run(capsys, ["appendix", "--N", "4", "--alpha", "2", "--beta", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["appendix"]["max_identity_dev"] < 1e-10
    assert payload["appendix"]["sign"] in (1, -1)


@pytest.mark.parametrize("command", ["appendix", "verify"])
def test_appendix_derives_its_certificate_once(capsys, monkeypatch, command):
    real = revival.check_conditions
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(revival, "check_conditions", counted)
    code, out, _ = run(capsys, [command, "--N", "4", "--alpha", "2", "--beta", "2"])
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["certificate"]["tau_fr"] == pytest.approx(pi / 4)


@pytest.mark.parametrize("command", [
    ["verify"], ["appendix"], ["scan", "--steps", "9"], ["quotient"], ["quotient", "--tau", "fr"],
    ["evolve", "--tau", "0.5"], ["evolve", "--tau", "fr", "--target", "both"],
])
def test_agreeing_ratio_is_checked_once_and_keeps_the_bytes(capsys, monkeypatch, command):
    argv = command + ["--N", "5", "--alpha", "3", "--beta", "2"]
    plain = run(capsys, argv)
    real = revival._rationalize
    calls = []

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(revival, "_rationalize", counted)
    assert run(capsys, argv + ["--p", "3", "--q", "2"]) == plain
    assert plain[0] == 0
    assert calls.count((3, 2)) == 1


def test_a_negative_explicit_q_gives_the_bytes_of_its_sign_on_p(capsys):
    model = ["verify", "--N", "3", "--alpha", "3", "--beta", "-2"]
    moved = run(capsys, model + ["--p", "-3", "--q", "2"])
    assert run(capsys, model + ["--p", "3", "--q", "-2"]) == moved
    assert moved[0] == 0
    assert json.loads(moved[1])["params"] == {"N": 3, "alpha": 3.0, "beta": -2.0, "p": -3, "q": 2}


def test_appendix_refusal_is_input_error(capsys):
    code, _, err = run(capsys, ["appendix", "--N", "5", "--alpha", "2", "--beta", "2"])
    assert code == 1
    assert "balanced FR" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["verify", "--N", "4", "--alpha", "2", "--beta", "2", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["certificate"]["kind"] == "balanced_FR"


EVERY_COMMAND = [
    ["verify", "--N", "9", "--alpha", "1", "--beta", "2"],
    ["evolve", "--N", "3", "--alpha", "1", "--beta", "1", "--tau", "1"],
    ["evolve", "--N", "4", "--alpha", "2", "--beta", "2", "--tau", "fr", "--json"],
    ["scan", "--N", "3", "--alpha", "1", "--beta", "1", "--steps", "2"],
    ["quotient", "--N", "3"],
    ["appendix", "--N", "4", "--alpha", "2", "--beta", "2"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
@pytest.mark.parametrize("where, reason", [(".", "Is a directory"),
                                           ("missing/report.txt", "No such file or directory")])
def test_out_that_cannot_be_opened_exits_one_in_one_line(tmp_path, capsys, argv, where, reason):
    out_path = str(tmp_path / where)
    code, out, err = run_without_warnings(capsys, argv + ["--out", out_path])
    assert (code, out) == (1, "")
    assert err == f"error: cannot open --out {out_path!r}: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_out_that_cannot_be_written_exits_one_in_one_line(capsys, argv):
    code, out, err = run_without_warnings(capsys, argv + ["--out", "/dev/full"])
    assert (code, out) == (1, "")
    assert err == "error: cannot write --out '/dev/full': No space left on device\n"


SRC = Path(cli.__file__).resolve().parents[1]


def start_cli(argv, stdout=subprocess.PIPE):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, "-m", "fracrevival.cli"] + argv, env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True)


# a refusal (the 10^4-point scan), a PST, an FR above the entrywise identity (M > 8) and one
# at M = 8, which reads the chain, and a scan: mu and nu come from the fixed-order sum; the
# chain rows, the graph-chain deviations and leakages from the chain's recurrence eigenbasis
BLAS_KERNEL_PROBES = [
    ["verify", "--N", "9", "--alpha", "0.6", "--beta", "1"],
    ["verify", "--N", "17", "--alpha", "1.3333333333333333", "--beta", "2", "--p", "2", "--q", "3"],
    ["verify", "--N", "15", "--alpha", "1.7", "--beta", "0"],
    ["verify", "--N", "16", "--alpha", "-1.4", "--beta", "1.4"],
    ["appendix", "--N", "9", "--alpha", "0.6", "--beta", "0.4"],
    ["scan", "--N", "12", "--alpha", "0.83", "--beta", "-1.21", "--steps", "500"],
    *(["evolve", "--N", str(N), "--alpha", "0.83", "--beta", "-1.21", "--tau", "1.7", "--target", "both"]
      for N in (9, 12, 15)),
    ["quotient", "--N", "9", "--alpha", "0.83", "--beta", "-1.21", "--tau", "1.3", "--random-trials", "2"],
]


def test_report_bytes_do_not_depend_on_the_blas_kernel():
    script = ("import sys\nfrom fracrevival import cli\n"
              f"sys.exit(max(cli.main(argv) for argv in {BLAS_KERNEL_PROBES!r}))")
    outputs = []
    for coretype in (None, "Prescott"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(SRC)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert (child.returncode, child.stderr) == (0, "")
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]


def test_a_closed_stdout_exits_one_without_a_traceback():
    proc = start_cli(["scan", "--N", "4", "--alpha", "1", "--beta", "1", "--steps", "50000"])
    assert proc.stdout.readline() == "tau,p_corner,p_antipode,leakage\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_full_stdout_exits_one_in_one_line():
    with open("/dev/full", "w") as full:
        proc = start_cli(["verify", "--N", "4", "--alpha", "2", "--beta", "2"], stdout=full)
        err = proc.stderr.read()
        proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, "error: cannot write stdout: No space left on device\n")


def test_a_stdout_closed_at_start_exits_one_in_one_line(tmp_path):
    # the shell starts the child with descriptor 1 closed, so Python gives it sys.stdout = None
    verify = ["verify", "--N", "4", "--alpha", "2", "--beta", "2"]
    child = ["sh", "-c", 'exec "$@" 1>&-', "sh", sys.executable, "-m", "fracrevival.cli"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    closed = subprocess.run(child + verify, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, timeout=60)
    assert (closed.returncode, closed.stderr) == (1, "error: cannot write stdout: Bad file descriptor\n")
    out = tmp_path / "verify.json"
    to_file = subprocess.run(child + verify + ["--out", str(out)], env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True, timeout=60)
    assert (to_file.returncode, to_file.stderr) == (0, "")
    assert out.read_text() == run_quietly(verify)[1]


@pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                    reason="needs the /dev/full device and /proc/self/fd")
def test_a_failed_stdout_write_leaves_no_descriptor_open(capsys):
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        with open("/dev/full", "w") as full, contextlib.redirect_stdout(full):
            assert cli.main(["verify", "--N", "4", "--alpha", "2", "--beta", "2"]) == 1
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n" * 5


FLOAT_OPTIONS = {
    "--alpha": ["scan", "--N", "3", "--beta", "1", "--steps", "2"],
    "--beta": ["scan", "--N", "3", "--alpha", "1", "--steps", "2"],
    "--tau": ["evolve", "--N", "2", "--alpha", "1", "--beta", "1"],
    "--tau-min": ["scan", "--N", "2", "--alpha", "1", "--beta", "1", "--tau-max", "1e300", "--steps", "2"],
    "--tau-max": ["scan", "--N", "2", "--alpha", "1", "--beta", "1", "--steps", "2"],
}


@settings(max_examples=150, deadline=None)
@given(
    option=st.sampled_from(sorted(FLOAT_OPTIONS)),
    value=st.floats(allow_nan=False, allow_infinity=False),
    spelling=st.sampled_from(["%r", "%.17g", "%e", "%E", "%.3e"]),
)
def test_float_options_read_negative_exponent_forms_as_values(option, value, spelling):
    text = spelling % value
    apart = FLOAT_OPTIONS[option] + [option, text]
    joined = FLOAT_OPTIONS[option] + [f"{option}={text}"]
    parsed = cli.build_parser().parse_args(apart)
    assert getattr(parsed, option[2:].replace("-", "_")) == float(text)
    assert run_quietly(apart) == run_quietly(joined)


def test_usage_error_maps_to_exit_one(capsys):
    assert cli.main(["verify"]) == 1          # missing --N
    capsys.readouterr()
    assert cli.main(["unknown-command"]) == 1
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# main hands the argv after a command to that command's parser, once; the top-level parser must give the same bytes
DISPATCH_ARGVS = [
    [], ["bogus"], ["-h"], ["--help"], ["verify", "-h"],
    ["verify"],                                                     # no --N
    ["verify", "--N", "3", "--bogus"],
    ["evolve", "--N", "3", "--alpha", "1", "--tau", "1", "junk"],
    ["verify", "--N", "3", "--alpha", "1", "--", "x"],
    ["verify", "--N", "3", "--alp", "1"],                           # an abbreviation
    ["verify", "--N=9", "--alpha", "1"],
    ["verify", "--N", "5", "--N", "3", "--alpha", "1"],             # the last --N counts
    ["verify", "--N", "3", "--alpha", "-1e-5", "--beta", "2"],      # a negative exponent is a value
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=lambda argv: " ".join(argv) or "no-argument")
def test_one_parse_gives_what_the_top_level_parser_gives(capsys, monkeypatch, argv):
    parsed = []
    real = cli._require_ratio

    def recorded(args):
        parsed.append(vars(args).copy())
        real(args)

    monkeypatch.setattr(cli, "_require_ratio", recorded)
    direct = run(capsys, argv)
    # with no command parser to call, main parses every argv with build_parser().parse_args
    monkeypatch.setattr(cli.build_parser(), "commands", {})
    assert run(capsys, argv) == direct
    assert parsed[:1] == parsed[1:]


def test_a_command_line_is_parsed_once(capsys, monkeypatch):
    parsers = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsers.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, ["verify", "--N", "3", "--alpha", "1", "--beta", "1"])[0] == 0
    assert parsers == ["fracrevival verify"]


@settings(max_examples=300, deadline=None)
@given(text=st.text())
@example('"\\ \x00\x1f\x7f \u2028 \u00e9 \U0001f600')
def test_strings_and_keys_are_quoted_as_json_dumps_quotes_them(text):
    assert cli._render_json(text) == json.dumps(text)
    assert cli._render_json({text: text}) == json.dumps({text: text}, indent=2)


@pytest.mark.parametrize("argv", [
    ["verify", "--N", "4", "--alpha", "2", "--beta", "2"],           # balanced FR: an appendix block
    ["verify", "--N", "4", "--alpha", "2", "--beta", "1"],           # PST only
    ["verify", "--N", "5", "--alpha", "2", "--beta", "2"],           # a refusal: a scan block
    ["appendix", "--N", "4", "--alpha", "2", "--beta", "2"],
    ["quotient", "--N", "5", "--alpha", "1.5", "--beta", "0.5", "--tau", "1.1", "--random-trials", "2"],
], ids=["verify-fr", "verify-pst", "verify-refusal", "appendix", "quotient"])
def test_each_command_prints_the_keys_of_its_reports_to_dict_in_order(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0
    args = cli.build_parser().parse_args(argv)
    if args.command == "verify":
        blocks = certify(argv).to_dict()
    elif args.command == "appendix":
        blocks = revival.appendix_phase_check(args.N, args.alpha, args.beta).to_dict()
    else:
        blocks = {
            **quotient.quotient_matrix_elements(args.N).to_dict(),
            "equivalence": quotient.equivalence_check(args.N, args.alpha, args.beta, args.tau).to_dict(),
            "random_equivalence": quotient.RandomEquivalence(args.N, args.random_trials, args.seed).to_dict(),
        }
    printed = json.loads(out)
    assert list(printed) == ["schema", *blocks]
    for key, block in blocks.items():
        if isinstance(block, dict):
            assert list(printed[key]) == list(block)
        elif block is None:
            assert printed[key] is None
    if printed.get("scan") is not None:
        assert list(printed["scan"]) == [field.name for field in dataclasses.fields(revival.ScanOutcome)]


def test_float_serialization_is_17_digits(capsys):
    _, out, _ = run(capsys, ["verify", "--N", "4", "--alpha", "2", "--beta", "2"])
    assert '"tau_fr": 0.78539816339744828' in out


def test_cached_parser_carries_no_state(tmp_path, capsys):
    # each command gives, after the others in one process, what it gives alone
    usage = ["verify"]
    evolve = ["evolve", "--N", "4", "--alpha", "2", "--beta", "2", "--tau", "fr"]
    verify = ["verify", "--N", "5", "--alpha", "2", "--beta", "2"]
    target = tmp_path / "amplitudes.csv"
    sequence = [
        run(capsys, usage),
        run(capsys, evolve + ["--out", str(target)]),
        run(capsys, evolve),
        run(capsys, verify),
    ]
    written = target.read_text()
    cli.build_parser.cache_clear()
    assert sequence[0] == run(capsys, usage)
    assert sequence[0][0] == 1
    cli.build_parser.cache_clear()
    target.unlink()
    assert sequence[1] == run(capsys, evolve + ["--out", str(target)]) == (0, "", "")
    assert target.read_text() == written
    cli.build_parser.cache_clear()
    assert sequence[2] == run(capsys, evolve) == (0, written, "")
    cli.build_parser.cache_clear()
    assert sequence[3] == run(capsys, verify)
    assert sequence[3][0] == 0


# The per-value serialization the table reports had before they were written
# from one template per row: _fmt per CSV field, a dict per JSON row through
# _render_json.  Kept here as the reference the streamed bytes must equal.
# Graph vertex z holds the column amplitude of its weight class, and the
# --target both comparison reads the column coordinates of those amplitudes.
def reference_evolve(N, alpha, beta, tau, target, as_json):
    rows = []
    if target in ("graph", "both"):
        spec = walk.WalkSpec(M=N - 1, alpha=alpha, beta=beta)
        psi_w = walk.column_amplitudes(spec, tau)
        psi_g = psi_w[scheme.hamming_weights(spec.M)]
        rows += [["graph", i, a.real, a.imag, abs(a) ** 2] for i, a in enumerate(psi_g)]
    if target in ("chain", "both"):
        spec_c = chain.ChainSpec(N=N, alpha=alpha, beta=beta)
        psi_c = chain.chain_evolve(spec_c, chain.site_state(N, 1), tau)
        rows += [["chain", i + 1, a.real, a.imag, abs(a) ** 2] for i, a in enumerate(psi_c)]
    quotient_dev = leakage = None
    if target == "both":
        report = quotient.compare_states(N, alpha, beta, tau, quotient.column_state(psi_w), psi_c)
        quotient_dev, leakage = report.max_deviation, report.leakage
    if as_json:
        payload = {
            "schema": cli.SCHEMA_VERSION,
            "params": {"N": N, "alpha": alpha, "beta": beta},
            "tau": tau,
            "target": target,
            "amplitudes": [
                {"system": r[0], "index": r[1], "re": r[2], "im": r[3], "probability": r[4]}
                for r in rows
            ],
            "quotient_max_deviation": quotient_dev,
            "leakage": leakage,
        }
        return cli._render_json(payload) + "\n"
    lines = ["system,index,re,im,probability"]
    lines += [f"{r[0]},{r[1]},{cli._fmt(r[2])},{cli._fmt(r[3])},{cli._fmt(r[4])}" for r in rows]
    if quotient_dev is not None:
        lines.append(f"# quotient_max_deviation = {cli._fmt(quotient_dev)}")
        lines.append(f"# leakage = {cli._fmt(leakage)}")
    return "\n".join(lines) + "\n"


def reference_scan(N, alpha, beta, tau_min, tau_max, steps):
    taus = np.linspace(tau_min, tau_max, steps + 1)
    mus, nus = walk.antipodal_scan(walk.WalkSpec(M=N - 1, alpha=alpha, beta=beta), taus)
    lines = ["tau,p_corner,p_antipode,leakage"]
    for t, mu, nu in zip(taus, mus, nus):
        p_corner = abs(mu) ** 2
        p_anti = abs(nu) ** 2
        lines.append(f"{cli._fmt(t)},{cli._fmt(p_corner)},{cli._fmt(p_anti)},{cli._fmt(1.0 - p_corner - p_anti)}")
    return "\n".join(lines) + "\n"


# N = 13 fills exactly one block of graph rows, N = 15 spans four
@pytest.mark.parametrize("N, alpha, beta", [(2, -0.7, 1.3), (3, 1.1, -0.45), (8, -1.9, -0.6),
                                            (13, 0.35, 1.7), (15, -0.83, 1.21)])
@pytest.mark.parametrize("target", ["graph", "chain", "both"])
@pytest.mark.parametrize("as_json", [False, True])
def test_evolve_bytes_match_per_value_reference(capsys, N, alpha, beta, target, as_json):
    tau = 1.9
    argv = ["evolve", "--N", str(N), "--alpha", repr(alpha), "--beta", repr(beta),
            "--tau", repr(tau), "--target", target] + (["--json"] if as_json else [])
    assert run(capsys, argv) == (0, reference_evolve(N, alpha, beta, tau, target, as_json), "")


# N = 18 numbers graph rows up to 131071, past every digit boundary to six digits
@pytest.mark.parametrize("as_json", [False, True])
def test_evolve_bytes_match_reference_past_five_digit_indices(capsys, as_json):
    argv = ["evolve", "--N", "18", "--alpha", "0.83", "--beta", "-1.21", "--tau", "1.7",
            "--target", "both"] + (["--json"] if as_json else [])
    assert run(capsys, argv) == (0, reference_evolve(18, 0.83, -1.21, 1.7, "both", as_json), "")


# N = 1000..1002 numbers chain sites up to 1002, past the thousands boundary
@pytest.mark.parametrize("N", [1000, 1001, 1002])
@pytest.mark.parametrize("as_json", [False, True])
def test_evolve_chain_bytes_match_reference_past_site_one_thousand(capsys, N, as_json):
    argv = ["evolve", "--N", str(N), "--alpha", "0.83", "--beta", "-1.21", "--tau", "1.7",
            "--target", "chain"] + (["--json"] if as_json else [])
    assert run(capsys, argv) == (0, reference_evolve(N, 0.83, -1.21, 1.7, "chain", as_json), "")


def reference_rows(tables, layout, sep):
    """The amplitude rows one at a time: head % system, str(index), tail % (re, im, probability)."""
    head, tail = layout
    return sep.join(head % system + str(first + r) + tail % (c.real, c.imag, abs(c) ** 2)
                    for system, values, rows, first in tables for r, c in enumerate(values[rows].tolist()))


@st.composite
def amplitude_tables(draw):
    """One or two tables (graph rows over a few values, chain rows one value each) and a block size."""
    tables = []
    for system in draw(st.sampled_from([["graph"], ["chain"], ["graph", "chain"]])):
        # first + rows - 1 lands on either side of 999/1000, 9999/10000 and 99999/100000
        edge = st.sampled_from([1000, 10 ** 4] + [10 ** 5] * (system == "graph"))
        n = draw(st.one_of(st.integers(1, 2500), edge.flatmap(lambda e: st.integers(e - 2, e + 1))))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        count = draw(st.integers(1, 20)) if system == "graph" else n
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
        rows = rng.integers(0, count, n).astype(np.uint8) if system == "graph" else np.arange(n)
        # the commands number from 0 and 1; 999 and 1000 start a table at a run's edge
        tables.append((system, values, rows, draw(st.sampled_from([0, 1, 999, 1000]))))
    # one-row blocks and runs cut by a block edge, kept to short tables
    sizes = [999, 1000, 1001, cli.ROWS_PER_BLOCK]
    if sum(len(rows) for _, _, rows, _ in tables) <= 5000:
        sizes += [1, 2, 3]
    return tables, draw(st.sampled_from(sizes))


# a graph table through index 100000 and a chain table through site 1000, each ending on a one-row run
EDGE_TABLES = [("graph", np.array([0.5 - 0.25j, -0.0 + 1j, 1e-300]), np.arange(100001, dtype=np.uint8) % 3, 0),
               ("chain", np.linspace(-1, 1, 1000) * (1 + 2j), np.arange(1000), 1)]


@settings(max_examples=60, deadline=None)
@given(drawn=amplitude_tables(), layout=st.sampled_from([(cli.AMPLITUDE_CSV, ""), (cli.AMPLITUDE_JSON, ",\n")]))
@example(drawn=(EDGE_TABLES, cli.ROWS_PER_BLOCK), layout=(cli.AMPLITUDE_CSV, ""))
@example(drawn=(EDGE_TABLES, cli.ROWS_PER_BLOCK), layout=(cli.AMPLITUDE_JSON, ",\n"))
def test_amplitude_blocks_match_the_rows_written_one_at_a_time(drawn, layout):
    tables, block = drawn
    with mock.patch.object(cli, "ROWS_PER_BLOCK", block):
        pieces = list(cli._amplitude_blocks(tables, *layout))
    assert "".join(pieces) == reference_rows(tables, *layout)
    assert len(pieces) == sum(-(-len(rows) // block) for _, _, rows, _ in tables)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(2, 12),
    alpha=st.floats(-2.0, 2.0),
    beta=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    tau=st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
    target=st.sampled_from(["graph", "chain", "both"]),
    as_json=st.booleans(),
)
def test_evolve_bytes_match_reference_for_any_couplings(N, alpha, beta, tau, target, as_json):
    assume(alpha != 0.0 or beta != 0.0)
    argv = ["evolve", "--N", str(N), f"--alpha={alpha!r}", f"--beta={beta!r}",
            "--tau", repr(tau), "--target", target] + (["--json"] if as_json else [])
    assert run_quietly(argv) == (0, reference_evolve(N, alpha, beta, tau, target, as_json), "")


@pytest.mark.parametrize("as_json", [False, True])
def test_evolve_keeps_signed_zeros_apart(capsys, monkeypatch, as_json):
    # 0.0 == -0.0 and they hash alike, yet "%.17g" prints them as "0" and "-0"
    psi = np.zeros(14, dtype=complex)
    psi[0], psi[7] = 0.6, 0.8j
    psi[1] = complex(-0.0, 0.0)
    psi[2] = complex(-0.0, -0.0)
    psi[4] = complex(0.0, -0.0)
    psi[9] = complex(-0.0, 0.0)
    monkeypatch.setattr(walk, "column_amplitudes", lambda *args: psi.copy())
    argv = ["evolve", "--N", "14", "--alpha", "1", "--beta", "1", "--tau", "0.5"]
    argv += ["--json"] if as_json else []
    expected = reference_evolve(14, 1.0, 1.0, 0.5, "graph", as_json)
    assert "-0" in expected  # every other zero prints as "0"
    assert run(capsys, argv) == (0, expected, "")


@pytest.mark.parametrize("N, alpha, beta", [(3, 1.25, -0.5), (12, -0.6, 1.4)])
def test_scan_bytes_match_per_value_reference(capsys, N, alpha, beta):
    steps = 2 * cli.ROWS_PER_BLOCK + 5
    argv = ["scan", "--N", str(N), "--alpha", repr(alpha), "--beta", repr(beta),
            "--tau-min", "0.25", "--tau-max", "7.5", "--steps", str(steps)]
    assert run(capsys, argv) == (0, reference_scan(N, alpha, beta, 0.25, 7.5, steps), "")


def test_evolve_builds_no_state_and_writes_one_tail_per_weight_class(capsys, monkeypatch):
    def no_state(*args):
        raise AssertionError("a 2^M complex state on the evolve path")

    monkeypatch.setattr(walk, "evolve_graph", no_state)
    monkeypatch.setattr(walk, "fwht", no_state)
    monkeypatch.setattr(quotient, "project", no_state)
    M = 13
    code, out, err = run(capsys, ["evolve", "--N", str(M + 1), "--alpha", "0.83", "--beta", "-1.21",
                                  "--tau", "1.7", "--target", "both"])
    assert (code, err) == (0, "")
    rows = [line.split(",", 2) for line in out.splitlines() if line.startswith("graph,")]
    assert [int(index) for _, index, _ in rows] == list(range(2 ** M))
    weights = scheme.hamming_weights(M)
    tails = {}
    for _, index, tail in rows:
        tails.setdefault(int(weights[int(index)]), set()).add(tail)
    assert sorted(tails) == list(range(M + 1))
    assert all(len(tail) == 1 for tail in tails.values())


def test_quotient_builds_no_state(capsys, monkeypatch):
    def no_state(*args):
        raise AssertionError("a 2^M table on the quotient path")

    monkeypatch.setattr(walk, "evolve_graph", no_state)
    monkeypatch.setattr(walk, "fwht", no_state)
    monkeypatch.setattr(quotient, "project", no_state)
    monkeypatch.setattr(scheme, "hamming_weights", no_state)
    code, out, err = run(capsys, ["quotient", "--N", "14", "--alpha", "1", "--beta", "1", "--tau", "fr",
                                  "--random-trials", "3"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["equivalence"]["passed"] is True
    assert report["random_equivalence"]["trials"] == 3


class PieceRecorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_evolve_report_is_written_in_blocks(monkeypatch):
    recorder = PieceRecorder()
    monkeypatch.setattr(cli.sys, "stdout", recorder)
    code = cli.main(["evolve", "--N", "15", "--alpha", "1", "--beta", "1", "--tau", "0.5",
                     "--target", "both", "--json"])
    assert code == 0
    assert len(json.loads(recorder.getvalue())["amplitudes"]) == 2 ** 14 + 15
    # a header, four full blocks of graph rows, one block of chain rows, a tail
    assert len(recorder.sizes) == 7
    assert max(recorder.sizes) < 200 * cli.ROWS_PER_BLOCK < len(recorder.getvalue()) / 3


def evolve_peak_bytes(tmp_path, M, as_json):
    """tracemalloc's peak over one evolve --out, and the bytes of a 2^M complex state."""
    argv = ["evolve", "--N", str(M + 1), "--alpha", "0.83", "--beta", "-1.21", "--tau", "1.7",
            "--out", str(tmp_path / "report")] + (["--json"] if as_json else [])
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1], np.dtype(complex).itemsize << M
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("as_json", [False, True])
def test_evolve_report_memory_stays_within_a_block(tmp_path, monkeypatch, as_json):
    # small blocks, so that a block's rows and tails weigh little next to the state
    monkeypatch.setattr(cli, "ROWS_PER_BLOCK", 256)
    small_peak, small_state = evolve_peak_bytes(tmp_path, 12, as_json)
    large_peak, large_state = evolve_peak_bytes(tmp_path, 15, as_json)
    # only the weight table, a byte per vertex, grows with M
    assert large_peak - small_peak < (large_state - small_state) / 4


def test_evolve_both_evolves_each_system_once(capsys, monkeypatch):
    calls = []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(walk, "column_amplitudes")
    count(chain, "chain_evolve")
    code, _, _ = run(capsys, ["evolve", "--N", "6", "--alpha", "1", "--beta", "1", "--tau", "0.5",
                              "--target", "both"])
    assert code == 0
    assert calls == ["column_amplitudes", "chain_evolve"]


@pytest.mark.parametrize("target", ["graph", "both"])
@pytest.mark.parametrize("as_json", [False, True])
def test_non_finite_amplitude_writes_nothing(tmp_path, capsys, monkeypatch, target, as_json):
    real = walk.column_amplitudes

    def poisoned(*args):
        psi = real(*args)
        psi[-1] = np.nan
        return psi

    monkeypatch.setattr(walk, "column_amplitudes", poisoned)
    argv = ["evolve", "--N", "15", "--alpha", "1", "--beta", "1", "--tau", "0.5",
            "--target", target] + (["--json"] if as_json else [])
    assert run(capsys, argv) == (1, "", "error: non-finite value in report\n")
    report = tmp_path / "report.txt"
    assert run(capsys, argv + ["--out", str(report)]) == (1, "", "error: non-finite value in report\n")
    assert not report.exists()


@pytest.mark.parametrize("target", ["chain", "both"])
@pytest.mark.parametrize("as_json", [False, True])
def test_non_finite_chain_amplitude_writes_nothing(tmp_path, capsys, monkeypatch, target, as_json):
    real = chain.chain_evolve

    def poisoned(*args):
        psi = real(*args)
        psi[-1] = np.nan
        return psi

    monkeypatch.setattr(chain, "chain_evolve", poisoned)
    argv = ["evolve", "--N", "15", "--alpha", "1", "--beta", "1", "--tau", "0.5",
            "--target", target] + (["--json"] if as_json else [])
    assert run(capsys, argv) == (1, "", "error: non-finite value in report\n")
    report = tmp_path / "report.txt"
    assert run(capsys, argv + ["--out", str(report)]) == (1, "", "error: non-finite value in report\n")
    assert not report.exists()


@pytest.mark.parametrize("target", ["graph", "chain"])
def test_overflowing_phase_exits_one_without_warnings(capsys, target):
    argv = ["evolve", "--N", "4", "--alpha", "1e300", "--beta", "1e300", "--tau", "1e10",
            "--target", target]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert caught == []
    assert len(err.splitlines()) == 1
    assert err.startswith("error: tau * max|E| overflows")


@pytest.mark.parametrize("argv, refuted", [
    (["verify", "--N", "4", "--alpha", "2", "--beta", "2"], revival.RevivalTimes(G=1, a=0)),  # FR: no revival
    (["verify", "--N", "4", "--alpha", "2", "--beta", "1"], revival.RevivalTimes(G=1, a=0)),  # PST: no revival
    (["verify", "--N", "5", "--alpha", "2", "--beta", "2"], revival.RevivalTimes(G=4, a=1)),  # refusal: FR at 1/4
], ids=["balanced_FR", "PST_only", "none"])
def test_verify_fails_when_the_solver_disagrees(capsys, monkeypatch, argv, refuted):
    # the amplitudes still pass; the exact check alone decides
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(revival, "solve_revival", lambda *args: refuted)
    assert run(capsys, argv)[0] == 2
    report = certify(argv)
    assert report.exact is False and report.unresolved == ()


@pytest.mark.parametrize("argv", [
    ["verify", "--N", "4", "--alpha", "2", "--beta", "2"],    # balanced FR
    ["verify", "--N", "4", "--alpha", "2", "--beta", "1"],    # PST only
    ["verify", "--N", "12", "--alpha", "1", "--beta", "1"],   # balanced FR above M = 10
], ids=["balanced_FR", "PST_only", "balanced_FR-M11"])
def test_verify_fails_when_an_amplitude_misses_a_resolvable_gate(capsys, monkeypatch, argv):
    # amplitudes shrunk by 1e-6 move each probability by ~1e-6, far above 1e-9 and eps tau max|E| < 1e-13
    real = walk.column_amplitudes

    def shifted(*args):
        return real(*args) * (1.0 - 1e-6)

    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(walk, "column_amplitudes", shifted)
    assert run(capsys, argv)[0] == 2
    report = certify(argv)
    assert report.exact is True and report.unresolved == ()


# each exited 2 before the exact verdict: the model is fine and a double cannot resolve tau max|E| to the gate
FORMERLY_EXIT_TWO = [
    ["verify", "--N", "9", "--alpha", "999999", "--beta", "1e6", "--p", "999999", "--q", "1000000"],
    ["appendix", "--N", "9", "--alpha", "999999", "--beta", "1e6", "--p", "999999", "--q", "1000000"],
    ["verify", "--N", "4", "--alpha", "1", "--beta", "1e-300"],
    ["verify", "--N", "1000", "--alpha", "1", "--beta", "1"],
    ["appendix", "--N", "1000", "--alpha", "1", "--beta", "1"],
    ["quotient", "--N", "9", "--alpha", "1e-5", "--beta", "3", "--tau", "fr"],
    ["quotient", "--N", "11", "--alpha", "1e-5", "--beta", "3", "--tau", "fr"],
    ["quotient", "--N", "15", "--alpha", "1e-5", "--beta", "3", "--tau", "fr"],
    ["quotient", "--N", "7", "--alpha", "1e-5", "--beta", "3", "--tau", "fr"],  # 2 under one BLAS kernel
]


@pytest.mark.parametrize("argv", FORMERLY_EXIT_TWO, ids=" ".join)
def test_a_verdict_the_float_cannot_resolve_exits_zero(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    if argv[0] == "quotient":
        assert payload["equivalence"]["passed"] is True
        assert not quotient.equivalence_check(int(argv[2]), 1e-5, 3.0, payload["equivalence"]["tau"]).resolved
        return
    report = certify(argv)
    assert report.exact is True and report.passed
    if argv[2] == "4":
        # tau_pst ~ 3.1e300: the float reads a leakage of 0.68, and M = 3 runs the FWHT check too
        assert report.unresolved == ("nu_abs", "engine_dev")
    else:
        # the float winding misses its old 1e-10 gate: 7.1e-9 at N = 9, 6.9e-10 at N = 1000; neither
        # resolves the identity's gate (3 eps tau max|E| is 2.6e-10 at N = 1000; see the N = 500 test below)
        assert report.appendix.winding_max_dev > 1e-10
        assert report.appendix.exact
        assert not report.appendix.resolved


@pytest.mark.parametrize("command", ["verify", "appendix"])
def test_a_resolved_identity_passes_with_its_float_winding_past_the_gate(capsys, command):
    # the identity is decided exactly by the solver: the float winding's deviation, 2.4e-10 here, gates nothing
    argv = [command, "--N", "500", "--alpha", "1", "--beta", "1"]
    assert run(capsys, argv)[0] == 0
    appendix = certify(argv).appendix
    assert appendix.resolved and appendix.exact and appendix.passed
    assert appendix.winding_max_dev > 1e-10


# balanced FR that the integers confirm, each exited 2 on its assembled identity alone
SMALL_ALPHA_FR = [
    ["--N", "3", "--alpha", "1e-5", "--beta", "2"],
    ["--N", "3", "--alpha", "-1e-5", "--beta", "2"],
    ["--N", "3", "--alpha", "1e-5", "--beta", "-2"],
    ["--N", "3", "--alpha", "-1e-5", "--beta", "-2"],
    ["--N", "11", "--alpha", "1e-5", "--beta", "0.5"],
    ["--N", "11", "--alpha", "-1e-5", "--beta", "0.5"],
    ["--N", "11", "--alpha", "2e-5", "--beta", "1"],
]


@pytest.mark.parametrize("command", ["verify", "appendix"])
@pytest.mark.parametrize("params", SMALL_ALPHA_FR, ids=" ".join)
def test_a_small_alpha_revival_within_rounding_of_its_gate_exits_zero(capsys, command, params):
    code, out, err = run(capsys, [command] + params)
    assert (code, err) == (0, "")
    report = certify([command] + params)
    appendix = report.appendix
    assert report.exact is True and appendix.exact
    # 1.1-1.3e-10, above the gate but within what rounding moves two phases apart (walk.resolves)
    spec = walk.WalkSpec(int(params[1]) - 1, float(params[3]), float(params[5]))
    assert 1e-10 < appendix.assembled_max_dev <= 3 * walk.EPS * appendix.tau * spec.reach
    assert not appendix.resolved and report.passed


@pytest.mark.parametrize("command", ["verify", "appendix"])
def test_an_overflowing_appendix_phase_is_still_refused_in_one_line(capsys, command):
    code, out, err = run(capsys, [command, "--N", "3", "--alpha", "1e308", "--beta", "0"])
    assert (code, out, err) == (1, "", "error: the winding, delta or phi phase overflows a float\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--N", "4", "--alpha", "2", "--beta", "2"],       # balanced FR, M = 3
    ["verify", "--N", "4", "--alpha", "2", "--beta", "1"],       # PST only, M = 3
    ["verify", "--N", "4", "--alpha", "1", "--beta", "2"],       # refusal, M = 3
])
def test_verify_fails_when_the_fwht_engine_disagrees(capsys, monkeypatch, argv):
    # on the smallest cubes the verdict also rests on the FWHT evolution
    real = walk.evolve_graph

    def shifted(*args):
        psi = real(*args)
        psi[0] += 1e-6
        return psi

    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(walk, "evolve_graph", shifted)
    assert run(capsys, argv)[0] == 2


def _shift_chain(monkeypatch, symmetric):
    """Add 1e-6 to the chain's first coupling J_1, and with symmetric also to its mirror J_{N-1}: what the chain reads."""
    real = chain._couplings

    def shifted(N):
        J = real(N)
        J[0] += 1e-6
        if symmetric:
            J[-1] += 1e-6
        return J

    monkeypatch.setattr(chain, "_couplings", shifted)


def test_verify_fails_when_the_appendix_identity_fails(capsys, monkeypatch):
    # the chain's entrywise identity disagrees; the amplitude checks still pass
    argv = ["verify", "--N", "4", "--alpha", "2", "--beta", "2"]
    assert run(capsys, argv)[0] == 0
    _shift_chain(monkeypatch, symmetric=False)
    assert run(capsys, argv)[0] == 2
    report = revival.certify_numeric(4, 2.0, 2.0)
    assert not report.passed
    assert not report.appendix.passed
    assert max(report.checks[key] for key in ("mu_prob_dev", "nu_prob_dev", "leakage", "nu_real_part")) < 1e-9


@pytest.mark.parametrize("command", ["verify", "appendix"])
@pytest.mark.parametrize("symmetric", [True, False], ids=["mirror-symmetric", "asymmetric"])
def test_a_perturbed_chain_hamiltonian_exits_two(capsys, monkeypatch, command, symmetric):
    # the entrywise identity reads the chain; the eigenvalue-level identity does not
    argv = [command, "--N", "4", "--alpha", "2", "--beta", "2"]
    assert run(capsys, argv)[0] == 0
    _shift_chain(monkeypatch, symmetric)
    code, out, err = run(capsys, argv)
    assert (code, err) == (2, "")
    assert json.loads(out)["appendix"]["max_identity_dev"] > 1e-7
    assert revival.appendix_phase_check(4, 2.0, 2.0).assembled_max_dev < 1e-10


@pytest.mark.parametrize("command", ["verify", "appendix"])
def test_the_appendix_identity_builds_no_dense_matrix(capsys, monkeypatch, command):
    argv = [command, "--N", "9", "--alpha", "0.6", "--beta", "0.4"]  # p/q = 3/2: balanced FR, M = 8
    unpatched = run(capsys, argv)
    assert unpatched[0] == 0
    assert json.loads(unpatched[1])["appendix"]["max_identity_dev"] < 1e-10

    def no_matrix(*args):
        raise AssertionError("a dense 2^M matrix on the appendix path")

    monkeypatch.setattr(walk, "dense_hamiltonian", no_matrix)
    monkeypatch.setattr(scheme, "dense_adjacency", no_matrix)
    assert run(capsys, argv) == unpatched


@pytest.mark.parametrize("argv", [
    ["verify", "--N", "16", "--alpha", "1", "--beta", "1"],    # balanced FR, M = 15
    ["verify", "--N", "17", "--alpha", "2", "--beta", "1"],    # PST only (p even), M = 16
    ["verify", "--N", "12", "--alpha", "1", "--beta", "2"],    # refusal, M = 11
    ["verify", "--N", "9", "--alpha", "0.6", "--beta", "0.4"],   # balanced FR, M = 8 (p/q = 3/2)
    ["verify", "--N", "9", "--alpha", "0.6", "--beta", "1"],     # parity refusal, M = 8 (p/q = 3/5)
    ["verify", "--N", "8", "--alpha", "1.3", "--beta", "0"],     # refusal at beta = 0, M = 7
    ["verify", "--N", "5", "--alpha", "1", "--beta", "2"],       # balanced FR, M = 4
    ["verify", "--N", "5", "--alpha", "2", "--beta", "1"],       # PST only, M = 4
])
def test_no_verify_cell_builds_a_state(capsys, monkeypatch, argv):
    unpatched = run(capsys, argv)
    assert unpatched[0] == 0

    def no_state(*args):
        raise AssertionError("2^M work on the verdict path")

    monkeypatch.setattr(walk, "evolve_graph", no_state)
    monkeypatch.setattr(walk, "fwht", no_state)
    assert run(capsys, argv) == unpatched


def _readme_commands():
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("fracrevival ")]


def test_readme_lists_the_command_line_examples():
    assert len(_readme_commands()) == 7


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_exit_zero(capsys, tmp_path, argv):
    argv = [str(tmp_path / Path(arg).name) if prev == "--out" else arg for prev, arg in zip([None] + argv, argv)]
    code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")
