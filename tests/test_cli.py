"""Command-line interface: exit codes, schemas, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from math import pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracrevival import chain, cli, quotient, revival, walk
from fracrevival.errors import InvalidInputError


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run(capsys, ["evolve", "--N", "4", "--alpha", "2", "--beta", "2"])
    assert code == 1
    assert "--tau" in err


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
    # the chain refuses the time before it refuses (0, 0)
    (["evolve", "--N", "4", "--alpha", "0", "--beta", "0", "--tau", "inf", "--target", "chain"],
     "tau must be finite"),
    # the appendix phases form alpha * (N - 1), or 4 tau alpha s^2, where tau * E stays finite
    (["appendix", "--N", "3", "--alpha", "1e308", "--beta", "0"], "the winding, delta or phi phase overflows"),
    (["verify", "--N", "3", "--alpha", "1e308", "--beta", "0"], "the winding, delta or phi phase overflows"),
    (["appendix", "--N", "3", "--alpha=-8.99e307", "--beta", "1e308"],
     "the winding, delta or phi phase overflows"),
    # an odd p next to 1e306 gives balanced FR at N = 16, where 4 tau alpha M^2 overflows
    (["appendix", "--N", "16", "--alpha", "1e306", "--beta", "1", "--p", str(int(1e306) + 1), "--q", "1"],
     "the winding, delta or phi phase overflows"),
    # the chain-side phase tau * alpha * (N - 1) / 4 overflows after both evolutions passed
    (["quotient", "--N", "3", "--alpha", "6", "--beta", "2e-307", "--tau", "pst"],
     "the chain phase tau * alpha * (N - 1) / 4 overflows a float"),
    (["evolve", "--N", "3", "--alpha", "6", "--beta", "2e-307", "--tau", "pst", "--target", "both"],
     "the chain phase tau * alpha * (N - 1) / 4 overflows a float"),
    (["evolve", "--N", "3", "--alpha", "6", "--beta", "2e-307", "--tau", "pst", "--target", "both", "--json"],
     "the chain phase tau * alpha * (N - 1) / 4 overflows a float"),
    (["evolve", "--N", "3", "--alpha", "1e308", "--beta", "0", "--tau", "1.234", "--target", "both"],
     "the chain phase tau * alpha * (N - 1) / 4 overflows a float"),
    # scan, evolve at a numeric tau and quotient take no ratio, yet refuse one that contradicts
    (["scan", "--N", "4", "--alpha", "1", "--beta", "1", "--p", "5", "--q", "0", "--steps", "2"],
     "pass both p and q (q nonzero) to fix the ratio exactly"),
    (["evolve", "--N", "4", "--alpha", "1", "--beta", "1", "--p", "7", "--q", "3", "--tau", "0.5"],
     "p/q = 7/3 contradicts alpha/beta = 1.0"),
    (["quotient", "--N", "4", "--alpha", "1", "--beta", "1", "--p", "7", "--q", "3"],
     "p/q = 7/3 contradicts alpha/beta = 1.0"),
])
def test_ratio_inputs_exit_one_with_one_line(capsys, argv, message):
    code, out, err = run_without_warnings(capsys, argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {message}")


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
def reference_evolve(N, alpha, beta, tau, target, as_json):
    rows = []
    if target in ("graph", "both"):
        spec = walk.WalkSpec(M=N - 1, alpha=alpha, beta=beta)
        psi = walk.evolve_graph(spec, walk.corner_state(spec.M), tau)
        rows += [["graph", i, a.real, a.imag, abs(a) ** 2] for i, a in enumerate(psi)]
    if target in ("chain", "both"):
        spec_c = chain.ChainSpec(N=N, alpha=alpha, beta=beta)
        psi = chain.chain_evolve(spec_c, chain.site_state(N, 1), tau)
        rows += [["chain", i + 1, a.real, a.imag, abs(a) ** 2] for i, a in enumerate(psi)]
    quotient_dev = leakage = None
    if target == "both":
        report = quotient.equivalence_check(N, alpha, beta, tau)
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
    psi = np.zeros(2 ** 13, dtype=complex)
    psi[0], psi[5000] = 0.6, 0.8j
    psi[1] = complex(-0.0, 0.0)
    psi[2] = complex(-0.0, -0.0)
    psi[4097] = complex(0.0, -0.0)
    psi[6000] = complex(-0.0, 0.0)
    monkeypatch.setattr(walk, "evolve_graph", lambda *args: psi.copy())
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


def evolve_peak_bytes(tmp_path, monkeypatch, M, as_json):
    """tracemalloc's peak over one evolve --out, the state built before it."""
    psi = walk.evolve_graph(walk.WalkSpec(M=M, alpha=0.83, beta=-1.21), walk.corner_state(M), 1.7)
    argv = ["evolve", "--N", str(M + 1), "--alpha", "0.83", "--beta", "-1.21", "--tau", "1.7",
            "--out", str(tmp_path / "report")] + (["--json"] if as_json else [])
    with monkeypatch.context() as patch:
        patch.setattr(walk, "corner_state", lambda M: None)
        patch.setattr(walk, "evolve_graph", lambda *args: psi)
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1], psi.nbytes
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("as_json", [False, True])
def test_evolve_report_memory_stays_within_a_block(tmp_path, monkeypatch, as_json):
    # small blocks, so that a block's rows and tails weigh little next to the state
    monkeypatch.setattr(cli, "ROWS_PER_BLOCK", 256)
    small_peak, small_state = evolve_peak_bytes(tmp_path, monkeypatch, 12, as_json)
    large_peak, large_state = evolve_peak_bytes(tmp_path, monkeypatch, 15, as_json)
    # only the finiteness check, a byte per amplitude, grows with M
    assert large_peak - small_peak < (large_state - small_state) / 4


def test_evolve_both_evolves_each_system_once(capsys, monkeypatch):
    calls = []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(walk, "evolve_graph")
    count(chain, "chain_evolve")
    code, _, _ = run(capsys, ["evolve", "--N", "6", "--alpha", "1", "--beta", "1", "--tau", "0.5",
                              "--target", "both"])
    assert code == 0
    assert calls == ["evolve_graph", "chain_evolve"]


@pytest.mark.parametrize("target", ["graph", "both"])
@pytest.mark.parametrize("as_json", [False, True])
def test_non_finite_amplitude_writes_nothing(tmp_path, capsys, monkeypatch, target, as_json):
    real = walk.evolve_graph

    def poisoned(*args):
        psi = real(*args)
        psi[-1] = np.nan
        return psi

    monkeypatch.setattr(walk, "evolve_graph", poisoned)
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


def test_verify_fails_when_the_fwht_engine_disagrees(capsys, monkeypatch):
    # at oracle scale the verdict also rests on the FWHT evolution
    real = walk.evolve_graph

    def shifted(*args):
        psi = real(*args)
        psi[0] += 1e-6
        return psi

    argv = ["verify", "--N", "4", "--alpha", "2", "--beta", "2"]
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(walk, "evolve_graph", shifted)
    assert run(capsys, argv)[0] == 2


def test_verify_fails_when_the_appendix_identity_fails(capsys, monkeypatch):
    # the dense oracle of the identity disagrees; the amplitude checks still pass
    real = walk.dense_hamiltonian

    def shifted(spec):
        h = real(spec)
        h[0, 0] += 1e-6
        return h

    argv = ["verify", "--N", "4", "--alpha", "2", "--beta", "2"]
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(walk, "dense_hamiltonian", shifted)
    assert run(capsys, argv)[0] == 2
    assert not revival.certify_numeric(4, 2.0, 2.0).passed


@pytest.mark.parametrize("command", ["verify", "appendix"])
@pytest.mark.parametrize("symmetric", [True, False], ids=["J-symmetric", "asymmetric"])
def test_a_perturbed_dense_hamiltonian_exits_two(capsys, monkeypatch, command, symmetric):
    # J-symmetric: the sector propagators miss their scalars; asymmetric: H does not commute with J
    real = walk.dense_hamiltonian

    def shifted(spec):
        h = real(spec)
        h[0, 0] += 1e-6
        if symmetric:
            h[-1, -1] += 1e-6
        return h

    argv = [command, "--N", "4", "--alpha", "2", "--beta", "2"]
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(walk, "dense_hamiltonian", shifted)
    code, out, err = run(capsys, argv)
    assert (code, err) == (2, "")
    assert json.loads(out)["appendix"]["max_identity_dev"] > 1e-7


@pytest.mark.parametrize("argv", [
    ["verify", "--N", "16", "--alpha", "1", "--beta", "1"],    # balanced FR, M = 15
    ["verify", "--N", "17", "--alpha", "2", "--beta", "1"],    # PST only (p even), M = 16
    ["verify", "--N", "12", "--alpha", "1", "--beta", "2"],    # refusal, M = 11
])
def test_verify_above_oracle_scale_builds_no_state(capsys, monkeypatch, argv):
    unpatched = run(capsys, argv)
    assert unpatched[0] == 0

    def no_state(*args):
        raise AssertionError("2^M work on the verdict path")

    monkeypatch.setattr(walk, "evolve_graph", no_state)
    monkeypatch.setattr(walk, "fwht", no_state)
    assert run(capsys, argv) == unpatched
