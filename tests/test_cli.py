"""Command-line interface: exit codes, schemas, determinism."""

import json
from math import pi

import pytest

from fracrevival import cli


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


def test_quotient_command(capsys):
    code, out, _ = run(capsys, ["quotient", "--N", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_closed_forms"] is True
    assert payload["max_closed_form_deviation"] < 1e-12
    assert payload["shifted_diagonal"]["exact"] is True
    assert payload["equivalence"] is None


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
