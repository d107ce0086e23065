"""Tests of the benchmark itself: inputs, loop, checks, tracing, metric names.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from fracrevival import cli
from perfbench import checks, child, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


def _ops(workload, cycles=2):
    return [workload.next_op(cell) for cell in workload.cycle * cycles]


@pytest.mark.parametrize("cls", [workloads.Verify, workloads.EvolveReport])
def test_cli_inputs_depend_only_on_the_seed(cls):
    assert _ops(cls(7)) == _ops(cls(7))
    assert _ops(cls(7)) != _ops(cls(8))
    assert [op.cell for op in _ops(cls(7))] == list(cls.cycle * 2)


def test_generated_ratios_are_in_lowest_terms_with_the_intended_kind():
    intended = {"fr_dense": "balanced_FR", "fr_fwht": "balanced_FR", "fr_nnn": "balanced_FR",
                "pst": "PST_only", "refuse_parity": "none", "refuse_nnn": "none"}
    rng = np.random.default_rng(0)
    for _ in range(20):
        for cell, kind in intended.items():
            op = workloads.draw_verify(rng, cell)
            assert checks.expected_kind(op.N, op.p, op.q) == kind
            if op.q is not None:
                assert np.gcd(op.p, op.q) == 1 and op.alpha / op.beta == pytest.approx(op.p / op.q, rel=1e-15)


class _Instant:
    cycle = ("a", "b", "c")

    def __init__(self, fail_cell=None):
        self.fail_cell = fail_cell

    def next_op(self, cell):
        return cell

    def run(self, op):
        if op == self.fail_cell:
            raise ValueError("boom")
        return op

    def check(self, op, result):
        return None

    def output_bytes(self, result):
        return 1


def test_loop_runs_whole_cycles_and_at_least_min_ops():
    out = child.measure(_Instant(), seconds=0.0)
    n = len(out["latencies_s"])
    assert n >= child.MIN_OPS and n % 3 == 0
    assert out["failed"] == 0 and out["output_bytes"] == n


def test_loop_counts_a_raising_op_as_failed_and_keeps_its_time():
    out = child.measure(_Instant(fail_cell="b"), seconds=0.0)
    n = len(out["latencies_s"])
    assert out["failed"] == n // 3
    assert out["reasons"][0].startswith("b: ValueError")


def _verify_output(op):
    return workloads.run_cli(op.argv)


def test_verify_check_rejects_a_wrong_kind_and_a_bad_exit_code():
    op = workloads.VerifyOp("fr_dense", 4, 2.0, 2.0, 1, 1)
    code, text = _verify_output(op)
    assert checks.check_verify(op, code, text) is None
    doc = json.loads(text)
    doc["certificate"]["kind"] = "PST_only"
    assert "kind" in checks.check_verify(op, code, json.dumps(doc))
    assert "exit code" in checks.check_verify(op, 2, text)


def test_verify_check_rejects_off_balance_probabilities():
    op = workloads.VerifyOp("fr_dense", 4, 2.0, 2.0, 1, 1)
    code, text = _verify_output(op)
    doc = json.loads(text)
    doc["numeric"]["mu"] = [0.8, 0.0]
    assert "probabilities" in checks.check_verify(op, code, json.dumps(doc))


@pytest.mark.parametrize("both,as_json", [(False, False), (True, False), (True, True)])
def test_report_check_rejects_a_truncated_report(both, as_json):
    op = workloads.ReportOp("cell", 5, 1.3, 0.7, 1.234, both, as_json)
    code, text = workloads.run_cli(op.argv)
    assert checks.check_report(op, code, text) is None
    lines = text.splitlines(keepends=True)
    for cut in (text[: len(text) // 2], "".join(lines[: len(lines) // 2]), "".join(lines[:-3])):
        assert checks.check_report(op, code, cut) is not None


def test_corner_amplitudes_match_a_brute_force_hamiltonian():
    M, alpha, beta, tau = 4, 0.8, 1.7, 1.1
    x = np.arange(1 << M)
    dist = np.bitwise_count((x[:, None] ^ x[None, :]).astype(np.uint64))
    h = 0.5 * alpha * (dist == 2) + 0.5 * beta * (dist == 1)
    w, v = np.linalg.eigh(h)
    psi = v @ (np.exp(-1j * tau * w) * v[0].conj())
    corner, antipode = checks.corner_amplitudes(M, alpha, beta, tau)
    assert abs(psi[0] - corner) < 1e-12 and abs(psi[-1] - antipode) < 1e-12


@pytest.mark.parametrize("both,as_json", [(False, False), (True, True)])
@pytest.mark.parametrize("end", ["corner", "antipode"])
def test_report_check_rejects_one_flipped_sign(both, as_json, end):
    op = workloads.ReportOp("cell", 5, 1.3, 0.7, 1.234, both, as_json)
    code, text = workloads.run_cli(op.argv)
    assert checks.check_report(op, code, text) is None
    index = 0 if end == "corner" else (1 << (op.N - 1)) - 1
    if as_json:
        doc = json.loads(text)
        row = next(a for a in doc["amplitudes"] if a["system"] == "graph" and a["index"] == index)
        row["re"] = -row["re"]
        bad = json.dumps(doc) + "\n"
    else:
        lines = text.split("\n")
        system, idx, re, im, prob = lines[1 + index].split(",")
        assert (system, int(idx)) == ("graph", index)
        lines[1 + index] = ",".join([system, idx, re[1:] if re.startswith("-") else "-" + re, im, prob])
        bad = "\n".join(lines)
    assert "amplitude" in checks.check_report(op, code, bad)


def _traced_function(name):
    module, fn = name.split(".")
    return getattr(importlib.import_module(f"fracrevival.{module}"), fn)


def test_tracer_sees_internal_calls_and_restores_every_function():
    originals = {name: _traced_function(name) for name in tracing.LAYERS}
    with tracing.Tracer() as tracer:
        tracer.op = 0
        assert cli.main is not originals["cli.main"]
        code, _ = workloads.run_cli(["verify", "--N", "4", "--alpha", "2", "--beta", "2"])
    assert code == 0
    for name, fn in originals.items():
        assert _traced_function(name) is fn, name
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "revival.certify_numeric", "walk.evolve_graph", "walk.fwht"} <= names
    busy = tracer.spans[0][3] - tracer.spans[0][2]
    layers = tracing.summarize(tracer.spans, 1, busy)
    assert layers["cli.main.calls_per_op"] == 1
    assert layers["trace.covered_pct"] == pytest.approx(100.0)


def test_benchmark_json_names_match_what_the_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    timed = {"latencies_s": [0.1, 0.2], "failed": 0, "peak_rss_kb": 1024, "setup_s": 1.0}
    e2e, _ = run.end_to_end(timed, [{"setup_s": 1.0}])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    traced = {"latencies_s": [0.1], "failed": 0, "output_bytes": 10,
              "layers": tracing.summarize([[0, "walk.fwht", 0.0, 0.05, -1, 8]], 1, 0.1)}
    layers, _ = run.per_layer(timed, traced)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layers)

