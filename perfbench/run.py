"""Benchmark of the fracrevival package: verdicts and evolution reports.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 55 --trace 0

Run from the repository root.  Workloads: `verify`, `evolve_report` (see
perfbench/README.md for why each was chosen and which layer metric should
move which end-to-end metric).

Each measurement is a fresh child process with one closed-loop client and
BLAS pinned to one thread.  With `--trace 0` one child is timed and a few
more only set up, and the end-to-end metrics are printed.  With `--trace 1`
half the time goes to an untraced child and half to a traced one, and the
per-layer metrics are printed.  The metric names and units come from
BENCHMARK.json.  The last line of stdout is one JSON object; the lines
before it give the environment, each metric with its sample count, and the
large-ratio probe.  The exit code is not 0 when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402  (needs ROOT on sys.path)

SETUP_REPEATS = 2     # set-up-only children, besides the timed one; setup_s is their median
BUDGET_S = 170.0      # every child of one invocation must end within this
SPANS_DIR = ROOT / "perfbench" / "out"


class ChildError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env.update(
        PYTHONPATH=os.pathsep.join(paths),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",  # every child compiles the same sources
    )
    return env


def spawn(args, mode: str, seconds: float, deadline: float, spans: Path | None = None) -> dict:
    """Run one child to completion; its set-up time is measured from here."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildError(f"{mode} child exceeded the {BUDGET_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_op_at"] - started
    return result


def _ops_per_s(child: dict) -> float:
    """Ops that passed their check, per second of timed calls."""
    return (len(child["latencies_s"]) - child["failed"]) / sum(child["latencies_s"])


def end_to_end(timed: dict, setups: list[dict]) -> tuple[dict, dict]:
    """(metric -> value, metric -> sample count) of one timed child."""
    lat = timed["latencies_s"]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    setup_times = [s["setup_s"] for s in setups + [timed]]
    values = {
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": timed["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    counts = {"latency_p50_ms": len(lat), "latency_p90_ms": len(lat),
              "peak_rss_mb": 1, "setup_s": len(setup_times)}
    return values, counts


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    n = len(traced["latencies_s"])
    values = dict(traced["layers"])
    values["cli.output_bytes_per_op"] = traced["output_bytes"] / n
    values["trace.overhead_pct"] = 100.0 * (_ops_per_s(untraced) / _ops_per_s(traced) - 1.0)
    return values, dict.fromkeys(values, n)


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, child: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": child["numpy"], "blas": child["blas"], "blas_threads": child["blas_threads"],
        "nproc": len(os.sched_getaffinity(0)), "caches": _cache_sizes(),
        "commit": _git_commit(), "seed": args.seed, "src_lines": src_lines,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which then kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fracrevival" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'fracrevival'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + BUDGET_S
    setups = []
    try:
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            untraced = spawn(args, "timed", args.seconds / 2, deadline)
            spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.json"
            traced = spawn(args, "traced", args.seconds / 2, deadline, spans)
            measured = [untraced, traced]
            values, counts = per_layer(untraced, traced)
        else:
            setups = [spawn(args, "setup", 0, deadline) for _ in range(SETUP_REPEATS)]
            timed = spawn(args, "timed", args.seconds, deadline)
            measured = [timed]
            values, counts = end_to_end(timed, setups)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["latencies_s"]) for r in measured)
    failed = sum(r["failed"] for r in measured)
    setup_failures = [f for r in measured + setups for f in r["setup_failures"]]
    print("env " + json.dumps(environment(args, measured[0])))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']} (n={counts[m['name']]})")
    print(f"metric error_rate = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for r in measured:
        for reason in r["reasons"]:
            print(f"failed op: {reason}")
        if "probe" in r:
            print("probe " + json.dumps(r["probe"]))
    for reason in setup_failures:
        print(f"failed set-up check: {reason}")
    correct = failed == 0 and not setup_failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
