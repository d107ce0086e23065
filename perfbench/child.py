"""One measured process: set up a workload, run its closed loop, report.

Run as `python -m perfbench.child --workload W --seed N --seconds S --mode M`
from the repository root with `src` on PYTHONPATH; `perfbench/run.py` does
this.  The last line of stdout is one JSON object.  `first_op_at` is read
from the monotonic clock, which the parent shares, so the parent can time
set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

MIN_OPS = 100        # p90 then has at least 10 samples beyond it
MAX_LOOP_S = 120.0   # the loop stops here even short of MIN_OPS
KEEP_REASONS = 5


def _blas() -> dict:
    import numpy as np

    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas*"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {"numpy": np.__version__, "blas": f"{info.get('name')} {info.get('version')}", "blas_threads": threads}


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: whole cycles until `seconds` and MIN_OPS are both reached.

    Only the call into the package is timed; input generation and the
    output check run between ops.
    """
    latencies, reasons, out_bytes = [], [], 0
    failed = 0
    first_op_at = time.monotonic()
    while True:
        for cell in workload.cycle:
            op = workload.next_op(cell)
            if tracer is not None:
                tracer.op = len(latencies)
            start = time.perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # a failed op is counted and keeps its time
                result = exc
            latencies.append(time.perf_counter() - start)
            if isinstance(result, Exception):
                reason = f"{type(result).__name__}: {result}"
            else:
                reason = workload.check(op, result)
                out_bytes += workload.output_bytes(result)
            if reason:
                failed += 1
                if len(reasons) < KEEP_REASONS:
                    reasons.append(f"{cell}: {reason}")
        elapsed = time.monotonic() - first_op_at
        if (elapsed >= seconds and len(latencies) >= MIN_OPS) or elapsed >= MAX_LOOP_S:
            break
    return {"first_op_at": first_op_at, "latencies_s": latencies, "failed": failed,
            "reasons": reasons, "output_bytes": out_bytes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = parser.parse_args(argv)

    from . import tracing, workloads

    root = Path(__file__).resolve().parent.parent
    import fracrevival

    if Path(fracrevival.__file__).resolve().parent != root / "src" / "fracrevival":
        raise SystemExit(f"fracrevival imported from {fracrevival.__file__}, not from {root / 'src'}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_failures = workload.setup()
    out = {"setup_failures": setup_failures}
    if args.mode == "setup":
        out["first_op_at"] = time.monotonic()
    else:
        tracer = tracing.Tracer() if args.mode == "traced" else None
        with tracer or contextlib.nullcontext():
            out.update(measure(workload, args.seconds, tracer))
        if tracer is not None:
            out["layers"] = tracing.summarize(tracer.spans, len(out["latencies_s"]), sum(out["latencies_s"]))
            if args.spans:
                tracer.write(args.spans)
        elif workload.probe is not None:
            out["probe"] = workload.probe()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.update(_blas())
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
