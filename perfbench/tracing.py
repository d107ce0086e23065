"""Per-layer spans, recorded from outside the package under test.

`Tracer` replaces each traced function on the module that defines it, so
calls between the package's own modules are seen too, and puts the
originals back on exit.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np

TRACED = {
    "cli": ("main",),
    "revival": ("check_conditions", "certify_numeric", "scan_balanced_fr", "appendix_phase_check"),
    "walk": ("evolve_graph", "fwht", "antipodal_amplitudes", "antipodal_scan", "dense_hamiltonian"),
    "kraw": ("graph_eigenvalues",),
    "scheme": ("hamming_weights",),
    "chain": ("chain_evolve", "build_hamiltonian"),
    "quotient": ("project", "equivalence_check"),
}
LAYERS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Work counted per call: amplitudes transformed, times scanned.
_SIZE = {
    "walk.fwht": lambda args, kwargs: int(np.shape(args[0])[0]),
    "walk.antipodal_scan": lambda args, kwargs: int(np.size(args[1])),
}
COMPLEX_BYTES = 16


class Tracer:
    """Context manager: while active, every traced call appends one span.

    A span is [op, name, start, end, parent, size]; parent is the index of
    the enclosing span or -1, and size the work counted by _SIZE.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def __enter__(self):
        for mod_name, fns in TRACED.items():
            module = importlib.import_module(f"fracrevival.{mod_name}")
            for fn in fns:
                original = getattr(module, fn)
                self._originals.append((module, fn, original))
                setattr(module, fn, self._wrap(f"{mod_name}.{fn}", original))
        return self

    def __exit__(self, *exc):
        for module, fn, original in reversed(self._originals):
            setattr(module, fn, original)
        self._originals.clear()
        return False

    def _wrap(self, name, fn):
        size_of = _SIZE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    size_of(args, kwargs) if size_of else 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["op", "name", "start", "end", "parent", "size"], "spans": self.spans}, handle)


def summarize(spans: list[list], ops: int, busy_s: float) -> dict:
    """Per-layer calls and self time per op, plus the counted work per op.

    Self time is a span's duration minus the durations of its child spans.
    `trace.covered_pct` is the share of the timed ops' busy time that the
    layers' self times account for.
    """
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    size = dict.fromkeys(LAYERS, 0)
    for _, name, start, end, parent, n in spans:
        calls[name] += 1
        self_s[name] += end - start
        size[name] += n
        if parent >= 0:
            self_s[spans[parent][1]] -= end - start
    out = {}
    for name in LAYERS:
        out[f"{name}.calls_per_op"] = calls[name] / ops
        out[f"{name}.self_ms_per_op"] = 1e3 * self_s[name] / ops
    fwht_bytes = 2 * COMPLEX_BYTES * size["walk.fwht"]  # computed: one read, one write per call
    out["walk.fwht.bytes_per_op"] = fwht_bytes / ops
    out["walk.fwht.effective_gbps"] = fwht_bytes / self_s["walk.fwht"] / 1e9 if self_s["walk.fwht"] else 0.0
    out["walk.antipodal_scan.points_per_op"] = size["walk.antipodal_scan"] / ops
    out["trace.covered_pct"] = 100.0 * sum(self_s.values()) / busy_s
    return out
