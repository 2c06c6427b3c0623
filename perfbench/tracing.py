"""Per-layer spans, installed on fragmenta's public functions from outside.

`Tracer.install` replaces each wrapped function in every loaded fragmenta
module namespace that binds it (modules import some functions by name, e.g.
`dynamics.logical_tomography`), and `uninstall` puts the originals back.
Each call records a span (id, parent id, name, start, end) in memory; spans
are written out once the run ends.  Worker threads with no open span of
their own (the sector decomposition's pool) take the main thread's open
span as their parent.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

WRAPPED = {
    "config": ("frozen_mask", "flippable_mask", "cz_signs", "intersection_counts",
               "stabilizer_signs", "is_flippable", "is_code_state"),
    "fragmentation": ("enumerate_frozen", "code_states", "krylov_decompose", "sector_of",
                      "count_code_states_transfer"),
    "encoding": ("enumerate_blocks", "verify_pauli_algebra", "logical_operator",
                 "logical_state", "logical_tomography"),
    "dynamics": ("build_heff", "build_hczp", "build_perturbation", "evolve",
                 "coherence_experiment"),
    "gates": ("apply_rx", "apply_rz", "apply_logical_cnot", "cnot_permutation", "gate_report"),
    "syndrome": ("detection_experiment", "extract_syndrome", "inject_pauli"),
    "quadflip": ("quadflip_report", "krylov_decompose_quadflip", "verify_qudit_algebra"),
}
SPAN_NAMES = [f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs]
# vectorized kernels: configs_scanned counts the array passed to the outermost one
KERNELS = {"config.frozen_mask", "config.flippable_mask", "config.cz_signs",
           "config.intersection_counts", "config.stabilizer_signs"}
COUNTERS = ("config.configs_scanned", "fragmentation.sector_of.states_visited")


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, start, end, nested)
        self.counters = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._patched = []
        self._lock = threading.Lock()   # counters are bumped from worker threads too

    def _state(self):
        """Per-thread (span stack, open-name counts)."""
        local = self._local
        if not hasattr(local, "stack"):
            main = threading.current_thread() is threading.main_thread()
            local.stack = self._main_stack if main else []
            local.open = defaultdict(int)
        return local.stack, local.open

    def wrap(self, name, fn):
        spans, counters, ids, lock = self.spans, self.counters, self._ids, self._lock
        main_stack = self._main_stack
        kernel = name in KERNELS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, open_names = self._state()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            if kernel and not any(open_names[k] for k in KERNELS):
                with lock:
                    counters["config.configs_scanned"] += int(np.size(args[0]))
            sid = next(ids)
            nested = open_names[name] > 0
            stack.append(sid)
            open_names[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_names[name] -= 1
                stack.pop()
                spans.append((sid, parent, name, start, end, nested))
            if name == "fragmentation.sector_of":
                with lock:
                    counters["fragmentation.sector_of.states_visited"] += result.size
            return result

        return traced

    def install(self):
        replacement = {}
        for mod, names in WRAPPED.items():
            module = importlib.import_module(f"fragmenta.{mod}")
            for fname in names:
                orig = getattr(module, fname, None)
                if orig is not None:
                    replacement[id(orig)] = (orig, self.wrap(f"{mod}.{fname}", orig))
        for modname, module in list(sys.modules.items()):
            if modname != "fragmenta" and not modname.startswith("fragmenta."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def layer_metrics(self, n_passes):
        """calls, total_s and self_s per wrapped function, per pass.

        total_s counts only the outermost span of a recursive call chain; self
        time is a span's duration minus the union of its children's intervals.
        """
        children = defaultdict(list)
        for sid, parent, _, start, end, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for sid, _, name, start, end, nested in self.spans:
            calls[name] += 1
            if not nested:
                total[name] += end - start
            own[name] += (end - start) - _covered(children.get(sid, ()), start, end)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / n_passes, "count")
            out[f"{name}.total_s"] = (total[name] / n_passes, "s")
            out[f"{name}.self_s"] = (own[name] / n_passes, "s")
        for name in COUNTERS:
            out[name] = (self.counters[name] / n_passes, "count")
        return out

    def write(self, path):
        """Spans as JSON lines: a header naming the fields, then one list per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end", "nested"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    length = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                length += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        length += cur_hi - cur_lo
    return length
