"""Spans around the public functions of every ``acm5`` layer.

The tracer replaces each listed function in every ``acm5.*`` namespace that
binds it (modules import each other's functions by name), records one span
per call in memory, and restores the originals on ``uninstall``.  Nothing
under ``src/`` changes.  ``scalars.sadd``/``smul`` are left out: they run
on every scalar operation, and wrapping them from outside would distort the
traced run.  ``TrigScalar`` addition and multiplication are wrapped on the
class, because only the trigonometric ring reaches them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = {
    "cli": ("main", "load_coframe", "classification_report"),
    "exterior": ("d_squared_zero", "ext_d", "wedge"),
    "linalg": ("rref", "solve_unique", "rank", "nullspace"),
    "frames": ("connection_from_structure", "verify_first_structure", "frame_change_verify"),
    "acms": ("frame_connection", "nabla_phi", "nijenhuis", "predicates", "gamma_form",
             "d_eta_form"),
    "torsionclass": ("intrinsic_torsion", "classify", "cartan_decompose"),
    "connection": ("characteristic_connection", "compatibility_report", "torsion_type",
                   "curvature", "spinor_space", "spinor_kernel", "parallel_spinor_check"),
    "family": ("build", "verify_identities", "identify_group"),
}
TRIG_OPS = {"add": ("__add__", "__radd__"), "mul": ("__mul__", "__rmul__")}
MODULES = (*LAYERS, "scalars")
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
TRIG_FUNCTIONS = tuple(f"scalars.TrigScalar.{op}" for op in TRIG_OPS)


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_ms"] = "ms"
    for name in TRIG_FUNCTIONS:
        out[f"{name}.calls"] = "count"
    for module in MODULES:
        out[f"{module}.self_ms"] = "ms"
    out["acms.useful_ratio"] = "1"
    out["trace.overhead_ratio"] = "1"
    out["failed_ratio"] = "1"
    return out


class Tracer:
    """Span recorder: spans are (name, start_ns, end_ns, parent index, request id)."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return traced

    def install(self):
        namespaces = [m for n, m in sys.modules.items() if n == "acm5" or n.startswith("acm5.")]
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"acm5.{module}")
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        trig = importlib.import_module("acm5.scalars").TrigScalar
        for op, attrs in TRIG_OPS.items():
            wrapper = self._wrap(f"scalars.TrigScalar.{op}", getattr(trig, attrs[0]))
            for attr in attrs:
                self._patches.append((trig, attr, trig.__dict__[attr]))
                setattr(trig, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """One JSON array per line: [name, start_ns, end_ns, parent index, request id]."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")


def layer_metrics(spans, requests):
    """Per-request means of calls and self time, derived from the spans alone.

    A span's self time is its duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    child_ns = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_ns = Counter(), Counter()
    acms_by_request = defaultdict(Counter)
    for index, (name, start, end, _, request) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[index]
        if name.startswith("acms."):
            acms_by_request[request][name] += 1
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = calls[name] / requests
        out[f"{name}.self_ms"] = self_ns[name] / requests / 1e6
    for name in TRIG_FUNCTIONS:
        out[f"{name}.calls"] = calls[name] / requests
    for module in MODULES:
        out[f"{module}.self_ms"] = sum(
            ns for name, ns in self_ns.items() if name.startswith(f"{module}.")) / requests / 1e6
    ratios = [len(c) / sum(c.values()) for c in acms_by_request.values()]
    out["acms.useful_ratio"] = sum(ratios) / len(ratios) if ratios else 1.0
    return out
