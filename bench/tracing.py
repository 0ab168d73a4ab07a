"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function by a wrapper in every
``cdbundle`` module that binds it, because ``from .x import f`` copies the
name: ``equivalence`` and ``feasibility`` call ``invariants_at_zero`` through
their own binding.  Methods are wrapped once, on the class that defines them.
``uninstall`` puts the originals back.

A span is ``[name, parent, op, start, end]``; ``parent`` is the index of the
enclosing span or -1, ``op`` the benchmark operation it belongs to.  Spans
stay in memory and are written out once, when the run ends.  A span's self
time is its duration minus the durations of its children (one thread, so
children never overlap).

Inside each oracle route span the tracer also records the points at which
the metric was evaluated, and keeps per route call the number of
evaluations and the number of distinct points (exact complex equality).
"""

from __future__ import annotations

import csv
import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, function) for module-level functions
FUNCTIONS = (
    ("kernels.taylor", "kernels", "kernel_taylor"),
    ("invariants.normalize", "invariants", "normalize"),
    ("invariants.invariants_at_zero", "invariants", "invariants_at_zero"),
    ("invariants.covd_zbar_n_at_zero", "invariants", "covd_zbar_n_at_zero"),
    ("oracle.curvature_fd", "oracle", "curvature_fd"),
    ("oracle.covd_zbar_fd", "oracle", "covd_zbar_fd"),
    ("oracle.covd_zzbar_fd", "oracle", "covd_zzbar_fd"),
    ("oracle.curvature_eigenvalues_fd", "oracle", "curvature_eigenvalues_fd"),
    ("equivalence.full_report", "equivalence", "full_report"),
    ("equivalence.simultaneous_pair_equiv", "equivalence", "simultaneous_pair_equiv"),
    ("equivalence.zzbar_distinguishes", "equivalence", "zzbar_distinguishes"),
    ("feasibility.solve_triple", "feasibility", "solve_triple"),
    ("feasibility.permutation_analysis", "feasibility", "permutation_analysis"),
    ("feasibility.roundtrip_check", "feasibility", "roundtrip_check"),
)
# (span name, module, class, method)
METHODS = (
    ("kernels.metric_at", "kernels", "KernelSpec", "metric_at"),
    ("series.multiply", "series", "MatrixPowerSeries2", "multiply"),
    ("series.invert", "series", "MatrixPowerSeries2", "invert"),
)
LAYERS = tuple(sorted(name for name, *_ in FUNCTIONS + METHODS))
ROUTES = ("oracle.curvature_fd", "oracle.covd_zbar_fd", "oracle.covd_zzbar_fd")
POINT_SPAN = "kernels.metric_at"


class Tracer:
    def __init__(self):
        self.spans = []
        self.route_counts = {}  # route span index -> (metric evaluations, distinct points)
        self.op = None  # spans are recorded only while an operation is open
        self._stack = []
        self._points = []  # one list of metric points per open route span
        self._patches = []

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn):
        is_route = name in ROUTES
        records_point = name == POINT_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if records_point and self._points:
                self._points[-1].append(args[1])
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, self.op, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            if is_route:
                self._points.append([])
            span[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._stack.pop()
                if is_route:
                    points = self._points.pop()
                    self.route_counts[index] = (len(points), len(set(points)))

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cdbundle" or n.startswith("cdbundle.")]
        for name, modname, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"cdbundle.{modname}"), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
        for name, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(f"cdbundle.{modname}"), clsname)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- spans from child processes --------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "routes": list(self.route_counts.items())}, fh)

    def merge(self, path) -> None:
        """Append a child's spans under the current operation, as roots."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        offset = len(self.spans)
        for name, parent, _op, start, end in doc["spans"]:
            self.spans.append([name, parent + offset if parent >= 0 else -1, self.op, start, end])
        for index, counts in doc["routes"]:
            self.route_counts[index + offset] = tuple(counts)

    # -- aggregation -----------------------------------------------------

    def totals(self, first: int = 0) -> dict:
        """Per-layer calls, self seconds and route counts over spans[first:]."""
        child = defaultdict(float)
        for name, parent, _op, start, end in self.spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        evals, distinct = Counter(), Counter()
        for index in range(first, len(self.spans)):
            name, _parent, _op, start, end = self.spans[index]
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
            if index in self.route_counts:
                n, d = self.route_counts[index]
                evals[name] += n
                distinct[name] += d
        return {"calls": calls, "self_s": self_s, "metric_evals": evals,
                "distinct_points": distinct}

    @staticmethod
    def counters(totals: dict) -> dict:
        """The deterministic part of ``totals``: every count, no time."""
        return {key: dict(sorted(totals[key].items()))
                for key in ("calls", "metric_evals", "distinct_points")}

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "name", "start_s", "end_s",
                          "metric_evals", "distinct_points"])
            for index, (name, parent, op, start, end) in enumerate(self.spans):
                counts = self.route_counts.get(index, ("", ""))
                out.writerow([index, parent, op, name, repr(start), repr(end), *counts])
