"""Span recorder for the traced benchmark run.

The tracer wraps public functions and methods of nblifts from outside the
library.  Every call of a wrapped function records one span: its name,
start, end, parent span and op id.  Spans live in flat arrays in memory and
are written out once, after the run; nothing is added to the library's own
report.  Self time is a span's duration minus the time its children cover.

This module imports only the standard library at import time, so that the
benchmark's set-up timing starts with a cold ``import nblifts``.
"""

from array import array
import importlib
import json
import sys
import time

# Every traced callable, as "module.attribute" or "module.Class.method".
# A function is patched wherever an nblifts module binds it, which covers
# the ``from .x import f`` copies the library's modules hold.
TARGETS = (
    "graphs.Graph.__init__",
    "graphs.GraphMorphism.__post_init__",
    "graphs.Graph.components",
    "graphs.prune_with_map",
    "graphs.subgraph_from_orbits",
    "lifts.sample_assignment",
    "lifts.build_lift",
    "spectral.adjacency_spectrum",
    "spectral.multiset_difference",
    "spectral.mu1",
    "spectral.hashimoto_matrix",
    "tangles.scan_tangles",
    "tangles.canonical_form",
    "magnify.is_pseudo_magnifier",
    "magnify.neighborhood",
    "walks.count_snbc_dfs",
    "walks.snbc_count",
    "experiments.run_trial",
    "experiments.trial_seed",
    "experiments.summarize_rows",
    "experiments.fit_scaling",
    "experiments.ExperimentReport.dump",
)

# Spans that start a new op; the op id of every span below them.
ROOTS = ("experiments.run_trial", "census.op")


def _count_scan(counters, args, result):
    counters["tangles.scans"] += 1
    counters["tangles.candidates"] += result.scanned
    counters["tangles.caps_hit"] += bool(result.caps_hit)


def _count_magnifier(counters, args, result):
    counters["magnify.subsets_checked"] += result.trials


def _count_eigvalsh(counters, args, result):
    n = args[0].n
    counters["spectral.adjacency_spectrum.gflop_computed"] += 4 / 3 * n ** 3 / 1e9


# Counters read from a traced call's arguments or result.
COUNTERS = {
    "tangles.scan_tangles": _count_scan,
    "magnify.is_pseudo_magnifier": _count_magnifier,
    "spectral.adjacency_spectrum": _count_eigvalsh,
}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(
            ("tangles.scans", "tangles.candidates", "tangles.caps_hit",
             "magnify.subsets_checked",
             "spectral.adjacency_spectrum.gflop_computed"), 0)
        self.ops = 0
        self._stack = []
        self._op = -1

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """A callable that runs fn inside a span called name."""
        nid = self._name_id(name)
        root = name in ROOTS
        count = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            if root:
                self._op = self.ops
                self.ops += 1
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                if root:
                    self._op = -1
            if count is not None:
                count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, patches):
        """Wrap every target wherever the loaded nblifts modules bind it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nblifts"
                                         or key.startswith("nblifts."))]
        for target in TARGETS:
            mod_name, *path = target.split(".")
            owner = importlib.import_module("nblifts." + mod_name)
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self.wrap(target, original)
            if len(path) > 1:          # a method: patch the class only
                patches.set(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.set(mod, attr, wrapper)

    def summary(self):
        """Per span name: (calls, inclusive seconds, self seconds), plus
        the number of mu1 calls that ran a dense Hashimoto eigensolve."""
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        k = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        out = {name: (int(calls[i]), float(total[i]), float(own[i]))
               for i, name in enumerate(self.names)}
        solves = 0
        if "spectral.hashimoto_matrix" in self._ids and "spectral.mu1" in self._ids:
            h = nid == self._ids["spectral.hashimoto_matrix"]
            under = parent[h & has_parent]
            solves = int(np.unique(
                under[nid[under] == self._ids["spectral.mu1"]]).size)
        return out, solves

    def write(self, path, t0):
        """Spans as JSON lines: a header, then [name, parent, op, start, end]
        per span, times in seconds since t0."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "parent", "op",
                                            "start_s", "end_s"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name_id[i]},{self.parent[i]},{self.op[i]},"
                         f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f}]\n")


def layer_metrics(tracer, ops, extra):
    """The per-layer metric table, per traced op.

    ``extra`` supplies what the workload measures itself:
    ``report_bytes``, ``dfs_steps`` (total over the traced ops) and
    ``overhead_ratio``.  A layer the workload never reaches reads 0.
    """
    spans, solves = tracer.summary()
    c = tracer.counters
    ops = max(ops, 1)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1] / ops

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2] / ops

    def ratio(a, b):
        return a / b if b else 0.0

    unaccounted = sum(own(r) for r in ROOTS)
    report_s = sum(incl(n) for n in ("experiments.summarize_rows",
                                     "experiments.fit_scaling",
                                     "experiments.ExperimentReport.dump"))
    values = {
        "tangles.scan_tangles.self_s": (own("tangles.scan_tangles"), "s/op"),
        "tangles.canonical_form.s": (incl("tangles.canonical_form"), "s/op"),
        "tangles.candidates": (c["tangles.candidates"] / ops, "count/op"),
        "tangles.eigensolve_ratio": (ratio(solves, c["tangles.candidates"]), "1"),
        "tangles.caps_hit_ratio": (ratio(c["tangles.caps_hit"],
                                         c["tangles.scans"]), "1"),
        "graphs.Graph.init.s": (incl("graphs.Graph.__init__"), "s/op"),
        "graphs.Graph.init.calls": (calls("graphs.Graph.__init__") / ops,
                                    "count/op"),
        "graphs.GraphMorphism.check.s": (
            incl("graphs.GraphMorphism.__post_init__"), "s/op"),
        "graphs.prune_with_map.s": (incl("graphs.prune_with_map"), "s/op"),
        "graphs.subgraph_from_orbits.s": (incl("graphs.subgraph_from_orbits"),
                                          "s/op"),
        "graphs.components.s": (incl("graphs.Graph.components"), "s/op"),
        "spectral.adjacency_spectrum.s": (incl("spectral.adjacency_spectrum"),
                                          "s/op"),
        "spectral.adjacency_spectrum.calls": (
            calls("spectral.adjacency_spectrum") / ops, "count/op"),
        "spectral.adjacency_spectrum.gflop_computed": (
            c["spectral.adjacency_spectrum.gflop_computed"] / ops, "GFLOP/op"),
        "spectral.multiset_difference.s": (incl("spectral.multiset_difference"),
                                           "s/op"),
        "spectral.mu1.s": (incl("spectral.mu1"), "s/op"),
        "spectral.mu1.eigensolves": (solves / ops, "count/op"),
        "lifts.sample_assignment.s": (incl("lifts.sample_assignment"), "s/op"),
        "lifts.build_lift.self_s": (own("lifts.build_lift"), "s/op"),
        "magnify.is_pseudo_magnifier.s": (incl("magnify.is_pseudo_magnifier"),
                                          "s/op"),
        "magnify.subsets_checked": (c["magnify.subsets_checked"] / ops,
                                    "count/op"),
        "magnify.neighborhood.calls": (calls("magnify.neighborhood") / ops,
                                       "count/op"),
        "walks.count_snbc_dfs.s": (incl("walks.count_snbc_dfs"), "s/op"),
        "walks.snbc_count.s": (incl("walks.snbc_count"), "s/op"),
        "walks.dfs_steps_computed": (extra.get("dfs_steps", 0) / ops,
                                     "count/op"),
        "experiments.run_trial.s": (incl("experiments.run_trial"), "s/op"),
        "experiments.trial_seed.s": (incl("experiments.trial_seed"), "s/op"),
        "experiments.report.s": (report_s, "s/op"),
        "experiments.report.bytes": (extra.get("report_bytes", 0), "B"),
        "trace.unaccounted_s": (unaccounted, "s/op"),
        "trace.overhead_ratio": (extra["overhead_ratio"], "1"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
