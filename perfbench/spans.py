"""Spans and call counts around the public entry points of dtl's modules.

The tracer is installed from outside the package: it wraps every public
function of each traced module, and the public methods of `QScalar` and
`GroundSet`, then rebinds every name in the `dtl` namespaces that referred to
the original. Names that `dtl.cli` (or any other module) imported with
`from .x import y` are therefore traced too.

Most entry points get a span (name, start, end, parent). A few are called so
often that a per-call timer would swamp what it measures; those are counted
only, and their time stays in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from collections import Counter

LAYERS = ("cli", "lattice", "search", "rotation", "geometry", "qscalar", "pointset_io")
TRACED_CLASSES = {"qscalar": ("QScalar",), "search": ("GroundSet",)}
# Operator and constructor dunders are the hot public surface of QScalar.
TRACED_DUNDERS = frozenset(
    {"__init__", "__eq__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__",
     "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__truediv__", "__neg__"}
)
COUNT_ONLY_LAYERS = frozenset({"qscalar"})
COUNT_ONLY = frozenset(
    {"lattice.bounding_box_class", "search.GroundSet.shape_key",
     "search.GroundSet.sq_distance"}
)
QSCALAR_CMP = tuple(f"qscalar.QScalar.{m}" for m in ("__lt__", "__le__", "__gt__", "__ge__"))


def max_rss_mb() -> float:
    """High-water resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    A span is (name, start, end, parent), where parent is the index of the
    enclosing span or -1. Children of one span never overlap (the traced
    program runs on one thread), so their durations add up.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Records spans and counts for one process; install once, before the run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.facts: Counter = Counter()
        self.wrapped: set[str] = set()
        self.modules: set[str] = set()
        self._stack: list[int] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"dtl.{layer}")
            except ImportError:
                continue  # a removed module shows up as absent metrics
            self.modules.add(layer)
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self._rebind(obj, self._wrap(f"{layer}.{name}", obj))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if isinstance(cls, type):
                    self._wrap_methods(layer, cls)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for name, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (not name.startswith("_") or name in TRACED_DUNDERS):
                setattr(cls, name, self._wrap(f"{layer}.{cls.__name__}.{name}", obj))

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dtl" or mod_name.startswith("dtl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap(self, key: str, fn):
        self.wrapped.add(key)
        layer = key.split(".", 1)[0]
        if layer in COUNT_ONLY_LAYERS or key in COUNT_ONLY:
            return self._counter(key, fn)
        return self._spanner(key, fn, OBSERVERS.get(key), layer == "lattice")

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, key: str, fn, observe, track_rss: bool):
        spans, stack, facts = self.spans, self._stack, self.facts

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            outermost_rss = track_rss and not any(
                spans[i][0].startswith("lattice.") for i in stack
            )
            rss0 = max_rss_mb() if outermost_rss else 0.0
            idx = len(spans)
            spans.append([key, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if outermost_rss:
                facts["lattice.rss_growth_mb"] += max_rss_mb() - rss0
            if observe is not None:
                observe(facts, args, result)
            return result

        return spanned

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; one whose entry point is missing is left out."""
        selfs = self_times(self.spans)
        spans_by_layer = Counter(s[0].split(".", 1)[0] for s in self.spans)
        out: dict[str, float] = {}
        for layer in self.modules - COUNT_ONLY_LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for s, t in zip(self.spans, selfs) if s[0].startswith(layer + ".")
            )
        for layer in self.modules & {"cli", "lattice"}:
            out[f"{layer}.calls"] = spans_by_layer[layer]
        if "lattice" in self.modules:
            out["lattice.rss_growth_mb"] = self.facts["lattice.rss_growth_mb"]
        calls = self.counts + Counter(s[0] for s in self.spans)
        for metric, keys in CALL_COUNTS.items():
            if all(k in self.wrapped for k in keys):
                out[metric] = sum(calls[k] for k in keys)
        for metric, key in FACTS.items():
            if key in self.wrapped:
                out[metric] = self.facts[metric]
        if "search.shape_key_calls" in out and "search.nodes_explored" in out:
            nodes = out["search.nodes_explored"]
            out["search.shape_keys_per_node"] = (
                out["search.shape_key_calls"] / nodes if nodes else 0.0
            )
        return out


# -- observers: facts read from an entry point's arguments or result ----------


def _census(facts, args, result) -> None:
    if hasattr(result, "distinct"):
        facts["lattice.distinct_keys"] += result.distinct


def _search(facts, args, result) -> None:
    facts["search.nodes_explored"] += result.nodes_explored
    facts["search.witnesses"] += len(result.witnesses)


def _triples(facts, args, result) -> None:
    facts["rotation.triples_enumerated"] += len(result)


def _read(facts, args, result) -> None:
    facts["pointset_io.bytes_read"] += os.path.getsize(args[0])


OBSERVERS = {
    "lattice.grid_census": _census,
    "lattice.tri_lattice_census": _census,
    "lattice.general_lattice_census": _census,
    "search.max_subset_with_k_shapes": _search,
    "rotation.enum_primitive_triples": _triples,
    "pointset_io.load_point_file": _read,
}
# metric -> the entry point whose presence makes the metric measurable
FACTS = {
    "lattice.distinct_keys": "lattice.grid_census",
    "search.nodes_explored": "search.max_subset_with_k_shapes",
    "search.witnesses": "search.max_subset_with_k_shapes",
    "rotation.triples_enumerated": "rotation.enum_primitive_triples",
    "pointset_io.bytes_read": "pointset_io.load_point_file",
}
CALL_COUNTS = {
    "geometry.sq_dist_calls": ("geometry.sq_dist",),
    "lattice.bounding_box_class_calls": ("lattice.bounding_box_class",),
    "search.shape_key_calls": ("search.GroundSet.shape_key",),
    "qscalar.init_calls": ("qscalar.QScalar.__init__",),
    "qscalar.cmp_calls": QSCALAR_CMP,
    "qscalar.eq_calls": ("qscalar.QScalar.__eq__",),
    "qscalar.hash_calls": ("qscalar.QScalar.__hash__",),
}

# Every per-layer metric of a traced run, with its unit. The last three are
# filled in by the harness: bytes the commands wrote, CPU time of the
# untraced repetitions, and traced minus untraced wall time.
LAYER_UNITS = {
    "lattice.self_s": "s", "lattice.calls": "count", "lattice.distinct_keys": "count",
    "lattice.rss_growth_mb": "MB", "lattice.bounding_box_class_calls": "count",
    "search.self_s": "s", "search.nodes_explored": "count", "search.witnesses": "count",
    "search.shape_key_calls": "count", "search.shape_keys_per_node": "ratio",
    "qscalar.init_calls": "count", "qscalar.cmp_calls": "count",
    "qscalar.eq_calls": "count", "qscalar.hash_calls": "count",
    "geometry.self_s": "s", "geometry.sq_dist_calls": "count",
    "rotation.self_s": "s", "rotation.triples_enumerated": "count",
    "pointset_io.self_s": "s", "pointset_io.bytes_read": "bytes",
    "cli.self_s": "s", "cli.calls": "count", "cli.bytes_written": "bytes",
    "process.cpu_s": "s", "trace.overhead_s": "s",
}
