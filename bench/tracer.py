"""In-memory span tracer for the zonotutte layers, installed from outside.

Every public function of each layer module (and a few hot methods) is
replaced by a wrapper that records one span per call: name, start, end,
parent span and op id.  A wrapper is bound in every zonotutte namespace
that held the original, so a name imported with ``from .x import f`` is
traced as well as ``x.f``.  Library code is not modified; uninstall()
puts every original back.

A few wrappers also count work at the layer boundary (sublists visited,
independent-set candidates, facets, box points).  Counts are taken from
the arguments and results after the span closes, so they do not add to
the span's own duration.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from functools import wraps
from math import comb, prod

LAYERS = ("cli", "tutte_core", "exact_linalg", "polynomials", "ehrhart", "geometry_oracle")

# (layer, class, method) -> span name.  Methods are traced only where a
# per-layer metric needs them; wrapping every method would slow the hot
# loops for no reported number.
METHODS = {
    ("exact_linalg", "IntMatrix", "from_columns"): "exact_linalg.IntMatrix.from_columns",
    ("polynomials", "UniPoly", "taylor_shift"): "polynomials.taylor_shift",
    ("polynomials", "UniPoly", "evaluate"): "polynomials.evaluate",
    ("polynomials", "BiPoly", "evaluate"): "polynomials.evaluate",
}

# Marks the line on which a traced child process hands its spans back.
SPAN_MARKER = "@@zonotutte-bench-spans "


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_sublists(counters, args, kwargs, result):
    counters["tutte_core.sublists"] += 1 << len(_arg(args, kwargs, 0, "X"))


def _count_candidates(counters, args, kwargs, result):
    X = _arg(args, kwargs, 0, "X")
    counters["ehrhart.independent_candidates"] += sum(
        comb(len(X), k) for k in range(X.dim + 1)
    )


def _count_facets(counters, args, kwargs, result):
    counters["geometry_oracle.facets"] += len(result.inequalities)


def _count_box(counters, args, kwargs, result):
    # the coordinate bounding box of q*Z(X), the region the oracle scans
    X, q = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "q")
    counters["geometry_oracle.box_points"] += prod(
        q * sum(max(v[j], 0) for v in X.vectors) - q * sum(min(v[j], 0) for v in X.vectors) + 1
        for j in range(X.dim)
    )
    counters["geometry_oracle.closed_points"] += result[0]


COUNTERS = {
    "tutte_core.multiplicity_tutte": _count_sublists,
    "tutte_core.classical_tutte": _count_sublists,
    "ehrhart.ehrhart_via_independent_sets": _count_candidates,
    "geometry_oracle.zonotope_hrep": _count_facets,
    "geometry_oracle.closed_open_counts": _count_box,
}


class Tracer:
    """Spans and counters of one traced run, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counters: Counter = Counter()
        self.current = -1
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        clock = time.perf_counter_ns
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(tracer.current)
            ops.append(tracer.op_id)
            starts.append(0)
            ends.append(0)
            tracer.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.current = parents[idx]
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and the METHODS of the layer modules."""
        modules = {layer: importlib.import_module(f"zonotutte.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "zonotutte" and not modname.startswith("zonotutte."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def export(self) -> dict:
        """Plain-data copy of the spans, for a child process to hand back."""
        return {
            "names": self.names,
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i]]
                for i in range(len(self.start))
            ],
            "counters": dict(self.counters),
        }

    def merge(self, exported: dict, op_id: int) -> None:
        """Append a child's exported spans under op op_id."""
        base = len(self.start)
        ids = [self._name_id(n) for n in exported["names"]]
        for nid, start, end, parent in exported["spans"]:
            self.name.append(ids[nid])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op_id)
        self.counters.update(exported["counters"])

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, self time and inclusive time in ns.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls, self_ns, incl_ns = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
            incl_ns[name] += dur[i]
        return calls, self_ns, incl_ns

    def write(self, path) -> None:
        """Write every span as gzipped CSV."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )
