"""Per-layer tracing of carlab from outside the package.

``Tracer.install`` wraps the public functions and the public methods of the
public classes of each layer module, and patches every binding of a
wrapped function in every loaded ``carlab`` module, because modules such as
``lab`` import names directly (``from .embeddings import bet_norm_sum``) and
would otherwise keep calling the unwrapped function.  ``Tracer.restore``
puts every original object back.

A span is recorded only where control crosses into a layer from another
layer (or from outside the package); calls inside one layer run unwrapped,
so ``<layer>.calls`` counts entries into the layer.  Spans live in flat
in-memory arrays (layer, start, end, parent) and are reduced to self times
in ``summary``: a span's self time is its duration minus that of its
direct child spans.  A span around a generator function covers creating
the generator, not iterating it.

Hot paths too fine-grained for spans get bare counters instead:
``DyadicIndex.contains`` calls, LAPACK ``eigh``/``eigvalsh`` calls and the
matrices they decompose, Jacobi solves, ``StepField.power`` cache hits,
``BellmanPoint`` constructions and the time spent writing reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = (
    "dyadic",
    "matrices",
    "characteristics",
    "embeddings",
    "constructions",
    "bellman",
    "redundancy",
    "lab",
)

COUNTERS = (
    "contains_calls",
    "lapack_calls",
    "lapack_mats",
    "jacobi_mats",
    "power_calls",
    "power_hits",
    "bellman_points",
    "write_s",
)


class Tracer:
    """Spans and counters for one process; install, run, restore, summarise."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._layer = array("b")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack = [(-1, -1)]  # (layer id, span id) of the open span
        self._patches = []  # (owner, attribute, original), in patch order

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer_id, fn, before=None):
        stack = self._stack
        layers, starts, ends, parents = self._layer, self._start, self._end, self._parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            top_layer, top_span = stack[-1]
            if top_layer == layer_id:
                return fn(*args, **kwargs)
            span = len(starts)
            layers.append(layer_id)
            parents.append(top_span)
            ends.append(0.0)
            stack.append((layer_id, span))
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name, fn, weight=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if weight is None else weight(args)
            return fn(*args, **kwargs)

        return wrapper

    def _timer(self, name, fn):
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name] += clock() - t0

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # -- install / restore --------------------------------------------------

    def install(self):
        """Wrap every layer; idempotence is not supported, call once."""
        import numpy as np

        mods = {name: importlib.import_module(f"carlab.{name}") for name in LAYERS}
        loaded = [
            m for name, m in list(sys.modules.items())
            if name == "carlab" or name.startswith("carlab.")
        ]
        dyadic, matrices = mods["dyadic"], mods["matrices"]
        bellman, lab = mods["bellman"], mods["lab"]

        def stack_size(args):
            shape = np.shape(args[0])
            n = 1
            for s in shape[:-2]:
                n *= s
            return n

        def lapack(fn):
            return self._counter("lapack_calls", self._counter("lapack_mats", fn, stack_size))

        # Counters on hot inner paths, installed before the spans so that
        # the span wrappers see (and keep calling) the counting versions.
        self._patch(np.linalg, "eigh", lapack(np.linalg.eigh))
        self._patch(np.linalg, "eigvalsh", lapack(np.linalg.eigvalsh))
        self._patch(matrices, "_jacobi_eigh", self._counter("jacobi_mats", matrices._jacobi_eigh))
        self._patch(dyadic.DyadicIndex, "contains",
                    self._counter("contains_calls", dyadic.DyadicIndex.contains))
        self._patch(lab.LabReport, "write", self._timer("write_s", lab.LabReport.write))

        def power_hit(args):
            field, p = args[0], args[1]
            self.counts["power_calls"] += 1
            self.counts["power_hits"] += p in getattr(field, "_powers", ())

        def bellman_point(args):
            self.counts["bellman_points"] += 1

        hooks = {
            (dyadic.StepField, "power"): power_hit,
            (bellman.BellmanPoint, "__init__"): bellman_point,
        }

        for layer_id, name in enumerate(LAYERS):
            mod = mods[name]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._span(layer_id, obj)
                    for m in loaded:
                        for bound, value in list(vars(m).items()):
                            if value is obj:
                                self._patch(m, bound, wrapper)
                # DyadicIndex methods run millions of times per workload;
                # only ``contains`` is counted, above.
                elif inspect.isclass(obj) and obj is not dyadic.DyadicIndex:
                    self._wrap_class(layer_id, obj, hooks)
        return self

    def _wrap_class(self, layer_id, cls, hooks):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            before = hooks.get((cls, attr))
            if inspect.isfunction(raw):
                self._patch(cls, attr, self._span(layer_id, raw, before))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._span(layer_id, raw.__func__, before)))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def spans(self):
        """Recorded spans as (layer, start, end, parent span index) tuples."""
        return [
            (LAYERS[layer], start, end, parent)
            for layer, start, end, parent in zip(self._layer, self._start, self._end, self._parent)
        ]

    def summary(self):
        """Per-layer self time and entry count, plus the bare counters."""
        import numpy as np

        layer = np.array(self._layer, dtype=np.intp)
        dur = np.array(self._end, dtype=float) - np.array(self._start, dtype=float)
        parent = np.array(self._parent, dtype=np.intp)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(layer, weights=dur - child_time, minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        out = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.self_s"] = float(self_time[i])
            out[f"{name}.calls"] = int(calls[i])
        c = self.counts
        out["matrices.lapack_calls"] = c["lapack_calls"]
        out["matrices.lapack_mats"] = c["lapack_mats"]
        out["matrices.mats_per_call"] = c["lapack_mats"] / max(c["lapack_calls"], 1)
        out["matrices.jacobi_mats"] = c["jacobi_mats"]
        out["dyadic.contains_calls"] = c["contains_calls"]
        out["dyadic.power_hit_ratio"] = c["power_hits"] / max(c["power_calls"], 1)
        out["bellman.points"] = c["bellman_points"]
        out["lab.write_s"] = c["write_s"]
        return out
