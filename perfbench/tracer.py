"""Per-layer tracing installed from outside the package.

`Tracer.install()` replaces the public functions of each layer module (and
the listed methods of its classes) with timing wrappers, and rebinds every
`lienil` module attribute that imported one of them by name, so calls such
as `dimension.power_subgroup` are traced too.  Nothing under `src/` knows
about it.

Each wrapper counts calls and sums busy seconds.  A per-thread layer stack
gives each layer's self time: the time inside the layer minus the time of
nested calls into other layers.  The collector's per-element methods (HOT)
keep only counts and summed time; every other call also records a span
(request, name, start, end, parent) in memory, written out by
`write_spans` when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy

LAYERS = ("pcgroup", "subgroups", "dimension", "fp_linalg", "oracle",
          "classify", "catalog", "cli")

# class methods traced besides each module's public functions
METHODS = {
    "pcgroup": {"PcGroup": ("__init__", "multiply", "inverse", "power",
                            "commutator", "conjugate", "element_order")},
    "subgroups": {"Subgroup": ("enumerated",)},
    "fp_linalg": {"EchelonAccumulator": ("add_block",)},
    "oracle": {"GroupAlgebra": ("bracket_with_basis",)},
}

RENAME = {"pcgroup.__init__": "pcgroup.construct",
          "pcgroup.parse_presentation_with_meta": "pcgroup.parse"}

# millions of calls per pass: counts and summed time only, no spans
HOT = frozenset({"pcgroup.multiply", "pcgroup.inverse", "pcgroup.power",
                 "pcgroup.commutator", "pcgroup.conjugate",
                 "pcgroup.element_order"})


def _rows(block) -> int:
    """Rows of a block as add_block reads it: a 1-d vector is one row."""
    shape = numpy.shape(block)
    return 0 if 0 in shape else (1 if len(shape) == 1 else shape[0])


def _observe_closure(data, args, result, parent_key):
    data.extra["subgroups.closure.elements"] += result.order
    if parent_key == "subgroups.normal_closure":
        data.extra["subgroups.normal_closure.closures"] += 1


def _observe_add_block(data, args, result, parent_key):
    data.extra["fp_linalg.add_block.rows_in"] += _rows(args[1])
    data.extra["fp_linalg.add_block.rows_kept"] += result.shape[0]


def _observe_matmul(data, args, result, parent_key):
    (m, k), n = args[0].shape, args[1].shape[1]
    data.extra["fp_linalg.matmul_mod.flops_computed"] += 2 * m * k * n


OBSERVERS = {"subgroups.closure": _observe_closure,
             "fp_linalg.add_block": _observe_add_block,
             "fp_linalg.matmul_mod": _observe_matmul}


class _ThreadData:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []   # [layer, seconds in nested other layers]
        self.open: list[int] = []     # indices of open spans
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.secs: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.spans: list[list] = []   # [request, name, start, end, parent]


class Tracer:
    def __init__(self):
        self.request = -1
        self._threads: list[_ThreadData] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _data(self) -> _ThreadData:
        try:
            return self._local.data
        except AttributeError:
            with self._lock:
                data = _ThreadData(len(self._threads))
                self._threads.append(data)
            self._local.data = data
            return data

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        local, get_data, clock = self._local, self._data, time.perf_counter

        if key in HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                try:  # _data() inlined: this runs millions of times per pass
                    data = local.data
                except AttributeError:
                    data = get_data()
                stack = data.stack
                cross = not stack or stack[-1][0] != layer
                if cross:
                    frame = [layer, 0.0]
                    stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    data.calls[key] += 1
                    data.secs[key] += dt
                    if cross:
                        stack.pop()
                        data.self_s[layer] += dt - frame[1]
                        if stack:
                            stack[-1][1] += dt
            return hot

        observe = OBSERVERS.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            data = get_data()
            stack, open_spans = data.stack, data.open
            parent = open_spans[-1] if open_spans else -1
            span = [tracer.request, key, 0.0, 0.0, parent]
            open_spans.append(len(data.spans))
            data.spans.append(span)
            depth = data.active[key]
            data.active[key] = depth + 1
            cross = not stack or stack[-1][0] != layer
            if cross:
                frame = [layer, 0.0]
                stack.append(frame)
            t0 = span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = span[3] = clock()
                dt = t1 - t0
                open_spans.pop()
                data.active[key] = depth
                data.calls[key] += 1
                if depth == 0:  # recursion is timed once, at the outer call
                    data.secs[key] += dt
                if cross:
                    stack.pop()
                    data.self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
            if observe is not None:
                observe(data, args, result,
                        data.spans[parent][1] if parent >= 0 else None)
            return result
        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and the METHODS table."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lienil.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_clear"):
                    key = RENAME.get(f"{layer}.{name}", f"{layer}.{name}")
                    replaced[id(obj)] = self._wrap(obj, key, layer)
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for name in names:
                    key = RENAME.get(f"{layer}.{name}", f"{layer}.{name}")
                    setattr(cls, name, self._wrap(cls.__dict__[name], key, layer))
        # rebind the name in every module that holds the original object
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "lienil" and not mod_name.startswith("lienil."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, name, wrapper)

    # -- results -----------------------------------------------------------

    def report(self) -> dict:
        """Counts, summed seconds, self seconds and extra counters, merged
        over threads."""
        calls, secs, self_s, extra = Counter(), defaultdict(float), defaultdict(float), Counter()
        for data in self._threads:
            calls.update(data.calls)
            extra.update(data.extra)
            for k, v in data.secs.items():
                secs[k] += v
            for k, v in data.self_s.items():
                self_s[k] += v
        return {"calls": dict(calls), "secs": dict(secs), "self_s": dict(self_s),
                "extra": dict(extra), "spans": sum(len(d.spans) for d in self._threads)}

    def write_spans(self, path) -> None:
        """One JSON array per line: thread, span, request, name, start,
        end (seconds since install) and parent span (-1 for a root)."""
        origin = self._origin
        with open(path, "w", encoding="utf-8") as out:
            for data in self._threads:
                for idx, (request, name, start, end, parent) in enumerate(data.spans):
                    out.write(json.dumps([data.index, idx, request, name,
                                          round(start - origin, 7),
                                          round(end - origin, 7), parent]))
                    out.write("\n")
