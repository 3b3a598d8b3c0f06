"""Outside-in tracing of the anosovlab layers.

The tracer never edits the package. It replaces module attributes and class
methods of the layer modules with thin wrappers for the life of one process,
and records one span per wrapped call: name, start, end and the span that was
open when the call began. Counts, points processed, total time (outermost
calls only) and self time (duration minus the time of child spans) are
aggregated as spans close, so the numbers can be read without replaying the
span table.

Span names are `<layer>.<function>` or `<layer>.<Class>.<method>`, where the
layer is the module that defines the function. Two exceptions keep the names
the benchmark reports stable: `qr_pos` (defined in `anosovlab.util`, which is
not a layer) is attributed to the layer module that calls it, and the observable
returned by `leafmetric.stable_log_norm_observable` is traced as
`leafmetric.phi`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = (
    "cli",
    "scenarios",
    "conjugacy",
    "orbits",
    "bundles",
    "leafmetric",
    "maps",
    "linear",
    "intlinalg",
)

# Private callables that carry a count the benchmark reports; everything else
# wrapped is public (no leading underscore).
_PRIVATE_TARGETS = {
    ("conjugacy", "ConjugacyEvaluator", "_inverse_fallback"): "conjugacy.inverse_fallback",
    ("scenarios", None, "_conjugacy_numbers"): "scenarios.conjugacy_numbers",
}
_UTIL_TARGETS = ("qr_pos",)


def _leading_points(args) -> int:
    """Rows of the first array argument: one point per trailing vector."""
    for a in args:
        if isinstance(a, np.ndarray):
            return math.prod(a.shape[:-1]) if a.ndim > 1 else 1
    return 0


def _frame_points(args) -> int:
    """Matrices in a stack of shape (..., d, d)."""
    for a in args:
        if isinstance(a, np.ndarray):
            return math.prod(a.shape[:-2]) if a.ndim > 2 else 1
    return 0


def _fallback_rows(args) -> int:
    # ConjugacyEvaluator._inverse_fallback(self, x, yb, rows, tol)
    return len(args[3])


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds, name id]
        self.calls: list[int] = []
        self.points: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self._depth: list[int] = []
        self.counters: dict[str, int] = {}
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.points.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            self._depth.append(0)
        return nid

    def wrap(self, name: str, fn, points=_leading_points, on_result=None):
        nid = self._id(name)
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            self.calls[nid] += 1
            self.points[nid] += points(args)
            self._depth[nid] += 1
            frame = [idx, 0.0, nid]
            stack.append(frame)
            start = perf()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self.span_end[idx] = end
                self.self_s[nid] += dur - frame[1]
                self._depth[nid] -= 1
                if self._depth[nid] == 0:
                    self.total_s[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                result = on_result(result)
            return result

        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public functions and methods, in every namespace."""
        mods = {layer: importlib.import_module(f"anosovlab.{layer}") for layer in LAYERS}
        by_module = {m.__name__: layer for layer, m in mods.items()}
        wrapped: dict[int, object] = {}

        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                    continue
                if not inspect.isfunction(obj):
                    continue
                if obj.__module__ == "anosovlab.util" and attr in _UTIL_TARGETS:
                    self._set(mod, attr, self.wrap(f"{layer}.{attr}", obj, points=_frame_points))
                    continue
                owner = by_module.get(obj.__module__)
                key = (owner, None, attr)
                if owner is None or (attr.startswith("_") and key not in _PRIVATE_TARGETS):
                    continue
                if id(obj) not in wrapped:
                    name = _PRIVATE_TARGETS.get(key, f"{owner}.{obj.__name__}")
                    wrapped[id(obj)] = self._wrap_function(name, obj)
                self._set(mod, attr, wrapped[id(obj)])

        self._wrap_stages(mods["scenarios"])

    def _wrap_function(self, name: str, fn):
        if name == "leafmetric.stable_log_norm_observable":
            return self.wrap(name, fn, on_result=lambda phi: self.wrap("leafmetric.phi", phi))
        if name == "orbits.enumerate_orbits":
            def failures(inv):
                self.count("orbits.enumerate_orbits.failures", len(inv.failures))
                return inv
            return self.wrap(name, fn, on_result=failures)
        if name == "scenarios.cached_inventory":
            return self._cache_lookup("orbits", name, fn, "orbits.enumerate_orbits")
        return self.wrap(name, fn)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            key = (layer, cls.__name__, attr)
            if attr.startswith("_") and key not in _PRIVATE_TARGETS:
                continue
            name = _PRIVATE_TARGETS.get(key, f"{layer}.{cls.__name__}.{attr}")
            points = _fallback_rows if name == "conjugacy.inverse_fallback" else _leading_points
            self._set(cls, attr, self.wrap(name, obj, points=points))

    def _cache_lookup(self, kind: str, name: str, fn, compute: str):
        """Count a hit when the lookup returns without entering `compute`."""
        cid = self._id(compute)
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def lookup(*args, **kwargs):
            before = self.calls[cid]
            result = inner(*args, **kwargs)
            self.count(f"scenarios.cache.{kind}.{'misses' if self.calls[cid] > before else 'hits'}")
            return result

        return lookup

    def _wrap_stages(self, scenarios) -> None:
        """Stage functions are reached through the runner's dispatch table."""
        table = scenarios._STAGE_FN
        for stage, fn in list(table.items()):
            name = f"scenarios.stage_{stage}"
            if stage == "conjugacy":
                wrapper = self._cache_lookup("conjugacy", name, fn, "scenarios.conjugacy_numbers")
            else:
                wrapper = self.wrap(name, fn)
            self._undo.append((table, stage, fn))
            table[stage] = wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }

    def summary(self) -> dict:
        """Per-function aggregates and per-layer self time."""
        functions = {
            name: {
                "calls": self.calls[i],
                "points": self.points[i],
                "total_s": self.total_s[i],
                "self_s": self.self_s[i],
            }
            for i, name in enumerate(self.names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for name, agg in functions.items():
            layers[name.split(".", 1)[0]] += agg["self_s"]
        return {
            "functions": functions,
            "layers": layers,
            "counters": dict(self.counters),
            "spans": len(self.span_start),
        }
