"""Span recorder for the traced benchmark run.

The recorder wraps public hintegral functions from outside the package:
each call becomes a span with a name, start, end, parent span and
operation id.  Spans stay in memory (compact arrays) until the run ends
and are then written out in one file.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

# module -> public names to wrap; "Class.method" wraps a method.  Each
# span is named "<module>.<name>", except that the three spaces' measure
# methods share the span name "space.measure".
TRACED = {
    "cli": ("main",),
    "space": (
        "space_from_json",
        "AtomSpace.measure",
        "IntervalSpace.measure",
        "CatalogSpace.measure",
        "IntervalSpace.nu",
    ),
    "hvalue": ("add", "mul", "sum_finite", "scalar_mul", "sum_described"),
    "exprs": ("poly_eval", "poly_lipschitz_bound", "sup_on", "nth_root", "pow_exact"),
    "integral": (
        "function_from_json",
        "integrate",
        "integrate_simple",
        "verify_certificate",
        "T4Certificate.to_json",
    ),
    "deficiency": (
        "scenario_from_json",
        "defi_continuity",
        "defi_lineness",
        "defi_convexity",
        "rational_distance",
    ),
    "oracle": ("check_algebra_laws", "check_integral_laws", "brute_force_integral"),
}


def span_name(module: str, name: str) -> str:
    method = name.rpartition(".")[2]
    if module == "space" and method in ("measure", "nu"):
        return f"space.{method}"
    return f"{module}.{name}"


class SpanRecorder:
    """Records nested spans of one thread in parallel arrays, one entry
    per span: ``name`` (index into ``names``), ``parent`` (span index,
    -1 for none), ``op`` (operation id), ``start`` and ``end``
    (``time.perf_counter_ns``)."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1
        self._stack: list = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: int, end: int, parent: int = -1, op: int = -1) -> int:
        """Append a finished span; returns its index (used by tests)."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(recorder.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def self_times_ns(self):
        """Per-span self time: duration minus the union of its children's
        intervals, each clipped to the parent's interval."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        out = array("q", (e - s for s, e in zip(start, end)))
        # children are visited in start order; run_end[p] is the end of
        # the union of p's children seen so far
        run_end = array("q", bytes(8 * n))
        seen = bytearray(n)
        order = range(n)
        if any(a > b for a, b in zip(start, start[1:])):
            order = sorted(order, key=start.__getitem__)
        for k in order:
            p = parent[k]
            if p < 0:
                continue
            a, b = max(start[k], start[p]), min(end[k], end[p])
            if a >= b:
                continue
            if seen[p] and a < run_end[p]:
                if b > run_end[p]:
                    out[p] -= b - run_end[p]
                    run_end[p] = b
            else:
                out[p] -= b - a
                run_end[p] = b
                seen[p] = 1
        return out

    def summary(self, op_scale=None):
        """{span name: (calls, self seconds)} over every recorded span;
        ``op_scale[op]``, when given, multiplies the self time of the
        spans of operation ``op``."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for nid, op, st in zip(self.name, self.op, self.self_times_ns()):
            calls[self.names[nid]] += 1
            self_s[self.names[nid]] += st / 1e9 * (op_scale[op] if op_scale and op >= 0 else 1)
        return {n: (calls[n], self_s[n]) for n in calls}

    def write(self, path: Path):
        """Write every span: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": ["name:i", "parent:i", "op:i", "start_ns:q", "end_ns:q"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


class Installed:
    """Wraps the TRACED functions in every hintegral namespace that holds
    them, including default arguments that captured them, and undoes it."""

    def __init__(self, recorder: SpanRecorder, package: str = "hintegral"):
        self.undo: list = []
        modules = {m: importlib.import_module(f"{package}.{m}") for m in TRACED}
        namespaces = [importlib.import_module(package), *modules.values()]
        wrapped = {}
        for mod_name, names in TRACED.items():
            mod = modules[mod_name]
            for name in names:
                cls_name, _, attr = name.rpartition(".")
                owner = getattr(mod, cls_name) if cls_name else mod
                original = owner.__dict__[attr]
                wrapper = recorder.wrap(span_name(mod_name, name), original)
                wrapped[id(original)] = wrapper
                if cls_name:
                    self._set(owner, attr, wrapper)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped and callable(value):
                    self._set(ns, attr, wrapped[id(value)])
        for fn in self._functions(namespaces):
            if fn.__defaults__ and any(id(d) in wrapped for d in fn.__defaults__):
                new = tuple(wrapped.get(id(d), d) for d in fn.__defaults__)
                self._set_defaults(fn, "__defaults__", new)
            kw = fn.__kwdefaults__
            if kw and any(id(d) in wrapped for d in kw.values()):
                self._set_defaults(fn, "__kwdefaults__", {k: wrapped.get(id(d), d) for k, d in kw.items()})

    @staticmethod
    def _functions(namespaces):
        seen = set()
        for ns in namespaces:
            for value in vars(ns).values():
                members = [value]
                if inspect.isclass(value):
                    members = list(vars(value).values())
                for fn in members:
                    fn = getattr(fn, "__func__", fn)
                    fn = getattr(fn, "__wrapped__", fn)
                    if inspect.isfunction(fn) and id(fn) not in seen:
                        seen.add(id(fn))
                        yield fn

    def _set(self, owner, attr, value):
        self.undo.append((setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _set_defaults(self, fn, attr, value):
        self.undo.append((setattr, fn, attr, getattr(fn, attr)))
        setattr(fn, attr, value)

    def remove(self):
        for op, owner, attr, value in reversed(self.undo):
            op(owner, attr, value)
        self.undo.clear()
