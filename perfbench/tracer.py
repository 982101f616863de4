"""Spans around the public functions of each k3cert module, kept in memory.

`Tracer.install` wraps every public function and every public method or
arithmetic operator of every public class that a layer module defines,
and puts the wrapper under *every* name the original is reachable by:
the defining module, each module that imported it (`poly_gcd` lives in
`weilpoly` and `condition`), the package namespace, and each class
attribute that aliases it (`RatPoly.__rmul__ is RatPoly.__mul__`).  A
call through any of those names is then recorded.  Properties and
dataclass-generated methods are not wrapped; their cost stays with the
caller.

A span is (name, parent span, operation id, start, end).  A span's self
time is its duration minus the durations of its child spans, which never
overlap because there is one thread.  Layer self time is the sum over
the layer's spans, so it excludes time spent in other layers that the
layer called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("arith", "weilpoly", "qform", "k3lattice", "condition", "cli")

_OPERATORS = {
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
    "__divmod__": "divmod",
    "__floordiv__": "floordiv",
    "__mod__": "mod",
    "__truediv__": "truediv",
}

ROOT = "bench.op"


def _call(fn, *args):
    return fn(*args)


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")  # lru_cache wrappers


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: set[int] = set()
        self._stack = [-1]
        self._current_op = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._root = self._wrap(_call, ROOT)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end
        stack, current_op, raised, clock = self._stack, self._current_op, self.raised, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(current_op[0])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.add(sid)
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id, under a root span."""
        self._current_op[0] = op_id
        try:
            return self._root(fn, *args)
        finally:
            self._current_op[0] = -1

    def install(self, package) -> None:
        """Wrap the layer modules of an imported package in place."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)

        def add(original, replacement):
            wrapped[id(original)] = (original, replacement)

        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if _is_function(obj):
                    add(obj, self._wrap(obj, f"{layer}.{attr}"))
                elif isinstance(obj, type):
                    for mattr, mobj in vars(obj).items():
                        if mattr.startswith("_") and mattr not in _OPERATORS:
                            continue
                        label = f"{layer}.{obj.__name__}.{_OPERATORS.get(mattr, mattr)}"
                        if id(mobj) in wrapped:  # an alias such as __rmul__ = __mul__
                            continue
                        if inspect.isfunction(mobj):
                            add(mobj, self._wrap(mobj, label))
                        elif isinstance(mobj, (classmethod, staticmethod)):
                            add(mobj, type(mobj)(self._wrap(mobj.__func__, label)))

        for namespace in [package, *modules]:
            self._replace(namespace, wrapped)
            for obj in list(vars(namespace).values()):
                if isinstance(obj, type) and obj.__module__.startswith(package.__name__ + "."):
                    self._replace(obj, wrapped)

    def _replace(self, namespace, wrapped) -> None:
        for attr, obj in list(vars(namespace).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, attr, hit[1])
                self._restore.append((namespace, attr, obj))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, own in zip(self.name_id, self.self_times()):
            calls[nid] += 1
            self_s[nid] += own
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def search_counts(self) -> tuple[int, int]:
        """(witnesses returned, check_candidate calls made inside construct_witness)."""
        search = self._name_ids.get("condition.construct_witness")
        check = self._name_ids.get("condition.check_candidate")
        returned = sum(1 for i, nid in enumerate(self.name_id) if nid == search and i not in self.raised)
        checks = sum(
            1 for i, nid in enumerate(self.name_id) if nid == check and self.parent[i] >= 0
            and self.name_id[self.parent[i]] == search
        )
        return returned, checks

    def write(self, path) -> None:
        """Write every span as a tab-separated line, names spelled out."""
        with open(path, "w") as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\traised\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{int(i in self.raised)}\n"
                )
