"""Timing spans around the layers of sepzn, installed from outside the package.

A Tracer replaces the public functions of sepzn.arith, poly, septest, census
and oracle with wrappers that record a span per call: name, parent span,
start, end, and whether the call returned True.  Each wrapper is installed
under every module attribute bound to the wrapped object, because that is
where callers look names up (`sepzn.cli.discriminant`, `sepzn.oracle.
is_separable`, ...).  `sepzn.oracle.PolyZn` and `sepzn.oracle.
ProcessPoolExecutor` are wrapped as well, and `sepzn.cli.run` is the root span
of each command.  Spans stay in memory in flat arrays until written out.

Pool workers are not traced: the pool's initializer restores the unwrapped
functions in each worker.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from array import array

LAYERS = ("arith", "poly", "septest", "census", "oracle")
WRAPPED = "_perfbench_wrapped"  # marks a wrapper; __wrapped__ is the original


def untrace_child(initializer=None, *initargs):
    """Pool initializer: put back every original function in this worker."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "sepzn":
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED, False):
                setattr(module, attr, value.__wrapped__)
    if initializer is not None:
        initializer(*initargs)


class Tracer:
    """Spans of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.true = array("b")
        self._stack = [-1]
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Start a span under the innermost open wrapped call."""
        i = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(self._name_id(name))
        self.true.append(0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()

    def wrap(self, name: str, fn):
        """fn with a span around every call."""
        nid = self._name_id(name)
        parent, names, start, end, true = (self.parent, self.name, self.start,
                                           self.end, self.true)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            true.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if result is True:
                true[i] = 1
            return result

        # Same module and qualified name as fn, so a pool can still pickle
        # it by reference.
        functools.update_wrapper(wrapper, fn, updated=())
        setattr(wrapper, WRAPPED, True)
        return wrapper

    def _pool_class(self, base):
        tracer = self

        class Pool(base):
            """The executor with a span from construction to shutdown."""

            def __init__(self, *args, **kwargs):
                self._span = tracer.open("oracle.pool")
                kwargs["initargs"] = (kwargs.pop("initializer", None),
                                      *kwargs.pop("initargs", ()))
                super().__init__(*args, initializer=untrace_child, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer.close(self._span)
                        self._span = None

        Pool.__wrapped__ = base
        setattr(Pool, WRAPPED, True)
        return Pool

    def install(self, modules: dict):
        """Wrap the layers of the sepzn modules given by short name."""
        wrappers = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, value in vars(module).items():
                if (not attr.startswith("_")
                        and (isinstance(value, types.FunctionType)
                             or hasattr(value, "cache_info"))
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if wrappers.get(id(value)) is not None:
                    self._patch(module, attr, wrappers[id(value)])
        oracle = modules["oracle"]
        # Only the oracle's constructions: one per coefficient tuple.
        self._patch(oracle, "PolyZn", self.wrap("poly.PolyZn", oracle.PolyZn))
        self._patch(oracle, "ProcessPoolExecutor",
                    self._pool_class(oracle.ProcessPoolExecutor))
        self._patch(modules["cli"], "run",
                    self.wrap("cli.run", modules["cli"].run))

    def _patch(self, module, attr, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def stats(self, within: str | None = None) -> dict:
        """Per span name: calls, total seconds, self seconds (total minus the
        time covered by child spans), calls that returned True, and calls
        with no ancestor in the same layer and their total seconds.  With
        `within`, only spans named `within` and their descendants count."""
        size = len(self.start)
        names, parent = self.names, self.parent
        layer_of = [n.split(".")[0] for n in names]
        dur = [self.end[i] - self.start[i] for i in range(size)]
        child = [0.0] * size
        keep = [within is None] * size
        # layers[i]: the layers of span i and its ancestors, interned; parents
        # come before their children in the arrays.
        layers: list[frozenset] = [frozenset()] * size
        interned: dict[tuple, frozenset] = {}
        want = names.index(within) if within in names else -1
        for i in range(size):
            p = parent[i]
            layer = layer_of[self.name[i]]
            outer = layers[p] if p >= 0 else frozenset()
            if (outer, layer) not in interned:
                interned[outer, layer] = outer | {layer}
            layers[i] = interned[outer, layer]
            if within is not None:
                keep[i] = self.name[i] == want or (p >= 0 and keep[p])
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(size):
            if not keep[i]:
                continue
            p = parent[i]
            s = out.setdefault(names[self.name[i]], dict.fromkeys(
                ("calls", "s", "self_s", "true", "outer_calls", "outer_s"), 0))
            s["calls"] += 1
            s["s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            s["true"] += self.true[i]
            if p < 0 or layer_of[self.name[i]] not in layers[p]:
                s["outer_calls"] += 1
                s["outer_s"] += dur[i]
        return out

    def write(self, path, phase: str, mode: str):
        """Write ("wt") or append ("at") the spans as tab-separated lines to
        a gzip file: phase, id, parent id, name, start, end (perf_counter
        seconds), returned True."""
        with gzip.open(path, mode, compresslevel=1) as f:
            for i in range(len(self.start)):
                f.write(f"{phase}\t{i}\t{self.parent[i]}\t"
                        f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.true[i]}\n")


def merge(*tables: dict) -> dict:
    """Sum stats() tables."""
    out: dict[str, dict] = {}
    for table in tables:
        for name, s in table.items():
            t = out.setdefault(name, dict.fromkeys(s, 0))
            for k, v in s.items():
                t[k] += v
    return out
