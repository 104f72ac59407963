"""Outside-in call tracer for the ffrigidity layers.

The tracer replaces the public functions of the named ffrigidity
modules with timing wrappers and puts the originals back when it is
closed.  It patches every ffrigidity module namespace that binds a
function object, so a call that another module makes through
``from .geometry import radical_hyperplane`` is seen as well.  Modules
are looked up in ``sys.modules``: the package re-exports the function
``dichotomy``, which shadows the submodule of the same name.

A traced extract closes about 250k spans, so each span is folded, as it
closes, into per-function totals (calls, inclusive and self seconds)
and into per-path totals, a path being the chain of traced callers that
led to the call; ``summary`` writes them out.  Self time is a span's
duration minus the time of the spans it caused.  A wrapper that never
fires reports zero calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Tracer:
    """Wrap the public functions of ``package.<layer>`` for each layer.

    ``counters`` maps a qualified name such as ``"multiset.build_multiset"``
    to ``fn(counts, args, kwargs, result)``, which adds work counts to the
    ``counts`` dict after each call that returns.
    """

    def __init__(self, package: str, layers, counters=None):
        self.package = package
        self.layers = tuple(layers)
        self.counters = dict(counters or {})
        self.stats: dict = {}   # name -> [calls, inclusive_s, self_s]
        self.paths: dict = {}   # (outermost, ..., name) -> [calls, self_s]
        self.counts: dict = {}
        self._stack: list = []
        self._saved: list = []

    def targets(self) -> dict:
        """Original function object -> qualified name, for every layer."""
        out = {}
        for layer in self.layers:
            modname = f"{self.package}.{layer}"
            module = sys.modules[modname]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == modname):
                    out[obj] = f"{layer}.{attr}"
        return out

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        targets = self.targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for name in targets.values():
            self.stats.setdefault(name, [0, 0.0, 0.0])
        return self

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()
        self._stack.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name: str, fn):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        paths = self.paths
        counts = self.counts
        counter = self.counters.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = stack[-1][0] + (name,) if stack else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[1]
                stat[0] += 1
                stat[1] += dt
                stat[2] += own
                if stack:
                    stack[-1][1] += dt
                totals = paths.get(path)
                if totals is None:
                    paths[path] = [1, own]
                else:
                    totals[0] += 1
                    totals[1] += own
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def summary(self, within: str, top: int = 8) -> dict:
        """Self-time shares of the busiest functions and call paths among
        the spans that ``within`` caused, as shares of its inclusive time."""
        total = self.inclusive_s(within) or 1.0
        by_function: dict = {}
        paths = []
        for path, (calls, own) in self.paths.items():
            if within in path:
                by_function[path[-1]] = by_function.get(path[-1], 0.0) + own
                paths.append((own, calls, path[path.index(within):]))
        functions = sorted(by_function.items(), key=lambda kv: -kv[1])
        paths.sort(key=lambda p: -p[0])
        return {
            "within": within,
            "self_share": {name: round(own / total, 4)
                           for name, own in functions[:top]},
            "path_self_share": [
                {"path": " > ".join(path), "calls": calls,
                 "share": round(own / total, 4)}
                for own, calls, path in paths[:top]],
        }
