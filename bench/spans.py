"""Spans around the public functions of littlegroup, recorded from outside.

The Tracer replaces each public function of the layer modules with a
wrapper in every littlegroup namespace that binds it (the package
re-exports everything, and modules import names from each other), so a
call is seen whichever name it goes through.  Spans (name, start, end,
parent, op id) stay in memory until the run writes them out.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: layer module -> functions to wrap (None: every public function)
LAYERS = {
    "lorentz_algebra": None,
    "oscillator": None,
    "momentum_space": None,
    "parton": None,
    # cli.main's self time is parsing, formatting and emitting output
    "cli": ("main",),
}


def _grid_points(grid) -> int:
    return grid.n_z * grid.n_t


def _count_sample(counts, args) -> None:
    counts["oscillator.sample_wavefunction.points"] += _grid_points(args["grid"])


def _count_boosted(counts, args) -> None:
    counts["oscillator.boosted_wavefunction.points"] += np.broadcast(args["z"], args["t"]).size


def _count_overlap(counts, args) -> None:
    counts["oscillator.overlap.points"] += _grid_points(args["grid"])


def _count_fourier(counts, args) -> None:
    """Computed from shapes: two complex128 kernels, two complex products."""
    n_z, n_t = args["field"].values.shape
    g = args["momentum_grid"]
    counts["momentum_space.fourier_numeric.kernel_bytes_computed"] += 16 * (g.n_z * n_z + g.n_t * n_t)
    counts["momentum_space.fourier_numeric.flops_computed"] += 8 * g.n_z * n_t * (n_z + g.n_t)


#: unit of each counter, per op, by the last part of its name
COUNT_UNITS = {"points": "points/op", "kernel_bytes_computed": "B/op",
               "flops_computed": "flop/op", "uncounted": "calls/op"}

COUNTERS = {
    "oscillator.sample_wavefunction": _count_sample,
    "oscillator.boosted_wavefunction": _count_boosted,
    "oscillator.overlap": _count_overlap,
    "momentum_space.fourier_numeric": _count_fourier,
}


class SpanLog:
    """Spans as one flat int64 array of (name id, start ns, end ns, parent, op).

    A traced run makes close to a million spans; tuples would take
    hundreds of megabytes, this takes forty bytes a span.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.data = array("q")

    def __len__(self) -> int:
        return len(self.data) // 5

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def rows(self):
        d, names = self.data, self.names
        for i in range(0, len(d), 5):
            yield names[d[i]], d[i + 1], d[i + 2], d[i + 3], d[i + 4]

    def export(self) -> dict:
        return {"names": self.names, "data": self.data.tolist()}

    def merge(self, exported: dict, op: int) -> None:
        """Append another log's spans, all assigned to one op."""
        ids = [self.name_id(n) for n in exported["names"]]
        offset = len(self)
        d = exported["data"]
        for i in range(0, len(d), 5):
            parent = d[i + 3]
            self.data.extend((ids[d[i]], d[i + 1], d[i + 2],
                              parent + offset if parent >= 0 else -1, op))


class Tracer:
    def __init__(self):
        self.log = SpanLog()
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        data, stack, name_id = self.log.data, self._stack, self.log.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(data)
            data.extend((name_id, 0, 0, stack[-1] // 5 if stack else -1, self.op))
            stack.append(index)
            data[index + 1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                data[index + 2] = time.perf_counter_ns()
                stack.pop()
                if counter is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        counter(self.counts, bound.arguments)
                    except (TypeError, KeyError, AttributeError, ValueError):
                        self.counts[name + ".uncounted"] += 1
        return wrapper

    def install(self) -> None:
        """Wrap every layer function in every littlegroup namespace."""
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module("littlegroup." + layer)
            if names is None:
                names = [n for n, f in vars(module).items()
                         if inspect.isfunction(f) and f.__module__ == module.__name__
                         and not n.startswith("_")]
            for n in names:
                fn = getattr(module, n)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "littlegroup" and not modname.startswith("littlegroup."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def export(self) -> dict:
        return {"spans": self.log.export(), "counts": dict(self.counts)}


def layer_stats(log: SpanLog) -> dict[str, list]:
    """name -> [calls, self_ns]; self time is duration minus child spans."""
    child_ns = [0] * len(log)
    for _, start, end, parent, _ in log.rows():
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, list] = defaultdict(lambda: [0, 0])
    for (name, start, end, _, _), children in zip(log.rows(), child_ns):
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start - children
    return stats
