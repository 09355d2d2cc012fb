"""Layer tracing by wrapping module attributes of the library.

Each layer stage is a list of feeds, `(module, attribute path)` pairs.  A feed
that no longer exists is skipped; a stage none of whose feeds exists is
reported as absent, so the benchmark keeps running when a refactor deletes
or renames a function.  Calls are aggregated per stage rather than stored as
spans: calls, busy (inclusive) time, self time (busy time minus the busy
time of traced calls made inside it) and optional extra counts.
"""

from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

_CM = "conformal_metrics"


def _result_iterations(result):
    """_relax returns (path, objective history)."""
    try:
        return len(result[1]) - 1
    except (TypeError, IndexError):
        return 0


# stage -> (feeds, argument index whose size is counted, result counter)
STAGES = {
    "verify.check": ([(f"{_CM}.verify", "check_pointwise_bounds")], None, None),
    "verify.points": ([(f"{_CM}.verify", "SampleSet.points")], None, None),
    "maps.eval_jet": ([(f"{_CM}.maps", "eval_jet")], None, None),
    "jets.jet3": ([(f"{_CM}.jets", "Jet3.__post_init__")], None, None),
    "jets.compose": ([(f"{_CM}.jets", "compose"), (f"{_CM}.maps", "compose"),
                      (f"{_CM}.verify", "compose")], None, None),
    "domains.contains": ([(f"{_CM}.domains", "contains")], None, None),
    "domains.density": ([(f"{_CM}.domains", "hyperbolic_density")], None, None),
    "domains.delta": ([(f"{_CM}.domains", "boundary_distance")], None, None),
    "domains.vec": ([(f"{_CM}.domains", "contains_vec"),
                     (f"{_CM}.domains", "delta_vec"),
                     (f"{_CM}.domains", "density_vec")], 1, None),
    "metrics.grid": ([(f"{_CM}.metrics", "_grid_dijkstra")], None, None),
    # the module-level scipy import today; a lazy import inside the grid
    # stage would read the attribute of scipy.sparse.csgraph instead
    "metrics.dijkstra": ([(f"{_CM}.metrics", "_sparse_dijkstra"),
                          ("scipy.sparse.csgraph", "dijkstra")], None, None),
    "metrics.resample": ([(f"{_CM}.metrics", "_resample")], None, None),
    "metrics.relax": ([(f"{_CM}.metrics", "_relax")], None,
                      _result_iterations),
    "metrics.quadrature": ([(f"{_CM}.metrics", "path_quadrature")], None, None),
    "metrics.segment_costs": ([(f"{_CM}.metrics", "_segment_costs")], None,
                              None),
}


class Stat:
    __slots__ = ("calls", "busy", "self", "points", "results")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.points = 0
        self.results = 0


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs counting wrappers while enabled; `stats` accumulates across
    enabled periods."""

    def __init__(self):
        self.stats = {stage: Stat() for stage in STAGES}
        self.absent = []
        self._stack = []
        self._patches = []  # (owner, name, original, wrapper)
        for stage, (feeds, size_arg, counter) in STAGES.items():
            found = [_resolve(m, p) for m, p in feeds]
            found = [f for f in found if f is not None]
            if not found:
                self.absent.append(stage)
            for owner, name, fn in found:
                wrapper = self._wrap(self.stats[stage], fn, size_arg, counter)
                self._patches.append((owner, name, fn, wrapper))

    def _wrap(self, stat: Stat, fn, size_arg, counter):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.busy += dt
                stat.self += dt - child
                if stack:
                    stack[-1] += dt
            if size_arg is not None and len(args) > size_arg:
                stat.points += int(np.size(args[size_arg]))
            if counter is not None:
                stat.results += counter(result)
            return result

        return wrapper

    def enable(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def disable(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def self_total(self) -> float:
        return sum(s.self for s in self.stats.values())
