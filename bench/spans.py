"""Span recording around the public functions of every growthprice module.

The tracer rebinds each public function in every ``growthprice.*`` module
namespace (including the package itself) to one wrapper per function, so a
call from one layer into another goes through the wrapper no matter which
namespace the caller looked the name up in. The layer of a span is the
module that defines the function (``fn.__module__``).

Spans live in flat in-memory columns while the run lasts and are written out
once, when the run ends. Only calls made while an op is active are recorded.
"""

from __future__ import annotations

import gzip
import json
import sys
import types
from array import array
from collections import Counter
from functools import wraps
from time import perf_counter

# The errors layer defines exception types only: it is counted (errors.raised),
# not timed.
TIMED_LAYERS = ("games", "solver", "translation", "oracle", "cli")


# Functions whose calls per op are reported as <name>.calls.
COUNTED = (
    "games.load_spec",
    "games.validate",
    "games.compute_stats",
    "games.translate",
    "solver.optimal_price",
    "solver.pre_optimal_proportion",
    "translation.threshold_shift",
    "translation.boundary_growth",
    "translation.price_translated",
    "translation.asymptotic_sweep",
    "oracle.grid_argmax_growth",
    "oracle.simulate_wealth",
    "oracle.two_point_closed_form",
    "cli.run",
    "cli.dumps_report",
)


def _grid_points(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["grid_points"]


# Units of work a span reports besides its duration, by span name.
_WORK = {
    "solver.pre_optimal_proportion": lambda args, kwargs, result: result.iterations,
    "oracle.simulate_wealth": lambda args, kwargs, result: result.paths
    * result.periods_per_path,
    "oracle.grid_argmax_growth": _grid_points,
}


class Tracer:
    """Records one span per traced call: name, layer, start, end, parent and op id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.errors: dict[int, str] = {}
        self.work: dict[int, float] = {}
        self.raised = 0  # growthprice exceptions, counted once where first seen
        self.op = -1
        self._stack: list[int] = []
        self._last_exc: BaseException | None = None
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self._error_base: type | None = None

    def install(self) -> None:
        """Rebind every public growthprice function to its traced wrapper."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "growthprice" or name.startswith("growthprice.")
        ]
        self._error_base = sys.modules["growthprice.errors"].GrowthPriceError
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith("growthprice")
                ):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        work = _WORK.get(name)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[idx] = type(exc).__name__
                if exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    if isinstance(exc, tracer._error_base):
                        tracer.raised += 1
                raise
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.starts[idx] = start
                tracer._stack.pop()
            if work is not None:
                tracer.work[idx] = work(args, kwargs, result)
            return result

        return traced

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics, each divided by the number of traced ops."""
        starts, ends, names = self.starts, self.ends, self.names
        n = len(names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        calls = Counter(names)
        self_s = Counter()
        layer_errors = Counter()
        work = Counter()
        work_s = Counter()
        validate_in_threshold = 0
        price_children = 0
        for i, name in enumerate(names):
            layer = name.partition(".")[0]
            duration = ends[i] - starts[i]
            self_s[layer] += duration - child_time[i]
            if i in self.errors:
                layer_errors[layer] += 1
            if i in self.work:
                work[name] += self.work[i]
                work_s[name] += duration
            if name == "games.validate" and self._has_ancestor(
                i, "translation.threshold_shift"
            ):
                validate_in_threshold += 1
            if (
                name == "solver.optimal_price"
                and self.parents[i] >= 0
                and names[self.parents[i]] == "translation.price_translated"
            ):
                price_children += 1

        def per_op(x: float) -> float:
            return x / n_ops

        def rate(name: str) -> float:
            return work[name] / work_s[name] if work_s[name] > 0 else 0.0

        pt_calls = calls["translation.price_translated"]
        th_calls = calls["translation.threshold_shift"]
        out = {f"{name}.calls": per_op(calls[name]) for name in COUNTED}
        out.update(
            {
                "solver.proportion_iterations": per_op(
                    work["solver.pre_optimal_proportion"]
                ),
                "translation.threshold_shift.validate_calls": (
                    validate_in_threshold / th_calls if th_calls else 0.0
                ),
                "translation.price_translated.base_reprices": (
                    (price_children - pt_calls) / pt_calls if pt_calls else 0.0
                ),
                "oracle.grid_argmax_growth.points_per_s": rate(
                    "oracle.grid_argmax_growth"
                ),
                "oracle.simulate_wealth.draws_per_s": rate("oracle.simulate_wealth"),
                "errors.raised": per_op(self.raised),
                "trace.spans": per_op(n),
            }
        )
        for layer in TIMED_LAYERS:
            out[f"{layer}.self_ms"] = per_op(1e3 * self_s[layer])
            out[f"{layer}.errors"] = per_op(layer_errors[layer])
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def write(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        starts, ends = self.starts, self.ends
        origin = starts[0] if starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, name in enumerate(self.names):
                span = {
                    "id": i,
                    "name": name,
                    "layer": name.partition(".")[0],
                    "start_s": starts[i] - origin,
                    "end_s": ends[i] - origin,
                    "parent": self.parents[i],
                    "op": self.ops[i],
                }
                if i in self.errors:
                    span["error"] = self.errors[i]
                f.write(json.dumps(span) + "\n")
