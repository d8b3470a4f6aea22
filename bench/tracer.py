"""Span tracer that wraps lgholling's public functions at run time.

install() replaces every binding of each traced function object in every
loaded ``lgholling`` module -- ``cli.integrate``, ``stability.integrate``,
``permanence.integrate`` and the package's own ``lgholling.integrate`` are
one function bound four times -- so calls that went through
``from .x import f`` are caught without editing the package.  uninstall()
puts the originals back, which lets one process alternate traced and
untraced iterations.

Each wrapped call records a span (name, start, end, parent index) in memory.
A layer's self time is the duration of its spans minus the time their child
spans cover.  The hot scalar ``expr.evaluate`` is counted, not spanned, so
its time stays in its caller's self time (stability's lag inversion,
model's golden refinement): a span, or even a timer, per call would cost
more than the call.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# layer (= defining module) -> traced public functions
TRACED = {
    "expr": ("parse_expression", "evaluate_array", "estimate_bounds"),
    "model": ("validate_model",),
    "integrator": ("integrate", "integrate_batch"),
    "permanence": ("compute_permanence_bounds", "compute_permanence_bounds_from_values",
                   "verify_permanence"),
    "stability": ("lag_inverse_gap", "estimate_liminf", "build_stability_report", "run_attractivity"),
    "fixedpoint": ("apply_upsilon", "iterate_fixed_point", "dde_residual"),
    "pap": ("solution_window_report",),
    "cli": ("main", "run_pipeline"),
}
LAYERS = tuple(TRACED)
ROOT = "bench"  # the benchmark's own glue around the layer calls


def _knots(traj) -> int:
    return (len(traj.t) - 1) * (traj.x.shape[1] if traj.x.ndim == 2 else 1)


# work counted from a call's result, per traced function
_WORK = {
    "expr.evaluate_array": lambda values: int(values.size),
    "integrator.integrate": _knots,
    "integrator.integrate_batch": _knots,
    "fixedpoint.apply_upsilon": lambda pair: len(pair.phi),
}


class Tracer:
    def __init__(self):
        """Build the wrappers; lgholling must already be imported."""
        self._bindings = self._find_bindings()  # (module, attr, original, wrapper)
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.fn_self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [span index, child seconds]

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, start: float) -> list:
        frame = [len(self.spans), 0.0]
        self.spans.append([name, start, 0.0, self._stack[-1][0] if self._stack else -1])
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, end: float) -> float:
        self._stack.pop()
        span = self.spans[frame[0]]
        span[2] = end
        duration = end - span[1]
        self.fn_self_s[span[0]] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[span[0]] += 1
        self.inclusive_s[span[0]] += duration
        return duration

    def run_root(self, fn):
        """Call fn() under a root span; returns (result, seconds)."""
        start = perf_counter()
        frame = self._open(ROOT, start)
        try:
            result = fn()
        finally:
            duration = self._close(frame, perf_counter())
        return result, duration

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter())
            if work is not None:
                self.work[name] += work(result)
            return result

        return traced

    def _count_evaluate(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls["expr.evaluate"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _find_bindings(self) -> list:
        replace = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"lgholling.{layer}"]
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:  # a function a later version removed reads as 0 calls
                    replace[id(fn)] = (fn, self._wrap(layer, fn))
        evaluate = getattr(sys.modules["lgholling.expr"], "evaluate", None)
        if evaluate is not None:
            replace[id(evaluate)] = (evaluate, self._count_evaluate(evaluate))
        found = []
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "lgholling" or mod_name.startswith("lgholling.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    found.append((module, attr, value, replace[id(value)][1]))
        return found

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, ROOT included; they sum to the root spans."""
        totals = dict.fromkeys(LAYERS + (ROOT,), 0.0)
        for name, seconds in self.fn_self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def span_dump(self) -> list[dict]:
        """Spans relative to the first span's start, for writing out."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p} for n, s, e, p in self.spans]
