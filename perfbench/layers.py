"""Run-time wrapping of capax's public functions, and the traced breakdown.

A wrapper replaces a function under every name callers look it up by: the
defining module, each capax module that imported it by name, and the `capax`
package itself.  Methods (such as `GaussianRational.__mul__`) are replaced on
the class.  Nothing under src/ changes.

Spans (name, start, end, parent, observed extras) are kept in memory and
turned into per-layer metrics when the run ends.  The hottest leaves are
counted, not spanned, so their cost stays small; their time lands in the
self time of the span that called them.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from time import perf_counter

# ---------------------------------------------------------------------------
# patching


def resolve(module: str, qualname: str):
    """(owner, attribute, value) for `module.qualname`, or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def install(module: str, qualname: str, make_wrapper):
    """Replace the target under all its names; returns a restore function,
    or None when the target does not exist."""
    found = resolve(module, qualname)
    if found is None:
        return None
    owner, attr, original = found
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return lambda: setattr(owner, attr, original)
    replaced = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "capax" or name.startswith("capax.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                replaced.append((mod, key))

    def restore():
        for mod, key in replaced:
            setattr(mod, key, original)

    return restore


@contextlib.contextmanager
def patched(module: str, qualname: str, make_wrapper):
    restore = install(module, qualname, make_wrapper)
    try:
        yield restore is not None
    finally:
        if restore is not None:
            restore()


# ---------------------------------------------------------------------------
# observers: read the work a call did from its arguments and result


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _observe_minimax(args, kwargs, result):
    if result is None:  # the call raised
        return None
    npts, t = _arg(args, kwargs, 0, "a").shape
    gap_rel = result.residual / result.value if result.value > 0 else 0.0
    return {"iters": result.iterations, "converged": bool(result.converged),
            "gap_rel": gap_rel, "cells": result.iterations * npts * t}


def _observe_evaluate(args, kwargs, result):
    if result is None:
        return None
    return {"cells": result.shape[0] * result.shape[1]}


def _observe_fiber(args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    expected = f.d1 * f.d2
    if result is None:  # the call raised
        return {"found": 0, "expected": expected, "near": False, "raised": True}
    return {"found": len(result.z), "expected": expected,
            "near": bool(result.near_discriminant), "raised": False}


SPAN, COUNT = "span", "count"

# (module, qualified name, span name, mode, observer)
TARGETS = (
    ("capax.chebyshev", "minimax_from_matrix", "chebyshev.minimax", SPAN, _observe_minimax),
    ("capax.chebyshev", "evaluate_monomials", "chebyshev.evaluate_monomials", SPAN, _observe_evaluate),
    ("capax.diameters", "greedy_fekete", "diameters.greedy_fekete", SPAN, None),
    ("capax.diameters", "transfinite_diameter", "diameters.transfinite_diameter", SPAN, None),
    ("capax.diameters", "telescoping_check", "diameters.telescoping_check", SPAN, None),
    ("capax.diameters", "pullback_check", "diameters.pullback_check", SPAN, None),
    ("capax.sets", "graph_lift", "sets.graph_lift", SPAN, None),
    ("capax.sets", "fiber", "sets.fiber", SPAN, _observe_fiber),
    ("capax.sets", "fiber_average_poly", "sets.fiber_average_poly", SPAN, None),
    ("capax.sets", "build_mesh", "sets.build_mesh", SPAN, None),
    ("capax.polynomials", "Polynomial.evaluate", "polynomials.evaluate", COUNT, None),
    ("capax.polynomials", "Polynomial.__mul__", "polynomials.mul", COUNT, None),
    ("capax.groebner", "buchberger", "groebner.buchberger", SPAN, None),
    ("capax.groebner", "reduce_full", "groebner.reduce_full", COUNT, None),
    ("capax.groebner", "s_polynomial", "groebner.s_polynomial", COUNT, None),
    ("capax.variety", "staircase", "variety.staircase", SPAN, None),
    ("capax.variety", "check_star", "variety.check_star", SPAN, None),
    ("capax.variety", "normal_form", "variety.normal_form", COUNT, None),
    ("capax.resultant", "resultant", "resultant.resultant", SPAN, None),
    ("capax.resultant", "resultant_slog", "resultant.resultant_slog", SPAN, None),
    ("capax.resultant", "block_factorization", "resultant.block_factorization", SPAN, None),
    ("capax.resultant", "bareiss_det", "resultant.bareiss_det", SPAN, None),
    ("capax.exact", "GaussianRational.__mul__", "exact.mul", COUNT, None),
    ("capax.parsing", "parse_poly", "parsing.parse_poly", SPAN, None),
    ("capax.cli", "main", "cli.main", SPAN, None),
)


class Tracer:
    """Spans and counts of one traced pass.  Use as a context manager."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, extras]
        self.counts: dict[str, list[int]] = {}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._restores: list = []

    def __enter__(self) -> "Tracer":
        for module, qualname, name, mode, observer in TARGETS:
            if mode == SPAN:
                make = lambda fn, n=name, o=observer: self._span_wrapper(fn, n, o)
            else:
                cell = self.counts.setdefault(name, [0])
                make = lambda fn, c=cell: _count_wrapper(fn, c)
            restore = install(module, qualname, make)
            if restore is None:
                self.absent.add(name)
            else:
                self._restores.append(restore)
        return self

    def __exit__(self, *exc) -> None:
        for restore in reversed(self._restores):
            restore()
        self._restores.clear()

    def _span_wrapper(self, fn, name, observer):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = perf_counter()
                stack.pop()
                if observer is not None:
                    try:
                        record[4] = observer(args, kwargs, result)
                    except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                        # the call's signature or result changed shape
                        self.absent.add(name + ":extras")

        wrapper.__wrapped__ = fn
        return wrapper

    def raw_counts(self) -> dict[str, int]:
        """Every call count of the pass: counted leaves and spans per name."""
        out = {name: cell[0] for name, cell in self.counts.items()}
        for name, _, _, _, extras in self.spans:
            out[name + ".spans"] = out.get(name + ".spans", 0) + 1
            if name == "chebyshev.minimax" and extras is not None:
                out["chebyshev.minimax.iters"] = out.get("chebyshev.minimax.iters", 0) + extras["iters"]
        return out


def _count_wrapper(fn, cell):
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics


class _Summary:
    """Per-name totals from a span list: calls, outermost time, self time."""

    def __init__(self, spans) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.extras: dict[str, list] = {}
        child_time = [0.0] * len(spans)
        for record in spans:
            parent = record[3]
            if parent >= 0:
                child_time[parent] += record[2] - record[1]
        for i, (name, start, end, parent, extras) in enumerate(spans):
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - child_time[i]
            if not self._inside(spans, parent, name):
                self.total[name] = self.total.get(name, 0.0) + duration
            if extras is not None:
                self.extras.setdefault(name, []).append(extras)

    @staticmethod
    def _inside(spans, parent, name) -> bool:
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, tasks: int) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics of one traced pass, per task: name -> (value, unit).

    A value of None means the wrapped name does not exist at this commit.
    Ratios with no calls behind them read 0.
    """
    s = _Summary(tracer.spans)
    absent = tracer.absent
    out: dict[str, tuple[float | None, str]] = {}

    def put(name, value, unit, *needs):
        # needs are the span names the value comes from; "<span>:extras" when
        # it also comes from what the observer read off the call
        missing = any(n in absent or n.split(":")[0] in absent for n in needs)
        out[name] = (None if missing else value, unit)

    def per_task(x):
        return x / tasks

    def extras(name):
        return s.extras.get(name, [])  # calls that raised carry none

    mm = extras("chebyshev.minimax")
    put("chebyshev.minimax.calls", per_task(s.calls.get("chebyshev.minimax", 0)), "count/task", "chebyshev.minimax")
    put("chebyshev.minimax.s", per_task(s.total.get("chebyshev.minimax", 0.0)), "s/task", "chebyshev.minimax")
    put("chebyshev.minimax.iters", per_task(sum(e["iters"] for e in mm)), "count/task", "chebyshev.minimax:extras")
    put("chebyshev.minimax.converged_ratio", _ratio(sum(e["converged"] for e in mm), len(mm)), "ratio", "chebyshev.minimax:extras")
    put("chebyshev.minimax.gap_rel.max", max((e["gap_rel"] for e in mm), default=0.0), "ratio", "chebyshev.minimax:extras")
    put("chebyshev.minimax.work_cells", per_task(sum(e["cells"] for e in mm)), "cells/task", "chebyshev.minimax:extras")
    ev = extras("chebyshev.evaluate_monomials")
    put("chebyshev.evaluate_monomials.calls", per_task(s.calls.get("chebyshev.evaluate_monomials", 0)), "count/task", "chebyshev.evaluate_monomials")
    put("chebyshev.evaluate_monomials.s", per_task(s.total.get("chebyshev.evaluate_monomials", 0.0)), "s/task", "chebyshev.evaluate_monomials")
    put("chebyshev.evaluate_monomials.cells", per_task(sum(e["cells"] for e in ev)), "cells/task", "chebyshev.evaluate_monomials:extras")

    put("diameters.greedy_fekete.s", per_task(s.total.get("diameters.greedy_fekete", 0.0)), "s/task", "diameters.greedy_fekete")
    put("diameters.transfinite_diameter.calls", per_task(s.calls.get("diameters.transfinite_diameter", 0)), "count/task", "diameters.transfinite_diameter")
    for name in ("transfinite_diameter", "telescoping_check", "pullback_check"):
        key = "diameters." + name
        put(key + ".self_s", per_task(s.self_time.get(key, 0.0)), "s/task", key)

    fib = extras("sets.fiber")
    put("sets.graph_lift.s", per_task(s.total.get("sets.graph_lift", 0.0)), "s/task", "sets.graph_lift")
    put("sets.fiber.calls", per_task(s.calls.get("sets.fiber", 0)), "count/task", "sets.fiber")
    put("sets.fiber.self_s", per_task(s.self_time.get("sets.fiber", 0.0)), "s/task", "sets.fiber")
    put("sets.fiber.roots_ratio", _ratio(sum(e["found"] for e in fib), sum(e["expected"] for e in fib)), "ratio", "sets.fiber:extras")
    put("sets.fiber.near_disc", per_task(sum(e["near"] for e in fib)), "count/task", "sets.fiber:extras")
    put("sets.fiber_average_poly.s", per_task(s.total.get("sets.fiber_average_poly", 0.0)), "s/task", "sets.fiber_average_poly")
    # A draw is a fiber solve called by fiber_average_poly; it yields a fitted
    # point when the solve neither raised nor flagged the discriminant.
    draws = [extras for name, _, _, parent, extras in tracer.spans
             if name == "sets.fiber" and parent >= 0
             and tracer.spans[parent][0] == "sets.fiber_average_poly"]
    fitted = sum(1 for e in draws if e is not None and not (e["raised"] or e["near"]))
    put("sets.fiber_average_poly.draw_ratio", _ratio(len(draws), fitted), "ratio",
        "sets.fiber:extras", "sets.fiber_average_poly")
    put("sets.build_mesh.s", per_task(s.total.get("sets.build_mesh", 0.0)), "s/task", "sets.build_mesh")

    for name in ("polynomials.evaluate", "polynomials.mul", "groebner.reduce_full",
                 "groebner.s_polynomial", "variety.normal_form", "exact.mul"):
        put(name + ".calls", per_task(tracer.counts.get(name, [0])[0]), "count/task", name)
    for name in ("groebner.buchberger", "variety.staircase", "variety.check_star",
                 "resultant.resultant", "resultant.resultant_slog",
                 "resultant.block_factorization", "resultant.bareiss_det", "parsing.parse_poly"):
        put(name + ".s", per_task(s.total.get(name, 0.0)), "s/task", name)
    put("resultant.bareiss_det.calls", per_task(s.calls.get("resultant.bareiss_det", 0)), "count/task", "resultant.bareiss_det")
    put("cli.main.self_s", per_task(s.self_time.get("cli.main", 0.0)), "s/task", "cli.main")
    return out
