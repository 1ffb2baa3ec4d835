"""Seeded inputs, tasks and output checks for the four benchmark workloads.

Each workload draws its inputs from the run's seed during set-up, one per
task, then runs one task per input in a closed loop (the next task starts
only after the previous one has finished and been checked).  A task calls
the public capax API (or the `capax` CLI in-process) through attribute
lookups made at call time, so the tracer's wrappers see every call.

Importing this module imports capax and numpy, so run.py imports it inside
the timed set-up.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import capax
import capax.cli
from capax import CapaxError, GaussianRational, GraphMap, Polynomial
from capax.polynomials import Monomial
from layers import patched

# ---------------------------------------------------------------------------
# map generators, the same draws as the test suite's conftest

REDRAW_CAP = 400


def exact_coeff(rng: random.Random, lo: int = -4, hi: int = 4, dens=(1, 1, 2, 3)) -> GaussianRational:
    return GaussianRational(Fraction(rng.randint(lo, hi), rng.choice(dens)))


def random_z_poly(rng: random.Random, d: int) -> Polynomial:
    """Exact z-polynomial of degree exactly d with small rational coefficients."""
    while True:
        terms = {}
        for b1 in range(d + 1):
            for b2 in range(d + 1 - b1):
                c = exact_coeff(rng)
                if c:
                    terms[Monomial(0, 0, b1, b2)] = c
        p = Polynomial(terms, "exact")
        if not p.is_zero() and p.degree() == d:
            return p


def random_regular_map(rng: random.Random, d: int) -> GraphMap:
    for _ in range(REDRAW_CAP):
        f = GraphMap(random_z_poly(rng, d), random_z_poly(rng, d))
        if capax.is_regular(f):
            return f
    raise RuntimeError("no regular map found within the redraw cap")


def _z2_power_minor(f: GraphMap) -> GaussianRational:
    # d = 2 only: when a2*b1 - a1*b2 of the top forms vanishes, the pencil of
    # top forms holds a pure z2^2 multiple and no z2 power certifies z1^2.
    a2 = f.f1.coefficient(Monomial(0, 0, 2, 0))
    a1 = f.f1.coefficient(Monomial(0, 0, 1, 1))
    b2 = f.f2.coefficient(Monomial(0, 0, 2, 0))
    b1 = f.f2.coefficient(Monomial(0, 0, 1, 1))
    return a2 * b1 - a1 * b2


def random_generic_map(rng: random.Random, d: int) -> GraphMap:
    """Regular map with the generic staircase (and, for d = 2, a nonzero
    z2-power pencil minor)."""
    for _ in range(REDRAW_CAP):
        f = GraphMap(random_z_poly(rng, d), random_z_poly(rng, d))
        try:
            if not (capax.is_regular(f) and capax.is_generic(f)):
                continue
        except CapaxError:
            continue
        if d == 2 and not _z2_power_minor(f):
            continue
        return f
    raise RuntimeError("no generic map found within the redraw cap")


def fresh(f: GraphMap) -> GraphMap:
    """The same map without the staircase and float caches its draw filled."""
    return GraphMap(f.f1, f.f2)


# ---------------------------------------------------------------------------
# sizes


@dataclass(frozen=True)
class Sizes:
    series_mesh: int = 8
    series_n: int = 3
    pullback_mesh: int = 32
    pullback_n: int = 6
    lift_mesh_d2: int = 16
    lift_mesh_d3: int = 8


FULL = Sizes()
SMOKE = Sizes(series_mesh=8, series_n=2, pullback_mesh=8, pullback_n=2,
              lift_mesh_d2=8, lift_mesh_d3=4)

TORUS = "torus:1,1"
LIFT_RESIDUAL_TOL = 1e-9      # the fiber solver's own acceptance
PULLBACK_TOL = 0.05           # acceptance 09
FIT_RESIDUAL_TOL = 1e-6       # acceptance 06


@dataclass
class Check:
    """Outcome of one task's output check plus its quality samples.

    Sample keys ending in `_ratio` hold (numerator, denominator) pairs that
    are summed over tasks; keys ending in `.max` hold values maxed over tasks.
    """

    ok: bool
    reason: str = ""
    samples: dict = field(default_factory=dict)
    # A correct output that breaks a bound the program states but that does
    # not hold for every sample; reported, not counted as a failure.
    finding: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[random.Random, Sizes, str, int], list]
    run: Callable[[Any, Sizes], Any]
    check: Callable[[Any, Any, Sizes, dict], Check]
    quality: tuple[str, ...]
    # Tasks a run makes per second of --seconds.  The count is fixed, not
    # timed, so that every commit measures and checks the same inputs for a
    # seed however fast it is.  Workloads whose task cost varies more between
    # draws get more tasks, so that the mean over a run moves less from seed
    # to seed; at the commit that defined the benchmark a run then takes
    # about 1.65, 0.75, 1.2 and 0.9 times --seconds on the four workloads.
    tasks_per_run_second: float


def _mesh(m: int):
    return capax.build_mesh(TORUS, (m, m))


def _defect(lift, base_points: int, f: GraphMap) -> tuple[int, int]:
    expected = f.d1 * f.d2 * base_points
    return expected - len(lift), expected


# ---------------------------------------------------------------------------
# series-generic: lift, B series, telescoping check on one generic d = 2 map


def _series_inputs(rng, sz, tmp, count):
    return [random_generic_map(rng, 2) for _ in range(count)]


def _series_run(f, sz):
    f = fresh(f)
    lift = capax.graph_lift(f, _mesh(sz.series_mesh))
    series = capax.transfinite_diameter(lift, "B", sz.series_n)
    report = capax.telescoping_check(lift, "B", sz.series_n, series=series)
    return f, lift, series, report


def _series_problems(series, report) -> list[str]:
    """What is wrong with a B series and its telescoping report.

    Checked: every estimate and step Chebyshev value is finite and positive;
    each report row carries its step's ratio and Chebyshev value from the
    series, its verdicts match the inequalities they state, and `ok` is
    their conjunction; and at every step the Chebyshev value is at most the
    greedy determinant ratio, which is the sup norm of one admissible
    polynomial, so a larger minimax value is no minimum.
    Not checked: the (t + 1) upper bound.  It holds for Fekete points, not
    for greedy ones, so a correct run breaks it on some samples (about one
    generic map in twenty at 8x8); `_series_check` reports those maps as
    findings.
    """
    problems = []
    steps = len(series.step_cheb)
    if series.ledger.truncated or not all(0.0 < e < math.inf for e in series.estimates):
        problems.append(f"estimates {series.estimates}, truncated {series.ledger.truncated}")
    if [r.step for r in report.rows] != list(range(1, steps)):
        return problems + [f"report rows {[r.step for r in report.rows]} for {steps} steps"]
    slack = report.slack
    for r in report.rows:
        ratio = math.exp(series.ledger.step_logs[r.step])
        cheb = float(series.step_cheb[r.step])
        if not (0.0 < cheb < math.inf and math.isclose(r.cheb, cheb, rel_tol=1e-12)
                and math.isclose(r.ratio, ratio, rel_tol=1e-12)):
            problems.append(f"step {r.step}: row ({r.ratio:.6g}, {r.cheb:.6g}) "
                            f"against series ({ratio:.6g}, {cheb:.6g})")
        elif r.lower_ok != (r.cheb <= r.ratio * (1 + slack)) \
                or r.upper_ok != (r.ratio <= (r.step + 1) * r.cheb * (1 + slack)):
            problems.append(f"step {r.step}: verdicts disagree with ratio {r.ratio:.6g}, "
                            f"cheb {r.cheb:.6g}")
        elif not r.lower_ok:
            problems.append(f"step {r.step}: cheb {r.cheb:.6g} above ratio {r.ratio:.6g}")
    if report.ok != all(r.lower_ok and r.upper_ok for r in report.rows):
        problems.append(f"ok is {report.ok} against its rows")
    return problems


def _series_check(inp, out, sz, ctx):
    f, lift, series, report = out
    # The base w-series depends only on the mesh; it is computed once, at the
    # first check (checks are never timed or traced).
    key = ("base_w", sz.series_mesh, sz.series_n)
    if key not in ctx:
        ctx[key] = capax.transfinite_diameter(_mesh(sz.series_mesh), "w", sz.series_n).final
    d_w = ctx[key]
    above = [f"step {r.step}: ratio {r.ratio:.6g} > {r.step + 1} x cheb {r.cheb:.6g}"
             for r in report.rows if not r.upper_ok]
    samples = {
        "diam_err.max": abs(series.final - d_w) / d_w,
        "lift_defect_ratio": _defect(lift, sz.series_mesh**2, f),
        "certified_ratio": _certified(series),
        "telescoping_fail_ratio": (int(not report.ok), 1),
    }
    problems = _series_problems(series, report)
    finding = f"telescoping_check not ok for {f} ({'; '.join(above)})" if above else ""
    return Check(not problems, "; ".join(problems), samples, finding)


def _certified(series) -> tuple[int, int] | None:
    converged = series.meta.get("irls_converged")
    if converged is None:
        return None
    return converged, len(series.step_cheb) - 1


# ---------------------------------------------------------------------------
# pullback-cli: `capax pullback` in-process on (c z1^2, c z2^2)

PULLBACK_SCALES = ("1/2", "2/3", "1", "3/2", "2", "5/2", "3")


def _pullback_inputs(rng, sz, tmp, count):
    inputs = []
    for i in range(count):
        c = rng.choice(PULLBACK_SCALES)
        path = os.path.join(tmp, f"pullback-{i}.json")
        with open(path, "w") as fh:
            json.dump({"f1": f"{c}*z1^2", "f2": f"{c}*z2^2"}, fh)
        inputs.append((Fraction(c), path, os.path.join(tmp, f"pullback-{i}.out.json")))
    return inputs


def _capture(fn, sink):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    return wrapper


def _pullback_run(inp, sz):
    _, map_path, out_path = inp
    series = []
    # Keep every series the CLI computes so their meta can be read; the CLI's
    # JSON carries only the final values.
    with patched("capax.diameters", "transfinite_diameter", lambda fn: _capture(fn, series)):
        code = capax.cli.main([
            "pullback", "--map", map_path, "--set", TORUS,
            "--mesh", str(sz.pullback_mesh), "--nmax", str(sz.pullback_n),
            "--format", "json", "--out", out_path,
        ])
    return code, series


def _pullback_check(inp, out, sz, ctx):
    c, _, out_path = inp
    code, series = out
    if code != 0:
        return Check(False, f"exit code {code}", {})
    with open(out_path) as fh:
        report = json.load(fh)
    want = float(c) ** -0.5
    err = max(abs(report["lhs"] - want), abs(report["rhs"] - want)) / want
    samples = {"diam_err.max": err}
    counts = [_certified(s) for s in series]
    if series and None not in counts:
        samples["certified_ratio"] = (sum(n for n, _ in counts), sum(m for _, m in counts))
    ok = err < PULLBACK_TOL and abs(report["ratio"] - 1.0) < PULLBACK_TOL
    reason = "" if ok else f"c={c}: rel err {err:.3g}, ratio {report['ratio']:.6g}"
    return Check(ok, reason, samples)


# ---------------------------------------------------------------------------
# lift-generic: graph lifts only, one generic d = 2 and one d = 3 map per task


def _lift_inputs(rng, sz, tmp, count):
    return [(random_generic_map(rng, 2), random_generic_map(rng, 3)) for _ in range(count)]


def _lift_meshes(sz):
    return sz.lift_mesh_d2, sz.lift_mesh_d3


def _lift_run(pair, sz):
    return [capax.graph_lift(fresh(f), _mesh(m)) for f, m in zip(pair, _lift_meshes(sz))]


def _lift_residuals(f: GraphMap, lift) -> np.ndarray:
    """Relative |f(z) - w| per lifted point, on the fiber solver's own scale:
    max(1, |coefficients of f - w|) * max(1, |z1|, |z2|)^deg f1."""
    g = f.to_float()
    z1, z2 = lift.z[:, 0], lift.z[:, 1]
    scale = np.ones(len(lift))
    worst = np.zeros(len(lift))
    for k, p in enumerate((g.f1, g.f2)):
        value = np.zeros(len(lift), dtype=complex)
        constant = 0j
        for m, c in p.terms.items():
            if m.b1 == m.b2 == 0:
                constant = c
            else:
                scale = np.maximum(scale, abs(c))
            value += c * z1**m.b1 * z2**m.b2
        w = lift.w[:, k]
        scale = np.maximum(scale, np.abs(constant - w))
        worst = np.maximum(worst, np.abs(value - w))
    local = np.maximum(1.0, np.maximum(np.abs(z1), np.abs(z2))) ** g.d1
    return worst / (scale * local)


def _lift_check(pair, lifts, sz, ctx):
    worst = max(float(_lift_residuals(f, lift).max()) for f, lift in zip(pair, lifts))
    defects = [_defect(lift, m * m, f) for f, lift, m in zip(pair, lifts, _lift_meshes(sz))]
    samples = {"root_residual.max": worst, "lift_defect_ratio": tuple(map(sum, zip(*defects)))}
    ok = worst <= LIFT_RESIDUAL_TOL
    return Check(ok, "" if ok else f"lift residual {worst:.3g}", samples)


# ---------------------------------------------------------------------------
# identities-seeded: the exact side plus fiber averages

AVERAGES = 5
D3_BLOCKS = range(5, 16)
D2_BLOCKS = range(3, 10)
ONE = GaussianRational(1)


def _identity_inputs(rng, sz, tmp, count):
    inputs = []
    for _ in range(count):
        cubic = random_generic_map(rng, 3)
        quadratic = random_regular_map(rng, 2)
        stairs = capax.staircase(quadratic)
        averages = []
        for _ in range(AVERAGES):
            s = rng.choice(stairs)
            room = 4 - s.degree()
            a1 = rng.randint(0, room)
            a2 = rng.randint(0, room - a1)
            p = Polynomial({Monomial(a1, a2, s.b1, s.b2): ONE}, "exact")
            averages.append((p, rng.randrange(2**31)))
        inputs.append((cubic, quadratic, averages))
    return inputs


def _identity_run(inp, sz):
    cubic, quadratic, averages = inp
    f3 = fresh(cubic)
    capax.staircase(f3)
    capax.resultant(f3)
    star = capax.check_star(f3)
    blocks = [capax.block_factorization(f3, k) for k in D3_BLOCKS]
    f2 = fresh(quadratic)
    blocks += [capax.block_factorization(f2, k) for k in D2_BLOCKS]
    fits = [capax.fiber_average_poly(p, f2, p.degree(), seed=seed) for p, seed in averages]
    return star, blocks, fits


def _identity_check(inp, out, sz, ctx):
    _, _, averages = inp
    star, blocks, fits = out
    worst = max(residual for _, residual in fits)
    problems = []
    if not all(b.matches for b in blocks):
        problems.append("block determinant differs from +-Res^copies")
    if not star.ok:
        problems.append(f"check_star failed for {sorted(star.failures)}")
    for (p, _), (avg, residual) in zip(averages, fits):
        if not (avg.is_pure_w() and avg.degree() <= p.degree() and residual <= FIT_RESIDUAL_TOL):
            problems.append(f"fiber average of {p} not pure-w/low-degree/fitted ({residual:.3g})")
    return Check(not problems, "; ".join(problems), {"fit_residual.max": worst})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("series-generic", _series_inputs, _series_run, _series_check,
                 ("certified_ratio", "diam_err.max", "lift_defect_ratio",
                  "telescoping_fail_ratio"), 1.1),
        Workload("pullback-cli", _pullback_inputs, _pullback_run, _pullback_check,
                 ("certified_ratio", "diam_err.max"), 0.35),
        Workload("lift-generic", _lift_inputs, _lift_run, _lift_check,
                 ("lift_defect_ratio", "root_residual.max"), 0.85),
        Workload("identities-seeded", _identity_inputs, _identity_run, _identity_check,
                 ("fit_residual.max",), 1.4),
    )
}
