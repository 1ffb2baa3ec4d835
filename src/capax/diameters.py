"""Transfinite diameter estimates from greedy Vandermonde data.

greedy_fekete grows a point configuration one basis monomial at a time,
always taking the point where the current interpolation residual is largest;
that is exactly greedy determinant maximization, and the residual magnitudes
are the successive determinant ratios.  The ledger keeps their logs, and the
series the per-step discrete Chebyshev values (step_cheb); the reported
diameter estimate exponentiates the Chebyshev sum against the graded weight
l_n, which is the normalization that converges at desk-scale levels (the raw
determinant root carries the m_n! combinatorial factor and is reported
alongside, unnormalized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chebyshev import Basis, evaluate_monomials, greedy_select, minimax_series
from .errors import EstimateError, MapError
from .polynomials import Monomial
from .resultant import resultant_slog
from .sets import SampledSet, build_mesh, graph_lift
from .variety import GraphMap, basis_stream

TELESCOPING_SLACK = 1e-6  # relative slack on both telescoping inequalities


@dataclass
class VandermondeLedger:
    monomials: list[Monomial]
    selected: list[int]
    step_logs: np.ndarray  # -inf at a step that is dependent on the sample

    @property
    def truncated(self) -> bool:
        """Some step is dependent on the sample and took no point."""
        return len(self.selected) < len(self.monomials)

    def logdet_prefix(self, count: int) -> float:
        return float(self.step_logs[:count].sum())


def greedy_fekete(
    points: SampledSet,
    basis: Sequence[Monomial],
    n: int,
) -> VandermondeLedger:
    """Greedily select points for the first n monomials, maximizing the
    Vandermonde determinant, by chebyshev.greedy_select on their basis.

    Ties go to the earliest point in mesh order.  A monomial that is
    dependent on the sample (the set lies on a zero set of the basis) takes
    no point and has step log -inf, and the selection goes on.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    monomials = list(basis)[:n]
    if len(monomials) < n:
        raise ValueError("basis does not provide enough monomials")
    return VandermondeLedger(monomials, *greedy_select(Basis(evaluate_monomials(monomials, points))))


# ---------------------------------------------------------------------------
# diameter series


@dataclass
class DiameterSeries:
    kind: str
    levels: list[int]
    m_counts: list[int]
    l_counts: list[int]
    estimates: list[float]
    van_root_estimates: list[float]
    step_cheb: np.ndarray
    ledger: VandermondeLedger
    meta: dict = field(default_factory=dict)

    @property
    def final(self) -> float:
        return self.estimates[-1]


def transfinite_diameter(points: SampledSet, kind: str, n_max: int) -> DiameterSeries:
    """Diameter estimates at levels 1..n_max for one basis kind.

    For kinds B and C the level-n prefix runs through weight n*d; for z and w
    it is the usual degree filtration.  Estimates multiply the per-step
    discrete Chebyshev values and normalize by the graded weight l_n.  The
    raw determinant roots (same data, no combinatorial correction) ride along
    in van_root_estimates.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if kind in ("B", "C") and (points.provenance != "graph_lift" or points.map is None):
        raise MapError(f"basis kind {kind!r} needs a graph-lifted set with its map attached")
    stream = basis_stream(points.map, kind)
    d = stream.d
    monomials = stream.upto(n_max * d)
    # a monomial of weight w enters at level ceil(w / d); m_n counts the
    # monomials at level <= n and l_n sums their levels
    entry_levels = [-(-m.weight(d) // d) for m in monomials]
    m_counts = [sum(lv <= n for lv in entry_levels) for n in range(1, n_max + 1)]
    l_counts = [sum(lv for lv in entry_levels if lv <= n) for n in range(1, n_max + 1)]

    # the one read of the matrix; the greedy and the minimax read the basis
    basis = Basis(evaluate_monomials(monomials, points))
    ledger = VandermondeLedger(monomials, *greedy_select(basis))
    y = np.empty(len(monomials))
    # irls_converged counts the certified solves and irls_steps their solver
    # iterations; cheb_gap_max is the worst relative bracket width, and
    # cheb_uncertified lists the steps whose solve stopped uncertified
    estimates_meta = {
        "irls_converged": 0,
        "irls_steps": 0,
        "cheb_gap_max": 0.0,
        "cheb_uncertified": [],
    }
    y[0] = basis.sup[0]
    for t, est in enumerate(minimax_series(basis), start=1):
        y[t] = est.value
        estimates_meta["irls_converged"] += int(est.converged)
        estimates_meta["irls_steps"] += est.iterations
        if not est.converged:
            estimates_meta["cheb_uncertified"].append(t)
        if est.value > 0:
            gap = est.residual / est.value
            estimates_meta["cheb_gap_max"] = max(estimates_meta["cheb_gap_max"], gap)

    estimates = []
    van_roots = []
    for m_n, l_n in zip(m_counts, l_counts):
        logdet = ledger.logdet_prefix(m_n)
        if math.isfinite(logdet):
            estimates.append(math.exp(float(np.log(y[:m_n]).sum()) / l_n))
            van_roots.append(math.exp(logdet / l_n))
        else:
            # a dependent step: every level-n determinant on the sample is 0
            estimates.append(0.0)
            van_roots.append(0.0)
    return DiameterSeries(
        kind=kind,
        levels=list(range(1, n_max + 1)),
        m_counts=m_counts,
        l_counts=l_counts,
        estimates=estimates,
        van_root_estimates=van_roots,
        step_cheb=y,
        ledger=ledger,
        meta={
            "points": len(points),
            "provenance": points.provenance,
            "d": d,
            **estimates_meta,
        },
    )


# ---------------------------------------------------------------------------
# telescoping


@dataclass
class TelescopingRow:
    step: int
    ratio: float
    cheb: float
    lower_ok: bool
    upper_ok: bool


@dataclass
class TelescopingReport:
    rows: list[TelescopingRow]
    ok: bool
    kind: str
    slack: float


def telescoping_check(
    points: SampledSet,
    kind: str,
    n_max: int,
    *,
    series: Optional[DiameterSeries] = None,
) -> TelescopingReport:
    """Per-step determinant ratios against their Chebyshev bounds.

    At step t the added monomial's Chebyshev value must sit below the greedy
    determinant ratio, and t + 1 times it must sit above, each up to the
    relative TELESCOPING_SLACK.  A step that is dependent on the sample has
    ratio 0 and requires a zero Chebyshev value.
    """
    if series is None:
        series = transfinite_diameter(points, kind, n_max)
    rows = []
    ok = True
    for t in range(1, len(series.step_cheb)):
        log_ratio = series.ledger.step_logs[t]
        ratio = math.exp(log_ratio) if math.isfinite(log_ratio) else 0.0
        cheb = float(series.step_cheb[t])
        if ratio == 0.0:
            lower_ok = cheb <= TELESCOPING_SLACK
            upper_ok = True
        else:
            lower_ok = cheb <= ratio * (1 + TELESCOPING_SLACK)
            upper_ok = cheb > 0 and ratio <= (t + 1) * cheb * (1 + TELESCOPING_SLACK)
        ok = ok and lower_ok and upper_ok
        rows.append(
            TelescopingRow(
                step=t, ratio=ratio, cheb=cheb, lower_ok=lower_ok, upper_ok=upper_ok
            )
        )
    return TelescopingReport(rows=rows, ok=ok, kind=kind, slack=TELESCOPING_SLACK)


# ---------------------------------------------------------------------------
# the pullback comparison


@dataclass
class PullbackReport:
    lhs: float
    rhs: float
    ratio: float
    d1: DiameterSeries
    d3: DiameterSeries
    res_log_abs: float
    meta: dict = field(default_factory=dict)


def pullback_check(f: GraphMap, spec, n_max: int, mesh) -> PullbackReport:
    """Compare d(f^{-1} K) with |Res|^(-1/(2 d^2)) d(K)^(1/d) on a mesh.

    The left side is the z-basis diameter d1 of the lifted set; the right side
    uses the w-basis diameter d3 of the base mesh and |Res| of the top forms.
    Regularity is checked before any point is sampled.  Nothing here needs
    the staircase, so float maps work.  mesh gives the counts build_mesh
    takes; a points: set takes none, and its meta has no mesh.
    """
    d = f.d
    _, log_res = resultant_slog(f)
    if not math.isfinite(log_res):
        raise EstimateError("the map is not regular; the pullback formula needs Res != 0")
    base = build_mesh(spec, mesh)
    lifted = graph_lift(f, base)
    d3 = transfinite_diameter(base, "w", n_max)
    d1 = transfinite_diameter(lifted, "z", n_max)
    rhs = math.exp(-log_res / (2 * d * d)) * d3.final ** (1.0 / d)
    lhs = d1.final
    ratio = lhs / rhs if rhs > 0 else math.inf
    meta = {"mesh": mesh} if base.provenance != "points" else {}
    return PullbackReport(
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        d1=d1,
        d3=d3,
        res_log_abs=log_res,
        meta={
            **meta,
            "base_points": len(base),
            "lift_points": len(lifted),
            "levels": n_max,
            "near_discriminant_fibers": lifted.meta["near_discriminant_fibers"],
            "roots_missing": lifted.meta["roots_missing"],
        },
    )
