"""Transfinite diameter estimates from greedy Vandermonde data.

greedy_fekete grows a point configuration one basis monomial at a time,
always taking the point where the current interpolation residual is largest;
that is exactly greedy determinant maximization, and the residual magnitudes
are the successive determinant ratios.

A series reads two tables.  The level table comes from the basis stream:
the monomials through level n_max, and per level n the prefix count m_n and
the level sum l_n.  The per-step table holds, per monomial, the discrete
Chebyshev value (step_cheb) and the greedy log ratio (ledger.step_logs, -inf
at a step that is dependent on the sample).  Every per-level number is a
reduction of a per-step column over the level's m_n-step prefix under one
dependency rule: a level whose prefix holds a dependent step reads -inf as
a log and 0.0 as an estimate.  The reported diameter estimate exponentiates
the Chebyshev sum against the graded weight l_n, which is the normalization
that converges at desk-scale levels (the raw determinant root carries the
m_n! combinatorial factor and is reported alongside, unnormalized).
telescoping_check reads the per-step table row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chebyshev import Basis, evaluate_monomials, greedy_select, minimax_series
from .errors import EstimateError, MapError
from .polynomials import Monomial
from .resultant import is_regular, resultant_slog
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
    log_vandermonde: list[float]
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

    Level n runs through weight n*d for B and C and through degree n for z
    and w; stream.levels gives each level's m_n and l_n.  The per-step table
    is step_cheb and ledger.step_logs.  Per level, log_vandermonde sums the
    step logs over the m_n-step prefix; estimates divide the prefix's sum of
    log Chebyshev values by l_n and exponentiate, and van_root_estimates do
    the same with the step logs (the raw determinant root).  A level whose
    prefix holds a dependent step reads -inf and 0.0 in all three.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if kind in ("B", "C") and (points.provenance != "graph_lift" or points.map is None):
        raise MapError(f"basis kind {kind!r} needs a graph-lifted set with its map attached")
    stream = basis_stream(points.map, kind)
    monomials, m_counts, l_counts = stream.levels(n_max)

    # the one read of the matrix; the greedy and the minimax read the basis
    basis = Basis(evaluate_monomials(monomials, points))
    ledger = VandermondeLedger(monomials, *greedy_select(basis))
    steps = minimax_series(basis)
    step_cheb = np.array([basis.sup[0], *(est.value for est in steps)])
    log_vandermonde = [float(ledger.step_logs[:m].sum()) for m in m_counts]

    def per_level(prefix_log) -> list[float]:
        # the one dependency rule: log_vandermonde is -inf at a level whose
        # prefix holds a dependent step, and the level reads 0.0
        return [
            math.exp(prefix_log(m) / l) if math.isfinite(v) else 0.0
            for m, l, v in zip(m_counts, l_counts, log_vandermonde)
        ]

    return DiameterSeries(
        kind=kind,
        levels=list(range(1, n_max + 1)),
        m_counts=m_counts,
        l_counts=l_counts,
        log_vandermonde=log_vandermonde,
        estimates=per_level(lambda m: float(np.log(step_cheb[:m]).sum())),
        van_root_estimates=per_level(lambda m: float(ledger.step_logs[:m].sum())),
        step_cheb=step_cheb,
        ledger=ledger,
        meta={
            "points": len(points),
            "provenance": points.provenance,
            "d": stream.d,
            # the certified solves and their solver iterations, the worst
            # relative bracket width, and the steps that stopped uncertified
            "irls_converged": sum(1 for est in steps if est.converged),
            "irls_steps": sum(est.iterations for est in steps),
            "cheb_gap_max": max([0.0, *(est.residual / est.value for est in steps if est.value > 0)]),
            "cheb_uncertified": [t for t, est in enumerate(steps, start=1) if not est.converged],
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
    ratio 0 and requires a zero Chebyshev value.  A series passed in is read
    in place of a new one, and must be the kind-n_max series of points.
    """
    if series is None:
        series = transfinite_diameter(points, kind, n_max)
    elif (kind, n_max) != (series.kind, series.levels[-1]):
        raise ValueError(
            f"series is {series.kind!r} through level {series.levels[-1]}, not {kind!r} through {n_max}"
        )
    rows = []
    steps = zip(series.ledger.step_logs[1:], series.step_cheb[1:].tolist())
    for t, (log_ratio, cheb) in enumerate(steps, start=1):
        ratio = math.exp(log_ratio) if math.isfinite(log_ratio) else 0.0
        if ratio == 0.0:
            lower_ok, upper_ok = cheb <= TELESCOPING_SLACK, True
        else:
            lower_ok = cheb <= ratio * (1 + TELESCOPING_SLACK)
            upper_ok = cheb > 0 and ratio <= (t + 1) * cheb * (1 + TELESCOPING_SLACK)
        rows.append(TelescopingRow(t, ratio, cheb, lower_ok, upper_ok))
    ok = all(row.lower_ok and row.upper_ok for row in rows)
    return TelescopingReport(rows=rows, ok=ok, kind=series.kind, slack=TELESCOPING_SLACK)


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
    Regularity is resultant.is_regular, asked before any point is sampled,
    so a float map whose |Res| is lost in its coefficients' rounding is
    refused too.  Nothing here needs the staircase, so float maps work.  mesh
    gives the counts build_mesh takes; a points: set takes none, and its meta
    has no mesh.
    """
    if not is_regular(f):
        raise EstimateError("the map is not regular; the pullback formula needs Res != 0")
    d = f.d
    _, log_res = resultant_slog(f)
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
