"""Directional Chebyshev constants on sampled sets.

The basic quantity is the discrete minimax value of one stream monomial over
its predecessors: min over coefficients of max over sample points of
|target + combination of earlier monomials|.  Lawson's iteratively reweighted
least squares drives it: each weighted L2 optimum gives a certified lower
bound, its max residual an upper bound, and the weights contract the gap.
The solver settings are the module constants below.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EstimateError
from .polynomials import Monomial, w_monomial, z_monomial
from .sets import SampledSet
from .variety import MonomialBasisStream

FLOOR = 1e-300
LAWSON_TOL = 1e-8  # relative certificate gap at which a solve counts as converged
LAWSON_MAX_ITER = 500
LAWSON_STALL = 50  # rounds without progress before a solve gives up


def evaluate_monomials(monomials: Sequence[Monomial], points: SampledSet) -> np.ndarray:
    """(N, t) matrix of monomial values on the set's points.

    Monomials touching z require a lifted set (one that carries z coordinates).
    """
    needs_z = any(not m.is_pure_w() for m in monomials)
    if needs_z and points.z is None:
        raise EstimateError(
            "these monomials involve z but the set has no z coordinates; "
            "lift it through the map first"
        )
    n = len(points)
    w1 = points.w[:, 0]
    w2 = points.w[:, 1]
    z1 = points.z[:, 0] if points.z is not None else None
    z2 = points.z[:, 1] if points.z is not None else None
    columns = (w1, w2, z1, z2)
    caches: list[dict[int, np.ndarray]] = [{} for _ in range(4)]

    def power(i: int, e: int) -> Optional[np.ndarray]:
        if e == 0:
            return None
        cache = caches[i]
        if e not in cache:
            prev = power(i, e - 1)
            cache[e] = columns[i] if prev is None else prev * columns[i]
        return cache[e]

    out = np.empty((n, len(monomials)), dtype=complex)
    for j, m in enumerate(monomials):
        acc = np.ones(n, dtype=complex)
        for i, e in enumerate(m):
            p = power(i, e)
            if p is not None:
                acc = acc * p
        out[:, j] = acc
    return out


@dataclass
class ChebyshevEstimate:
    value: float
    residual: float
    iterations: int
    converged: bool
    target: Optional[Monomial] = None
    prefix_size: int = 0
    coefficients: Optional[np.ndarray] = None


def minimax_from_matrix(a: np.ndarray, b: np.ndarray) -> ChebyshevEstimate:
    """min_c max_i |b_i + (A c)_i| by Lawson reweighting.

    Stops once the certificate gap closes to LAWSON_TOL, or after LAWSON_STALL
    rounds with neither a better incumbent nor meaningful gap shrinkage; the
    gap often closes only linearly while the value itself settles within a few
    dozen rounds.
    """
    npts, t = a.shape
    if t == 0:
        value = float(np.abs(b).max())
        return ChebyshevEstimate(value=value, residual=0.0, iterations=0, converged=True)
    u = np.full(npts, 1.0 / npts)
    best = math.inf
    best_c = None
    best_gap = math.inf
    tightest = math.inf
    last_improved = 0
    iterations = 0
    for iterations in range(1, LAWSON_MAX_ITER + 1):
        sw = np.sqrt(u)
        c, *_ = np.linalg.lstsq(a * sw[:, None], -b * sw, rcond=None)
        r = b + a @ c
        mags = np.abs(r)
        upper = float(mags.max())
        lower = float(np.sqrt(float(np.sum(u * mags**2))))
        gap = upper - lower
        if upper < best * (1.0 - 1e-10) or gap < tightest * (1.0 - 1e-2):
            last_improved = iterations
        tightest = min(tightest, gap)
        if upper < best:
            best = upper
            best_c = c
            best_gap = gap
        if gap <= LAWSON_TOL * max(1.0, upper):
            return ChebyshevEstimate(
                value=best,
                residual=max(gap, 0.0),
                iterations=iterations,
                converged=True,
                coefficients=best_c,
            )
        if iterations - last_improved >= LAWSON_STALL:
            break
        u = u * np.maximum(mags, FLOOR)
        total = u.sum()
        if not np.isfinite(total) or total <= 0:
            break
        u = u / total
    return ChebyshevEstimate(
        value=best,
        residual=max(best_gap, 0.0),
        iterations=iterations,
        converged=False,
        coefficients=best_c,
    )


def chebyshev_value(
    points: SampledSet, stream: MonomialBasisStream, target: Monomial
) -> ChebyshevEstimate:
    """Discrete Chebyshev value of a stream monomial over its stream prefix."""
    prefix = stream.prefix_of(target)
    matrix = evaluate_monomials(prefix + [target], points)
    est = minimax_from_matrix(matrix[:, : len(prefix)], matrix[:, len(prefix)])
    est.target = target
    est.prefix_size = len(prefix)
    return est


def direction_exponent(theta: float, s: int) -> tuple[int, int]:
    """The integer direction closest to s*(theta, 1-theta); ties go to the first slot."""
    if not 0 < theta < 1:
        raise ValueError("theta must be interior to (0, 1)")
    a1 = math.floor(s * theta + 0.5)
    a1 = min(max(a1, 0), s)
    return (a1, s - a1)


def chebyshev_transform(
    points: SampledSet, stream: MonomialBasisStream, theta: float, s: int
) -> float:
    """s-th root of the directional Chebyshev value along theta.

    The target is the pure monomial closest to direction (theta, 1 - theta) at
    scale s: in w for the w-flavored streams, in z for the z stream.
    """
    if s < 2:
        raise ValueError("the transform needs s >= 2")
    alpha = direction_exponent(theta, s)
    target = z_monomial(alpha) if stream.kind == "z" else w_monomial(alpha)
    est = chebyshev_value(points, stream, target)
    return est.value ** (1.0 / s)


def zaharjuta_integral(
    points: SampledSet, stream: MonomialBasisStream, s: int, grid: int
) -> float:
    """Geometric mean of directional constants over the direction simplex.

    Trapezoid rule on the interior grid {i/(grid+1)}, rescaled to full length
    so constant integrands integrate exactly.  A transform at machine floor
    short-circuits to zero.
    """
    if grid < 4:
        raise ValueError("grid must be at least 4")
    h = 1.0 / (grid + 1)
    values = []
    for i in range(1, grid + 1):
        t = chebyshev_transform(points, stream, i * h, s)
        if t <= FLOOR:
            warnings.warn(
                "directional constant hit the machine floor; the set is "
                "degenerate at this sampling",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0.0
        values.append(math.log(t))
    inner = h * (sum(values) - 0.5 * (values[0] + values[-1]))
    return math.exp(inner / (1.0 - 2.0 * h))
