"""Directional Chebyshev constants on sampled sets.

The basic quantity is the discrete minimax value of one stream monomial over
its predecessors: min over coefficients c of max over sample points of
|b + a c|, with b the target's values and a the predecessors'.  It is the
second-order cone program min s subject to |b_i + (a c)_i| <= s, one
three-dimensional cone (s, Re r_i, Im r_i) per point.

A solve starts with the least-squares fit, whose root mean square residual
is a lower bound; when that already certifies, the fit is the answer.  The
fit is solved on the R factor of [a | b]: a diameter series factors its
whole monomial matrix once, and each step's prefix and target are a leading
block of that R.  The SVD of R's t x t block gives a's singular values, and
those below sv[0] * max(N, t) * eps are cut, so a rank-deficient prefix gets
the minimum-norm fit.  Otherwise a primal-dual interior-point method
(Mehrotra predictor-corrector, Nesterov-Todd scaling) takes over from the
fit.  Every per-cone operation is closed form on arrays over the points,
and each Newton system is solved through an R factor of the scaled
constraint matrix: the Cholesky factor of its normal matrix, which costs one
matrix product.  Only when that Gram matrix is not numerically positive
definite, so Cholesky fails, does R come from a QR of the constraint matrix
itself.

Every estimate is a bracket.  value is the attained max |b + a c| at the
returned coefficients, an upper bound.  lower is |y^H b| / ||y||_1 for the
solver's dual vector y projected onto null(a^H): any such y gives
|y^H b| = |y^H (b + a c)| <= ||y||_1 max |b + a c| for every c, so lower is
a bound that holds whatever the solver's accuracy.  The solver settings are
the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EstimateError
from .polynomials import Monomial, monomial_values, w_monomial, z_monomial
from .sets import SampledSet
from .variety import MonomialBasisStream

MINIMAX_TOL = 1e-8  # relative certificate gap at which a solve counts as converged
MINIMAX_MAX_ITER = 50  # solver iterations per solve, the least-squares start included


def evaluate_monomials(monomials: Sequence[Monomial], points: SampledSet) -> np.ndarray:
    """(N, t) matrix of monomial values on the set's points.

    Column j is filled straight from polynomials.monomial_values, so the
    matrix is held once.  Monomials touching z require a lifted set (one
    that carries z coordinates).
    """
    if points.z is None and any(not m.is_pure_w() for m in monomials):
        raise EstimateError(
            "these monomials involve z but the set has no z coordinates; "
            "lift it through the map first"
        )
    z = (None, None) if points.z is None else (points.z[:, 0], points.z[:, 1])
    values = monomial_values(monomials, (points.w[:, 0], points.w[:, 1]) + z)
    out = np.empty((len(points), len(monomials)), dtype=complex)
    for j, v in enumerate(values):
        out[:, j] = v
    return out


@dataclass
class ChebyshevEstimate:
    """A minimax solve: the minimax lies in [lower, value].

    value is attained at coefficients; residual is value - lower.
    """

    value: float
    lower: float
    residual: float
    iterations: int
    converged: bool
    prefix_size: int = 0
    coefficients: Optional[np.ndarray] = None


def minimax_from_matrix(
    a: np.ndarray, b: np.ndarray, rfac: Optional[np.ndarray] = None
) -> ChebyshevEstimate:
    """min_c max_i |b_i + (a c)_i| with a certified bracket [lower, value].

    rfac is the upper triangular R factor of [a | b], with t + 1 columns,
    computed here when not given; a series passes a leading block of the R
    factor of its whole matrix.  The least-squares start is
    c = -R11^+ rfac[:t, t] on the block R11 = rfac[:t, :t]: a = Q R11 with Q
    orthonormal, so R11 has a's singular values, and those at most
    sv[0] * max(N, t) * eps are cut, as numpy's lstsq cuts them.  The fit's
    residual b + a c is formed explicitly, so value is the attained sup norm.

    residual is value - lower; a solve has converged once it is at most
    MINIMAX_TOL * max(1, value).  iterations counts the least-squares start
    and the interior-point steps after it.
    """
    npts, t = a.shape
    if t == 0:
        value = float(np.abs(b).max())
        return ChebyshevEstimate(
            value=value, lower=value, residual=0.0, iterations=0, converged=True
        )
    if rfac is None:
        rfac = np.linalg.qr(np.column_stack([a, b]), mode="r")
    # the least-squares fit (Lawson's first step) on the block of R
    u, sv, vh = np.linalg.svd(rfac[:t, :t], full_matrices=False)
    k = int((sv > sv[0] * max(npts, t) * np.finfo(float).eps).sum())
    c = vh[:k].conj().T @ ((u[:, :k].conj().T @ -rfac[:t, t]) / sv[:k])
    r = b + a @ c
    mags = np.abs(r)
    upper = float(mags.max())
    lower = min(float(np.sqrt(np.mean(mags**2))), upper)
    if upper - lower <= MINIMAX_TOL * max(1.0, upper):
        return ChebyshevEstimate(
            value=upper,
            lower=lower,
            residual=upper - lower,
            iterations=1,
            converged=True,
            coefficients=c,
        )
    return _interior_point(a, b, c, r, upper, lower)


# Per-cone algebra of the cone {(u0, u1, u2): u0 >= |(u1, u2)|}.  A (3, N)
# array holds one vector in each of N cones; J = diag(1, -1, -1).

_J = np.array([1.0, -1.0, -1.0])[:, None]
_E = np.array([1.0, 0.0, 0.0])[:, None]


def _jdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^T J v per cone."""
    return u[0] * v[0] - u[1] * v[1] - u[2] * v[2]


def _circ(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Jordan product (u^T v, u0 v1 + v0 u1, u0 v2 + v0 u2) per cone."""
    out = u[0] * v + v[0] * u
    out[0] = (u * v).sum(axis=0)
    return out


def _step_to_boundary(lam: np.ndarray, det: np.ndarray, d: np.ndarray) -> float:
    """Largest alpha with lam + alpha d in every cone (inf if none binds).

    det is lam^T J lam.  (lam + alpha d)^T J (lam + alpha d) / det factors as
    (1 - k1 alpha)(1 - k2 alpha) with real k; the step ends at 1 / max k.
    """
    bb = _jdot(lam, d)
    k = (np.sqrt(np.maximum(bb * bb - _jdot(d, d) * det, 0.0)) - bb) / det
    top = float(k.max())
    return 1.0 / top if top > 0 else math.inf


def _interior_point(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, r: np.ndarray, upper: float, lower: float
) -> ChebyshevEstimate:
    """Primal-dual interior-point solve started from the least-squares fit c.

    The solve runs on a V = U S, with a = U S V^H the thin SVD cut to the
    numerical rank of a, so its columns are independent even when a's are
    not; c = V d.  Primal: x = (Re d_1, Im d_1, ..., Re d_t, Im d_t, s),
    minimize s with the cone slacks (s, Re r_i, Im r_i), r = b + a c; so
    G x = -(s, Re (a V d)_i, Im (a V d)_i) per cone.  Dual: z_i = (z0_i,
    Re y_i, Im y_i) in the cones with sum z0 = 1 and U^H y = 0; its objective
    -Re(b^H y) is at most the minimax.  The fit residual is orthogonal to the
    columns of a, so s = 2 max |r| and z_i = (s, -r_i) / (N s) start both
    strictly feasible.  upper and lower are the fit's bounds; the best of
    each is kept.
    """
    npts = a.shape[0]
    basis, sv, vh = np.linalg.svd(a, full_matrices=False)
    t = int((sv > sv[0] * max(a.shape) * np.finfo(float).eps).sum())
    basis, vh = basis[:, :t], vh[:t]  # U, and V^H
    avc = (basis * sv[:t]).conj()  # conj(a V)
    best_c = c
    x = np.empty(2 * t + 1)
    x[: 2 * t].view(complex)[:] = vh @ c
    x[-1] = 2.0 * upper
    z = np.stack([np.full(npts, 1.0 / npts), -r.real / (npts * x[-1]), -r.imag / (npts * x[-1])])
    # W^-1 G, the constraint matrix in scaled coordinates: the row for
    # component k of cone i takes x to Re(gamma_ki (a V d)_i) + g_ki s, with
    # the conj(gamma_ki (a V)_i) entries viewed as (re, im) pairs
    gh = np.empty((3, npts, 2 * t + 1))
    flat = gh.reshape(3 * npts, 2 * t + 1)
    gh_d = gh[:, :, : 2 * t].view(complex)
    shift = np.array([0.0, 1.0, -1j])[:, None]
    iterations = 1
    converged = False
    while iterations < MINIMAX_MAX_ITER:
        sl = np.stack([np.full(npts, x[-1]), r.real, r.imag])
        sdet = _jdot(sl, sl)
        zdet = _jdot(z, z)
        if not (sdet.min() > 0 and zdet.min() > 0):
            break  # rounding put an iterate on a cone boundary
        # Nesterov-Todd scaling W = beta (2 v v^T - J): W z = W^-1 sl = lam
        sn = np.sqrt(sdet)
        zn = np.sqrt(zdet)
        sb = sl / sn
        zb = z / zn
        gam = np.sqrt(0.5 * (1.0 + (sb * zb).sum(axis=0)))
        v = (sb + _J * zb) / (2.0 * gam)
        v[0] += 1.0
        v /= np.sqrt(2.0 * v[0])
        ibeta = np.sqrt(zn / sn)
        det = sn * zn
        lam = np.empty_like(sb)
        lam[0] = gam
        lam[1:] = ((gam + zb[0]) * sb[1:] + (gam + sb[0]) * zb[1:]) / (sb[0] + zb[0] + 2.0 * gam)
        lam *= np.sqrt(det)
        # W^-1 = ibeta J (2 v v^T J - I), applied to G's columns
        gamma = (ibeta * _J) * (2.0 * (v[1] - 1j * v[2]) * v + shift)
        np.multiply(gamma.conj()[:, :, None], avc, out=gh_d)
        gh[:, :, -1] = (ibeta * _J) * (_E - 2.0 * v[0] * v)
        # R with R^T R = G^T W^-2 G: the Cholesky factor of that normal
        # matrix.  When rounding leaves the Gram matrix not numerically
        # positive definite, R comes instead from the R factors of W^-1 G's
        # three row blocks; each QR copies its input, so one block at a time
        # keeps the copies small.
        try:
            rfac = np.linalg.cholesky(flat.T @ flat).T
        except np.linalg.LinAlgError:
            r3 = np.concatenate([np.linalg.qr(block, mode="r") for block in gh])
            rfac = np.linalg.qr(r3, mode="r")
        rinv = np.linalg.inv(rfac)
        # dual residual G^T z + e_s
        rx = np.empty(2 * t + 1)
        rx[: 2 * t].view(complex)[:] = -((z[1] + 1j * z[2]) @ avc)
        rx[-1] = 1.0 - z[0].sum()

        def newton(rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Step (dx, W^-1 ds, W dz) for the linearized complementarity
            lam o (W^-1 ds + W dz) = lam o rhs, through R^T R = G^T W^-2 G."""
            dx = -rinv @ (rinv.T @ (rx + flat.T @ rhs.reshape(-1)))
            dz = (flat @ dx).reshape(3, npts) + rhs
            return dx, rhs - dz, dz

        gap = float((lam * lam).sum())
        # predictor: the affine direction, lam o rhs = -lam o lam
        _, ds, dz = newton(-lam)
        alpha = min(1.0, _step_to_boundary(lam, det, ds), _step_to_boundary(lam, det, dz))
        shrink = float(((lam + alpha * ds) * (lam + alpha * dz)).sum()) / gap
        # corrector: lam o rhs = -lam o lam + centering mu e - ds o dz
        rc = -_circ(ds, dz)
        rc[0] += min(1.0, max(0.0, shrink)) ** 3 * gap / npts
        rhs = np.empty_like(rc)
        rhs[0] = _jdot(lam, rc) / det
        rhs[1:] = (rc[1:] - rhs[0] * lam[1:]) / lam[0]
        dx, ds, dz = newton(rhs - lam)
        alpha = min(1.0, 0.99 * min(_step_to_boundary(lam, det, ds), _step_to_boundary(lam, det, dz)))
        if not alpha > 0:
            break
        iterations += 1
        x += alpha * dx
        z += alpha * ibeta * _J * (2.0 * v * _jdot(v, dz) - dz)  # W^-1 dz
        c = x[: 2 * t].view(complex) @ vh.conj()
        r = b + a @ c
        value = float(np.abs(r).max())
        if value < upper:
            upper, best_c = value, c
        y = z[1] + 1j * z[2]
        y -= basis @ (y.conj() @ basis).conj()
        norm = float(np.abs(y).sum())
        if norm > 0:
            lower = max(lower, abs(complex(np.vdot(y, b))) / norm)
        if upper - lower <= MINIMAX_TOL * max(1.0, upper):
            converged = True
            break
    return ChebyshevEstimate(
        value=upper,
        lower=lower,
        residual=upper - lower,
        iterations=iterations,
        converged=converged,
        coefficients=best_c,
    )


def chebyshev_value(
    points: SampledSet, stream: MonomialBasisStream, target: Monomial
) -> ChebyshevEstimate:
    """Discrete Chebyshev value of a stream monomial over its stream prefix."""
    prefix = stream.prefix_of(target)
    matrix = evaluate_monomials(prefix + [target], points)
    est = minimax_from_matrix(matrix[:, : len(prefix)], matrix[:, len(prefix)])
    est.prefix_size = len(prefix)
    return est


def direction_exponent(theta: float, s: int) -> tuple[int, int]:
    """The integer direction closest to s*(theta, 1-theta); ties go to the first slot."""
    if not 0 < theta < 1:
        raise ValueError("theta must be interior to (0, 1)")
    a1 = math.floor(s * theta + 0.5)
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

