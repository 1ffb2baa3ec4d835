"""Directional Chebyshev constants on sampled sets.

The basic quantity is the discrete minimax value of one stream monomial over
its predecessors: min over coefficients c of max over sample points of
|b + a c|, with b the target's values and a the predecessors'.  It is the
second-order cone program min s subject to |b_i + (a c)_i| <= s, one
three-dimensional cone (s, Re r_i, Im r_i) per point.

A diameter series orthonormalizes its monomial matrix once, by BCGS2
(block classical Gram-Schmidt, two passes): each block of _BLOCK columns is
projected onto the complement of the earlier basis by matrix-matrix
products, twice where the first pass cancels much of a column, then
finished column by column by CGS2 against the block's own basis columns;
a column that its own block shrinks below _REORTH of what the earlier
blocks left is projected again onto the whole basis.  A column whose
residual is at most _DEPENDENT of its norm is dependent and adds no basis
column; the series' greedy Fekete selection, greedy_select, runs on the
basis too and so shares this test.  Step t then minimizes over the k
orthonormal columns Q_k kept before it, which span its prefix, so the
prefix's scaling stops mattering.

One function, _minimax(basis, steps), solves every step: minimax_series
passes all steps of a basis, and minimax_from_matrix and chebyshev_value
pass one.  A step is an index into that call's arrays of brackets and
iteration counts, and the estimates are built from them at the end.  The
start is the least-squares residual w_t that BCGS2 formed: the sup norm of
w_t bounds the minimax from above and its root mean square from below,
with no solve at all; a dependent step's w_t is rounding, and it
certifies at once.  The steps whose start does not certify go, in order,
to a primal-dual interior-point method (Mehrotra predictor-corrector,
Nesterov-Todd scaling) in windows of consecutive steps whose stacked cone
work stays under _WINDOW_BYTES.  A window's solves run in lockstep: all
steps share the points, so each round does the per-cone algebra once on
stacked arrays, and the round's Newton systems form one stack, each
padded with the identity to the largest size among them; _interior_point
gives the details.  Padding and stacking change only rounding, but that
rounding depends on which solves share a window: a step's last bits may
move with its window mates, and so may the iteration count of a solve
whose Newton systems are near singular at the end.  The tests hold a
series to its single solves' iteration counts, with values within 1e-9
and overlapping brackets.

Every estimate is a bracket [lower, value].  value is the least
max |w_t + Q_k d| over the solver's iterates d, an upper bound since each
w_t + Q_k d is some b + a c.  lower is |y^H w_t| / ||y||_1 for the solver's
dual vector y projected onto null(Q_k^H) = null(a^H): any such y gives
|y^H w_t| = |y^H (b + a c)| <= ||y||_1 max |b + a c| for every c, so lower
is a bound whatever the solver's accuracy.  A solve is certified when
value - lower <= MINIMAX_TOL * value.  The solver settings are the module
constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EstimateError
from .polynomials import Monomial, monomial_matrix, w_monomial, z_monomial
from .sets import SampledSet
from .variety import MonomialBasisStream

MINIMAX_TOL = 1e-8  # relative certificate gap at which a solve counts as converged
MINIMAX_MAX_ITER = 50  # solver iterations per solve, the least-squares start included
_DEPENDENT = 1e-12  # a column whose BCGS2 residual is at most this share of its norm is dependent
_BLOCK = 12  # columns per block of the basis and of the greedy elimination
_TIE = 1e-10  # a greedy candidate within this share of the largest |value| ties with it
_SECOND_PASS = 0.5**0.5  # a block is projected again when the first pass leaves a column below this share
_REORTH = 1e-2  # a column its own block shrinks below this share is projected on the whole basis again
_WINDOW_BYTES = 3 << 20  # stacked cone work of one lockstep window of interior-point solves
_CONE_WORK = 48  # stacked cone work per point and solve, in complex numbers


def evaluate_monomials(monomials: Sequence[Monomial], points: SampledSet) -> np.ndarray:
    """(N, t) matrix of monomial values on the set's points, column-major
    from polynomials.monomial_matrix, so that each block of columns the
    basis reads is contiguous.  Monomials touching z require a lifted set
    (one that carries z coordinates).
    """
    if points.z is None and any(not m.is_pure_w() for m in monomials):
        raise EstimateError(
            "these monomials involve z but the set has no z coordinates; "
            "lift it through the map first"
        )
    z = (None, None) if points.z is None else (points.z[:, 0], points.z[:, 1])
    return monomial_matrix(monomials, (points.w[:, 0], points.w[:, 1]) + z)


@dataclass
class ChebyshevEstimate:
    """Step prefix_size of a series: the minimax of a target over its
    prefix_size predecessors lies in [lower, value]."""

    value: float
    lower: float
    iterations: int
    converged: bool
    prefix_size: int

    @property
    def residual(self) -> float:
        return self.value - self.lower


def minimax_from_matrix(a: np.ndarray, b: np.ndarray) -> ChebyshevEstimate:
    """min_c max_i |b_i + (a c)_i| with a certified bracket [lower, value]:
    step t = a.shape[1] of [a | b], as minimax_series returns it; iterations
    counts the least-squares start and the interior-point steps after it."""
    return _minimax(Basis(np.column_stack([a, b])), [a.shape[1]])[0]


def minimax_series(basis: Basis) -> list[ChebyshevEstimate]:
    """The minimax of each column e[:, t], t >= 1, of the basis' matrix e
    over the columns before it."""
    return _minimax(basis, range(1, len(basis.norm)))


def _minimax(basis: Basis, steps: Sequence[int]) -> list[ChebyshevEstimate]:
    """The estimates of the given steps of a basis, in their order, from
    the least-squares start d = 0: upper = sup[t] and lower = norm[t] /
    sqrt(N), or lower = upper with no iteration when no basis column comes
    before step t.  The uncertified steps go through _interior_point in
    windows of at least one step and at most _WINDOW_BYTES of cone work."""
    t = np.asarray(steps, dtype=int)
    npts = len(basis.qc)
    k = basis.rank[t]
    dependent = basis.rank[t + 1] == k
    upper = basis.sup[t]
    lower = np.where(k > 0, np.minimum(basis.norm[t] / math.sqrt(npts), upper), upper)
    iterations = (k > 0).astype(int)
    converged = dependent | (upper - lower <= MINIMAX_TOL * upper)
    pending = np.flatnonzero(~converged)
    per_window = max(1, _WINDOW_BYTES // (16 * npts * _CONE_WORK))
    for i in range(0, len(pending), per_window):
        win = pending[i : i + per_window]
        upper[win], lower[win], iterations[win] = _interior_point(
            basis, t[win], upper[win], lower[win], iterations[win]
        )
        converged[win] = upper[win] - lower[win] <= MINIMAX_TOL * upper[win]
    rows = zip(upper.tolist(), lower.tolist(), iterations.tolist(), converged.tolist(), t.tolist())
    return [ChebyshevEstimate(*row) for row in rows]


class Basis:
    """BCGS2 of e, _BLOCK columns at a time.  Each block is projected onto
    the complement of the basis columns kept before it by matrix-matrix
    products, and a second time when the first pass left some column below
    _SECOND_PASS of its norm; when none, the rounding the first pass left is
    as small against each column as a second pass would leave it (Kahan's
    twice-is-enough test).  Its columns are then finished one at a time by
    CGS2 against the columns the block itself kept, and by CGS2 against the
    whole basis when the block's own columns took all but _REORTH of one:
    the rounding left along the earlier columns is then no longer small
    against the rest.  Column t less its projections onto the k_t = rank[t]
    basis columns kept before it, over all passes, is w_t, with
    sup[t] = max |w_t| and norm[t] = ||w_t||; an independent column adds
    basis column k_t = w_t / ||w_t||.  The basis is held as qc = conj(Q),
    the form the interior point and the greedy read, and no pass copies it;
    it keeps no reference to e.
    """

    def __init__(self, e: np.ndarray) -> None:
        npts, m = e.shape
        # column-major, so each prefix Q_k is one contiguous block
        self.qc = np.empty((m, npts), dtype=complex).T
        self.rank = np.zeros(m + 1, dtype=int)
        self.sup = np.empty(m)
        self.norm = np.empty(m)
        k = 0
        for t0 in range(0, m, _BLOCK):
            block = np.array(e[:, t0 : t0 + _BLOCK], order="F")
            scale = np.linalg.norm(block, axis=0)
            qc = self.qc[:, :k]
            block -= (qc @ (qc.T @ block).conj()).conj()  # W - Q Q^H W
            outer = np.linalg.norm(block, axis=0)
            if (outer < _SECOND_PASS * scale).any():
                block -= (qc @ (qc.T @ block).conj()).conj()
                outer = np.linalg.norm(block, axis=0)
            # the block's kept columns Q overwrite its finished columns
            k0 = k
            for j in range(block.shape[1]):
                w, q, qc = block[:, j], block[:, : k - k0], self.qc[:, k0:k]
                for _ in range(2):
                    w -= q @ (w @ qc)  # w - Q Q^H w
                if np.linalg.norm(w) < _REORTH * outer[j]:
                    qc = self.qc[:, :k]
                    for _ in range(2):
                        w -= (qc @ (w @ qc).conj()).conj()
                t = t0 + j
                self.sup[t] = float(np.abs(w).max())
                self.norm[t] = norm = float(np.linalg.norm(w))
                if norm > _DEPENDENT * scale[j]:
                    q = block[:, k - k0]
                    np.divide(w, norm, out=q)
                    np.conjugate(q, out=self.qc[:, k])
                    k += 1
                self.rank[t + 1] = k


def greedy_select(basis: Basis, rank: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Greedy Fekete selection on the columns of e, by LU with row pivoting
    on its basis qc = conj(Q).  Elimination commutes with the triangular
    change of basis, so the picks are those of e, and step t's determinant
    ratio is its basis column's pivot times norm[t].  Each step takes the
    largest available |value|; candidates within the relative _TIE of it
    tie, and ties go to the least rank (the sample's SampledSet.rank), so
    the picks do not depend on the order of the points.  A dependent step
    takes no point and has log ratio -inf.  Q is orthonormal, so an
    eliminated column keeps all of its own q and no pivot falls below
    1 / sqrt(N).  Returns the selected points and every step's log ratio."""
    npts, m = len(basis.qc), len(basis.norm)
    if npts < m:
        raise EstimateError(f"set has {npts} points, fewer than its {m} monomials")
    k = basis.rank[-1]
    qc = basis.qc[:, :k]
    # _BLOCK columns at a time: one solve and one product against the steps
    # before the block, then one rank-one update of the block's later columns
    # per pivot; low is column-major, so each of its prefixes is one block
    low = np.zeros((k, npts), dtype=complex).T
    selected: list[int] = []
    logs = np.empty(k)
    for k0 in range(0, k, _BLOCK):
        block = np.array(qc[:, k0 : k0 + _BLOCK], order="F")
        block -= low[:, :k0] @ np.linalg.solve(low[selected, :k0], block[selected])
        for j, col in enumerate(block.T):
            col[selected] = 0.0
            size = np.abs(col)
            tied = np.flatnonzero(size >= (1.0 - _TIE) * size.max())
            idx = int(tied[np.argmin(rank[tied])])
            selected.append(idx)
            logs[k0 + j] = math.log(size[idx])
            mult = np.divide(col, col[idx], out=low[:, k0 + j])
            block[:, j + 1 :] -= np.outer(mult, block[idx, j + 1 :])
    kept = basis.rank[1:] > basis.rank[:-1]
    step_logs = np.full(m, -math.inf)
    step_logs[kept] = logs + np.log(basis.norm[kept])
    return selected, step_logs


def _block_r(gc: np.ndarray, g: np.ndarray, avc: np.ndarray) -> np.ndarray:
    """R with R^T R = G^T W^-2 G for one solve, from the R factors of the
    three row blocks of W^-1 G: row (k, i) is the (re, im) pairs of
    gc_ki avc_i followed by g_ki."""
    npts, k = avc.shape
    gh = np.empty((3, npts, 2 * k + 1))
    gh[:, :, :-1].view(complex)[:] = gc[:, :, None] * avc
    gh[:, :, -1] = g
    # each QR copies its input, so one row block at a time keeps the copies
    # small
    r3 = np.concatenate([np.linalg.qr(block, mode="r") for block in gh])
    return np.linalg.qr(r3, mode="r")


# Per-cone algebra of the cone {(u0, u1, u2): u0 >= |(u1, u2)|}.  A (B, 3, N)
# array holds one vector in each of N cones for each of B solves;
# J = diag(1, -1, -1).

_J = np.array([1.0, -1.0, -1.0])[:, None]
_E = np.array([1.0, 0.0, 0.0])[:, None]
_SHIFT = np.array([0.0, 1.0, 1j])[:, None]


def _jdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^T J v per cone."""
    return u[..., 0, :] * v[..., 0, :] - u[..., 1, :] * v[..., 1, :] - u[..., 2, :] * v[..., 2, :]


def _circ(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Jordan product (u^T v, u0 v1 + v0 u1, u0 v2 + v0 u2) per cone."""
    out = u[:, :1] * v + v[:, :1] * u
    out[:, 0] = (u * v).sum(axis=1)
    return out


def _step_to_boundary(
    lam: np.ndarray, det: np.ndarray, ds: np.ndarray, dz: np.ndarray
) -> np.ndarray:
    """Per solve, the largest alpha with lam + alpha ds and lam + alpha dz in
    every cone (inf if none binds).

    det is lam^T J lam.  (lam + alpha d)^T J (lam + alpha d) / det factors as
    (1 - k1 alpha)(1 - k2 alpha) with real k; the step ends at 1 / max k.
    """
    d = np.stack([ds, dz])
    bb = _jdot(lam, d)
    k = (np.sqrt(np.maximum(bb * bb - _jdot(d, d) * det, 0.0)) - bb) / det
    top = k.max(axis=2).max(axis=0)
    alpha = np.full(len(top), math.inf)
    np.divide(1.0, top, out=alpha, where=top > 0)
    return alpha


def _interior_point(
    basis: Basis, steps: np.ndarray, upper: np.ndarray, lower: np.ndarray, iterations: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primal-dual interior-point solves of a window of steps in lockstep,
    each started from its least-squares fit d = 0 on its orthonormal basis
    columns Q_k, with the window's slices of the brackets and iteration
    counts; returns them updated.

    Primal: x = (Re d_1, Im d_1, ..., Re d_k, Im d_k, s), minimize s with
    the cone slacks (s, Re r_i, Im r_i), r = b + Q_k d; so
    G x = -(s, Re (Q_k d)_i, Im (Q_k d)_i) per cone.  Dual: z_i = (z0_i,
    Re y_i, Im y_i) in the cones with sum z0 = 1 and Q_k^H y = 0; its
    objective -Re(b^H y) is at most the minimax.  b is orthogonal to Q_k, so
    s = 2 max |b| and z_i = (s, -b_i) / (N s) start both strictly feasible.
    Each solve keeps the best of its upper and lower bounds.

    All solves share the points, so each round runs the per-cone algebra
    once on (B, 3, N) stacks over the B solves still running, and their
    Newton systems form one (B, 2K + 1, 2K + 1) stack, K the largest prefix
    rank among them: a solve's system keeps its d block in its leading 2k
    rows and columns and its s row and column last, with the identity
    between.  Only the d blocks are formed one solve at a time.  One stacked
    Cholesky checks that every system is numerically positive definite, and
    two stacked solves give the predictor and corrector steps.  When that
    Cholesky raises, the round factors each system on its own, and a solve
    whose own Cholesky raises takes its R factor from _block_r for that
    round.  The start residuals b = w_t, the iterates d (zero beyond each
    solve's k) and the brackets are arrays over the window, so the
    residuals and the dual projections are one product each per round
    against conj(Q_K).  A solve leaves the stack when it certifies, when
    rounding puts its iterate on a cone boundary, or when its step vanishes.
    """
    qc = basis.qc
    npts = len(qc)
    rank = basis.rank[steps]
    b = qc[:, rank].T.conj() * basis.norm[steps][:, None]  # the start residuals w_t
    d = np.zeros((len(steps), rank.max()), dtype=complex)
    live = np.arange(len(steps))
    r = b
    s = 2.0 * upper
    z = np.empty((len(live), 3, npts))
    z[:, 0] = 1.0 / npts
    z[:, 1] = -r.real / (npts * s[:, None])
    z[:, 2] = -r.imag / (npts * s[:, None])
    while live.size and iterations[live[0]] < MINIMAX_MAX_ITER:
        sl = np.empty_like(z)
        sl[:, 0] = s[:, None]
        sl[:, 1] = r.real
        sl[:, 2] = r.imag
        sdet = _jdot(sl, sl)
        zdet = _jdot(z, z)
        # a certified solve stops, and so does one whose iterate rounding put
        # on a cone boundary
        keep = (sdet.min(axis=1) > 0) & (zdet.min(axis=1) > 0)
        keep &= upper[live] - lower[live] > MINIMAX_TOL * upper[live]
        if not keep.all():
            live = live[keep]
            sl, sdet, zdet, z, s = sl[keep], sdet[keep], zdet[keep], z[keep], s[keep]
            if not live.size:
                break
        k = rank[live]
        kmax = k.max()
        avc = qc[:, :kmax]  # conj(Q_K), a view of the basis
        mask = np.arange(kmax) < k[:, None]  # the columns of each Q_k
        # Nesterov-Todd scaling W = beta (2 v v^T - J): W z = W^-1 sl = lam
        sn = np.sqrt(sdet)
        zn = np.sqrt(zdet)
        sb = sl / sn[:, None]
        zb = z / zn[:, None]
        gam = np.sqrt(0.5 * (1.0 + (sb * zb).sum(axis=1)))
        v = (sb + _J * zb) / (2.0 * gam[:, None])
        v[:, 0] += 1.0
        v /= np.sqrt(2.0 * v[:, :1])
        ibeta = np.sqrt(zn / sn)
        det = sn * zn
        lam = np.empty_like(sb)
        lam[:, 0] = gam
        lam[:, 1:] = (
            (gam + zb[:, 0])[:, None] * sb[:, 1:] + (gam + sb[:, 0])[:, None] * zb[:, 1:]
        ) / (sb[:, 0] + zb[:, 0] + 2.0 * gam)[:, None]
        lam *= np.sqrt(det)[:, None]
        # W^-1 = ibeta J (2 v v^T J - I) applied to G: cone row k of point i
        # takes x to Re(gamma_ki (Q_k d)_i) + g_ki s, and gc = conj(gamma)
        ib = ibeta[:, None] * _J
        gc = ib * (2.0 * (v[:, 1] + 1j * v[:, 2])[:, None] * v + _SHIFT)
        g = ib * (_E - 2.0 * v[:, :1] * v)
        # the Newton system G^T W^-2 G.  Row (k, i) of W^-1 G is the (re, im)
        # pairs of gc_ki avc_i followed by g_ki, so the d block sums, per
        # point, the 2 x 2 weight M_i = sum_k (Re gc_ki, Im gc_ki)^T
        # (Re gc_ki, Im gc_ki) on the pairs of avc_i and i avc_i.  omega holds
        # the rows (S11 + i S12, S12 + i S22) of its square root
        # S = (M + sqrt(det M) I) / sqrt(trace M + 2 sqrt(det M)), so the
        # (re, im) pairs of the two complex N x k products omega_k avc form a
        # 2N x 2k matrix Y with Y^T Y that d block; M is positive definite
        # because W^-1 is nonsingular.  The s column is sg avc with
        # sg = sum_k g_k gc_k, and gss = sum g^2.
        m11 = (gc.real * gc.real).sum(axis=1)
        m12 = (gc.real * gc.imag).sum(axis=1)
        m22 = (gc.imag * gc.imag).sum(axis=1)
        root = np.sqrt(np.maximum(m11 * m22 - m12 * m12, 0.0))
        tau = np.sqrt(m11 + m22 + 2.0 * root)
        s11, s12, s22 = (m11 + root) / tau, m12 / tau, (m22 + root) / tau
        omega = np.stack([s11 + 1j * s12, s12 + 1j * s22], axis=1)
        sg = (g * gc).sum(axis=1)
        gss = (g * g).sum(axis=1).sum(axis=1)
        size = 2 * kmax + 1
        gram = np.zeros((live.size, size, size))
        pad = np.arange(2 * kmax)
        gram[:, pad, pad] = ~mask.repeat(2, axis=1)
        for j, (kj, w) in enumerate(zip(k, omega)):
            yk = np.multiply(w[:, :, None], avc[:, :kj], order="C").view(float)
            yk = yk.reshape(2 * npts, 2 * kj)
            gram[j, : 2 * kj, : 2 * kj] = yk.T @ yk
        gram[:, :-1, -1] = gram[:, -1, :-1] = ((sg @ avc) * mask).view(float)
        gram[:, -1, -1] = gss
        rfac = {}
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            for j, kj in enumerate(k):
                try:
                    np.linalg.cholesky(gram[j])
                except np.linalg.LinAlgError:
                    rfac[j] = _block_r(gc[j], g[j], avc[:, :kj])
                    gram[j] = np.eye(size)
        # the dual residual G^T z + e_s is (-y avc, 1 - sum z0)
        y = z[:, 1] + 1j * z[:, 2]
        rxs = 1.0 - z[:, 0].sum(axis=1)

        def newton(rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
            """Steps (d, s, W^-1 ds, W dz) of every live solve for the
            linearized complementarity lam o (W^-1 ds + W dz) = lam o rhs:
            dx = -(G^T W^-2 G)^-1 h for h = G^T W^-1 rhs, which is
            ((sum_k gc_k rhs_k) avc, sum g rhs) less the dual residual, and
            W dz = W^-1 G dx + rhs is Re(gc (avc conj(dd))) + g ds + rhs."""
            h = np.empty((live.size, size))
            h[:, :-1] = (((gc * rhs).sum(axis=1) - y) @ avc * mask).view(float)
            h[:, -1] = rxs + (g * rhs).sum(axis=1).sum(axis=1)
            dx = np.linalg.solve(gram, -h[:, :, None])[:, :, 0]
            for j, rj in rfac.items():
                hj = np.append(h[j, : 2 * k[j]], h[j, -1])
                xj = np.linalg.solve(rj, np.linalg.solve(rj.T, hj))
                dx[j, : 2 * k[j]], dx[j, -1] = -xj[:-1], -xj[-1]
            dd = dx[:, :-1].view(complex)
            dsv = dx[:, -1]
            dz = (gc * (dd.conj() @ avc.T)[:, None]).real + g * dsv[:, None, None] + rhs
            return dd, dsv, rhs - dz, dz

        gap = (lam * lam).sum(axis=1).sum(axis=1)
        # predictor: the affine direction, lam o rhs = -lam o lam
        _, _, ds, dz = newton(-lam)
        alpha = np.minimum(1.0, _step_to_boundary(lam, det, ds, dz))[:, None, None]
        shrink = ((lam + alpha * ds) * (lam + alpha * dz)).sum(axis=1).sum(axis=1) / gap
        # corrector: lam o rhs = -lam o lam + centering mu e - ds o dz
        rc = -_circ(ds, dz)
        rc[:, 0] += (np.clip(shrink, 0.0, 1.0) ** 3 * gap / npts)[:, None]
        rhs = np.empty_like(rc)
        rhs[:, 0] = _jdot(lam, rc) / det
        rhs[:, 1:] = (rc[:, 1:] - rhs[:, :1] * lam[:, 1:]) / lam[:, :1]
        dd, dsv, ds, dz = newton(rhs - lam)
        alpha = np.minimum(1.0, 0.99 * _step_to_boundary(lam, det, ds, dz))
        keep = alpha > 0
        if not keep.all():
            live, mask = live[keep], mask[keep]
            dd, alpha, dsv, dz, ibeta, v, z, s = (
                x[keep] for x in (dd, alpha, dsv, dz, ibeta, v, z, s)
            )
            if not live.size:
                break
        s = s + alpha * dsv
        # z + alpha W^-1 dz
        z = z + (alpha[:, None] * ibeta)[:, None] * _J * (2.0 * v * _jdot(v, dz)[:, None] - dz)
        # step d, then tighten the bracket: upper from the new residual, lower
        # from the dual y projected onto null(Q_k^H)
        dl = d[live, :kmax] + alpha[:, None] * dd
        d[live, :kmax] = dl
        bl = b[live]
        r = bl + (dl.conj() @ avc.T).conj()
        upper[live] = np.minimum(upper[live], np.abs(r).max(axis=1))
        y = z[:, 1] + 1j * z[:, 2]
        y -= ((y @ avc * mask).conj() @ avc.T).conj()
        norm = np.abs(y).sum(axis=1)
        dual = np.abs((y.conj() * bl).sum(axis=1))
        lower[live] = np.maximum(lower[live], dual / np.where(norm > 0, norm, np.inf))
        iterations[live] += 1
    return upper, lower, iterations


def chebyshev_value(
    points: SampledSet, stream: MonomialBasisStream, target: Monomial
) -> ChebyshevEstimate:
    """Discrete Chebyshev value of a stream monomial over its stream prefix."""
    prefix = stream.prefix_of(target)
    return _minimax(Basis(evaluate_monomials(prefix + [target], points)), [len(prefix)])[0]


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

