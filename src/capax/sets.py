"""Compact sets as point samples: meshes, fibers, and graph lifts.

A SampledSet carries finite points in the w-coordinates and, when it came
from a graph lift, the matching z-coordinates on {w = f(z)}.  Estimators
downstream only ever see these arrays.  A mesh pairs the samples of two
coordinates; _KINDS gives each set kind its sampler of one coordinate.

Fiber solving is numerical and batched over base points.  Normal forms
modulo <f - w> are a free C[w]-module on the staircase (variety.normal_form),
so multiplication by z_i is a d1*d2 square matrix M_i(w) with entries
polynomial in w, and at a regular value w the eigenvectors of M_i(w)^T are
the evaluation vectors (z^beta) at the roots (Stickelberger's theorem).  One
solver core per map reads the table of M1 and M2 off the memoized normal
forms; a map that resultant.is_regular rejects is refused, since some fiber
of it is not finite or loses roots at infinity.

A batch solves most of its fibers by continuation from a few (Sommese and
Wampler, The Numerical Solution of Systems of Polynomials, 2005).  It cuts
its base points into cells of about SEED_SPACING by bisection in w, and
each cell's seed takes the eigenproblem path: its w-powers contract the
table, one eigenproblem of (M1 + c*M2)^T gives d1*d2 eigenvectors, and the
Rayleigh quotients of M1^T and M2^T on each read its root's z1 and z2.
Every other point of a cell starts Newton from its seed's roots.  Each
fiber is then certified on its own: a backward error per root, root
dedupe, and the near-discriminant flag; and a continued fiber that comes
back flagged or short takes the eigenproblem path after all, so every
fiber meets the same rule.  A batch too small for two cells, such as one
fiber, takes the eigenproblem path throughout.  A candidate leaves Newton
after a step below 1e-15 relative, on a Jacobian determinant below 1e-14
of its terms, or at a step no smaller than its previous one, which it
does not take; so a root at its rounding floor keeps its better iterate.
fiber, graph_lift and fiber_average_poly all go through the core.  M1(w)
and M2(w), and f with its Jacobian at the candidates, are each one
contraction of a per-map coefficient table with the values of its
monomials (monomial_values).  A point's roots are the same whatever batch
it is solved in, to rounding, but their bits and their order within the
fiber follow the seed that started them.  A fiber average is exact, the
trace of multiplication by p over d1*d2 (variety.fiber_average), and the
fibers of one seeded grid only cross-check it: nothing is fitted or drawn
again.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import FiberError, MeshError
from .polynomials import Polynomial, monomial_values, w_monomial, z_monomial
from .resultant import is_regular
from .variety import GraphMap, fiber_average, multiplication_table

DUPLICATE_TOL = 1e-12
FIBER_RESIDUAL_TOL = 1e-9
NEAR_DISCRIMINANT_TOL = 1e-6
ROOT_DEDUPE_TOL = 1e-8
SEED_SPACING = 16  # base points per seed fiber, whose eigenproblem starts the others' Newton
# c in the pencil M1 + c*M2: irrational, so that roots exchanged by a
# rational linear symmetry of the map, such as z1 <-> z2, keep apart
_PENCIL = math.sqrt(2) - 1


def _count(n: int) -> int:
    if n < 4:
        raise MeshError("meshes need at least 4 points per coordinate")
    return n


def _circle(r: float, n: int) -> np.ndarray:
    return r * np.exp(2j * np.pi * np.arange(_count(n)) / n)


def _disc(r: float, n: int) -> np.ndarray:
    # sunflower layout, outermost point on the boundary circle
    k = np.arange(_count(n))
    rho = r * np.sqrt((k + 1) / n)
    golden = math.pi * (3 - math.sqrt(5))
    return rho * np.exp(1j * golden * k)


def _segment(lo: float, hi: float, n: int) -> np.ndarray:
    if lo == hi:
        if n != 1:
            raise MeshError("a collapsed interval takes exactly 1 point")
        return np.array([lo])
    return np.linspace(lo, hi, _count(n))


# set kind -> (sampler of one coordinate, spec numbers the sampler reads)
_KINDS = {"torus": (_circle, 1), "polydisc": (_disc, 1), "box": (_segment, 2)}


@dataclass(frozen=True)
class SetSpec:
    kind: str
    params: tuple

    def __post_init__(self) -> None:
        if self.kind != "points" and self.kind not in _KINDS:
            raise MeshError(f"unknown set kind {self.kind!r}")

    @staticmethod
    def parse(text: str) -> "SetSpec":
        """Forms: torus:r1,r2  polydisc:r1,r2  box:a,b,c,d  points:path.csv"""
        kind, sep, rest = text.partition(":")
        if not sep:
            raise MeshError(f"set spec {text!r} has no parameters")
        kind = kind.strip().lower()
        if kind == "points":
            return SetSpec(kind, (rest.strip(),))
        if kind not in _KINDS:
            raise MeshError(f"unknown set kind {kind!r}")
        parts = rest.split(",")
        if len(parts) != 2 * _KINDS[kind][1]:
            raise MeshError(f"{kind} spec wants {2 * _KINDS[kind][1]} numbers")
        params = tuple(float(p) for p in parts)
        if not all(map(math.isfinite, params)):
            raise MeshError(f"{kind} spec numbers must be finite")
        if kind == "box" and (params[1] < params[0] or params[3] < params[2]):
            raise MeshError("box intervals must be ordered")
        if kind != "box" and min(params) <= 0:
            raise MeshError("radii must be positive")
        return SetSpec(kind, params)


@dataclass
class SampledSet:
    w: np.ndarray
    z: Optional[np.ndarray] = None
    provenance: str = "mesh"
    map: Optional[GraphMap] = None
    meta: dict = field(default_factory=dict)
    # each point's place in the descending lexicographic order of its
    # rounded coordinates: a function of the point set, whatever order it
    # comes in; rank 0 on a torus mesh is its first point, (r1, r2)
    rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=complex)
        if self.w.ndim != 2 or self.w.shape[1] != 2:
            raise MeshError("w points must form an (N, 2) array")
        if len(self.w) == 0:
            raise MeshError("empty point set")
        if self.z is not None:
            self.z = np.asarray(self.z, dtype=complex)
            if self.z.shape != self.w.shape:
                raise MeshError("z points must align with w points")
        if not (np.isfinite(self.w).all() and (self.z is None or np.isfinite(self.z).all())):
            raise MeshError("sample coordinates must be finite")
        coords = self.z if self.z is not None else self.w
        scale = max(1.0, float(np.abs(coords).max()))
        rounded = np.round(coords / (DUPLICATE_TOL * scale)) + 0.0  # + 0.0 folds -0.0 into 0.0
        keys = np.column_stack([rounded.real, rounded.imag])
        order = np.lexsort(keys.T[::-1])  # by Re of the first coordinate first
        ordered = keys[order]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise MeshError("duplicate points in the sample (closer than 1e-12)")
        self.rank = np.empty(len(coords), dtype=int)
        self.rank[order] = np.arange(len(coords))[::-1]

    def __len__(self) -> int:
        return len(self.w)


def build_mesh(spec: SetSpec | str, counts) -> SampledSet:
    """Deterministic sample of a set spec; counts = points per coordinate.

    Non-degenerate coordinates need at least 4 points; a collapsed box
    interval [c, c] takes exactly one.  A points: set is read as it is, and
    counts is not read (it may be None).
    """
    if isinstance(spec, str):
        spec = SetSpec.parse(spec)
    if spec.kind == "points":
        path = spec.params[0]
        rows = []
        with open(path, newline="") as fh:
            for rec in csv.reader(fh):
                if not rec or rec[0].lstrip().startswith("#"):
                    continue
                vals = [float(x) for x in rec]
                if len(vals) != 4:
                    raise MeshError("points file rows are re1,im1,re2,im2")
                rows.append([complex(vals[0], vals[1]), complex(vals[2], vals[3])])
        if not rows:
            raise MeshError(f"no points in {path}")
        return SampledSet(w=np.array(rows), provenance="points")

    sampler, per = _KINDS[spec.kind]
    counts = (counts, counts) if isinstance(counts, int) else tuple(int(x) for x in counts)
    if len(counts) != 2:
        raise MeshError("mesh counts: one integer or a pair")
    first, second = (sampler(*spec.params[i * per : (i + 1) * per], n) for i, n in enumerate(counts))
    # all pairs, the second coordinate fastest
    w = np.column_stack([np.repeat(first, len(second)), np.tile(second, len(first))])
    return SampledSet(w=w.astype(complex), provenance="mesh")


# ---------------------------------------------------------------------------
# fibers


@dataclass
class FiberResult:
    z: np.ndarray
    residuals: np.ndarray
    near_discriminant: bool
    defect: int


def _greedy_distinct(values: np.ndarray, valid: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Keep, per row, each valid entry that is not within tol of an earlier kept one.

    values has shape (rows, k, coords); the distance is the sum of coordinate
    gaps and the tolerance scales with 1 + the earlier entry's magnitudes.
    Returns the kept mask and, per row, the least distance between two kept
    entries (inf when fewer than two are kept).
    """
    tols = tol * (1 + np.abs(values).sum(axis=-1))
    keep = np.zeros_like(valid)
    sep = np.full(len(values), np.inf)
    for k in range(values.shape[1]):
        gap = np.abs(values[:, k, None, :] - values[:, :k, :]).sum(axis=-1)
        keep[:, k] = valid[:, k] & ~((gap <= tols[:, :k]) & keep[:, :k]).any(axis=1)
        pairs = keep[:, k, None] & keep[:, :k]
        sep = np.minimum(sep, np.where(pairs, gap, np.inf).min(axis=1, initial=np.inf))
    return keep, sep


@dataclass
class _FiberBatch:
    z: np.ndarray             # (roots, 2): certified roots, fibers in base-point order
    residuals: np.ndarray     # (roots,)
    counts: np.ndarray        # (points,) roots kept per fiber
    near: np.ndarray          # (points,) near-discriminant flags
    errors: dict[int, str]    # point index -> why its fiber failed
    eig_fibers: int           # fibers that took an eigenproblem


def _seed_cells(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seed points of a batch, and each point's cell, by bisection of the
    (points, 4) real view of w.

    A cell of at least 2 * SEED_SPACING points splits at the median of its
    widest real coordinate, all cells of a round at once, so each final
    cell holds SEED_SPACING to 2 * SEED_SPACING - 1 points.  A cell's seed
    is its point nearest the cell's mean.  Returns the seeds' indices, one
    per cell, and each point's cell.
    """
    x = np.column_stack([w.real, w.imag])
    order = np.arange(len(x))  # the points, cell after cell
    starts = np.zeros(1, dtype=int)
    while True:
        sizes = np.diff(starts, append=len(x))
        cell = np.repeat(np.arange(len(starts)), sizes)
        split = sizes >= 2 * SEED_SPACING
        if not split.any():
            break
        xo = x[order]
        widest = (np.maximum.reduceat(xo, starts) - np.minimum.reduceat(xo, starts)).argmax(axis=1)
        order = order[np.lexsort((xo[np.arange(len(x)), widest[cell]], cell))]
        starts = np.sort(np.concatenate([starts, starts[split] + sizes[split] // 2]))
    xo = x[order]
    mean = np.add.reduceat(xo, starts) / sizes[:, None]
    nearest = np.lexsort((((xo - mean[cell]) ** 2).sum(axis=1), cell))[starts]
    owner = np.empty(len(x), dtype=int)
    owner[order] = cell
    return order[nearest], owner


def _contract(monomials: Sequence, values: Sequence, table: np.ndarray) -> np.ndarray:
    """(points, *table.shape[1:]): sum_j monomial_j(values) * table[j] at
    the points of values = (w1, w2, z1, z2), one outer product per monomial:
    elementwise, so a point's bits do not depend on its batch.  The sum is
    held with the points last, so that each product runs along them."""
    points = len(next(x for x in values if x is not None))
    out = np.zeros((*table.shape[1:], points), dtype=complex)
    for value, entry in zip(monomial_values(monomials, values), table):
        out += value * entry[..., None]
    return np.moveaxis(out, -1, 0)


class _FiberSolver:
    """Batched solver for f(z) = w over many base points w of one map.

    Per map it builds two coefficient tables, each read by to_float.  For
    the map, coeffs[j, k] is the coefficient of the j-th z-monomial of total
    degree <= d1, the constant first, in f1, f2, df1/dz1, df1/dz2, df2/dz1
    and df2/dz2.  For the multiplication matrices, table[k, i, g, b] is the
    coefficient of the k-th w-monomial w^alpha times z^gamma in
    NF(z_i * z^beta), for the g-th and b-th staircase members gamma and
    beta.  Both are contracted with monomial_values at a batch of points.
    """

    def __init__(self, f: GraphMap) -> None:
        if not is_regular(f):
            raise FiberError(
                "the map is not regular: its top forms share a projective root, "
                "so some fiber is not finite or loses roots at infinity"
            )
        g = f.to_float()
        self.expected = n = g.d1 * g.d2
        betas = [(b1, s - b1) for s in range(g.d1 + 1) for b1 in range(s + 1)]
        at = {beta: j for j, beta in enumerate(betas)}
        coeffs = np.zeros((len(betas), 6), dtype=complex)
        for k, p in enumerate((g.f1, g.f2)):
            for m, c in p.terms.items():
                coeffs[at[m.beta], k] = c
                if m.b1:
                    coeffs[at[(m.b1 - 1, m.b2)], 2 + 2 * k] = m.b1 * c
                if m.b2:
                    coeffs[at[(m.b1, m.b2 - 1)], 3 + 2 * k] = m.b2 * c
        self.z_monomials = [z_monomial(beta) for beta in betas]
        self.coeffs = coeffs
        self.sizes = np.abs(coeffs[:, :2])
        stairs, forms = multiplication_table(f)
        index = {s.beta: k for k, s in enumerate(stairs)}
        table: dict = {}
        for i, row in enumerate(forms):
            for b, nf in enumerate(row):
                for m, c in nf.to_float().terms.items():
                    table.setdefault(m.alpha, np.zeros((2, n, n), dtype=complex))[i, index[m.beta], b] = c
        self.monomials = [w_monomial(alpha) for alpha in sorted(table)]
        self.table = np.array([table[m.alpha] for m in self.monomials])

    @staticmethod
    def of(f: GraphMap) -> "_FiberSolver":
        """The map's one solver, built on first use."""
        return f.memo("fiber_solver", lambda: _FiberSolver(f))

    def _matrices(self, w: np.ndarray) -> np.ndarray:
        """(points, 2, n, n): M1(w) and M2(w) at the rows of w."""
        return _contract(self.monomials, (w[:, 0], w[:, 1], None, None), self.table)

    def _candidates(self, w: np.ndarray) -> np.ndarray:
        """(points, 2, n): z1 and z2 at each eigenvector of (M1 + c*M2)^T, as
        the Rayleigh quotients of M1^T and M2^T on it."""
        mt = np.swapaxes(self._matrices(w), -1, -2)
        _, vecs = np.linalg.eig(mt[:, 0] + _PENCIL * mt[:, 1])
        quotients = np.einsum("pjl,pijk,pkl->pil", vecs.conj(), mt, vecs)
        return quotients / (np.abs(vecs) ** 2).sum(axis=1)[:, None]

    def _values(self, z1: np.ndarray, z2: np.ndarray, parts: int = 6) -> np.ndarray:
        """(n, parts): the first parts of f1, f2, df1/dz1, df1/dz2, df2/dz1
        and df2/dz2 at the points (z1, z2)."""
        return _contract(self.z_monomials, (None, None, z1, z2), self.coeffs[:, :parts])

    def _newton(self, w: np.ndarray, z1: np.ndarray, z2: np.ndarray) -> None:
        """Polish in place, for at most 50 rounds.

        A root leaves the loop on a near-singular Jacobian (|det| at most
        1e-14 of |j11*j22| + |j12*j21|), after a step below 1e-15 relative,
        or on a step no smaller than its previous one: that step is not
        taken, so a root at its rounding floor keeps its better iterate.
        """
        active = np.arange(len(z1))
        last = np.full(len(z1), np.inf)  # each root's previous step size
        for _ in range(50):
            if not active.size:
                break
            v = self._values(z1[active], z2[active])
            j11, j12, j21, j22 = v[:, 2], v[:, 3], v[:, 4], v[:, 5]
            det = j11 * j22 - j12 * j21
            moving = np.abs(det) > 1e-14 * (np.abs(j11 * j22) + np.abs(j12 * j21))
            active, det = active[moving], det[moving]
            v1 = v[moving, 0] - w[active, 0]
            v2 = v[moving, 1] - w[active, 1]
            j11, j12, j21, j22 = j11[moving], j12[moving], j21[moving], j22[moving]
            dz1 = (v1 * j22 - v2 * j12) / det
            dz2 = (v2 * j11 - v1 * j21) / det
            step = np.abs(dz1) + np.abs(dz2)
            shrinks = step < last[active]
            active, step = active[shrinks], step[shrinks]
            z1[active] -= dz1[shrinks]
            z2[active] -= dz2[shrinks]
            last[active] = step
            small = step < 1e-15 * (1 + np.abs(z1[active]) + np.abs(z2[active]))
            active = active[~small]

    def _polish(self, w: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Newton from starts (points, n, 2) over the rows of w: the roots
        and each root's backward error, the worst over k of
        |f_k(z) - w_k| / (sum over beta of |c_k,beta| |z^beta| + |w_k|)."""
        npts, n = starts.shape[:2]
        z1, z2 = starts[:, :, 0].ravel(), starts[:, :, 1].ravel()
        wq = np.repeat(w, n, axis=0)
        with np.errstate(all="ignore"):
            self._newton(wq, z1, z2)
            gap = np.abs(self._values(z1, z2, parts=2) - wq)
            size = _contract(self.z_monomials, (None, None, np.abs(z1), np.abs(z2)), self.sizes).real
            res = (gap / np.maximum(size + np.abs(wq), np.finfo(float).tiny)).max(axis=1)
        return np.stack([z1, z2], axis=1).reshape(npts, n, 2), res.reshape(npts, n)

    def _by_eig(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """_polish from the eigenvector candidates of each fiber."""
        return self._polish(w, np.swapaxes(self._candidates(w), 1, 2))

    def _certify(self, roots: np.ndarray, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per fiber, residual acceptance, then dedupe in root order: the
        kept roots, and the near-discriminant flags."""
        keep, sep = _greedy_distinct(roots, residuals <= FIBER_RESIDUAL_TOL, ROOT_DEDUPE_TOL)
        return keep, (keep.sum(axis=1) < self.expected) | (sep < NEAR_DISCRIMINANT_TOL)

    def solve(self, w: np.ndarray) -> _FiberBatch:
        """Fibers over the rows of w.

        The seed fibers of _seed_cells take an eigenproblem each.  Every
        other point starts Newton from its seed's roots, when the seed kept
        all of them unflagged, and a fiber that then comes back flagged or
        short, or whose seed did, is solved again by eigenproblem.  In a
        batch of fewer than 2 * SEED_SPACING points every fiber takes an
        eigenproblem.
        """
        npts, n = len(w), self.expected
        if npts < 2 * SEED_SPACING:
            roots, residuals = self._by_eig(w)
            keep, near = self._certify(roots, residuals)
            eig_fibers = npts
        else:
            seeds, owner = _seed_cells(w)
            roots = np.empty((npts, n, 2), dtype=complex)
            residuals = np.empty((npts, n))
            keep = np.empty((npts, n), dtype=bool)
            near = np.empty(npts, dtype=bool)
            roots[seeds], residuals[seeds] = self._by_eig(w[seeds])
            keep[seeds], near[seeds] = self._certify(roots[seeds], residuals[seeds])
            others = np.setdiff1d(np.arange(npts), seeds)
            started = ~near[seeds][owner[others]]
            go = others[started]
            roots[go], residuals[go] = self._polish(w[go], roots[seeds[owner[go]]])
            keep[go], near[go] = self._certify(roots[go], residuals[go])
            redo = np.concatenate([others[~started], go[near[go]]])
            roots[redo], residuals[redo] = self._by_eig(w[redo])
            keep[redo], near[redo] = self._certify(roots[redo], residuals[redo])
            eig_fibers = len(seeds) + len(redo)
        kept = keep.sum(axis=1)
        errors = {
            int(i): f"no certified roots for w = ({complex(w[i, 0])}, {complex(w[i, 1])})"
            for i in np.nonzero(kept == 0)[0]
        }
        return _FiberBatch(roots[keep], residuals[keep], kept, near, errors, eig_fibers)


def fiber(f: GraphMap, w: Sequence[complex]) -> FiberResult:
    """All solutions of f(z) = w, polished and certified.

    A root is accepted at a backward error of at most 1e-9: |f_k(z) - w_k|
    against the sum of |w_k| and the magnitudes of f_k's terms at z.  Closer
    root pairs than 1e-6 or a count below d1*d2 raise the near-discriminant
    flag (not an error).
    """
    point = np.array([[complex(w[0]), complex(w[1])]])
    if not np.isfinite(point).all():
        raise FiberError("fiber base point must be finite")
    solver = _FiberSolver.of(f)
    batch = solver.solve(point)
    if batch.errors:
        raise FiberError(batch.errors[0])
    return FiberResult(
        z=batch.z,
        residuals=batch.residuals,
        near_discriminant=bool(batch.near[0]),
        defect=solver.expected - int(batch.counts[0]),
    )


def graph_lift(f: GraphMap, base: SampledSet) -> SampledSet:
    """f^{-1}(K) as a sampled set with both coordinate charts attached.

    meta records the flagged fibers, the roots missing against d1*d2 per
    fiber, the worst certified residual, and the fibers that took an
    eigenproblem (seeds and fallbacks).
    """
    solver = _FiberSolver.of(f)
    batch = solver.solve(base.w)
    if batch.errors:
        raise FiberError(batch.errors[min(batch.errors)])
    return SampledSet(
        w=np.repeat(base.w, batch.counts, axis=0),
        z=batch.z,
        provenance="graph_lift",
        map=f,
        meta={
            "base_size": len(base),
            "near_discriminant_fibers": int(batch.near.sum()),
            "roots_missing": int((solver.expected - batch.counts).sum()),
            "residual_max": float(batch.residuals.max()),
            "eig_fibers": batch.eig_fibers,
        },
    )


# ---------------------------------------------------------------------------
# fiber averages


def fiber_average_poly(
    p: Polynomial,
    f: GraphMap,
    deg_bound: int,
    seed: int = 0,
) -> tuple[Polynomial, float]:
    """The exact average of p over the fiber f^-1(w) (variety.fiber_average),
    a polynomial in w at p's precision, and its cross-check residual.

    ValueError when the average's degree exceeds deg_bound.  The check draws
    (deg_bound + 1)(deg_bound + 2) seeded base points in the bidisc of radius
    1.5, solves their fibers in one batch, and returns the worst
    |average(w) - mean of p over the fiber| over the fibers that neither
    failed nor were flagged; no point is drawn again, and FiberError says
    that no fiber was left to check.
    """
    if deg_bound < 0:
        raise ValueError("deg_bound must be >= 0")
    solver = _FiberSolver.of(f)
    avg = fiber_average(p, f)
    if avg.degree() > deg_bound:
        raise ValueError(f"the fiber average has degree {avg.degree()}, above deg_bound = {deg_bound}")
    # per point two radii, then two angles, in the order of one stream
    u = np.random.default_rng(seed).random(((deg_bound + 1) * (deg_bound + 2), 4))
    rho, ang = 1.5 * np.sqrt(u[:, :2]), 2 * np.pi * u[:, 2:]
    w = rho * np.cos(ang) + 1j * rho * np.sin(ang)
    batch = solver.solve(w)
    owner = np.repeat(np.arange(len(w)), batch.counts)
    vals = p.to_float().evaluate((w[owner, 0], w[owner, 1]), (batch.z[:, 0], batch.z[:, 1]))
    sums = np.zeros(len(w), dtype=complex)
    np.add.at(sums, owner, vals)
    clean = ~batch.near
    clean[list(batch.errors)] = False
    if not clean.any():
        raise FiberError("no fiber of the seeded grid is clean enough to check the average")
    want = avg.to_float().evaluate((w[clean, 0], w[clean, 1]), (None, None))
    residual = float(np.abs(want - sums[clean] / batch.counts[clean]).max())
    return avg, residual
