"""Compact sets as point samples: meshes, fibers, and graph lifts.

A SampledSet carries finite points in the w-coordinates and, when it came
from a graph lift, the matching z-coordinates on {w = f(z)}.  Estimators
downstream only ever see these arrays.  A mesh pairs the samples of two
coordinates; _KINDS gives each set kind its sampler of one coordinate.

Fiber solving is numerical and batched over base points.  One solver core
per map eliminates z1 once: each Sylvester row of f1 - w1 and f2 - w2 is
affine in one w_k, so the eliminant's coefficients on w1^i w2^j z2^k form
one table (resultant.sylvester_stack), sampled with w1, w2 and z2 on roots
of unity and read by one FFT, or, for a map with a z2-only component, that
component's row with -1 on w_k.  Every base point then takes one path: its
w-powers contract the table, the trimmed eliminant's z2 roots and the z1
roots of the component that keeps more z1-degree there come from stacked
companion matrices, Newton runs on every candidate at once, and each fiber
is certified on its own: residuals, root dedupe, and the near-discriminant
flag.  The z2 samples number the least power of two, and at least 16, that
is at least twice the eliminant's degree bound n2*d1 + n1*d2 - n1*n2
(z1-degrees n_k, degrees d_k).  A candidate
leaves Newton after a step below 1e-15 relative, on a Jacobian determinant
below 1e-14, or at a step no smaller than its previous one, which it does
not take; so a root at its rounding floor keeps its better iterate, and a
spurious candidate stops where the residual test rejects it.  fiber,
graph_lift and fiber_average_poly all go through the core, in one pass over
all their base points.  Only the Horner evaluation stack grows with
candidates times work, so it alone is built in slices of at most
_FIBER_BYTES; every step is elementwise or per matrix, so the slicing
never changes a bit of the result.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import FiberError, MeshError
from .polynomials import Polynomial, monomial_matrix
from .resultant import sylvester_stack
from .variety import GraphMap, basis_stream

DUPLICATE_TOL = 1e-12
FIBER_RESIDUAL_TOL = 1e-9
NEAR_DISCRIMINANT_TOL = 1e-6
ROOT_DEDUPE_TOL = 1e-8
_FIBER_BYTES = 1 << 20  # one slice of the Horner stack


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
        # one opaque key per point: its bytes are equal exactly when its
        # finite coordinates are, so a 1-D unique serves for a row unique
        keys = np.ascontiguousarray(rounded).view(np.dtype((np.void, 2 * rounded.itemsize)))[:, 0]
        if len(np.unique(keys)) != len(coords):
            raise MeshError("duplicate points in the sample (closer than 1e-12)")

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


def _poly_coeff_grid(p: Polynomial) -> np.ndarray:
    """Coefficients of a z-polynomial as a (deg_z1 + 1, deg_z2 + 1) array."""
    n1 = max((m.b1 for m in p.terms), default=0)
    n2 = max((m.b2 for m in p.terms), default=0)
    grid = np.zeros((n1 + 1, n2 + 1), dtype=complex)
    for m, c in p.terms.items():
        grid[m.b1, m.b2] = c
    return grid


def _horner(coeffs: np.ndarray, x) -> np.ndarray:
    """sum_k coeffs[..., k] * x**k, with x broadcasting against coeffs[..., 0].

    The sum is built in place, so an evaluation holds one array of the
    broadcast shape and not three.
    """
    acc = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], np.shape(x)), dtype=complex)
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        acc *= x
        acc += coeffs[..., k]
    return acc


def _trimmed_lengths(coeffs: np.ndarray, rel: float) -> np.ndarray:
    """Per row, the length left after dropping trailing coefficients at or
    below rel times the row's largest magnitude; at least 1."""
    mags = np.abs(coeffs)
    big = mags > rel * mags.max(axis=1, keepdims=True)
    last = coeffs.shape[1] - np.argmax(big[:, ::-1], axis=1)
    return np.where(big.any(axis=1), last, 1)


def _stacked_roots(coeffs: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.roots of each row's first lengths[i] coefficients (lowest first).

    Rows whose trimmed polynomial has the same effective degree share one
    stack of companion matrices, built as np.roots builds them; exact zeros at
    the low end come back as zero roots after the eigenvalues.  Returns
    (roots, valid), both of shape (rows, max(lengths) - 1).
    """
    width = int(lengths.max(initial=1)) - 1
    roots = np.zeros((len(coeffs), width), dtype=complex)
    valid = np.arange(width) < (lengths - 1)[:, None]
    low_zeros = np.argmax(coeffs != 0, axis=1)
    size = lengths - 1 - low_zeros
    for m in np.unique(size[size > 0]):
        idx = np.nonzero(size == m)[0]
        p = coeffs[idx[:, None], low_zeros[idx, None] + np.arange(m + 1)][:, ::-1]
        comp = np.zeros((len(idx), m, m), dtype=complex)
        comp[:, 0, :] = -p[:, 1:] / p[:, :1]
        comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        roots[idx, :m] = np.linalg.eigvals(comp)
    return roots, valid


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


def _z1_coefficients(grid: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Coefficients in z1 of a z-grid after fixing z2, one row per value of z2.

    Each row is its own matrix-vector product grid @ z2**arange, so it rounds
    the same in any batch, a batch of one included.  That matters: the
    eigenvalue order of a nearly real polynomial's companion matrix can flip
    under a last-bit change, and the order of the roots is the order of the
    lifted points.
    """
    powers = z2[..., None] ** np.arange(grid.shape[-1])
    return np.matmul(grid, powers[..., None])[..., 0]


class _FiberSolver:
    """Batched solver for f(z) = w over many base points w of one map.

    Per map it builds the z-coefficient grids of f1, f2 and of the Jacobian
    and the eliminant table elim[i, j, k], the coefficient of the eliminant
    on w1^i w2^j z2^k; a base point only picks its w-powers.
    """

    def __init__(self, f: GraphMap) -> None:
        g = f.to_float()
        self.g1, self.g2 = _poly_coeff_grid(g.f1), _poly_coeff_grid(g.f2)
        # z1-degrees of the two components
        self.n1, self.n2 = n1, n2 = self.g1.shape[0] - 1, self.g2.shape[0] - 1
        if n1 == 0 and n2 == 0:
            raise FiberError("neither component depends on z1; fiber is not finite")
        self.power = g.d1
        self.expected = g.d1 * g.d2
        self.constants = np.array([self.g1[0, 0], self.g2[0, 0]])
        self.scale_floor = max(
            1.0, *(float(np.abs(grid).ravel()[1:].max(initial=0.0)) for grid in (self.g1, self.g2))
        )
        # f1, f2, d1/dz1, d1/dz2, d2/dz1, d2/dz2 on one padded grid
        stack = np.zeros((6, max(n1, n2) + 1, max(self.g1.shape[1], self.g2.shape[1])), dtype=complex)
        for k, grid in enumerate((self.g1, self.g2)):
            r, c = grid.shape
            stack[k, :r, :c] = grid
            stack[2 + 2 * k, : r - 1, :c] = grid[1:] * np.arange(1, r)[:, None]
            stack[3 + 2 * k, :r, : c - 1] = grid[:, 1:] * np.arange(1, c)
        self.stack = stack
        if n1 == 0 or n2 == 0:
            # one equation is z2-only: f_k - w_k is the eliminant
            k = 0 if n1 == 0 else 1
            row = (self.g1, self.g2)[k][0]
            self.elim = np.zeros((2 - k, 1 + k, len(row)), dtype=complex)
            self.elim[0, 0] = row
            self.elim[1 - k, k, 0] = -1.0
            return
        # the det's degree in z2: the z1^j coefficient of f_k has degree at
        # most d_k - j, so a term of the det has degree at most
        # n2*(d1 - n1) + n1*(d2 - n2) plus its column indices less its row
        # indices, n1*n2; that is n2*d1 + n1*d2 - n1*n2 <= d1*d2.  In w1 it
        # has degree n2, in w2 degree n1: w_k sits once in each row of f_k.
        degree_cap = n2 * g.d1 + n1 * g.d2 - n1 * n2
        m = 1 << max(4, math.ceil(math.log2(2 * degree_cap)))
        u1, u2, z2 = (np.exp(2j * np.pi * np.arange(n) / n) for n in (n2 + 1, n1 + 1, m))
        a, b = (_z1_coefficients(grid, z2) for grid in (self.g1, self.g2))
        a = np.broadcast_to(a, (n2 + 1, n1 + 1, m, n1 + 1)).copy()
        a[..., 0] -= u1[:, None, None]
        b = np.broadcast_to(b, (n2 + 1, n1 + 1, m, n2 + 1)).copy()
        b[..., 0] -= u2[:, None]
        dets = np.linalg.det(sylvester_stack(a, b))
        # every sample runs counterclockwise, so the forward transform reads
        # off the coefficients; ifftn would hand them back reversed
        self.elim = np.fft.fftn(dets)[..., : degree_cap + 1] / dets.size

    @staticmethod
    def of(f: GraphMap) -> "_FiberSolver":
        """The map's one solver, built on first use."""
        return f.memo("fiber_solver", lambda: _FiberSolver(f))

    def _z2_candidates(self, w: np.ndarray, errors: dict[int, str]) -> tuple[np.ndarray, np.ndarray]:
        """Distinct eliminant roots as (point index, z2) pairs, point-major."""
        # Horner in w2, then in w1: elementwise, so a point's bits do not
        # depend on its batch
        elim = _horner(_horner(self.elim.transpose(2, 0, 1), w[:, 1, None, None]), w[:, 0, None])
        lengths = _trimmed_lengths(elim, 1e-11)
        for i in np.nonzero(lengths == 1)[0]:
            errors[int(i)] = "eliminant reduced to a constant; the fiber is empty or positive-dimensional here"
        roots, valid = _stacked_roots(elim, lengths)
        keep, _ = _greedy_distinct(roots[:, :, None], valid, ROOT_DEDUPE_TOL)
        point, slot = np.nonzero(keep)
        return point, roots[point, slot]

    def _z1_candidates(self, w: np.ndarray, point: np.ndarray, z2: np.ndarray):
        """Back-substitute each z2 into the component that keeps more z1-degree there."""
        a, b = (_z1_coefficients(grid, z2) for grid in (self.g1, self.g2))
        a[:, 0] -= w[point, 0]
        b[:, 0] -= w[point, 1]
        la, lb = _trimmed_lengths(a, 1e-10), _trimmed_lengths(b, 1e-10)
        use_b = lb > la
        coeffs = np.zeros((len(z2), max(self.n1, self.n2) + 1), dtype=complex)
        coeffs[~use_b, : self.n1 + 1] = a[~use_b]
        coeffs[use_b, : self.n2 + 1] = b[use_b]
        z1, valid = _stacked_roots(coeffs, np.where(use_b, lb, la))
        cand, slot = np.nonzero(valid)
        return point[cand], z1[cand, slot], z2[cand]

    def _values(self, z1: np.ndarray, z2: np.ndarray, parts: int = 6) -> np.ndarray:
        """(n, parts): the first parts of f1, f2 and the four partials, in
        stack order, at the points (z1, z2); evaluated in slices of
        candidates whose Horner stack stays under _FIBER_BYTES."""
        stack = self.stack[:parts]
        step = max(1, _FIBER_BYTES // (16 * stack[..., 0].size))
        out = np.empty((len(z1), parts), dtype=complex)
        for s in range(0, len(z1), step):
            out[s : s + step] = _horner(_horner(stack, z2[s : s + step, None, None]), z1[s : s + step, None])
        return out

    def _newton(self, w: np.ndarray, z1: np.ndarray, z2: np.ndarray) -> None:
        """Polish in place, for at most 50 rounds.

        A root leaves the loop on a near-singular Jacobian (|det| < 1e-14),
        after a step below 1e-15 relative, or on a step no smaller than its
        previous one: that step is not taken, so a root at its rounding floor
        keeps its better iterate.
        """
        active = np.arange(len(z1))
        last = np.full(len(z1), np.inf)  # each root's previous step size
        for _ in range(50):
            if not active.size:
                break
            v = self._values(z1[active], z2[active])
            j11, j12, j21, j22 = v[:, 2], v[:, 3], v[:, 4], v[:, 5]
            det = j11 * j22 - j12 * j21
            moving = np.abs(det) >= 1e-14
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

    def solve(self, w: np.ndarray) -> _FiberBatch:
        """Fibers over the rows of w, in one pass over all of them."""
        npts = len(w)
        errors: dict[int, str] = {}
        point, z2 = self._z2_candidates(w, errors)
        point, z1, z2 = self._z1_candidates(w, point, z2)
        wq = w[point]
        with np.errstate(all="ignore"):
            self._newton(wq, z1, z2)
            v = self._values(z1, z2, parts=2) - wq
            coeff_scale = np.maximum(self.scale_floor, np.abs(self.constants - w).max(axis=1))
            local = np.maximum(1.0, np.maximum(np.abs(z1), np.abs(z2))) ** self.power
            res = np.abs(v).max(axis=1) / (coeff_scale[point] * local)

        # certify per fiber: residual acceptance, then dedupe in solve order
        counts = np.bincount(point, minlength=npts)
        slot = np.arange(len(point)) - (np.cumsum(counts) - counts)[point]
        width = int(counts.max(initial=0))
        roots = np.zeros((npts, width, 2), dtype=complex)
        roots[point, slot] = np.stack([z1, z2], axis=1)
        residuals = np.zeros((npts, width))
        residuals[point, slot] = res
        accepted = np.zeros((npts, width), dtype=bool)
        accepted[point, slot] = res <= FIBER_RESIDUAL_TOL
        keep, sep = _greedy_distinct(roots, accepted, ROOT_DEDUPE_TOL)
        kept = keep.sum(axis=1)
        near = (kept < self.expected) | (sep < NEAR_DISCRIMINANT_TOL)
        for i in np.nonzero(kept == 0)[0]:
            errors.setdefault(int(i), f"no certified roots for w = ({complex(w[i, 0])}, {complex(w[i, 1])})")
        return _FiberBatch(roots[keep], residuals[keep], kept, near, errors)


def fiber(f: GraphMap, w: Sequence[complex]) -> FiberResult:
    """All solutions of f(z) = w, polished and certified.

    Residual acceptance is 1e-9 relative to the coefficient scale; closer
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
    fiber, and the worst certified residual.
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
    """Least-squares model of w -> average of p over the fiber f^{-1}(w).

    The average of a polynomial over fibers is again a polynomial in w; fit it
    on an oversampled random grid and report the worst fit residual.  The
    grid is lifted in one batch; points whose fibers fail or sit near the
    discriminant are redrawn together, and no point gets more than five draws.
    The model's monomials are the w stream up to deg_bound, and its design
    matrix comes from polynomials.monomial_matrix.
    """
    if deg_bound < 0:
        raise ValueError("deg_bound must be >= 0")
    pf = p.to_float()
    monomials = basis_stream(None, "w").upto(deg_bound)
    count = 2 * len(monomials)
    rng = np.random.default_rng(seed)

    def draw() -> tuple[complex, complex]:
        rho = 1.5 * np.sqrt(rng.uniform(size=2))
        ang = rng.uniform(0, 2 * np.pi, size=2)
        return (
            complex(rho[0] * np.cos(ang[0]), rho[0] * np.sin(ang[0])),
            complex(rho[1] * np.cos(ang[1]), rho[1] * np.sin(ang[1])),
        )

    # The grid is drawn in the order of a point-by-point loop and lifted in
    # one batch; rejected points are redrawn in index order and lifted again,
    # for at most five rounds in all.
    solver = _FiberSolver.of(f)
    points = [draw() for _ in range(count)]
    values = np.empty(count, dtype=complex)
    pending = np.arange(count)
    for attempt in range(5):
        if attempt:
            for i in pending:
                points[i] = draw()
        w = np.array([points[i] for i in pending])
        batch = solver.solve(w)
        owner = np.repeat(np.arange(len(w)), batch.counts)
        vals = pf.evaluate((w[owner, 0], w[owner, 1]), (batch.z[:, 0], batch.z[:, 1]))
        sums = np.zeros(len(w), dtype=complex)
        np.add.at(sums, owner, vals)
        clean = ~batch.near
        clean[list(batch.errors)] = False
        values[pending[clean]] = sums[clean] / batch.counts[clean]
        pending = pending[~clean]
        if not pending.size:
            break
    else:
        raise FiberError("could not draw a clean fiber grid in five attempts")

    w = np.array(points)
    a_mat = monomial_matrix(monomials, (w[:, 0], w[:, 1], None, None))
    coeffs, *_ = np.linalg.lstsq(a_mat, values, rcond=None)
    # row by row: each residual is one dot product over its row
    residual = float(np.abs(np.ascontiguousarray(a_mat) @ coeffs - values).max())
    terms = {m: complex(c) for m, c in zip(monomials, coeffs) if abs(c) > 0}
    return Polynomial(terms, "float"), residual
