import math
import random
import re
import warnings

import numpy as np
import pytest

from capax import (
    FiberError,
    GraphMap,
    MeshError,
    Monomial,
    SampledSet,
    SetSpec,
    build_mesh,
    fiber,
    fiber_average_poly,
    graph_lift,
    parse_poly,
)
from capax.sets import ROOT_DEDUPE_TOL, _FiberSolver, _greedy_distinct

from conftest import random_generic_map


def M(f1, f2):
    return GraphMap(parse_poly(f1), parse_poly(f2))


# ---------------------------------------------------------------------------
# set specs and meshes


def test_spec_parse_forms():
    assert SetSpec.parse("torus:1,1").params == (1.0, 1.0)
    assert SetSpec.parse("polydisc:2,0.5").kind == "polydisc"
    assert SetSpec.parse("box:-2,2,0,0").params == (-2.0, 2.0, 0.0, 0.0)
    assert SetSpec.parse("points:somewhere.csv").params == ("somewhere.csv",)


def test_spec_parse_rejects_malformed():
    for bad in ("torus", "torus:1", "torus:0,1", "box:2,-2,0,0", "blob:1,2",
                "torus:nan,1", "box:0,nan,0,1", "polydisc:1,nan", "torus:inf,1"):
        with pytest.raises(MeshError):
            SetSpec.parse(bad)


def test_hand_built_spec_of_unknown_kind_fails_as_a_parsed_one():
    for make in (lambda: SetSpec("blob", (1.0, 2.0)), lambda: SetSpec.parse("blob:1,2")):
        with pytest.raises(MeshError, match="unknown set kind 'blob'"):
            make()
    assert SetSpec("points", ("pts.csv",)).kind == "points"


def test_torus_mesh_points_lie_on_circles():
    mesh = build_mesh("torus:1,2", (8, 4))
    assert len(mesh) == 32
    assert np.allclose(np.abs(mesh.w[:, 0]), 1.0)
    assert np.allclose(np.abs(mesh.w[:, 1]), 2.0)


def test_box_mesh_degenerate_interval():
    mesh = build_mesh("box:-2,2,0,0", (9, 1))
    assert len(mesh) == 9
    assert np.allclose(mesh.w[:, 1], 0.0)
    assert np.isclose(mesh.w[:, 0].real.min(), -2.0)
    with pytest.raises(MeshError):
        build_mesh("box:-2,2,0,0", (9, 3))


def test_mesh_minimum_counts():
    with pytest.raises(MeshError):
        build_mesh("torus:1,1", 3)
    build_mesh("torus:1,1", 4)


def test_polydisc_outermost_point_on_boundary():
    mesh = build_mesh("polydisc:1,1", (16, 16))
    assert np.isclose(np.abs(mesh.w[:, 0]).max(), 1.0)
    assert np.abs(mesh.w[:, 0]).min() < 0.5


def test_duplicate_points_rejected():
    with pytest.raises(MeshError):
        SampledSet(w=np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_non_finite_points_rejected(tmp_path):
    with pytest.raises(MeshError):
        SampledSet(w=np.array([[np.nan, 0.0], [np.nan, 0.0]]))
    with pytest.raises(MeshError):
        SampledSet(w=np.array([[1.0, 2.0]]), z=np.array([[np.inf, 0.0]]))
    path = tmp_path / "pts.csv"
    path.write_text("1,0,0,1\nnan,0,0,-1\n")
    with pytest.raises(MeshError):
        build_mesh(f"points:{path}", None)


def test_near_duplicates_rejected_distinct_points_kept():
    with pytest.raises(MeshError):
        SampledSet(w=np.array([[1.0, 2.0], [0.5, 0.5j], [1.0 + 1e-14, 2.0]]))
    with pytest.raises(MeshError):
        SampledSet(w=np.array([[0.0, 1.0], [-0.0, 1.0]]))
    assert len(SampledSet(w=np.array([[1.0, 2.0], [1.0 + 1e-9, 2.0], [2.0, 1.0]]))) == 3


def test_duplicate_check_reads_any_memory_layout():
    w = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0j]])
    for layout in (w, np.asfortranarray(w), np.repeat(w, 2, axis=0)[::2]):
        assert len(SampledSet(w=layout)) == 3
        with pytest.raises(MeshError):
            SampledSet(w=np.asfortranarray(np.concatenate([layout, layout[:1]])))


def _pairs(first, second):
    return np.array([[a, b] for a in first for b in second], dtype=complex)


def test_mesh_arrays_pinned_to_row_major_order():
    # the first coordinate runs slowest, for every kind
    t1 = np.exp(2j * np.pi * np.arange(8) / 8)
    t2 = 2.0 * np.exp(2j * np.pi * np.arange(5) / 5)
    assert build_mesh("torus:1,2", (8, 5)).w.tobytes() == _pairs(t1, t2).tobytes()

    def disc(r, n):
        k = np.arange(n)
        return r * np.sqrt((k + 1) / n) * np.exp(1j * math.pi * (3 - math.sqrt(5)) * k)

    assert build_mesh("polydisc:1,0.5", (6, 7)).w.tobytes() == _pairs(disc(1, 6), disc(0.5, 7)).tobytes()
    box = _pairs(np.linspace(-2, 2, 6), np.linspace(-1, 3, 4))
    assert build_mesh("box:-2,2,-1,3", (6, 4)).w.tobytes() == box.tobytes()
    flat = _pairs(np.linspace(-2, 2, 9), [0.0])
    assert build_mesh("box:-2,2,0,0", (9, 1)).w.tobytes() == flat.tobytes()


def test_points_file_round_trip(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# re1,im1,re2,im2\n1,0,0,1\n-1,0,0,-1\n")
    mesh = build_mesh(f"points:{path}", 1)
    assert len(mesh) == 2
    assert mesh.w[0, 1] == 1j


# ---------------------------------------------------------------------------
# fibers


def test_fiber_of_squares_map():
    result = fiber(M("z1^2", "z2^2"), (4, 9))
    assert result.defect == 0
    assert sorted(np.round(result.z[:, 0].real)) == [-2, -2, 2, 2]
    assert sorted(np.round(result.z[:, 1].real)) == [-3, -3, 3, 3]
    assert result.residuals.max() < 1e-9


@pytest.mark.parametrize("w", [(np.nan, 0), (1, np.inf)])
def test_fiber_rejects_a_base_point_that_is_not_finite(w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FiberError):
            fiber(M("z1^2 + z1*z2 + z2^2", "z1*z2 + 1"), w)


def test_fiber_frozen_triangular_map():
    # z1^2 + z2 = 3, z2^2 + 1 = 5 forces z2 = +-2 and z1^2 in {1, 5}
    result = fiber(M("z1^2 + z2", "z2^2 + 1"), (3, 5))
    assert len(result.z) == 4
    sq = sorted(np.round((result.z[:, 0] ** 2).real, 6))
    assert sq == [1, 1, 5, 5]
    assert sorted(np.round(result.z[:, 1].real)) == [-2, -2, 2, 2]


def test_fiber_full_elimination_path_keeps_all_roots():
    # both components involve z1; every one of the d^2 roots must come back
    f = M("-2/3*z2^2 - 3/2*z1*z2 - 3*z1^2 + z2 - 3*z1",
          "-z1*z2 - 2/3*z1^2 + 2*z2 + z1 + 1/3")
    result = fiber(f, (0.7 + 0.2j, -0.4 + 0.9j))
    assert len(result.z) == 4
    assert result.defect == 0
    assert not result.near_discriminant
    assert result.residuals.max() < 1e-9


def test_fiber_residuals_verify_membership():
    f = M("z1^2 + z1*z2 + z2^2 + 1/3*z1", "z1*z2 + 1/2*z2 + 1/5")
    result = fiber(f, (2.0 + 0.5j, -1.0))
    g = f.to_float()
    for z1, z2 in result.z:
        assert abs(g.f1.evaluate((0, 0), (z1, z2)) - (2.0 + 0.5j)) < 1e-7
        assert abs(g.f2.evaluate((0, 0), (z1, z2)) - (-1.0)) < 1e-7


# ---------------------------------------------------------------------------
# lifts


def test_graph_lift_alignment():
    f = M("z1^2", "z2^2")
    base = build_mesh("torus:1,1", 6)
    lifted = graph_lift(f, base)
    assert len(lifted) == 4 * len(base)
    assert lifted.z is not None
    assert np.allclose(lifted.z ** 2, lifted.w)
    assert np.allclose(np.abs(lifted.z), 1.0)
    assert lifted.provenance == "graph_lift"
    assert lifted.meta["base_size"] == len(base)


def test_graph_lift_meta_reports_missing_roots_and_residuals():
    # over w2 = 1 the z2 roots merge, so that fiber keeps 2 of its 4 roots
    f = M("z1^2 + z2", "z2^2 + 1")
    lifted = graph_lift(f, SampledSet(w=np.array([[3, 5], [3, 1], [2j, -1]], dtype=complex)))
    assert len(lifted) == 10
    assert lifted.meta["near_discriminant_fibers"] == 1
    assert lifted.meta["roots_missing"] == 2
    assert 0 <= lifted.meta["residual_max"] < 1e-9


# ---------------------------------------------------------------------------
# the batched solver against one fiber at a time

Z2_LEADING = ("z1^2*z2 + z2^3 + z1", "z1^2 + z1*z2 + 2*z2^2")


def _mixed_base():
    # w2 = w1^2 puts a root at z2 = 0, where f1 loses its z1^2 term
    drops = np.array([[1, 1], [2, 4], [-1, 1], [0.5j, -0.25]], dtype=complex)
    torus = build_mesh("torus:0.7,1.3", (5, 7)).w
    return SampledSet(w=np.concatenate([torus[:20], drops, torus[20:]]))


LIFT_CASES = {
    "generic d=2": (lambda: random_generic_map(random.Random(5), 2), lambda: build_mesh("torus:1,1", 9)),
    "generic d=3": (lambda: random_generic_map(random.Random(6), 3), lambda: build_mesh("polydisc:1,1", 7)),
    "z2-leading": (lambda: M(*Z2_LEADING), _mixed_base),
    "z-only": (lambda: M("z1^2 + z2", "z2^2 + 1"), lambda: build_mesh("box:-2,2,-1,1", 6)),
    # d1 = 3 > d2 = 2: f2's monomials sit inside a table of degree d1
    "degree (3, 2)": (
        lambda: M("z1^3 + 2*z2^3 + z1*z2 + 1", "z1*z2 + z2^2 + z1"),
        lambda: build_mesh("torus:1,1", 9),
    ),
}


def _assert_same_fibers(got, fibers):
    """Each fiber's roots in got match the roots of its FiberResult as sets,
    within 1e-12 relative; got holds the fibers in order."""
    bounds = np.cumsum([len(r.z) for r in fibers])[:-1]
    for mine, r in zip(np.split(got, bounds), fibers):
        gap = np.abs(mine[:, None, :] - r.z[None, :, :]).sum(axis=-1)
        tol = 1e-12 * max(1.0, np.abs(r.z).max())
        assert (gap.min(axis=0) <= tol).all() and (gap.min(axis=1) <= tol).all()


@pytest.mark.parametrize("case", sorted(LIFT_CASES))
def test_graph_lift_matches_per_point_fibers(case):
    make_map, make_base = LIFT_CASES[case]
    f, base = make_map(), make_base()
    lifted = graph_lift(f, base)
    fibers = [fiber(f, w) for w in base.w]
    assert np.array_equal(lifted.w, np.repeat(base.w, [len(r.z) for r in fibers], axis=0))
    _assert_same_fibers(lifted.z, fibers)
    assert lifted.meta["near_discriminant_fibers"] == sum(r.near_discriminant for r in fibers)
    assert lifted.meta["roots_missing"] == sum(r.defect for r in fibers)
    # a point's start comes from a seed of its own batch, so two batches
    # give the same root sets, not the same bits or root order
    k = len(base) // 2 + 3
    halves = [graph_lift(f, SampledSet(w=w)) for w in (base.w[:k], base.w[k:])]
    assert np.array_equal(np.concatenate([h.w for h in halves]), lifted.w)
    _assert_same_fibers(np.concatenate([h.z for h in halves]), fibers)
    for key in ("roots_missing", "near_discriminant_fibers"):
        assert sum(h.meta[key] for h in halves) == lifted.meta[key]


def _patch_continued_newton(monkeypatch, spoil):
    """Run spoil(self, w, z1, z2) in place of Newton on the continued starts,
    the Newton batches that no eigenproblem started."""
    by_eig, newton = _FiberSolver._by_eig, _FiberSolver._newton
    in_eig = []

    def counted_by_eig(self, w):
        in_eig.append(True)
        try:
            return by_eig(self, w)
        finally:
            in_eig.pop()

    def patched(self, w, z1, z2):
        (newton if in_eig else spoil)(self, w, z1, z2)

    monkeypatch.setattr(_FiberSolver, "_by_eig", counted_by_eig)
    monkeypatch.setattr(_FiberSolver, "_newton", patched)


SCALED = ("1.0e-200*z1^2", "1.0e-200*z2^2")  # roots of modulus 1e100


@pytest.mark.parametrize("spoil", ["collapse", "no-op"])
@pytest.mark.parametrize("case", ["generic d=2", "scaled"])
def test_continued_fibers_that_fail_fall_back_to_eig(monkeypatch, case, spoil):
    if case == "scaled":
        f = GraphMap(parse_poly(SCALED[0], "float"), parse_poly(SCALED[1], "float"))
    else:
        f = random_generic_map(random.Random(5), 2)
    base = build_mesh("torus:1,1", 8)
    want = graph_lift(f, base)
    assert want.meta["eig_fibers"] < len(base)
    newton = _FiberSolver._newton
    if spoil == "collapse":
        # two starts that converge to one root leave their fiber short
        def spoiled(self, w, z1, z2):
            newton(self, w, z1, z2)
            n = self.expected
            z1.reshape(-1, n)[:, 1] = z1.reshape(-1, n)[:, 0]
            z2.reshape(-1, n)[:, 1] = z2.reshape(-1, n)[:, 0]
    else:
        # the seed's roots, copied and not polished, solve another fiber:
        # the backward error must reject every one of them
        def spoiled(self, w, z1, z2):
            pass
    _patch_continued_newton(monkeypatch, spoiled)
    got = graph_lift(f, base)
    assert got.meta["eig_fibers"] == len(base)
    for key in ("roots_missing", "near_discriminant_fibers"):
        assert got.meta[key] == want.meta[key] == 0
    fibers = [fiber(f, w) for w in base.w]
    _assert_same_fibers(got.z, fibers)
    _assert_same_fibers(want.z, fibers)


def test_eig_fibers_counts_the_eigenproblems():
    f = M("3/2*z1^2", "3/2*z2^2")
    lifted = graph_lift(f, build_mesh("torus:1,1", 16))
    assert 0 < lifted.meta["eig_fibers"] < lifted.meta["base_size"] == 256
    assert graph_lift(f, SampledSet(w=np.array([[1.0, 2.0]]))).meta["eig_fibers"] == 1
    # a batch of fewer than two seeds' worth of points takes no continuation
    small = build_mesh("torus:1,1", (4, 7))
    assert graph_lift(f, small).meta["eig_fibers"] == len(small) == 28


def _term_by_term(p, i, z1, z2):
    """p (i = None) or dp/dz_i at (z1, z2), one term at a time, and the sum
    of the terms' magnitudes."""
    value, size = np.zeros_like(z1), np.zeros(z1.shape)
    for m, c in p.terms.items():
        e = list(m.beta)
        if i is not None:
            if not e[i]:
                continue
            c, e[i] = e[i] * c, e[i] - 1
        term = c * z1 ** e[0] * z2 ** e[1]
        value, size = value + term, size + np.abs(term)
    return value, size


# the eigenvector candidates are good to about 1e-15, so Newton barely moves
# them and a lift test would not notice a wrong entry of the Jacobian
@pytest.mark.parametrize("case", sorted(LIFT_CASES))
def test_values_are_the_map_and_its_partials(case):
    make_map, _ = LIFT_CASES[case]
    f = make_map()
    g = f.to_float()
    rng = np.random.default_rng(4)
    z1, z2 = 1.5 * (rng.normal(size=(2, 300)) + 1j * rng.normal(size=(2, 300)))
    got = _FiberSolver.of(f)._values(z1, z2)
    # f1 and f2 through Polynomial.evaluate, the partials written out here
    want = [g.f1.evaluate((0, 0), (z1, z2)), g.f2.evaluate((0, 0), (z1, z2))]
    sizes = [_term_by_term(p, None, z1, z2)[1] for p in (g.f1, g.f2)]
    for p in (g.f1, g.f2):
        for i in (0, 1):
            value, size = _term_by_term(p, i, z1, z2)
            want.append(value)
            sizes.append(size)
    assert (np.abs(got - np.stack(want, axis=1)) <= 1e-13 * np.stack(sizes, axis=1)).all()
    # the residual check reads the same two parts that Newton does
    assert np.array_equal(_FiberSolver.of(f)._values(z1, z2, parts=2), got[:, :2])


def test_graph_lift_error_names_the_first_failed_point(monkeypatch):
    # spoil Newton over the two base points with w2 = 0, from eigenproblems
    # and from seeds alike, so neither fiber certifies a root; the error
    # must name the lower of the two
    newton = _FiberSolver._newton

    def spoiled(self, w, z1, z2):
        newton(self, w, z1, z2)
        z1[w[:, 1] == 0] = np.nan

    monkeypatch.setattr(_FiberSolver, "_newton", spoiled)
    torus = build_mesh("torus:0.5,1.5", (6, 7)).w
    w = np.concatenate([torus[:20], [[1, 0]], torus[20:31], [[2, 0]], torus[31:]])
    assert len(w) == 44
    with pytest.raises(FiberError, match=re.escape("no certified roots for w = ((1+0j), 0j)")):
        graph_lift(M("z1^2 + z1*z2 + z2^2", "z1*z2 + 1"), SampledSet(w=w))


def test_a_map_that_is_not_regular_is_refused():
    # the top forms z1*z2 and z2 share the root z2 = 0: every fiber of
    # (z1*z2, z2) off w2 = 0 has one root, and the other went to infinity
    f = M("z1*z2", "z2")
    with pytest.raises(FiberError, match="not regular"):
        graph_lift(f, build_mesh("torus:1,1", 4))
    with pytest.raises(FiberError, match="not regular"):
        fiber(f, (1, 1))


# ---------------------------------------------------------------------------
# Newton's stop and the multiplication matrices


def test_newton_stops_once_a_step_no_longer_shrinks(monkeypatch):
    values = _FiberSolver._values
    rounds = []

    def counted(self, z1, z2, parts=6):
        # _newton asks for all six parts, the closing residual for two
        rounds[-1] += parts == 6
        return values(self, z1, z2, parts)

    monkeypatch.setattr(_FiberSolver, "_values", counted)
    # the first two draws of the lift-generic benchmark workload at seed 13:
    # steps that stall at the rounding floor kept 3 of these 4 lifts going
    # for all 50 rounds before a step had to shrink to be taken
    rng = random.Random("lift-generic:13")
    cases = [(random_generic_map(rng, d), mesh) for _ in range(2) for d, mesh in ((2, 16), (3, 8))]
    # and a map whose spurious eliminant candidates over w2 = 1 once ran its
    # 32 x 32 lift for all 50 rounds, until the residual test rejected them
    cases.append((M("z1^2 + z1*z2 + z2^2", "z1*z2 + 1"), 32))
    for f, mesh in cases:
        rounds.append(0)
        lifted = graph_lift(f, build_mesh("torus:1,1", mesh))
        assert 0 < rounds[-1] < 50
        assert lifted.meta["roots_missing"] == 0
        assert lifted.meta["near_discriminant_fibers"] == 0
        assert lifted.meta["residual_max"] <= 1e-12


UNEVEN = ("z1*z2 + z2^2 + 1", "z1^2 + z2")  # z1-degrees 1 and 2


@pytest.mark.parametrize("make_map", [
    lambda: random_generic_map(random.Random(7), 2),
    lambda: random_generic_map(random.Random(8), 3),
    lambda: M(*UNEVEN),
], ids=["generic d=2", "generic d=3", "uneven z1-degrees"])
def test_fibers_are_complete_at_the_staircase_size(make_map):
    f = make_map()
    solver = _FiberSolver(f)
    w = build_mesh("torus:0.8,1.2", 4).w
    m1, m2 = np.moveaxis(solver._matrices(w), 1, 0)
    # multiplication by z1 and by z2 commute on the module, to rounding
    bound = 1e-13 * (np.abs(m1) @ np.abs(m2) + np.abs(m2) @ np.abs(m1))
    assert (np.abs(m1 @ m2 - m2 @ m1) <= bound).all()
    # so every fiber has d1*d2 distinct roots, and they solve f = w
    batch = solver.solve(w)
    assert not batch.errors
    assert (batch.counts == f.d1 * f.d2).all()
    assert not batch.near.any()
    g = f.to_float()
    owner = np.repeat(np.arange(len(w)), batch.counts)
    for k, p in enumerate((g.f1, g.f2)):
        value = p.evaluate((0, 0), (batch.z[:, 0], batch.z[:, 1]))
        assert np.abs(value - w[owner, k]).max() <= 1e-12


def test_graph_lift_keeps_roots_over_a_double_eliminant_root():
    # over w1 = 1 the z2 eliminant z2^4 + z2^3 - w2*z2^2 has a double root
    # at z2 = 0, where f1 - w1 = z1*z2 + z2^2 vanishes for every z1; the
    # roots (+-sqrt(w2), 0) still come back, one eigenvector each
    lifted = graph_lift(M(*UNEVEN), build_mesh("torus:1,1", 8))
    assert lifted.meta["roots_missing"] == 0
    assert lifted.meta["near_discriminant_fibers"] == 0


def _greedy_distinct_table(values, valid, tol):
    """The (rows, k, k) gap-table dedupe that _greedy_distinct replaced, and
    the least kept-pair gap read from that table."""
    gap = np.abs(values[:, :, None, :] - values[:, None, :, :]).sum(axis=-1)
    close = gap <= tol * (1 + np.abs(values).sum(axis=-1))[:, None, :]
    keep = np.zeros_like(valid)
    for k in range(values.shape[1]):
        keep[:, k] = valid[:, k] & ~(close[:, k, :k] & keep[:, :k]).any(axis=1)
    pairs = keep[:, :, None] & keep[:, None, :] & ~np.eye(values.shape[1], dtype=bool)
    return keep, np.where(pairs, gap, np.inf).min(axis=(1, 2), initial=np.inf)


@pytest.mark.parametrize("coords", [1, 2])
def test_greedy_distinct_matches_the_gap_table(coords):
    rng = np.random.default_rng(coords)
    merged = planted = 0
    for width in range(1, 28):
        rows = 24
        values = rng.normal(size=(rows, width, coords)) + 1j * rng.normal(size=(rows, width, coords))
        # plant entries at 0.5x, 1x and 2x the tolerance from an earlier one
        for r, k in zip(*np.nonzero(rng.random((rows, width)) < 0.4)):
            if k:
                j = rng.integers(k)
                tol = ROOT_DEDUPE_TOL * (1 + np.abs(values[r, j]).sum())
                values[r, k] = values[r, j]
                values[r, k, 0] += rng.choice([0.5, 1.0, 2.0]) * tol * np.exp(2j * np.pi * rng.random())
                planted += 1
        valid = rng.random((rows, width)) < 0.8
        keep, sep = _greedy_distinct(values, valid, ROOT_DEDUPE_TOL)
        want_keep, want_sep = _greedy_distinct_table(values, valid, ROOT_DEDUPE_TOL)
        assert np.array_equal(keep, want_keep), width
        assert np.array_equal(sep, want_sep), width
        assert np.isinf(sep[keep.sum(axis=1) < 2]).all()
        merged += int((valid & ~keep).sum())
    assert planted > 1000 and merged > 100


@pytest.mark.parametrize("case", sorted(LIFT_CASES))
def test_graph_lift_residuals_checked_on_the_map(case):
    make_map, make_base = LIFT_CASES[case]
    f, base = make_map(), make_base()
    lifted = graph_lift(f, base)
    g = f.to_float()
    z1, z2 = lifted.z[:, 0], lifted.z[:, 1]
    local = np.maximum(1.0, np.maximum(np.abs(z1), np.abs(z2))) ** g.d1
    worst = 0.0
    for k, p in enumerate((g.f1, g.f2)):
        value = p.evaluate((0, 0), (z1, z2)) - lifted.w[:, k]
        scale = max(1.0, max(abs(c) for m, c in p.terms.items() if m.degree() > 0))
        scale = np.maximum(scale, np.abs(p.coefficient(Monomial(0, 0, 0, 0)) - lifted.w[:, k]))
        worst = max(worst, float((np.abs(value) / (scale * local)).max()))
    assert worst <= 1e-9
    assert lifted.meta["residual_max"] <= 1e-9


def test_graph_lift_of_scaled_squares_is_closed_form():
    c = 1.5
    base = build_mesh("torus:0.8,1.7", (6, 8))
    lifted = graph_lift(M("3/2*z1^2", "3/2*z2^2"), base)
    assert len(lifted) == 4 * len(base)
    assert lifted.meta["near_discriminant_fibers"] == 0
    assert lifted.meta["roots_missing"] == 0
    for i, (w1, w2) in enumerate(base.w):
        r1, r2 = np.sqrt(w1 / c), np.sqrt(w2 / c)
        want = np.array([[s1 * r1, s2 * r2] for s1 in (1, -1) for s2 in (1, -1)])
        got = lifted.z[4 * i : 4 * i + 4]
        assert np.array_equal(lifted.w[4 * i : 4 * i + 4], np.repeat(base.w[i : i + 1], 4, axis=0))
        for z in want:
            assert np.abs(got - z).sum(axis=1).min() < 1e-12


# ---------------------------------------------------------------------------
# fiber averages


def _assert_z1_squared_averages_to_w1(avg, residual):
    # on w = f(z) with f1 = z1^2 + z2 the two z2 sheets average to zero,
    # leaving z1^2 -> w1
    assert residual < 1e-8
    assert avg == parse_poly("w1", "float")


def test_graph_lift_of_a_scaled_float_map():
    # the roots of (1e-200 z1^2, 1e-200 z2^2) have |z| = 1e100, and the
    # table of its dyadic copy holds entries near 1e200
    f = GraphMap(parse_poly("1.0e-200*z1^2", "float"), parse_poly("1.0e-200*z2^2", "float"))
    lifted = graph_lift(f, build_mesh("torus:1,1", 8))
    assert len(lifted) == 4 * 64
    assert lifted.meta["roots_missing"] == 0
    # Newton's determinant floor is relative, so continued fibers converge
    # where |det| ~ 1e-200 and need no eigenproblem of their own
    assert lifted.meta["eig_fibers"] == 4
    assert np.allclose(1.0e-200 * lifted.z**2, lifted.w, rtol=1e-12, atol=0)


def test_fiber_average_of_z1_squared():
    f = M("z1^2 + z2", "z2^2 + 1")
    _assert_z1_squared_averages_to_w1(*fiber_average_poly(parse_poly("z1^2", "float"), f, 1))


def _spoil_fibers(monkeypatch, spoil):
    """Patch _FiberSolver.solve so that spoil(batch, starts) marks fibers
    failed or flagged after the solve; starts[i] is fiber i's first root.
    Returns the list of batch sizes solved."""
    solve = _FiberSolver.solve
    sizes = []

    def spoiled(self, w):
        batch = solve(self, w)
        spoil(batch, np.concatenate([[0], np.cumsum(batch.counts)[:-1]]))
        sizes.append(len(w))
        return batch

    monkeypatch.setattr(_FiberSolver, "solve", spoiled)
    return sizes


def _assert_spoiled_fibers_left_out(monkeypatch, spoiled, mark):
    """Move the first root of each fiber in spoiled far off, let mark(batch)
    fail or flag them, and check that the cross-check reads none of them."""
    f = M("z1^2 + z2", "z2^2 + 1")
    p = parse_poly("z1^2", "float")
    _, clean = fiber_average_poly(p, f, 4)

    def spoil(batch, starts):
        # each fiber keeps its roots, moved far off, so that a fiber the
        # check still read would dominate its residual
        for i in spoiled:
            batch.z[starts[i]] += 10.0
        mark(batch)

    sizes = _spoil_fibers(monkeypatch, spoil)
    avg, residual = fiber_average_poly(p, f, 4)
    assert sizes == [30]  # 5 x 6 grid points, solved once, none drawn again
    _assert_z1_squared_averages_to_w1(avg, residual)
    assert residual <= clean


def test_fiber_average_leaves_failed_fibers_out(monkeypatch):
    _assert_spoiled_fibers_left_out(
        monkeypatch, (17, 25), lambda batch: batch.errors.update({17: "spoiled", 25: "spoiled"}))


def test_fiber_average_leaves_a_flagged_fiber_out(monkeypatch):
    def flag_first(batch):
        batch.near[0] = True

    _assert_spoiled_fibers_left_out(monkeypatch, (0,), flag_first)


def test_fiber_average_of_an_all_flagged_grid_raises(monkeypatch):
    def flag_all(batch, starts):
        batch.near[:] = True

    _spoil_fibers(monkeypatch, flag_all)
    with pytest.raises(FiberError, match="no fiber"):
        fiber_average_poly(parse_poly("z1^2", "float"), M("z1^2 + z2", "z2^2 + 1"), 1)


@pytest.mark.parametrize("f, p, want", [
    (("3/2*z1^2", "3/2*z2^2"), "z1^2", "2/3*w1"),
    (("3/2*z1^2", "3/2*z2^2"), "z1", "0"),
    (("3/2*z1^2", "3/2*z2^2"), "1", "1"),
    (("z1^2 + z2", "z2^2 + 1"), "z1^2", "w1"),
])
def test_fiber_average_closed_forms(f, p, want):
    avg, residual = fiber_average_poly(parse_poly(p), M(*f), 2)
    assert avg == parse_poly(want)
    assert residual < 1e-12


def test_fiber_average_of_a_float_map_is_its_exact_copys():
    g = GraphMap(parse_poly("0.5*z1^2 + z1*z2 - 0.25*z2^2 + 3*z1", "float"),
                 parse_poly("z1*z2 + 1.5*z2 + 0.125", "float"))
    for p in (parse_poly("w1*z1*z2 + z2^2", "float"), parse_poly("z1^3 + w2*z1", "exact")):
        floating, exact = (fiber_average_poly(p, h, 3, seed=5) for h in (g, g.to_exact()))
        assert floating[0] == exact[0]
        assert floating[0].precision == p.precision
        assert max(floating[1], exact[1]) < 1e-10


def test_fiber_average_above_deg_bound_raises():
    # the average of z1^2 over (3/2 z1^2, 3/2 z2^2) is 2/3 w1, of degree 1
    with pytest.raises(ValueError, match="above deg_bound"):
        fiber_average_poly(parse_poly("z1^2"), M("3/2*z1^2", "3/2*z2^2"), 0)


def test_fiber_average_refuses_a_map_that_is_not_regular():
    # neither component involves z1, so the staircase raises too; the
    # fiber solver's refusal comes first
    with pytest.raises(FiberError, match="fiber is not finite"):
        fiber_average_poly(parse_poly("z2"), M("z2^2", "z2"), 2)


def test_one_fiber_solver_per_map(monkeypatch):
    init = _FiberSolver.__init__
    built = []

    def counted(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(_FiberSolver, "__init__", counted)
    f = M("z1^2 + z1*z2 + z2^2 + 1/3*z1", "z1*z2 + 1/2*z2 + 1/5")
    base = build_mesh("torus:1,1", 6)
    p = parse_poly("w1*z1*z2 + z2", "float")

    def lift(g):
        out = graph_lift(g, base)
        return out.w.tobytes(), out.z.tobytes(), out.meta

    def one_fiber(g):
        out = fiber(g, (2.0 + 0.5j, -1.0))
        return out.z.tobytes(), out.residuals.tobytes(), out.near_discriminant, out.defect

    def average(g):
        avg, residual = fiber_average_poly(p, g, 2, seed=3)
        return avg.terms, residual

    calls = (lift, one_fiber, average)
    shared = [call(f) for call in calls]
    assert built == [f]
    # each call again on a map of its own: one more solver each, same bits
    assert [call(GraphMap(f.f1, f.f2)) for call in calls] == shared
    assert len(built) == 4


def test_a_solver_that_raises_is_not_kept():
    # neither component involves z1: every call raises, and none keeps a solver
    f = M("z2^2", "z2")
    for _ in range(2):
        with pytest.raises(FiberError, match="fiber is not finite"):
            fiber(f, (1, 1))
    assert "fiber_solver" not in f._memo


def test_fiber_average_mixed_monomial():
    f = M("z1^2 + z2", "z2^2 + 1")
    avg, residual = fiber_average_poly(parse_poly("w1*z2 + w2", "float"), f, 2)
    assert residual < 1e-8
    w2 = Monomial(0, 1, 0, 0)
    assert abs(avg.coefficient(w2) - 1.0) < 1e-8
    others = [m for m in avg.terms if m != w2]
    assert all(abs(complex(avg.coefficient(m))) < 1e-8 for m in others)


def test_fiber_average_repeats_exactly_for_a_seed():
    f = M("z1^2 + z1*z2 + 1/2*z2", "z2^2 - z1 + 1/3")
    p = parse_poly("w1*z1*z2 + z2", "float")
    first = fiber_average_poly(p, f, 3, seed=11)
    second = fiber_average_poly(p, f, 3, seed=11)
    assert first[0].terms == second[0].terms
    assert first[1] == second[1]
