import math
import random

import numpy as np
import pytest

import capax.chebyshev
from capax import (
    EstimateError,
    GraphMap,
    Monomial,
    basis_stream,
    build_mesh,
    graph_lift,
    greedy_fekete,
    is_regular,
    parse_poly,
    pullback_check,
    resultant_slog,
    telescoping_check,
    transfinite_diameter,
)
from capax.chebyshev import _TIE, Basis, evaluate_monomials, minimax_from_matrix
from conftest import random_generic_map


def M(f1, f2):
    return GraphMap(parse_poly(f1), parse_poly(f2))


# ---------------------------------------------------------------------------
# greedy Fekete selection


def test_greedy_on_interval_section():
    mesh = build_mesh("box:-2,2,0,0", (9, 1))
    mons = [Monomial(0, 0, 0, 0), Monomial(1, 0, 0, 0), Monomial(2, 0, 0, 0)]
    ledger = greedy_fekete(mesh, mons, 3)
    picked = sorted(mesh.w[i, 0].real for i in ledger.selected)
    assert picked == [-2.0, 0.0, 2.0]
    assert not ledger.truncated
    # |VDM(-2, 2, 0)| = |(2 - -2)(0 - -2)(0 - 2)| = 16
    assert abs(math.exp(ledger.step_logs.sum()) - 16.0) < 1e-9


def test_series_evaluates_its_monomial_matrix_once(monkeypatch):
    import capax.diameters as diameters

    calls = []
    real = diameters.evaluate_monomials

    def counted(monomials, points):
        calls.append(len(monomials))
        return real(monomials, points)

    monkeypatch.setattr(diameters, "evaluate_monomials", counted)
    mesh = build_mesh("torus:1,1", 8)
    series = transfinite_diameter(mesh, "w", 3)
    assert calls == [10]
    # the series' greedy reads the same basis greedy_fekete builds
    direct = greedy_fekete(mesh, series.ledger.monomials, 10)
    assert direct.selected == series.ledger.selected
    assert np.array_equal(direct.step_logs, series.ledger.step_logs)


def test_greedy_matches_brute_force():
    from itertools import combinations

    mesh = build_mesh("box:-2,2,0,0", (9, 1))
    xs = mesh.w[:, 0]
    best = max(
        combinations(range(9), 3),
        key=lambda idx: abs(
            (xs[idx[1]] - xs[idx[0]])
            * (xs[idx[2]] - xs[idx[0]])
            * (xs[idx[2]] - xs[idx[1]])
        ),
    )
    mons = [Monomial(0, 0, 0, 0), Monomial(1, 0, 0, 0), Monomial(2, 0, 0, 0)]
    ledger = greedy_fekete(mesh, mons, 3)
    assert sorted(xs[i].real for i in ledger.selected) == sorted(
        xs[i].real for i in best
    )


def test_greedy_truncates_when_basis_degenerates():
    # w2 vanishes identically on the w2 = 0 section: that step takes no
    # point, and the selection goes on with w1
    mesh = build_mesh("box:-2,2,0,0", (9, 1))
    mons = [Monomial(0, 0, 0, 0), Monomial(0, 1, 0, 0), Monomial(1, 0, 0, 0)]
    ledger = greedy_fekete(mesh, mons, 3)
    assert ledger.truncated
    assert len(ledger.selected) == 2
    assert ledger.step_logs[1] == -math.inf
    assert math.isfinite(ledger.step_logs[2])


def greedy_select_right_looking(values):
    """Oracle for chebyshev.greedy_select: the same greedy selection by
    unblocked right-looking elimination on the monomial matrix itself, one
    rank-one update of every later column per step, ties within _TIE to the
    earliest point; a step whose pivot vanishes takes no point.  Returns the
    selected rows, the step logs and each step's |column| (0 on taken rows)."""
    e = values.copy()
    npts, n = e.shape
    selected, sizes = [], []
    step_logs = np.full(n, -math.inf)
    for t in range(n):
        size = np.abs(e[:, t])
        size[selected] = 0.0
        idx = int(np.argmax(size >= (1.0 - _TIE) * size.max()))
        pivot = e[idx, t]
        if abs(pivot) <= 1e-300:
            continue
        selected.append(idx)
        sizes.append(size)
        step_logs[t] = math.log(abs(pivot))
        e[:, t + 1 :] -= np.outer(e[:, t] / pivot, e[idx, t + 1 :])
    return selected, step_logs, sizes


def assert_greedy_matches_oracle(points, monomials):
    """greedy_fekete against the oracle: the same points, step logs within
    1e-12; returns the ledger and the oracle's step columns."""
    ledger = greedy_fekete(points, monomials, len(monomials))
    selected, step_logs, sizes = greedy_select_right_looking(
        evaluate_monomials(monomials, points)
    )
    assert ledger.selected == selected
    assert ledger.truncated == (len(selected) < len(monomials))
    finite = np.isfinite(step_logs)
    assert np.array_equal(np.isfinite(ledger.step_logs), finite)
    # equal logs to 1e-12 are equal ratios to 1e-12 relative
    assert np.abs(ledger.step_logs[finite] - step_logs[finite]).max() <= 1e-12
    return ledger, sizes


@pytest.mark.parametrize(
    "seed, count, exponents",
    [
        (11, None, None),
        (107, None, None),
        (None, 9, [(0, 0), (1, 0), (2, 0)]),
        (None, 9, [(0, 0), (0, 1), (1, 0)]),  # w2 = 0 on the mesh: step 1 takes no point
        (None, 8, [(0, 0), (1, 0), (0, 1)]),
    ],
)
def test_greedy_matches_right_looking_oracle(seed, count, exponents):
    if seed is not None:
        # a generic map's B series at n = 3 on the 8 x 8 torus
        f = random_generic_map(random.Random(seed), 2)
        points = graph_lift(f, build_mesh("torus:1,1", (8, 8)))
        monomials = basis_stream(f, "B").upto(3 * f.d)
    else:
        points = build_mesh("box:-2,2,0,0", (count, 1))
        monomials = [Monomial(a1, a2, 0, 0) for a1, a2 in exponents]
    assert_greedy_matches_oracle(points, monomials)


@pytest.mark.parametrize("case", ["torus-w", "squares"])
def test_greedy_ties_go_to_the_earliest_point(case):
    # on symmetric meshes whole orbits tie up to rounding
    if case == "torus-w":
        points, monomials = build_mesh("torus:1,1", (8, 8)), basis_stream(None, "w").upto(5)
    else:
        # 4,096 points and 91 monomials, eight column blocks
        f = M("3/2*z1^2", "3/2*z2^2")
        points = graph_lift(f, build_mesh("torus:1,1", (32, 32)))
        monomials = basis_stream(f, "B").upto(6 * f.d)
    ledger, sizes = assert_greedy_matches_oracle(points, monomials)
    # no available point before a step's pick comes within _TIE of its pivot
    ties = 0
    for idx, size in zip(ledger.selected, sizes):
        assert not (size[:idx] >= (1.0 - _TIE) * size[idx]).any()
        ties += int((size[idx:] >= (1.0 - _TIE) * size[idx]).sum() > 1)
    assert ties > 0
    # the greedy eliminates orthonormal basis columns, so each one keeps all
    # of its own q and no pivot on the basis falls below 1 / sqrt(N)
    pivots = np.exp(ledger.step_logs) / Basis(evaluate_monomials(monomials, points)).norm
    assert pivots.min() >= (1.0 - 1e-12) / math.sqrt(len(points))


def test_greedy_rejects_bad_n():
    mesh = build_mesh("box:-2,2,0,0", (9, 1))
    with pytest.raises(ValueError):
        greedy_fekete(mesh, [Monomial(0, 0, 0, 0)], 0)


# ---------------------------------------------------------------------------
# diameter series


def test_unit_torus_diameter_is_exact():
    mesh = build_mesh("torus:1,1", 16)
    series = transfinite_diameter(mesh, "w", 3)
    assert series.levels == [1, 2, 3]
    assert series.m_counts == [3, 6, 10]
    assert series.l_counts == [2, 8, 20]
    for est in series.estimates:
        assert abs(est - 1.0) < 1e-12


def test_torus_radius_recovered():
    mesh = build_mesh("torus:1.3,1.3", 16)
    series = transfinite_diameter(mesh, "w", 4)
    assert abs(series.final - 1.3) < 1e-9


def test_van_root_rides_along():
    mesh = build_mesh("torus:1.3,1.3", 12)
    series = transfinite_diameter(mesh, "w", 3)
    assert len(series.van_root_estimates) == 3
    for v, e in zip(series.van_root_estimates, series.estimates):
        # the raw determinant root keeps the Fekete separation factor, so it
        # rides above the telescoped estimate at every finite level
        assert math.isfinite(v)
        assert v >= e - 1e-9


def test_z_series_needs_lifted_set():
    from capax import EstimateError

    mesh = build_mesh("torus:1,1", 8)
    with pytest.raises(EstimateError):
        transfinite_diameter(mesh, "z", 2)


def test_graph_basis_series_on_lifted_torus():
    f = M("z1^2", "z2^2")
    lifted = graph_lift(f, build_mesh("torus:1,1", 10))
    series = transfinite_diameter(lifted, "B", 2)
    assert series.m_counts == [6, 15]
    assert series.l_counts == [5, 23]
    for est in series.estimates:
        assert 0.5 < est < 1.5


# ---------------------------------------------------------------------------
# telescoping


def test_telescoping_on_unit_torus():
    mesh = build_mesh("torus:1,1", 12)
    report = telescoping_check(mesh, "w", 3)
    assert report.ok
    assert len(report.rows) == 9  # steps 1..9 of m_3 = 10
    for row in report.rows:
        assert row.lower_ok and row.upper_ok
        assert abs(row.cheb - 1.0) < 1e-9


def test_telescoping_lower_bound_on_generic_lift():
    # the second map drawn for the series-generic benchmark workload at seed
    # 7; an unconverged minimax once put step 1's value (1.6176244) above its
    # greedy determinant ratio (1.6174413)
    rng = random.Random("series-generic:7")
    random_generic_map(rng, 2)
    f = random_generic_map(rng, 2)
    lift = graph_lift(f, build_mesh("torus:1,1", (8, 8)))
    series = transfinite_diameter(lift, "B", 3)
    report = telescoping_check(lift, "B", 3, series=series)
    assert all(row.lower_ok for row in report.rows)
    assert series.meta["irls_converged"] == len(series.step_cheb) - 1
    assert 0.0 <= series.meta["cheb_gap_max"] <= 1e-6


def test_series_meta_lists_uncertified_steps(monkeypatch):
    # every C solve of this badly scaled map certifies, but four solver
    # iterations leave some of them uncertified
    f = random_generic_map(random.Random(10), 2)
    lift = graph_lift(f, build_mesh("torus:1,1", (8, 8)))
    assert transfinite_diameter(lift, "C", 3).meta["cheb_uncertified"] == []
    monkeypatch.setattr(capax.chebyshev, "MINIMAX_MAX_ITER", 4)
    series = transfinite_diameter(lift, "C", 3)
    uncertified = series.meta["cheb_uncertified"]
    assert uncertified
    assert len(uncertified) == len(series.step_cheb) - 1 - series.meta["irls_converged"]
    e = evaluate_monomials(series.ledger.monomials, lift)
    for t in range(1, e.shape[1]):
        est = minimax_from_matrix(e[:, :t], e[:, t])
        assert (t in uncertified) == (not est.converged), t


def test_telescoping_lower_bound_on_badly_scaled_lift():
    # the C matrix of this d = 3 map has condition number near 1e15; a rank
    # cut on its singular values once certified step 54 at 0.5554, above its
    # greedy determinant ratio 0.2173
    f = random_generic_map(random.Random(6), 3)
    lift = graph_lift(f, build_mesh("torus:1,1", (8, 8)))
    report = telescoping_check(lift, "C", 3)
    assert all(row.lower_ok for row in report.rows)


def assert_one_dependency_rule(series, dependent):
    # log_vandermonde is -inf at exactly the dependent levels, where both
    # estimates read 0.0, and the step logs' prefix sum at every other level
    for n, m in enumerate(series.m_counts):
        log_van = series.log_vandermonde[n]
        assert (log_van == -math.inf) == dependent[n]
        assert (series.estimates[n] == 0.0) == dependent[n]
        assert (series.van_root_estimates[n] == 0.0) == dependent[n]
        if not dependent[n]:
            assert log_van == float(series.ledger.step_logs[:m].sum())


def test_dependent_steps_take_no_point():
    # w1^4 = w2^4 = 1 on the 4 x 4 torus: its 15 level-4 monomials have rank
    # 13 there, so steps 10 and 14 are dependent and level 4 is not measured
    mesh = build_mesh("torus:1,1", (4, 4))
    series = transfinite_diameter(mesh, "w", 4)
    ledger = series.ledger
    assert ledger.truncated and len(ledger.selected) == 13
    assert list(np.flatnonzero(~np.isfinite(ledger.step_logs))) == [10, 14]
    assert series.estimates == [1.0, 1.0, 1.0, 0.0]
    assert series.van_root_estimates[3] == 0.0
    assert_one_dependency_rule(series, [False, False, False, True])
    report = telescoping_check(mesh, "w", 4, series=series)
    assert report.ok
    assert [row.step for row in report.rows if row.ratio == 0.0] == [10, 14]


def test_telescoping_goes_on_after_a_dependent_step():
    # w2 = 0 on the whole sample: steps 2, 4 and 5 (w2, w1 w2, w2^2) are
    # dependent, and step 3 (w1^2) is measured after them
    mesh = build_mesh("box:-2,2,0,0", (8, 1))
    series = transfinite_diameter(mesh, "w", 2)
    assert_one_dependency_rule(series, [True, True])
    report = telescoping_check(mesh, "w", 2, series=series)
    assert report.ok
    assert [row.step for row in report.rows if row.ratio == 0.0] == [2, 4, 5]
    row = report.rows[2]
    assert row.step == 3 and row.ratio > 0.0 and row.lower_ok and row.upper_ok


def test_telescoping_reads_only_the_series_it_names():
    mesh = build_mesh("torus:1,1", 8)
    series = transfinite_diameter(mesh, "w", 2)
    assert telescoping_check(mesh, "w", 2, series=series).kind == "w"
    for kind, n_max in (("z", 2), ("w", 3), ("w", 1)):
        with pytest.raises(ValueError, match="series is 'w' through level 2"):
            telescoping_check(mesh, kind, n_max, series=series)


def test_telescoping_on_truncated_ledger():
    # w2 = 0 on the whole sample, so the third monomial w2 vanishes there
    mesh = build_mesh("box:-2,2,0,0", (8, 1))
    series = transfinite_diameter(mesh, "w", 1)
    assert series.ledger.truncated
    assert series.estimates == [0.0]
    assert series.step_cheb[2] == 0
    row = telescoping_check(mesh, "w", 1, series=series).rows[1]
    assert row.step == 2 and row.ratio == 0.0
    assert row.lower_ok and row.upper_ok


# ---------------------------------------------------------------------------
# the pullback comparison


def test_pullback_on_squares_map():
    report = pullback_check(M("z1^2", "z2^2"), "torus:1,1", 4, (16, 16))
    assert abs(report.lhs - 1.0) < 1e-9
    assert abs(report.rhs - 1.0) < 1e-9
    assert abs(report.ratio - 1.0) < 1e-9
    assert abs(report.res_log_abs) < 1e-12


def test_pullback_on_doubled_squares_map():
    report = pullback_check(M("2*z1^2", "2*z2^2"), "torus:1,1", 4, (16, 16))
    want = 2.0 ** -0.5
    # lift of the unit torus has |z_i| = 2^(-1/2); Res = 16 enters at -1/8
    assert abs(report.lhs - want) < 1e-9
    assert abs(report.rhs - want) < 1e-9
    assert abs(report.ratio - 1.0) < 1e-9
    assert abs(report.res_log_abs - math.log(16.0)) < 1e-12


def test_pullback_float_map_matches_exact():
    exact = pullback_check(M("3/2*z1^2", "3/2*z2^2"), "torus:1,1", 3, (12, 12))
    f = GraphMap(parse_poly("3/2*z1^2", "float"), parse_poly("3/2*z2^2", "float"))
    floating = pullback_check(f, "torus:1,1", 3, (12, 12))
    want = 1.5**-0.5
    for side in ("lhs", "rhs"):
        assert abs(getattr(floating, side) - want) < 1e-9
        assert getattr(floating, side) == pytest.approx(getattr(exact, side), rel=1e-12)
    assert floating.res_log_abs == pytest.approx(exact.res_log_abs, rel=1e-12)


@pytest.fixture
def no_sampling(monkeypatch):
    import capax.diameters as diameters

    def refuse(*args):
        raise AssertionError("sampled a map that is not regular")

    monkeypatch.setattr(diameters, "build_mesh", refuse)


def test_pullback_rejects_a_map_that_is_not_regular(no_sampling):
    with pytest.raises(EstimateError, match="not regular"):
        pullback_check(M("z1^2 + z2", "z1^2"), "torus:1,1", 2, (8, 8))


def test_pullback_refuses_a_float_map_that_is_not_regular(no_sampling):
    # log|Res| is finite, but lost in the coefficients' rounding: is_regular
    # rejects the map, and so does the pullback, before it samples; it once
    # reported a ratio of 0.0020 with all 128 roots of its lift missing
    f = GraphMap(parse_poly("z1^2 + z2^2 + 0.3*z1", "float"),
                 parse_poly("z1^2 + 1.0000000000001*z2^2 + 0.2*z2", "float"))
    assert math.isfinite(resultant_slog(f)[1]) and not is_regular(f)
    with pytest.raises(EstimateError, match="not regular"):
        pullback_check(f, "torus:1,1", 2, (8, 8))


def test_pullback_cubic_trajectory():
    # a generic d = 3 map on the 8 x 8 torus: lhs/rhs falls toward 1 with n,
    # measured 3.3846, 2.6436, 1.8699, 1.6527 and 1.5651 for n = 1..5
    f = random_generic_map(random.Random(3), 3)
    ratios = []
    for n in range(1, 6):
        report = pullback_check(f, "torus:1,1", n, (8, 8))
        assert report.meta["roots_missing"] == 0
        ratios.append(report.ratio)
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    assert ratios[-1] < 1.6
