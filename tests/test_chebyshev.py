import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import capax
from capax import (
    EstimateError,
    GraphMap,
    MonomialBasisStream,
    Monomial,
    Polynomial,
    basis_stream,
    build_mesh,
    chebyshev_transform,
    chebyshev_value,
    evaluate_monomials,
    graph_lift,
    parse_poly,
    transfinite_diameter,
)
from capax.chebyshev import (
    _BLOCK,
    _DEPENDENT,
    MINIMAX_TOL,
    direction_exponent,
    minimax_from_matrix,
)
from conftest import random_generic_map


def w_stream():
    return MonomialBasisStream(kind="w")


def minimax_from_matrix_lp(a, b):
    """Oracle for minimax_from_matrix: the same minimax as a linear program.

    The modulus is approximated by its maximum over eight phases, so the
    optimum lower-bounds the true value by a factor of at most cos(pi/8).
    Returns the true max modulus at the LP's coefficients.
    """
    npts, t = a.shape
    phases = np.exp(-2j * np.pi * np.arange(8) / 8)
    a_ub = np.concatenate(
        [
            np.concatenate([(a * ph).real, -(a * ph).imag, -np.ones((npts, 1))], axis=1)
            for ph in phases
        ]
    )
    b_ub = np.concatenate([-(b * ph).real for ph in phases])
    cost = np.zeros(2 * t + 1)
    cost[-1] = 1.0
    bounds = [(None, None)] * (2 * t) + [(0, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success, res.message
    c = res.x[:t] + 1j * res.x[t : 2 * t]
    return float(np.abs(b + a @ c).max())


# ---------------------------------------------------------------------------
# monomial evaluation


def test_evaluate_monomials_values():
    mesh = build_mesh("box:0,3,1,1", (4, 1))
    mons = [Monomial(0, 0, 0, 0), Monomial(1, 0, 0, 0), Monomial(2, 1, 0, 0)]
    mat = evaluate_monomials(mons, mesh)
    assert mat.shape == (4, 3)
    assert np.allclose(mat[:, 0], 1.0)
    assert np.allclose(mat[:, 1], [0, 1, 2, 3])
    assert np.allclose(mat[:, 2], [0, 1, 4, 9])


def test_evaluate_monomials_needs_lift_for_z():
    mesh = build_mesh("torus:1,1", 4)
    with pytest.raises(EstimateError):
        evaluate_monomials([Monomial(0, 0, 1, 0)], mesh)
    f = GraphMap(parse_poly("z1^2"), parse_poly("z2^2"))
    lifted = graph_lift(f, mesh)
    mat = evaluate_monomials([Monomial(0, 0, 1, 0)], lifted)
    assert np.allclose(np.abs(mat), 1.0)


def test_evaluate_monomials_columns_match_polynomial_evaluate():
    f = random_generic_map(random.Random(107), 2)
    lift = graph_lift(f, build_mesh("torus:1,1", (6, 6)))
    monomials = basis_stream(f, "B").upto(6)
    mat = evaluate_monomials(monomials, lift)
    w, z = (lift.w[:, 0], lift.w[:, 1]), (lift.z[:, 0], lift.z[:, 1])
    for j, m in enumerate(monomials):
        value = Polynomial({m: 1}, "float").evaluate(w, z)
        assert np.array_equal(mat[:, j], np.broadcast_to(value, len(lift))), m


# ---------------------------------------------------------------------------
# discrete minimax


@pytest.mark.parametrize("a", [np.empty((4, 0)), np.zeros((4, 2))], ids=["no-columns", "zero-columns"])
def test_minimax_empty_prefix_is_sup_norm(a):
    # a prefix of zero columns keeps no basis column, so b is its own answer
    b = np.array([1.0, -3.0, 2.0, 0.5], dtype=complex)
    est = minimax_from_matrix(a, b)
    assert est.value == 3.0
    assert est.lower == 3.0
    assert est.iterations == 0
    assert est.converged
    assert est.prefix_size == a.shape[1]


def test_minimax_constant_shift():
    # min_c max |x + c| over symmetric data is attained at c = 0
    x = np.linspace(-2.0, 2.0, 9).astype(complex)
    est = minimax_from_matrix(np.ones((9, 1), dtype=complex), x)
    assert est.converged
    assert abs(est.value - 2.0) < 1e-9


def test_minimax_degree_two_on_interval():
    # monic quadratic minimax on [-1, 1] is x^2 - 1/2 with deviation 1/2; a
    # repeated column leaves a rank-deficient prefix with the same minimax
    x = np.linspace(-1.0, 1.0, 201).astype(complex)
    for powers in ((0, 1), (0, 1, 1)):
        a = np.stack([x**p for p in powers], axis=1)
        est = minimax_from_matrix(a, x**2)
        assert est.converged
        assert abs(est.value - 0.5) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(1, 5),
    extra=st.integers(0, 12),
)
def test_minimax_bracket_on_random_complex_data(seed, t, extra):
    rng = np.random.default_rng(seed)
    npts = t + 1 + extra
    a = rng.normal(size=(npts, t)) + 1j * rng.normal(size=(npts, t))
    b = rng.normal(size=npts) + 1j * rng.normal(size=npts)
    est = minimax_from_matrix(a, b)
    assert est.lower <= est.value
    assert est.residual == est.value - est.lower
    # c = 0 and the least-squares fit are admissible, so the minimax is below
    # their sup norms; value is within the certified gap of the minimax
    c_ls = np.linalg.lstsq(a, -b, rcond=None)[0]
    sup = min(float(np.abs(b).max()), float(np.abs(b + a @ c_ls).max()))
    assert est.converged
    assert est.value <= sup + est.residual + 1e-14 * sup


def test_minimax_bracket_holds_the_lp_oracle():
    f = random_generic_map(random.Random(107), 2)
    lift = graph_lift(f, build_mesh("torus:1,1", (8, 8)))
    stream = basis_stream(f, "B")
    monomials = [m for nu in range(6) for m in stream.level(nu)][:20]
    e = evaluate_monomials(monomials, lift)
    for t in (2, 6, 11, 19):
        est = minimax_from_matrix(e[:, :t], e[:, t])
        oracle = minimax_from_matrix_lp(e[:, :t], e[:, t])
        assert est.converged
        assert est.lower <= oracle
        assert est.value <= oracle * (1 + MINIMAX_TOL)


def test_lp_agrees_with_irls_on_real_data():
    x = np.linspace(-1.0, 1.0, 41).astype(complex)
    a = np.stack([np.ones_like(x), x], axis=1)
    irls = minimax_from_matrix(a, x**2)
    lp = minimax_from_matrix_lp(a, x**2)
    # real data keeps the phase polytope exact, so the LP finds the optimum
    assert lp <= irls.value + 1e-12
    assert abs(lp - irls.value) < 1e-3
    assert abs(lp - 0.5) < 1e-9


def test_import_and_solve_leave_out_scipy():
    # scipy is a dev-only dependency: neither the import nor an
    # interior-point solve may load any of it
    src = os.path.dirname(os.path.dirname(capax.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy as np; import capax; "
        "from capax.chebyshev import minimax_from_matrix; "
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not loaded(), loaded(); "
        "x = np.linspace(-1.0, 1.0, 41).astype(complex); "
        "est = minimax_from_matrix(np.stack([np.ones_like(x), x], axis=1), x**2); "
        "assert est.iterations > 1 and est.converged, est; "
        "assert not loaded(), loaded()"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_interior_point_falls_back_to_qr_when_cholesky_fails(monkeypatch):
    f = random_generic_map(random.Random(107), 2)
    lift = graph_lift(f, build_mesh("torus:1,1", (8, 8)))
    stream = basis_stream(f, "B")
    e = evaluate_monomials([m for nu in range(4) for m in stream.level(nu)], lift)
    a, b = e[:, :9], e[:, 9]
    calls = []
    cholesky = np.linalg.cholesky

    def counted(m):
        calls.append("ok")
        return cholesky(m)

    monkeypatch.setattr(capax.chebyshev.np.linalg, "cholesky", counted)
    plain = minimax_from_matrix(a, b)
    assert calls and plain.iterations > 1

    def failing(m):
        calls.append("fail")
        raise np.linalg.LinAlgError("forced")

    calls.clear()
    monkeypatch.setattr(capax.chebyshev.np.linalg, "cholesky", failing)
    fallback = minimax_from_matrix(a, b)
    assert calls
    assert plain.converged and fallback.converged
    # both brackets hold the minimax, so they must overlap
    assert fallback.lower <= plain.value and plain.lower <= fallback.value


def test_newton_certifies_a_generic_series():
    f = random_generic_map(random.Random(11), 2)
    lift = graph_lift(f, build_mesh("torus:1,1", (8, 8)))
    series = transfinite_diameter(lift, "B", 3)
    assert series.meta["irls_converged"] == len(series.step_cheb) - 1
    assert series.meta["cheb_gap_max"] <= MINIMAX_TOL
    # the series took 302 iterations with every Newton system factored by
    # block QR; Cholesky factors must not cost it more
    assert series.meta["irls_steps"] <= 302


def test_certified_series_gap_is_relative():
    # every step of this series is below 1, where a gap of MINIMAX_TOL *
    # max(1, value) would pass relative gaps above MINIMAX_TOL
    f = random_generic_map(random.Random(1), 2)
    lift = graph_lift(f, build_mesh("torus:1,1", (8, 8)))
    series = transfinite_diameter(lift, "B", 3)
    assert series.meta["irls_converged"] == len(series.step_cheb) - 1
    assert series.meta["cheb_gap_max"] <= MINIMAX_TOL


def test_series_factors_its_matrix_once(monkeypatch):
    f = random_generic_map(random.Random(11), 2)
    lift = graph_lift(f, build_mesh("torus:1,1", (8, 8)))
    linalg = capax.chebyshev.np.linalg
    calls = []

    def counted(name):
        real = getattr(linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("lstsq", "qr", "svd"):
        monkeypatch.setattr(linalg, name, counted(name))
    series = transfinite_diameter(lift, "B", 3)
    assert series.step_cheb.shape == (28,)
    assert series.meta["irls_steps"] > len(series.step_cheb) - 1
    # the series is orthonormalized by CGS2, and Cholesky never fails here,
    # so the interior point's block QR never runs
    assert calls == []


def _generic_series_matrix():
    """The monomial matrix of the B series at n = 3 of the Random(11)
    generic map on the 8 x 8 torus, as transfinite_diameter builds it."""
    f = random_generic_map(random.Random(11), 2)
    lift = graph_lift(f, build_mesh("torus:1,1", (8, 8)))
    return evaluate_monomials(basis_stream(f, "B").upto(3 * f.d), lift)


def _record_windows(monkeypatch):
    """Patch the lockstep solver to record each window's size."""
    windows = []
    interior_point = capax.chebyshev._interior_point

    def recorded(basis, steps, *brackets):
        windows.append(len(steps))
        return interior_point(basis, steps, *brackets)

    monkeypatch.setattr(capax.chebyshev, "_interior_point", recorded)
    return windows


def _box_series_matrix():
    """The monomial matrix of the w series at n = 3 on the 16 x 1 box, where
    w2 = 0, so most of its columns are dependent."""
    monomials = w_stream().levels(3)[0]
    return evaluate_monomials(monomials, build_mesh("box:-2,2,0,0", (16, 1)))


def test_series_lockstep_matches_single_solves(monkeypatch):
    generic, box = _generic_series_matrix(), _box_series_matrix()
    for e in (generic, box):
        npts, m = e.shape
        singles = [minimax_from_matrix(e[:, :t], e[:, t]) for t in range(1, m)]
        solved = [t for t, est in enumerate(singles, start=1) if est.iterations > 1]
        if e is generic:
            assert len(solved) >= 6
        else:
            # steps 3 and 6 skip dependent columns: prefix ranks 1, 2 and 3
            # below steps 1, 3 and 6, so one window stacks Newton systems of
            # sizes 3, 5 and 7
            assert solved == [1, 3, 6]
            assert list(capax.chebyshev.Basis(e).rank[solved]) == [1, 2, 3]
        windows = _record_windows(monkeypatch)
        # about three of the largest solves per window, then one window for all
        small = 3 * 16 * npts * (m + capax.chebyshev._CONE_WORK)
        for budget in (small, 1 << 40):
            monkeypatch.setattr(capax.chebyshev, "_WINDOW_BYTES", budget)
            windows.clear()
            series = capax.chebyshev.minimax_series(capax.chebyshev.Basis(e))
            assert sum(windows) == len(solved)
            if budget == small and e is generic:
                assert len(windows) >= 3 and max(windows) > 1
            else:
                assert windows == [len(solved)]
            for t, (lock, single) in enumerate(zip(series, singles), start=1):
                assert lock.iterations == single.iterations, t
                assert lock.converged == single.converged, t
                assert lock.prefix_size == single.prefix_size == t, t
                assert math.isclose(lock.value, single.value, rel_tol=1e-9), t
                assert lock.lower <= single.value and single.lower <= lock.value, t


def test_cholesky_failure_stays_inside_its_solve(monkeypatch):
    e = _generic_series_matrix()
    npts = e.shape[0]
    plain = capax.chebyshev.minimax_series(capax.chebyshev.Basis(e))
    # the steps the interior point runs, in order; a B prefix has full rank
    # t, so step t's Newton system is 2t + 1
    pending = [t for t, est in enumerate(plain, start=1) if est.iterations > 1]
    linalg = capax.chebyshev.np.linalg
    cholesky, qr = linalg.cholesky, linalg.qr
    calls, qr_shapes = [], []

    def forced(m):
        # call 1 checks the first window's stack in its first round and
        # raises, so that round checks each solve's system on its own; call
        # 3, the second solve's, raises too.  Every other call factors as
        # usual
        calls.append(m.shape)
        if len(calls) in (1, 3):
            raise np.linalg.LinAlgError("forced")
        return cholesky(m)

    def counted_qr(m, *args, **kwargs):
        qr_shapes.append(m.shape)
        return qr(m, *args, **kwargs)

    windows = _record_windows(monkeypatch)
    monkeypatch.setattr(linalg, "cholesky", forced)
    monkeypatch.setattr(linalg, "qr", counted_qr)
    patched = capax.chebyshev.minimax_series(capax.chebyshev.Basis(e))
    first = windows[0]
    assert first >= 2
    # the stack is padded to the window's largest system; the round that
    # raised checks each padded system once, and the next round is stacked
    padded = 2 * pending[first - 1] + 1
    assert calls[0] == (first, padded, padded)
    assert calls[1 : first + 1] == [(padded, padded)] * first
    assert len(calls[first + 1]) == 3
    step = pending[1]
    size = 2 * step + 1
    # the block QR ran once, on that solve's three row blocks
    assert qr_shapes == [(npts, size)] * 3 + [(3 * size, size)]
    assert all(est.converged for est in patched)
    for t, (p, q) in enumerate(zip(plain, patched), start=1):
        if t != step:
            assert abs(p.value - q.value) <= 1e-12, t
    # the block QR gives that solve the same Newton step up to rounding
    p, q = plain[step - 1], patched[step - 1]
    assert q.iterations == p.iterations
    assert math.isclose(q.value, p.value, rel_tol=1e-9)


def test_dependent_prefixes_match_least_squares():
    # w1^4 = w2^4 = 1 on the 4 x 4 torus, so those two targets lie in the span
    # of their prefixes, and every later prefix is rank deficient
    mesh = build_mesh("torus:1,1", (4, 4))
    series = transfinite_diameter(mesh, "w", 4)
    assert series.meta["irls_converged"] == len(series.step_cheb) - 1
    e = evaluate_monomials(series.ledger.monomials, mesh)
    in_span = 0
    for t in range(1, e.shape[1]):
        c = np.linalg.lstsq(e[:, :t], -e[:, t], rcond=None)[0]
        sup = float(np.abs(e[:, t] + e[:, :t] @ c).max())
        if sup <= 1e-12:
            in_span += 1
            assert series.step_cheb[t] <= 1e-12
        else:
            assert math.isclose(series.step_cheb[t], sup, rel_tol=1e-12)
    assert in_span == 2


def basis_cgs2_columnwise(e):
    """Oracle for chebyshev.Basis: unblocked CGS2, each column projected
    twice against every basis column kept before it.  Returns rank, sup and
    norm."""
    npts, m = e.shape
    q = np.empty((npts, 0), dtype=complex)
    rank = np.zeros(m + 1, dtype=int)
    sup, norm = np.empty(m), np.empty(m)
    for t in range(m):
        w = e[:, t]
        for _ in range(2):
            w = w - q @ (q.conj().T @ w)
        sup[t], norm[t] = np.abs(w).max(), np.linalg.norm(w)
        if norm[t] > _DEPENDENT * np.linalg.norm(e[:, t]):
            q = np.column_stack([q, w / norm[t]])
        rank[t + 1] = q.shape[1]
    return rank, sup, norm


def _basis_case(case):
    if case == "squares":
        # the B matrix of the pullback check on (3/2 z1^2, 3/2 z2^2), 32 x 32:
        # 4,096 x 91, eight blocks
        f = GraphMap(parse_poly("3/2*z1^2"), parse_poly("3/2*z2^2"))
        lift = graph_lift(f, build_mesh("torus:1,1", (32, 32)))
        return evaluate_monomials(basis_stream(f, "B").upto(6 * f.d), lift)
    if case == "torus-4":
        # w1^4 = w2^4 = 1 on the 4 x 4 torus: two dependent columns
        mesh = build_mesh("torus:1,1", (4, 4))
        return evaluate_monomials(w_stream().upto(4), mesh)
    if case == "generic":
        return _generic_series_matrix()
    # a dependent column opens the second block
    rng = np.random.default_rng(1)
    e = rng.normal(size=(200, 30)) + 1j * rng.normal(size=(200, 30))
    e[:, _BLOCK] = e[:, :_BLOCK] @ (rng.normal(size=_BLOCK) + 1j)
    return e


@pytest.mark.parametrize(
    "case, dependent",
    [("squares", []), ("torus-4", [10, 14]), ("generic", []), ("dependent-opens-block", [_BLOCK])],
)
def test_blocked_basis_matches_columnwise_oracle(case, dependent):
    e = _basis_case(case)
    rank, sup, norm = basis_cgs2_columnwise(e)
    basis = capax.chebyshev.Basis(e)
    assert np.array_equal(basis.rank, rank)
    kept = rank[1:] > rank[:-1]
    assert list(np.flatnonzero(~kept)) == dependent
    for got, want in ((basis.sup, sup), (basis.norm, norm)):
        assert np.allclose(got[kept], want[kept], rtol=1e-12, atol=0)
    qk = basis.qc[:, : rank[-1]].conj()
    assert np.abs(qk.conj().T @ qk - np.eye(rank[-1])).max() <= 1e-13


def test_blocked_basis_stays_orthonormal_on_nearly_dependent_columns():
    # real powers on [0.1, 1]: the later columns lie within 1e-8 to 1e-12 of
    # the span of the earlier ones, and their own block removes nearly all
    # that the earlier blocks left of them
    e = np.vander(np.linspace(0.1, 1.0, 300), 30, increasing=True).astype(complex)
    basis = capax.chebyshev.Basis(e)
    k = basis.rank[-1]
    qk = basis.qc[:, :k].conj()
    assert np.abs(qk.conj().T @ qk - np.eye(k)).max() <= 1e-13


def test_minimax_with_more_columns_than_points():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    b = rng.normal(size=5) + 1j * rng.normal(size=5)
    est = minimax_from_matrix(a, b)
    assert est.converged
    assert est.value <= 1e-12


def test_torus_monomials_converge_immediately():
    mesh = build_mesh("torus:1,1", 12)
    est = chebyshev_value(mesh, w_stream(), Monomial(2, 1, 0, 0))
    assert est.converged
    assert est.iterations == 1
    assert abs(est.value - 1.0) < 1e-12
    assert est.prefix_size == 7  # all of levels 0..2 plus w1^3


def test_radius_scales_chebyshev_value():
    mesh = build_mesh("torus:2,2", 12)
    est = chebyshev_value(mesh, w_stream(), Monomial(1, 2, 0, 0))
    assert abs(est.value - 8.0) < 1e-9


# ---------------------------------------------------------------------------
# directional transform


def test_direction_exponent_rounding():
    assert direction_exponent(0.5, 2) == (1, 1)
    assert direction_exponent(0.3, 10) == (3, 7)
    assert direction_exponent(0.25, 2) == (1, 1)  # half rounds up
    with pytest.raises(ValueError):
        direction_exponent(0.0, 4)
    with pytest.raises(ValueError):
        direction_exponent(1.0, 4)


def test_transform_on_torus_is_radius():
    mesh = build_mesh("torus:1.3,1.3", 16)
    for theta in (0.2, 0.5, 0.8):
        assert abs(chebyshev_transform(mesh, w_stream(), theta, 4) - 1.3) < 1e-9


def test_transform_validates_s():
    mesh = build_mesh("torus:1,1", 8)
    with pytest.raises(ValueError):
        chebyshev_transform(mesh, w_stream(), 0.5, 1)
