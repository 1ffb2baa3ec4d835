import random
from fractions import Fraction

import numpy as np
import pytest

from capax import (
    GaussianRational,
    GraphMap,
    Polynomial,
    block_factorization,
    block_shape,
    is_regular,
    parse_poly,
    precondition,
    resultant,
    resultant_root_oracle,
    resultant_slog,
    sylvester_matrix,
)
from capax.polynomials import z_monomial
from capax.resultant import bareiss_det
from conftest import random_generic_map, random_regular_map


def P(text):
    return parse_poly(text)


def M(f1, f2):
    return GraphMap(P(f1), P(f2))


# ---------------------------------------------------------------------------
# sylvester matrices and resultants


HALF_I = GaussianRational(0, Fraction(1, 2))


@pytest.mark.parametrize(
    "f1, f2, rows",
    [
        ("z1 + z2", "z1 - z2", [[1, 1], [1, -1]]),
        # degrees 3 and 2: two shifted rows of f1's top form, then three of
        # f2's, z1-degree descending; the lower-order terms do not enter
        (
            "2*z1^3 + 3*z1^2*z2 - 5*z1*z2^2 + 1/2*i*z2^3 + z1^2 - 4",
            "11*z1^2 - 13*z1*z2 + 17*z2^2 + z2",
            [
                [2, 3, -5, HALF_I, 0],
                [0, 2, 3, -5, HALF_I],
                [11, -13, 17, 0, 0],
                [0, 11, -13, 17, 0],
                [0, 0, 11, -13, 17],
            ],
        ),
    ],
    ids=["linear", "degrees-3-2"],
)
def test_sylvester_layout_linear(f1, f2, rows):
    m = sylvester_matrix(M(f1, f2))
    assert m.dtype == object and m.shape == (len(rows), len(rows))
    for row, expected in zip(m, rows):
        for c, e in zip(row, expected):
            assert isinstance(c, GaussianRational) and c == GaussianRational.coerce(e)
    mf = sylvester_matrix(GraphMap(parse_poly(f1, "float"), parse_poly(f2, "float")))
    assert mf.dtype == complex
    assert np.array_equal(mf, [[complex(c) for c in row] for row in m])


def test_resultant_frozen_values():
    assert resultant(M("z1^2 + z2^2", "z1*z2")) == GaussianRational(1)
    assert resultant(M("2*z1^2", "z2^2")) == GaussianRational(4)
    assert resultant(M("z1 + z2", "z1 - z2")) == GaussianRational(-2)
    assert resultant(M("2*z1^2", "2*z2^2")) == GaussianRational(16)
    assert resultant(M("z1^2", "z2^2")) == GaussianRational(1)


def test_resultant_drops_lower_order_terms():
    assert resultant(M("z1^2 + z2 + 1", "z2^2 + z1")) == resultant(M("z1^2", "z2^2"))


def test_resultant_vanishes_on_shared_factor():
    assert resultant(M("z1^2 + z1*z2", "z1*z2")) == GaussianRational(0)
    assert not is_regular(M("z1^2 + z1*z2", "z1*z2"))
    assert is_regular(M("z1^2 + z2^2", "z1*z2"))


def test_float_is_regular_at_extreme_scales():
    def F(f1, f2):
        return GraphMap(parse_poly(f1, "float"), parse_poly(f2, "float"))

    # max|a|^d2 max|b|^d1 is 1e+-800, outside the float range; its log is not
    assert is_regular(F("1.0e200*z1^2", "1.0e200*z2^2"))
    assert is_regular(F("1.0e-200*z1^2", "1.0e-200*z2^2"))
    assert not is_regular(F("z1^2 + z1*z2", "z1*z2"))
    assert not is_regular(F("1.0e200*z1^2 + 1.0e200*z1*z2", "1.0e-200*z1*z2"))
    # the z1^2 coefficient underflows to 0 and leaves: z1 alone, degree 1
    f1 = parse_poly("1.0e-200*z1^2 + z1", "float").scale(1.0e-200)
    assert set(f1.terms) == {z_monomial((1, 0))} and f1.degree() == 1


def test_resultant_slog_consistency():
    f = M("2*z1^2", "2*z2^2")
    phase, logmag = resultant_slog(f)
    assert np.isclose(logmag, np.log(16.0))
    assert np.isclose(complex(phase).real, 1.0)
    # |Res| = 10^(+-800) lies outside the float range; its log does not
    big = "1" + "0" * 200
    for c, precision, sign in [(big, "exact", 1), ("1.0e200", "float", 1), ("1.0e-200", "float", -1)]:
        f = GraphMap(parse_poly(f"{c}*z1^2", precision), parse_poly(f"{c}*z2^2", precision))
        phase, logmag = resultant_slog(f)
        assert abs(logmag / (sign * 800 * np.log(10.0)) - 1.0) <= 1e-12
        assert np.isclose(complex(phase), 1.0)


def test_bareiss_matches_float_det():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        rows = [
            [GaussianRational(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))) for _ in range(n)]
            for _ in range(n)
        ]
        exact = bareiss_det([row[:] for row in rows])
        approx = np.linalg.det(np.array([[complex(c) for c in row] for row in rows]))
        assert abs(complex(exact) - approx) <= 1e-8 * max(1.0, abs(approx))


def _laplace_det(rows):
    """Cofactor expansion along the first row: the oracle for bareiss_det."""
    if not rows:
        return GaussianRational(1)
    out = GaussianRational(0)
    for j, c in enumerate(rows[0]):
        if c:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = c * _laplace_det(minor)
            out = out + term if j % 2 == 0 else out - term
    return out


def _gaussian_matrix(rng, n):
    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))

    return [[GaussianRational(part(), part()) for _ in range(n)] for _ in range(n)]


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(19)
    cases = [[], [[GaussianRational(Fraction(3, 4), Fraction(-2, 5))]]]
    for n in range(1, 7):
        for _ in range(4):
            cases.append(_gaussian_matrix(rng, n))
        pivot_swap = _gaussian_matrix(rng, n)
        pivot_swap[0][0] = GaussianRational(0)
        cases.append(pivot_swap)
        if n >= 2:
            singular = _gaussian_matrix(rng, n)
            singular[-1] = [c * GaussianRational(Fraction(2, 3), 1) for c in singular[0]]
            cases.append(singular)
            second_swap = _gaussian_matrix(rng, n)
            for row in second_swap[:2]:
                row[0] = GaussianRational(0)
            second_swap[0][1] = GaussianRational(0)
            cases.append(second_swap)
    assert any(c.im and c.d > 1 for m in cases for row in m for c in row)
    dets = [bareiss_det([row[:] for row in m]) for m in cases]
    assert dets == [_laplace_det(m) for m in cases]
    assert dets[0] == 1
    assert dets[1] == cases[1][0][0]
    assert sum(1 for d in dets if not d) >= 5
    with pytest.raises(ValueError):
        bareiss_det([[GaussianRational(1), GaussianRational(2)]])


def test_root_oracle_agrees_on_float_maps():
    f = M("z1^2 + z2^2", "z1^2 + z1*z2 + 2*z2^2")
    g = GraphMap(f.f1.to_float(), f.f2.to_float())
    assert abs(complex(resultant(f)) - resultant_root_oracle(g)) < 1e-10


def test_exact_covariance_single_frozen_instance():
    f = M("z1^2 + z1*z2 + z2^2", "z1*z2 + 1")
    r1 = [[1, 1], [0, 1]]
    r2 = [[2, 0], [1, 1]]
    g = precondition(f, r1, r2)
    d = f.d
    det1 = GaussianRational(1)  # det r1
    det2 = GaussianRational(2)  # det r2
    assert resultant(g) == det2 ** d * det1 ** (d * d) * resultant(f)


# ---------------------------------------------------------------------------
# block factorization


def test_block_shape_frozen_d2():
    shapes = [block_shape(2, k) for k in (3, 5, 7, 9)]
    assert [s.copies for s in shapes] == [1, 1, 6, 6]
    assert [s.modified for s in shapes] == [False, True, False, True]
    assert [s.ell for s in shapes] == [1, 1, 3, 3]


def test_block_shape_rejects_small_k():
    with pytest.raises(ValueError):
        block_shape(2, 2)


def test_total_copies_growth():
    s = sum(block_shape(2, k).copies for k in range(3, 17))
    assert s == 144
    target = 2 * 8 ** 3 / 6
    assert abs(s / target - 1.0) <= 0.25


def test_block_factorization_frozen_map():
    f = M("z1^2 + z1*z2 + z2^2", "z1*z2 + 1")
    res = resultant(f)
    for k in (3, 5, 7, 9):
        report = block_factorization(f, k)
        assert report.matches
        assert report.sign in (-1, 1)
        assert report.det == res ** report.shape.copies or (
            report.det == -(res ** report.shape.copies)
        )


def test_block_factorization_random_pairs():
    rng = random.Random(11)
    for _ in range(3):
        f = random_regular_map(rng, 2)
        for k in (3, 5):
            assert block_factorization(f, k).matches


def _direct_block_det(f, k):
    """det(M_k) from rows built by direct powers of the top forms."""
    d = f.d
    shape = block_shape(d, k)
    fh1, fh2 = f.top_forms()
    matrix = []
    for s in range(shape.ell + 1):
        base = fh1 ** (shape.ell - s) * fh2 ** s
        for j in range(d):
            p = base * Polynomial({z_monomial((shape.r + d - 1 - j, j)): GaussianRational(1)}, "exact")
            row = [GaussianRational(0)] * shape.rows
            for m, c in p.terms.items():
                assert m.b1 + m.b2 == k
                row[m.b2] = c
            matrix.append(row)
    return bareiss_det(matrix)


def test_block_factorization_reads_its_own_product_table():
    f = random_generic_map(random.Random(4), 3)
    g = random_generic_map(random.Random(9), 3)
    ks = list(range(5, 16))
    want = {k: _direct_block_det(f, k) for k in ks}
    for k in ks + ks[::-1]:  # ascending fills the map's memo, descending reads it
        report = block_factorization(f, k)
        assert report.det == want[k] and report.matches
    # a second map keeps products of its own, and a fresh copy starts empty
    for k in ks[::-1]:
        assert block_factorization(g, k).det == _direct_block_det(g, k)
    assert f._memo is not g._memo
    fh1 = ("top_product", 1, 0)
    assert f._memo[fh1] != g._memo[fh1]
    assert GraphMap(f.f1, f.f2)._memo == {}
