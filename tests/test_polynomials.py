import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capax import (
    GREVLEX4,
    DegreeOverflowError,
    GaussianRational,
    GraphMap,
    GraphWeighted,
    Monomial,
    Polynomial,
    PrecisionError,
)
from capax.polynomials import MAX_EXPONENT, ONE_MONOMIAL, w_monomial, z_monomial


def P(text):
    from capax import parse_poly

    return parse_poly(text)


# ---------------------------------------------------------------------------
# monomials


def test_monomial_accessors():
    m = Monomial(1, 2, 3, 4)
    assert m.alpha == (1, 2)
    assert m.beta == (3, 4)
    assert m.degree() == 10
    assert m.weight(2) == 2 * 3 + 7
    assert not m.is_pure_w()
    assert not m.is_pure_z()
    assert w_monomial((1, 2)).is_pure_w()
    assert z_monomial((3, 4)).is_pure_z()
    assert ONE_MONOMIAL.is_pure_w() and ONE_MONOMIAL.is_pure_z()


def test_monomial_lattice_ops():
    a = Monomial(1, 0, 2, 1)
    b = Monomial(0, 1, 1, 1)
    assert a.mul(b) == Monomial(1, 1, 3, 2)
    assert b.divides(a.mul(b))
    assert not b.divides(a)
    assert a.mul(b).quotient(b) == a
    assert a.lcm(b) == Monomial(1, 1, 2, 1)


def test_exponent_ceiling():
    with pytest.raises(DegreeOverflowError):
        Monomial(0, 0, MAX_EXPONENT, 1).mul(z_monomial((1, 0)))


# ---------------------------------------------------------------------------
# orders


@pytest.mark.parametrize(
    "chain",
    [
        # w1 < w2 < z1 < z2 at degree 1
        [w_monomial((1, 0)), w_monomial((0, 1)), z_monomial((1, 0)), z_monomial((0, 1))],
        # z1^2 < z1 z2 < z2^2
        [z_monomial((2, 0)), z_monomial((1, 1)), z_monomial((0, 2))],
    ],
    ids=["degree_one", "degree_two"],
)
def test_grevlex4_chain(chain):
    keys = [GREVLEX4(m) for m in chain]
    assert keys == sorted(keys)
    assert max(chain, key=GREVLEX4) == chain[-1]


def test_graph_weighted_prefers_low_w_degree():
    key = GraphWeighted(2)
    # same weight 2: z1^2 before w1 before w2
    assert key(z_monomial((2, 0))) < key(w_monomial((1, 0)))
    assert key(w_monomial((1, 0))) < key(w_monomial((0, 1)))
    assert key(w_monomial((1, 0))) < key(z_monomial((0, 3)))  # weight 2 < 3


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_square_expansion():
    assert P("z1 + z2") ** 2 == P("z1^2 + 2*z1*z2 + z2^2")


def test_zero_pruning_and_degree():
    p = P("z1^2 + z2") - P("z1^2")
    assert p == P("z2")
    assert p.degree() == 1
    assert (p - p).is_zero()
    assert Polynomial.zero().degree() == -1


def test_top_form():
    p = P("z1^2 + z1*z2 + z2 + 1")
    assert p.top_form() == P("z1^2 + z1*z2")


def test_scale_and_precision_guard():
    p = P("z1 + z2")
    assert p.scale(GaussianRational(2)) == P("2*z1 + 2*z2")
    q = p.to_float()
    assert q.precision == "float"
    with pytest.raises(Exception):
        p + q


@pytest.mark.parametrize(
    "text", ["10^400*z1 + 1", "z1 + 10^400*i", "1/10^400*z2^2 + z1", "z2 + 1/10^400*i"]
)
def test_to_float_rejects_coefficients_beyond_the_float_range(text):
    # 10^400 overflows a float, and 1/10^400 would drop a term, here the
    # z2^2 that sets the degree of the map (z1^2 + z2, 1/10^400 z2^2 + z1)
    p = P(text.replace("10^400", "1" + "0" * 400))
    with pytest.raises(PrecisionError):
        p.to_float()


def test_to_float_rejects_subnormal_coefficients():
    # 10^-317 is a subnormal float, which keeps 14 of 53 bits: the float copy
    # of this map once had |Res| off by a factor of 6.3
    t = "1/1" + "0" * 317
    f = GraphMap(P(f"{t}*z1^2 + 3*{t}*z1*z2 + {t}*z2^2"), P(f"2*{t}*z1^2 + {t}*z2^2 + z1"))
    with pytest.raises(PrecisionError):
        f.to_float()
    # an imaginary part alone
    with pytest.raises(PrecisionError):
        P(f"z1 + {t}*i*z1").to_float()
    # the least normal float itself converts
    least = Polynomial({z_monomial((1, 0)): GaussianRational(Fraction(1, 2**1022))}, "exact")
    assert least.to_float().terms == {z_monomial((1, 0)): complex(sys.float_info.min)}


def test_constructor_rejects_scalars_of_the_other_precision():
    z1 = z_monomial((1, 0))
    with pytest.raises(PrecisionError):
        Polynomial({z1: 0.5}, "exact")
    with pytest.raises(PrecisionError):
        Polynomial({z1: GaussianRational(1, 2)}, "float")


def test_coefficient_of_absent_monomial_per_precision():
    exact = P("z1").coefficient(z_monomial((0, 1)))
    assert type(exact) is GaussianRational and exact == GaussianRational(0)
    floating = P("z1").to_float().coefficient(z_monomial((0, 1)))
    assert type(floating) is complex and floating == 0j


def test_float_nan_survives_and_negative_zero_drops():
    z1, z2 = z_monomial((1, 0)), z_monomial((0, 1))
    nan = complex(math.nan, 0.0)
    p = Polynomial({z1: nan, z2: 1.0}, "float")
    assert math.isnan((p + P("z2").to_float()).terms[z1].real)
    assert math.isnan((p * P("z1").to_float()).terms[z_monomial((2, 0))].real)
    assert math.isnan(p.scale(2.0).terms[z1].real)
    assert Polynomial({z1: -0.0, z2: complex(-0.0, -0.0)}, "float").is_zero()
    # the product coefficient underflows to -0.0, which is zero
    tiny = Polynomial({z1: -1e-200}, "float") * Polynomial({z1: 1e-200}, "float")
    assert tiny.is_zero()
    assert (p - Polynomial({z2: 1.0}, "float")).terms.keys() == {z1}


def test_evaluate_exact_point():
    p = P("w1*z2 + z1^2")
    value = p.evaluate(
        (GaussianRational(2), GaussianRational(0)),
        (GaussianRational(1, 1), GaussianRational(3)),
    )
    # (1+i)^2 + 2*3 = 2i + 6
    assert value == GaussianRational(6, 2)


def test_evaluate_float_arrays():
    p = P("z1*z2").to_float()
    z1 = np.array([1.0, 2.0, 0.5])
    z2 = np.array([2.0, 0.5, 4.0])
    out = p.evaluate((None, None), (z1, z2))
    assert np.allclose(out, [2.0, 1.0, 2.0])
    with pytest.raises(TypeError):  # a term needs w1, which has no value
        P("w1*z2").to_float().evaluate((None, None), (z1, z2))


def test_substitute_linear_change():
    p = P("z1^2")
    image = p.substitute({"z1": P("z1 + z2")})
    assert image == P("z1^2 + 2*z1*z2 + z2^2")


def test_substitute_graph_frozen():
    f1, f2 = P("z1^2 + z2"), P("z2^2 + 1")
    p = P("w2 - 1")
    assert p.substitute({"w1": f1, "w2": f2}) == P("z2^2")


# ---------------------------------------------------------------------------
# properties

coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
monomials = st.builds(
    Monomial,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
polys = st.dictionaries(monomials, coeffs, max_size=5).map(
    lambda terms: Polynomial(terms, "exact")
)
points = st.tuples(coeffs, coeffs, coeffs, coeffs)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polys, polys, points)
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(p, q, pt):
    w = (pt[0], pt[1])
    z = (pt[2], pt[3])
    assert (p * q).evaluate(w, z) == p.evaluate(w, z) * q.evaluate(w, z)
    assert (p + q).evaluate(w, z) == p.evaluate(w, z) + q.evaluate(w, z)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_leading_term_is_maximal(p):
    if p.is_zero():
        return
    lm, lc = p.leading_term(GREVLEX4)
    assert lc
    for m in p.terms:
        assert GREVLEX4(m) <= GREVLEX4(lm)
