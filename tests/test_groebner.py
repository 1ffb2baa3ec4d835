import pytest

from capax import GREVLEX4, GaussianRational, parse_poly
from capax.groebner import buchberger, reduce_full, s_polynomial, staircase_of
from capax.polynomials import Monomial, z_monomial


def P(text):
    return parse_poly(text)


def test_reduce_full_single_divisor():
    # z1^2 z2 reduces to -z2^2 modulo z1^2 + z2
    rem = reduce_full(P("z1^2*z2"), [P("z1^2 + z2")])
    assert rem == P("0 - z2^2")


def test_reduce_full_is_idempotent_on_remainder():
    basis = [P("z1^2 + z2"), P("z2^2 + 1")]
    rem = reduce_full(P("z1^4 + z1*z2^3"), basis)
    assert reduce_full(rem, basis) == rem


def test_s_polynomial_cancels_leading_terms():
    f = P("z2^2 + z1^2")
    g = P("z1*z2 + 1")
    s = s_polynomial(f, g)
    lead = GREVLEX4(z_monomial((1, 2)))
    for m in s.terms:
        assert GREVLEX4(m) < lead


def test_buchberger_monic_and_closed():
    gens = [P("z1^2 + z1*z2 + z2^2"), P("z1*z2 + 1")]
    gb = buchberger(gens)
    for g in gb:
        _, lc = g.leading_term(GREVLEX4)
        assert lc == GaussianRational(1)
    # every S-polynomial reduces to zero
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = s_polynomial(gb[i], gb[j])
            assert reduce_full(s, gb).is_zero()
    # generators reduce to zero against their own basis
    for g in gens:
        assert reduce_full(g, gb).is_zero()


def test_staircase_of_frozen():
    gb = buchberger([P("z1^2"), P("z2^2")])
    stairs = staircase_of(gb)
    assert stairs == [
        Monomial(0, 0, 0, 0),
        Monomial(0, 0, 1, 0),
        Monomial(0, 0, 0, 1),
        Monomial(0, 0, 1, 1),
    ]


def test_staircase_of_rejects_positive_dimension():
    gb = buchberger([P("z1*z2")])
    with pytest.raises(ValueError):
        staircase_of(gb)
