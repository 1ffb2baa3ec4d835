from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from capax import GaussianRational, ParseError, Polynomial, format_poly, parse_poly
from capax.polynomials import Monomial


def test_basic_forms():
    p = parse_poly("z1^2 + z2")
    assert p.coefficient(Monomial(0, 0, 2, 0)) == GaussianRational(1)
    assert p.coefficient(Monomial(0, 0, 0, 1)) == GaussianRational(1)
    assert parse_poly("3") == Polynomial.constant(3)
    assert parse_poly("0").is_zero()


def test_rational_and_imaginary_coefficients():
    p = parse_poly("1/2*w1 + 3*i*z2 - 2")
    assert p.coefficient(Monomial(1, 0, 0, 0)) == GaussianRational(Fraction(1, 2))
    assert p.coefficient(Monomial(0, 0, 0, 1)) == GaussianRational(0, 3)
    assert p.coefficient(Monomial(0, 0, 0, 0)) == GaussianRational(-2)


def test_parenthesized_complex_coefficient():
    p = parse_poly("(1/2 + 3/2*i)*w1*z2^2")
    assert p.coefficient(Monomial(1, 0, 0, 2)) == GaussianRational(
        Fraction(1, 2), Fraction(3, 2)
    )


def test_implicit_products_require_star():
    with pytest.raises(ParseError):
        parse_poly("2z1")


def test_decimal_literals_in_both_precisions():
    p = parse_poly("0.5*z1", precision="float")
    assert p.precision == "float"
    assert abs(p.coefficient(Monomial(0, 0, 1, 0)) - 0.5) == 0
    # exact mode reads the same text as a fraction with a power-of-ten denominator
    q = parse_poly("0.5*z1", precision="exact")
    assert q.coefficient(Monomial(0, 0, 1, 0)) == GaussianRational(Fraction(1, 2))
    # an exponent part after the dot, a dot with no digits after it or none before it
    assert parse_poly("2.5e-3*z1") == Fraction(1, 400) * parse_poly("z1")
    assert parse_poly("1.e5*w1") == 100000 * parse_poly("w1")
    assert parse_poly(".5*w1") == Fraction(1, 2) * parse_poly("w1")


def test_float_rationals_round_as_division():
    p = parse_poly("1/3*z1 - 2/7", "float")
    c1 = p.coefficient(Monomial(0, 0, 1, 0))
    c0 = p.coefficient(Monomial(0, 0, 0, 0))
    assert (c1.real.hex(), c1.imag) == ((1 / 3).hex(), 0.0)
    assert (c0.real.hex(), c0.imag) == ((-2 / 7).hex(), 0.0)


def test_sign_handling():
    assert parse_poly("-z1 - 2") == parse_poly("0 - z1 - 2")
    assert parse_poly("-1/2*w1") == parse_poly("0 - 1/2*w1")
    with pytest.raises(ParseError):
        parse_poly("z1 + -2")


def test_power_binds_tighter_than_product():
    assert parse_poly("2*z1^2") == parse_poly("2*(z1^2)")


def test_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_poly("z1 + + z2")
    assert err.value.offset == 5
    with pytest.raises(ParseError):
        parse_poly("z3")
    with pytest.raises(ParseError):
        parse_poly("w1^")
    with pytest.raises(ParseError):
        parse_poly("(z1")


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("1.2.3", "malformed number", 3),  # a second dot, at that dot
        ("2e3", "trailing input 'e3'", 1),  # an exponent part only after a dot
        ("2.5e", "trailing input 'e'", 3),  # an exponent part needs digits
        (".", "malformed number: Invalid literal for Fraction: '.'", 0),
        ("z_1", "unexpected character '_'", 1),  # names have no underscore
        ("z1 $", "unexpected character '$'", 3),
        ("zé", "unknown name 'zé'", 0),  # a name is letters, then letters or digits
        ("1.5/2", "rational with a decimal numerator", 0),
        ("w1^1.5", "expected integer exponent", 3),
        ("z1 + + $", "expected a factor", 5),  # tokens are read lazily
        # a superscript digit is no decimal digit, in a number, a denominator or an exponent
        ("²*z1", "unexpected character '²'", 0),
        ("1/²", "unexpected character '²'", 2),
        ("w1^²", "unexpected character '²'", 3),
    ],
)
def test_scanner_errors_frozen(text, message, offset):
    for precision in ("exact", "float"):
        with pytest.raises(ParseError) as err:
            parse_poly(text, precision)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset


def test_float_literal_that_overflows_is_rejected():
    for text in ("1.0e400*z1^2", "1" + "0" * 400):
        with pytest.raises(ParseError):
            parse_poly(text, "float")
    assert parse_poly("1.0e400*z1^2") == parse_poly(f"1{'0' * 400}*z1^2")


def test_float_literal_that_underflows_is_rejected():
    for text in ("1/1" + "0" * 400 + "*z1^2", "0." + "0" * 400 + "1*z1", "1.0e-400*z1", "2.0e-324"):
        with pytest.raises(ParseError, match="underflows a float"):
            parse_poly(text, "float")
        assert not parse_poly(text).is_zero()  # the exact reading keeps the number
    # zero is not an underflow, and the smallest subnormal still reads
    for text in ("0.0*z1", "0/5*z1", "0.0e-400*z1"):
        assert parse_poly(text, "float").is_zero()
    assert parse_poly("4.9e-324*z1", "float").coefficient(Monomial(0, 0, 1, 0)) == 5e-324
    # a rational is converted whole, so neither of its parts needs to fit a float
    assert parse_poly("1" + "0" * 400 + "/2" + "0" * 400 + "*z1", "float") == parse_poly("0.5*z1", "float")


def test_division_only_by_integers():
    assert parse_poly("3/2") == Polynomial.constant(GaussianRational(Fraction(3, 2)))
    with pytest.raises(ParseError):
        parse_poly("z1/z2")


def test_format_frozen():
    assert format_poly(parse_poly("z2 + z1^2")) == "z1^2 + z2"
    assert format_poly(parse_poly("-z1 + z2")) == "z2 - z1"
    assert format_poly(parse_poly("0")) == "0"
    assert format_poly(parse_poly("w1 - 1/2")) == "w1 - 1/2"
    assert format_poly(parse_poly("i*z1")) == "i*z1"
    assert format_poly(parse_poly("(1+i)*z1")) == "(1+i)*z1"


coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
monomials = st.builds(
    Monomial,
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
polys = st.dictionaries(monomials, coeffs, max_size=6).map(
    lambda terms: Polynomial(terms, "exact")
)


@given(polys)
@settings(max_examples=120, deadline=None)
def test_print_parse_round_trip(p):
    assert parse_poly(format_poly(p)) == p


def test_float_round_trip():
    for text in ("0.125*z1 + 2.5*w2^2 - 3", "(1.5-i)*z1^2 + (0.25+2.5*i)*w2 - i"):
        p = parse_poly(text, precision="float")
        assert parse_poly(format_poly(p), precision="float") == p
