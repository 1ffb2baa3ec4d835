from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from capax import GaussianRational

I = GaussianRational(0, 1)


def test_construction_and_coercion():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert a.re == Fraction(1, 2)
    assert a.im == Fraction(-3, 4)
    assert GaussianRational.coerce(5) == GaussianRational(5)
    assert GaussianRational.coerce(Fraction(2, 3)) == GaussianRational(Fraction(2, 3))
    assert GaussianRational.coerce(a) is a


def test_arithmetic_frozen():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a + b == GaussianRational(4, 1)
    assert a - b == GaussianRational(-2, 3)
    assert a * b == GaussianRational(5, 5)
    assert a / b == GaussianRational(Fraction(1, 10), Fraction(7, 10))
    assert a ** 3 == GaussianRational(-11, -2)
    assert -a == GaussianRational(-1, -2)


def test_conjugate_and_abs2():
    a = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    assert a.conjugate() == GaussianRational(Fraction(3, 5), Fraction(-4, 5))
    assert a.abs2() == 1
    assert (a * a.conjugate()).re == a.abs2()


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_truthiness_and_complex():
    assert not GaussianRational(0, 0)
    assert GaussianRational(0, 1)
    assert complex(GaussianRational(Fraction(1, 2), 1)) == 0.5 + 1j


small_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=16
)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians)
def test_multiplicative_inverse(a):
    if not a:
        return
    assert a * (GaussianRational(1) / a) == GaussianRational(1)


@given(gaussians, gaussians)
def test_abs2_multiplicative(a, b):
    assert (a * b).abs2() == a.abs2() * b.abs2()


@given(st.integers(min_value=0, max_value=12), gaussians)
def test_pow_matches_repeated_product(n, a):
    out = GaussianRational(1)
    for _ in range(n):
        out = out * a
    assert a ** n == out


def test_canonical_form_equality_and_hash():
    a = GaussianRational(Fraction(2, 4), Fraction(1, 6))
    b = GaussianRational(Fraction(1, 2)) + GaussianRational(0, Fraction(1, 6))
    c = GaussianRational(Fraction(3, 2), Fraction(1, 2)) / GaussianRational(3)
    assert a == b
    assert hash(a) == hash(b)
    assert (a.a, a.b, a.d) == (b.a, b.b, b.d) == (3, 1, 6)
    assert c == a and hash(c) == hash(a)
    assert (GaussianRational(Fraction(3, 4)) * 4 - 3).d == 1
    zero = GaussianRational(Fraction(1, 3), 1) - GaussianRational(Fraction(1, 3), 1)
    assert (zero.a, zero.b, zero.d) == (0, 0, 1)


def test_real_values_hash_and_compare_like_fractions():
    assert hash(GaussianRational(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert hash(GaussianRational(3)) == hash(3)
    assert hash(GaussianRational(Fraction(6, 2))) == hash(3)
    assert GaussianRational(3) == 3
    assert GaussianRational(Fraction(3, 2)) == Fraction(3, 2)
    assert GaussianRational(Fraction(3, 2)) != Fraction(3, 4)
    assert GaussianRational(3, 1) != 3
    assert {GaussianRational(Fraction(4, 2)): "x"}[2] == "x"


def test_parts_are_reduced_fractions():
    a = GaussianRational(Fraction(3, 4), Fraction(-5, 6))
    for part, value in ((a.re, Fraction(3, 4)), (a.im, Fraction(-5, 6))):
        assert type(part) is Fraction
        assert part == value
        assert (part.numerator, part.denominator) == (value.numerator, value.denominator)
    b = a + GaussianRational(Fraction(1, 4))
    assert (b.re.numerator, b.re.denominator) == (1, 1)
    assert (b.im.numerator, b.im.denominator) == (-5, 6)
    with pytest.raises(AttributeError):
        a.re = Fraction(1)


def test_constructor_accepts_what_fraction_accepts():
    assert GaussianRational("1/2", "-3") == GaussianRational(Fraction(1, 2), -3)
    assert GaussianRational(0.25) == GaussianRational(Fraction(1, 4))
    assert GaussianRational(True) == 1


def test_repr_strings():
    assert repr(GaussianRational(3)) == "GaussianRational(3)"
    assert repr(GaussianRational(Fraction(6, 4))) == "GaussianRational(3/2)"
    assert repr(GaussianRational(Fraction(1, 2), Fraction(-1, 3))) == "GaussianRational(1/2, -1/3)"
    assert repr(GaussianRational(0, 1)) == "GaussianRational(0, 1)"
    assert repr(GaussianRational(Fraction(2, 6), 2) - GaussianRational(0, 2)) == "GaussianRational(1/3)"
