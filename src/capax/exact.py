"""Exact complex scalars: Gaussian rationals.

The exact polynomial path carries coefficients in Q(i).  A value is stored as
three Python ints, (a + b i) / d, with d > 0 and gcd(a, b, d) == 1.  That form
is canonical: equal values have equal triples, so equality compares ints.
Every operation does its integer arithmetic and then divides through by one
three-argument gcd.  `re` and `im` are read-only reduced Fractions.

The class implements the field operations, so generic code (polynomial
arithmetic, elimination, determinants) runs unchanged over floats or exact
scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

RatLike = Union[int, Fraction]


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b i) / d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    z = object.__new__(GaussianRational)
    if g == 1:
        z.a, z.b, z.d = a, b, d
    else:
        z.a, z.b, z.d = a // g, b // g, d // g
    return z


class GaussianRational:
    __slots__ = ("a", "b", "d")

    def __init__(self, re: RatLike = 0, im: RatLike = 0) -> None:
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re = Fraction(re)
        im = Fraction(im)
        # both parts are reduced, so the triple over their lcm is too
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @staticmethod
    def coerce(value: "GaussianRational | RatLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    def __add__(self, other):
        other = self.coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a + other.a, self.b + other.b, d1)
        return _reduced(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a - other.a, self.b - other.b, d1)
        return _reduced(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __neg__(self):
        return _reduced(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = self.coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a1 + b1 i)/d1 * d2/(a2 + b2 i) = (a1 + b1 i)(a2 - b2 i) d2 / (d1 |a2 + b2 i|^2)
        d2 = other.d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self.d * norm)

    def __rtruediv__(self, other):
        return self.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return _reduced(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        """|self|^2, exactly."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.b == 0 and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return self.b == 0 and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __complex__(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"
