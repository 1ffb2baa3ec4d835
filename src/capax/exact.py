"""Exact complex scalars: Gaussian rationals.

The exact polynomial path carries coefficients in Q(i), stored as a pair of
`fractions.Fraction`.  The class implements the field operations, so generic
code (polynomial arithmetic, elimination, determinants) runs unchanged over
floats or exact scalars.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]


class GaussianRational:
    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0) -> None:
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(value: "GaussianRational | RatLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    def __add__(self, other):
        other = self.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = self.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.coerce(other)
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

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
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|self|^2, exactly."""
        return self.re * self.re + self.im * self.im

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"
