"""Sparse polynomials in C[w1, w2, z1, z2] and the monomial orders on them.

A monomial is the exponent quadruple (a1, a2, b1, b2) for w1^a1 w2^a2 z1^b1
z2^b2.  Polynomials are dicts from monomials to coefficients at one of two
precisions: "exact" (GaussianRational) or "float" (python complex).  This
module defines each precision's coefficient field once: ZERO and ONE hold its
zero and one, _coerce_scalar brings a scalar into it, and `not c` is the one
zero test (it means the same for both types, NaN and -0.0 included).  The two
precisions never mix silently; convert with .to_float(), which refuses a
coefficient that no normal float keeps, or with .to_exact().
monomial_values is the one evaluator of monomials, used by evaluation,
substitution, the fiber solver's two coefficient tables (the multiplication
matrices in w, the map and its Jacobian in z) and monomial_matrix, the one
builder of the monomial matrices of sampled sets.

An order is a key function on monomials; a larger key is a larger monomial.
There are two, both graded.  GREVLEX4 grades by total degree and runs all
Groebner work; ties go to the larger exponent of the more significant variable,
with significance z2 > z1 > w2 > w1, so at degree one w1 < w2 < z1 < z2 and
within each degree the pure-w monomials come first.  GraphWeighted(d) grades
by the filtration weight d|alpha| + |beta| and orders the graph basis streams.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from functools import reduce
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import DegreeOverflowError, PrecisionError
from .exact import GaussianRational

MAX_EXPONENT = 256

VARIABLES = ("w1", "w2", "z1", "z2")


class Monomial(NamedTuple):
    a1: int
    a2: int
    b1: int
    b2: int

    @property
    def alpha(self) -> tuple[int, int]:
        return (self.a1, self.a2)

    @property
    def beta(self) -> tuple[int, int]:
        return (self.b1, self.b2)

    def degree(self) -> int:
        return self.a1 + self.a2 + self.b1 + self.b2

    def weight(self, d: int) -> int:
        """Filtration weight d*|alpha| + |beta|."""
        return d * (self.a1 + self.a2) + self.b1 + self.b2

    def is_pure_w(self) -> bool:
        return self.b1 == 0 and self.b2 == 0

    def is_pure_z(self) -> bool:
        return self.a1 == 0 and self.a2 == 0

    def mul(self, other: "Monomial") -> "Monomial":
        m = Monomial(
            self.a1 + other.a1,
            self.a2 + other.a2,
            self.b1 + other.b1,
            self.b2 + other.b2,
        )
        if max(m) > MAX_EXPONENT:  # a sum of valid exponents can break only this bound
            _check_exponents(m)
        return m

    def divides(self, other: "Monomial") -> bool:
        return all(s <= o for s, o in zip(self, other))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; caller guarantees divisibility."""
        return Monomial(
            self.a1 - other.a1,
            self.a2 - other.a2,
            self.b1 - other.b1,
            self.b2 - other.b2,
        )

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(*(max(s, o) for s, o in zip(self, other)))


ONE_MONOMIAL = Monomial(0, 0, 0, 0)


def _check_exponents(m: Monomial) -> None:
    if any(e < 0 for e in m):
        raise DegreeOverflowError(f"negative exponent in {tuple(m)}")
    if any(e > MAX_EXPONENT for e in m):
        raise DegreeOverflowError(
            f"exponent beyond {MAX_EXPONENT} in {tuple(m)}; "
            "this guard exists to catch runaway symbolic growth"
        )


def w_monomial(alpha: tuple[int, int]) -> Monomial:
    return Monomial(alpha[0], alpha[1], 0, 0)


def z_monomial(beta: tuple[int, int]) -> Monomial:
    return Monomial(0, 0, beta[0], beta[1])


def GREVLEX4(m: Monomial) -> tuple[int, ...]:
    """Graded on total degree, ties by exponents of z2, z1, w2, w1 in turn."""
    return (m.degree(), m.b2, m.b1, m.a2, m.a1)


def GraphWeighted(d: int) -> Callable[[Monomial], tuple[int, ...]]:
    """Key graded on the filtration weight d|alpha| + |beta|, then on |alpha|.

    Within one weight level the w-heavy monomials sort later, so the leading
    term of a normal form picks out the pure-w content when one exists.
    """
    if d < 1:
        raise ValueError("weight needs d >= 1")
    return lambda m: (m.weight(d), m.a1 + m.a2, m.a2, m.b2)


Coefficient = Union[GaussianRational, complex]
Scalar = Union[GaussianRational, complex, float, int, Fraction]

ZERO: dict[str, Coefficient] = {"exact": GaussianRational(0), "float": 0j}
ONE: dict[str, Coefficient] = {"exact": GaussianRational(1), "float": 1 + 0j}


def _coerce_scalar(value: Scalar, precision: str) -> Coefficient:
    """value in the precision's field; PrecisionError for a scalar of the other."""
    if precision == "exact":
        if isinstance(value, (GaussianRational, int, Fraction)):
            return GaussianRational.coerce(value)
        raise PrecisionError(
            f"cannot use {type(value).__name__} as an exact coefficient"
        )
    if isinstance(value, GaussianRational):
        raise PrecisionError("exact scalar fed to a float polynomial; convert explicitly")
    return complex(value)


class Polynomial:
    """Immutable-by-convention sparse polynomial.

    terms maps Monomial -> nonzero coefficient.  Do not mutate terms after
    construction; every operation returns a fresh Polynomial.
    """

    __slots__ = ("terms", "precision")

    def __init__(self, terms: Mapping[Monomial, Scalar], precision: str) -> None:
        if precision not in ZERO:
            raise ValueError(f"unknown precision {precision!r}")
        clean: dict[Monomial, Coefficient] = {}
        for m, c in terms.items():
            if not isinstance(m, Monomial):
                m = Monomial(*m)
            _check_exponents(m)
            c = _coerce_scalar(c, precision)
            if c:
                clean[m] = c
        self.terms = clean
        self.precision = precision

    # -- constructors -----------------------------------------------------

    @staticmethod
    def _of(terms: dict[Monomial, Coefficient], precision: str) -> "Polynomial":
        """Wrap terms that are already clean: Monomial keys, nonzero
        coefficients of the precision.  Nothing is checked or copied."""
        out = Polynomial.__new__(Polynomial)
        out.terms = terms
        out.precision = precision
        return out

    @staticmethod
    def zero(precision: str = "exact") -> "Polynomial":
        return Polynomial({}, precision)

    @staticmethod
    def constant(value: Scalar, precision: str = "exact") -> "Polynomial":
        return Polynomial({ONE_MONOMIAL: _coerce_scalar(value, precision)}, precision)

    @staticmethod
    def variable(name: str, precision: str = "exact") -> "Polynomial":
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}")
        exps = [0, 0, 0, 0]
        exps[VARIABLES.index(name)] = 1
        return Polynomial({Monomial(*exps): ONE[precision]}, precision)

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree() for m in self.terms)

    def is_pure_z(self) -> bool:
        return all(m.is_pure_z() for m in self.terms)

    def is_pure_w(self) -> bool:
        return all(m.is_pure_w() for m in self.terms)

    def leading_term(self, key: Callable[[Monomial], Any]) -> tuple[Monomial, Coefficient]:
        """The term whose monomial has the largest key."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=key)
        return m, self.terms[m]

    def leading_monomial(self, key: Callable[[Monomial], Any]) -> Monomial:
        return self.leading_term(key)[0]

    def coefficient(self, m: Monomial) -> Coefficient:
        return self.terms.get(m, ZERO[self.precision])

    def top_form(self) -> "Polynomial":
        """Homogeneous part of top total degree."""
        d = self.degree()
        if d < 0:
            return self
        return Polynomial(
            {m: c for m, c in self.terms.items() if m.degree() == d}, self.precision
        )

    # -- arithmetic -------------------------------------------------------

    def _require_same(self, other: "Polynomial") -> None:
        if self.precision != other.precision:
            raise PrecisionError(
                "mixed exact/float polynomial arithmetic; call .to_float() first"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.precision)
        self._require_same(other)
        terms = dict(self.terms)
        zero = ZERO[self.precision]
        for m, c in other.terms.items():
            s = terms.get(m, zero) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial._of(terms, self.precision)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of({m: -c for m, c in self.terms.items()}, self.precision)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.precision)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value: Scalar) -> "Polynomial":
        c0 = _coerce_scalar(value, self.precision)
        if not c0:
            return Polynomial.zero(self.precision)
        terms = {m: c0 * c for m, c in self.terms.items()}
        # a float product can underflow to zero; drop it, as __mul__ does
        return Polynomial._of({m: c for m, c in terms.items() if c}, self.precision)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._require_same(other)
        zero = ZERO[self.precision]
        terms: dict[Monomial, Coefficient] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                s = terms.get(m, zero) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial._of(terms, self.precision)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take non-negative integers")
        result = Polynomial.constant(1, self.precision)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.precision == other.precision and self.terms == other.terms

    def __hash__(self):
        return hash((self.precision, frozenset(self.terms.items())))

    # -- conversions ------------------------------------------------------

    def to_float(self) -> "Polynomial":
        """PrecisionError when a nonzero part of an exact coefficient does not
        become a finite float of at least sys.float_info.min in magnitude: a
        subnormal keeps too few bits."""
        if self.precision == "float":
            return self
        terms = {}
        for m, c in self.terms.items():
            try:
                terms[m] = v = complex(c)
            except OverflowError:
                v = 0j
            if (c.a and abs(v.real) < sys.float_info.min) or (c.b and abs(v.imag) < sys.float_info.min):
                raise PrecisionError("an exact coefficient is beyond the float range")
        return Polynomial._of(terms, "float")

    def to_exact(self) -> "Polynomial":
        """The exact copy of a float polynomial: a finite float is a dyadic
        rational, so Fraction reads it without rounding."""
        if self.precision == "exact":
            return self
        terms = {m: GaussianRational(Fraction(c.real), Fraction(c.imag)) for m, c in self.terms.items()}
        return Polynomial._of(terms, "exact")

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, w: tuple, z: tuple):
        """Numeric evaluation at w = (w1, w2), z = (z1, z2): the sum of c * v
        over the terms, v from monomial_values.

        Values may be python/numpy scalars or numpy arrays (the result then
        broadcasts), GaussianRational for the exact path, or None for a
        variable no term uses.
        """
        values = monomial_values(self.terms, (w[0], w[1], z[0], z[1]))
        return sum((c * v for c, v in zip(self.terms.values(), values)), ZERO[self.precision])

    def substitute(self, repl: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials; unmentioned variables persist."""
        vals = [repl[x] if x in repl else Polynomial.variable(x, self.precision) for x in VARIABLES]
        for p in vals:
            self._require_same(p)
        values = monomial_values(self.terms, vals)
        zero = Polynomial.zero(self.precision)
        return sum((c * v for c, v in zip(self.terms.values(), values)), zero)

    def __str__(self) -> str:
        from .parsing import format_poly

        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial(<{len(self.terms)} terms>, {self.precision!r})"


def monomial_values(monomials: Iterable[Monomial], values: Sequence[Any]) -> Iterator[Any]:
    """Yield the value of each monomial at values = (w1, w2, z1, z2).

    Values may be exact or float scalars, numpy arrays or polynomials, or
    None for a variable that no monomial uses; the constant monomial yields
    1.  Powers are memoized per variable as x^e = x^(e-1) * x, and each value
    multiplies its factors in the order w1, w2, z1, z2.  Yielded values may
    be shared with the power table, so callers must not change them in place.
    """
    powers: list[list[Any]] = [[1, x] for x in values]
    for m in monomials:
        factors = []
        for x, table, e in zip(values, powers, m):
            if e:
                while len(table) <= e:
                    table.append(table[-1] * x)
                factors.append(table[e])
        yield reduce(operator.mul, factors) if factors else 1


def monomial_matrix(monomials: Sequence[Monomial], values: Sequence[Any]) -> np.ndarray:
    """The column-major (N, len(monomials)) matrix of monomial_values at
    values = (w1, w2, z1, z2), with w1 an array over N points."""
    out = np.empty((len(values[0]), len(monomials)), dtype=complex, order="F")
    for j, v in enumerate(monomial_values(monomials, values)):
        out[:, j] = v
    return out
