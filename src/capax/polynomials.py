"""Sparse polynomials in C[w1, w2, z1, z2] and the monomial orders on them.

A monomial is the exponent quadruple (a1, a2, b1, b2) for w1^a1 w2^a2 z1^b1
z2^b2.  Polynomials are dicts from monomials to coefficients at one of two
precisions: "exact" (GaussianRational) or "float" (python complex).  The two
never mix silently; convert with .to_float().

Orders are small key objects.  All three orders used downstream are graded; ties
are broken so that a larger exponent in a more significant variable gives the
larger monomial, with significance z2 > z1 > w2 > w1.  At degree one this reads
w1 < w2 < z1 < z2, and within each degree the pure-w monomials come first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, NamedTuple, Union

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


class MonomialOrder:
    """Total order on monomials given by a sort key; larger key = larger monomial."""

    name: str = "order"

    def key(self, m: Monomial):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<order {self.name}>"


class _Grevlex4(MonomialOrder):
    """Graded on total degree, ties by exponents of z2, z1, w2, w1 in turn."""

    name = "grevlex4"

    def key(self, m: Monomial):
        return (m.degree(), m.b2, m.b1, m.a2, m.a1)


class _GrevlexZ(MonomialOrder):
    """Graded on |beta|; the w-part only breaks remaining ties."""

    name = "grevlex_z"

    def key(self, m: Monomial):
        return (m.b1 + m.b2, m.b2, m.a1 + m.a2, m.a2)


class GraphWeighted(MonomialOrder):
    """Graded on the filtration weight d|alpha| + |beta|, then on |alpha|.

    Within one weight level the w-heavy monomials sort later, so the leading
    term of a normal form picks out the pure-w content when one exists.
    """

    def __init__(self, d: int) -> None:
        if d < 1:
            raise ValueError("weight needs d >= 1")
        self.d = d
        self.name = f"graph_weighted({d})"

    def key(self, m: Monomial):
        return (m.weight(self.d), m.a1 + m.a2, m.a2, m.b2)


GREVLEX4 = _Grevlex4()
GREVLEX_Z = _GrevlexZ()

Coefficient = Union[GaussianRational, complex]
Scalar = Union[GaussianRational, complex, float, int, Fraction]


def _coerce_scalar(value: Scalar, precision: str) -> Coefficient:
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

    def __init__(self, terms: Mapping[Monomial, Coefficient], precision: str) -> None:
        if precision not in ("exact", "float"):
            raise ValueError(f"unknown precision {precision!r}")
        clean: dict[Monomial, Coefficient] = {}
        for m, c in terms.items():
            if not isinstance(m, Monomial):
                m = Monomial(*m)
            _check_exponents(m)
            if precision == "exact":
                c = GaussianRational.coerce(c)
                if not c:
                    continue
            else:
                c = complex(c)
                if c == 0:
                    continue
            clean[m] = c
        self.terms = clean
        self.precision = precision

    # -- constructors -----------------------------------------------------

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
        one = GaussianRational(1) if precision == "exact" else 1.0 + 0.0j
        return Polynomial({Monomial(*exps): one}, precision)

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

    def sorted_terms(self, order: MonomialOrder):
        """Terms as (monomial, coeff), largest first."""
        return sorted(self.terms.items(), key=lambda mc: order.key(mc[0]), reverse=True)

    def leading_term(self, order: MonomialOrder) -> tuple[Monomial, Coefficient]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        return self.leading_term(order)[0]

    def coefficient(self, m: Monomial) -> Coefficient:
        zero: Coefficient = GaussianRational(0) if self.precision == "exact" else 0.0j
        return self.terms.get(m, zero)

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
        zero: Any = GaussianRational(0) if self.precision == "exact" else 0.0j
        for m, c in other.terms.items():
            s = terms.get(m, zero) + c
            if (not s) if self.precision == "exact" else s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        out = Polynomial.__new__(Polynomial)
        out.terms = terms
        out.precision = self.precision
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.terms = {m: -c for m, c in self.terms.items()}
        out.precision = self.precision
        return out

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.precision)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value: Scalar) -> "Polynomial":
        c0 = _coerce_scalar(value, self.precision)
        if (not c0) if self.precision == "exact" else c0 == 0:
            return Polynomial.zero(self.precision)
        out = Polynomial.__new__(Polynomial)
        out.terms = {m: c0 * c for m, c in self.terms.items()}
        out.precision = self.precision
        return out

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._require_same(other)
        zero: Any = GaussianRational(0) if self.precision == "exact" else 0.0j
        terms: dict[Monomial, Any] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                s = terms.get(m, zero) + c1 * c2
                if (not s) if self.precision == "exact" else s == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = s
        out = Polynomial.__new__(Polynomial)
        out.terms = terms
        out.precision = self.precision
        return out

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
        if self.precision == "float":
            return self
        return Polynomial({m: complex(c) for m, c in self.terms.items()}, "float")

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, w: tuple, z: tuple):
        """Numeric evaluation at w = (w1, w2), z = (z1, z2).

        Values may be python/numpy scalars or numpy arrays (the result then
        broadcasts), or GaussianRational for the exact path.  Powers are
        memoized per variable, so dense meshes cost one multiply per term.
        """
        vals = (w[0], w[1], z[0], z[1])
        powers: list[dict[int, Any]] = [{0: None} for _ in range(4)]

        def power(i: int, e: int):
            cache = powers[i]
            if e in cache and e != 0:
                return cache[e]
            if e == 0:
                return None
            prev = power(i, e - 1)
            cache[e] = vals[i] if prev is None else prev * vals[i]
            return cache[e]

        acc = None
        for m, c in self.terms.items():
            term: Any = c
            for i, e in enumerate(m):
                p = power(i, e)
                if p is not None:
                    term = term * p
            acc = term if acc is None else acc + term
        if acc is None:
            if self.precision == "exact":
                return GaussianRational(0)
            return 0.0j
        return acc

    def substitute(self, repl: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials; unmentioned variables persist."""
        vals = []
        for name in VARIABLES:
            if name in repl:
                p = repl[name]
                self._require_same(p)
                vals.append(p)
            else:
                vals.append(Polynomial.variable(name, self.precision))
        result = Polynomial.zero(self.precision)
        cache: list[dict[int, Polynomial]] = [dict() for _ in range(4)]

        def power(i: int, e: int) -> Polynomial:
            if e == 0:
                return Polynomial.constant(1, self.precision)
            if e not in cache[i]:
                cache[i][e] = power(i, e - 1) * vals[i]
            return cache[i][e]

        for m, c in self.terms.items():
            term = Polynomial.constant(c, self.precision)
            for i, e in enumerate(m):
                if e:
                    term = term * power(i, e)
            result = result + term
        return result

    def __str__(self) -> str:
        from .parsing import format_poly

        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial(<{len(self.terms)} terms>, {self.precision!r})"
