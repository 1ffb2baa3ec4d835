"""Text form of polynomials: a small grammar and a canonical printer.

Grammar (whitespace free between any two tokens):

    poly    :=  [sign] term (sign term)*
    term    :=  factor ('*' factor)*
    factor  :=  number  |  'i'  |  var ['^' uint]  |  '(' poly ')'
    number  :=  uint ['/' uint]  |  decimal
    var     :=  'w1' | 'w2' | 'z1' | 'z2'

The tokens (uint, decimal, names and the operators) are the groups of one
pattern, _TOKEN, which states the lexical rules once: a decimal has one dot
and, only after it, an optional exponent part ("2.5e-3"), so that printed
float coefficients round-trip while "2e3" reads as 2 followed by the name
e3.  Multiplication is always explicit.  parse errors carry the character
offset.

The printer emits terms largest-first in the graded order on all four
variables, so equal polynomials print identically.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .exact import GaussianRational
from .polynomials import GREVLEX4, VARIABLES, ZERO, Monomial, Polynomial

_VAR_NAMES = set(VARIABLES)

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<op>[-+*^()/])
      | (?P<malformed>\d*\.\d*\.)                 # a second dot, raised at that dot
      | (?P<number>\d*\.\d*(?:[eE][+-]?\d+)?|\d+)  # an exponent part only after a dot
      | (?P<name>[^\W\d_][^\W_]*)                 # a letter, then letters or digits
      | (?P<end>\Z)
      | (?P<other>\S)
    )""",
    re.VERBOSE,
)


def _tokens(text: str):
    """Yield (kind, value, offset), kind in op/number/name, then
    ("end", "", len(text)); lazily, so a parse error comes before the scanner
    error of any later character."""
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, offset = m.group(kind), m.start(kind)
        if kind == "malformed":
            raise ParseError("malformed number", m.end() - 1)
        # re has no class of letters: [^\W\d_] also admits numerals such as ½
        if kind == "other" or kind == "name" and not value[0].isalpha():
            raise ParseError(f"unexpected character {value[0]!r}", offset)
        yield kind, value, offset


class _Parser:
    def __init__(self, text: str, precision: str) -> None:
        if precision not in ZERO:
            raise ValueError(f"unknown precision {precision!r}")
        self.tokens = _tokens(text)
        self.precision = precision
        self.current = next(self.tokens)

    def advance(self) -> None:
        self.current = next(self.tokens)

    def expect_op(self, op: str) -> None:
        kind, value, offset = self.current
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Polynomial:
        p = self.parse_poly()
        kind, value, offset = self.current
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", offset)
        return p

    def parse_poly(self) -> Polynomial:
        sign = 1
        kind, value, _ = self.current
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            self.advance()
        result = self.parse_term()
        if sign < 0:
            result = -result
        while True:
            kind, value, _ = self.current
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term()
                result = result + term if value == "+" else result - term
            else:
                return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            kind, value, _ = self.current
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Polynomial:
        kind, value, offset = self.current
        if kind == "op" and value == "(":
            self.advance()
            inner = self.parse_poly()
            self.expect_op(")")
            return inner
        if kind == "number":
            self.advance()
            num = self._number(value, offset)
            k2, v2, _ = self.current
            if k2 == "op" and v2 == "/":
                if "." in value:
                    raise ParseError("rational with a decimal numerator", offset)
                self.advance()
                k3, v3, o3 = self.current
                if k3 != "number" or not v3.isdigit():
                    raise ParseError("expected integer denominator", o3)
                if int(v3) == 0:
                    raise ParseError("zero denominator", o3)
                self.advance()
                num = Fraction(int(value), int(v3))
            return self._constant(num, offset)
        if kind == "name":
            self.advance()
            if value == "i":
                if self.precision == "exact":
                    return Polynomial.constant(GaussianRational(0, 1), "exact")
                return Polynomial.constant(1j, "float")
            if value not in _VAR_NAMES:
                raise ParseError(f"unknown name {value!r}", offset)
            var = Polynomial.variable(value, self.precision)
            kind2, v2, _ = self.current
            if kind2 == "op" and v2 == "^":
                self.advance()
                k3, v3, o3 = self.current
                if k3 != "number" or not v3.isdigit():
                    raise ParseError("expected integer exponent", o3)
                self.advance()
                return var ** int(v3)
            return var
        raise ParseError("expected a factor", offset)

    @staticmethod
    def _number(text: str, offset: int) -> int | Fraction:
        try:
            return int(text) if text.isdigit() else Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed number: {exc}", offset) from None

    def _constant(self, exact: int | Fraction, offset: int) -> Polynomial:
        """The constant polynomial of an exact number (a rational is read
        whole), at the parse precision.  A float reading must keep the number
        finite and, when it is nonzero, nonzero; the conversion rounds
        correctly, as float(text) does."""
        if self.precision == "exact":
            return Polynomial.constant(exact, "exact")
        try:
            value = float(exact)
        except OverflowError:
            raise ParseError("number overflows a float", offset) from None
        if exact and not value:
            raise ParseError("number underflows a float", offset)
        return Polynomial.constant(value, "float")


def parse_poly(text: str, precision: str = "exact") -> Polynomial:
    """Parse polynomial text in w1, w2, z1, z2 at the requested precision."""
    return _Parser(text, precision).parse()


# ---------------------------------------------------------------------------
# printing


def _format_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def _coeff_pieces(c, precision: str) -> tuple[str, bool]:
    """Magnitude text of a coefficient and whether it needs a leading minus.

    Complex coefficients (both parts nonzero) are parenthesized and never
    report a minus; real or purely imaginary ones factor the sign out.
    Exact parts print as fractions, float parts through _format_float.
    """
    if precision == "exact":
        re, im, fmt = c.re, c.im, str
    else:
        re, im, fmt = c.real, c.imag, _format_float
    if im == 0:
        return fmt(abs(re)), re < 0
    im_s = "i" if abs(im) == 1 else f"{fmt(abs(im))}*i"
    if re == 0:
        return im_s, im < 0
    return f"({fmt(re)}{'-' if im < 0 else '+'}{im_s})", False


def _monomial_text(m: Monomial) -> str:
    parts = []
    for name, e in zip(VARIABLES, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: Polynomial) -> str:
    """Canonical text: terms largest-first, explicit '*', stable coefficients."""
    if p.is_zero():
        return "0"
    pieces = []
    for m in sorted(p.terms, key=GREVLEX4, reverse=True):
        coeff_s, negative = _coeff_pieces(p.terms[m], p.precision)
        mono_s = _monomial_text(m)
        if not mono_s:
            body = coeff_s
        elif coeff_s == "1":
            body = mono_s
        else:
            body = f"{coeff_s}*{mono_s}"
        pieces.append(("-" if negative else "+", body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
