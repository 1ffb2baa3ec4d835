"""Text form of polynomials: a small grammar and a canonical printer.

Grammar (whitespace free between any two tokens):

    poly    :=  [sign] term (sign term)*
    term    :=  factor ('*' factor)*
    factor  :=  number  |  'i'  |  var ['^' uint]  |  '(' poly ')'
    number  :=  uint ['/' uint]  |  decimal
    var     :=  'w1' | 'w2' | 'z1' | 'z2'

Multiplication is always explicit.  Decimals may carry an exponent part
("2.5e-3") so that printed float coefficients round-trip.  parse errors carry
the character offset.

The printer emits terms largest-first in the graded order on all four
variables, so equal polynomials print identically.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .exact import GaussianRational
from .polynomials import GREVLEX4, VARIABLES, ZERO, Monomial, Polynomial

_VAR_NAMES = set(VARIABLES)


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def next_token(self) -> tuple[str, str, int]:
        """Returns (kind, value, offset); kind in op/number/name/end."""
        self.skip_ws()
        if self.pos >= len(self.text):
            return ("end", "", self.pos)
        start = self.pos
        ch = self.text[start]
        if ch in "+-*^()/":
            self.pos += 1
            return ("op", ch, start)
        if ch.isdigit() or ch == ".":
            j = start
            seen_dot = False
            while j < len(self.text) and (self.text[j].isdigit() or self.text[j] == "."):
                if self.text[j] == ".":
                    if seen_dot:
                        raise ParseError("malformed number", j)
                    seen_dot = True
                j += 1
            if j < len(self.text) and self.text[j] in "eE" and seen_dot:
                k = j + 1
                if k < len(self.text) and self.text[k] in "+-":
                    k += 1
                if k < len(self.text) and self.text[k].isdigit():
                    while k < len(self.text) and self.text[k].isdigit():
                        k += 1
                    j = k
            self.pos = j
            return ("number", self.text[start:j], start)
        if ch.isalpha():
            j = start
            while j < len(self.text) and (self.text[j].isalnum()):
                j += 1
            self.pos = j
            return ("name", self.text[start:j], start)
        raise ParseError(f"unexpected character {ch!r}", start)


class _Parser:
    def __init__(self, text: str, precision: str) -> None:
        if precision not in ZERO:
            raise ValueError(f"unknown precision {precision!r}")
        self.tok = _Tokenizer(text)
        self.precision = precision
        self.current = self.tok.next_token()

    def advance(self) -> None:
        self.current = self.tok.next_token()

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
                if "." in value or "e" in value or "E" in value:
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
