"""Resultants of the top forms and the block structure of graph eliminations.

The resultant of the two leading forms decides regularity and enters the
pullback formula through |Res|^(-1/(2 d^2)).  Each map keeps one record,
(Res, phase, log|Res|), from one Sylvester determinant: Bareiss on Gaussian
integers over one common denominator on the exact path, numpy's slogdet on
float, so no size of |Res| overflows its log.  resultant, resultant_slog and
is_regular only read it; is_regular is the one regularity rule, which
pullback_check asks too.  sylvester_stack is the one Sylvester layout: the
top forms' matrix here, and the stacked z1-eliminants of sets.graph_lift.

block_factorization certifies the one structural fact the estimators lean on:
at weight k >= 2d - 1 the change of basis between the substituted w-bearing
block and consecutive z-monomials has determinant +-Res^(ell (ell+1) / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EstimateError, PrecisionError
from .exact import GaussianRational
from .polynomials import ZERO, Polynomial, z_monomial
from .variety import BlockShape, GraphMap, block_shape


def _top_coeffs(f: GraphMap) -> tuple[list, list]:
    """Coefficients [c_0 .. c_d] of each top form, c_j on z1^j z2^(d-j)."""
    return tuple(
        [p.coefficient(z_monomial((j, d - j))) for j in range(d + 1)] for p, d in ((f.f1, f.d1), (f.f2, f.d2))
    )


def sylvester_stack(a: np.ndarray, b: np.ndarray, fill=0.0) -> np.ndarray:
    """Sylvester matrices of stacked coefficient rows a and b of degrees n1
    and n2 (lowest first), fill in the zeros: n2 shifted rows of a, then n1
    of b, each with the degree descending."""
    n1, n2 = a.shape[-1] - 1, b.shape[-1] - 1
    mats = np.full(a.shape[:-1] + (n1 + n2, n1 + n2), fill, dtype=a.dtype)
    for i in range(n2):
        mats[..., i, i : i + n1 + 1] = a[..., ::-1]
    for i in range(n1):
        mats[..., n2 + i, i : i + n2 + 1] = b[..., ::-1]
    return mats


def sylvester_matrix(f: GraphMap) -> np.ndarray:
    """The (d1 + d2) square Sylvester matrix of the top forms, in z1 with z2
    homogenizing: an object array of GaussianRationals on the exact path,
    complex on the float path."""
    dtype = object if f.precision == "exact" else complex
    a, b = (np.array(c, dtype=dtype) for c in _top_coeffs(f))
    return sylvester_stack(a, b, ZERO[f.precision])


def bareiss_det(matrix) -> GaussianRational:
    """Determinant of a square matrix of GaussianRationals, by Bareiss over Z[i].

    The entries are put over one common denominator L, so the elimination
    runs on Gaussian-integer (re, im) pairs.  Each step divides by the
    previous pivot, which Sylvester's identity makes exact: multiply by its
    conjugate, then floor-divide both parts by its norm.  The result is the
    integer determinant over L^n.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        return GaussianRational(1)
    den = math.lcm(*(c.d for row in matrix for c in row))
    re = [[c.a * (den // c.d) for c in row] for row in matrix]
    im = [[c.b * (den // c.d) for c in row] for row in matrix]
    sign = 1
    qr, qi = 1, 0  # previous pivot
    for k in range(n - 1):
        if not (re[k][k] or im[k][k]):
            for i in range(k + 1, n):
                if re[i][k] or im[i][k]:
                    re[k], re[i] = re[i], re[k]
                    im[k], im[i] = im[i], im[k]
                    sign = -sign
                    break
            else:
                return GaussianRational(0)
        pr, pi = re[k][k], im[k][k]
        norm = qr * qr + qi * qi
        rk, ik = re[k], im[k]
        for i in range(k + 1, n):
            ri, ii = re[i], im[i]
            ar, ai = ri[k], ii[k]
            for j in range(k + 1, n):
                xr = ri[j] * pr - ii[j] * pi - (ar * rk[j] - ai * ik[j])
                xi = ri[j] * pi + ii[j] * pr - (ar * ik[j] + ai * rk[j])
                ri[j] = (xr * qr + xi * qi) // norm
                ii[j] = (xi * qr - xr * qi) // norm
        qr, qi = pr, pi
    scale = den**n
    return GaussianRational(
        Fraction(sign * re[n - 1][n - 1], scale), Fraction(sign * im[n - 1][n - 1], scale)
    )


def _record(f: GraphMap) -> tuple:
    """(Res, phase, log|Res|) from the map's one Sylvester determinant; phase
    0 means Res = 0.  An exact Res = (a + b i)/c reads as 2^e (x + y i), x and
    y correctly rounded, e its binary exponent if that passes +-1000, else 0.
    A float Res is None when phase * exp(log) is not a finite float."""

    def compute():
        matrix = sylvester_matrix(f)
        if f.precision != "exact":
            sign, logdet = np.linalg.slogdet(matrix)
            phase, logmag = complex(sign), float(logdet)
            try:
                return phase * math.exp(logmag), phase, logmag
            except OverflowError:
                return None, phase, logmag
        res = bareiss_det(matrix)
        if not res:
            return res, 0.0j, -math.inf
        e = max(res.a.bit_length(), res.b.bit_length()) - res.d.bit_length()
        e = e if abs(e) > 1000 else 0
        x, y = float(res.re / Fraction(2) ** e), float(res.im / Fraction(2) ** e)
        mag = math.hypot(x, y)
        return res, complex(x, y) / mag, math.log(mag) + e * math.log(2)

    return f.memo("resultant", compute)


def resultant(f: GraphMap):
    """Res of the top forms: GaussianRational on the exact path, complex on float."""
    res = _record(f)[0]
    if res is None:
        raise EstimateError("resultant magnitude overflows a float; use the exact path")
    return res


def resultant_slog(f: GraphMap) -> tuple[complex, float]:
    """(phase, log|Res|) at either precision, whatever the size of |Res|.
    Phase 0 means Res = 0."""
    return _record(f)[1:]


def resultant_root_oracle(f: GraphMap) -> complex:
    """Res via products over the roots of the dehomogenized forms.

    Independent of the Sylvester determinant: factor each form through the
    roots of c(t) = sum_j c_j t^j and use a^(d2) b^(d1) prod (t_i - s_j).
    Requires nonvanishing leading coefficients (no roots at infinity).
    """
    g = f.to_float()
    a, b = _top_coeffs(g)
    scale_a, scale_b = (max(abs(c) for c in cs) for cs in (a, b))
    if abs(a[-1]) <= 1e-12 * scale_a or abs(b[-1]) <= 1e-12 * scale_b:
        raise EstimateError(
            "root oracle needs nonvanishing leading coefficients; "
            "use the determinant path"
        )
    ta = np.roots(a[::-1]) if g.d1 > 0 else np.array([])
    sb = np.roots(b[::-1]) if g.d2 > 0 else np.array([])
    out = a[-1] ** g.d2 * b[-1] ** g.d1
    for t in ta:
        for s in sb:
            out *= t - s
    return complex(out)


def is_regular(f: GraphMap) -> bool:
    """Whether the top forms have no common projective root: the one
    regularity rule, which pullback_check asks before it samples.

    An exact map is regular when Res != 0.  A float map is regular when
    |Res| > 1e-10 max|a|^d2 max|b|^d1, over the top-form coefficients a and
    b; the test is made on logs, so it neither overflows nor underflows.
    """
    phase, logmag = resultant_slog(f)
    if f.precision == "exact" or phase == 0:
        return phase != 0
    a, b = (max(abs(c) for c in cs) for cs in _top_coeffs(f))
    return logmag > math.log(1e-10) + f.d2 * math.log(a) + f.d1 * math.log(b)


# ---------------------------------------------------------------------------
# block structure


@dataclass
class BlockReport:
    shape: BlockShape
    det: GaussianRational
    res: GaussianRational
    sign: int
    matches: bool


def _top_product(f: GraphMap, a: int, b: int) -> Polynomial:
    """fhat1^a fhat2^b, kept by the map: each product is computed once, as
    one earlier product times one top form."""
    if a == b == 0:
        return Polynomial.constant(1, "exact")
    if a:
        return f.memo(("top_product", a, b), lambda: _top_product(f, a - 1, b) * f.f1.top_form())
    return f.memo(("top_product", 0, b), lambda: _top_product(f, 0, b - 1) * f.f2.top_form())


def block_factorization(f: GraphMap, k: int) -> BlockReport:
    """Certify det(M_k) = +-Res^copies for the weight-k block of f.

    M_k expresses the substituted products fhat1^(ell-s) fhat2^s z1^(r+d-1-j) z2^j
    on the consecutive monomials z1^(k-i) z2^i, i < d*(ell+1).  A row is its
    product fhat1^(ell-s) fhat2^s, kept by the map, shifted j
    places along z2: no coefficient arithmetic.  Exact maps only; the
    identity is checked by exact determinant, not assumed.
    """
    if f.precision != "exact":
        raise PrecisionError("block_factorization needs an exact map")
    d = f.d
    shape = block_shape(d, k)
    matrix = []
    for s in range(shape.ell + 1):
        terms = _top_product(f, shape.ell - s, s).terms
        for j in range(d):
            row = [GaussianRational(0)] * shape.rows
            for m, c in terms.items():
                row[m.b2 + j] = c
            matrix.append(row)
    det = bareiss_det(matrix)
    res = resultant(f)
    expected = res ** shape.copies
    if det == expected:
        sign, matches = 1, True
    elif det == -expected:
        sign, matches = -1, True
    else:
        sign, matches = 0, False
    return BlockReport(shape=shape, det=det, res=res, sign=sign, matches=matches)
