"""Exact Groebner machinery under the graded order GREVLEX4.

One order serves both ideals downstream: the top-form ideal in C[z1, z2], on
which GREVLEX4 is graded reverse lexicographic, and the graph ideal in
C[w1, w2, z1, z2].  Buchberger with the coprime-leading-monomial criterion
and full reduction; bases come back reduced and monic.  Everything here
requires exact coefficients: float Groebner walks are numerically meaningless
and nothing downstream wants one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import PrecisionError
from .exact import GaussianRational
from .polynomials import GREVLEX4, Monomial, Polynomial, z_monomial


def _require_exact(p: Polynomial) -> None:
    if p.precision != "exact":
        raise PrecisionError("Groebner computations need exact coefficients")


def _mono_shift(p: Polynomial, m: Monomial, c: GaussianRational) -> Polynomial:
    """c * x^m * p without going through full polynomial multiplication."""
    return Polynomial._of({t.mul(m): c * cc for t, cc in p.terms.items()}, "exact")


def reduce_full(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of p on division by basis: no term divisible by any leading monomial."""
    _require_exact(p)
    data = []
    for b in basis:
        if b.is_zero():
            continue
        lm, lc = b.leading_term(GREVLEX4)
        data.append((lm, lc, b))
    remainder = Polynomial.zero("exact")
    work = p
    while not work.is_zero():
        m, c = work.leading_term(GREVLEX4)
        for lm, lc, b in data:
            if lm.divides(m):
                work = work - _mono_shift(b, m.quotient(lm), c / lc)
                break
        else:
            t = Polynomial({m: c}, "exact")
            remainder = remainder + t
            work = work - t
    return remainder


def _monic(p: Polynomial) -> Polynomial:
    _, lc = p.leading_term(GREVLEX4)
    return p.scale(GaussianRational(1) / lc)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lmf, lcf = f.leading_term(GREVLEX4)
    lmg, lcg = g.leading_term(GREVLEX4)
    lcm = lmf.lcm(lmg)
    one = GaussianRational(1)
    return _mono_shift(f, lcm.quotient(lmf), one / lcf) - _mono_shift(
        g, lcm.quotient(lmg), one / lcg
    )


def buchberger(gens: Iterable[Polynomial]) -> list[Polynomial]:
    """Reduced monic Groebner basis of the ideal generated by gens."""
    basis = []
    for g in gens:
        _require_exact(g)
        if not g.is_zero():
            basis.append(_monic(g))
    if not basis:
        return []

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        # normal selection: smallest lcm of the leading monomials first
        i, j = min(
            pairs,
            key=lambda ij: GREVLEX4(
                basis[ij[0]].leading_monomial(GREVLEX4).lcm(
                    basis[ij[1]].leading_monomial(GREVLEX4)
                )
            ),
        )
        pairs.discard((i, j))
        lmi = basis[i].leading_monomial(GREVLEX4)
        lmj = basis[j].leading_monomial(GREVLEX4)
        if lmi.lcm(lmj) == lmi.mul(lmj):
            continue  # coprime leading monomials reduce to zero
        r = reduce_full(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(_monic(r))
        k = len(basis) - 1
        pairs.update((i2, k) for i2 in range(k))

    # minimalize: drop members whose leading monomial another one divides
    lms = [b.leading_monomial(GREVLEX4) for b in basis]
    keep = []
    for i, lm in enumerate(lms):
        if any(j != i and lms[j].divides(lm) and (lms[j] != lm or j < i) for j in range(len(basis))):
            continue
        keep.append(basis[i])
    # inter-reduce the survivors
    reduced = []
    for i, b in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = reduce_full(b, others) if others else b
        if not r.is_zero():
            reduced.append(_monic(r))
    reduced.sort(key=lambda b: GREVLEX4(b.leading_monomial(GREVLEX4)))
    return reduced


def staircase_of(basis: Sequence[Polynomial]) -> list[Monomial]:
    """Standard pure-z monomials under the leading ideal of a z-only basis.

    Raises ValueError when the staircase is infinite (no pure power of z1 or of
    z2 among the leading monomials).
    """
    lms = [b.leading_monomial(GREVLEX4) for b in basis]
    if any(not lm.is_pure_z() for lm in lms):
        raise ValueError("staircase wants a basis of z-only polynomials")
    cap1 = min((lm.b1 for lm in lms if lm.b2 == 0), default=None)
    cap2 = min((lm.b2 for lm in lms if lm.b1 == 0), default=None)
    if cap1 is None or cap2 is None:
        raise ValueError("leading ideal is not zero-dimensional")
    out = []
    for b1 in range(cap1):
        for b2 in range(cap2):
            m = z_monomial((b1, b2))
            if not any(lm.divides(m) for lm in lms):
                out.append(m)
    out.sort(key=GREVLEX4)
    return out
