"""Exact Groebner machinery under the graded order GREVLEX4.

One order serves both ideals downstream: the top-form ideal in C[z1, z2], on
which GREVLEX4 is graded reverse lexicographic, and the graph ideal in
C[w1, w2, z1, z2].  Buchberger with full reduction and two criteria that
drop S-pairs known to reduce to zero: coprime leading monomials, and the
chain criterion (Buchberger's second; Cox, Little & O'Shea, "Ideals,
Varieties, and Algorithms", ch. 2 sec. 10), which skips (i, j) when some
lm_k divides lcm(lm_i, lm_j) and the pairs (i, k) and (j, k) are already
treated.  Bases come back reduced and monic; a reduced basis is unique, so
the criteria change the work and never the result.  Everything here
requires exact coefficients: float Groebner walks are numerically meaningless
and nothing downstream wants one.

Division is heap-ordered (Monagan & Pearce, CASC 2007).  reduce_full keeps
the dividend as a dict of terms and a max-heap of their GREVLEX4 keys, packed
into one int each; a term that cancels stays in the heap and is skipped when
it surfaces (lazy deletion).  Each step pops the leading term and adds the
quotient times the divisor's tail into the dict, so nothing rescans or
rebuilds the dividend.  The tails come from Divisors, which stores every
member's leading monomial and its tail as (monomial, key, -c/lc) triples:
they are built once per basis member, by Buchberger as the basis grows and
once per map for the graph basis, and read by every division after that.
The final inter-reduction prepares the minimal basis once and reduces each
member's tail over all of it: no tail term is divisible by its own, larger,
leading monomial, so the member's presence changes no division step.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

from .errors import PrecisionError
from .exact import GaussianRational
from .polynomials import GREVLEX4, Monomial, Polynomial, z_monomial


def _require_exact(p: Polynomial) -> None:
    if p.precision != "exact":
        raise PrecisionError("Groebner computations need exact coefficients")


def _mono_shift(p: Polynomial, m: Monomial, c: GaussianRational) -> Polynomial:
    """c * x^m * p without going through full polynomial multiplication."""
    return Polynomial._of({t.mul(m): c * cc for t, cc in p.terms.items()}, "exact")


def _heap_key(m: Monomial) -> int:
    """Minus GREVLEX4(m) packed into one int.  Exponents are at most
    MAX_EXPONENT < 2^9, so fields 9 bits apart compare as the tuple does, and
    the key of a product is the sum of its factors' keys."""
    a1, a2, b1, b2 = m
    return -((a1 + a2 + b1 + b2) << 36 | b2 << 27 | b1 << 18 | a2 << 9 | a1)


class Divisors(Sequence):
    """A basis prepared for division: the members in order and, for each
    nonzero one, its leading monomial lm with its tail as (monomial, heap key,
    -c/lc) triples.  Grow it only by append, which prepares the new member
    once."""

    def __init__(self, basis: Iterable[Polynomial] = ()) -> None:
        self._members: list[Polynomial] = []
        self.steps: list[tuple[Monomial, list[tuple[Monomial, int, GaussianRational]]]] = []
        for b in basis:
            self.append(b)

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, i):
        return self._members[i]

    def append(self, b: Polynomial) -> None:
        _require_exact(b)
        self._members.append(b)
        if b.is_zero():
            return
        lm, lc = b.leading_term(GREVLEX4)
        tail = [(m, _heap_key(m), -c / lc) for m, c in b.terms.items() if m != lm]
        self.steps.append((lm, tail))


def reduce_full(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of p on division by basis: no term divisible by any leading monomial.

    The leading term is divided by the first member whose leading monomial
    divides it, or else moves to the remainder.  Pass a Divisors to reuse
    its prepared tails; any other sequence is prepared for this call.
    """
    _require_exact(p)
    steps = (basis if isinstance(basis, Divisors) else Divisors(basis)).steps
    work = dict(p.terms)
    heap = [(_heap_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        key, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled, or a second entry of a term already taken
        a1, a2, b1, b2 = m
        for lm, tail in steps:
            l1, l2, l3, l4 = lm
            if l1 <= a1 and l2 <= a2 and l3 <= b1 and l4 <= b2:
                q = Monomial(a1 - l1, a2 - l2, b1 - l3, b2 - l4)
                kq = key - _heap_key(lm)
                for t, kt, ct in tail:
                    mt = t.mul(q)
                    old = work.get(mt)
                    if old is None:
                        work[mt] = c * ct
                        heapq.heappush(heap, (kt + kq, mt))
                    else:
                        s = old + c * ct
                        if s:
                            work[mt] = s
                        else:
                            del work[mt]
                break
        else:
            remainder[m] = c
    return Polynomial._of(remainder, "exact")


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
    basis = Divisors()
    for g in gens:
        _require_exact(g)
        if not g.is_zero():
            basis.append(_monic(g))
    if not basis:
        return []

    steps = basis.steps  # (leading monomial, tail) per member, grown by basis.append
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        # normal selection: smallest lcm of the leading monomials first
        i, j = min(pairs, key=lambda ij: GREVLEX4(steps[ij[0]][0].lcm(steps[ij[1]][0])))
        pairs.discard((i, j))
        (lmi, _), (lmj, _) = steps[i], steps[j]
        lcm = lmi.lcm(lmj)
        if lcm == lmi.mul(lmj):
            continue  # coprime leading monomials reduce to zero
        if any(
            lmk.divides(lcm) and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, (lmk, _) in enumerate(steps) if k != i and k != j
        ):
            continue  # chain criterion: (i, k) and (j, k) are treated
        r = reduce_full(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(_monic(r))
        k = len(basis) - 1
        pairs.update((i2, k) for i2 in range(k))

    # minimalize: drop members whose leading monomial another one divides
    keep = Divisors(
        basis[i] for i, (lm, _) in enumerate(steps)
        if not any(j != i and lmj.divides(lm) and (lmj != lm or j < i) for j, (lmj, _) in enumerate(steps))
    )
    # inter-reduce: each tail over all the survivors at once (module docstring)
    reduced = []
    for b, (lm, _) in zip(keep, keep.steps):
        tail = reduce_full(Polynomial._of({m: c for m, c in b.terms.items() if m != lm}, "exact"), keep)
        reduced.append(Polynomial._of({lm: b.terms[lm], **tail.terms}, "exact"))
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
