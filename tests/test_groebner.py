import random

import pytest

from capax import (
    GREVLEX4,
    GaussianRational,
    GraphWeighted,
    Polynomial,
    check_star,
    graph_basis,
    parse_poly,
    staircase,
)
from capax.groebner import Divisors, buchberger, reduce_full, s_polynomial, staircase_of
from capax.polynomials import Monomial, z_monomial
from conftest import exact_coeff, random_generic_map, random_regular_map


def P(text):
    return parse_poly(text)


def test_reduce_full_single_divisor():
    # z1^2 z2 reduces to -z2^2 modulo z1^2 + z2
    rem = reduce_full(P("z1^2*z2"), [P("z1^2 + z2")])
    assert rem == P("0 - z2^2")


def test_reduce_full_is_idempotent_on_remainder():
    basis = [P("z1^2 + z2"), P("z2^2 + 1")]
    rem = reduce_full(P("z1^4 + z1*z2^3"), basis)
    assert reduce_full(rem, basis) == rem


def test_s_polynomial_cancels_leading_terms():
    f = P("z2^2 + z1^2")
    g = P("z1*z2 + 1")
    s = s_polynomial(f, g)
    lead = GREVLEX4(z_monomial((1, 2)))
    for m in s.terms:
        assert GREVLEX4(m) < lead


def test_buchberger_monic_and_closed():
    gens = [P("z1^2 + z1*z2 + z2^2"), P("z1*z2 + 1")]
    gb = buchberger(gens)
    for g in gb:
        _, lc = g.leading_term(GREVLEX4)
        assert lc == GaussianRational(1)
    # every S-polynomial reduces to zero
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = s_polynomial(gb[i], gb[j])
            assert reduce_full(s, gb).is_zero()
    # generators reduce to zero against their own basis
    for g in gens:
        assert reduce_full(g, gb).is_zero()


def test_staircase_of_frozen():
    gb = buchberger([P("z1^2"), P("z2^2")])
    stairs = staircase_of(gb)
    assert stairs == [
        Monomial(0, 0, 0, 0),
        Monomial(0, 0, 1, 0),
        Monomial(0, 0, 0, 1),
        Monomial(0, 0, 1, 1),
    ]


def test_staircase_of_rejects_positive_dimension():
    gb = buchberger([P("z1*z2")])
    with pytest.raises(ValueError):
        staircase_of(gb)


# ---------------------------------------------------------------------------
# the division oracle: the loop reduce_full used before its heap, and a
# textbook Buchberger on top of it (every pair, no criteria)


def oracle_reduce(p, basis):
    """Rescan for the leading term and subtract a shifted divisor, step by step."""
    data = [(b.leading_term(GREVLEX4), b) for b in basis if not b.is_zero()]
    remainder = Polynomial.zero("exact")
    work = p
    while not work.is_zero():
        m, c = work.leading_term(GREVLEX4)
        for (lm, lc), b in data:
            if lm.divides(m):
                work = work - b * Polynomial({m.quotient(lm): c / lc}, "exact")
                break
        else:
            t = Polynomial({m: c}, "exact")
            remainder = remainder + t
            work = work - t
    return remainder


def _oracle_monic(p):
    return p.scale(GaussianRational(1) / p.leading_term(GREVLEX4)[1])


def oracle_buchberger(gens):
    basis = [_oracle_monic(g) for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        (lmi, lci), (lmj, lcj) = basis[i].leading_term(GREVLEX4), basis[j].leading_term(GREVLEX4)
        lcm = lmi.lcm(lmj)
        s = basis[i] * Polynomial({lcm.quotient(lmi): 1 / lci}, "exact") - basis[j] * Polynomial(
            {lcm.quotient(lmj): 1 / lcj}, "exact"
        )
        r = oracle_reduce(s, basis)
        if not r.is_zero():
            basis.append(_oracle_monic(r))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    lms = [b.leading_monomial(GREVLEX4) for b in basis]
    minimal = [
        b for i, b in enumerate(basis)
        if not any(lms[j].divides(lms[i]) and (lms[j] != lms[i] or j < i) for j in range(len(basis)) if j != i)
    ]
    reduced = [
        _oracle_monic(oracle_reduce(b, minimal[:i] + minimal[i + 1 :])) for i, b in enumerate(minimal)
    ]
    return sorted(reduced, key=lambda b: GREVLEX4(b.leading_monomial(GREVLEX4)))


def oracle_star(f, gb, beta):
    """(bt, gamma, constant, reduction) of the first multiplier that certifies beta, or None."""
    bound = 4 * f.d
    tries = [(0, j) for j in range(bound + 1)]
    tries += [(t1, total - t1) for total in range(1, bound + 1) for t1 in range(total, 0, -1)]
    for bt in tries:
        z = z_monomial((beta[0] + bt[0], beta[1] + bt[1]))
        nf = oracle_reduce(Polynomial({z: GaussianRational(1)}, "exact"), gb)
        if nf.is_zero():
            continue
        lm, lc = nf.leading_term(GraphWeighted(f.d))
        if lm.is_pure_w():
            return bt, lm.alpha, lc, nf
    return None


def same_terms(p, q):
    """Equal term for term, in the same order."""
    return list(p.terms.items()) == list(q.terms.items())


def _seeded_maps():
    return [random_generic_map(random.Random(3), 3), random_regular_map(random.Random(5), 2),
            random_generic_map(random.Random(8), 2)]


def _random_poly(rng, degree):
    terms = {}
    for _ in range(12):
        e = [rng.randint(0, degree) for _ in range(4)]
        while sum(e) > degree:
            e[rng.randrange(4)] -= 1
            e = [max(x, 0) for x in e]
        terms[Monomial(*e)] = exact_coeff(rng)
    return Polynomial(terms, "exact")


def test_reduce_full_matches_the_division_oracle():
    rng = random.Random(17)
    w1, w2 = Polynomial.variable("w1"), Polynomial.variable("w2")
    for f in _seeded_maps():
        fh1, fh2 = f.top_forms()
        bases = [graph_basis(f), [f.f1 - w1, f.f2 - w2], [fh1, fh2], [fh2, Polynomial.zero(), fh1]]
        polys = [_random_poly(rng, 7) for _ in range(6)]
        polys += [Polynomial({z_monomial((b1, 9 - b1)): GaussianRational(1)}, "exact") for b1 in range(10)]
        for basis in bases:
            prepared = Divisors(basis)
            for p in polys:
                r = reduce_full(p, basis)
                assert same_terms(r, oracle_reduce(p, basis))
                assert same_terms(reduce_full(p, prepared), r)


def test_exact_side_matches_the_oracle():
    w1, w2 = Polynomial.variable("w1"), Polynomial.variable("w2")
    for f in _seeded_maps():
        stairs = staircase_of(oracle_buchberger(list(f.top_forms())))
        gb = oracle_buchberger([f.f1 - w1, f.f2 - w2])
        assert staircase(f) == stairs
        got = graph_basis(f)
        assert len(got) == len(gb) and all(same_terms(g, o) for g, o in zip(got, gb))
        report = check_star(f)
        assert len(report.certificates) + len(report.failures) == len(stairs)
        for s in stairs:
            want = oracle_star(f, gb, s.beta)
            cert = report.certificates.get(s.beta)
            assert (cert is None) == (want is None)
            if cert is not None:
                bt, gamma, constant, reduction = want
                assert (cert.beta_tilde, cert.gamma, cert.constant) == (bt, gamma, constant)
                assert same_terms(cert.reduction, reduction)
