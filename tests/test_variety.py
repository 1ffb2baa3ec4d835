"""Graph maps, staircases, normal forms, basis streams, certificates, counts."""

from fractions import Fraction

import pytest

import capax.variety
from capax import (
    GaussianRational,
    GraphMap,
    GraphWeighted,
    MapError,
    Polynomial,
    PrecisionError,
    StaircaseError,
    basis_stream,
    check_star,
    filtration_counts,
    generic_staircase,
    is_generic,
    is_regular,
    normal_form,
    parse_poly,
    precondition,
    staircase,
    star_certificate,
)
from capax.polynomials import Monomial, w_monomial, z_monomial


def P(text):
    return parse_poly(text)


def square_map():
    return GraphMap(P("z1^2 + z2"), P("z2^2 + 1"))


def generic_map():
    return GraphMap(P("z1^2 + z1*z2 + z2^2 + 1/3*z1"), P("z1*z2 + 1/2*z2 + 1/5"))


def cubic_generic_map():
    return GraphMap(P("z1^3 + 2*z2^3 + z1^2 + 1/2"), P("z1*z2^2 + z1^2*z2 + z2"))


# ---------------------------------------------------------------------------
# the map type


def test_map_validation():
    with pytest.raises(MapError):
        GraphMap(P("z2"), P("z1^2"))  # d1 < d2
    with pytest.raises(MapError):
        GraphMap(P("w1 + z1"), P("z2"))  # not pure z
    with pytest.raises(MapError):
        GraphMap(P("z1"), P("0"))
    with pytest.raises(PrecisionError):
        GraphMap(P("z1"), P("z2").to_float())


def test_map_d_requires_equal_degrees():
    f = GraphMap(P("z1^2"), P("z2"))
    assert (f.d1, f.d2) == (2, 1)
    with pytest.raises(MapError):
        f.d


def test_precondition_matches_direct_composition():
    f = square_map()
    g = precondition(f, [[1, 1], [0, 1]], [[1, 0], [0, 1]])
    # z1 -> z1 + z2 in both components
    assert g.f1 == P("z1^2 + 2*z1*z2 + z2^2 + z2")
    assert g.f2 == P("z2^2 + 1")
    with pytest.raises(MapError):
        precondition(f, [[1, 1], [1, 1]], [[1, 0], [0, 1]])


def test_precondition_float_map_matches_direct_composition():
    f = square_map().to_float()
    g = precondition(f, [[1, 0.5], [0, 1]], [[2, 0], [0, 1j]])
    # z1 -> z1 + z2/2, then the components scale by 2 and i
    assert g.precision == "float"
    assert g.f1 == parse_poly("2*z1^2 + 2*z1*z2 + 0.5*z2^2 + 2*z2", "float")
    assert g.f2 == parse_poly("i*z2^2 + i", "float")
    with pytest.raises(MapError):
        precondition(f, [[1.0, 2.0], [0.5, 1.0]], [[1, 0], [0, 1]])
    with pytest.raises(MapError):
        precondition(f, [[1, 0], [0, 1]], [[0, 1j], [0, 2j]])


def test_precondition_rejects_entries_of_the_other_precision():
    # entries are scalars of the map's precision: no silent conversion
    # either way
    with pytest.raises(PrecisionError):
        precondition(square_map().to_float(), [[GaussianRational(1), 0], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(PrecisionError):
        precondition(square_map(), [[1, 0.5], [0, 1]], [[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# staircases


def test_staircase_frozen_square_example():
    stairs = staircase(square_map())
    assert stairs == [
        Monomial(0, 0, 0, 0),
        Monomial(0, 0, 1, 0),
        Monomial(0, 0, 0, 1),
        Monomial(0, 0, 1, 1),
    ]
    assert not is_generic(square_map())


def test_staircase_frozen_generic_example():
    f = GraphMap(P("z1^2 + z1*z2 + z2^2"), P("z1*z2 + 1"))
    stairs = staircase(f)
    assert stairs == [
        Monomial(0, 0, 0, 0),
        Monomial(0, 0, 1, 0),
        Monomial(0, 0, 0, 1),
        Monomial(0, 0, 2, 0),
    ]
    assert is_generic(f)


def test_float_map_staircase_is_its_exact_copys():
    f = GraphMap(parse_poly("0.5*z1^2 + z1*z2 - 0.25*z2^2", "float"), parse_poly("z1*z2 + 1.5*z2", "float"))
    exact = GraphMap(P("1/2*z1^2 + z1*z2 - 1/4*z2^2"), P("z1*z2 + 3/2*z2"))
    assert staircase(f) == staircase(exact)
    assert is_generic(f) and basis_stream(f, "B").upto(4) == basis_stream(exact, "B").upto(4)
    # graph normal forms and certificates still take exact maps only
    for call in (lambda: normal_form(P("z1^2"), f), lambda: check_star(f), lambda: star_certificate(f, (0, 0))):
        with pytest.raises(PrecisionError):
            call()


def test_staircase_rejects_shared_top_factor():
    f = GraphMap(P("z1^2 + z2"), P("z1*z2 + 1"))
    with pytest.raises(StaircaseError):
        staircase(f)


def test_is_generic_keeps_nothing_when_the_staircase_raises():
    # the top forms share the factor z1, so every staircase call raises
    f = GraphMap(P("z1^2 + z2"), P("z1*z2 + 1"))
    assert is_generic(f) is False
    assert is_generic(f) is False
    assert f._memo == {}


def test_generic_staircase_counts():
    for d in (1, 2, 3, 4):
        stairs = generic_staircase(d)
        assert len(stairs) == d * d
        assert all(m.b1 + 2 * m.b2 <= 2 * d - 2 for m in stairs)


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_frozen_values():
    f = square_map()
    assert normal_form(P("z2^2"), f) == P("w2 - 1")
    assert normal_form(P("z1^2"), f) == P("w1 - z2")
    # basis monomials are fixed points
    assert normal_form(P("w1^2*z1*z2"), f) == P("w1^2*z1*z2")


def test_normal_form_is_a_section_of_substitution():
    f = generic_map()
    for text in ("z1*z2", "z1^3", "z2^2 + z1*z2^2", "z1^2*z2^2"):
        p = P(text)
        nf = normal_form(p, f)
        assert nf.substitute({"w1": f.f1, "w2": f.f2}) == p
        # support lies on the staircase in the z part
        betas = {m.beta for m in nf.terms}
        allowed = {m.beta for m in staircase(f)}
        assert betas <= allowed


def test_normal_form_of_cross_term_reaches_w():
    f = generic_map()
    nf = normal_form(P("z1*z2"), f)
    w_part = {m for m in nf.terms if m.alpha != (0, 0)}
    assert w_part <= {w_monomial((1, 0)), w_monomial((0, 1))}
    assert w_part


# ---------------------------------------------------------------------------
# counts


def test_filtration_counts_frozen():
    assert filtration_counts(2, 1) == (6, 5)
    assert filtration_counts(2, 2) == (15, 23)
    assert filtration_counts(2, 5) == (66, 235)
    assert filtration_counts(3, 1) == (10, 9)


def test_filtration_counts_closed_form():
    # l_n as the weighted sum of level increments equals the direct formula
    for d in (2, 3, 4):
        for n in range(1, 9):
            m_n, l_n = filtration_counts(d, n)
            assert m_n == (n * d + 1) * (n * d + 2) // 2
            assert l_n == sum(
                nu * (nu * d * d - d * (d - 3) // 2) for nu in range(1, n + 1)
            )


def test_filtration_counts_domain():
    with pytest.raises(ValueError):
        filtration_counts(1, 3)
    with pytest.raises(ValueError):
        filtration_counts(2, 0)


# ---------------------------------------------------------------------------
# basis streams


def test_stream_z_w_levels():
    s = basis_stream(None, "z")
    assert s.level(2) == [z_monomial((2, 0)), z_monomial((1, 1)), z_monomial((0, 2))]
    t = basis_stream(None, "w")
    assert t.level(1) == [w_monomial((1, 0)), w_monomial((0, 1))]


def test_stream_b_first_fifteen():
    f = GraphMap(P("z1^2 + z1*z2 + z2^2"), P("z1*z2 + 1"))
    stream = basis_stream(f, "B")
    got = [m for nu in range(5) for m in stream.level(nu)]  # levels of 1..5 monomials
    M = Monomial
    assert got == [
        M(0, 0, 0, 0),
        M(0, 0, 1, 0),
        M(0, 0, 0, 1),
        M(0, 0, 2, 0),
        M(1, 0, 0, 0),
        M(0, 1, 0, 0),
        M(1, 0, 1, 0),
        M(1, 0, 0, 1),
        M(0, 1, 1, 0),
        M(0, 1, 0, 1),
        M(1, 0, 2, 0),
        M(0, 1, 2, 0),
        M(2, 0, 0, 0),
        M(1, 1, 0, 0),
        M(0, 2, 0, 0),
    ]


def test_stream_c_level_four_tail():
    f = generic_map()
    block = basis_stream(f, "C").level(4)
    M = Monomial
    assert block == [
        M(1, 0, 2, 0),
        M(1, 0, 1, 1),
        M(0, 1, 2, 0),
        M(0, 1, 1, 1),
        M(0, 0, 0, 4),
    ]


def test_stream_c_matches_b_below_window():
    f = generic_map()
    b = basis_stream(f, "B")
    c = basis_stream(f, "C")
    for nu in range(2 * f.d - 1):
        assert b.level(nu) == c.level(nu)


def test_stream_level_sizes_are_graded():
    f = generic_map()
    for kind in ("B", "C"):
        s = basis_stream(f, kind)
        for nu in range(9):
            assert len(s.level(nu)) == nu + 1


def test_stream_c_rejects_non_generic():
    with pytest.raises(MapError):
        basis_stream(square_map(), "C")


def test_stream_kind_validation():
    with pytest.raises(ValueError):
        basis_stream(None, "Q")
    with pytest.raises(MapError):
        basis_stream(None, "B")


def test_stream_prefix_of():
    f = generic_map()
    s = basis_stream(f, "B")
    prefix = s.prefix_of(w_monomial((1, 0)))
    assert len(prefix) == 4
    assert w_monomial((1, 0)) not in prefix
    with pytest.raises(ValueError):
        s.prefix_of(z_monomial((0, 2)))  # not on the staircase, never emitted


def test_enumeration_matches_filtration_counts():
    f = generic_map()
    s = basis_stream(f, "B")
    for n in range(1, 5):
        m_n, _ = filtration_counts(2, n)
        assert len(s.upto(2 * n)) == m_n
    # the level table against the closed forms: filtration_counts for B and C
    # at d = 2 and 3; m_n = (n+1)(n+2)/2 and l_n = sum_{k<=n} k(k+1) for z, w
    cubic = GraphMap(P("z1^3 + 2*z2^3 + z1^2 + 1/2"), P("z1*z2^2 + z1^2*z2 + z2"))
    for g in (f, cubic):
        for kind in ("B", "C"):
            stream = basis_stream(g, kind)
            _, m_counts, l_counts = stream.levels(8)
            assert list(zip(m_counts, l_counts)) == [filtration_counts(g.d, n) for n in range(1, 9)]
            for n in range(1, 9):
                assert stream.levels(n) == (stream.upto(n * g.d), m_counts[:n], l_counts[:n])
    for kind in ("z", "w"):
        stream = basis_stream(None, kind)
        monomials, m_counts, l_counts = stream.levels(8)
        assert monomials == stream.upto(8)
        assert m_counts == [(n + 1) * (n + 2) // 2 for n in range(1, 9)]
        assert l_counts == [sum(k * (k + 1) for k in range(n + 1)) for n in range(1, 9)]


# ---------------------------------------------------------------------------
# star certificates


def test_star_certificate_linear_map_is_trivial():
    f = GraphMap(P("z1 + z2"), P("z1 - z2"))
    cert = star_certificate(f, (0, 0))
    assert cert.beta_tilde == (0, 0)
    assert cert.gamma == (0, 0)
    assert complex(cert.constant) == 1


def test_check_star_generic_map():
    f = generic_map()
    report = check_star(f)
    assert report.ok
    assert set(report.certificates) == {m.beta for m in staircase(f)}
    order = GraphWeighted(f.d)
    for beta, cert in report.certificates.items():
        assert cert.beta_tilde[0] == 0  # a power of z2
        target = z_monomial((beta[0] + cert.beta_tilde[0], beta[1] + cert.beta_tilde[1]))
        nf = normal_form(Polynomial({target: GaussianRational(1)}, "exact"), f)
        lm, lc = nf.leading_term(order)
        assert lm.is_pure_w()
        assert lm.alpha == cert.gamma
        assert lc == cert.constant


def test_star_certificate_tries_each_multiplier_once(monkeypatch):
    # beta = (2, 0) is certified only by the mixed multiplier z1^2, after
    # every pure power of z2 and z1 have failed
    f = GraphMap(
        P("-1/3*z2^2 + 1/3*z1*z2 + 1/2*z1^2 + 1/2*z2 - 4*z1 - 3"),
        P("-2*z2^2 - 2*z1*z2 - 3*z1^2 - z1"),
    )
    assert is_regular(f) and is_generic(f)
    staircase(f)
    tried = []
    real = capax.variety._star_try
    monkeypatch.setattr(
        capax.variety, "_star_try", lambda f, beta, bt: tried.append((beta, bt)) or real(f, beta, bt)
    )
    report = check_star(f)
    assert {beta: c.beta_tilde for beta, c in report.certificates.items()} == {
        (0, 0): (0, 0), (1, 0): (0, 1), (0, 1): (0, 1), (2, 0): (2, 0)
    }
    cert = report.certificates[(2, 0)]
    assert cert.gamma == (0, 2)
    assert cert.constant == GaussianRational(Fraction(-1, 36))
    # 1 + 2 + 2 + (9 powers of z2, then z1, then z1^2), in staircase order
    # and, per exponent, in the order the docstring gives, each once
    expected = (
        [((0, 0), (0, 0))]
        + [((1, 0), (0, j)) for j in range(2)]
        + [((0, 1), (0, j)) for j in range(2)]
        + [((2, 0), (0, j)) for j in range(9)]
        + [((2, 0), (1, 0)), ((2, 0), (2, 0))]
    )
    assert tried == expected
    assert len(tried) == 16 == len(set(tried))
    # every certificate carries the normal form of its own z-monomial
    for beta, c in report.certificates.items():
        z = z_monomial((beta[0] + c.beta_tilde[0], beta[1] + c.beta_tilde[1]))
        assert c.reduction == normal_form(Polynomial({z: GaussianRational(1)}, "exact"), f)


def test_star_certificate_requires_staircase_membership():
    with pytest.raises(MapError):
        star_certificate(generic_map(), (1, 1))


def test_star_certificate_repr_leaves_out_the_reduction():
    cert = star_certificate(generic_map(), (0, 1))
    assert cert.reduction.terms  # the reduction is there, just not shown
    assert repr(cert) == (
        "StarCertificate(beta=(0, 1), beta_tilde=(0, 1), gamma=(0, 1), "
        "constant=GaussianRational(-1))"
    )
    assert "reduction" not in repr(cert)

