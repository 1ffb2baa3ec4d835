"""The graph variety of a polynomial map and monomial bases along it.

A map f = (f1, f2) of C^2 with deg f1 >= deg f2 >= 1 has the graph variety
{w = f(z)} inside C^4.  Its coordinate ring is filtered by the weight
d|alpha| + |beta|, and a monomial basis compatible with that filtration is
obtained from the staircase of the top-form ideal: normal forms of w^a z^b
with b restricted to the staircase.

This module owns the map type, staircases, graph normal forms, the
multiplication table and fiber averages, the four basis streams used by the
diameter estimators, the shape of the weight-k window block, and the pure-w
reduction certificates.  A float map is read through its exact dyadic copy
everywhere but in graph normal forms and certificates, which refuse it.

Each map owns one memo, GraphMap.memo, which computes on first use what is
derived from the map alone: here its float copy, staircase, graph basis
prepared for division and normal forms NF(z^beta), and a float map's exact
dyadic copy; in resultant.py the top forms' Sylvester determinant and
products fhat1^a fhat2^b; in sets.py the fiber-solver core.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    MapError,
    PrecisionError,
    StaircaseError,
    StarSearchError,
)
from .exact import GaussianRational
from .groebner import Divisors, buchberger, reduce_full, staircase_of
from .polynomials import (
    GREVLEX4,
    GraphWeighted,
    Monomial,
    Polynomial,
    w_monomial,
    z_monomial,
)

BASIS_KINDS = ("z", "w", "B", "C")


class GraphMap:
    """A polynomial self-map of C^2, validated once, with one memo of what it derives."""

    def __init__(self, f1: Polynomial, f2: Polynomial) -> None:
        if f1.precision != f2.precision:
            raise PrecisionError("map components at different precisions")
        for name, p in (("f1", f1), ("f2", f2)):
            if p.is_zero():
                raise MapError(f"{name} is zero")
            if not p.is_pure_z():
                raise MapError(f"{name} must be a polynomial in z1, z2 only")
            if p.degree() < 1:
                raise MapError(f"{name} is constant")
        if f1.degree() < f2.degree():
            raise MapError(
                "component degrees must satisfy deg f1 >= deg f2; swap the components"
            )
        self.f1 = f1
        self.f2 = f2
        self.d1 = f1.degree()
        self.d2 = f2.degree()
        self._memo: dict = {}

    def memo(self, key, compute):
        """The value this map keeps under key: compute() on the first call,
        the kept value after.  A compute that raises keeps nothing, so the
        next call raises again."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def precision(self) -> str:
        return self.f1.precision

    @property
    def d(self) -> int:
        """Common degree; only defined when d1 == d2."""
        if self.d1 != self.d2:
            raise MapError("map components have different degrees")
        return self.d1

    def top_forms(self) -> tuple[Polynomial, Polynomial]:
        return self.f1.top_form(), self.f2.top_form()

    def to_float(self) -> "GraphMap":
        if self.precision == "float":
            return self
        return self.memo("float", lambda: GraphMap(self.f1.to_float(), self.f2.to_float()))

    def to_exact(self) -> "GraphMap":
        """The exact dyadic copy of a float map, with the same coefficients."""
        if self.precision == "exact":
            return self
        return self.memo("exact", lambda: GraphMap(self.f1.to_exact(), self.f2.to_exact()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphMap):
            return NotImplemented
        return self.f1 == other.f1 and self.f2 == other.f2

    def __repr__(self) -> str:
        return f"GraphMap({self.f1}, {self.f2})"


def precondition(f: GraphMap, r1: Sequence[Sequence], r2: Sequence[Sequence]) -> GraphMap:
    """The conjugated map R2 . f . R1, for invertible 2x2 matrices.

    R1 acts on the source coordinates, R2 mixes the components.  Entries are
    scalars of the map's precision (PrecisionError otherwise).
    """
    r1, r2 = ([[Polynomial.constant(x, f.precision) for x in row] for row in m] for m in (r1, r2))
    for name, ((a, b), (c, d)) in (("r1", r1), ("r2", r2)):
        if (a * d - b * c).is_zero():
            raise MapError(f"{name} is singular")
    z1 = Polynomial.variable("z1", f.precision)
    z2 = Polynomial.variable("z2", f.precision)
    new_z = {"z1": r1[0][0] * z1 + r1[0][1] * z2, "z2": r1[1][0] * z1 + r1[1][1] * z2}
    g1 = f.f1.substitute(new_z)
    g2 = f.f2.substitute(new_z)
    return GraphMap(r2[0][0] * g1 + r2[0][1] * g2, r2[1][0] * g1 + r2[1][1] * g2)


# ---------------------------------------------------------------------------
# staircases


def staircase(f: GraphMap) -> list[Monomial]:
    """Standard z-monomials of the top-form ideal, smallest first.

    A float map is read through its exact dyadic copy.  Raises
    StaircaseError when the top forms share a projective root (the leading
    ideal then fails to be zero-dimensional).
    """
    g = f.to_exact()

    def compute() -> list[Monomial]:
        try:
            stairs = staircase_of(buchberger(g.top_forms()))
        except ValueError as exc:
            raise StaircaseError(str(exc)) from None
        if len(stairs) != f.d1 * f.d2:
            # zero-dimensional leading ideal with the wrong colength cannot happen
            # for coprime forms; surface it rather than continue on bad data
            raise StaircaseError(
                f"staircase has {len(stairs)} elements, expected {f.d1 * f.d2}"
            )
        return stairs

    return list(g.memo("staircase", compute))


def generic_staircase(d: int) -> list[Monomial]:
    """The staircase of a generic degree-(d, d) map: b1 + 2*b2 <= 2d - 2."""
    if d < 1:
        raise ValueError("d must be positive")
    out = [
        z_monomial((b1, b2))
        for b2 in range(d)
        for b1 in range(2 * d - 1 - 2 * b2)
    ]
    out.sort(key=GREVLEX4)
    return out


def is_generic(f: GraphMap) -> bool:
    """Whether f's staircase matches the generic one (needs d1 == d2)."""
    if f.d1 != f.d2:
        return False
    try:
        stairs = staircase(f)
    except StaircaseError:
        return False
    return stairs == generic_staircase(f.d1)


# ---------------------------------------------------------------------------
# graph normal forms


def _graph_divisors(f: GraphMap) -> Divisors:
    """The graph basis prepared for division, computed once per map."""
    if f.precision != "exact":
        raise PrecisionError("graph normal forms need an exact map")
    return f.memo("graph_gb", lambda: Divisors(buchberger(
        [f.f1 - Polynomial.variable("w1", "exact"), f.f2 - Polynomial.variable("w2", "exact")]
    )))


def graph_basis(f: GraphMap) -> list[Polynomial]:
    """Groebner basis of <f1 - w1, f2 - w2> for the graded order on all four variables."""
    return list(_graph_divisors(f))


def normal_form(p: Polynomial, f: GraphMap) -> Polynomial:
    """Canonical representative of p modulo the graph ideal.

    The result is supported on monomials w^a z^b with b in the staircase, and
    agrees with p on the graph variety.  The leading monomials of the graph
    basis are pure powers of z, so these normal forms make up a free
    C[w]-module on the staircase, and since the remainder modulo a Groebner
    basis is unique, NF(z_i * m) = NF(z_i * NF(m)) for every m.  check_star
    rests on that chain: it gets each NF(z^beta) as one multiplication by a
    variable and one reduction of the memoized NF of a smaller z-monomial.
    """
    if p.precision != "exact":
        raise PrecisionError("normal_form needs an exact polynomial")
    return reduce_full(p, _graph_divisors(f))


def _z_normal_form(f: GraphMap, beta: tuple[int, int]) -> Polynomial:
    """NF(z^beta), memoized on f: z2 (or z1, with no z2 left) times the
    memoized NF(z^(beta - e_i)), reduced once (see normal_form)."""
    def compute() -> Polynomial:
        b1, b2 = beta
        if b1 == b2 == 0:
            p = Polynomial.constant(1, "exact")
        else:
            prev, step = ((b1, b2 - 1), (0, 1)) if b2 else ((b1 - 1, 0), (1, 0))
            shift = z_monomial(step)
            p = Polynomial._of({m.mul(shift): c for m, c in _z_normal_form(f, prev).terms.items()}, "exact")
        return reduce_full(p, _graph_divisors(f))

    return f.memo(("z_nf", beta), compute)


def multiplication_table(f: GraphMap) -> tuple[list[Monomial], list[list[Polynomial]]]:
    """The staircase and, for z1 and then z2, the normal forms NF(z_i * z^beta)
    over it: column beta of multiplication by z_i on the free C[w]-module of
    normal forms (see normal_form), its entries polynomials in w."""
    g = f.to_exact()
    stairs = staircase(g)
    return stairs, [[_z_normal_form(g, (s.b1 + e1, s.b2 + 1 - e1)) for s in stairs] for e1 in (1, 0)]


def fiber_average(p: Polynomial, f: GraphMap) -> Polynomial:
    """The average of p over the fiber f^-1(w), roots counted with
    multiplicity, at p's precision: the trace of multiplication by p on the
    free C[w]-module of normal forms over d1*d2 (Stickelberger's theorem), so
    a term c*w^a*z^beta of p adds, per staircase member z^gamma, the
    z^gamma-coefficient of c*w^a*NF(z^(beta + gamma))."""
    g = f.to_exact()
    stairs = staircase(g)
    trace: dict[Monomial, GaussianRational] = {}
    for m, c in p.to_exact().terms.items():
        for s in stairs:
            for t, e in _z_normal_form(g, (m.b1 + s.b1, m.b2 + s.b2)).terms.items():
                if t.beta == s.beta:
                    key = w_monomial((m.a1 + t.a1, m.a2 + t.a2))
                    trace[key] = trace.get(key, 0) + c * e
    avg = Polynomial({m: c / len(stairs) for m, c in trace.items()}, "exact")
    return avg if p.precision == "exact" else avg.to_float()


# ---------------------------------------------------------------------------
# counts


def filtration_counts(d: int, n: int) -> tuple[int, int]:
    """(m_n, l_n) for the weight filtration of a degree-(d, d) graph basis.

    m_n counts basis monomials of weight at most n*d (the filtration level
    isomorphic to polynomials of degree <= n*d in z); l_n is the running sum
    of level indices weighted by the level increments.
    """
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    def m(k: int) -> int:
        t = k * d
        return (t + 1) * (t + 2) // 2

    l = 0
    for j in range(1, n + 1):
        l += j * (m(j) - m(j - 1))
    return m(n), l


# ---------------------------------------------------------------------------
# basis streams


def _z_level(nu: int) -> list[Monomial]:
    return [z_monomial((nu - j, j)) for j in range(nu + 1)]


def _w_level(nu: int) -> list[Monomial]:
    return [w_monomial((nu - j, j)) for j in range(nu + 1)]


def _staircase_level(stairs: Sequence[Monomial], d: int, nu: int) -> list[Monomial]:
    """Weight-nu monomials w^a z^b with b in the staircase, graph order."""
    out = []
    for s in stairs:
        rem = nu - (s.b1 + s.b2)
        if rem < 0 or rem % d:
            continue
        k = rem // d
        out.extend(Monomial(k - a2, a2, s.b1, s.b2) for a2 in range(k + 1))
    out.sort(key=GraphWeighted(d))
    return out


@dataclass(frozen=True)
class BlockShape:
    k: int
    ell: int
    r: int
    modified: bool
    copies: int
    rows: int


def block_shape(d: int, k: int) -> BlockShape:
    """Shape data of the weight-k window block, shared by the C stream's
    window levels and resultant.block_factorization.

    Decompose k - (d - 1) = ell*d + r; an even ell is lowered by one with the
    window shifted by d, keeping the row count d*(ell + 1) odd-structured.
    copies is the exponent of Res in the block determinant.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if k < 2 * d - 1:
        raise ValueError(f"blocks start at weight {2 * d - 1}")
    ell, r = divmod(k - (d - 1), d)
    modified = ell % 2 == 0
    if modified:
        ell, r = ell - 1, r + d
    return BlockShape(
        k=k,
        ell=ell,
        r=r,
        modified=modified,
        copies=ell * (ell + 1) // 2,
        rows=d * (ell + 1),
    )


def _window_level(d: int, nu: int) -> list[Monomial]:
    """The special weight-nu block for nu >= 2d - 1: z1-window times w-powers,
    with trailing pure powers of z2 closing the count at nu + 1."""
    shape = block_shape(d, nu)
    ell, r = shape.ell, shape.r
    out = [Monomial(ell - s, s, r + d - 1 - j, j) for s in range(ell + 1) for j in range(d)]
    out.extend(z_monomial((j, nu - j)) for j in range(r - 1, -1, -1))
    return out


@dataclass
class MonomialBasisStream:
    """Monomials in stream order, grouped into weight levels.

    kind "z" and "w" are the classical degree streams in one pair of
    variables; "B" follows the map's own staircase; "C" requires a generic
    staircase and switches to the window construction at weight 2d - 1, which
    keeps every level's change of basis to the z-monomials block triangular.
    A monomial of weight w enters the diameter filtration at level
    ceil(w / d) (d = 1 for "z" and "w"); levels() tabulates it.
    """

    kind: str
    f: Optional[GraphMap] = None
    _stairs: Optional[list[Monomial]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; pick one of {BASIS_KINDS}")
        if self.kind in ("B", "C"):
            if self.f is None:
                raise MapError(f"basis kind {self.kind!r} needs a map")
            d = self.f.d  # raises when d1 != d2
            if self.kind == "C":
                if not is_generic(self.f):
                    raise MapError(
                        "basis kind 'C' needs a generic staircase; "
                        "this map's staircase differs"
                    )
                self._stairs = generic_staircase(d)
            else:
                self._stairs = staircase(self.f)

    @property
    def d(self) -> int:
        return 1 if self.kind in ("z", "w") else self.f.d

    def level(self, nu: int) -> list[Monomial]:
        """The weight-nu block, in emission order."""
        if nu < 0:
            raise ValueError("negative level")
        if self.kind == "z":
            return _z_level(nu)
        if self.kind == "w":
            return _w_level(nu)
        d = self.f.d
        if self.kind == "C" and nu >= 2 * d - 1:
            return _window_level(d, nu)
        return _staircase_level(self._stairs, d, nu)

    def upto(self, nu: int) -> list[Monomial]:
        out = []
        for k in range(nu + 1):
            out.extend(self.level(k))
        return out

    def levels(self, n_max: int) -> tuple[list[Monomial], list[int], list[int]]:
        """The level table: the stream through level n_max, and for
        n = 1..n_max the count m_n of its monomials at level <= n and the sum
        l_n of their levels."""
        d = self.d
        monomials = self.upto(n_max * d)
        entry = [-(-m.weight(d) // d) for m in monomials]  # nondecreasing
        m_counts = [bisect_right(entry, n) for n in range(1, n_max + 1)]
        return monomials, m_counts, [sum(entry[:m]) for m in m_counts]

    def prefix_of(self, target: Monomial) -> list[Monomial]:
        """Stream monomials emitted strictly before target.

        Raises ValueError when target never appears (wrong staircase, or the
        level passed without emitting it).
        """
        out: list[Monomial] = []
        for nu in range(target.weight(self.d) + 1):
            for m in self.level(nu):
                if m == target:
                    return out
                out.append(m)
        raise ValueError(f"{target} is not a monomial of this stream")


def basis_stream(f: Optional[GraphMap], kind: str) -> MonomialBasisStream:
    """Factory for the four stream kinds; f may be None for "z" and "w"."""
    return MonomialBasisStream(kind=kind, f=f)


# ---------------------------------------------------------------------------
# pure-w reduction certificates


@dataclass
class StarCertificate:
    beta: tuple[int, int]
    beta_tilde: tuple[int, int]
    gamma: tuple[int, int]
    constant: GaussianRational
    reduction: Polynomial = field(repr=False)


def _star_try(f: GraphMap, beta: tuple[int, int], bt: tuple[int, int]):
    nf = _z_normal_form(f, (beta[0] + bt[0], beta[1] + bt[1]))
    if nf.is_zero():
        return None
    lm, lc = nf.leading_term(GraphWeighted(f.d))
    if lm.is_pure_w():
        return StarCertificate(beta, bt, lm.alpha, lc, nf)
    return None


def star_certificate(f: GraphMap, beta: tuple[int, int]) -> StarCertificate:
    """Find z^bt with normal_form(z^(beta+bt)) led by a pure-w monomial.

    Tries pure powers of z2 first (including the empty multiplier), then the
    multipliers of total degree up to 4d that carry z1, so each multiplier
    once.  The certificate's constant is the leading coefficient; the full
    reduction is kept for re-verification.
    """
    if f.precision != "exact":
        raise PrecisionError("star_certificate needs an exact map")
    d = f.d
    stairs = staircase(f)
    if z_monomial(beta) not in stairs:
        raise MapError(f"beta={beta} is not in the staircase")
    bound = 4 * d
    for j in range(bound + 1):
        cert = _star_try(f, beta, (0, j))
        if cert is not None:
            return cert
    for total in range(1, bound + 1):
        for t1 in range(total, 0, -1):
            cert = _star_try(f, beta, (t1, total - t1))
            if cert is not None:
                return cert
    raise StarSearchError(
        f"no multiplier of degree <= {bound} certifies beta={beta}"
    )


@dataclass
class StarReport:
    """Per-staircase-exponent reduction certificates, failures kept alongside."""

    certificates: dict[tuple[int, int], StarCertificate]
    failures: dict[tuple[int, int], str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def check_star(f: GraphMap) -> StarReport:
    """Search a reduction certificate for every staircase exponent of f.

    A missing certificate is recorded per exponent rather than raised; it
    signals a map outside the generic regime, not a failure of the search.
    Each try reads NF(z^(beta + bt)) from a memo on f, filled by the chain
    NF(z_i * m) = NF(z_i * NF(m)) that holds because the normal forms are a
    free C[w]-module on the staircase (see normal_form): the next power of
    z2 costs one multiplication by z2 and one reduction, and no monomial is
    reduced twice across the exponents of one map.
    """
    if f.precision != "exact":
        raise PrecisionError("check_star needs an exact map")
    certificates: dict[tuple[int, int], StarCertificate] = {}
    failures: dict[tuple[int, int], str] = {}
    for s in staircase(f):
        beta = s.beta
        try:
            certificates[beta] = star_certificate(f, beta)
        except StarSearchError as exc:
            failures[beta] = str(exc)
    return StarReport(certificates=certificates, failures=failures)

