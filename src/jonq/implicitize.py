"""The implicitization core.

de Jonquieres parametrizations, the closed-form monoid equation, degree
predictions, the syzygetic polynomials and case equivalences (read from
`jonq.syzygies.conductor_data`), the Eulerian equation of a polar Cremona
map, and the independent elimination oracle.  The oracle reads only the
coordinates c_i: they share one degree, so the x-free part of their Rees
ideal (y_i - t*c_i) intersect k[x, y] is the implicit ideal, one
elimination of t (Cox, "The moving curve ideal and the Rees algebra",
TCS 392, 2008).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from jonq.birational import RationalMapData, VerifiedCremona, verify_cremona
from jonq.errors import HypothesisViolation, StructuralError
from jonq.groebner import IdealHandle
from jonq.rees import eliminate_rees_parameter, implicit_generator
from jonq.ring import Polynomial, VariableSet, divide_exact, exact_quotient, poly_gcd


def monoid_ring_for(target, source):
    """The target variables plus one monoid variable (y_{n+1}).

    Its name is fresh against the source names too: Rees ideals of the
    parametrization live over the source and monoid variables together.
    """
    taken = target.extended(*(n for n in source.names if n not in target.names))
    fresh = taken.fresh_name(f"y{len(target)}")
    return target.extended(fresh), fresh


@dataclass(frozen=True)
class JonquieresData:
    """A de Jonquieres parametrization (g_0 f : ... : g_n f : g).

    The evaluations at the inverse map and their gcds are derived once, on
    first use, and shared by every report of the instance.
    """

    cremona: VerifiedCremona
    f: Polynomial
    g: Polynomial
    monoid_ring: VariableSet
    last_var: str

    @classmethod
    def build(cls, cremona, f, g):
        ring = cremona.source
        if f.ring != ring or g.ring != ring:
            raise StructuralError("f and g must live over the source variables")
        if f.is_zero() or g.is_zero():
            raise HypothesisViolation("f and g must be nonzero forms")
        if not f.is_homogeneous() or not g.is_homogeneous():
            raise HypothesisViolation("f and g must be homogeneous forms")
        if f.total_degree() < 1:
            raise HypothesisViolation("deg(f) >= 1 is required")
        if g.total_degree() != cremona.degree + f.total_degree():
            raise HypothesisViolation(
                "the degree relation deg(g) = deg(G) + deg(f) fails: "
                f"{g.total_degree()} != {cremona.degree} + {f.total_degree()}"
            )
        if not poly_gcd(f, g).is_constant():
            raise HypothesisViolation("f and g are not relatively prime")
        mring, last = monoid_ring_for(cremona.target, cremona.source)
        return cls(cremona, f, g, mring, last)

    @property
    def source(self):
        return self.cremona.source

    @property
    def n(self):
        return len(self.source) - 1

    def coordinates(self):
        """The parametrizing forms (g_0 f, ..., g_n f, g)."""
        return tuple(gi * self.f for gi in self.cremona.forward.coords) + (self.g,)

    def base_ideal_I(self):
        return IdealHandle(self.source, self.cremona.forward.coords)

    def ideal_J(self):
        return IdealHandle(self.source, self.coordinates())

    @cached_property
    def evaluations(self):
        """(f(g'), g(g')), both nonzero by hypothesis."""
        ginv = list(self.cremona.inverse.coords)
        fg = self.f.substitute(ginv)
        gg = self.g.substitute(ginv)
        if fg.is_zero():
            raise HypothesisViolation("hypothesis f(g') != 0 fails")
        if gg.is_zero():
            raise HypothesisViolation("hypothesis g(g') != 0 fails")
        return fg, gg

    @cached_property
    def stripped_gcd(self):
        """gcd(g(g'), f(g') D), the denominator of the closed form."""
        fg, gg = self.evaluations
        return poly_gcd(gg, fg * self.cremona.target_factor)

    @cached_property
    def evaluations_coprime(self):
        """Whether gcd(f(g'), g(g')) = 1."""
        return poly_gcd(*self.evaluations).is_constant()


@dataclass(frozen=True)
class ImplicitMonoid:
    """F = F_delta - y_{n+1} * F_{delta-1}, with the stripped denominator."""

    F: Polynomial
    F_delta: Polynomial
    F_delta_minus_1: Polynomial
    stripped_gcd: Polynomial
    last_var: str

    @classmethod
    def of(cls, P, F_delta, F_dm1, stripped_gcd):
        """The monoid equation of `P` with the given components."""
        y_last = Polynomial.variable(P.monoid_ring, P.last_var)
        F = F_delta.map_ring(P.monoid_ring) - y_last * F_dm1.map_ring(P.monoid_ring)
        return cls(F, F_delta, F_dm1, stripped_gcd, P.last_var)

    @property
    def delta(self):
        return self.F.total_degree()

    @property
    def sign(self):
        """The sign s with F(F_{delta-1} x_0, ..., F_{delta-1} x_n, s F_delta) = 0,
        read off the construction, or None when the components do not allow it.

        `of` builds F = F_delta - y_{n+1} F_{delta-1}.  When F_delta and
        F_{delta-1} are nonzero forms of degrees delta and delta - 1,
        homogeneity gives F(F_{delta-1} x, s F_delta) = (1 - s)
        F_{delta-1}^delta F_delta: s = 1 makes F vanish and s = -1 does not.
        """
        degrees = (self.delta, self.delta - 1)
        for h, d in zip((self.F_delta, self.F_delta_minus_1), degrees):
            if not h.is_homogeneous() or h.total_degree() != d:  # None for zero
                return None
        return 1


def implicitize(P):
    """The implicit monoid equation in closed form.

    F = (g(g') - y_{n+1} f(g') D) / gcd(g(g'), f(g') D); irreducible by
    construction since the two components end up relatively prime.
    """
    fg, gg = P.evaluations
    stripped = P.stripped_gcd
    F_delta = divide_exact(gg, stripped)
    F_dm1 = divide_exact(fg * P.cremona.target_factor, stripped)
    if not poly_gcd(F_delta, F_dm1).is_constant():
        raise StructuralError("monoid components fail to be relatively prime")
    return ImplicitMonoid.of(P, F_delta, F_dm1, stripped)


@dataclass(frozen=True)
class DegreeReport:
    deg_F: int
    via_deg_g: int
    via_deg_f: int
    upper_bound: int
    stripped_gcd_degree: int
    evaluations_coprime: bool
    window: tuple | None
    window_holds: bool | None


def predicted_degree(P, monoid):
    """Both degree expressions of the closed form, plus the coprime window."""
    D = P.cremona.target_factor
    dprime = P.cremona.inverse_degree
    df = P.f.total_degree()
    dg = P.g.total_degree()
    sdeg = monoid.stripped_gcd.total_degree()
    via_g = dg * dprime - sdeg
    via_f = df * dprime + D.total_degree() + 1 - sdeg
    window = None
    window_holds = None
    if P.evaluations_coprime:
        # upper end attained exactly when gcd(g(g'), D) is constant (then
        # deg F = deg(g) deg(G^-1)), e.g. over the identity Cremona
        window = (df * dprime + 1, dg * dprime)
        window_holds = window[0] <= monoid.delta <= window[1]
    return DegreeReport(
        deg_F=monoid.delta,
        via_deg_g=via_g,
        via_deg_f=via_f,
        upper_bound=dg * dprime,
        stripped_gcd_degree=sdeg,
        evaluations_coprime=P.evaluations_coprime,
        window=window,
        window_holds=window_holds,
    )


@dataclass(frozen=True)
class SyzygeticPolynomial:
    conductor_gen: Polynomial  # c_j, over the source variables
    polynomial: Polynomial  # the evaluated form in the monoid ring
    extraneous_factor: Polynomial | None  # polynomial / F; None if F does not divide it


def syzygetic_polynomials(P, monoid, conductor):
    """One syzygetic polynomial per minimal conductor generator.

    `conductor` is the `conductor_data` of the base ideal and g.  Each is
    sum h_ij(g') y_i - f(g') c_j(g') y_{n+1}, an exact multiple of F; it
    is divided by F once, and the quotient (extraneous factor) is None
    when F fails to divide it.
    """
    ginv = list(P.cremona.inverse.coords)
    mring = P.monoid_ring
    y_last = Polynomial.variable(mring, P.last_var)
    fg = P.evaluations[0]
    out = []
    for j, cj in enumerate(conductor.conductors):
        acc = Polynomial.zero(mring)
        for i, h in enumerate(conductor.content.column(j)):
            if h.is_zero():
                continue
            acc = acc + h.substitute(ginv).map_ring(mring) * Polynomial.variable(
                mring, P.cremona.target.names[i]
            )
        acc = acc - y_last * (fg * cj.substitute(ginv)).map_ring(mring)
        out.append(SyzygeticPolynomial(cj, acc, exact_quotient(acc, monoid.F)))
    return out


@dataclass(frozen=True)
class InclusionReport:
    applicable: bool
    side_inclusion: bool | None
    equivalent: bool | None


def inclusion_case_equivalence(P, monoid, conductor, syzygetic):
    """The inclusion-case biconditional, evaluated from both ends.

    g lies in I if and only if deg F = deg(f)*deg(G^-1) + 1 and some
    syzygetic polynomial generates (F).  `syzygetic` is
    `syzygetic_polynomials(P, monoid, conductor)`; a polynomial generates
    (F) exactly when its quotient by F is a nonzero constant.

    Applicable only when gcd(f(g'), g(g')) = 1; otherwise reported as
    not-applicable.
    """
    if not P.evaluations_coprime:
        return InclusionReport(False, None, None)
    side_i = conductor.kind == "inclusion"
    target_deg = P.f.total_degree() * P.cremona.inverse_degree + 1
    side_ii = monoid.delta == target_deg and any(
        q is not None and q.is_constant() and not q.is_zero()
        for q in (syz.extraneous_factor for syz in syzygetic)
    )
    return InclusionReport(True, side_i, side_i == side_ii)


@dataclass(frozen=True)
class NzdReport:
    principal_match: bool  # (P) = (F)
    coprime_gcd: bool  # gcd(g(g'), f(g') D) = 1
    degree_match: bool  # deg F = deg(f) deg(G^-1) + deg(D) + 1
    agree: bool
    degree_bound_holds: bool


def nzd_case(P, monoid, conductor):
    """The three equivalent conditions of the non-zero-divisor case."""
    if conductor.kind != "non_zero_divisor":
        raise HypothesisViolation(
            "g is not a non-zero-divisor on R/I (case classified as "
            f"{conductor.kind})"
        )
    fg, gg = P.evaluations
    D = P.cremona.target_factor
    mring = P.monoid_ring
    y_last = Polynomial.variable(mring, P.last_var)
    cand = gg.map_ring(mring) - y_last * (fg * D).map_ring(mring)
    a = cand.proportional_to(monoid.F)
    b = P.stripped_gcd.is_constant()
    rhs = P.f.total_degree() * P.cremona.inverse_degree + D.total_degree() + 1
    c = monoid.delta == rhs
    return NzdReport(
        principal_match=a,
        coprime_gcd=b,
        degree_match=c,
        agree=(a == b == c),
        degree_bound_holds=monoid.delta <= rhs,
    )


def eulerian_equation(g, grad_inverse, lam):
    """The general Eulerian equation of a polar Cremona map.

    `g` reduced homaloidal of degree d+1: its partials must verify as a
    Cremona map against `grad_inverse`.  `lam` gives f = sum lam_i x_i.
    F = sum (y_i - (d+1) lam_i y_{n+1}) g'_i(y).
    """
    ring = g.ring
    partials = [g.derivative(nm) for nm in ring.names]
    if any(p.is_zero() for p in partials):
        raise HypothesisViolation(
            "not homaloidal / wrong inverse: a partial derivative vanishes"
        )
    polar = RationalMapData(ring, grad_inverse.source, tuple(partials))
    try:
        cremona = verify_cremona(polar, grad_inverse)
    except HypothesisViolation as exc:
        raise HypothesisViolation(f"not homaloidal / wrong inverse: {exc}") from None
    if len(lam) != len(ring):
        raise StructuralError("one lambda per variable is required")
    f = Polynomial.zero(ring)
    for li, nm in zip(lam, ring.names):
        f = f + Polynomial.variable(ring, nm) * li
    if f.is_zero():
        raise HypothesisViolation("f = sum lam_i x_i must be nonzero")
    P = JonquieresData.build(cremona, f, g)
    if not P.evaluations_coprime:
        raise HypothesisViolation(
            "gcd(f(g'), g(g')) != 1: lambda is not general enough"
        )
    dplus1 = g.total_degree()
    target = cremona.target
    F_delta = Polynomial.zero(target)
    F_dm1 = Polynomial.zero(target)
    for li, nm, gp in zip(lam, target.names, cremona.inverse.coords):
        F_delta = F_delta + Polynomial.variable(target, nm) * gp
        F_dm1 = F_dm1 + gp * (dplus1 * li)
    if not poly_gcd(F_delta, F_dm1).is_constant():
        raise HypothesisViolation(
            "Eulerian components share a factor: lambda is not general enough"
        )
    return ImplicitMonoid.of(P, F_delta, F_dm1, Polynomial.constant(target, 1))


def verify_inverse_representative(P, monoid):
    """Check (g'_0 : ... : g'_n) represents the inverse, modulo (F).

    All 2x2 minors M_ij of the 2 x (n+2) matrix with rows (coords
    evaluated at g') and (y_0, ..., y_{n+1}) must be multiples of F: the
    reduced basis of the principal ideal (F) is F itself, so this is
    exact division by F.  Only the n+1 minors M_ik of one column k with
    y_k not dividing F are divided: y_k M_ij = y_i M_kj - y_j M_ki, and
    y_k is a nonzerodivisor modulo (F), so they put every minor in (F).
    y_{n+1} is such a k when F_delta != 0; when every y_k divides F, all
    minors are divided.
    """
    ginv = list(P.cremona.inverse.coords)
    mring = P.monoid_ring
    top = [c.substitute(ginv).map_ring(mring) for c in P.coordinates()]
    bottom = [Polynomial.variable(mring, nm) for nm in mring.names]
    n2 = len(top)
    F = monoid.F
    free = [k for k in range(n2) if any(not m[k] for m, _ in F.items())]
    if free:
        pairs = [(i, free[-1]) for i in range(n2) if i != free[-1]]
    else:
        pairs = combinations(range(n2), 2)
    return all(
        exact_quotient(top[i] * bottom[j] - top[j] * bottom[i], F) is not None
        for i, j in pairs
    )


def oracle_implicitize(coords, target_ring=None, budget=None):
    """Independent elimination oracle for the implicit equation.

    Eliminates t from (y_i - t*coord_i), so a zero coordinate gives y_i,
    and reads the x-free part of the result; requires the image to be a
    hypersurface (principal nonzero x-free part) and returns its canonical
    generator.
    """
    if not coords:
        raise StructuralError("no coordinates")
    ring = coords[0].ring
    if len(coords) != len(ring) + 1:
        raise StructuralError(
            "hypersurface oracle needs n+2 coordinates over n+1 variables"
        )
    degs = set()
    for c in coords:
        if c.ring != ring:
            raise StructuralError("coordinates over mixed variable sets")
        if not c.is_zero():
            if not c.is_homogeneous():
                raise StructuralError("coordinates must be homogeneous")
            degs.add(c.total_degree())
    if len(degs) != 1:
        raise StructuralError("coordinates of unequal degrees")
    if target_ring is None:
        target_ring = VariableSet([f"y{i}" for i in range(len(coords))])
    if len(target_ring) != len(coords):
        raise StructuralError("target ring size must match coordinate count")
    rees = eliminate_rees_parameter(coords, target_ring.names, budget)
    return implicit_generator(rees, ring.names, target_ring, budget)
