"""Rees presentations, birational downgrading, and monoid association.

The Rees ideal of a tuple of forms is computed by eliminating the Rees
parameter, except two, which have closed forms: the identity Cremona
map's, the minors y_i x_j - y_j x_i (`_minors`), and a monoid's,
certified by its Hilbert series (`_monoid_rees`).  Membership of a
candidate in a Rees ideal is decided by normal form against its reduced
basis, which the presentation's handle caches; only the downgraded Rees
ideal, whose kernel K has no basis built, is tested by one substitution
y_i -> t*g_i of all its generators.  For forms of one degree, the x-free
part of the Rees ideal is the implicit ideal of their image (Cox, "The
moving curve ideal and the Rees algebra", TCS 392, 2008);
`implicit_generator` reads it off the cached basis.

A Rees ideal is prime (a kernel into the domain k[x, t]) and holds no
nonzero x-only form, so the saturation identities I_F = I_M(G) : C^inf
and I_M = I_F(G^-1) : D^inf need no elimination: the transported ideal
lies in the target by normal form against its reduced basis, and the
least k with C^k (or D^k) times the target's reduced basis inside it is
the exponent `saturate` would report.  Only when that certificate
fails, or k reaches the saturation cap, does `saturate` run, so
verdicts, exponents and budget boundaries are those of `saturate`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from jonq.birational import RationalMapData, compose, projectively_equal
from jonq.errors import HypothesisViolation, StructuralError
from jonq.groebner import (
    Budget,
    IdealHandle,
    _shifted_sum,
    buchberger,
    dim_and_codim,
    eliminate,
    hilbert_numerator,
    ideal_equal,
    saturate,
    saturation_exponent,
)
from jonq.ring import (
    Polynomial,
    VariableSet,
    _coprime_on_line,
    exact_quotient,
    substitute_all,
)


def _kernel_images(ambient, y_names, carrier):
    """The image of each ambient variable under x -> x, y_i -> t*carrier_i.

    A polynomial maps to zero exactly when it lies in the Rees kernel of
    the carrier forms.
    """
    xring = carrier[0].ring
    aux = xring.extended(xring.fresh_name("t"))
    t = Polynomial.variable(aux, aux.names[-1])
    by_name = {nm: Polynomial.variable(aux, nm) for nm in xring.names}
    by_name.update((nm, t * c.map_ring(aux)) for nm, c in zip(y_names, carrier))
    return [by_name[nm] for nm in ambient.names]


@dataclass(frozen=True)
class ReesPresentation:
    """Bigraded generators of a Rees-type ideal in k[x; y].

    `ideal` is the handle of the generators, made here unless given
    (`rees_ideal` passes the one `eliminate` returns, with its reduced
    basis cached).
    """

    ambient: VariableSet
    x_names: tuple
    y_names: tuple
    generators: tuple
    ideal: IdealHandle | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        x_idx = self.x_indices()
        for g in self.generators:
            if not g.is_bihomogeneous(x_idx):
                raise StructuralError(f"Rees generator is not bihomogeneous: {g}")
        if self.ideal is None:
            object.__setattr__(self, "ideal", IdealHandle(self.ambient, self.generators))

    def x_indices(self):
        return tuple(self.ambient.index(n) for n in self.x_names)


def eliminate_rees_parameter(gens, y_names, budget=None):
    """(y_i - t*g_i) intersect k[x, y] over the x then the y variables.

    One elimination of t; a zero g_i contributes y_i.  The handle caches
    its reduced degrevlex basis.  The y names must be new.  When the g_i
    are forms, weight 1 on x and t and deg(g_i) + 1 on y_i makes each
    y_i - t*g_i homogeneous, and k[x, y, t]/(y_i - t*g_i) = k[x, t], so they
    form a regular sequence and the Hilbert series of their ideal is
    prod_i (1 - s^(deg(g_i) + 1)) / prod_v (1 - s^w_v).  The elimination
    gets that series and drops the pairs it rules out.
    """
    xring = gens[0].ring
    ambient = xring.union(VariableSet(y_names))
    tname = ambient.fresh_name("t")
    big = ambient.extended(tname)
    t = Polynomial.variable(big, tname)
    rel = [
        Polynomial.variable(big, nm) - t * g.map_ring(big)
        for nm, g in zip(y_names, gens)
    ]
    hilbert = None
    if all(g.is_homogeneous() for g in gens):
        weights = [1] * len(big)
        numerator = [1]
        for nm, g in zip(y_names, gens):
            w = 1 if g.is_zero() else g.total_degree() + 1
            weights[big.index(nm)] = w
            numerator = _shifted_sum(numerator, numerator, w, -1)
        hilbert = (weights, numerator)
    return eliminate(IdealHandle(big, rel), (tname,), budget=budget, hilbert=hilbert)


def implicit_generator(ideal, x_names, y_ring, budget=None):
    """The canonical generator of `ideal` intersect k[y], which must be principal.

    The reduced basis of a bihomogeneous ideal is bihomogeneous, so a
    basis element with an x-free lead is x-free, and the x-free elements
    are the reduced basis of the x-free part.
    """
    x_idx = tuple(ideal.ring.index(nm) for nm in x_names)
    free = [h for h in ideal.gb(budget=budget).generators if h.degree_in(x_idx) == 0]
    if len(free) != 1:
        raise HypothesisViolation(
            "the image is not a hypersurface: elimination ideal is not "
            f"principal ({len(free)} generators)"
        )
    return free[0].restrict_to(y_ring).canonical()


def rees_ideal(gens, y_names=None, budget=None):
    """Defining ideal of the Rees algebra of (gens), by eliminating t."""
    gens = list(gens)
    if not gens:
        raise StructuralError("rees_ideal needs generators")
    xring = gens[0].ring
    degs = set()
    for g in gens:
        if g.ring != xring:
            raise StructuralError("Rees generators over mixed variable sets")
        if g.is_zero() or not g.is_homogeneous():
            raise StructuralError("Rees generators must be nonzero homogeneous forms")
        degs.add(g.total_degree())
    if len(degs) != 1:
        raise StructuralError("Rees generators must share one degree")
    if y_names is None:
        y_names = tuple(f"y{i}" for i in range(len(gens)))
    y_names = tuple(y_names)
    if len(y_names) != len(gens):
        raise StructuralError("one y variable per generator")
    elim = eliminate_rees_parameter(gens, y_names, budget)  # its ring: x then y
    return ReesPresentation(elim.ring, xring.names, y_names, elim.gens, elim)


def _minors(ambient, x_names, y_names):
    """The minors x_j y_i - x_i y_j (i < j) in `ambient`, x before y.

    They generate the Rees ideal of (x_0, ..., x_n): a regular sequence is
    of linear type, so that Rees ideal is the ideal of its Koszul
    relations (Vasconcelos, Arithmetic of Blowup Algebras, 1994).  The
    maximal minors of a generic matrix are a Groebner basis under every
    order (Bernstein-Zelevinsky, J. Algebraic Combin. 2, 1993); their
    leads x_j y_i divide no other term, so they are also the reduced
    degrevlex basis, listed in the order `eliminate` gives it.
    """
    xs = [Polynomial.variable(ambient, nm) for nm in x_names]
    ys = [Polynomial.variable(ambient, nm) for nm in y_names]
    n = len(xs) - 1
    return [
        xs[j] * ys[i] - xs[i] * ys[j] for i in reversed(range(n)) for j in range(n, i, -1)
    ]


# -- framing and downgrading --------------------------------------------------


def x_framing(Q, x_indices, seed=None):
    """Write Q = sum x_i Q_i; deterministic lowest-index rule by default.

    With a seed, each term is assigned to a seeded-random x variable with
    positive exponent (framings are only stable modulo Koszul relations,
    so membership conclusions must not depend on the choice).
    """
    ring = Q.ring
    x_indices = tuple(x_indices)
    rng = random.Random(seed) if seed is not None else None
    buckets = {i: {} for i in x_indices}
    for mono, c in sorted(Q.items()):
        positive = [i for i in x_indices if mono[i] > 0]
        if not positive:
            raise StructuralError(
                "x-framing: a term has x-degree 0 and cannot be framed"
            )
        pick = positive[0] if rng is None else rng.choice(positive)
        m2 = list(mono)
        m2[pick] -= 1
        bucket = buckets[pick]
        key = tuple(m2)
        bucket[key] = bucket.get(key, 0) + c
    return [Polynomial(ring, buckets[i]) for i in x_indices]


def downgrade(Q, H, x_indices, seed=None):
    """One birational downgrading step D_H(Q) = sum H_i Q_i.

    `H` lists the inverse-map forms, already living in Q's ring (pure-y).
    A polynomial with x-degree 0 passes through unchanged.
    """
    if len(H) != len(tuple(x_indices)):
        raise StructuralError("downgrade needs one H form per x variable")
    if Q.degree_in(x_indices) == 0:
        return Q
    parts = x_framing(Q, x_indices, seed=seed)
    acc = Polynomial.zero(Q.ring)
    for h, part in zip(H, parts):
        if not part.is_zero():
            acc = acc + h * part
    return acc


def iterated_downgrades(Q, H, x_indices, seed=None):
    """[Q, D(Q), D^2(Q), ...] down to the fully downgraded pure-y stage."""
    chain = [Q]
    cur = Q
    for _ in range(Q.degree_in(x_indices)):
        cur = downgrade(cur, H, x_indices, seed=seed)
        chain.append(cur)
        if cur.is_zero():
            break
    return chain


# -- the downgraded Rees ideal -------------------------------------------------


def _with_downgrades(base, columns, y_names, H, x_indices):
    """`base` followed by the downgrade chain of each Q = sum_k column_k * y_k.

    `base` lives in the ambient ring of `H`; each column holds one x-form
    per name of `y_names`.  Returns the generators and the chains.
    """
    ambient = H[0].ring
    ys = [Polynomial.variable(ambient, nm) for nm in y_names]
    chains = []
    for column in columns:
        Q = Polynomial.zero(ambient)
        for c, y in zip(column, ys):
            if not c.is_zero():
                Q = Q + c.map_ring(ambient) * y
        chains.append(tuple(iterated_downgrades(Q, H, x_indices)))
    return tuple(base) + tuple(g for chain in chains for g in chain), tuple(chains)


@dataclass(frozen=True)
class DowngradeReport:
    contained_in_rees: bool
    codim: int
    codim_expected: int
    codim_matches: bool
    factors: tuple  # per chain, its last element / F in the monoid ring, or None
    all_divisible_by_F: bool
    chains: tuple  # tuple of downgrade chains (tuples of Polynomial)


def downgraded_rees_ideal(P, monoid, conductor, budget=None):
    """Assemble D = (I_rees, all iterated downgrades) and verify its facts.

    `conductor` is the `conductor_data` of the base ideal and g.
    Verifies: every generator lies in the Rees kernel K of (If, g), by
    one substitution y_i -> t*c_i of all of them; the codimension is n+1;
    every fully downgraded element is a multiple of F.  The Rees ideal of
    the identity Cremona map is its minors (`_minors`), taken without
    eliminating t.
    Each fully downgraded element is divided by F once: `factors` holds
    the quotient, or None when x is left in the element or F fails to
    divide it.

    The codimension rests on a theorem plus two computed facts: the
    containment D in K and a chain ending in a nonzero x-free form q.
    D holds R_G S + (q), R_G the Rees ideal of the Cremona map G: prime,
    of codimension n, and free of y-only elements since G is dominant, so
    q is outside it and codim D >= n+1 (Krull).  K is the Rees ideal of a
    nonzero ideal of k[x_0..x_n], of dimension n+2 (Vasconcelos, Arithmetic
    of Blowup Algebras, 1994), so codim D <= codim K = n+1.  When either
    fact fails, the codimension is read from a degrevlex basis of D.
    """
    budget = budget or Budget()
    n = P.n
    xring = P.source
    ambient = xring.union(P.monoid_ring)
    x_idx = tuple(ambient.index(nm) for nm in xring.names)
    coords = P.cremona.forward.coords
    if list(coords) == Polynomial.gens(xring):
        base = _minors(ambient, xring.names, P.cremona.target.names)
    else:
        cre = rees_ideal(coords, P.cremona.target.names, budget)
        base = [g.map_ring(ambient) for g in cre.generators]
    columns = [
        conductor.content.column(j) + (-(P.f * cj),) for j, cj in enumerate(conductor.conductors)
    ]
    gens, chains = _with_downgrades(
        base,
        columns,
        P.monoid_ring.names,
        [h.map_ring(ambient) for h in P.cremona.inverse.coords],
        x_idx,
    )
    pres = ReesPresentation(ambient, xring.names, P.monoid_ring.names, gens)
    # (i) containment in the Rees kernel of (If, g)
    images = _kernel_images(ambient, P.monoid_ring.names, P.coordinates())
    contained = all(q.is_zero() for q in substitute_all(pres.generators, images))
    # (ii) codimension: certified n+1 when D lies in the Rees kernel and a
    # chain ends in a nonzero x-free form, else computed
    ends = [chain[-1] for chain in chains]
    x_free = [q.degree_in(x_idx) == 0 for q in ends]
    if contained and any(free and not q.is_zero() for q, free in zip(ends, x_free)):
        codim = n + 1
    else:
        _, codim = dim_and_codim(pres.ideal, budget)
    # (iii) fully downgraded elements are multiples of F
    factors = tuple(
        exact_quotient(q.restrict_to(P.monoid_ring), monoid.F) if free else None
        for q, free in zip(ends, x_free)
    )
    report = DowngradeReport(
        contained_in_rees=contained,
        codim=codim,
        codim_expected=n + 1,
        codim_matches=(codim == n + 1),
        factors=factors,
        all_divisible_by_F=all(q is not None for q in factors),
        chains=chains,
    )
    return pres, report


# -- monoid association --------------------------------------------------------


@dataclass(frozen=True)
class MonoidParametrization:
    h_delta: Polynomial
    h_delta_minus_1: Polynomial
    coords: tuple
    sign: int
    rees: ReesPresentation = field(repr=False, compare=False)  # of `coords`


def _monoid_numerator(n, delta):
    """N_M, lowest coefficient first: HS(S/I_M) = N_M(s) / (1 - s)^(2n+3).

    N_M = (1 + n s - delta s^delta - (n + 1 - delta) s^(delta+1)) (1 - s)^n.
    """
    N = [1, n] + [0] * (delta - 2) + [-delta, delta - n - 1]
    for _ in range(n):
        N = _shifted_sum(N, N, 1, -1)
    return N


def _monoid_rees(h_dm1, h_delta, coords, y_names, budget):
    """The Rees ideal I_M of the monoid tuple `coords`, in closed form, or None.

    `coords` is (h_dm1 x_0, ..., h_dm1 x_n, s h_delta).  D_M is the minors
    y_i x_j - y_j x_i (the Rees ideal of the identity map) plus the
    downgrade chain of Q = sum c_i y_i - h_dm1 y_(n+1) by (y_0, ..., y_n),
    where s h_delta = sum x_i c_i is its x-framing: `downgraded_rees_ideal`
    over the identity Cremona map.  Its degrevlex basis is accepted as I_M
    by a certificate:

    * D_M lies in I_M.  The minors and Q map to zero (Q by one substitution),
      and a downgrade keeps kernel membership: if Q' = sum x_i Q'_i maps to
      zero, sum y_i Q'_i maps to t h_dm1 times the image of Q'.
    * S/I_M is the Rees algebra of h_dm1 (x_0, ..., x_n) + (h_delta); its
      bidegree-(a, b) piece is ((h_dm1, h_delta)^b)_(a + b delta).  For
      n >= 1, deg h_dm1 = delta - 1 >= 1 and coprime forms (a regular
      sequence), Hilbert-Burch resolves (u, v)^b by b + 1 generators of
      degrees b delta - k over b relations of degrees b delta + delta - 1 - k,
      and the sum is `_monoid_numerator`.  Coprimality is proved by the
      mod-p certificate `poly_gcd` opens with; a monoid's components are
      coprime by construction, but one built from other components would
      share a factor L and a smaller series, which D_M can still meet.
    * D_M in I_M with that numerator gives D_M = I_M: a smaller ideal has a
      larger quotient in some degree.

    The run is told that series, of I_M, which contains D_M, so its
    pruning is sound (`_buchberger_core`).  None when a hypothesis on the
    degrees or a check fails.
    """
    xring = h_dm1.ring
    n, delta = len(xring) - 1, h_delta.total_degree() or 0
    forms = h_dm1.is_homogeneous() and h_delta.is_homogeneous()
    if n < 1 or delta < 2 or not forms or h_dm1.total_degree() != delta - 1:
        return None
    if not _coprime_on_line(h_dm1.primitive_part(), h_delta.primitive_part()):
        return None
    ambient = xring.union(VariableSet(y_names))
    x_idx = tuple(ambient.index(nm) for nm in xring.names)
    ys = [Polynomial.variable(ambient, nm) for nm in y_names]
    minors = _minors(ambient, xring.names, y_names[:-1])
    column = x_framing(coords[-1], range(n + 1)) + [-h_dm1]
    gens, chains = _with_downgrades(minors, [column], y_names, ys[:-1], x_idx)
    Q = chains[0][0]
    if not Q.substitute(_kernel_images(ambient, y_names, coords)).is_zero():
        return None
    N = _monoid_numerator(n, delta)
    basis = buchberger(gens, budget=budget, ring=ambient, hilbert=([1] * len(ambient), N))
    ideal = IdealHandle.of_basis(basis)
    if hilbert_numerator(ideal) != N:
        return None
    return ReesPresentation(ambient, xring.names, y_names, basis.generators, ideal)


@dataclass(frozen=True)
class MonoidAssociationReport:
    sign: int
    paper_sign_vanishes: bool
    same_implicit_equation: bool
    composition_order: str | None  # which order reproduced the parametrization
    composition_holds: bool


def monoid_association(P, monoid, budget=None):
    """Build the standard monoid parametrization M sharing F, and verify.

    (a) M has the same implicit equation F: the x-free part of the Rees
    ideal of M, which M carries for `saturation_identities`.  That ideal
    comes from the closed form of `_monoid_rees`, certified by its Hilbert
    series, or, when a hypothesis or the certificate fails, from
    `rees_ideal`'s elimination of t;
    (b) the de Jonquieres map factors as the Cremona map followed by M,
    testing both composition orders and recording which one holds.  Each
    order compares the unstripped composite with the parametrization by
    `projectively_equal`; a common factor of the composite scales every
    cross-product and so cannot change the verdict, and no gcd is taken.
    The last coordinate's sign is chosen so that F(M) = 0; the report also
    records whether the opposite (paper display) sign vanishes.  When
    `monoid.sign` reads the sign `+` off F's construction, the paper sign
    does not vanish; only otherwise are both tuples substituted into F.
    `implicitize` proves the two components coprime before it builds the
    monoid; `_monoid_rees` checks that again, as `ImplicitMonoid.of` does not.
    """
    budget = budget or Budget()
    xring = P.source
    h_delta = monoid.F_delta.rename(xring)
    h_dm1 = monoid.F_delta_minus_1.rename(xring)
    xs = Polynomial.gens(xring)

    def coords_for(sign):
        return tuple(h_dm1 * x for x in xs) + (h_delta * sign,)

    def f_vanishes(sign):
        return monoid.F.substitute(list(coords_for(sign))).is_zero()

    if monoid.sign == 1:
        plus, minus = True, False
    else:
        plus, minus = f_vanishes(1), f_vanishes(-1)
    if not (plus or minus):
        raise StructuralError("no sign makes F vanish on the monoid tuple")
    sign = 1 if plus else -1
    coords = coords_for(sign)
    I_M = _monoid_rees(h_dm1, h_delta, coords, P.monoid_ring.names, budget)
    if I_M is None:
        I_M = rees_ideal(coords, y_names=P.monoid_ring.names, budget=budget)
    M = MonoidParametrization(h_delta, h_dm1, coords, sign, I_M)
    F2 = implicit_generator(I_M.ideal, xring.names, P.monoid_ring, budget)
    same_F = F2.proportional_to(monoid.F)

    M_map = RationalMapData(xring, P.monoid_ring, coords)
    G = P.cremona.forward
    order = None
    for name, first, second in (
        ("cremona_then_monoid", G, M_map),
        ("monoid_then_cremona", M_map, G),
    ):
        try:
            comp = compose(first, second)
            if projectively_equal(list(comp.coords), list(P.coordinates())):
                order = name
                break
        except StructuralError:
            pass
    report = MonoidAssociationReport(
        sign=sign,
        paper_sign_vanishes=minus,
        same_implicit_equation=same_F,
        composition_order=order,
        composition_holds=order is not None,
    )
    return M, report


@dataclass(frozen=True)
class SaturationReport:
    status: str  # holds | fails
    forward_equal: bool  # I_F == I_M(G) : C^inf
    backward_equal: bool  # I_M == I_F(G^-1) : D^inf
    forward_exponents: tuple
    backward_exponents: tuple


def _saturates_to(T, target, b, budget):
    """(T : b^infinity == target's Rees ideal, exponents), as `saturate(T, (b))`
    followed by `ideal_equal` would give them.

    `target` comes from `rees_ideal` or `_monoid_rees`, so its generators
    are its reduced basis, cached on its handle: a membership test is a
    normal form and charges no S-pair.  A Rees ideal is prime and holds no
    nonzero x-only form, so b is not in it; when every generator of T lies
    in it, T : b^inf does too.  The least k with b^k * target inside T then
    proves equality, and k is `saturate`'s exponent, since the reduced
    basis that `saturate` raises to b^k is target's own.  A constant b, a
    failed containment or a k at `budget.sat_cap` go through `saturate`,
    which finds the true answer or raises BudgetExceeded.
    """
    if not b.is_constant() and all(target.ideal.contains(h, budget) for h in T.gens):
        k = saturation_exponent(T, target.ideal.gens, b, budget)
        if k is not None:
            return True, (k,)
    sat, exponents = saturate(T, IdealHandle.of(b), budget)
    return ideal_equal(sat, target.ideal, budget), tuple(exponents)


def saturation_identities(P, M, budget=None):
    """Transported Rees ideals agree after saturating by C / D.

    `M` is the monoid parametrization from `monoid_association`; its Rees
    ideal I_M is the one `M` carries, and it is also I_F when M is the de
    Jonquieres map itself (over the identity Cremona map).  The transport
    substitutes the x variables (by g, resp. g'); the second saturation
    uses D written in the x variables, which is what the inversion identity
    g_i(g'(x)) = x_i * D(x) produces.  Each identity is certified by the
    primality of the Rees ideal (`_saturates_to`): one normal form against
    the target's reduced basis per transported generator and the exponent
    search, with no elimination unless that certificate fails.  Each
    transport substitutes all generators in one `substitute_all`.  A
    budget that runs out raises BudgetExceeded.
    """
    budget = budget or Budget()
    xring = P.source
    I_M = M.rees
    coords = P.coordinates()
    I_F = I_M if M.coords == coords else rees_ideal(
        coords, y_names=P.monoid_ring.names, budget=budget
    )
    ambient = I_F.ambient
    x_named = {nm: Polynomial.variable(ambient, nm) for nm in ambient.names}

    def transport(pres, images_for_x):
        """The handle of pres with x substituted; pres's own when x maps to x."""
        if all(images_for_x[nm] == Polynomial.variable(xring, nm) for nm in xring.names):
            return pres.ideal
        images = [
            images_for_x[nm].map_ring(ambient) if nm in xring else x_named[nm]
            for nm in ambient.names
        ]
        return IdealHandle(ambient, tuple(substitute_all(pres.generators, images)))

    g_map = dict(zip(xring.names, P.cremona.forward.coords))
    ginv_x = [c.rename(xring) for c in P.cremona.inverse.coords]
    ginv_map = dict(zip(xring.names, ginv_x))

    C_amb = P.cremona.source_factor.map_ring(ambient)
    forward_equal, fwd_exp = _saturates_to(transport(I_M, g_map), I_F, C_amb, budget)

    D_x = P.cremona.target_factor.rename(xring).map_ring(ambient)
    backward_equal, bwd_exp = _saturates_to(transport(I_F, ginv_map), I_M, D_x, budget)
    status = "holds" if (forward_equal and backward_equal) else "fails"
    return SaturationReport(status, forward_equal, backward_equal, fwd_exp, bwd_exp)
