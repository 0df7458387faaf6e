"""Buchberger-based ideal arithmetic.

Normal forms, membership, intersection, colon, saturation, elimination,
lifting, and dimension/graded-piece computations.  Intersection, colon
and saturation run on `eliminate`, whose handles come with their reduced
degrevlex basis cached.  Generators are
integer-primitive term lists keyed by additive order keys (see
`jonq.orders`), sorted descending, with positive lead.  Pairs are pruned
by Gebauer-Moeller and chosen by normal selection (lcm degree, sugar
tie-break).  Reduced bases are unique per (ideal, order).

All division runs on one engine, `jonq.ring._Accumulator`: a dict from
packed monomial (order key over exponent vector, one int; see
`jonq.ring._Packing`) to coefficient plus a max-heap of them, after
Monagan and Pearce (CASC 2007).  A reduction step pops the lead term,
finds its reducer by one subtraction and mask test per basis lead, and
adds the reducer's tail, cached on the basis element as packed offsets
from its lead, so one step costs the reducer's length times O(log n),
not the length of the whole remainder.  S-polynomials are built in the
same accumulator, from the two cached tails.  The Gebauer-Moeller update
works on the exponent parts of the packed leads: lcms are per-field
maxima by integer operations, divisibility is the same mask test.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd as int_gcd

from jonq.errors import BudgetExceeded, MembershipError, StructuralError
from jonq.orders import Block, DegRevLex, MonomialOrder
from jonq.ring import (
    Polynomial,
    VariableSet,
    _Accumulator,
    _divide,
    _with_wide_keys,
    monomials_of_degree,
)


@dataclass
class Budget:
    """Resource limits shared across one computation.

    `max_pairs` caps processed S-pairs cumulatively; `sat_cap` caps the
    exponents `saturate` searches; `deg_bound` is consumed by the syzygy
    verifier.  Exhaustion raises BudgetExceeded.
    """

    max_pairs: int | None = None
    sat_cap: int = 32
    deg_bound: int | None = None
    pairs_used: int = 0

    def charge_pair(self):
        self.pairs_used += 1
        if self.max_pairs is not None and self.pairs_used > self.max_pairs:
            raise BudgetExceeded("Groebner S-pair limit", self.max_pairs)


_NO_BUDGET = Budget()


class _GBPoly:
    __slots__ = ("terms", "lm_okey", "lm_exps", "lc", "sugar", "_lead", "_tail", "_packing")

    def __init__(self, terms, order, sugar=None):
        self.terms = terms
        self.lm_okey, self.lc = terms[0]
        self.lm_exps = order.exponents(self.lm_okey)
        self.sugar = sugar if sugar is not None else sum(self.lm_exps)
        self._packing = None

    def _pack(self, packing):
        # both are built before either is stored: if the tail overflows the
        # fields, the cache keeps the lead and tail of the last packing
        lead = packing.pack(self.lm_okey)
        tail = packing.offsets(self.terms)
        self._lead, self._tail, self._packing = lead, tail, packing

    def lead(self, packing):
        """The packed lead monomial, cached for the last packing used."""
        if self._packing is not packing:
            self._pack(packing)
        return self._lead

    def tail(self, packing):
        """The tail as packed offsets from the lead, cached for the last packing."""
        if self._packing is not packing:
            self._pack(packing)
        return self._tail


def _normalize_terms(terms):
    """Divide by integer content; make the lead coefficient positive."""
    if not terms:
        return terms
    g = 0
    for _, c in terms:
        g = int_gcd(g, c)
        if g == 1:
            break
    if terms[0][1] < 0:
        g = -g
    if g != 1:
        terms = [(k, c // g) for k, c in terms]
    return terms


def _to_internal(p, order):
    """Polynomial -> primitive integer term list sorted descending."""
    if p.is_zero():
        return []
    den = p.denominator_lcm()
    items = [(order.key(m), int(c * den)) for m, c in p.items()]
    items.sort(reverse=True)
    return _normalize_terms(items)


def _to_polynomial(terms, order, ring, scale=1):
    out = {}
    for okey, c in terms:
        out[order.exponents(okey)] = c * scale if scale != 1 else c
    return Polynomial(ring, out)


def _reduce(terms, elems, lead_data, order, budget=_NO_BUDGET, early_nonzero=False):
    """Fully reduce a term list; returns (reduced_terms, scale).

    The invariant is reduced_terms == scale * normal_form(input) with
    `scale` a positive rational, so dividing out `scale` recovers the
    exact normal form.  `early_nonzero` aborts on the first irreducible
    lead (enough for membership tests).  `lead_data` is `_lead_data(elems)`.
    The terms go into a packed accumulator (`_reduce_acc` does the steps);
    monomials start in 16-bit fields, and the whole reduction reruns with
    wider fields if one outgrows them.
    """
    if not terms:
        return [], Fraction(1)

    def run(packing):
        lead = [(elems[j].lead(packing), j) for j in lead_data]
        return _reduce_acc(_Accumulator(packing, terms), elems, lead, early_nonzero)

    return _with_wide_keys(run, order)


def _reduce_acc(acc, elems, lead, early_nonzero=False):
    """`_reduce` on the terms held by an accumulator, which it consumes.

    `lead` lists (packed lead, index into `elems`) in `_lead_data` order;
    the reducer of a popped monomial is the first entry whose lead divides
    it.  Fraction-free: before lead c*m is cancelled by a reducer g with
    lead coefficient lc, everything is multiplied by lc/gcd(c, lc), and
    the product is kept in `scale`'s numerator.  Every 64 steps the
    integer content of the whole remainder goes into its denominator.
    The step sequence, and with it every output term and scale, is fixed
    by the input alone.  Irreducible terms stay packed until the end.
    """
    out = []
    num, den = 1, 1
    steps = 0
    packing = acc.packing
    guard = packing.guard
    unpack = packing.unpack
    while acc:
        k, c = acc.pop_lead()
        for lm, j in lead:
            if not (k - lm) & guard:
                break
        else:
            if early_nonzero:
                return [(unpack(k), c)], Fraction(num, den)
            out.append((k, c))
            continue
        g = elems[j]
        gamma = int_gcd(c, g.lc)
        a = g.lc // gamma
        if a != 1:
            num *= a
            acc.scale(a)
            if out:
                out = [(m, a * v) for m, v in out]
        acc.add_shifted(k, g.tail(packing), -(c // gamma))
        steps += 1
        if steps % 64 == 0 and acc:
            content = int_gcd(*(v for _, v in out), *acc.values())
            if content > 1:
                out = [(m, v // content) for m, v in out]
                acc.divide(content)
                den *= content
    if not out:
        return [], Fraction(num, den)
    content = 0
    for _, v in out:
        content = int_gcd(content, v)
        if content == 1:
            break
    if content > 1:
        den *= content
        return [(unpack(k), v // content) for k, v in out], Fraction(num, den)
    return [(unpack(k), v) for k, v in out], Fraction(num, den)


def _lead_data(elems):
    """Indices of `elems` by ascending lead: the order reducers are tried in."""
    return sorted(range(len(elems)), key=lambda k: elems[k].lm_okey)


def _buchberger_core(inputs, order, budget, seed=None):
    """Run Buchberger; `seed` is an existing basis whose mutual pairs are done.

    A run that outgrows its fields starts over with wider ones and with
    the S-pair budget as it found it.
    """
    if not seed and not any(inputs):
        return []
    used = budget.pairs_used

    def run(packing):
        budget.pairs_used = used
        return _buchberger_packed(inputs, order, budget, seed, packing)

    return _with_wide_keys(run, order)


def _buchberger_packed(inputs, order, budget, seed, packing):
    G: list[_GBPoly] = list(seed) if seed else []
    lead = [(G[j].lead(packing), j) for j in _lead_data(G)]
    xmask = packing.xmask
    xs = [e.lead(packing) & xmask for e in G]  # exponent parts of the leads
    heap: list = []
    alive: dict = {}  # pending pair -> the exponent part of its lcm
    guard = packing.guard
    lcm = packing.lcm
    monomial = packing.monomial

    def update(h):
        # Gebauer-Moeller: prune old pairs, build a minimal new pair set.
        k = len(G)
        G.append(h)
        lh = h.lead(packing)
        insort(lead, (lh, k))  # `_lead_data` order: packed ints compare as keys
        xh = lh & xmask
        new_lcm = [lcm(x, xh) for x in xs]
        # B criterion on surviving old pairs
        for ij, L in list(alive.items()):
            if not (L - xh) & guard and L != new_lcm[ij[0]] and L != new_lcm[ij[1]]:
                del alive[ij]
        # M criterion: keep only minimal lcms among the new pairs; any
        # order that extends divisibility (here: the exponent int) works
        groups: dict = {}
        for i, L in enumerate(new_lcm):
            groups.setdefault(L, []).append(i)
        minimal = []
        for L in sorted(groups):
            if not any(not (L - M) & guard for M in minimal):
                minimal.append(L)
        deg_h = sum(h.lm_exps)
        for L in minimal:
            members = groups[L]
            # F criterion / Buchberger's coprime criterion
            if any(L == xs[i] + xh for i in members):
                continue
            i = members[0]
            alive[i, k] = L
            shift, deg = monomial(L)
            f = G[i]
            sugar = max(f.sugar + deg - sum(f.lm_exps), h.sugar + deg - deg_h)
            heapq.heappush(heap, (deg, sugar, shift, i, k))
        xs.append(xh)

    prepared = []
    for terms in inputs:
        if terms:
            prepared.append(_GBPoly(terms, order))
    prepared.sort(key=lambda e: (sum(e.lm_exps), e.lm_okey))
    for h in prepared:
        r, _ = _reduce_acc(_Accumulator(packing, h.terms), G, lead)
        if r:
            update(_GBPoly(_normalize_terms(r), order, h.sugar))
    while heap:
        _, sugar, shift, i, j = heapq.heappop(heap)
        if alive.pop((i, j), None) is None:
            continue
        budget.charge_pair()
        # S(f, g) = a*(lcm/lm f)*tail(f) - b*(lcm/lm g)*tail(g); the leads cancel
        f, g = G[i], G[j]
        gamma = int_gcd(f.lc, g.lc)
        acc = _Accumulator(packing)
        acc.add_shifted(shift, f.tail(packing), g.lc // gamma)
        acc.add_shifted(shift, g.tail(packing), -(f.lc // gamma))
        if not acc:
            continue
        r, _ = _reduce_acc(acc, G, lead)
        if r:
            update(_GBPoly(_normalize_terms(r), order, sugar))
    return G


def _reduced_basis(G, order, budget):
    """Minimalize then tail-reduce: the unique reduced basis (primitive)."""
    if not G:
        return []
    elems = sorted(G, key=lambda e: e.lm_okey)
    minimal = []
    for e in elems:
        if not any(
            all(a <= b for a, b in zip(m.lm_exps, e.lm_exps)) for m in minimal
        ):
            minimal.append(e)
    reduced = []
    for idx, e in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        lead = _lead_data(others)
        r, _ = _reduce(e.terms, others, lead, order, budget)
        reduced.append(_GBPoly(_normalize_terms(r), order, e.sugar))
    reduced.sort(key=lambda e: e.lm_okey)
    return reduced


class GroebnerBasis:
    """A reduced Groebner basis; generators are primitive with positive lead."""

    __slots__ = ("generators", "order", "ring", "_elems", "_lead")

    def __init__(self, generators, order, ring, elems):
        self.generators = tuple(generators)
        self.order = order
        self.ring = ring
        self._elems = elems
        self._lead = _lead_data(elems)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.order == other.order
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ring, self.order, self.generators))

    def lead_exponents(self):
        return [e.lm_exps for e in self._elems]

    def contains_unit(self):
        return any(not any(e.lm_exps) for e in self._elems)


def buchberger(gens, order=None, budget=None, ring=None):
    """Reduced Groebner basis of the given generators; deterministic."""
    gens = [g for g in gens if isinstance(g, Polynomial)]
    nonzero = [g for g in gens if not g.is_zero()]
    if ring is None:
        if not gens:
            raise StructuralError("buchberger needs a ring or generators")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise StructuralError("generators over mixed variable sets")
    order = order or DegRevLex(len(ring))
    if order.nvars != len(ring):
        raise StructuralError("order arity does not match the variable set")
    budget = budget or Budget()
    internal = [_to_internal(g, order) for g in nonzero]
    G = _buchberger_core(internal, order, budget)
    reduced = _reduced_basis(G, order, budget)
    polys = [_to_polynomial(e.terms, order, ring) for e in reduced]
    return GroebnerBasis(polys, order, ring, reduced)


def normal_form(p, gb, budget=None):
    """The unique remainder of p modulo the basis; zero iff p is a member."""
    if p.ring != gb.ring:
        raise StructuralError("polynomial and basis over different variable sets")
    if p.is_zero():
        return p
    budget = budget or Budget()
    den = p.denominator_lcm()
    terms = sorted(
        ((gb.order.key(m), int(c * den)) for m, c in p.items()), reverse=True
    )
    r, scale = _reduce(terms, gb._elems, gb._lead, gb.order, budget)
    return _to_polynomial(r, gb.order, p.ring, Fraction(1, den) / scale)


def is_member(p, gb, budget=None):
    if p.is_zero():
        return True
    budget = budget or Budget()
    terms = _to_internal(p, gb.order)
    r, _ = _reduce(terms, gb._elems, gb._lead, gb.order, budget, early_nonzero=True)
    return not r


class IdealHandle:
    """An ideal presented by generators, with cached Groebner bases."""

    __slots__ = ("ring", "gens", "_cache")

    def __init__(self, ring, gens=()):
        self.ring = ring
        clean = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise StructuralError("ideal generators must be polynomials")
            if g.ring != ring:
                raise StructuralError("ideal generators over mixed variable sets")
            if not g.is_zero():
                clean.append(g)
        self.gens = tuple(clean)
        self._cache = {}

    @classmethod
    def of(cls, *gens):
        if not gens:
            raise StructuralError("IdealHandle.of needs at least one generator")
        return cls(gens[0].ring, gens)

    def is_zero_ideal(self):
        return not self.gens

    def homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def gb(self, order=None, budget=None):
        order = order or DegRevLex(len(self.ring))
        sig = order.signature()
        got = self._cache.get(sig)
        if got is not None:
            return got
        basis = buchberger(self.gens, order, budget, ring=self.ring)
        self._cache[sig] = basis
        return basis

    def contains(self, p, budget=None):
        if p.is_zero():
            return True
        if self.is_zero_ideal():
            return False
        return is_member(p, self.gb(budget=budget), budget)

    def contains_ideal(self, other, budget=None):
        return all(self.contains(g, budget) for g in other.gens)

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens[:4])
        more = ", ..." if len(self.gens) > 4 else ""
        return f"Ideal({inside}{more})"


def ideal_equal(I, J, budget=None):
    """Equality via reduced degrevlex Groebner bases."""
    if I.ring != J.ring:
        raise StructuralError("ideals over different variable sets")
    if I.is_zero_ideal() or J.is_zero_ideal():
        return I.is_zero_ideal() and J.is_zero_ideal()
    return I.gb(budget=budget).generators == J.gb(budget=budget).generators


def is_unit_ideal(I, budget=None):
    if I.is_zero_ideal():
        return False
    return I.gb(budget=budget).contains_unit()


def multiply_ideal(I, f):
    """The ideal f*I."""
    return IdealHandle(I.ring, tuple(g * f for g in I.gens))


def minimalize_generators(gens, budget=None, ring=None):
    """Drop generators lying in the ideal of the earlier ones (degree order).

    For homogeneous input this produces a minimal generating set; the
    processing order (degree, then degrevlex key of the lead) makes the
    output deterministic.
    """
    if ring is None:
        if not gens:
            return []
        ring = gens[0].ring
    order = DegRevLex(len(ring))
    budget = budget or Budget()
    items = [g.canonical() for g in gens if not g.is_zero()]
    items.sort(key=lambda g: (g.total_degree(), order.key(g.lead_term(order)[0])))
    kept = []
    elems = []
    for g in items:
        terms = _to_internal(g, order)
        if elems:
            r, _ = _reduce(terms, elems, _lead_data(elems), order, budget, early_nonzero=True)
            if not r:
                continue
        kept.append(g)
        elems = _buchberger_core([terms], order, budget, seed=elems)
    return kept


def _aux_ring(ring, base="t"):
    name = ring.fresh_name(base)
    aux = VariableSet((name,) + ring.names)
    return aux, name


def intersect(I, J, budget=None):
    """I intersect J via the auxiliary-variable elimination construction."""
    if I.ring != J.ring:
        raise StructuralError("ideals over different variable sets")
    if I.is_zero_ideal() or J.is_zero_ideal():
        return IdealHandle(I.ring, ())
    aux, tname = _aux_ring(I.ring)
    t = Polynomial.variable(aux, tname)
    one = Polynomial.constant(aux, 1)
    gens = [t * g.map_ring(aux) for g in I.gens]
    gens += [(one - t) * g.map_ring(aux) for g in J.gens]
    return eliminate(IdealHandle(aux, gens), (tname,), budget=budget)


def colon(I, g, budget=None, minimalize=True):
    """The conductor I : (g), via intersect(I, (g)) / g, minimalized."""
    if not isinstance(g, Polynomial):
        raise StructuralError("colon denominator must be a polynomial")
    if g.is_zero():
        raise StructuralError("colon by zero")
    if g.ring != I.ring:
        raise StructuralError("colon: mixed variable sets")
    if g.is_constant():
        return IdealHandle(I.ring, I.gens)
    meet = intersect(I, IdealHandle.of(g), budget=budget)
    quots = [q / g for q in meet.gens]
    if minimalize:
        quots = minimalize_generators(quots, budget=budget, ring=I.ring)
    return IdealHandle(I.ring, tuple(quots))


def colon_ideal(I, J, budget=None):
    """I : J = intersection of I : (b) over the generators b of J.

    The generators are not minimalized: the link in `regularity_dim1` is
    read only through its Groebner basis, which the last intersection
    caches on the handle.
    """
    if J.is_zero_ideal():
        raise StructuralError("colon by the zero ideal")
    result = None
    for b in J.gens:
        step = colon(I, b, budget=budget, minimalize=False)
        result = step if result is None else intersect(result, step, budget=budget)
    return result


def saturate(I, J, budget=None):
    """I : J^infinity and an exponent per generator b of J; (ideal, exponents).

    I : b^infinity is one elimination: of t from I + (1 - t*b) (Rabinowitsch).
    Its exponent is the least k with b^k * (I : b^infinity) inside I, the k
    at which the chain I : b^k stabilizes.  An exponent of `budget.sat_cap`
    or more raises BudgetExceeded; a cap of 0 raises before any Buchberger
    run.  The result is the intersection of the per-generator saturations.
    """
    if J.is_zero_ideal():
        raise StructuralError("saturation by the zero ideal")
    budget = budget or Budget()
    if budget.sat_cap == 0:
        raise BudgetExceeded("saturation chain length", budget.sat_cap)
    pieces = []
    exponents = []
    for b in J.gens:
        piece, k = I, 0
        if not b.is_constant():
            aux, tname = _aux_ring(I.ring)
            t = Polynomial.variable(aux, tname)
            gens = [g.map_ring(aux) for g in I.gens]
            gens.append(Polynomial.constant(aux, 1) - t * b.map_ring(aux))
            piece = eliminate(IdealHandle(aux, gens), (tname,), budget=budget)
            pending = piece.gens
            while pending := [h for h in pending if not I.contains(h, budget)]:
                k += 1
                if k >= budget.sat_cap:
                    raise BudgetExceeded("saturation chain length", budget.sat_cap)
                pending = [h * b for h in pending]
        pieces.append(piece)
        exponents.append(k)
    result = pieces[0]
    for piece in pieces[1:]:
        result = intersect(result, piece, budget=budget)
    return result, exponents


def eliminate(I, drop_names, budget=None):
    """I intersect k[remaining variables], via a block order.

    The handle comes with its reduced degrevlex basis cached: the part of
    the reduced Block basis free of the dropped variables, as Block orders
    the kept ones by degrevlex in their natural order.
    """
    drop = tuple(drop_names)
    if not drop:
        return I
    ring = I.ring
    drop_idx = tuple(ring.index(n) for n in drop)
    if len(drop_idx) >= len(ring):
        raise StructuralError("cannot eliminate every variable")
    gb = I.gb(Block(len(ring), drop_idx), budget=budget)
    small = VariableSet(tuple(n for n in ring.names if n not in drop))
    order = DegRevLex(len(small))
    cut = len(drop_idx)  # a Block key: the dropped block's key, then the kept one's
    elems = [
        _GBPoly([(okey[cut:], c) for okey, c in e.terms], order)
        for e in gb._elems
        if not any(e.lm_okey[:cut])
    ]
    polys = [_to_polynomial(e.terms, order, small) for e in elems]
    out = IdealHandle(small, polys)
    out._cache[order.signature()] = GroebnerBasis(polys, order, small, elems)
    return out


# -- lift (division with tracking) ------------------------------------------


def _track_reduce(p, basis, order):
    """Divide p by tracked basis; returns (remainder, quotients)."""
    quots, rem = _divide(p, [b[0] for b in basis], order)
    return Polynomial(p.ring, rem), [Polynomial(p.ring, q) for q in quots]


def lift(p, gens, budget=None):
    """Write p = sum h_i * gens_i; raises MembershipError if impossible.

    Tracked Buchberger plus division-with-tracking; for homogeneous data
    each h_i is homogeneous of degree deg(p) - deg(gens_i) (or zero).
    """
    if not gens:
        raise MembershipError("no generators to lift against")
    ring = gens[0].ring
    if p.ring != ring:
        raise StructuralError("lift: mixed variable sets")
    if p.is_zero():
        return [Polynomial.zero(ring) for _ in gens]
    order = DegRevLex(len(ring))
    basis = []
    for i, g in enumerate(gens):
        if g.ring != ring:
            raise StructuralError("lift: mixed variable sets")
        if g.is_zero():
            continue
        reps = [Polynomial.zero(ring) for _ in gens]
        reps[i] = Polynomial.constant(ring, 1)
        basis.append((g, reps))
    if not basis:
        raise MembershipError("cannot lift a nonzero polynomial over zeros")
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    pairs.sort(key=lambda ij: _lift_pair_key(basis, ij, order))
    while pairs:
        pairs.sort(key=lambda ij: _lift_pair_key(basis, ij, order))
        i, j = pairs.pop(0)
        f, frep = basis[i]
        g, grep = basis[j]
        lmf, lcf = f.lead_term(order)
        lmg, lcg = g.lead_term(order)
        lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
        if lcm == tuple(a + b for a, b in zip(lmf, lmg)):
            continue  # coprime leads
        mf = Polynomial.monomial(ring, tuple(a - b for a, b in zip(lcm, lmf)), Fraction(1, 1) / lcf)
        mg = Polynomial.monomial(ring, tuple(a - b for a, b in zip(lcm, lmg)), Fraction(1, 1) / lcg)
        s = f * mf - g * mg
        srep = [a * mf - b * mg for a, b in zip(frep, grep)]
        r, quots = _track_reduce(s, basis, order)
        if r.is_zero():
            continue
        rrep = [
            srep[k] - sum((q * basis[t][1][k] for t, q in enumerate(quots)), Polynomial.zero(ring))
            for k in range(len(gens))
        ]
        new_idx = len(basis)
        basis.append((r, rrep))
        pairs.extend((t, new_idx) for t in range(new_idx))
    r, quots = _track_reduce(p, basis, order)
    if not r.is_zero():
        raise MembershipError("polynomial is not in the ideal of the generators")
    out = []
    for k in range(len(gens)):
        h = Polynomial.zero(ring)
        for t, q in enumerate(quots):
            if not q.is_zero():
                h = h + q * basis[t][1][k]
        out.append(h)
    return out


def _lift_pair_key(basis, ij, order):
    i, j = ij
    lmf, _ = basis[i][0].lead_term(order)
    lmg, _ = basis[j][0].lead_term(order)
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    return (sum(lcm), order.key(lcm), i, j)


# -- combinatorics on leading terms ------------------------------------------


def dim_and_codim(I, budget=None):
    """Krull dimension of R/I and the codimension of I.

    Combinatorial algorithm on the leading-term ideal: the dimension is
    the largest size of a variable subset containing no lead-monomial
    support.  Errors on the unit ideal.
    """
    n = len(I.ring)
    if I.is_zero_ideal():
        return n, 0
    gb = I.gb(budget=budget)
    if gb.contains_unit():
        raise StructuralError("dimension of the unit ideal is undefined")
    supports = []
    for exps in gb.lead_exponents():
        supports.append(frozenset(i for i, e in enumerate(exps) if e))
    from itertools import combinations

    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            sset = set(subset)
            if not any(sup <= sset for sup in supports):
                return size, n - size
    return 0, n


def graded_piece_dim(I, mu, budget=None):
    """dim_k of the degree-mu piece of a homogeneous ideal."""
    if mu < 0:
        return 0
    n = len(I.ring)
    if I.is_zero_ideal():
        return 0
    if not I.homogeneous():
        raise StructuralError("graded_piece_dim needs a homogeneous ideal")
    gb = I.gb(budget=budget)
    lms = gb.lead_exponents()
    total = 0
    standard = 0
    for mono in monomials_of_degree(n, mu):
        total += 1
        if not any(all(a >= b for a, b in zip(mono, lm)) for lm in lms):
            standard += 1
    return total - standard
