"""Buchberger-based ideal arithmetic.

Normal forms, membership, intersection, colon, saturation, elimination,
and the Hilbert-Poincare numerator of the lead ideal (dimension,
graded pieces).  Intersection, colon and saturation run on `eliminate`,
which interreduces only the Block basis elements free of the dropped
variables and caches the result, the reduced degrevlex basis, on its
handle; `block_run` is its Block run alone, for a caller that reads
those elements as they are.  Saturation by the variables
(`saturate_by_variables`) is saturation by one certified linear form,
in the ideal's own coordinates: by x_n it is read off the ideal's
cached basis; another form that the Hilbert numerator certifies a
nonzerodivisor leaves the ideal as it is, and a zero divisor takes one
`saturate` elimination.  Generators are integer-primitive term lists
keyed by additive order keys (see `jonq.orders`), sorted descending,
with positive lead.  Pairs are pruned
by Gebauer-Moeller and chosen by normal selection (lcm degree, sugar
tie-break).  Reduced bases are unique per (ideal, order).

An elimination or a `buchberger` run can be told the weights that make
its generators homogeneous and the Hilbert series of their ideal I, or
of an ideal that contains I (`rees` does so for y_i - t*c_i, a regular
sequence, and for a monoid's Rees ideal, which contains its closed
form).  Pairs then go by the weighted degree of their lcm,
and the engine counts the leads a degree lacks: [s^k] of (N(in G) - N(I))
/ prod(1 - s^w), with N(in G) kept by N(M + (m)) = N(M) - s^w(m) N(M : m);
the variables among the generators of M : m split off as prod(1 - s^w),
so only the rest of the colon takes Bigatti's recursion.  In(G)_k lies
in in(I)_k, and a larger ideal's count is no smaller, so at a count of 0
they are equal and every pair left in degree k reduces to zero; it is dropped and not charged (Traverso,
"Hilbert functions and the Buchberger algorithm", JSC 22, 1996).  A
degree is counted only when a second pair of it is pending.

All division runs on one engine, `jonq.ring._Accumulator`: a dict from
packed monomial (order key over exponent vector, one int; see
`jonq.ring._Packing`) to coefficient plus a max-heap of them, after
Monagan and Pearce (CASC 2007).  A reduction step pops the lead term,
finds its reducer by one subtraction and mask test per basis lead, and
adds the reducer's tail, cached on the basis element as packed offsets
from its lead, so one step costs the reducer's length times O(log n),
not the length of the whole remainder.  A new basis element keeps the
packed terms it was reduced to; only its lead is unpacked, and its other
terms only when it is read as keys (in a reduced basis).  S-polynomials
are built in the same accumulator, from the two cached tails.  The
Gebauer-Moeller update works on the exponent parts of the packed leads:
lcms are per-field maxima by integer operations, divisibility is the
same mask test.
"""

from __future__ import annotations

import functools
import heapq
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd as int_gcd
from operator import ge, mul, sub

from jonq.errors import BudgetExceeded, HypothesisViolation, StructuralError
from jonq.orders import Block, DegRevLex
from jonq.ring import (
    Polynomial,
    VariableSet,
    _Accumulator,
    _KeyOverflow,
    _lower,
    _with_wide_keys,
    count_monomials,
)


@dataclass
class Budget:
    """Resource limits shared across one computation.

    `max_pairs` caps processed S-pairs cumulatively; `sat_cap` caps the
    exponents `saturate` searches and the exponent of the certified linear
    form in `saturate_by_variables`.  Exhaustion raises BudgetExceeded.
    """

    max_pairs: int | None = None
    sat_cap: int = 32
    pairs_used: int = 0

    def charge_pair(self):
        self.pairs_used += 1
        if self.max_pairs is not None and self.pairs_used > self.max_pairs:
            raise BudgetExceeded("Groebner S-pair limit", self.max_pairs)


class _GBPoly:
    """A basis element: its lead (order key, exponents, coefficient) and terms.

    An element made by `_packed` keeps its terms packed, as the lead and
    the tail's offsets from it; `terms`, the (order key, coefficient) list,
    is unpacked from them on first use, so only the elements that are read
    as keys (those of a reduced basis) pay for it.
    """

    __slots__ = ("_terms", "lm_okey", "lm_exps", "lc", "sugar", "_lead", "_tail", "_packing")

    def __init__(self, terms, order, sugar=None):
        self._terms = terms
        self.lm_okey, self.lc = terms[0]
        self.lm_exps = order.exponents(self.lm_okey)
        self.sugar = sugar if sugar is not None else sum(self.lm_exps)
        self._packing = None

    @classmethod
    def _packed(cls, r, order, packing, sugar):
        """An element from a primitive remainder `r` still packed in `packing`.

        Its lead and tail are cached for `packing` from the packed ints of
        `r`, and only the lead is unpacked.
        """
        if r[0][1] < 0:
            r = [(k, -c) for k, c in r]
        over = packing.over
        for k, _ in r:
            if k & over:  # as `_Packing.pack` would refuse it
                raise _KeyOverflow
        self = cls.__new__(cls)
        lead, self.lc = r[0]
        self._terms = None
        self.lm_okey = packing.unpack(lead)
        self.lm_exps = packing.exponents(lead)
        self.sugar = sugar if sugar is not None else sum(self.lm_exps)
        self._lead, self._tail, self._packing = lead, [(k - lead, c) for k, c in r[1:]], packing
        return self

    @property
    def terms(self):
        """The terms as (order key, coefficient), descending."""
        if self._terms is None:
            unpack, lead = self._packing.unpack, self._lead
            self._terms = [(self.lm_okey, self.lc)] + [
                (unpack(lead + k), c) for k, c in self._tail
            ]
        return self._terms

    def _pack(self, packing):
        # the terms are read in the packing they were made in, before it is
        # replaced; both parts are built before either is stored: if the
        # tail overflows the fields, the cache keeps the lead and tail of
        # the last packing
        terms = self.terms
        lead = packing.pack(self.lm_okey)
        tail = packing.offsets(terms)
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
    exponents = order.exponents
    if scale == 1:
        return Polynomial._clean(ring, {exponents(okey): c for okey, c in terms})
    return Polynomial._clean(ring, {exponents(okey): _lower(c * scale) for okey, c in terms})


def _reduce(terms, elems, lead_data, order, early_nonzero=False):
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
        r, scale = _reduce_acc(_Accumulator(packing, terms), elems, lead, early_nonzero)
        unpack = packing.unpack
        return [(unpack(k), c) for k, c in r], scale

    return _with_wide_keys(run, order)


def _reduce_acc(acc, elems, lead, early_nonzero=False):
    """`_reduce` on the terms held by an accumulator, which it consumes.

    The remainder comes back packed: (packed monomial, coefficient).

    `lead` lists (packed lead, index into `elems`) in `_lead_data` order;
    the reducer of a popped monomial is the first entry whose lead divides
    it.  The leads ascend and a divisor is no larger than its multiple, so
    the scan stops at the first lead above the monomial.  Fraction-free:
    before lead c*m is cancelled by a reducer g with lead coefficient lc,
    everything is multiplied by lc/gcd(c, lc), and the product is kept in
    `scale`'s numerator.  Every 64 steps the integer content of the whole
    remainder goes into its denominator.  The step sequence, and with it
    every output term and scale, is fixed by the input alone.
    """
    out = []
    num, den = 1, 1
    steps = 0
    packing = acc.packing
    guard = packing.guard
    while acc:
        k, c = acc.pop_lead()
        j = None
        for lm, i in lead:
            if not (k - lm) & guard:
                j = i
                break
            if lm > k:  # the leads ascend, and a divisor of k is no larger than k
                break
        if j is None:
            if early_nonzero:
                return [(k, c)], Fraction(num, den)
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
        out = [(k, v // content) for k, v in out]
    return out, Fraction(num, den)


def _lead_data(elems):
    """Indices of `elems` by ascending lead: the order reducers are tried in."""
    return sorted(range(len(elems)), key=lambda k: elems[k].lm_okey)


def _buchberger_core(inputs, order, budget, hilbert=None):
    """Run Buchberger on the inputs, a list of internal term lists.

    `hilbert` is (weights, numerator): the inputs are homogeneous under the
    variable weights, and numerator / prod(1 - s^w) is the Hilbert series of
    their ideal I or of any ideal J that contains I.  Pairs then go by the
    weighted degree of their lcm, and once the leads fill a degree of J the
    rest of its pairs are dropped uncharged (`_LeadCount`).  For J that is
    sound too: no lead is missing in degree k only when dim in(G)_k =
    dim J_k >= dim I_k >= dim in(G)_k, so in(G)_k = in(I)_k and every
    S-polynomial of degree k reduces to 0.  A run that outgrows its fields
    starts over with wider ones and with the S-pair budget as it found it.
    """
    if not any(inputs):
        return []
    used = budget.pairs_used

    def run(packing):
        budget.pairs_used = used
        return _buchberger_packed(inputs, order, budget, packing, hilbert)

    return _with_wide_keys(run, order)


@functools.lru_cache(maxsize=64)
def _key_weights(order, weights):
    """The weighted degree as a linear form on order keys.

    An order's exponents are a linear function of its key (as `_Packing` uses).
    """
    nfields = len(order.key((0,) * order.nvars))
    units = [tuple(int(i == f) for i in range(nfields)) for f in range(nfields)]
    return [sum(map(mul, weights, order.exponents(u))) for u in units]


class _LeadCount:
    """The standard monomials of the lead ideal against the Hilbert function.

    `missing(k)` is dim J_k - dim in(G)_k, the leads of weighted degree k
    that G lacks against the ideal J whose series `hilbert` gives (I or any
    ideal containing I), read as [s^k] (N(in G) - N(J)) / prod(1 - s^w).  The
    difference N(in G) - N(J) is one running list; it takes the leads in
    lazily, when a count is asked for, each by N(M + (m)) = N(M) -
    s^w(m) N(M : m).  M : m is generated by the quotients lcm(x, m) / m
    over the earlier leads x, from the lcms the pair update built.  The
    quotients that are variables x_v give the factor prod(1 - s^w_v),
    cached per tuple of weights.  Of the others, only those free of those
    variables are minimal generators; a single one, q, adds the factor
    1 - s^deg(q), and two or more go through `_numerator` (for an earlier
    lead that divides m, the quotient 1 gives the unit ideal, whose
    numerator 0 leaves N as it is).
    """

    __slots__ = (
        "weights", "key_weights", "exponents", "guard", "variables", "diff", "pending", "series",
    )

    def __init__(self, hilbert, order, packing):
        self.weights, target = hilbert
        self.key_weights = _key_weights(order, tuple(self.weights))
        self.exponents = packing.exponents
        self.guard = packing.guard
        bits, n = packing.bits, order.nvars
        fmask = (1 << bits) - 1
        # packed x_v -> (w_v, the mask of x_v's exponent field)
        self.variables = {
            1 << bits * (n - 1 - v): (w, fmask << bits * (n - 1 - v))
            for v, w in enumerate(self.weights)
        }
        self.diff = _shifted_sum([1], target, 0, -1)  # N(in G) - N(J), leads not pending
        self.pending = []  # (exponent part of a lead, its lcms with the earlier leads)
        self.series = [1]  # 1 / prod(1 - s^w), as far as it was needed

    def degree(self, x):
        """The weighted degree of an exponent part."""
        return sum(map(mul, self.weights, self.exponents(x)))

    def check_input(self, terms):
        kw = self.key_weights
        if len({sum(map(mul, kw, key)) for key, _ in terms}) > 1:
            raise StructuralError("Hilbert-driven Buchberger needs weighted-homogeneous input")

    def missing(self, k):
        guard, variables, diff = self.guard, self.variables, self.diff
        for xh, lcms in self.pending:
            quotients = {L - xh for L in lcms}
            degrees, vmask, rest = [], 0, []  # degrees: of the colon's factors 1 - s^d
            for q in quotients:
                hit = variables.get(q)
                if hit is None:
                    rest.append(q)
                else:
                    degrees.append(hit[0])
                    vmask |= hit[1]
            colon = []  # the other minimal generators: a divisor is a smaller int
            for q in sorted(rest):
                if not q & vmask and all((q - g) & guard for g in colon):
                    colon.append(q)
            if len(colon) == 1:  # a principal ideal: 1 - s^deg, like a variable
                degrees.append(self.degree(colon[0]))
            quotient = _coprime_numerator(tuple(sorted(degrees)))
            if len(colon) > 1:
                numer = _numerator([self.exponents(q) for q in colon], self.weights)
                quotient = _product(quotient, numer)
            shift = self.degree(xh)
            diff.extend([0] * (shift + len(quotient) - len(diff)))
            for i, c in enumerate(quotient, shift):
                diff[i] -= c
        self.pending = []
        P = self.series
        if len(P) <= k:  # recomputed to twice the degree, so each growth pays for itself
            P = [1] + [0] * 2 * k
            for w in self.weights:
                for i in range(w, len(P)):
                    P[i] += P[i - w]
            self.series = P
        return sum(c * P[k - i] for i, c in enumerate(diff[: k + 1]))


@functools.lru_cache(maxsize=256)
def _coprime_numerator(degrees):
    """prod(1 - s^d) over `degrees`: the numerator of an ideal generated by
    monomials of those degrees that share no variable."""
    out = [1]
    for d in degrees:
        out = _shifted_sum(out, out, d, -1)
    return tuple(out)


def _product(a, b):
    """The product of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return out


def _buchberger_packed(inputs, order, budget, packing, hilbert=None):
    G: list[_GBPoly] = []
    lead: list = []  # `_lead_data` order
    xmask = packing.xmask
    xs: list = []  # exponent parts of the leads
    heap: list = []
    alive: dict = {}  # pending pair -> the exponent part of its lcm
    guard = packing.guard
    lcm = packing.lcm
    monomial = packing.monomial
    count = _LeadCount(hilbert, order, packing) if hilbert else None

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
            heapq.heappush(heap, (count.degree(L) if count else deg, sugar, shift, i, k))
        xs.append(xh)
        if count:
            count.pending.append((xh, new_lcm))

    prepared = []
    for terms in inputs:
        if terms:
            prepared.append(_GBPoly(terms, order))
    if count:
        for e in prepared:
            count.check_input(e.terms)
    prepared.sort(key=lambda e: (sum(e.lm_exps), e.lm_okey))
    for h in prepared:
        r, _ = _reduce_acc(_Accumulator(packing, h.terms), G, lead)
        if r:
            update(_GBPoly._packed(r, order, packing, h.sugar))
    current = missing = None  # the degree of the last pair, the leads it lacks
    while heap:
        degree, sugar, shift, i, j = heapq.heappop(heap)
        if alive.pop((i, j), None) is None:
            continue
        if count:
            if degree != current:
                current, missing = degree, None
            # count only when another pair of this degree could be dropped
            if missing is None and heap and heap[0][0] == degree:
                missing = count.missing(degree)
                if missing < 0:
                    raise StructuralError(
                        f"more leads in degree {degree} than the Hilbert series allows"
                    )
            if missing == 0:
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
            if missing is not None:
                missing -= 1
            update(_GBPoly._packed(r, order, packing, sugar))
    return G


def _minimal(G):
    """The elements whose leads no other lead divides, by ascending lead."""
    minimal = []
    for e in sorted(G, key=lambda e: e.lm_okey):
        if not any(
            all(a <= b for a, b in zip(m.lm_exps, e.lm_exps)) for m in minimal
        ):
            minimal.append(e)
    return minimal


def _reduced_basis(G, order):
    """Minimalize then tail-reduce: the unique reduced basis (primitive).

    Only smaller leads divide a tail term, so each element, by ascending
    lead and in one packing, is reduced against the smaller ones, reduced.
    The fields start as wide as the widest packing the elements carry (16
    bits when none is packed), so an element already packed for it, as a
    Buchberger run leaves them, is not packed again.
    """
    if not G:
        return []
    minimal = _minimal(G)

    def run(packing):
        reduced = []
        lead = []  # `_lead_data` order, as the leads ascend
        for e in minimal:
            lm = e.lead(packing)
            acc = _Accumulator(packing)
            acc.add_shifted(lm, [(0, e.lc)] + e.tail(packing), 1)
            r, _ = _reduce_acc(acc, reduced, lead)
            lead.append((lm, len(reduced)))
            reduced.append(_GBPoly._packed(r, order, packing, e.sugar))
        return reduced

    bits = max((e._packing.bits for e in minimal if e._packing is not None), default=16)
    return _with_wide_keys(run, order, bits)


class GroebnerBasis:
    """A reduced Groebner basis; generators are primitive with positive lead."""

    __slots__ = ("generators", "order", "ring", "_elems", "_lead", "_numer")

    def __init__(self, generators, order, ring, elems):
        self.generators = tuple(generators)
        self.order = order
        self.ring = ring
        self._elems = elems
        self._lead = _lead_data(elems)
        self._numer = None  # `hilbert_numerator`'s, once asked for

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


def buchberger(gens, order=None, budget=None, ring=None, hilbert=None):
    """Reduced Groebner basis of the given generators; deterministic.

    `hilbert` is `_buchberger_core`'s: weights that make the generators
    homogeneous and the Hilbert series of their ideal or of a larger one.
    """
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
    G = _buchberger_core(internal, order, budget, hilbert=hilbert)
    reduced = _reduced_basis(G, order)
    polys = [_to_polynomial(e.terms, order, ring) for e in reduced]
    return GroebnerBasis(polys, order, ring, reduced)


def normal_form(p, gb):
    """The unique remainder of p modulo the basis; zero iff p is a member."""
    if p.ring != gb.ring:
        raise StructuralError("polynomial and basis over different variable sets")
    if p.is_zero():
        return p
    den = p.denominator_lcm()
    terms = sorted(
        ((gb.order.key(m), int(c * den)) for m, c in p.items()), reverse=True
    )
    r, scale = _reduce(terms, gb._elems, gb._lead, gb.order)
    return _to_polynomial(r, gb.order, p.ring, Fraction(1, den) / scale)


def is_member(p, gb):
    if p.is_zero():
        return True
    terms = _to_internal(p, gb.order)
    r, _ = _reduce(terms, gb._elems, gb._lead, gb.order, early_nonzero=True)
    return not r


class IdealHandle:
    """An ideal presented by generators, with its reduced degrevlex basis cached.

    `_cache` holds that basis once known, as a 1-tuple (empty before):
    the benchmark's tracer (`perfbench/tracing.py`) counts cache hits by
    its length.
    """

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
        self._cache = ()

    @classmethod
    def of_basis(cls, basis):
        """The ideal generated by a reduced degrevlex basis, with that basis cached."""
        if basis.order != DegRevLex(len(basis.ring)):
            raise StructuralError("of_basis needs a reduced degrevlex basis")
        out = cls(basis.ring, basis.generators)
        out._cache = (basis,)
        return out

    @classmethod
    def of(cls, *gens):
        if not gens:
            raise StructuralError("IdealHandle.of needs at least one generator")
        return cls(gens[0].ring, gens)

    def is_zero_ideal(self):
        return not self.gens

    def homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def gb(self, budget=None):
        """The reduced degrevlex basis, computed once and cached."""
        if not self._cache:
            self._cache = (buchberger(self.gens, budget=budget, ring=self.ring),)
        return self._cache[0]

    def contains(self, p, budget=None):
        if p.is_zero():
            return True
        if self.is_zero_ideal():
            return False
        return is_member(p, self.gb(budget=budget))

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


def multiply_ideal(I, f):
    """The ideal f*I."""
    return IdealHandle(I.ring, tuple(g * f for g in I.gens))


def _aux_ring(ring):
    name = ring.fresh_name("t")
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


def colon(I, g, budget=None):
    """The conductor I : (g): the quotients q/g of the reduced basis of I meet (g).

    in(I meet (g)) = in(g) * in(I : g), so the quotients are a degrevlex
    Groebner basis of I : g; it is not reduced, nor a minimal generating set.
    """
    if not isinstance(g, Polynomial):
        raise StructuralError("colon denominator must be a polynomial")
    if g.is_zero():
        raise StructuralError("colon by zero")
    if g.ring != I.ring:
        raise StructuralError("colon: mixed variable sets")
    if g.is_constant():
        return IdealHandle(I.ring, I.gens)
    meet = intersect(I, IdealHandle.of(g), budget=budget)
    return IdealHandle(I.ring, tuple(q / g for q in meet.gens))


def colon_ideal(I, J, budget=None):
    """I : J = intersection of I : (b) over the generators b of J.

    Each I : (b) is `colon`'s Groebner basis; the intersection is one more
    elimination per further generator of J.
    """
    if J.is_zero_ideal():
        raise StructuralError("colon by the zero ideal")
    result = None
    for b in J.gens:
        step = colon(I, b, budget=budget)
        result = step if result is None else intersect(result, step, budget=budget)
    return result


def saturation_exponent(I, gens, b, budget):
    """The least k with b^k * gens inside I, or None if k reaches `budget.sat_cap`.

    A cap of 0 gives None before any membership test.  With `gens` the
    reduced basis of I : b^infinity, k is the exponent of that saturation.
    """
    if budget.sat_cap == 0:
        return None
    k = 0
    pending = gens
    while pending := [h for h in pending if not I.contains(h, budget)]:
        k += 1
        if k >= budget.sat_cap:
            return None
        pending = [h * b for h in pending]
    return k


def saturate(I, J, budget=None):
    """I : J^infinity and an exponent per generator b of J; (ideal, exponents).

    I : b^infinity is one elimination: of t from I + (1 - t*b) (Rabinowitsch).
    Its exponent is the least k with b^k * (I : b^infinity) inside I, the k
    at which the chain I : b^k stabilizes (`saturation_exponent`, over the
    reduced basis of the saturation).  An exponent of `budget.sat_cap` or
    more raises BudgetExceeded; a cap of 0 raises before any Buchberger
    run.  The result is the intersection of the per-generator saturations.
    `rees` falls back on it when its saturation identities cannot be
    certified by primality; `saturate_by_variables` calls it with a single
    certified linear form other than x_n that is a zero divisor on R/I,
    whose eliminated basis is cached on the result.
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
            k = saturation_exponent(I, piece.gens, b, budget)
            if k is None:
                raise BudgetExceeded("saturation chain length", budget.sat_cap)
        pieces.append(piece)
        exponents.append(k)
    result = pieces[0]
    for piece in pieces[1:]:
        result = intersect(result, piece, budget=budget)
    return result, exponents


def _linear_forms(n):
    """The candidate forms of `saturate_by_variables`, as coefficient tuples.

    The variables from the last one down, then the sums x_i + x_j, then
    sum_k c^k x_k for c = 1, 2, ...; the sequence does not end.
    """
    for i in reversed(range(n)):
        yield tuple(int(k == i) for k in range(n))
    if n > 2:  # for two variables the pair is the sum below
        for i, j in combinations(range(n), 2):
            yield tuple(int(k in (i, j)) for k in range(n))
    c = 1
    while True:
        yield tuple(c**k for k in range(n))
        c += 1


def _pure_variables(monos):
    """The variables with a pure power among the exponent vectors `monos`."""
    have = set()
    for exps in monos:
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            have.add(support[0])
    return have


def _pure_powers(leads, nvars):
    """Whether each of the first `nvars` variables has a pure power among `leads`."""
    return _pure_variables(leads).issuperset(range(nvars))


def _coordinate_points(gens, nvars):
    """The k with e_k on V(gens), for homogeneous `gens`: no generator has a
    pure power of x_k, so each vanishes at e_k (a zero generator anywhere)."""
    return set(range(nvars)) - _pure_variables(m for g in gens for m, _ in g.items())


def saturate_by_variables(I, budget=None):
    """I : m^infinity for a homogeneous I with dim(R/I) <= 1, m = (x_0, ..., x_n).

    If dim R/(I + (l)) = 0 for a linear form l, then l lies in no associated
    prime of I but m, and I : m^infinity = I : l^infinity.  The candidates
    l come from `_linear_forms`; l is certified when the reduced basis of
    I restricted to l = 0 has a pure power of every variable but one among
    its leads, or is the unit ideal.  For l = x_n this is read from the
    leads of I's own basis, since in(I + (x_n)) = in(I) + (x_n) under
    degrevlex.  For another l, the generators with x_p replaced by x_p - l
    (x_p the last variable of coefficient 1 in l) take one basis, whose
    leads are read without x_p.  Every point of V(I) rules out at most n
    of the forms sum c^k x_k, so for dim <= 1 some candidate is certified.
    A coordinate point e_k lies on V(I) when no generator has a pure power
    of x_k; a candidate with k-th coefficient 0 vanishes there, so it
    cannot be certified and is skipped before its basis.

    Nothing leaves the coordinates of I.  For x_n, I's own basis gives
    I : x_n^infinity: in(I) : x_n = in(I : x_n) (Bayer-Stillman), so each
    element divided by its largest power of x_n is a basis, and the
    largest power divided out is the least k with
    x_n^k * (I : x_n^infinity) inside I.  For another l, the cut basis
    does not involve x_p, so HS(R/cut) = HS(R/(I + (l)))/(1 - s), and
    0 -> ((I:l)/I)(-1) -> (R/I)(-1) -> R/I -> R/(I + (l)) -> 0 shows that
    l is a nonzerodivisor on R/I exactly when the cut basis has the
    Hilbert numerator of I (Bruns-Herzog, ch. 4).  Then I : l^infinity
    = I, with exponent 0, and I is returned with its own basis; else the
    result is `saturate(I, (l))`, one elimination that finds the least k.
    Either way the result carries its reduced degrevlex basis, an exponent
    of `budget.sat_cap` or more raises BudgetExceeded, and a cap of 0
    raises before any Buchberger run.  The saturation is unique, so which
    candidate wins cannot change the result.  dim(R/I) >= 2 raises
    HypothesisViolation.
    """
    budget = budget or Budget()
    if budget.sat_cap == 0:
        raise BudgetExceeded("saturation chain length", budget.sat_cap)
    if not I.homogeneous():
        raise StructuralError("saturate_by_variables needs a homogeneous ideal")
    ring = I.ring
    n = len(ring)
    gb = I.gb(budget=budget)
    if gb.contains_unit():
        return I
    if dim_and_codim(I, budget)[0] > 1:
        raise HypothesisViolation("saturation by the variables requires dim(R/I) <= 1")
    xs = Polynomial.gens(ring)
    points = _coordinate_points(I.gens, n)
    for coeffs in _linear_forms(n):
        if any(not coeffs[k] for k in points):
            continue  # l vanishes at e_k, a point of V(I)
        if coeffs[-1] == 1 and not any(coeffs[:-1]):
            if _pure_powers(gb.lead_exponents(), n - 1):
                break
            continue
        form = sum((x * c for x, c in zip(xs, coeffs) if c), Polynomial.zero(ring))
        p = max(k for k, c in enumerate(coeffs) if c == 1)
        images = list(xs)
        images[p] = xs[p] - form  # l = 0
        cut = buchberger([g.substitute(images) for g in I.gens], budget=budget, ring=ring)
        leads = [e[:p] + e[p + 1 :] for e in cut.lead_exponents()]
        if cut.contains_unit() or _pure_powers(leads, n - 1):
            if _numerator(cut.lead_exponents()) == hilbert_numerator(I, budget):
                return I  # l is a nonzerodivisor on R/I: I is saturated
            return saturate(I, IdealHandle.of(form), budget)[0]
    order = gb.order
    top = 0
    divided = []
    for e in gb._elems:
        k = e.lm_exps[-1]  # a homogeneous element's lead has its least power of x_n
        top = max(top, k)
        shift = order.key((0,) * (n - 1) + (k,))
        divided.append(_GBPoly([(tuple(map(sub, okey, shift)), c) for okey, c in e.terms], order))
    if top >= budget.sat_cap:
        raise BudgetExceeded("saturation chain length", budget.sat_cap)
    elems = _reduced_basis(divided, order)
    polys = [_to_polynomial(e.terms, order, ring) for e in elems]
    return IdealHandle.of_basis(GroebnerBasis(polys, order, ring, elems))


def block_run(I, drop_names, budget=None, hilbert=None):
    """The Block run of an elimination: its elements free of the dropped variables.

    One Buchberger run under `Block` with the dropped variables first.  The
    elements whose leads (so all terms) are free of them form a Groebner
    basis of I intersect k[remaining variables]; their Block keys are zeros
    over the dropped block followed by the degrevlex key of the rest.
    Returns them as the run left them, neither minimal nor reduced, with
    the Block order.  `hilbert` is `_buchberger_core`'s: the caller's
    promise of weights that make the generators homogeneous and of the
    Hilbert series they give.
    """
    ring = I.ring
    drop_idx = tuple(ring.index(n) for n in drop_names)
    if len(drop_idx) >= len(ring):
        raise StructuralError("cannot eliminate every variable")
    block = Block(len(ring), drop_idx)
    G = _buchberger_core(
        [_to_internal(g, block) for g in I.gens], block, budget or Budget(), hilbert=hilbert
    )
    cut = len(drop_idx)  # a Block key: the dropped block's key, then the kept one's
    return [e for e in G if not any(e.lm_okey[:cut])], block


def eliminate(I, drop_names, budget=None, hilbert=None):
    """I intersect k[remaining variables], via a block order.

    The elements `block_run` keeps are interreduced, and the reduced basis
    is cached on the handle.  Order and divisibility among them are
    degrevlex: they are interreduced as they are, in the packing the run
    ended in, and each reduced element is re-keyed once.
    """
    drop = tuple(drop_names)
    if not drop:
        return I
    kept, block = block_run(I, drop, budget, hilbert)
    small = VariableSet(tuple(n for n in I.ring.names if n not in drop))
    order = DegRevLex(len(small))
    cut = len(drop)
    elems = [
        _GBPoly([(okey[cut:], c) for okey, c in e.terms], order)
        for e in _reduced_basis(kept, block)
    ]
    polys = [_to_polynomial(e.terms, order, small) for e in elems]
    return IdealHandle.of_basis(GroebnerBasis(polys, order, small, elems))


# -- the Hilbert-Poincare numerator of the lead ideal ------------------------


def hilbert_numerator(I, budget=None):
    """N(s), lowest coefficient first, with HS(k[x]/in(I)) = N(s)/(1-s)^n.

    in(I) is read from the leads of I's cached degrevlex basis.  The zero
    ideal gives [1] without a basis, the unit ideal the zero polynomial [].
    The numerator is computed once per basis and cached on it.
    """
    if I.is_zero_ideal():
        return [1]
    gb = I.gb(budget=budget)
    if gb._numer is None:
        gb._numer = _numerator(gb.lead_exponents())
    return list(gb._numer)


def _numerator(monos, weights=None):
    """The numerator of the monomial ideal spanned by `monos` (Bigatti, JPAA 119, 1997).

    HS(k[x]/M) = N(M) / prod(1 - s^w_i), with variable weights w (all 1 by
    default).  N(M) = N(M + (x^e)) + s^(e w_x) N(M : x^e), x the variable in
    the most generators, e its least positive exponent among them; once no
    two share a variable, N is the product of the 1 - s^deg(m), 0 for a
    unit m.  No monomial gives [1].  The recursion is exact for any
    generating set and takes `monos` as given; callers pass minimal ones
    (the leads of a reduced basis are).  M + (x^e) keeps them minimal: x^e
    divides no generator free of x, and none of those (not units, as x is
    in two generators) divides it.  Only M : x^e is cut to its minimal monomials.
    """
    degree = sum if weights is None else (lambda m: sum(map(mul, weights, m)))
    gens = list(monos)
    counts = [sum(map(bool, column)) for column in zip(*gens)]
    top = max(counts, default=0)
    if top < 2:
        out = [1]
        for m in gens:
            out = _shifted_sum(out, out, degree(m), -1)
        return out
    x = counts.index(top)
    e = min(m[x] for m in gens if m[x])
    bigger = [m for m in gens if not m[x]] + [tuple(e * (i == x) for i in range(len(counts)))]
    quotient = _minimal_monomials(m[:x] + (max(m[x] - e, 0),) + m[x + 1 :] for m in gens)
    w = 1 if weights is None else weights[x]
    return _shifted_sum(_numerator(bigger, weights), _numerator(quotient, weights), e * w)


def _minimal_monomials(monos):
    """The distinct monomials of `monos` that no other one divides, by degree."""
    gens = []
    for m in sorted(set(monos), key=sum):
        if not any(all(map(ge, m, g)) for g in gens):
            gens.append(m)
    return gens


def _shifted_sum(a, b, shift=0, sign=1):
    """a + sign * s^shift * b, with no zero top coefficient."""
    out = list(a) + [0] * (shift + len(b) - len(a))
    for k, c in enumerate(b):
        out[shift + k] += sign * c
    while out and not out[-1]:
        out.pop()
    return out


def dim_and_codim(I, budget=None):
    """Krull dimension of R/I and the codimension of I.

    The codimension is the order of the zero of `hilbert_numerator` at s = 1.
    Errors on the unit ideal.
    """
    N = hilbert_numerator(I, budget)
    if not N:
        raise StructuralError("dimension of the unit ideal is undefined")
    codim = 0
    while not sum(N):  # N(1) = 0: N / (1-s) has the prefix sums of N
        N = list(accumulate(N))[:-1]
        codim += 1
    return len(I.ring) - codim, codim


def graded_piece_dim(I, mu, budget=None):
    """dim_k of the degree-mu piece of a homogeneous ideal, from its `hilbert_numerator`."""
    if mu < 0:
        return 0
    if not I.homogeneous():
        raise StructuralError("graded_piece_dim needs a homogeneous ideal")
    n = len(I.ring)
    N = hilbert_numerator(I, budget)
    return count_monomials(n, mu) - sum(c * count_monomials(n, mu - k) for k, c in enumerate(N))
