"""Hilbert-driven pair pruning in the Rees eliminations and the monoid's closed form.

`rees.eliminate_rees_parameter` hands its elimination the weights under
which y_i - t*c_i is homogeneous and the Hilbert series of that regular
sequence; `groebner._buchberger_core` then drops the pairs of a degree
whose leads are complete.  `rees._monoid_rees` hands its degrevlex run
the series of the monoid's Rees ideal, which contains its input.  These
tests hold the pruned runs to the plain ones (also when told the series
of a strictly larger ideal), the weighted `_numerator` and the lead count
to counting, the pair counts of the fixtures to pinned values, and the
engine to its refusal of input that breaks the promise.
"""

import itertools
from operator import ge, mul
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from jonq import groebner, rees
from jonq.errors import StructuralError
from jonq.fixtures import load_fixture
from jonq.groebner import (
    Budget,
    IdealHandle,
    _GBPoly,
    _LeadCount,
    _numerator,
    eliminate,
    hilbert_numerator,
)
from jonq.implicitize import implicitize
from jonq.orders import Block, DegRevLex
from jonq.ring import Polynomial, VariableSet, _packing, monomials_of_degree, parse_polynomial


def _plain_eliminate(I, drop, budget=None, hilbert=None):
    return groebner.eliminate(I, drop, budget=budget)


def _both(coords, y_names):
    """(pruned handle, its budget, the hilbert it got), (plain handle, its budget)."""
    seen = []

    def spy(I, drop, budget=None, hilbert=None):
        seen.append(hilbert)
        return groebner.eliminate(I, drop, budget=budget, hilbert=hilbert)

    b_pruned, b_plain = Budget(), Budget()
    with mock.patch.object(rees, "eliminate", spy):
        pruned = rees.eliminate_rees_parameter(coords, y_names, b_pruned)
    with mock.patch.object(rees, "eliminate", _plain_eliminate):
        plain = rees.eliminate_rees_parameter(coords, y_names, b_plain)
    return (pruned, b_pruned, seen[0]), (plain, b_plain)


@st.composite
def rees_coordinates(draw):
    """1-3 coordinates in n + 1 variables (n = 1..3): sparse forms of one
    degree d = 1..3, or zero."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    ring = VariableSet([f"x{i}" for i in range(n + 1)])
    monos = list(monomials_of_degree(n + 1, d))
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
    coords = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            coords.append(Polynomial.zero(ring))
            continue
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        coords.append(Polynomial(ring, {m: draw(coeffs) for m in support}))
    return coords


_TWO = VariableSet(["x0", "x1"])


class TestPrunedAgainstPlain:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rees_coordinates())
    @example([parse_polynomial("x0^2", _TWO), Polynomial.zero(_TWO), parse_polynomial("x1^2", _TWO)])
    @example([Polynomial.zero(_TWO), Polynomial.zero(_TWO)])
    def test_same_basis_with_no_more_pairs(self, coords):
        y_names = tuple(f"y{i}" for i in range(len(coords)))
        (pruned, b_pruned, hilbert), (plain, b_plain) = _both(coords, y_names)
        assert hilbert is not None
        assert pruned.ring == plain.ring
        assert pruned.gens == plain.gens
        got, want = pruned.gb(), plain.gb()
        assert got.generators == want.generators
        assert [e.terms for e in got._elems] == [e.terms for e in want._elems]
        assert b_pruned.pairs_used <= b_plain.pairs_used

    def test_the_series_of_the_regular_sequence(self):
        x0, x1 = Polynomial.gens(_TWO)
        (_, _, hilbert), _ = _both([x0**2, Polynomial.zero(_TWO), x0 * x1], ("y0", "y1", "y2"))
        weights, numerator = hilbert
        # x0, x1, then y0, y1, y2, then t; a zero coordinate gives y_i weight 1
        assert weights == [1, 1, 3, 1, 3, 1]
        # (1 - s^3)^2 (1 - s)
        assert numerator == [1, -1, 0, -2, 2, 0, 1, -1]

    def test_no_series_for_a_coordinate_that_is_not_a_form(self):
        x0, x1 = Polynomial.gens(_TWO)
        (pruned, _, hilbert), (plain, _) = _both([x0**2 + x1, x1**2], ("y0", "y1"))
        assert hilbert is None
        assert pruned.gens == plain.gens


def _series(monos, weights, top):
    """The standard monomials of `monos`, counted by weighted degree 0..top."""
    counts = [0] * (top + 1)
    for e in itertools.product(*[range(top // w + 1) for w in weights]):
        k = sum(map(mul, weights, e))
        if k <= top and not any(all(map(ge, e, m)) for m in monos):
            counts[k] += 1
    return counts


def _numerator_by_counting(monos, weights):
    """N(monos) from counts of standard monomials, with trailing zeros.

    deg N is at most the weighted degree of the lcm of the generators, so
    the counts up to that degree, times prod(1 - s^w), give N.
    """
    top = sum(w * max((m[i] for m in monos), default=0) for i, w in enumerate(weights))
    counts = _series(monos, weights, top)
    for w in weights:  # multiply by (1 - s^w), truncated at `top`
        counts = [c - (counts[k - w] if k >= w else 0) for k, c in enumerate(counts)]
    return counts


@st.composite
def weighted_monomial_ideals(draw):
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=5))
    return monos, weights


class TestWeightedNumerator:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(weighted_monomial_ideals())
    @example(([], [2]))
    @example(([(0, 0)], [1, 3]))
    def test_matches_counting_by_weighted_degree(self, case):
        """N / prod(1 - s^w) against counts of standard monomials."""
        monos, weights = case
        n = len(weights)
        counts = _numerator_by_counting(monos, weights)
        while counts and not counts[-1]:
            counts.pop()
        assert _numerator(monos, weights) == counts
        if weights == [1] * n:
            assert _numerator(monos) == counts
        # the minimal generators, in an order other than by degree, give the
        # same numerator as the arbitrary ones above
        minimal = {m for m in monos if not any(g != m and all(map(ge, m, g)) for g in monos)}
        assert _numerator(sorted(minimal, reverse=True), weights) == counts

    def test_weights_shift_the_pivot(self):
        # (x0^2, x0*x1) with x0: 2, x1: 3 -- 1 - s^4 - s^5 + s^7
        assert _numerator([(2, 0), (1, 1)], [2, 3]) == [1, 0, 0, 0, -1, -1, 0, 1]


@st.composite
def lead_sequences(draw):
    """Weights, leads in the order a basis gains them, and the ideal the
    series claims: n = 1..3 variables of weight 1..3, exponents 0..3."""
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    leads = draw(st.lists(monomial, min_size=1, max_size=6))
    claimed = draw(st.lists(monomial, max_size=4))
    return weights, leads, claimed


class TestLeadCount:
    """`_LeadCount.missing(k)` is the standard monomials of weighted degree
    k of the leads so far less those of the claimed ideal."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(lead_sequences())
    # every colon generated by variables: x0, x1, x2 in turn
    @example(([1, 2, 3], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0)]))
    # (x0^2) : x1^2 = (x0^2), principal; (x0^2, x1^2) : x0*x1 = (x0, x1)
    @example(([2, 3], [(2, 0), (0, 2), (1, 1)], [(1, 0), (0, 2)]))
    # (x0^2, x2^2, x0*x1) : x1^2 = (x0, x2^2): the variable x0 drops x0^2
    @example(([1, 2, 1], [(2, 0, 0), (0, 0, 2), (1, 1, 0), (0, 2, 0)], []))
    # (x0^2*x1, x0*x1^2, x2^3) : x2^2 = (x2) + (x0^2*x1, x0*x1^2), a recursion
    @example(([1, 2, 3], [(2, 1, 0), (1, 2, 0), (0, 0, 3), (0, 0, 2)], [(0, 0, 1)]))
    # a unit colon: an earlier lead divides a later one
    @example(([3, 1], [(1, 0), (2, 1), (0, 3)], [(1, 0)]))
    def test_matches_counting_by_weighted_degree(self, case):
        weights, leads, claimed = case
        n = len(weights)
        order = DegRevLex(n)
        packing = _packing(order, 16)
        count = _LeadCount((weights, _numerator_by_counting(claimed, weights)), order, packing)
        top = 3 * sum(weights) + 2
        want_claimed = _series(claimed, weights, top)
        xs = []
        for j, m in enumerate(leads):
            xh = packing.pack(order.key(m)) & packing.xmask
            count.pending.append((xh, [packing.lcm(x, xh) for x in xs]))
            xs.append(xh)
            if j % 3 == 1 and j + 1 < len(leads):
                continue  # two folds wait for one count
            have = _series(leads[: j + 1], weights, top)
            for k in range(top + 1) if j % 2 == 0 else (top, top // 2):
                assert count.missing(k) == have[k] - want_claimed[k], (j, k)


class TestLazyTerms:
    @pytest.mark.parametrize("order", [DegRevLex(3), Block(3, (0,))], ids=["degrevlex", "block"])
    def test_repacked_at_32_bits_keeps_the_eager_terms(self, order):
        ring = VariableSet(["x0", "x1", "x2"])
        p = parse_polynomial("-3*x0^2*x1 + x1^3 + 5*x0*x2^2 - x2^3 + 7*x1*x2^2", ring)
        narrow, wide = _packing(order, 16), _packing(order, 32)
        r = sorted(((narrow.pack(order.key(m)), c) for m, c in p.items()), reverse=True)
        eager = [(narrow.unpack(k), -c) for k, c in r]  # made with a positive lead
        assert eager[0][1] > 0
        e = _GBPoly._packed(r, order, narrow, None)
        assert (e.lm_okey, e.lc) == eager[0]
        assert e.lm_exps == order.exponents(eager[0][0])
        assert e.lead(narrow) == r[0][0]
        # switched to 32-bit fields before its terms were ever read
        assert e.lead(wide) == wide.pack(eager[0][0])
        assert e.tail(wide) == wide.offsets(eager)
        assert e.terms == eager
        assert e.lead(narrow) == r[0][0] and e.tail(narrow) == narrow.offsets(eager)


# `Budget.pairs_used` of each fixture's two Rees eliminations: its
# coordinates (the oracle's), then its Cremona map's forward coordinates
REES_PAIRS = {"identity": (13, 4), "nzd": (36, 3), "plane": (23, 3), "space": (102, 11)}


@pytest.mark.parametrize("fixture", sorted(REES_PAIRS))
def test_rees_pairs_pinned(fixture):
    P = load_fixture(fixture).jonquieres()
    used = []
    for coords, y_names in (
        (P.coordinates(), P.monoid_ring.names),
        (P.cremona.forward.coords, P.cremona.target.names),
    ):
        budget = Budget()
        rees.eliminate_rees_parameter(list(coords), y_names, budget)
        used.append(budget.pairs_used)
    assert tuple(used) == REES_PAIRS[fixture]


def _cut_closed_form_run(P, monkeypatch):
    """The generators, ring and series `rees._monoid_rees` hands `buchberger`
    when the downgrade chain loses its last element."""
    seen = []
    cut, real = rees.iterated_downgrades, rees.buchberger
    monkeypatch.setattr(rees, "iterated_downgrades", lambda *a, **k: cut(*a, **k)[:-1])
    monkeypatch.setattr(rees, "buchberger", lambda gens, **k: seen.append((gens, k)) or real(gens, **k))
    rees.monoid_association(P, implicitize(P))
    monkeypatch.undo()
    (gens, kwargs), = seen  # the elimination that follows runs no `buchberger`
    return gens, kwargs["ring"], kwargs["hilbert"]


# `Budget.pairs_used` of the cut closed form's run: told I_M's series, and plain
CUT_CLOSED_FORM_PAIRS = {"identity": (8, 8), "nzd": (15, 17), "plane": (9, 11), "space": (8, 8)}


@pytest.mark.parametrize("fixture", sorted(CUT_CLOSED_FORM_PAIRS))
def test_series_of_a_larger_ideal_is_a_safe_target(fixture, monkeypatch):
    # the cut D_M is strictly inside I_M, whose series the run is told
    gens, ring, hilbert = _cut_closed_form_run(load_fixture(fixture).jonquieres(), monkeypatch)
    assert hilbert_numerator(IdealHandle(ring, gens)) != hilbert[1]
    b_pruned, b_plain = Budget(), Budget()
    pruned = groebner.buchberger(gens, budget=b_pruned, ring=ring, hilbert=hilbert)
    plain = groebner.buchberger(gens, budget=b_plain, ring=ring)
    assert pruned.generators == plain.generators
    assert [e.terms for e in pruned._elems] == [e.terms for e in plain._elems]
    assert (b_pruned.pairs_used, b_plain.pairs_used) == CUT_CLOSED_FORM_PAIRS[fixture]


class TestHilbertNumeratorCache:
    def test_computed_once_per_basis_and_copied(self):
        ring = VariableSet(["x0", "x1", "x2"])
        I = IdealHandle(ring, [parse_polynomial(t, ring) for t in ("x0*x1", "x0*x2", "x1*x2")])
        N = hilbert_numerator(I)
        N.append(99)
        with mock.patch.object(groebner, "_numerator", side_effect=AssertionError):
            assert hilbert_numerator(I) == [1, 0, -3, 2]


class TestBrokenPromise:
    R = VariableSet(["t", "x0", "x1", "x2"])

    def test_input_that_is_not_weighted_homogeneous(self):
        gens = [parse_polynomial(t, self.R) for t in ("x0 - t*x1^2", "x1 - t*x2")]
        hilbert = ([1, 2, 1, 1], [1, 0, -1, 0, -1, 0, 1])
        with pytest.raises(StructuralError, match="weighted-homogeneous"):
            eliminate(IdealHandle(self.R, gens), ("t",), hilbert=hilbert)
        # the same ideal, eliminated without the promise
        assert eliminate(IdealHandle(self.R, gens), ("t",)).gens

    def test_more_leads_than_the_series_allows(self):
        # three quadrics claimed to span the zero ideal: the first count, in
        # degree 3, finds leads that the claimed series has no room for
        gens = [
            parse_polynomial(t, self.R)
            for t in ("x0*x1 - x2^2", "x0*x2 - x1^2", "x1*x2 - x0^2")
        ]
        with pytest.raises(StructuralError, match="than the Hilbert series allows"):
            eliminate(IdealHandle(self.R, gens), ("t",), hilbert=([1] * 4, [1]))
        # without the claim the same elimination runs
        assert eliminate(IdealHandle(self.R, gens), ("t",)).gens
