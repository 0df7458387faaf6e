"""Elimination and interreduction against the routes they replaced.

`reference_eliminate` is `eliminate` as it was when it read the x-free
part of the full reduced Block basis: `buchberger` under the Block order,
the elements whose lead is free of the dropped variables, re-keyed under
degrevlex on the kept ones.  `two_packing_eliminate` is `eliminate` as it
was when it re-keyed the kept elements of the Block run under degrevlex
and interreduced them in a degrevlex packing, where `eliminate` now
interreduces them in the run's own Block packing.
`reference_reduced_basis` is the interreduction that reduced every
minimal element against all the others, one `_reduce` call (and one
packing) per element.  The engine must build the same generators, the
same cached basis and charge the same S-pairs.
"""

import hashlib
import os

import pytest
from hypothesis import given, settings, strategies as st
from test_orders_kernel import _outputs_on_both_backends

from jonq import rees, ring
from jonq.groebner import (
    Budget,
    IdealHandle,
    _buchberger_core,
    _GBPoly,
    _lead_data,
    _normalize_terms,
    _reduce,
    _reduced_basis,
    _to_internal,
    _to_polynomial,
    buchberger,
    eliminate,
)
from jonq.orders import Block, DegRevLex
from jonq.ring import Polynomial, VariableSet, parse_polynomial, random_form


def reference_eliminate(I, drop, budget):
    """(generators, basis elements) of I intersect k[kept variables]."""
    ring = I.ring
    drop_idx = tuple(ring.index(n) for n in drop)
    gb = buchberger(I.gens, Block(len(ring), drop_idx), budget, ring=ring)
    small = VariableSet(tuple(n for n in ring.names if n not in drop))
    order = DegRevLex(len(small))
    cut = len(drop_idx)
    elems = [
        _GBPoly([(okey[cut:], c) for okey, c in e.terms], order)
        for e in gb._elems
        if not any(e.lm_okey[:cut])
    ]
    return tuple(_to_polynomial(e.terms, order, small) for e in elems), elems


def reference_reduced_basis(G, order):
    elems = sorted(G, key=lambda e: e.lm_okey)
    minimal = []
    for e in elems:
        if not any(all(a <= b for a, b in zip(m.lm_exps, e.lm_exps)) for m in minimal):
            minimal.append(e)
    reduced = []
    for idx, e in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r, _ = _reduce(e.terms, others, _lead_data(others), order)
        reduced.append(_GBPoly(_normalize_terms(r), order, e.sugar))
    reduced.sort(key=lambda e: e.lm_okey)
    return reduced


def _check_eliminate(I, drop):
    want_budget, got_budget = Budget(), Budget()
    want, want_elems = reference_eliminate(I, drop, want_budget)
    out = eliminate(I, drop, budget=got_budget)
    gb = out.gb()
    assert out.gens == want
    assert gb.generators == want
    assert [e.terms for e in gb._elems] == [e.terms for e in want_elems]
    assert got_budget.pairs_used == want_budget.pairs_used
    assert not I._cache  # no Block basis is left on the input handle
    return out


R5 = VariableSet(["x0", "x1", "x2", "x3", "x4"])
DROPS = [("x0",), ("x1",), ("x4",), ("x0", "x1"), ("x3", "x1"), ("x0", "x2", "x4")]

coeffs = st.integers(-5, 5).filter(bool)


def _poly(free, terms):
    """A polynomial of R5 from (exponents, coefficient) pairs, zero on the `free` indices."""
    out = {}
    for m, c in terms:
        m = tuple(0 if i in free else e for i, e in enumerate(m))
        out[m] = out.get(m, 0) + c
    return Polynomial(R5, {m: c for m, c in out.items() if c})


monos = st.lists(st.integers(0, 4), max_size=3).map(lambda v: tuple(v.count(i) for i in range(5)))
term_lists = st.lists(st.tuples(monos, coeffs), min_size=1, max_size=4)


@st.composite
def homogeneous_polys(draw):
    deg = draw(st.integers(1, 2))
    out = {}
    for _ in range(draw(st.integers(1, 3))):
        cuts = sorted(draw(st.lists(st.integers(0, deg), min_size=4, max_size=4)))
        bounds = [0] + cuts + [deg]
        out[tuple(b - a for a, b in zip(bounds, bounds[1:]))] = draw(coeffs)
    return Polynomial(R5, out)


@st.composite
def elimination_cases(draw):
    """(generators, dropped names): affine, homogeneous or Rabinowitsch-style."""
    drop = draw(st.sampled_from(DROPS))
    kind = draw(st.sampled_from(["affine", "homogeneous", "rabinowitsch"]))
    if kind == "homogeneous":
        return draw(st.lists(homogeneous_polys(), min_size=1, max_size=3)), drop
    if kind == "affine":
        return [_poly((), t) for t in draw(st.lists(term_lists, min_size=1, max_size=3))], drop
    # I + (1 - t*b) with t the (first) dropped variable, I and b free of t
    t = R5.index(drop[0])
    gens = [_poly({t}, terms) for terms in draw(st.lists(term_lists, min_size=1, max_size=2))]
    b = _poly({t}, draw(term_lists))
    gens.append(Polynomial.constant(R5, 1) - Polynomial.variable(R5, drop[0]) * b)
    return gens, drop


@settings(max_examples=100, deadline=None)
@given(elimination_cases())
def test_eliminate_matches_reduced_block_basis(case):
    gens, drop = case
    _check_eliminate(IdealHandle(R5, gens), drop)


def _R5(*texts):
    return IdealHandle(R5, [parse_polynomial(s, R5) for s in texts])


@pytest.mark.parametrize(
    "I, drop, want",
    [
        (IdealHandle(R5, ()), ("x1",), ()),
        (_R5("x0*x1 - 1", "x0"), ("x0",), ("1",)),
        (_R5("x0 - x1^2", "x0*x2 - x3"), ("x0",), ("x1^2*x2 - x3",)),
        (_R5("x0 - x1^2"), ("x0",), ()),
        (_R5("x1*x2", "1 - x0*x2"), ("x0",), ("x1",)),
        (_R5("x1*x2 - x3*x4", "x1^2 - x0*x3", "x1*x4 - x2*x3"), ("x1",), None),
        (_R5("x0 - x2*x3", "x1 - x3*x4", "x2^2 - x4^2"), ("x0", "x1"), None),
    ],
    ids=["zero", "unit", "one-relation", "zero-elimination", "rabinowitsch",
         "homogeneous-middle", "several"],
)
def test_eliminate_edge_cases(I, drop, want):
    out = _check_eliminate(I, drop)
    if want is not None:
        small = out.ring
        assert out.gens == tuple(parse_polynomial(s, small) for s in want)


# -- interreduction ------------------------------------------------------------

R3 = VariableSet(["x0", "x1", "x2"])
ORDERS = [DegRevLex(3), Block(3, (0,)), Block(3, (0, 1)), Block(3, (1, 2)), Block(3, (2,))]
polys3 = st.dictionaries(
    st.lists(st.integers(0, 2), max_size=2).map(lambda v: tuple(v.count(i) for i in range(3))),
    coeffs,
    min_size=1,
    max_size=3,
).map(lambda t: Polynomial(R3, t))


def _check_reduced_basis(gens, order):
    G = _buchberger_core([_to_internal(g, order) for g in gens], order, Budget())
    got = _reduced_basis(G, order)
    want = reference_reduced_basis(G, order)
    assert [e.terms for e in got] == [e.terms for e in want]
    assert [e.sugar for e in got] == [e.sugar for e in want]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ORDERS), st.lists(polys3, min_size=1, max_size=3))
def test_reduced_basis_matches_per_element_loop(order, gens):
    _check_reduced_basis(gens, order)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: str(o.signature()))
def test_reduced_basis_restarts_with_wider_fields(order):
    """The first leads pack in 16-bit fields, a later tail does not."""
    x0, x1, x2 = Polynomial.gens(R3)
    gens = [x1 - x2, x0 - x1 * x2**9000, x0 * x1 + 3 * x2**2]
    _check_reduced_basis(gens, order)


# -- interreduction in the Block run's own packing ----------------------------


def two_packing_eliminate(I, drop, hilbert=None):
    """The reduced basis elements of I intersect k[kept variables], as
    `eliminate` built them before it interreduced in the Block packing."""
    ring_ = I.ring
    drop_idx = tuple(ring_.index(n) for n in drop)
    block = Block(len(ring_), drop_idx)
    G = _buchberger_core([_to_internal(g, block) for g in I.gens], block, Budget(), hilbert)
    order = DegRevLex(len(ring_) - len(drop_idx))
    cut = len(drop_idx)
    kept = [
        _GBPoly([(okey[cut:], c) for okey, c in e.terms], order)
        for e in G
        if not any(e.lm_okey[:cut])
    ]
    return _reduced_basis(kept, order)


def _check_one_packing(I, drop, hilbert=None):
    """`eliminate` against `two_packing_eliminate`, term for term; returns
    a digest of the basis terms."""
    want = two_packing_eliminate(I, drop, hilbert)
    out = eliminate(I, drop, budget=Budget(), hilbert=hilbert)
    got = out.gb()._elems
    assert [e.terms for e in got] == [e.terms for e in want]
    assert [e.lm_exps for e in got] == [e.lm_exps for e in want]
    order = DegRevLex(len(out.ring))
    assert out.gens == tuple(_to_polynomial(e.terms, order, out.ring) for e in want)
    return hashlib.sha256(repr([e.terms for e in got]).encode()).hexdigest()[:16]


def _rees_eliminations(seed):
    """The (ideal, dropped names, Hilbert series) of the elimination of t
    that `eliminate_rees_parameter` makes for seeded forms: four of degree
    1 or 2 on P^2."""
    deg = 1 + seed % 2
    coords = [random_form(R3, deg, 10 * seed + i) for i in range(4)]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rees, "eliminate", lambda I, drop, **kw: calls.append((I, drop, kw["hilbert"])))
        rees.eliminate_rees_parameter(coords, ("y0", "y1", "y2", "y3"))
    return calls


def one_packing_digests():
    """Digests of `eliminate`'s bases on the seeded Rees inputs and on one
    run that widens its fields, each checked against `two_packing_eliminate`."""
    out = []
    for seed in range(6):
        for I, drop, hilbert in _rees_eliminations(seed):
            out.append(_check_one_packing(I, drop, hilbert))
    out.append(_check_one_packing(_wide_ideal(), ("x0",)))
    return out


def _wide_ideal():
    """An ideal whose elimination of x0 outgrows 16-bit fields: x2^9001 and
    its multiples are past the bound."""
    x0, x1, x2 = Polynomial.gens(R3)
    return IdealHandle(R3, [x1 - x2, x0 - x1 * x2**9000, x0 * x1 + 3 * x2**2])


def test_eliminate_interreduces_in_the_block_packing():
    assert len(one_packing_digests()) == 7


def test_eliminate_widens_its_fields(monkeypatch):
    made = []
    packing = ring._packing
    monkeypatch.setattr(ring, "_packing", lambda *key: made.append(key) or packing(*key))
    _check_one_packing(_wide_ideal(), ("x0",))
    assert (Block(3, (0,)), 32) in made


def test_reduced_basis_starts_at_the_width_of_the_run(monkeypatch):
    # the Block run overflows 16-bit fields and finishes at 32; its kept
    # elements are interreduced at 32 at once, not repacked at 16 first
    made = []
    packing = ring._packing
    monkeypatch.setattr(ring, "_packing", lambda *key: made.append(key) or packing(*key))
    eliminate(_wide_ideal(), ("x0",), budget=Budget())
    assert made == [(Block(3, (0,)), 16), (Block(3, (0,)), 32), (Block(3, (0,)), 32)]


def test_one_packing_bases_identical_across_backends(compiled_kernel_path):
    body = (
        f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "from test_eliminate import one_packing_digests\n"
        "print('\\n'.join(one_packing_digests()))\n"
    )
    outs = _outputs_on_both_backends(compiled_kernel_path, body)
    assert outs["0"][1] == outs["1"][1]
    assert len(outs["0"][1]) == 7
