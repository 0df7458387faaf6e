"""Packed monomials (`jonq.ring._Packing`) against the order keys they pack.

One int holds the order key over the guarded exponent vector.  These
tests check every promise the division engine and the pair update rely
on: the round trip, int order equals key order, divisibility by one
mask test, the per-field lcm, additive shifts, and an overflow that is
caught before any field carries.
"""

import pytest
from hypothesis import given, settings, strategies as st

from jonq.orders import Block, DegRevLex, Lex, Weighted
from jonq.ring import _Accumulator, _KeyOverflow, _packing

ORDERS = [
    DegRevLex(4),
    Lex(3),
    Block(4, (1,)),
    Block(5, (0, 2)),
    Weighted((2, 1, 3)),
    Weighted((3, 5), tiebreak=Lex(2)),
]
PACKINGS = [(order, bits) for order in ORDERS for bits in (16, 32)]


def exponent_bound(packing):
    """The exponent bound `pack` accepts: the lowest `over` bit."""
    return packing.over & -packing.over


@st.composite
def case(draw, count, shrink=1):
    """An order, its packing and `count` exponent vectors below the bound."""
    order, bits = draw(st.sampled_from(PACKINGS))
    packing = _packing(order, bits)
    top = exponent_bound(packing) // shrink - 1
    small = st.integers(0, min(top, 6))
    entry = st.one_of(small, st.integers(0, top))
    vecs = [draw(st.tuples(*[entry] * order.nvars)) for _ in range(count)]
    return order, packing, vecs


def test_exponent_bound_keeps_keys_in_range():
    for order, bits in PACKINGS:
        packing = _packing(order, bits)
        bound = exponent_bound(packing)
        assert 2 <= bound <= 1 << (bits - 3)
        biggest = order.key((bound - 1,) * order.nvars)
        assert max(map(abs, biggest)) <= 1 << (bits - 3)


@settings(max_examples=300, deadline=None)
@given(case(1))
def test_round_trip(c):
    order, packing, (e,) = c
    key = order.key(e)
    packed = packing.pack(key)
    assert packing.unpack(packed) == key
    assert packing.exponents(packed) == e
    assert packing.monomial(packed & packing.xmask) == (packed, sum(e))


@settings(max_examples=300, deadline=None)
@given(case(2))
def test_int_order_is_key_order(c):
    order, packing, (a, b) = c
    ka, kb = order.key(a), order.key(b)
    pa, pb = packing.pack(ka), packing.pack(kb)
    assert (pa < pb) == (ka < kb)
    assert (pa == pb) == (ka == kb)


@settings(max_examples=300, deadline=None)
@given(case(2), st.booleans())
def test_guard_test_is_divisibility(c, make_divisor):
    order, packing, (a, b) = c
    if make_divisor:
        a = tuple(min(x, y) for x, y in zip(a, b))
    pa, pb = packing.pack(order.key(a)), packing.pack(order.key(b))
    divides = all(x <= y for x, y in zip(a, b))
    assert (not (pb - pa) & packing.guard) == divides
    if divides:
        assert packing.exponents(pb - pa) == tuple(y - x for x, y in zip(a, b))


@settings(max_examples=300, deadline=None)
@given(case(2))
def test_packed_lcm_is_the_tuple_max(c):
    order, packing, (a, b) = c
    xmask = packing.xmask
    xa = packing.pack(order.key(a)) & xmask
    xb = packing.pack(order.key(b)) & xmask
    m = tuple(max(x, y) for x, y in zip(a, b))
    assert packing.lcm(xa, xb) == packing.lcm(xb, xa) == packing.pack(order.key(m)) & xmask
    assert packing.exponents(packing.lcm(xa, xb)) == m


@settings(max_examples=300, deadline=None)
@given(case(3, shrink=2))
def test_shift_by_a_packed_quotient(c):
    order, packing, (a, c_, q) = c
    b = tuple(x + y for x, y in zip(c_, q))  # c divides b
    pack = packing.pack
    shifted = pack(order.key(a)) + (pack(order.key(b)) - pack(order.key(c_)))
    assert shifted == pack(order.key(tuple(x + y for x, y in zip(a, q))))


@pytest.mark.parametrize("order,bits", PACKINGS)
def test_shift_past_the_bound_raises_before_a_carry(order, bits):
    packing = _packing(order, bits)
    bound = exponent_bound(packing)
    n = order.nvars
    for v in range(n):
        a = tuple(bound - 1 if i == v else i % 2 for i in range(n))
        unit = tuple(int(i == v) for i in range(n))
        past = tuple(x + y for x, y in zip(a, unit))
        target = packing.pack(order.key(a)) + (
            packing.pack(order.key(unit)) - packing.pack(order.key((0,) * n))
        )
        # nothing has carried: the target is still the monomial `past`
        assert packing.exponents(target) == past
        assert packing.unpack(target) == order.key(past)
        with pytest.raises(_KeyOverflow):
            packing.pack(order.key(past))
        acc = _Accumulator(packing)
        with pytest.raises(_KeyOverflow):
            acc.add_shifted(target, [(0, 1)], 1)
        assert not acc
