"""The heap-based division engine against the merge-based loops it replaced.

`reference_reduce` and `reference_divide_exact` are the reduction loop
and the exact division that re-merged or re-scanned the whole remainder
on every step.  The engine must make the same choices, so it must return
the same terms, scales and quotients, and fail on the same inputs.
`reference_reduce` finds its reducers the way that loop did: on exponent
tuples with support masks (`reference_find_reducer`), not on the
engine's packed monomials.
"""

from fractions import Fraction
from math import gcd as int_gcd

import pytest
from hypothesis import given, settings, strategies as st

from jonq import kernel
from jonq.errors import DivisibilityError
from jonq.groebner import (
    _GBPoly,
    _lead_data,
    _reduce,
    _to_internal,
    buchberger,
    is_member,
    normal_form,
)
from jonq.orders import Block, DegRevLex
from jonq.ring import Polynomial, VariableSet, divide_exact, parse_polynomial


def _mask(exps):
    m = 0
    for i, e in enumerate(exps):
        if e:
            m |= 1 << i
    return m


def reference_lead_data(elems, order):
    """(support mask, lead exponents, index) triples by ascending lead."""
    idx = sorted(range(len(elems)), key=lambda k: elems[k].lm_okey)
    out = []
    for k in idx:
        exps = order.exponents(elems[k].lm_okey)
        out.append((_mask(exps), exps, k))
    return out


def reference_find_reducer(exps, mask, lead_data):
    """Index of the first lead in `lead_data` dividing `exps`; -1 if none."""
    for lm_mask, lm, idx in lead_data:
        if lm_mask & ~mask:
            continue
        if all(e <= m for e, m in zip(lm, exps)):
            return idx
    return -1


def reference_reduce(terms, elems, order, early_nonzero=False, find=reference_find_reducer):
    lead_data = reference_lead_data(elems, order)
    out = []
    cur = terms
    i = 0
    num, den = 1, 1
    steps = 0
    exponents = order.exponents
    merge = kernel.merge_linear
    while i < len(cur):
        okey, c = cur[i]
        exps = exponents(okey)
        j = find(exps, _mask(exps), lead_data)
        if j < 0:
            if early_nonzero:
                return [(okey, c)], Fraction(num, den)
            out.append((okey, c))
            i += 1
            continue
        g = elems[j]
        shift = tuple(a - b for a, b in zip(okey, g.lm_okey))
        gamma = int_gcd(c, g.lc)
        a = g.lc // gamma
        b = c // gamma
        cur = merge(cur, i + 1, a, None, g.terms, 1, -b, shift)
        i = 0
        if a != 1:
            num *= a
            if out:
                out = [(k, a * v) for k, v in out]
        steps += 1
        if steps % 64 == 0 and cur:
            content = 0
            for _, v in out:
                content = int_gcd(content, v)
            for _, v in cur:
                content = int_gcd(content, v)
            if content > 1:
                out = [(k, v // content) for k, v in out]
                cur = [(k, v // content) for k, v in cur]
                den *= content
    if not out:
        return [], Fraction(num, den)
    content = 0
    for _, v in out:
        content = int_gcd(content, v)
        if content == 1:
            break
    if content > 1:
        out = [(k, v // content) for k, v in out]
        den *= content
    return out, Fraction(num, den)


def reference_divide_exact(p, d):
    order = DegRevLex(len(p.ring))
    dm, dc = d.lead_term(order)
    dterms = d.sorted_terms(order)
    rem = dict(p.items())
    qterms = {}
    while rem:
        m = max(rem, key=order.key)
        c = rem[m]
        u = tuple(a - b for a, b in zip(m, dm))
        if any(e < 0 for e in u):
            raise DivisibilityError(f"({d}) does not divide ({p}) exactly")
        qc = Fraction(c, 1) / dc
        qterms[u] = qterms.get(u, 0) + qc
        for mm, cc in dterms:
            key = tuple(a + b for a, b in zip(u, mm))
            s = rem.get(key, 0) - qc * cc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return Polynomial(p.ring, qterms)


R = VariableSet(["x0", "x1", "x2"])

ORDERS = [
    DegRevLex(3),
    Block(3, (0,)),
    Block(3, (1, 2)),
]

coeffs = st.integers(-6, 6).filter(bool)
monos = st.tuples(*(st.integers(0, 3) for _ in range(3)))
polys = st.dictionaries(monos, coeffs, min_size=1, max_size=6).map(
    lambda t: Polynomial(R, t)
)
rational_polys = st.dictionaries(
    monos, st.builds(Fraction, coeffs, st.integers(1, 4)), min_size=1, max_size=5
).map(lambda t: Polynomial(R, t))


def _elems(gens, order):
    elems = [_GBPoly(_to_internal(g, order), order) for g in gens if not g.is_zero()]
    return elems, _lead_data(elems)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DivisibilityError as exc:
        return "error", str(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS), st.lists(polys, min_size=1, max_size=3), polys, polys)
def test_reduce_matches_merge_loop(order, gens, p, q):
    elems, lead = _elems(gens, order)
    terms = _to_internal(p * q, order)
    for early in (False, True):
        want = reference_reduce(terms, elems, order, early_nonzero=early)
        assert _reduce(terms, elems, lead, order, early_nonzero=early) == want


def test_reduce_matches_merge_loop_past_content_passes():
    """Long enough for the 64-step content pass, with lead coefficients != 1."""
    hits = []

    def counting(exps, mask, lead_data):
        j = reference_find_reducer(exps, mask, lead_data)
        hits.append(j >= 0)
        return j
    x0, x1, x2 = Polynomial.gens(R)
    p = (3 * x0 + 2 * x1 - 5 * x2 + 7) ** 7
    gens = [
        parse_polynomial(s, R)
        for s in ("6*x0^2 - 4*x1*x2 + 9", "10*x1^2 + 3*x0 - x2", "15*x0*x1*x2 - 2")
    ]
    for order in ORDERS:
        elems, lead = _elems(gens, order)
        terms = _to_internal(p, order)
        hits.clear()
        got = _reduce(terms, elems, lead, order)
        assert got == reference_reduce(terms, elems, order, find=counting)
        assert sum(hits) > 64


# `exact_quotient` answers a one-term divisor and the general loop on
# different paths; the inputs reach both, the loop also with a dividend as
# long as the divisor and with a divisor of integer content
one_term_polys = st.builds(
    lambda m, c: Polynomial(R, {m: c}), monos, st.builds(Fraction, coeffs, st.integers(1, 4))
)
content_polys = st.builds(lambda q, k: q * k, polys, st.integers(2, 12))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(rational_polys, one_term_polys),
    st.one_of(rational_polys, one_term_polys, content_polys),
    st.one_of(st.none(), polys),
)
def test_divide_exact_matches_max_loop(a, b, extra):
    p = a * b if extra is None else a * b + extra
    got = _outcome(divide_exact, p, b)
    assert got == _outcome(reference_divide_exact, p, b)
    if extra is None:
        assert got == ("ok", a)


def _p(text):
    return parse_polynomial(text, R)


@pytest.mark.parametrize(
    "p, d, want",
    [
        # equal lengths with a two-term quotient
        ("x0^2 - x1^2", "x0 + x1", "x0 - x1"),
        # 2*x0 does not divide the integer lead x0: the exit in Z[x]
        ("x0 + x1", "2*x0 + x1", None),
        ("x0 + x1", "x0 + x2", None),
        # equal lengths, and no monomial multiple of d's lead x0 is p's lead
        ("x1^2 + x2", "x0 + x1", None),
        ("x0*x1 + x1^2", "3*x0*x2", None),
        ("x0*x1", "x0*x2 + x1", None),
        ("1/3*x0^2 - 1/4*x1^2 + 5/6*x0*x2", "2/5*x0 - 3/7*x1", None),
        ("1/6*x0^2 + 1/3*x0*x1 - 1/4*x0*x2 - 1/2*x1*x2", "2/3*x0 - x2", "1/4*x0 + 1/2*x1"),
        ("6*x0^2*x1 + 4*x0*x1*x2", "3*x0 + 2*x2", "2*x0*x1"),
        ("3/4*x0^2*x1^3", "-3/2*x0*x1", "-1/2*x0*x1^2"),
        ("x0*x1 + 2*x1^2", "x0 + 2*x1", "x1"),
    ],
)
def test_divide_exact_pinned(p, d, want):
    p, d = _p(p), _p(d)
    got = _outcome(divide_exact, p, d)
    assert got == _outcome(reference_divide_exact, p, d)
    assert got[0] == ("error" if want is None else "ok")
    if want is not None:
        assert got[1] == _p(want)


def test_divide_exact_with_big_coefficients():
    big = 2**70
    x0, x1, x2 = Polynomial.gens(R)
    a = big * x0 + 3 * x1 - Fraction(1, big) * x2
    b = x0 * x1 - big * x2**2 + (big + 1) * x1
    assert divide_exact(a * b, b) == a
    assert divide_exact(a * b, big * b) == a * Fraction(1, big)
    for p, d in ((a * b, b), (a * b + x2, b), (a * b, a * (big + 1))):
        assert _outcome(divide_exact, p, d) == _outcome(reference_divide_exact, p, d)


def test_divide_exact_quotient_widens_its_fields(monkeypatch):
    """A quotient whose exponents do not fit 16-bit fields is found at 32."""
    from jonq import ring

    made = []
    packing = ring._packing
    monkeypatch.setattr(ring, "_packing", lambda *key: made.append(key[1]) or packing(*key))
    x0, x1, x2 = Polynomial.gens(R)
    q = x0**3000 * x1 - 2 * x2**5
    d = 2 * x0 - x1 + 5 * x2**2
    assert divide_exact(q * d, d) == q
    with pytest.raises(DivisibilityError):
        divide_exact(q * d + x1, d)
    assert made[0] == 16 and 32 in made


# -- keys beyond the narrow fields --------------------------------------------


@pytest.mark.parametrize("big", [2**40, 2**70])
def test_huge_exponents(big):
    """Exponents past any fixed field width: fields widen, keys never wrap."""
    x0, x1, x2 = Polynomial.gens(R)
    f = x0**big - x1
    g = x1**2 - 3 * x2
    gb = buchberger([f, g])
    assert set(gb.generators) == {f, g}
    assert normal_form(x0**big * x1 + x2, gb) == 4 * x2
    assert is_member(x0**big * x1 - 3 * x2, gb)
    assert not is_member(x0**big * x2 - x1, gb)
    assert divide_exact(f * (x0**big + x2), f) == x0**big + x2
    with pytest.raises(DivisibilityError):
        divide_exact(f * (x0**big + x2) + 1, f)


def test_keys_outgrowing_fields_mid_reduction():
    """Under an elimination order the remainder's degree can grow far past
    the input's."""
    x0, x1, x2 = Polynomial.gens(R)
    order = Block(3, (0, 1))
    gens = [x0 - x1**5000, x1 - x2**3]
    gb = buchberger(gens, order)
    want = x2 ** (3 * 5000 * 3)
    assert normal_form(x0**3, gb) == want
    elems, lead = _elems(gens, order)
    terms = _to_internal(x0**3, order)
    assert _reduce(terms, elems, lead, order) == reference_reduce(terms, elems, order)


def test_cached_basis_whose_tail_outgrows_its_lead_fields():
    """A lead that packs in 16-bit fields over a tail that does not.

    Every call on the cached basis widens to 32 bits after the 16-bit
    lead packed and the tail overflowed; the cached lead must stay the
    one of the packing its tail was built for, call after call.
    """
    x0, x1, x2 = Polynomial.gens(R)
    order = Block(3, (0, 1))
    gens = [x0 - x2**9000]
    gb = buchberger(gens, order)
    want = x1 * x2**9000
    elems, _ = _elems(gens, order)
    terms = _to_internal(x0 * x1, order)
    ref = reference_reduce(terms, elems, order)
    for _ in range(3):
        assert normal_form(x0 * x1, gb) == want
        assert is_member(x0 * x1 - want, gb)
        assert not is_member(x0 * x1, gb)
        assert _reduce(terms, gb._elems, gb._lead, order) == ref


def test_widened_buchberger_charges_its_pairs_once(monkeypatch):
    """A run restarted with wider fields gets back the pairs it spent."""
    from jonq import groebner

    widths = []
    run = groebner._buchberger_packed

    def spy(inputs, order, budget, packing, hilbert=None):
        widths.append(packing.bits)
        return run(inputs, order, budget, packing, hilbert)

    monkeypatch.setattr(groebner, "_buchberger_packed", spy)
    x0, x1, x2 = Polynomial.gens(R)
    gens = [x0**2 * x1 - x2**5000, x0 * x1**2 - x2**3]
    budget = groebner.Budget(max_pairs=4)
    gb = buchberger(gens, Block(3, (0, 1)), budget)
    assert widths == [16, 32]
    assert budget.pairs_used == 4
    assert all(is_member(g, gb) for g in gens)


def test_widened_pruned_elimination_charges_its_pairs_once(monkeypatch):
    """A Hilbert-pruned Rees elimination that outgrows 16-bit fields after
    charging pairs starts over with the budget it found, and charges only
    the pairs of its 32-bit run."""
    from jonq import groebner, rees

    runs = []
    run = groebner._buchberger_packed

    def spy(inputs, order, budget, packing, hilbert=None):
        runs.append([packing.bits, hilbert is not None, budget.pairs_used])
        try:
            return run(inputs, order, budget, packing, hilbert)
        finally:
            runs[-1].append(budget.pairs_used)

    monkeypatch.setattr(groebner, "_buchberger_packed", spy)
    x0, x1, x2 = Polynomial.gens(R)
    gens = [x0**1000 * x2, x1**1001, x2**1001]
    budget = groebner.Budget(max_pairs=8)
    pruned = rees.eliminate_rees_parameter(gens, ("y0", "y1", "y2"), budget)
    # the 16-bit run charged pairs before it overflowed; they were given back
    assert [r[:2] for r in runs] == [[16, True], [32, True]]
    assert runs[0][3] > runs[0][2] == 0
    assert runs[1][2] == 0 and runs[1][3] == budget.pairs_used == 8
    monkeypatch.setattr(groebner, "_buchberger_packed", run)
    monkeypatch.setattr(
        rees, "eliminate", lambda I, drop, budget=None, hilbert=None: groebner.eliminate(I, drop, budget)
    )
    plain = rees.eliminate_rees_parameter(gens, ("y0", "y1", "y2"))
    assert pruned.gens == plain.gens
