"""`poly_gcd`: three exact fast paths in front of gcd by elimination.

`poly_gcd` first maps both integer-primitive inputs onto a fixed line mod
the prime 2^61 - 1; a constant gcd of the images proves the inputs coprime.
Next, an input that divides the other is the gcd.  Next, the same
certificate on the inputs divided by their monomial contents proves the
gcd the least common monomial factor.  Only then does it divide a*b by
the lcm, the generator of (a) meet (b) that `groebner.intersect` finds
by one elimination.  `reference` is that elimination alone, and
`test_construction_oracle` checks the gcd without any gcd routine.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from jonq import groebner
from jonq.groebner import IdealHandle, intersect
from jonq.ring import (
    Polynomial,
    VariableSet,
    _coprime_on_line,
    divide_exact,
    parse_polynomial,
    poly_gcd,
    random_form,
)

R = VariableSet(["x0", "x1", "x2"])

_monos = st.tuples(*(st.integers(0, 3) for _ in range(3)))
_ints = st.integers(-5, 5).filter(bool)
_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def _polys(coeffs, max_terms=4):
    return st.dictionaries(_monos, coeffs, min_size=1, max_size=max_terms).map(
        lambda terms: Polynomial(R, terms)
    )


polys = _polys(_ints)
rational_polys = _polys(st.one_of(_ints, _fracs))
homogeneous = st.builds(random_form, st.just(R), st.integers(1, 3), st.integers(0, 1 << 20))


def reference(p, q):
    """gcd by elimination alone: a*b / lcm(a, b), with (lcm) = (a) meet (b);
    no certificate, no divisor test."""
    a, b = p.canonical(), q.canonical()
    (lcm,) = intersect(IdealHandle.of(a), IdealHandle.of(b)).gens
    return divide_exact(a * b, lcm).canonical()


@settings(max_examples=150, deadline=None)
@given(st.one_of(polys, rational_polys, homogeneous), st.one_of(polys, rational_polys, homogeneous))
def test_matches_prs(a, b):
    assert poly_gcd(a, b) == reference(a, b)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(polys, homogeneous),
    st.one_of(rational_polys, homogeneous),
    st.one_of(polys, homogeneous),
)
def test_common_factor_matches_prs(h, u, v):
    a, b = h * u, h * v
    got = poly_gcd(a, b)
    assert got == reference(a, b)
    if not h.is_constant():
        assert not _coprime_on_line(a.canonical(), b.canonical())
        assert got.total_degree() >= h.total_degree()


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(polys, rational_polys, homogeneous),
    st.one_of(polys, rational_polys, homogeneous),
    st.one_of(polys, rational_polys, homogeneous),
)
def test_construction_oracle(h, u, v):
    # the certificate proves gcd(u, v) = 1, so gcd(h*u, h*v) = h up to a unit
    assume(_coprime_on_line(u.canonical(), v.canonical()))
    assert poly_gcd(h * u, h * v) == h.canonical()


def test_declines_when_lead_vanishes_mod_p():
    # a_top(direction) = P + 1 - 1 = P: the image of a loses its degree mod P
    P = (1 << 61) - 1
    a = parse_polynomial(f"{P + 1}*x0 - x1 + x2", R)
    b = parse_polynomial("x0^2 + x2^2", R)
    point, direction = (3, 5, 7), (1, 1, 0)
    assert not _coprime_on_line(a, b, point, direction)
    assert _coprime_on_line(a, b, point, (1, 2, 0))
    assert poly_gcd(a, b) == Polynomial.constant(R, 1)


def test_certifies_constant_and_rational_inputs():
    one = Polynomial.constant(R, 1)
    assert poly_gcd(Polynomial.constant(R, Fraction(-3, 2)), parse_polynomial("x0", R)) == one
    a = parse_polynomial("1/2*x0^2 - 1/3*x1*x2 + 1", R)
    b = parse_polynomial("2/5*x1^3 + x0", R)
    assert _coprime_on_line(a.canonical(), b.canonical())
    assert poly_gcd(a, b) == one


def _count_intersect_calls(mp):
    calls = []
    mp.setattr(groebner, "intersect", lambda *args: calls.append(args) or intersect(*args))
    return calls


def test_dense_coprime_forms_skip_prs(monkeypatch):
    calls = _count_intersect_calls(monkeypatch)
    coprime = 0
    for seed in range(12):
        a = random_form(R, 3 + seed % 2, 2 * seed)
        b = random_form(R, 4 - seed % 2, 2 * seed + 1)
        if poly_gcd(a, b).is_constant():
            coprime += 1
    assert coprime == 12
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(polys, rational_polys, homogeneous),
    st.one_of(polys, rational_polys, homogeneous),
    st.sampled_from([1, -1, -3, Fraction(-2, 3)]),
)
def test_divisor_fast_path_matches_prs(a, b, unit):
    a = a * unit  # lead coefficients of either sign
    ab = a * b
    for x, y in ((a, ab), (ab, a), (a, a)):
        want = reference(x, y)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_intersect_calls(mp)
            assert poly_gcd(x, y) == want
        if not a.is_constant():
            assert calls == [], "an exact divisor must skip the elimination"


@pytest.mark.parametrize(
    "a, b, gcd, eliminations",
    [
        # (x0 + x1) * (x0 + x2) and (x0 + x1) * (x1 + x2)
        ("x0^2 + x0*x2 + x0*x1 + x1*x2", "x0*x1 + x0*x2 + x1^2 + x1*x2", "x0 + x1", 1),
        # the shape of a composite's coordinates sharing a factor: the
        # monomial contents settle it
        ("x1*x2", "x0*x2", "x2", 0),
    ],
    ids=["linear_factor", "common_variable"],
)
def test_same_degree_pair_without_divisor_runs_prs(a, b, gcd, eliminations):
    a, b = parse_polynomial(a, R), parse_polynomial(b, R)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_intersect_calls(mp)
        assert poly_gcd(a, b) == parse_polynomial(gcd, R)
    want = [((a.canonical(),), (b.canonical(),))] * eliminations
    assert [(I.gens, J.gens) for I, J in calls] == want
    assert poly_gcd(-a, b) == reference(a, b)


def _strip(p):
    """p divided by its monomial content: the largest monomial dividing it."""
    content = [min(m[i] for m in p.terms()) for i in range(len(p.ring))]
    return Polynomial(p.ring, {tuple(e - c for e, c in zip(m, content)): v for m, v in p.items()})


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(polys, homogeneous),
    st.one_of(polys, rational_polys, homogeneous),
    _monos,
    _monos,
)
def test_monomial_content_certificate_matches_prs(u, v, alpha, beta):
    # gcd(x^alpha u, x^beta v) is a monomial once the parts free of monomial
    # content are coprime, and no elimination runs for it
    assume(any(alpha) or any(beta))
    a = u * Polynomial.monomial(R, alpha)
    b = v * Polynomial.monomial(R, beta)
    assume(_coprime_on_line(_strip(a).canonical(), _strip(b).canonical()))
    want = reference(a, b)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_intersect_calls(mp)
        got = poly_gcd(a, b)
    assert got == want
    assert len(got) == 1
    assert calls == []


def test_stripped_parts_sharing_a_factor_run_one_elimination():
    # y0^2*y2*y3^2 * (y2 + y3) against y1 * (y2 + y3) * (y0 + y1): the parts
    # free of monomial content share y2 + y3, so the certificate declines
    Y = VariableSet(["y0", "y1", "y2", "y3"])
    a = parse_polynomial("y0^2*y2^2*y3^2 + y0^2*y2*y3^3", Y)
    b = parse_polynomial("y0*y1*y2 + y0*y1*y3 + y1^2*y2 + y1^2*y3", Y)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_intersect_calls(mp)
        got = poly_gcd(a, b)
    assert got == parse_polynomial("y2 + y3", Y)
    assert len(calls) == 1
    assert got == reference(a, b)
