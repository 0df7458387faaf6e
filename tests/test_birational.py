import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jonq import birational
from jonq.birational import (
    RationalMapData,
    base_ideal,
    compose,
    projectively_equal,
    verify_cremona,
)
from jonq.errors import HypothesisViolation, StructuralError
from jonq.groebner import dim_and_codim
from jonq.ring import (
    Polynomial,
    VariableSet,
    divide_exact,
    monomials_of_degree,
    parse_polynomial,
    poly_gcd,
    random_form,
)


def test_identity_factors(identity2):
    assert identity2.target_factor == 1
    assert identity2.source_factor == 1


def test_involution_factors(involution, R3, Y3):
    assert involution.target_factor == parse_polynomial("y0*y1*y2", Y3)
    assert involution.source_factor == parse_polynomial("x0*x1*x2", R3)
    assert involution.degree * involution.inverse_degree == 4  # = deg(D)+1


def test_space_example_accepted(space_instance):
    cre = space_instance.cremona
    assert cre.target_factor.total_degree() == 5
    assert cre.source_factor.total_degree() == 5
    assert cre.degree == 3 and cre.inverse_degree == 2


def test_exact_inversion_identities(involution):
    D = involution.target_factor
    for i, g in enumerate(involution.forward.coords):
        lhs = g.substitute(list(involution.inverse.coords))
        yi = Polynomial.variable(involution.target, involution.target.names[i])
        assert lhs == yi * D
    C = involution.source_factor
    for i, h in enumerate(involution.inverse.coords):
        lhs = h.substitute(list(involution.forward.coords))
        xi = Polynomial.variable(involution.source, involution.source.names[i])
        assert lhs == xi * C


def test_symmetry_of_verification(involution, R3, Y3):
    swapped = verify_cremona(involution.inverse, involution.forward)
    assert swapped.target_factor == involution.source_factor
    assert swapped.source_factor == involution.target_factor


def test_not_mutually_inverse(R3, Y3):
    fwd = RationalMapData(
        R3, Y3, tuple(parse_polynomial(t, R3) for t in ("x1*x2", "x0*x2", "x0*x1"))
    )
    bad = RationalMapData(
        Y3, R3, tuple(parse_polynomial(t, Y3) for t in ("y1*y2", "y0*y2", "y0^2"))
    )
    with pytest.raises(HypothesisViolation):
        verify_cremona(fwd, bad)


@pytest.mark.parametrize(
    "coords",
    [("x0*x1", "x0*x2", "x0^2"), ("0", "x0*x2", "x0*x1")],
    ids=["nonzero", "zero_first"],
)
def test_common_factor_rejected(R3, Y3, coords):
    fwd = RationalMapData(R3, Y3, tuple(parse_polynomial(t, R3) for t in coords))
    inv = RationalMapData(
        Y3, R3, tuple(parse_polynomial(t, Y3) for t in ("y0", "y1", "y2"))
    )
    with pytest.raises(HypothesisViolation, match="common factor"):
        verify_cremona(fwd, inv)


class TestCompose:
    def test_compose_with_identity(self, involution, identity2):
        got = compose(identity2.forward, involution.forward)
        assert projectively_equal(list(got.coords), list(involution.forward.coords))

    def test_involution_squares_to_identity(self, involution):
        got = compose(involution.forward, involution.inverse).stripped()
        xs = Polynomial.gens(involution.source)
        assert projectively_equal(list(got.coords), xs)

    def test_without_strip_keeps_factor(self, involution):
        got = compose(involution.forward, involution.inverse)
        C = involution.source_factor
        xs = Polynomial.gens(involution.source)
        assert list(got.coords) == [x * C for x in xs]

    def test_arity_mismatch(self, involution, space_instance):
        with pytest.raises(StructuralError):
            compose(space_instance.cremona.forward, involution.forward)

    def test_associativity_projectively(self, involution):
        A = involution.forward
        B = involution.inverse
        left = compose(compose(A, B), A)
        right = compose(A, compose(B, A))
        assert projectively_equal(list(left.coords), list(right.coords))


def all_pairs_projectively_equal(coords_a, coords_b):
    """`projectively_equal` as it was: every 2x2 cross-product is formed."""
    if len(coords_a) != len(coords_b):
        return False
    n = len(coords_a)
    for i in range(n):
        for j in range(i + 1, n):
            if coords_a[i] * coords_b[j] != coords_a[j] * coords_b[i]:
                return False
    return any(not a.is_zero() for a in coords_a) and any(not b.is_zero() for b in coords_b)


def _seeded_tuple_pairs(seed):
    """Pairs of tuples over P^2: a tuple with some zero coordinates against
    a multiple of it, the multiple with one coordinate changed, and tuples
    of zeros."""
    rng = random.Random(seed)
    ring = VariableSet(["x0", "x1", "x2"])
    zero = Polynomial.zero(ring)

    def form(degree):
        return random_form(ring, degree, rng.randrange(1 << 30))

    n, deg = rng.randrange(1, 5), rng.randrange(0, 3)
    a = [zero if rng.random() < 0.3 else form(deg) for _ in range(n)]
    factor = form(rng.randrange(0, 2))
    multiple = [factor * c for c in a]
    changed = list(multiple)
    changed[rng.randrange(n)] = rng.choice([zero, form(deg)])
    zeros = [zero] * n
    return [(a, multiple), (a, changed), (a, zeros), (zeros, zeros), (a, a), (a, a[:-1])]


def test_pivot_matches_all_pairs():
    seen = set()
    for seed in range(60):
        for a, b in _seeded_tuple_pairs(seed):
            for x, y in ((a, b), (b, a)):
                want = all_pairs_projectively_equal(x, y)
                assert projectively_equal(x, y) == want, (seed, x, y)
                seen.add(want)
    assert seen == {True, False}


class TestBaseIdeal:
    def test_identity(self, identity2):
        I = base_ideal(identity2.forward)
        assert dim_and_codim(I) == (0, 3)

    def test_involution(self, involution):
        I = base_ideal(involution.forward)
        assert dim_and_codim(I) == (1, 2)

    def test_space_cubics(self, space_instance):
        # the base locus contains lines, so the ideal has codimension 2
        I = space_instance.base_ideal_I()
        assert dim_and_codim(I) == (2, 2)


X = VariableSet(["x0", "x1", "x2"])


def chained_coordinate_gcd(coords):
    """The coordinatewise gcd chain: gcd(...gcd(gcd(0, c_0), c_1)..., c_n),
    stopping at the first nonzero constant: when c_0 is zero, gcd(0, 0) = 0
    is constant but not yet the gcd."""
    g = Polynomial.zero(X)
    for c in coords:
        g = poly_gcd(g, c)
        if g.is_constant() and not g.is_zero():
            break
    return g


_big = st.builds(
    lambda sign, v: sign * v, st.sampled_from([1, -1]), st.integers(2**70 - 3, 2**70 + 3)
)
_coeffs = st.one_of(st.integers(-4, 4).filter(bool), _big)


def _forms(degree, min_size=0):
    monos = list(monomials_of_degree(len(X), degree))
    return st.dictionaries(st.sampled_from(monos), _coeffs, min_size=min_size, max_size=3).map(
        lambda terms: Polynomial(X, terms)
    )


@st.composite
def planted_coordinates(draw):
    """h * (q_0, ..., q_n) with a planted factor h of degree 0-2; the shape
    makes q_0 zero, or the weighted sum q_1 + 2*q_2 + ... + n*q_n zero."""
    h = draw(_forms(draw(st.integers(0, 2)), min_size=1))
    degree = draw(st.integers(0, 2))
    n = draw(st.integers(1, 4))
    qs = [draw(_forms(degree)) for _ in range(n + 1)]
    shape = draw(st.sampled_from(["free", "zero_first", "zero_sum"]))
    if shape == "zero_first":
        qs[0] = Polynomial.zero(X)
    elif shape == "zero_sum" and n >= 2:
        # n * sum_{k<n} k*q_k + n*(-sum_{k<n} k*q_k) = 0
        last = sum((q * k for k, q in enumerate(qs[1:n], 1)), Polynomial.zero(X))
        qs = [q * n for q in qs[:n]] + [-last]
    assume(any(not q.is_zero() for q in qs))
    return h, tuple(h * q for q in qs)


def _map(coords):
    return RationalMapData(X, VariableSet([f"y{i}" for i in range(len(coords))]), coords)


def _xs(*texts):
    return tuple(parse_polynomial(t, X) for t in texts)


class TestCoordinateGcd:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(planted_coordinates())
    @example((_xs("1")[0], _xs("x0", "2*x1", "-x1")))
    @example((_xs("x2")[0], _xs("x0*x2", "2*x1*x2", "-x1*x2")))
    @example((_xs("x1")[0], _xs("0", "x0*x1", "x1*x2")))
    @example((_xs("x0")[0], _xs("0", "x0", "-x0")))
    @example((_xs("x2")[0], _xs(f"{2**70}*x0*x2", f"{2**70 + 1}*x1*x2", "0")))
    def test_matches_the_chain(self, planted):
        h, coords = planted
        G = _map(coords)
        want = chained_coordinate_gcd(coords)
        assert G.coordinate_gcd() == want
        assert G.is_gcd_stripped() == want.is_constant()
        divide_exact(want, h)  # the planted factor divides the gcd

    def test_coprime_map_settled_by_one_gcd(self, monkeypatch):
        calls = []
        real = birational.poly_gcd
        monkeypatch.setattr(birational, "poly_gcd", lambda *a: calls.append(a) or real(*a))
        G = _map(_xs("x1*x2", "x0*x2", "x0*x1"))
        assert G.is_gcd_stripped()
        assert len(calls) == 1
