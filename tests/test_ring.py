from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jonq.errors import DivisibilityError, ParseError, StructuralError
from jonq.groebner import buchberger, normal_form
from jonq.ring import (
    Polynomial,
    VariableSet,
    divide_exact,
    monomials_of_degree,
    parse_polynomial,
    poly_gcd,
    random_form,
    substitute_all,
)

R = VariableSet(["x0", "x1", "x2"])


def p(text):
    return parse_polynomial(text, R)


# -- deterministic random polynomials for property tests ----------------------


def poly_strategy(max_terms=4, max_deg=3):
    mono = st.tuples(*(st.integers(0, max_deg) for _ in range(3)))
    coeff = st.integers(-5, 5)
    return st.lists(st.tuples(mono, coeff), max_size=max_terms).map(
        lambda items: Polynomial(
            R, {m: c for m, c in items if c}
        )
    )


class TestArith:
    def test_difference_of_squares(self):
        assert p("x0 + x1") * p("x0 - x1") == p("x0^2 - x1^2")

    def test_absorbing_zero(self):
        q = p("3*x0^2*x1 - x2")
        assert (q * Polynomial.zero(R)).is_zero()

    def test_monomial_product(self):
        assert p("x0*x1") * p("x0*x2") == p("x0^2*x1*x2")

    def test_mixed_ring_rejected(self):
        other = VariableSet(["z0", "z1"])
        with pytest.raises(StructuralError):
            p("x0") + Polynomial.variable(other, "z0")

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


class TestSubstitute:
    def test_involution_coordinate(self):
        inv = [p("x1*x2"), p("x0*x2"), p("x0*x1")]
        assert p("x1*x2").substitute(inv) == p("x0^2*x1*x2")

    def test_identity_images(self):
        q = p("x0^2*x1 - x2^3")
        assert q.substitute(Polynomial.gens(R)) == q

    def test_zero_images(self):
        z = Polynomial.zero(R)
        assert p("x0 + x1").substitute([z, z, p("x2")]).is_zero()

    def test_image_count_mismatch(self):
        with pytest.raises(StructuralError):
            p("x0").substitute([p("x0"), p("x1")])

    @settings(max_examples=25, deadline=None)
    @given(poly_strategy(max_terms=3, max_deg=2), poly_strategy(max_terms=3, max_deg=2))
    def test_substitution_is_a_homomorphism(self, a, b):
        images = [p("x1*x2"), p("x0*x2"), p("x0*x1")]
        assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)
        assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)


def reference_substitute(poly, images):
    """Term-by-term expansion through `*` and `+`: how `substitute` ran
    before it packed the images, kept as the reference."""
    target = images[0].ring
    if poly.is_zero():
        return Polynomial.zero(target)
    power_cache = [dict() for _ in images]
    one = Polynomial.constant(target, 1)

    def power(i, e):
        cache = power_cache[i]
        got = cache.get(e)
        if got is not None:
            return got
        if e == 0:
            q = one
        elif e == 1:
            q = images[i]
        else:
            q = power(i, e // 2)
            q = q * q
            if e & 1:
                q = q * images[i]
        cache[e] = q
        return q

    acc = Polynomial.zero(target)
    for mono, c in sorted(poly.items()):
        piece = Polynomial.constant(target, c)
        for i, e in enumerate(mono):
            if e:
                piece = piece * power(i, e)
        acc = acc + piece
    return acc


Y2 = VariableSet(["y0", "y1"])
Z4 = VariableSet(["z0", "z1", "z2", "z3"])
_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
_rationals = st.one_of(st.integers(-4, 4).filter(bool), _fracs)


def rational_polys(ring, max_terms=4, max_deg=3):
    mono = st.tuples(*(st.integers(0, max_deg) for _ in range(len(ring))))
    return st.dictionaries(mono, _rationals, max_size=max_terms).map(
        lambda terms: Polynomial(ring, terms)
    )


def images_over(ring):
    """Image lists over `ring`: general, zero and constant images mixed."""
    one = st.one_of(
        rational_polys(ring, max_terms=3, max_deg=2),
        st.just(Polynomial.zero(ring)),
        _rationals.map(lambda c: Polynomial.constant(ring, c)),
    )
    return st.lists(one, min_size=3, max_size=3)


def assert_same_expansion(got, want):
    assert str(got) == str(want)
    assert got.terms() == want.terms()
    assert {m: type(c) for m, c in got.items()} == {m: type(c) for m, c in want.items()}


class TestPackedSubstitute:
    @settings(max_examples=80, deadline=None)
    @given(rational_polys(R), st.sampled_from([R, Y2, Z4]).flatmap(images_over))
    def test_matches_term_by_term_expansion(self, poly, images):
        assert_same_expansion(poly.substitute(images), reference_substitute(poly, images))

    @settings(max_examples=40, deadline=None)
    @given(rational_polys(R, max_terms=3), rational_polys(Y2, max_terms=3, max_deg=2))
    def test_expansion_that_cancels_to_zero(self, q, image):
        # q(x0, x1, x2) - q(x1, x0, x2) vanishes once x0 and x1 share an image
        swapped = Polynomial(R, {(b, a, c): v for (a, b, c), v in q.items()})
        images = [image, image, Polynomial.variable(Y2, "y1")]
        got = (q - swapped).substitute(images)
        assert got.is_zero()
        assert_same_expansion(got, reference_substitute(q - swapped, images))

    def test_cancelling_images(self):
        images = [p("x0 + x1"), p("x0 + x1"), p("1/2*x2")]
        poly = p("x0^2 - 2*x0*x1 + x1^2 + 4*x2^2")
        assert poly.substitute(images) == p("x2^2")
        assert_same_expansion(poly.substitute(images), reference_substitute(poly, images))

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(*(st.integers(0, 700) for _ in range(3))), _rationals, max_size=3
        ).map(lambda terms: Polynomial(R, terms)),
        st.lists(
            st.tuples(st.tuples(st.integers(0, 120), st.integers(0, 120)), _rationals),
            min_size=3,
            max_size=3,
        ),
    )
    def test_wide_fields(self, poly, monos):
        # exponents up to 700 * 240 need fields of 18 bits
        images = [Polynomial.monomial(Y2, m, c) for m, c in monos]
        assert_same_expansion(poly.substitute(images), reference_substitute(poly, images))

    def test_wide_binomial_images(self):
        images = [p("x0^300 - x1^300"), p("x2^200"), p("2/3*x1")]
        poly = p("x0^3*x1^40 - 1/2*x1^2*x2 + x2")
        assert_same_expansion(poly.substitute(images), reference_substitute(poly, images))


def naive_substitute(poly, images):
    """The expansion of `poly` at `images` as {exponent tuple: Fraction},
    term by term and power by power, with no packed keys."""
    n = len(images[0].ring)

    def times(a, b):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(u + v for u, v in zip(ma, mb))
                out[m] = out.get(m, Fraction(0)) + Fraction(ca) * cb
        return {m: c for m, c in out.items() if c}

    acc = {}
    for mono, c in poly.items():
        piece = {(0,) * n: Fraction(c)}
        for i, e in enumerate(mono):
            for _ in range(e):
                piece = times(piece, dict(images[i].items()))
        for m, v in piece.items():
            acc[m] = acc.get(m, Fraction(0)) + v
    return {m: c for m, c in acc.items() if c}


def one_image(ring):
    """A zero, constant, one-term (any coefficient) or multi-term image."""
    mono = st.tuples(*(st.integers(0, 2) for _ in range(len(ring))))
    return st.one_of(
        st.just(Polynomial.zero(ring)),
        _rationals.map(lambda c: Polynomial.constant(ring, c)),
        st.tuples(mono, _rationals).map(lambda mc: Polynomial.monomial(ring, *mc)),
        st.dictionaries(mono, _rationals, min_size=2, max_size=3).map(
            lambda terms: Polynomial(ring, terms)
        ),
    )


@st.composite
def batches(draw, size=4):
    """`size` polynomials over R drawn from one pool of monomials, so that
    they share monomials; any of them may be zero."""
    mono = st.tuples(*(st.integers(0, 3) for _ in range(3)))
    pool = st.sampled_from(draw(st.lists(mono, min_size=1, max_size=5)))
    return [
        Polynomial(R, {m: draw(_rationals) for m in draw(st.lists(pool, max_size=4))})
        for _ in range(size)
    ]


class TestBatchSubstitute:
    """`substitute_all` against an expansion that uses no packed keys."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        batches(),
        st.sampled_from([R, Y2, Z4]).flatmap(
            lambda ring: st.lists(one_image(ring), min_size=3, max_size=3)
        ),
    )
    def test_matches_the_naive_expansion(self, polys, images):
        got = substitute_all(polys, images)
        assert len(got) == len(polys)
        for poly, q in zip(polys, got):
            want = naive_substitute(poly, images)
            assert q.ring == images[0].ring
            assert q.terms() == want
            assert_clean(q)
            assert_same_expansion(q, poly.substitute(images))

    def test_each_kind_of_image(self):
        images = [p("-2/3*x1^2"), Polynomial.constant(R, Fraction(5, 2)), p("x0 - x2")]
        polys = [p("x0^2*x1*x2^2 - 3*x0*x2"), Polynomial.zero(R), p("x0^2*x1 + x2^2 + 7")]
        got = substitute_all(polys, images)
        for poly, q in zip(polys, got):
            assert q.terms() == naive_substitute(poly, images)
        assert got[1].is_zero()
        assert str(got[2]) == "10/9*x1^4 + x0^2 - 2*x0*x2 + x2^2 + 7"

    def test_zero_image_kills_its_terms(self):
        images = [Polynomial.zero(R), p("x1 + x2"), p("2*x0")]
        got = substitute_all([p("x0*x1 + x1^2*x2"), p("x0^3")], images)
        assert got[0] == p("2*x0*x1^2 + 4*x0*x1*x2 + 2*x0*x2^2") and got[1].is_zero()

    def test_empty_batch_and_empty_polynomial(self):
        images = Polynomial.gens(R)
        assert substitute_all([], images) == []
        assert substitute_all([Polynomial.zero(R)], images) == [Polynomial.zero(R)]

    def test_image_count_mismatch(self):
        with pytest.raises(StructuralError):
            substitute_all([p("x0"), Polynomial.zero(Y2)], Polynomial.gens(R))


def assert_clean(q):
    """The invariant `Polynomial._clean` trusts its callers to keep."""
    n = len(q.ring)
    for mono, c in q.items():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (mono, c)
        assert len(mono) == n and all(type(e) is int and e >= 0 for e in mono)


class TestCleanProducers:
    def test_every_producer_keeps_the_invariant(self):
        half = p("1/2*x0 + 3/2*x1")
        gb = buchberger([p("x0^2 - x1"), p("x1*x2 - 2")])
        cases = {
            "+": half + p("1/2*x0 - 1/2*x1"),
            "+ scalar": half + Fraction(1, 2),
            "-": p("3/2*x0") - p("1/2*x0"),
            "neg": -half,
            "* scalar": p("1/2*x0") * 2,
            "scalar *": 2 * p("1/2*x0 - 5/2*x2"),
            "* Fraction scalar": p("2*x0 + 4*x1") * Fraction(1, 2),
            "* integral Fraction scalar": p("x0") * Fraction(4, 2),
            "/ scalar": p("3*x0 - 6*x1") / 3,
            "*": p("1/2*x0 + 1/3*x1") * p("2*x0 - 3*x1"),
            "**": p("1/2*x0 + 1/2*x1") ** 2,
            "divide_exact": divide_exact(p("1/2*x0^2 - 1/2*x1^2"), p("1/2*x0 - 1/2*x1")),
            "map_ring": half.map_ring(VariableSet(["w", "x0", "x1", "x2"])),
            "rename": half.rename(VariableSet(["a", "b", "c"])),
            "substitute": p("4*x0^2 + 1/3*x1").substitute([p("1/2*x1"), p("3*x2"), p("x0")]),
            "normal_form": normal_form(p("1/2*x0^2 + 3/2*x1 + 1/4*x1*x2"), gb),
            "canonical": p("-2/3*x0 + 4/3*x1").canonical(),
            "poly_gcd": poly_gcd(p("1/2*x0^2 - 1/2*x1^2"), p("3/2*x0 - 3/2*x1")),
        }
        for name, q in cases.items():
            assert not q.is_zero(), name
            assert_clean(q)
        assert cases["+"] == p("x0 + x1") and type(cases["+"].coefficient_of((1, 0, 0))) is int
        assert str(cases["* integral Fraction scalar"]) == "2*x0"
        assert str(cases["normal_form"]) == "2*x1 + 1/2"

    @settings(max_examples=60, deadline=None)
    @given(rational_polys(R), rational_polys(R), _rationals)
    def test_arithmetic_keeps_the_invariant(self, a, b, c):
        wide = VariableSet(["w", "x0", "x1", "x2"])
        renamed = a.rename(Y2.extended("y2"))
        for q in (a + b, a - b, -a, a * c, c * a, a * b, a.map_ring(wide), renamed):
            assert_clean(q)
        if not b.is_zero():
            assert_clean(divide_exact(a * b, b))
            assert divide_exact(a * b, b) == a

    def test_public_constructor_still_checks(self):
        with pytest.raises(StructuralError):
            Polynomial(R, {(1, 0): 1})
        with pytest.raises(StructuralError):
            Polynomial(R, {(1, -1, 0): 1})
        with pytest.raises(StructuralError):
            Polynomial(R, {(1, 0, 0): 1.5})
        q = Polynomial(R, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): 0})
        assert q.terms() == {(1, 0, 0): 2} and type(q.coefficient_of((1, 0, 0))) is int


class TestGcdDivision:
    def test_common_monomial(self):
        assert poly_gcd(p("x0*x1"), p("x0*x2")) == p("x0")

    def test_explicit_factorization(self):
        assert poly_gcd(p("x0^2 - x1^2"), p("x0 - x1")) == p("x0 - x1")

    def test_gcd_with_zero(self):
        q = p("-2*x0^2 + 4*x1^2")
        assert poly_gcd(q, Polynomial.zero(R)) == q.canonical()
        assert poly_gcd(Polynomial.zero(R), q) == q.canonical()

    def test_divide_exact(self):
        assert divide_exact(p("x0^2 - x1^2"), p("x0 - x1")) == p("x0 + x1")
        q = p("7*x0^3 - x1*x2^2")
        assert divide_exact(q, Polynomial.constant(R, 1)) == q

    def test_divide_exact_constructed_product(self):
        a = p("x0^3*x2")
        b = p("x0 + x2")
        assert divide_exact(a * b, b) == a

    def test_divide_not_exact(self):
        with pytest.raises(DivisibilityError):
            divide_exact(p("x0^2 + x1"), p("x0 + x1"))

    @settings(max_examples=20, deadline=None)
    @given(
        poly_strategy(max_terms=3, max_deg=2),
        poly_strategy(max_terms=3, max_deg=2),
        poly_strategy(max_terms=2, max_deg=2),
    )
    def test_gcd_divides_and_scales(self, a, b, r):
        g = poly_gcd(a, b)
        if not g.is_zero():
            divide_exact(a, g)
            divide_exact(b, g)
        if not (a.is_zero() and b.is_zero()) and not r.is_zero():
            lhs = poly_gcd(a * r, b * r)
            rhs = (poly_gcd(a, b) * r).canonical()
            assert lhs == rhs


class TestDegrees:
    def test_homogeneous(self):
        q = p("x0^2*x1*x2")
        assert q.total_degree() == 4 and q.is_homogeneous()

    def test_inhomogeneous(self):
        assert not p("x0^2 + x1").is_homogeneous()

    def test_bigraded_split(self):
        big = VariableSet(["x0", "x1", "x2", "x3", "y0"])
        q = parse_polynomial("y0*x0^3*x3", big)
        assert q.degree_in((0, 1, 2, 3)) == 4 and q.degree_in((4,)) == 1
        assert q.is_bihomogeneous((0, 1, 2, 3))
        assert Polynomial.zero(big).is_bihomogeneous((0, 1, 2, 3))
        # homogeneous of total degree 4, but of x-degrees 4 and 3
        assert not parse_polynomial("x0^4 + y0*x0^3", big).is_bihomogeneous((0, 1, 2, 3))

    def test_product_of_forms_is_form(self):
        a = random_form(R, 2, 5)
        b = random_form(R, 3, 6)
        ab = a * b
        assert ab.is_homogeneous() and ab.total_degree() == 5

    def test_substitution_degree_multiplies(self):
        a = random_form(R, 2, 9)
        images = [p("x1*x2"), p("x0*x2"), p("x0*x1")]
        out = a.substitute(images)
        assert out.is_homogeneous() and out.total_degree() == 4


class TestRandomForm:
    def test_degree_zero(self):
        q = random_form(R, 0, 3)
        assert q.is_constant() and not q.is_zero()

    def test_full_support_linear(self):
        q = random_form(R, 1, 12)
        assert len(q.terms()) == 3

    def test_deterministic(self):
        assert random_form(R, 3, 77) == random_form(R, 3, 77)

    def test_all_monomials_present(self):
        q = random_form(R, 2, 4)
        assert len(q.terms()) == len(list(monomials_of_degree(3, 2)))


class TestTextGrammar:
    def test_round_trip(self):
        cases = [
            "x0^2*x1 - x2^3",
            "-x0*x2 + x1",
            "2/3*x0^2 - 5*x1*x2 + 7",
            "x0",
            "0",
        ]
        for text in cases:
            q = parse_polynomial(text, R)
            assert parse_polynomial(str(q), R) == q

    def test_whitespace_ignored(self):
        assert parse_polynomial("x0   +\tx1", R) == p("x0 + x1")

    def test_coefficient_fraction(self):
        q = parse_polynomial("1/2*x0", R)
        assert q.coefficient_of((1, 0, 0)) == Fraction(1, 2)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_polynomial("x0 + w", R)

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse_polynomial("x0^", R)

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_polynomial("   ", R)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/0*x0", R)


class TestCanonical:
    def test_canonical_strips_content_and_sign(self):
        q = p("-2*x0^2 + 4*x1^2")
        assert q.canonical() == p("x0^2 - 2*x1^2")

    def test_canonical_clears_denominators(self):
        q = p("1/2*x0 - 1/3*x1")
        assert q.canonical() == p("3*x0 - 2*x1")

    def test_proportional(self):
        assert p("2*x0 - 2*x1").proportional_to(p("-3*x0 + 3*x1"))
        assert not p("x0").proportional_to(p("x1"))
