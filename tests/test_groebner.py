import itertools
import random
from operator import add, ge, mul
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from jonq import groebner
from jonq.errors import BudgetExceeded, HypothesisViolation, MembershipError, StructuralError
from jonq.groebner import (
    Budget,
    IdealHandle,
    buchberger,
    colon,
    colon_ideal,
    dim_and_codim,
    eliminate,
    graded_piece_dim,
    hilbert_numerator,
    ideal_equal,
    intersect,
    multiply_ideal,
    normal_form,
    saturate,
    saturate_by_variables,
)
from jonq.orders import Block, DegRevLex
from jonq.rees import rees_ideal
from jonq.ring import (
    Polynomial,
    VariableSet,
    count_monomials,
    monomials_of_degree,
    parse_polynomial,
    poly_gcd,
    random_form,
)
from jonq.syzygies import _minimal_columns, lift

R = VariableSet(["x0", "x1", "x2"])


def p(text, ring=R):
    return parse_polynomial(text, ring)


def ideal(*texts, ring=R):
    return IdealHandle(ring, tuple(p(t, ring) for t in texts))


class TestBuchberger:
    def test_monomial_ideal(self):
        gb = buchberger([p("x0"), p("x1")])
        assert set(map(str, gb)) == {"x0", "x1"}

    def test_linear_triangularization(self):
        gb = buchberger([p("x0 - x1"), p("x1 - x2")], Block(3, (0, 1)))
        assert set(map(str, gb)) == {"x0 - x2", "x1 - x2"}

    def test_involution_already_a_basis(self):
        gens = [p("x0*x1"), p("x0*x2"), p("x1*x2")]
        gb = buchberger(gens)
        assert set(gb.generators) == set(gens)

    def test_reduced_basis_unique_across_presentations(self):
        a = [p("x0^2 - x1*x2"), p("x0*x1 - x2^2")]
        b = [a[0] + a[1], a[1], a[0] + 3 * a[1]]
        assert buchberger(a).generators == buchberger(b).generators

    def test_deterministic(self):
        gens = [p("x0^2*x1 - x2^3"), p("x0*x2 - x1^2"), p("x1^3 - x0^2*x2")]
        assert buchberger(gens).generators == buchberger(list(gens)).generators

    def test_pair_budget(self):
        gens = [p("x0^2*x1 - x2^3"), p("x0*x2 - x1^2"), p("x1^3 - x0^2*x2")]
        with pytest.raises(BudgetExceeded):
            buchberger(gens, budget=Budget(max_pairs=1))


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        I = ideal("x0*x1", "x0*x2", "x1*x2")
        assert normal_form(p("x0^2*x1"), I.gb()).is_zero()

    def test_one_survives_proper_ideal(self):
        I = ideal("x0*x1", "x0*x2", "x1*x2")
        assert normal_form(p("1"), I.gb()) == p("1")

    def test_space_example_membership(self, space_instance):
        I = space_instance.base_ideal_I()
        assert normal_form(space_instance.g, I.gb()).is_zero()

    def test_idempotent(self):
        I = ideal("x0^2 - x1*x2", "x1^2 - x0*x2")
        q = p("x0^3 + x1^3 + x2^3 + x0*x1*x2")
        r = normal_form(q, I.gb())
        assert normal_form(r, I.gb()) == r

    def test_exact_value_preserved(self):
        I = ideal("x0")
        q = p("1/2*x1 + 3*x0")
        assert normal_form(q, I.gb()) == p("1/2*x1")


class TestColonIntersect:
    def test_plane_conductor(self):
        I = ideal("x0*x1", "x0*x2", "x1*x2")
        C = colon(I, p("x0^2*x1 - x2^3"))
        assert set(map(str, C.gens)) == {"x0", "x1"}

    def test_colon_member_gives_unit(self):
        I = ideal("x0*x1", "x0*x2", "x1*x2")
        assert colon(I, p("x0*x1")).gb().contains_unit()

    def test_colon_by_unit(self):
        I = ideal("x0*x1", "x0*x2")
        C = colon(I, p("5"))
        assert ideal_equal(C, I)

    def test_intersect_principal(self):
        got = intersect(ideal("x0"), ideal("x1"))
        assert set(map(str, got.gens)) == {"x0*x1"}

    def test_intersect_idempotent(self):
        I = ideal("x0*x1", "x1*x2")
        assert ideal_equal(intersect(I, I), I)

    def test_intersect_two_points(self):
        got = intersect(ideal("x0", "x1"), ideal("x0", "x2"))
        assert ideal_equal(got, ideal("x0", "x1*x2"))

    def test_colon_consistency(self):
        I = ideal("x0^2", "x1*x2")
        g = p("x0 + x1")
        C = colon(I, g)
        for c in C.gens:
            assert I.contains(c * g)


class TestSaturate:
    def test_strip_embedded_component(self):
        S, exps = saturate(ideal("x0^2", "x0*x1"), ideal("x0", "x1"))
        assert ideal_equal(S, ideal("x0"))
        assert len(exps) == 2

    def test_saturate_by_unit(self):
        I = ideal("x0*x1", "x1*x2")
        S, exps = saturate(I, IdealHandle.of(p("3")))
        assert ideal_equal(S, I)
        assert exps == [0]

    def test_already_saturated(self):
        I = ideal("x0*x1", "x0*x2", "x1*x2")
        m = ideal("x0", "x1", "x2")
        S, exps = saturate(I, m)
        assert ideal_equal(S, I)
        # stability is colon by the whole ideal (per-variable colons of the
        # three-point ideal are strictly larger, e.g. I:(x0) = (x1, x2))
        assert ideal_equal(colon_ideal(S, m), S)

    def test_chain_cap(self):
        big = ideal("x0^9")
        with pytest.raises(BudgetExceeded):
            saturate(big, ideal("x0"), Budget(sat_cap=3))

    def test_cap_boundary(self):
        # I : x0^inf = (x1, x2), and x0^k * (x1, x2) lies in I from k = 3 on
        def run(budget):
            return saturate(ideal("x0^3*x1", "x0^2*x2"), ideal("x0"), budget)

        S, exps = run(Budget(sat_cap=4))
        assert exps == [3] and ideal_equal(S, ideal("x1", "x2"))
        assert run(Budget(sat_cap=5))[1] == [3]
        for cap in range(4):
            budget = Budget(sat_cap=cap)
            with pytest.raises(BudgetExceeded):
                run(budget)
            if cap == 0:
                assert budget.pairs_used == 0

    @pytest.mark.parametrize("by_variables", [False, True])
    def test_matches_colon_chain(self, by_variables):
        rng = random.Random(4041 + by_variables)
        seen = []
        for _ in range(6):
            forms = [
                random_form(R, rng.choice((1, 2)), rng.randrange(1 << 30)) for _ in range(3)
            ]
            if by_variables:  # (f0, f1) times powers of the variables
                J = ideal("x0", "x1", "x2")
                gens = [f * x ** rng.randint(0, 2) for f in forms[:2] for x in Polynomial.gens(R)]
            else:
                J = IdealHandle.of(forms[2])
                gens = [f * forms[2] ** rng.randint(0, 3) for f in forms[:2]]
            S, exps = saturate(IdealHandle(R, tuple(gens)), J)
            want, want_exps = _colon_chain_saturate(IdealHandle(R, tuple(gens)), J)
            assert exps == want_exps
            assert S.gb().generators == want.gb().generators
            seen.append((exps, S.gb().contains_unit()))
        assert sum(any(exps) and not unit for exps, unit in seen) >= 3


def _colon_chain_saturate(I, J):
    """The colon-chain saturation: iterate I : b until the ideal stops growing."""
    pieces = []
    exponents = []
    for b in J.gens:
        K = IdealHandle(I.ring, I.gens)
        k = 0
        while True:
            K2 = colon(K, b)
            if ideal_equal(K2, K):
                break
            K = K2
            k += 1
        pieces.append(K)
        exponents.append(k)
    result = pieces[0]
    for piece in pieces[1:]:
        result = intersect(result, piece)
    return result, exponents


def _points_ideal(ring, points):
    """The ideal of finitely many points of projective space."""
    xs = Polynomial.gens(ring)
    out = None
    for point in points:
        r = next(i for i, c in enumerate(point) if c)
        linear = IdealHandle(ring, [point[r] * x - c * xs[r] for x, c in zip(xs, point)])
        out = linear if out is None else intersect(out, linear)
    return out


def _first_nonvanishing(n, points):
    """The first form in the order of `saturate_by_variables` that vanishes
    at none of the points."""
    for coeffs in groebner._linear_forms(n):
        if all(sum(map(mul, coeffs, pt)) for pt in points):
            return coeffs


def _unit(n, i, c=1):
    return tuple(c if k == i else 0 for k in range(n))


KINDS = ("last", "variable", "pair", "sum", "l2", "primary", "embedded")


@st.composite
def ideals_of_dimension_at_most_one(draw, kind, times_m=None):
    """(generators, points of V(I)) of a homogeneous ideal with dim <= 1.

    The kinds make each kind of candidate win: the last variable, another
    variable, a pair x_i + x_j, the sum of the variables and l_2 = sum
    2^k x_k.  "primary" is an m-primary ideal; "embedded", and any other
    kind half the time, is an ideal of points times m, which has an
    embedded m-primary component.  `times_m` fixes the power of m the
    ideal of points is multiplied by instead.
    """
    n = draw(st.sampled_from((3, 4)))
    ring = VariableSet([f"x{i}" for i in range(n)])
    xs = Polynomial.gens(ring)
    scale = st.sampled_from((1, 2, 3, -1, -2, -3))
    if kind == "primary":
        gens = [x ** draw(st.integers(1, 3)) for x in xs]
        gens.append(random_form(ring, 2, draw(st.integers(0, 1 << 30))))
        return gens, []
    count = draw(st.integers(1, 2))
    if kind in ("last", "embedded"):
        points = [tuple(draw(scale) for _ in range(n)) for _ in range(count)]
    elif kind == "variable":  # on x_n = 0 only
        points = [tuple(draw(scale) for _ in range(n - 1)) + (0,) for _ in range(count)]
    elif kind == "pair":  # e_0 and e_1: every variable vanishes at one, x_0 + x_1 at none
        points = [_unit(n, 0, draw(scale)), _unit(n, 1, draw(scale))]
    elif kind == "sum":  # every coordinate point: so does every pair
        points = [_unit(n, i, draw(scale)) for i in range(n)]
    else:  # e_i - e_j: every variable, pair and the sum vanishes at one, l_2 at none
        points = []
        for i, j in itertools.combinations(range(n), 2):
            c = draw(scale)
            points.append(tuple(map(add, _unit(n, i, c), _unit(n, j, -c))))
    gens = list(_points_ideal(ring, points).gens)
    if times_m is None:
        times_m = int(kind == "embedded" or draw(st.booleans()))
    for _ in range(times_m):
        gens = list(dict.fromkeys(g * x for g in gens for x in xs))
    return gens, points


class TestSaturateByVariables:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_saturation_by_the_maximal_ideal(self, kind, data):
        gens, points = data.draw(ideals_of_dimension_at_most_one(kind))
        ring = gens[0].ring
        n = len(ring)
        won = []
        forms = groebner._linear_forms

        def recording(nvars):
            for coeffs in forms(nvars):
                won[:] = [coeffs]
                yield coeffs

        with mock.patch.object(groebner, "_linear_forms", recording):
            got = saturate_by_variables(IdealHandle(ring, gens))
        runs = []

        def counting(*args, **kwargs):
            runs.append(args)
            return core(*args, **kwargs)

        core = groebner._buchberger_core
        with mock.patch.object(groebner, "_buchberger_core", counting):
            basis = got.gb()
        assert runs == []  # the winner hands on its basis, whichever form won
        want, _ = saturate(IdealHandle(ring, gens), IdealHandle(ring, Polynomial.gens(ring)))
        assert basis.generators == want.gb().generators
        expected = {
            "variable": _unit(n, n - 2),
            "pair": (1, 1) + (0,) * (n - 2),
            "sum": (1,) * n,
            "l2": tuple(2**k for k in range(n)),
        }.get(kind, _unit(n, n - 1))
        assert won == [expected]
        if kind == "primary":
            assert got.gb().contains_unit()
        else:
            assert _first_nonvanishing(n, points) == expected

    def test_dimension_two_raises(self):
        with pytest.raises(HypothesisViolation):
            saturate_by_variables(ideal("x0^2", "x0*x1"))

    def test_zero_cap_raises_before_any_buchberger_run(self):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return core(*args, **kwargs)

        core = groebner._buchberger_core
        budget = Budget(sat_cap=0)
        with mock.patch.object(groebner, "_buchberger_core", counting):
            with pytest.raises(BudgetExceeded):
                saturate_by_variables(ideal("x0*x2^2", "x1*x2^2", "x0^2", "x0*x1", "x1^2"), budget)
        assert calls == [] and budget.pairs_used == 0

    @pytest.mark.parametrize(
        "gens, sat",
        [
            # V(I) = (0:0:1): x2 wins, and x2^2 is the largest power it divides out
            (("x0*x2^2", "x1*x2^2", "x0^2", "x0*x1", "x1^2"), ("x0", "x1")),
            # V(I) = (1:0:0): x2 and x1 vanish there, x0 wins with exponent 2
            (("x2*x0^2", "x1*x0^2", "x2^2", "x2*x1", "x1^2"), ("x1", "x2")),
        ],
    )
    def test_cap_boundary_is_the_exponent_of_the_form(self, gens, sat):
        with pytest.raises(BudgetExceeded):
            saturate_by_variables(ideal(*gens), Budget(sat_cap=2))
        got = saturate_by_variables(ideal(*gens), Budget(sat_cap=3))
        assert got.gb().generators == ideal(*sat).gb().generators


def _first_certified(gens):
    """The first candidate form l with dim R/(I + (l)) = 0, by the Hilbert numerator."""
    ring = gens[0].ring
    xs = Polynomial.gens(ring)
    for coeffs in groebner._linear_forms(len(ring)):
        form = sum((x * c for x, c in zip(xs, coeffs) if c), Polynomial.zero(ring))
        if dim_and_codim(IdealHandle(ring, [*gens, form]))[0] == 0:
            return form


def _spy(calls, owner, name):
    """Patch `owner.name` to record its positional arguments in `calls`."""
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append((name, args))
        return real(*args, **kwargs)

    return mock.patch.object(owner, name, recording)


class TestSaturationCertificates:
    """The nonzerodivisor and coordinate-point certificates of `saturate_by_variables`."""

    @pytest.mark.parametrize(
        "kind, times_m",
        [(k, t) for k in ("last", "variable", "pair", "sum", "l2") for t in (0, 1, 2)]
        + [("variable", 3), ("pair", 3), ("primary", None)],
    )
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_agrees_with_saturation_by_the_maximal_ideal(self, kind, times_m, data):
        # times_m = 0: a saturated ideal of points; k > 0: the same times m^k,
        # saturated by the winner l with exponent k; "pair" and "sum" pass
        # through coordinate points, and "primary" saturates to the unit ideal
        gens, _ = data.draw(ideals_of_dimension_at_most_one(kind, times_m))
        ring = gens[0].ring
        m = IdealHandle(ring, Polynomial.gens(ring))
        want = saturate(IdealHandle(ring, gens), m)[0].gb().generators
        assert saturate_by_variables(IdealHandle(ring, gens)).gb().generators == want
        form = _first_certified(gens)
        _, (k,) = saturate(IdealHandle(ring, gens), IdealHandle.of(form))
        if times_m is not None:
            assert k == times_m
        for cap in (1, 2, 3):
            try:
                saturate_by_variables(IdealHandle(ring, gens), Budget(sat_cap=cap))
                raised = False
            except BudgetExceeded:
                raised = True
            assert raised == (k >= cap)  # the exponent of the winner, as `saturate` finds it

    def test_a_saturated_ideal_takes_no_elimination(self):
        # V(I) = (1:1:0), (1:2:0): x2 vanishes there, x1 wins and is a nonzerodivisor
        gens = _points_ideal(R, [(1, 1, 0), (1, 2, 0)]).gens
        calls = []
        with _spy(calls, groebner, "saturate"), _spy(calls, groebner, "eliminate"):
            with _spy(calls, Polynomial, "substitute"):
                got = saturate_by_variables(IdealHandle(R, gens))
        x0, x1, x2 = Polynomial.gens(R)
        assert calls and all(
            name == "substitute" and args[1] == [x0, x1 - x1, x2] for name, args in calls
        )
        assert got.gb().generators == buchberger(gens).generators

    def test_candidates_through_a_coordinate_point_are_skipped(self):
        # V(I) = e0, e1, e2: each variable and each pair vanishes at one, the sum wins
        I = ideal("x1*x2", "x0*x2", "x0*x1")
        I.gb()
        calls = []
        with _spy(calls, Polynomial, "substitute"), _spy(calls, groebner, "buchberger"):
            got = saturate_by_variables(I)
        x0, x1, x2 = Polynomial.gens(R)
        images = [x0, x1, x2 - (x0 + x1 + x2)]
        subs = [args for name, args in calls if name == "substitute"]
        assert len(subs) == 3 and all(args[1] == images for args in subs)
        assert [name for name, _ in calls].count("buchberger") == 1
        assert got is I  # three reduced points: the sum is a nonzerodivisor

    def test_coordinate_points_with_a_zero_generator_and_mixed_degrees(self):
        gens = [p("x0^2 + x1*x2"), Polynomial.zero(R), p("x2^3 - x0*x1*x2")]
        assert groebner._coordinate_points(gens, 3) == {1}
        assert groebner._coordinate_points([Polynomial.zero(R)], 3) == {0, 1, 2}
        assert groebner._coordinate_points([p("x0^3 + x1^3 + x2^3")], 3) == set()
        # e1 lies on V(I), so x2 is never tried: x1 wins, with x1 = 0 as its cut
        calls = []
        with _spy(calls, Polynomial, "substitute"):
            got = saturate_by_variables(IdealHandle(R, gens))
        x0, x1, x2 = Polynomial.gens(R)
        assert [args[1] for _, args in calls] == [[x0, x1 - x1, x2]] * 2
        want = saturate(IdealHandle(R, gens), IdealHandle(R, [x0, x1, x2]))[0]
        assert got.gb().generators == want.gb().generators


class TestSeededBases:
    """Eliminations hand on the t-free part of their basis as a degrevlex basis."""

    def assert_seeded(self, handle):
        (cached,) = handle._cache
        assert cached.generators == buchberger(handle.gens, ring=handle.ring).generators
        assert handle.gb() is cached

    def test_eliminate(self):
        big = VariableSet(["x0", "x1", "y0", "y1", "y2"])
        gens = [p(t, big) for t in ("y0 - x0^2", "y1 - x0*x1", "y2 - x1^2 + x0")]
        self.assert_seeded(eliminate(IdealHandle(big, gens), ("x0", "x1")))
        self.assert_seeded(eliminate(IdealHandle(big, gens), ("x1",)))

    def test_intersect_and_saturate(self):
        I = ideal("x0^2*x1 - x2^3", "x0*x2^2")
        self.assert_seeded(intersect(I, ideal("x1 + x2", "x0^2")))
        self.assert_seeded(saturate(I, ideal("x2"))[0])
        self.assert_seeded(saturate(I, ideal("x0", "x1", "x2"))[0])

    def test_saturate_by_the_last_variable(self):
        I = ideal("x0*x2^2 + x1^3", "x1*x2^2", "x0^2 - x0*x1", "x0*x1", "x1^2 + x0*x2")
        self.assert_seeded(saturate_by_variables(I))

    def test_rees_ideal(self):
        pres = rees_ideal([p("x1*x2"), p("x0*x2"), p("x0*x1")])
        assert pres.ideal.gens == pres.generators
        self.assert_seeded(pres.ideal)

    def test_only_a_degrevlex_basis_is_cached(self):
        I = ideal("x0^2*x1 - x2^3", "x0*x2^2")
        block = buchberger(I.gens, Block(3, (0,)), ring=I.ring)
        with pytest.raises(StructuralError):
            IdealHandle.of_basis(block)
        assert IdealHandle.of_basis(I.gb()).gb() is I.gb()


class TestEliminate:
    def test_veronese_conic(self):
        big = VariableSet(["x0", "x1", "y0", "y1", "y2"])
        gens = [p(t, big) for t in ("y0 - x0^2", "y1 - x0*x1", "y2 - x1^2")]
        E = eliminate(IdealHandle(big, gens), ("x0", "x1"))
        assert len(E.gens) == 1
        small = VariableSet(["y0", "y1", "y2"])
        assert E.gens[0].proportional_to(p("y0*y2 - y1^2", small))

    def test_empty_drop(self):
        I = ideal("x0*x1")
        assert eliminate(I, ()) is I

    def test_identity_jonquieres_principal(self):
        # identity-Cremona graph ideal eliminates to g(y) - f(y)*y3
        big = VariableSet(["x0", "x1", "x2", "y0", "y1", "y2", "y3"])
        f = p("x0 + 2*x2", big)
        g = p("x0^2 - x1*x2", big)
        coords = [f * p("x0", big), f * p("x1", big), f * p("x2", big), g]
        gens = [p(f"y{i}", big) - c for i, c in enumerate(coords)]
        E = eliminate(IdealHandle(big, gens), ("x0", "x1", "x2"))
        small = E.ring
        want = p("y0^2 - y1*y2 - y0*y3 - 2*y2*y3", small)
        assert len(E.gens) == 1
        assert E.gens[0].proportional_to(want)


class TestLift:
    def test_monomial_lift(self):
        h = lift(p("x0^2*x1"), [p("x0*x1"), p("x0*x2"), p("x1*x2")])
        total = sum(
            (a * b for a, b in zip(h, [p("x0*x1"), p("x0*x2"), p("x1*x2")])),
            Polynomial.zero(R),
        )
        assert total == p("x0^2*x1")

    def test_zero_lift(self):
        h = lift(Polynomial.zero(R), [p("x0"), p("x1")])
        assert all(q.is_zero() for q in h)

    def test_homogeneous_lift_degrees(self):
        gens = [p("x0*x1"), p("x0*x2"), p("x1*x2")]
        target = p("x0") * p("x0^2*x1 - x2^3")
        h = lift(target, gens)
        total = Polynomial.zero(R)
        for a, b in zip(h, gens):
            if not a.is_zero():
                assert a.is_homogeneous() and a.total_degree() == 2
            total = total + a * b
        assert total == target

    def test_not_in_ideal(self):
        with pytest.raises(MembershipError):
            lift(p("x2^3"), [p("x0"), p("x1")])

    def test_rejects_input_that_is_not_a_form(self):
        with pytest.raises(StructuralError):
            lift(p("x0^2 + x1"), [p("x0"), p("x1")])
        with pytest.raises(StructuralError):
            lift(p("x0^2"), [p("x0 + 1"), p("x1")])


class TestDimension:
    def test_maximal_ideal(self):
        assert dim_and_codim(ideal("x0", "x1", "x2")) == (0, 3)

    def test_three_points(self):
        assert dim_and_codim(ideal("x0*x1", "x0*x2", "x1*x2")) == (1, 2)

    def test_zero_ideal(self):
        assert dim_and_codim(IdealHandle(R, ())) == (3, 0)

    def test_unit_ideal_errors(self):
        with pytest.raises(StructuralError):
            dim_and_codim(ideal("1"))


class TestGradedPieces:
    def test_principal_square(self):
        I = ideal("x0^2")
        assert graded_piece_dim(I, 1) == 0
        assert graded_piece_dim(I, 2) == 1
        assert graded_piece_dim(I, 3) == 3

    def test_unit_ideal_full(self):
        assert graded_piece_dim(ideal("1"), 2) == 6

    def test_involution_quadrics(self):
        assert graded_piece_dim(ideal("x0*x1", "x0*x2", "x1*x2"), 2) == 3

    def test_linear_algebra_oracle_agreement(self):
        # independent oracle: for homogeneous generators, I_mu is exactly
        # the span of the monomial multiples of the generators
        from jonq.linalg import SpanTracker

        I = ideal("x0^2 - x1*x2", "x1^3")
        for mu in range(7):
            basis = list(monomials_of_degree(3, mu))
            index = {m: i for i, m in enumerate(basis)}
            tracker = SpanTracker(len(basis))
            for g in I.gens:
                k = mu - g.total_degree()
                if k < 0:
                    continue
                for mono in monomials_of_degree(3, k):
                    prod = Polynomial.monomial(R, mono) * g
                    vec = [0] * len(basis)
                    for m, c in prod.items():
                        vec[index[m]] += c
                    tracker.add(dict(enumerate(vec)))
            assert graded_piece_dim(I, mu) == tracker.rank


def _standard_count(leads, n, mu):
    """Monomials of degree mu outside the monomial ideal of `leads`, one by one."""
    return sum(
        1 for m in monomials_of_degree(n, mu) if not any(all(map(ge, m, lm)) for lm in leads)
    )


def _dim_by_subsets(leads, n):
    """The largest size of a set of variables that holds no lead's support."""
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in leads]
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            if not any(sup <= set(subset) for sup in supports):
                return size
    return None  # the unit ideal


def _numerator_by_counting(leads, n):
    """(1-s)^n * sum_mu HF(mu) s^mu through the degree of lcm(leads), which bounds deg N."""
    top = sum(max((lm[i] for lm in leads), default=0) for i in range(n))
    series = [_standard_count(leads, n, mu) for mu in range(top + 1)]
    for _ in range(n):
        series = [c - (series[k - 1] if k else 0) for k, c in enumerate(series)]
    while series and not series[-1]:
        series.pop()
    return series


@st.composite
def small_homogeneous_ideals(draw):
    """Monomial ideals, or up to three sparse forms of degree <= 3, in 1-5 variables."""
    n = draw(st.integers(1, 5))
    ring = VariableSet([f"x{i}" for i in range(n)])
    if draw(st.booleans()):
        exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=5))
        return IdealHandle(ring, [Polynomial.monomial(ring, e) for e in exps])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = list(monomials_of_degree(n, draw(st.integers(1, 3))))
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
        gens.append(Polynomial(ring, {m: draw(coeffs) for m in support}))
    return IdealHandle(ring, gens)


class TestHilbertNumerator:
    """`hilbert_numerator` and its readers against standard-monomial counting."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(small_homogeneous_ideals())
    @example(IdealHandle(R, ()))
    @example(ideal("1"))
    def test_matches_enumeration_and_subset_search(self, I):
        n = len(I.ring)
        leads = [] if I.is_zero_ideal() else I.gb().lead_exponents()
        N = hilbert_numerator(I)
        assert N == _numerator_by_counting(leads, n)
        for mu in range(len(N) + 2):
            assert graded_piece_dim(I, mu) == count_monomials(n, mu) - _standard_count(
                leads, n, mu
            )
        dim = _dim_by_subsets(leads, n)
        if dim is None:
            assert N == []
            with pytest.raises(StructuralError):
                dim_and_codim(I)
        else:
            assert dim_and_codim(I) == (dim, n - dim)

    def test_three_coordinate_points(self):
        # 1 - 3s^2 + 2s^3 = (1-s)^2 (1 + 2s): codim 2, three points
        assert hilbert_numerator(ideal("x0*x1", "x0*x2", "x1*x2")) == [1, 0, -3, 2]


class TestColonTransferLaw:
    def test_colon_transfer_fixed(self):
        I = ideal("x0*x1", "x0*x2", "x1*x2")
        f = p("x0 + x1 + x2")
        g = p("x0^2*x1 - x2^3")
        lhs = colon(multiply_ideal(I, f), g)
        rhs = multiply_ideal(colon(I, g), f)
        assert ideal_equal(lhs, rhs)

    def test_colon_transfer_randomized(self):
        rng = random.Random(20240)
        done = 0
        while done < 12:
            gens = [
                random_form(R, rng.choice((1, 2)), rng.randrange(1 << 30))
                for _ in range(2)
            ]
            f = random_form(R, rng.choice((1, 2)), rng.randrange(1 << 30))
            g = random_form(R, rng.choice((1, 2)), rng.randrange(1 << 30))
            if not poly_gcd(f, g).is_constant():
                continue
            I = IdealHandle(R, gens)
            lhs = colon(multiply_ideal(I, f), g)
            rhs = multiply_ideal(colon(I, g), f)
            assert ideal_equal(lhs, rhs)
            done += 1


class TestMinimalize:
    def test_drops_redundant(self):
        gens = [p("x0"), p("x1"), p("x0^2"), p("x0*x1 + x1^2")]
        kept = _minimal_columns([(g.total_degree(), (g,)) for g in gens], (0,))
        assert [str(gens[j]) for j in kept] == ["x0", "x1"]

    def test_colon_ideal(self):
        A = ideal("x0*x1", "x0*x2")
        got = colon_ideal(A, ideal("x1", "x2"))
        assert ideal_equal(got, ideal("x0"))
