import importlib
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from jonq.birational import RationalMapData, verify_cremona
from jonq.cli import main
from jonq.errors import HypothesisViolation
from jonq.fixtures import fixture_path
from jonq.groebner import IdealHandle, eliminate
from jonq.implicitize import (
    JonquieresData,
    eulerian_equation,
    implicitize,
    inclusion_case_equivalence,
    nzd_case,
    oracle_implicitize,
    predicted_degree,
    syzygetic_polynomials,
    verify_inverse_representative,
)
from jonq.instance import InstanceFile
from jonq.ring import (
    Polynomial,
    VariableSet,
    exact_quotient,
    monomials_of_degree,
    parse_polynomial,
    poly_gcd,
    random_form,
)
from jonq.syzygies import conductor_data


def yp(P, text):
    return parse_polynomial(text, P.monoid_ring)


class TestBuildValidation:
    def test_degree_relation_enforced(self, involution, R3):
        with pytest.raises(HypothesisViolation):
            JonquieresData.build(
                involution,
                parse_polynomial("x0", R3),
                parse_polynomial("x0^4", R3),
            )

    def test_coprimality_enforced(self, involution, R3):
        with pytest.raises(HypothesisViolation):
            JonquieresData.build(
                involution,
                parse_polynomial("x0", R3),
                parse_polynomial("x0*x1^2", R3),
            )


class TestMonoidCase:
    def test_identity_closed_form(self, identity2, R3):
        f = parse_polynomial("x0 + 2*x1", R3)
        g = parse_polynomial("x0^2 + 3*x1*x2 - x2^2", R3)
        P = JonquieresData.build(identity2, f, g)
        mon = implicitize(P)
        assert mon.F == yp(P, "y0^2 + 3*y1*y2 - y2^2 - y0*y3 - 2*y1*y3")
        assert mon.delta == f.total_degree() + 1
        assert mon.stripped_gcd == 1

    def test_identity_inverse_representative(self, identity2, R3):
        P = JonquieresData.build(
            identity2,
            parse_polynomial("x0 + 2*x1", R3),
            parse_polynomial("x0^2 + 3*x1*x2 - x2^2", R3),
        )
        assert verify_inverse_representative(P, implicitize(P))

    def test_identity_oracle_agreement(self, identity2, R3):
        f = parse_polynomial("x0 - x2", R3)
        g = parse_polynomial("x1^2 - 5*x0*x2", R3)
        P = JonquieresData.build(identity2, f, g)
        mon = implicitize(P)
        orc = oracle_implicitize(list(P.coordinates()), P.monoid_ring)
        assert orc.proportional_to(mon.F)


class TestSpaceExample:
    def test_quadric_and_factor(self, space_instance):
        mon = implicitize(space_instance)
        assert mon.delta == 2
        data = conductor_data(space_instance.base_ideal_I(), space_instance.g)
        assert data.kind == "inclusion"
        syz = syzygetic_polynomials(space_instance, mon, data)
        assert len(syz) == 1
        # the unique syzygetic polynomial is -y3 * F
        y3 = Polynomial.variable(space_instance.monoid_ring, "y3")
        assert syz[0].polynomial.proportional_to(y3 * mon.F)
        assert syz[0].extraneous_factor.proportional_to(y3)

    def test_degree_formula(self, space_instance):
        mon = implicitize(space_instance)
        rep = predicted_degree(space_instance, mon)
        assert rep.via_deg_g == 4 * 2 - rep.stripped_gcd_degree == 2
        assert rep.deg_F == rep.via_deg_g == rep.via_deg_f == 2

    def test_oracle_agreement(self, space_instance):
        mon = implicitize(space_instance)
        orc = oracle_implicitize(
            list(space_instance.coordinates()), space_instance.monoid_ring
        )
        assert orc.proportional_to(mon.F)

    def test_inverse_representative(self, space_instance):
        mon = implicitize(space_instance)
        assert verify_inverse_representative(space_instance, mon)

    def test_corrupted_inverse_fails(self, space_instance):
        from dataclasses import replace

        cre = space_instance.cremona
        bad_coords = list(cre.inverse.coords)
        bad_coords[1] = bad_coords[1] + parse_polynomial(
            "y0*y1", cre.target
        )
        bad_inverse = RationalMapData(cre.target, cre.source, tuple(bad_coords))
        bad_cre = replace(cre, inverse=bad_inverse)
        P = replace(space_instance, cremona=bad_cre)
        mon = implicitize(space_instance)
        assert not verify_inverse_representative(P, mon)

    def test_planted_wrong_representative_prints_fails(self, monkeypatch, capsys):
        # the inverse is corrupted after `verify_cremona` accepted it
        from dataclasses import replace

        build = InstanceFile.jonquieres

        def planted(self):
            P = build(self)
            cre = P.cremona
            bad = list(cre.inverse.coords)
            bad[1] = bad[1] + parse_polynomial("y0*y1", cre.target)
            inverse = RationalMapData(cre.target, cre.source, tuple(bad))
            return replace(P, cremona=replace(cre, inverse=inverse))

        monkeypatch.setattr(InstanceFile, "jonquieres", planted)
        code = main(["implicitize", fixture_path("space"), "--machine"])
        assert "inverse_representative = fails" in capsys.readouterr().out.splitlines()
        assert code == 1

    def test_divides_one_column_of_minors(self, space_instance, monkeypatch):
        # y_{n+1} does not divide F, so only the n+1 minors M_{i,n+1} are divided
        divided = _count_minor_divisions(monkeypatch)
        assert verify_inverse_representative(space_instance, implicitize(space_instance))
        assert len(divided) == len(space_instance.monoid_ring) - 1


def _count_minor_divisions(monkeypatch):
    """The minors `verify_inverse_representative` divides by F, as a list."""
    calls = []
    monkeypatch.setattr(
        importlib.import_module("jonq.implicitize"),
        "exact_quotient",
        lambda p, d: calls.append(p) or exact_quotient(p, d),
    )
    return calls


class TestAllMinors:
    """A hand-built monoid whose F every variable divides: no y_k is a
    nonzerodivisor modulo (F), so every 2x2 minor is divided by F.

    The coordinates over the identity Cremona map of P^2 are x_i * h_i(x)
    and 0, so the minors are M_ij = y_i y_j (h_i - h_j) for i, j <= 2 and
    M_i3 = y_i h_i y_3, and F = y0*y1*y2*y3.
    """

    Y = VariableSet(["y0", "y1", "y2", "y3"])

    def _verdict(self, identity2, R3, factors, monkeypatch):
        xs = Polynomial.gens(R3)
        coords = [x * parse_polynomial(h, R3) for x, h in zip(xs, factors)]
        coords.append(Polynomial.zero(R3))
        P = SimpleNamespace(cremona=identity2, monoid_ring=self.Y, coordinates=lambda: coords)
        monoid = SimpleNamespace(F=parse_polynomial("y0*y1*y2*y3", self.Y))
        divided = _count_minor_divisions(monkeypatch)
        return verify_inverse_representative(P, monoid), divided

    def test_every_minor_in_F(self, identity2, R3, monkeypatch):
        # h_i = x0*x1*x2: M_ij = 0 and M_i3 = y0*y1*y2*y3*y_i
        verdict, divided = self._verdict(identity2, R3, ["x0*x1*x2"] * 3, monkeypatch)
        assert verdict
        assert len(divided) == 6

    def test_minor_outside_F(self, identity2, R3, monkeypatch):
        # h = (x1*x2, x0*x2, 2*x0*x1): every M_i3 is in (F), but M_01 =
        # y0*y1*y2*(y1 - y0) is not, which the column of y3 alone misses
        verdict, _ = self._verdict(identity2, R3, ["x1*x2", "x0*x2", "2*x0*x1"], monkeypatch)
        assert not verdict


class TestPlaneExample:
    def test_degree_and_gcd(self, plane_instance):
        mon = implicitize(plane_instance)
        assert mon.delta == 4
        assert mon.stripped_gcd.total_degree() == 2
        rep = predicted_degree(plane_instance, mon)
        assert rep.deg_F == rep.via_deg_g == rep.via_deg_f == 4
        assert rep.upper_bound == 6
        assert rep.evaluations_coprime
        assert rep.window == (3, 6) and rep.window_holds

    def test_case_general(self, plane_instance):
        tag = conductor_data(plane_instance.base_ideal_I(), plane_instance.g)
        assert tag.kind == "general"
        assert set(map(str, tag.ideal.gens)) == {"x0", "x1"}

    def test_two_syzygetic_polynomials(self, plane_instance):
        mon = implicitize(plane_instance)
        data = conductor_data(plane_instance.base_ideal_I(), plane_instance.g)
        syz = syzygetic_polynomials(plane_instance, mon, data)
        assert len(syz) == 2
        for s in syz:
            assert s.polynomial.total_degree() == 5
            assert s.extraneous_factor.total_degree() == 1

    def test_formula_vs_oracle(self, plane_instance):
        mon = implicitize(plane_instance)
        orc = oracle_implicitize(
            list(plane_instance.coordinates()), plane_instance.monoid_ring
        )
        assert orc.proportional_to(mon.F)


class TestClassification:
    def test_nzd_detected(self, nzd_instance):
        data = conductor_data(nzd_instance.base_ideal_I(), nzd_instance.g)
        assert data.kind == "non_zero_divisor"

    def test_nzd_equivalence_all_true(self, nzd_instance):
        mon = implicitize(nzd_instance)
        data = conductor_data(nzd_instance.base_ideal_I(), nzd_instance.g)
        rep = nzd_case(nzd_instance, mon, data)
        assert rep.agree
        assert rep.principal_match and rep.coprime_gcd and rep.degree_match
        assert rep.degree_bound_holds

    def test_nzd_degree_value(self, nzd_instance, involution):
        mon = implicitize(nzd_instance)
        want = (
            nzd_instance.f.total_degree() * involution.inverse_degree
            + involution.target_factor.total_degree()
            + 1
        )
        assert mon.delta == want  # 1*2 + 3 + 1 = 6

    def test_nzd_refuses_general_case(self, plane_instance):
        with pytest.raises(HypothesisViolation):
            nzd_case(
                plane_instance,
                implicitize(plane_instance),
                conductor_data(plane_instance.base_ideal_I(), plane_instance.g),
            )

    def test_randomized_nzd_equivalences(self, involution, R3):
        rng = random.Random(77)
        done = 0
        while done < 6:
            f = random_form(R3, 1, rng.randrange(1 << 30))
            g = random_form(R3, 3, rng.randrange(1 << 30))
            if not poly_gcd(f, g).is_constant():
                continue
            P = JonquieresData.build(involution, f, g)
            data = conductor_data(P.base_ideal_I(), P.g)
            if data.kind != "non_zero_divisor":
                continue
            rep = nzd_case(P, implicitize(P), data)
            assert rep.agree
            done += 1


def _inclusion(P):
    """`inclusion_case_equivalence` on the syzygetic polynomials `cmd_implicitize` builds."""
    mon = implicitize(P)
    data = conductor_data(P.base_ideal_I(), P.g)
    return inclusion_case_equivalence(P, mon, data, syzygetic_polynomials(P, mon, data))


class TestInclusionEquivalence:
    def test_identity_both_sides_true(self, identity2, R3):
        P = JonquieresData.build(
            identity2,
            parse_polynomial("x0 + x1", R3),
            parse_polynomial("x1^2 + x0*x2", R3),
        )
        rep = _inclusion(P)
        assert rep.applicable and rep.side_inclusion and rep.equivalent

    def test_space_example(self, space_instance):
        rep = _inclusion(space_instance)
        # the engine computes which branch applies; on this fixture the
        # evaluations share no factor, so the biconditional is asserted
        if rep.applicable:
            assert rep.equivalent
        else:
            assert rep.side_inclusion is None

    def test_randomized_inclusion_general_f(self, involution, R3):
        rng = random.Random(4242)
        done = 0
        while done < 4:
            f = random_form(R3, 1, rng.randrange(1 << 30))
            a = random_form(R3, 1, rng.randrange(1 << 30))
            g = a * next(iter(involution.forward.coords))  # in I by construction
            if not poly_gcd(f, g).is_constant():
                continue
            P = JonquieresData.build(involution, f, g)
            rep = _inclusion(P)
            if not rep.applicable:
                continue
            assert rep.side_inclusion is True
            assert rep.equivalent
            done += 1


class TestEulerian:
    def test_triangle_cubic(self, R3):
        # g = x0*x1*x2 is homaloidal; its polar map is the involution
        Y = VariableSet(["y0", "y1", "y2"])
        g = parse_polynomial("x0*x1*x2", R3)
        grad_inverse = RationalMapData(
            Y, R3, tuple(parse_polynomial(t, Y) for t in ("y1*y2", "y0*y2", "y0*y1"))
        )
        lam = (1, 2, 3)
        mon = eulerian_equation(g, grad_inverse, lam)
        # cross-check against the de Jonquieres route
        fwd = RationalMapData(
            R3, Y, tuple(g.derivative(n) for n in R3.names)
        )
        cre = verify_cremona(fwd, grad_inverse)
        f = parse_polynomial("x0 + 2*x1 + 3*x2", R3)
        P = JonquieresData.build(cre, f, g)
        direct = implicitize(P)
        assert mon.F.proportional_to(direct.F)
        assert mon.delta == grad_inverse.degree + 1

    def test_conic_single_lambda(self, R3):
        # conic homaloidal: gradient map is linear, lambda = e_0 is allowed
        Y = VariableSet(["y0", "y1", "y2"])
        g = parse_polynomial("x0^2 + x1*x2", R3)
        grad_inverse = RationalMapData(
            Y, R3, tuple(parse_polynomial(t, Y) for t in ("y0", "2*y2", "2*y1"))
        )
        mon = eulerian_equation(g, grad_inverse, (1, 0, 0))
        fwd = RationalMapData(R3, Y, tuple(g.derivative(n) for n in R3.names))
        cre = verify_cremona(fwd, grad_inverse)
        P = JonquieresData.build(cre, parse_polynomial("x0", R3), g)
        assert mon.F.proportional_to(implicitize(P).F)
        assert mon.delta == grad_inverse.degree + 1

    def test_wrong_inverse_rejected(self, R3):
        Y = VariableSet(["y0", "y1", "y2"])
        g = parse_polynomial("x0*x1*x2", R3)
        bad = RationalMapData(
            Y, R3, tuple(parse_polynomial(t, Y) for t in ("y0^2", "y0*y2", "y0*y1"))
        )
        with pytest.raises(HypothesisViolation):
            eulerian_equation(g, bad, (1, 2, 3))


class TestOracle:
    def test_conic(self):
        R2 = VariableSet(["x0", "x1"])
        coords = [
            parse_polynomial(t, R2) for t in ("x0^2", "x0*x1", "x1^2")
        ]
        F = oracle_implicitize(coords)
        Y = VariableSet(["y0", "y1", "y2"])
        assert F.proportional_to(parse_polynomial("y0*y2 - y1^2", Y))

    def test_not_hypersurface(self):
        # an image of codimension >= 2 (here: a single point of P^2)
        R2 = VariableSet(["x0", "x1"])
        coords = [
            parse_polynomial(t, R2) for t in ("x0^2", "2*x0^2", "3*x0^2")
        ]
        with pytest.raises(HypothesisViolation):
            oracle_implicitize(coords)

    @pytest.mark.parametrize(
        "texts, want",
        [
            (("x0^2", "x1^2", "0"), "y2"),
            (("x0^2", "0", "x0*x1"), "y1"),
            (("x0^2 - x1^2", "0", "0"), None),
            (("0", "0", "x0^2"), None),
        ],
    )
    def test_zero_coordinates(self, texts, want):
        # a zero coordinate contributes y_i itself to the elimination
        R2 = VariableSet(["x0", "x1"])
        coords = [parse_polynomial(t, R2) for t in texts]
        Y = VariableSet(["y0", "y1", "y2"])
        if want is None:
            with pytest.raises(HypothesisViolation, match=r"not principal \(2 generators\)"):
                oracle_implicitize(coords)
        else:
            assert oracle_implicitize(coords) == parse_polynomial(want, Y)
        assert _outcome(oracle_implicitize, coords) == _outcome(_graph_oracle, coords)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_the_graph_elimination(self, data):
        coords = data.draw(equal_degree_tuples())
        got = _outcome(oracle_implicitize, coords)
        assert got == _outcome(_graph_oracle, coords)
        if got[0] == "F":
            assert got[1].substitute(coords).is_zero()


def _graph_oracle(coords, target_ring=None):
    """The graph elimination: every source variable from (y_i - coord_i)."""
    ring = coords[0].ring
    target_ring = target_ring or VariableSet([f"y{i}" for i in range(len(coords))])
    big = ring.union(target_ring)
    gens = [
        Polynomial.variable(big, nm) - c.map_ring(big)
        for nm, c in zip(target_ring.names, coords)
    ]
    gb = eliminate(IdealHandle(big, gens), ring.names).gb()
    if len(gb.generators) != 1:
        raise HypothesisViolation(
            "the image is not a hypersurface: elimination ideal is not "
            f"principal ({len(gb.generators)} generators)"
        )
    return gb.generators[0].canonical()


def _outcome(oracle, coords):
    try:
        return ("F", oracle(coords))
    except HypothesisViolation as exc:
        return ("raises", str(exc))


@st.composite
def equal_degree_tuples(draw):
    """n+2 forms of one degree (up to 3, resp. 2) over n+1 = 2 or 3 variables.

    Each coordinate is zero (one draw in six) or a form in the first `used`
    variables (all of them three times in four) with seeded coefficients
    in [-3, 3], so images of lower dimension (no hypersurface) are drawn
    too.
    """
    nvars = draw(st.sampled_from((2, 3)))
    ring = VariableSet([f"x{i}" for i in range(nvars)])
    degree = draw(st.sampled_from((2, 1, 3) if nvars == 2 else (2, 1)))
    used = draw(st.sampled_from((nvars,) * 3 + tuple(range(1, nvars))))
    zero = draw(st.lists(st.integers(0, 5), min_size=nvars + 1, max_size=nvars + 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    monos = [m for m in monomials_of_degree(nvars, degree) if not any(m[used:])]
    coords = [
        Polynomial(ring, {m: rng.randint(-3, 3) for m in monos} if z else {})
        for z in zero
    ]
    if all(c.is_zero() for c in coords):
        coords[0] = Polynomial.monomial(ring, monos[0], 1)
    return coords


class TestHypotheses:
    def test_vanishing_evaluation_reported(self, involution, R3):
        # f = x0*x1... cannot even be built coprime; craft f(g') = 0 case:
        # no nonzero form evaluates to zero under an invertible substitution,
        # so exercise the zero-g path through a direct call
        P = JonquieresData.build(
            involution,
            parse_polynomial("x0 + x1 + x2", R3),
            parse_polynomial("x0^2*x1 - x2^3", R3),
        )
        mon = implicitize(P)
        assert mon.F.degree_in((P.monoid_ring.index("y3"),)) == 1
