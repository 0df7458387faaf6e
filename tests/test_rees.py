import dataclasses
import hashlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from jonq import groebner, rees
from jonq.birational import RationalMapData, compose
from jonq.errors import BudgetExceeded, StructuralError
from jonq.fixtures import load_fixture
from jonq.groebner import (
    Budget,
    IdealHandle,
    dim_and_codim,
    hilbert_numerator,
    ideal_equal,
    saturate,
)
from jonq.implicitize import ImplicitMonoid, JonquieresData, implicitize
from jonq.rees import (
    downgrade,
    downgraded_rees_ideal,
    iterated_downgrades,
    monoid_association,
    rees_ideal,
    saturation_identities,
    x_framing,
)
from jonq.ring import Polynomial, VariableSet, monomials_of_degree, parse_polynomial, poly_gcd, random_form
from jonq.syzygies import conductor_data

R = VariableSet(["x0", "x1", "x2"])


def p(text, ring=R):
    return parse_polynomial(text, ring)


def kernel_contains(pres, carrier, h):
    """h maps to zero under x -> x, y_i -> t*carrier_i: membership in the
    Rees kernel of `carrier`, by substitution, independent of any basis."""
    return h.substitute(rees._kernel_images(pres.ambient, pres.y_names, carrier)).is_zero()


class TestReesIdeal:
    def test_koszul_complete_intersection(self):
        two = VariableSet(["x0", "x1"])
        pres = rees_ideal([p("x0", two), p("x1", two)])
        assert len(pres.generators) == 1
        amb = pres.ambient
        assert pres.generators[0].proportional_to(
            parse_polynomial("x1*y0 - x0*y1", amb)
        )

    def test_involution_rees(self, involution):
        carrier = list(involution.forward.coords)
        pres = rees_ideal(carrier)
        amb = pres.ambient
        # contains the bilinear relations, no pure-x and no pure-y forms
        x_idx = pres.x_indices()
        y_idx = tuple(amb.index(n) for n in pres.y_names)
        for g in pres.generators:
            assert g.degree_in(x_idx) > 0 and g.degree_in(y_idx) > 0
        for text in ("x0*y0 - x1*y1", "x1*y1 - x2*y2", "x0*y0 - x2*y2"):
            assert kernel_contains(pres, carrier, parse_polynomial(text, amb))

    def test_jonquieres_rees_contains_F(self, plane_instance):
        mon = implicitize(plane_instance)
        pres = rees_ideal(
            list(plane_instance.coordinates()),
            y_names=plane_instance.monoid_ring.names,
        )
        pure_y = [
            g
            for g in pres.generators
            if g.degree_in(pres.x_indices()) == 0
        ]
        assert len(pure_y) == 1
        F_amb = mon.F.map_ring(pres.ambient)
        assert pure_y[0].proportional_to(F_amb)

    def test_unequal_degrees_rejected(self):
        with pytest.raises(StructuralError):
            rees_ideal([p("x0"), p("x1^2")])


class TestFraming:
    def test_simple(self):
        big = VariableSet(["x0", "x1", "y0", "y1"])
        Q = parse_polynomial("x0*y0 + x1*y1", big)
        parts = x_framing(Q, (0, 1))
        assert parts[0] == parse_polynomial("y0", big)
        assert parts[1] == parse_polynomial("y1", big)

    def test_lowest_index_rule(self):
        big = VariableSet(["x0", "x1", "y0"])
        Q = parse_polynomial("x0*x1*y0", big)
        parts = x_framing(Q, (0, 1))
        assert parts[0] == parse_polynomial("x1*y0", big)
        assert parts[1].is_zero()

    def test_reassembly(self):
        big = VariableSet(["x0", "x1", "x2", "y0", "y1"])
        rng = random.Random(8)
        for seed in (None, 1, 2):
            for _ in range(5):
                terms = {}
                for _k in range(6):
                    mono = [rng.randrange(0, 3) for _ in range(5)]
                    if not any(mono[:3]):
                        mono[rng.randrange(3)] += 1
                    terms[tuple(mono)] = rng.randrange(-4, 5) or 1
                Q = Polynomial(big, terms)
                parts = x_framing(Q, (0, 1, 2), seed=seed)
                total = Polynomial.zero(big)
                for i, part in enumerate(parts):
                    total = total + Polynomial.variable(big, big.names[i]) * part
                assert total == Q

    def test_pure_y_term_rejected(self):
        big = VariableSet(["x0", "y0"])
        with pytest.raises(StructuralError):
            x_framing(parse_polynomial("y0", big), (0,))


class TestDowngrade:
    def test_koszul_collapse(self):
        # Koszul syzygy of the identity map; H_i = image of x_i, so the
        # identity inverse (y0, y1) makes the downgrade collapse to zero
        big = VariableSet(["x0", "x1", "y0", "y1"])
        Q = parse_polynomial("x1*y0 - x0*y1", big)
        H = [parse_polynomial("y0", big), parse_polynomial("y1", big)]
        assert downgrade(Q, H, (0, 1)).is_zero()

    def test_pure_y_passes_through(self):
        big = VariableSet(["x0", "x1", "y0", "y1"])
        Q = parse_polynomial("y0^2 - y1^2", big)
        H = [parse_polynomial("y1", big), parse_polynomial("y0", big)]
        assert downgrade(Q, H, (0, 1)) == Q

    def test_full_iteration_lands_in_y(self, plane_instance):
        mon = implicitize(plane_instance)
        data = conductor_data(plane_instance.base_ideal_I(), plane_instance.g)
        _, rep = downgraded_rees_ideal(plane_instance, mon, data)
        for chain in rep.chains:
            last = chain[-1]
            x_idx = tuple(range(3))
            assert last.degree_in(x_idx) == 0
            assert len(chain) == chain[0].degree_in(x_idx) + 1

    def test_membership_preserved_randomized(self, plane_instance):
        """Downgrades of Rees-kernel members stay in the kernel."""
        mon = implicitize(plane_instance)
        carrier = list(plane_instance.coordinates())
        pres = rees_ideal(
            carrier,
            y_names=plane_instance.monoid_ring.names,
        )
        H = [
            h.map_ring(pres.ambient)
            for h in plane_instance.cremona.inverse.coords
        ]
        x_idx = pres.x_indices()
        rng = random.Random(99)
        amb = pres.ambient
        checked = 0
        for trial in range(40):
            # random bihomogeneous combination of two generators
            g1, g2 = rng.sample(list(pres.generators), 2)
            m1 = Polynomial.monomial(
                amb, tuple(rng.randrange(0, 2) for _ in range(len(amb)))
            )
            Q = g1 * m1
            if Q.is_zero() or Q.degree_in(x_idx) == 0:
                continue
            if not Q.is_bihomogeneous(x_idx):
                continue
            assert kernel_contains(pres, carrier, Q)
            for seed in (None, rng.randrange(1 << 20)):
                for step in iterated_downgrades(Q, H, x_idx, seed=seed):
                    assert kernel_contains(pres, carrier, step)
            checked += 1
        assert checked >= 10


class TestDowngradedReesIdeal:
    def test_identity_factors_constant(self, identity2, R3):
        P = JonquieresData.build(
            identity2, p("x0 + 2*x1"), p("x0^2 + 3*x1*x2 - x2^2")
        )
        mon = implicitize(P)
        pres, rep = downgraded_rees_ideal(P, mon, conductor_data(P.base_ideal_I(), P.g))
        assert rep.contained_in_rees
        assert rep.codim_matches
        assert rep.all_divisible_by_F
        for factor in rep.factors:
            assert factor.is_constant()

    def test_plane_fixture(self, plane_instance):
        mon = implicitize(plane_instance)
        data = conductor_data(plane_instance.base_ideal_I(), plane_instance.g)
        pres, rep = downgraded_rees_ideal(plane_instance, mon, data)
        assert rep.contained_in_rees
        assert rep.codim == 3
        assert rep.all_divisible_by_F
        assert sorted(str(f) for f in rep.factors) == ["y0", "y1"]

    def test_space_fixture(self, space_instance):
        mon = implicitize(space_instance)
        data = conductor_data(space_instance.base_ideal_I(), space_instance.g)
        pres, rep = downgraded_rees_ideal(space_instance, mon, data)
        assert rep.contained_in_rees
        assert rep.codim == 4
        assert rep.all_divisible_by_F
        assert len(rep.factors) == 1
        y3 = Polynomial.variable(space_instance.monoid_ring, "y3")
        assert rep.factors[0].proportional_to(y3)


class TestIdentityMinors:
    """The Rees ideal of (x_0, ..., x_n) is its minors, as eliminating t finds."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_minors_are_the_eliminated_basis(self, n):
        xring = VariableSet([f"x{i}" for i in range(n + 1)])
        y_names = tuple(f"y{i}" for i in range(n + 1))
        want = rees_ideal(Polynomial.gens(xring), y_names)
        minors = rees._minors(want.ambient, xring.names, y_names)
        assert len(minors) == n * (n + 1) // 2
        assert tuple(minors) == want.generators
        assert [g.terms() for g in minors] == [g.terms() for g in want.generators]
        assert groebner.buchberger(minors).generators == want.ideal.gb().generators

    def test_identity_fixture_generators_unchanged(self):
        P = load_fixture("identity").jonquieres()
        pres, rep = _downgraded(P)
        ambient = pres.ambient
        eliminated = rees_ideal(P.cremona.forward.coords, P.cremona.target.names)
        base = tuple(g.map_ring(ambient) for g in eliminated.generators)
        chains = tuple(g for chain in rep.chains for g in chain)
        assert pres.generators == base + chains


class TestMonoidAssociation:
    def test_identity_monoid_is_the_map_itself(self, identity2, R3):
        P = JonquieresData.build(
            identity2, p("x0 + 2*x1"), p("x0^2 + 3*x1*x2 - x2^2")
        )
        mon = implicitize(P)
        M, rep = monoid_association(P, mon)
        assert rep.sign == 1
        assert M.h_delta == P.g and M.h_delta_minus_1 == P.f
        assert rep.same_implicit_equation
        assert rep.composition_holds
        assert rep.composition_order == "cremona_then_monoid"

    def test_plane_fixture(self, plane_instance):
        mon = implicitize(plane_instance)
        M, rep = monoid_association(plane_instance, mon)
        assert rep.same_implicit_equation
        assert rep.composition_holds
        assert not rep.paper_sign_vanishes  # the displayed sign fails
        assert rep.sign == 1

    def test_space_fixture(self, space_instance):
        mon = implicitize(space_instance)
        M, rep = monoid_association(space_instance, mon)
        assert rep.same_implicit_equation
        assert rep.composition_holds
        assert mon.delta == 2

    # sha256 of the stripped composite's coordinates, one per line, recorded
    # when poly_gcd still ran a subresultant PRS
    STRIPPED_COMPOSITE = {
        "identity": "541a7a828689246a6da6f06d749a9441d675f0f04d2130883d0c0a87d4c712a9",
        "plane": "ca1b0391b2fe50aef1db56b7510836bc519b1b0515403942ce88a746c79517e2",
        "space": "b5307ed7e363b34efabe5d05e33201c648a97df3cb71ded9320c5823490c7910",
        "nzd": "5f00ed41bbe79dc8db51ac1a17c946577920bf75dd271e157f791943f3cc7455",
    }

    @pytest.mark.parametrize("name", sorted(STRIPPED_COMPOSITE))
    def test_stripped_composite_pinned(self, name, monkeypatch):
        # off identity the composite's coordinate gcd is not constant;
        # refining the one-certificate gcd reaches poly_gcd's elimination
        # once on space only, where the parts of the coordinates free of
        # monomial content share a factor; on plane and nzd the monomial
        # contents settle it, and on identity the certificate does
        P = load_fixture(name).jonquieres()
        M, _ = monoid_association(P, implicitize(P))
        M_map = RationalMapData(P.source, P.monoid_ring, M.coords)
        raw = compose(P.cremona.forward, M_map)
        assert raw.coordinate_gcd().is_constant() == (name == "identity")
        calls = []
        meet = groebner.intersect
        monkeypatch.setattr(groebner, "intersect", lambda *a: calls.append(a) or meet(*a))
        comp = raw.stripped()
        assert len(calls) == (name == "space")
        digest = hashlib.sha256("\n".join(map(str, comp.coords)).encode()).hexdigest()
        assert digest == self.STRIPPED_COMPOSITE[name]

    @pytest.mark.parametrize("name", sorted(STRIPPED_COMPOSITE))
    def test_no_gcd_elimination(self, name, monkeypatch):
        # verify_cremona's coprimality and the composition verdict need no
        # elimination: one certificate each, and no stripped composite
        calls = []
        meet = groebner.intersect
        counting = lambda *a, **k: calls.append(a) or meet(*a, **k)  # noqa: E731
        inst = load_fixture(name)
        monkeypatch.setattr(groebner, "intersect", counting)
        P = inst.jonquieres()
        monkeypatch.setattr(groebner, "intersect", meet)
        mon = implicitize(P)
        monkeypatch.setattr(groebner, "intersect", counting)
        M, rep = monoid_association(P, mon)
        sat = saturation_identities(P, M)
        assert rep.composition_holds and sat.status == "holds"
        assert calls == []


class TestSaturationIdentities:
    def test_identity_trivial(self, identity2, R3):
        P = JonquieresData.build(
            identity2, p("x0 + 2*x1"), p("x0^2 + 3*x1*x2 - x2^2")
        )
        mon = implicitize(P)
        M, _ = monoid_association(P, mon)
        rep = saturation_identities(P, M)
        assert rep.status == "holds"
        assert rep.forward_exponents == (0,)
        assert rep.backward_exponents == (0,)

    def test_plane_fixture(self, plane_instance, monkeypatch):
        mon = implicitize(plane_instance)
        M, _ = monoid_association(plane_instance, mon)
        calls = []
        real = rees.saturate
        monkeypatch.setattr(rees, "saturate", lambda *a: calls.append(a) or real(*a))
        rep = saturation_identities(plane_instance, M)
        assert rep.status == "holds"
        assert rep.forward_equal and rep.backward_equal
        assert calls == []  # both identities certified by primality

    def test_negative_control_without_saturation(self, plane_instance):
        """With C a nonunit, the raw transported ideal is strictly smaller."""
        mon = implicitize(plane_instance)
        M, _ = monoid_association(plane_instance, mon)
        I_F = rees_ideal(
            list(plane_instance.coordinates()),
            y_names=plane_instance.monoid_ring.names,
        )
        I_M = rees_ideal(
            list(M.coords), y_names=plane_instance.monoid_ring.names
        )
        amb = I_F.ambient
        xring = plane_instance.source
        g_map = dict(zip(xring.names, plane_instance.cremona.forward.coords))
        images = []
        for nm in amb.names:
            if nm in xring:
                images.append(g_map[nm].map_ring(amb))
            else:
                images.append(Polynomial.variable(amb, nm))
        transported = IdealHandle(
            amb, tuple(h.substitute(images) for h in I_M.generators)
        )
        assert not ideal_equal(transported, I_F.ideal)


def _seeded_involution_instances(involution, count, seed):
    """Plane-involution instances, deg f = 1: g through the base points or missing them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        through = len(out) % 2 == 0
        f = random_form(R, 1, rng.randrange(1 << 30))
        g = Polynomial(R, {
            m: rng.choice((-3, -2, -1, 1, 2, 3))
            for m in monomials_of_degree(3, 3)
            if not (through and max(m) == 3)
        })
        if poly_gcd(f, g).is_constant():
            out.append(JonquieresData.build(involution, f, g))
    return out


def _identity_arguments(P, monkeypatch):
    """The (T, target, b) of each identity `saturation_identities` checks on P."""
    M, _ = monoid_association(P, implicitize(P))
    seen = []
    route = rees._saturates_to
    monkeypatch.setattr(
        rees, "_saturates_to", lambda *a: seen.append(a[:3]) or route(*a)
    )
    rep = saturation_identities(P, M)
    monkeypatch.undo()
    return seen, rep


def _by_saturate(T, target, b, sat_cap):
    """`saturate` + `ideal_equal` on a fresh handle of T; BudgetExceeded as a value."""
    fresh = IdealHandle(T.ring, T.gens)
    try:
        sat, exps = saturate(fresh, IdealHandle.of(b), Budget(sat_cap=sat_cap))
    except BudgetExceeded as exc:
        return type(exc)
    return ideal_equal(sat, target.ideal), tuple(exps)


def _by_route(T, target, b, sat_cap):
    try:
        return rees._saturates_to(T, target, b, Budget(sat_cap=sat_cap))
    except BudgetExceeded as exc:
        return type(exc)


class TestSaturationByPrimality:
    """`_saturates_to` gives what `saturate` + `ideal_equal` give, with fewer eliminations."""

    @pytest.mark.parametrize("name", ["identity", "nzd", "plane", "space"])
    def test_fixtures_match_saturate(self, name, monkeypatch):
        seen, rep = _identity_arguments(load_fixture(name).jonquieres(), monkeypatch)
        assert len(seen) == 2 and rep.status == "holds"
        for T, target, b in seen:
            for cap in (0, 1, 2, 32):
                assert _by_route(T, target, b, cap) == _by_saturate(T, target, b, cap)

    def test_seeded_instances_match_saturate(self, involution, monkeypatch):
        for P in _seeded_involution_instances(involution, 4, 16_016):
            seen, rep = _identity_arguments(P, monkeypatch)
            assert rep.status == "holds"
            assert (rep.forward_exponents, rep.backward_exponents) == tuple(
                _by_saturate(T, target, b, 32)[1] for T, target, b in seen
            )
            for T, target, b in seen:
                for cap in (1, 2):
                    assert _by_route(T, target, b, cap) == _by_saturate(T, target, b, cap)

    def test_fallbacks_give_saturates_answer(self, plane_instance, monkeypatch):
        seen, _ = _identity_arguments(plane_instance, monkeypatch)
        _, target, b = seen[0]  # I_F and C
        amb = target.ambient
        # (h) with h outside I_F: the containment test fails
        wider = IdealHandle(amb, target.ideal.gens + (Polynomial.variable(amb, "x0"),))
        # c * I_F, c an x-form coprime to b: inside I_F, but saturates to c * I_F
        c = parse_polynomial("x0 + 2*x1 + 5*x2", amb)
        assert poly_gcd(c, b).is_constant()
        narrower = IdealHandle(amb, tuple(c * h for h in target.ideal.gens))
        calls = []
        real = rees.saturate
        monkeypatch.setattr(rees, "saturate", lambda *a: calls.append(a) or real(*a))
        for ideal in (wider, narrower):
            for cap in (0, 1, 2, 32):
                calls.clear()
                want = _by_saturate(ideal, target, b, cap)
                assert _by_route(ideal, target, b, cap) == want
                assert len(calls) == 1
                if cap == 32:
                    assert want[0] is False
        assert _by_saturate(wider, target, b, 1) is BudgetExceeded


FIXTURES = ["identity", "nzd", "plane", "space"]
FAMILIES = ["identity2", "identity3", "plane", "nzd"]


def _computed_codims(monkeypatch):
    """The codimensions `downgraded_rees_ideal` reads from a basis, in call order."""
    seen = []
    real = rees.dim_and_codim
    monkeypatch.setattr(rees, "dim_and_codim", lambda *a: seen.append(real(*a)[1]) or real(*a))
    return seen


def _downgraded(P, conductor=None):
    """`downgraded_rees_ideal` of P, with the conductor data of its base ideal and g."""
    conductor = conductor or conductor_data(P.base_ideal_I(), P.g)
    return downgraded_rees_ideal(P, implicitize(P), conductor)


def _basis_codim(pres):
    """The codimension of D read from a fresh degrevlex basis of its generators."""
    return dim_and_codim(IdealHandle(pres.ambient, pres.generators))[1]


class TestCodimensionCertificate:
    """codim D = n + 1 from the containment in K and an x-free chain end, as computed."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_the_basis(self, name, monkeypatch):
        P = load_fixture(name).jonquieres()
        computed = _computed_codims(monkeypatch)
        pres, rep = _downgraded(P)
        assert computed == []
        assert rep.codim == _basis_codim(pres) == P.n + 1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_seeded_draws_match_the_basis(self, family, seeded_draws, monkeypatch):
        computed = _computed_codims(monkeypatch)
        for P in seeded_draws(family, 2, 25_025):
            pres, rep = _downgraded(P)
            assert rep.contained_in_rees
            assert rep.codim == _basis_codim(pres) == P.n + 1
        assert computed == []

    def test_no_x_free_chain_end_is_computed(self, plane_instance, monkeypatch):
        # chains cut to their first element, which has x left in it
        real = rees.iterated_downgrades
        monkeypatch.setattr(rees, "iterated_downgrades", lambda *a, **k: real(*a, **k)[:1])
        computed = _computed_codims(monkeypatch)
        pres, rep = _downgraded(plane_instance)
        assert rep.contained_in_rees and rep.factors == (None, None)
        assert computed == [rep.codim] == [_basis_codim(pres)]

    def test_failed_containment_is_computed(self, plane_instance, monkeypatch):
        # doubled conductors: c_j*g is no longer sum h_ij g_i, so D leaves K
        data = conductor_data(plane_instance.base_ideal_I(), plane_instance.g)
        planted = dataclasses.replace(data, conductors=tuple(c * 2 for c in data.conductors))
        computed = _computed_codims(monkeypatch)
        pres, rep = _downgraded(plane_instance, planted)
        assert not rep.contained_in_rees
        assert computed == [rep.codim] == [_basis_codim(pres)]


def _sign_vanishes(P, mon, sign):
    """Whether F vanishes on (F_{delta-1} x_0, ..., F_{delta-1} x_n, sign * F_delta)."""
    low = mon.F_delta_minus_1.rename(P.source)
    coords = [low * x for x in Polynomial.gens(P.source)]
    return mon.F.substitute(coords + [mon.F_delta.rename(P.source) * sign]).is_zero()


def _substitutions_of(F, monkeypatch):
    """The calls that substitute into F itself, in call order."""
    seen = []
    real = Polynomial.substitute

    def spy(self, images):
        if self is F:
            seen.append(images)
        return real(self, images)

    monkeypatch.setattr(Polynomial, "substitute", spy)
    return seen


class TestMonoidSign:
    """The sign read off F's construction is the one substitution finds."""

    def _check(self, P, monkeypatch):
        mon = implicitize(P)
        assert mon.sign == 1
        assert (_sign_vanishes(P, mon, 1), _sign_vanishes(P, mon, -1)) == (True, False)
        substituted = _substitutions_of(mon.F, monkeypatch)
        M, rep = monoid_association(P, mon)
        assert (rep.sign, rep.paper_sign_vanishes, substituted) == (1, False, [])
        monkeypatch.undo()

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name, monkeypatch):
        self._check(load_fixture(name).jonquieres(), monkeypatch)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_seeded_draws(self, family, seeded_draws, monkeypatch):
        for P in seeded_draws(family, 2, 25_026):
            self._check(P, monkeypatch)

    def test_components_of_other_degrees_take_substitution(self, monkeypatch):
        # both components times a linear form: degrees delta+1 and delta
        P = load_fixture("identity").jonquieres()
        mon = implicitize(P)
        L = parse_polynomial("y0 + 2*y1 - y2", P.cremona.target)
        scaled = dataclasses.replace(
            mon, F_delta=mon.F_delta * L, F_delta_minus_1=mon.F_delta_minus_1 * L
        )
        assert scaled.sign is None
        substituted = _substitutions_of(scaled.F, monkeypatch)
        M, rep = monoid_association(P, scaled)
        assert len(substituted) == 2
        assert (rep.sign, rep.paper_sign_vanishes) == (1, False)

    def test_inhomogeneous_components_take_substitution(self, monkeypatch):
        # F built from F_delta + 1 and F_{delta-1}: no sign makes it vanish
        P = load_fixture("identity").jonquieres()
        mon = implicitize(P)
        top = mon.F_delta + Polynomial.constant(P.cremona.target, 1)
        planted = ImplicitMonoid.of(P, top, mon.F_delta_minus_1, mon.stripped_gcd)
        assert planted.sign is None
        substituted = _substitutions_of(planted.F, monkeypatch)
        with pytest.raises(StructuralError, match="no sign"):
            monoid_association(P, planted)
        assert len(substituted) == 2


def _elems(pres):
    """The terms of each element of the reduced basis a presentation carries."""
    return [e.terms for e in pres.ideal.gb()._elems]


def _monoid_tuple(low, top, sign):
    """(low x_0, ..., low x_n, sign top) and its y names."""
    coords = tuple(low * x for x in Polynomial.gens(low.ring)) + (top * sign,)
    return coords, tuple(f"y{i}" for i in range(len(coords)))


@st.composite
def monoid_components(draw, n, delta):
    """Coprime sparse forms h_{delta-1}, h_delta in n + 1 variables, and a sign."""
    ring = VariableSet([f"x{i}" for i in range(n + 1)])
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))

    def form(d):
        monos = list(monomials_of_degree(n + 1, d))
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        return Polynomial(ring, {m: draw(coeffs) for m in support})

    low, top = form(delta - 1), form(delta)
    assume(poly_gcd(low, top).is_constant())
    return low, top, draw(st.sampled_from((1, -1)))


# `Budget.pairs_used` of the monoid's Rees ideal: the closed form, the
# elimination of t, and the closed form without the Hilbert series
MONOID_PAIRS = {
    "identity": (7, 13, 11),
    "nzd": (16, 60, 20),
    "plane": (10, 33, 14),
    "space": (0, 11, 12),
}


def _eliminations(monkeypatch):
    """The positional arguments of each `rees_ideal` call `jonq.rees` makes from now on."""
    seen = []
    real = rees.rees_ideal
    monkeypatch.setattr(rees, "rees_ideal", lambda *a, **k: seen.append(a) or real(*a, **k))
    return seen


def _closed_form_pairs(P, mon, monkeypatch, series=True):
    """The monoid presentation and its pairs, with or without the series."""
    if not series:
        real = rees.buchberger
        monkeypatch.setattr(rees, "buchberger", lambda *a, hilbert=None, **k: real(*a, **k))
    budget = Budget()
    M, _ = monoid_association(P, mon, budget)
    monkeypatch.undo()
    return M, budget.pairs_used


class TestMonoidClosedForm:
    """I_M from the minors and the downgrade chain of Q, certified by its series."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_the_elimination(self, name, monkeypatch):
        P = load_fixture(name).jonquieres()
        mon = implicitize(P)
        eliminated = _eliminations(monkeypatch)
        M, pairs = _closed_form_pairs(P, mon, monkeypatch)
        assert eliminated == []
        budget = Budget()
        want = rees_ideal(M.coords, P.monoid_ring.names, budget)
        assert M.rees.ambient == want.ambient
        assert all(kernel_contains(want, M.coords, g) for g in want.generators)
        assert M.rees.generators == want.generators == M.rees.ideal.gens
        assert _elems(M.rees) == _elems(want)
        assert hilbert_numerator(want.ideal) == rees._monoid_numerator(P.n, mon.delta)
        _, unguided = _closed_form_pairs(P, mon, monkeypatch, series=False)
        assert (pairs, budget.pairs_used, unguided) == MONOID_PAIRS[name]
        assert pairs <= budget.pairs_used

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    def test_seeded_monoids_match_the_elimination(self, n, delta):
        @settings(max_examples=6, deadline=None, derandomize=True)
        @given(monoid_components(n, delta))
        def check(case):
            low, top, sign = case
            coords, y_names = _monoid_tuple(low, top, sign)
            closed = rees._monoid_rees(low, top, coords, y_names, Budget())
            want = rees_ideal(coords, y_names)
            assert closed is not None
            assert closed.ambient == want.ambient and closed.generators == want.generators
            assert _elems(closed) == _elems(want)
            assert hilbert_numerator(want.ideal) == rees._monoid_numerator(n, delta)

        check()

    def test_numerator_of_a_small_case(self):
        # n = 1, delta = 2: (1 + s - 2 s^2)(1 - s) = 1 - 3 s^2 + 2 s^3
        assert rees._monoid_numerator(1, 2) == [1, 0, -3, 2]
        # delta = n + 1 drops the s^(delta+1) term: (1 + 2 s - 3 s^3)(1 - s)^2
        assert rees._monoid_numerator(2, 3) == [1, 0, -3, -1, 6, -3]

    @pytest.mark.parametrize("name", FIXTURES)
    def test_cut_chain_fails_the_certificate(self, name, monkeypatch):
        P = load_fixture(name).jonquieres()
        mon = implicitize(P)
        cut = rees.iterated_downgrades
        monkeypatch.setattr(rees, "iterated_downgrades", lambda *a, **k: cut(*a, **k)[:-1])
        numerators, eliminated = [], _eliminations(monkeypatch)
        real = rees.hilbert_numerator
        monkeypatch.setattr(
            rees, "hilbert_numerator", lambda I: numerators.append(real(I)) or numerators[-1]
        )
        M, rep = monoid_association(P, mon)
        monkeypatch.undo()
        want = rees_ideal(M.coords, P.monoid_ring.names)
        assert numerators and numerators[0] != rees._monoid_numerator(P.n, mon.delta)
        assert len(eliminated) == 1 and M.rees.generators == want.generators
        assert _elems(M.rees) == _elems(want) and rep.same_implicit_equation

    def test_constant_low_component_takes_the_elimination(self, monkeypatch):
        P = load_fixture("identity").jonquieres()
        mon = implicitize(P)
        target = P.cremona.target
        planted = ImplicitMonoid.of(
            P, parse_polynomial("y0 + 2*y1 - y2", target), Polynomial.constant(target, 1),
            mon.stripped_gcd,
        )
        assert planted.sign == 1 and planted.delta == 1
        eliminated = _eliminations(monkeypatch)
        M, rep = monoid_association(P, planted)
        assert [a[0] for a in eliminated] == [M.coords]
        assert rep.same_implicit_equation

    def test_components_with_a_common_factor_take_the_elimination(self, monkeypatch):
        # F = L * F' of degree delta + 1, from components of degrees delta + 1
        # and delta that share L: the numerator test alone would accept D_M
        P = load_fixture("plane").jonquieres()
        mon = implicitize(P)
        L = parse_polynomial("y0 + 2*y1 - y2", P.cremona.target)
        planted = ImplicitMonoid.of(P, mon.F_delta * L, mon.F_delta_minus_1 * L, mon.stripped_gcd)
        assert planted.sign == 1
        eliminated = _eliminations(monkeypatch)
        M, rep = monoid_association(P, planted)
        assert [a[0] for a in eliminated] == [M.coords]
        # the image is V(F'), not V(L * F')
        assert not rep.same_implicit_equation

    def test_degrees_outside_the_hypotheses_decline(self):
        x0, x1, x2 = Polynomial.gens(R)
        for low, top in ((Polynomial.constant(R, 1), x0), (x0, x1 * x2 + x0), (x0**2, x1)):
            coords, y_names = _monoid_tuple(low, top, 1)
            assert rees._monoid_rees(low, top, coords, y_names, Budget()) is None
        one = VariableSet(["x0"])  # n = 0
        low, top = Polynomial.gens(one)[0], Polynomial.gens(one)[0] ** 2
        coords, y_names = _monoid_tuple(low, top, 1)
        assert rees._monoid_rees(low, top, coords, y_names, Budget()) is None


class TestDowngradedEqualsKernel:
    """D = K over the identity Cremona map: the paper's extension of
    Benitez-D'Andrea, checked against the Rees ideal K of the coordinates."""

    @staticmethod
    def _bases(P):
        pres, rep = _downgraded(P)
        K = rees_ideal(P.coordinates(), y_names=P.monoid_ring.names)
        assert rep.contained_in_rees and pres.ambient == K.ambient
        return IdealHandle(pres.ambient, pres.generators).gb().generators, K.generators

    def test_identity_fixture(self):
        D, K = self._bases(load_fixture("identity").jonquieres())
        assert D == K

    @pytest.mark.parametrize("family", ["identity2", "identity3"])
    def test_seeded_identity_instances(self, family, seeded_draws):
        for P in seeded_draws(family, 3, 28_028):
            D, K = self._bases(P)
            assert D == K

    @pytest.mark.parametrize("name", ["plane", "nzd", "space"])
    def test_strictly_smaller_off_the_identity(self, name):
        D, K = self._bases(load_fixture(name).jonquieres())
        assert D != K  # and D lies in K
