"""Acceptance gate: the nine exit criteria, each printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion including its runtime.
"""

import random
import time

import pytest

from jonq.birational import identity_map
from jonq.errors import BudgetExceeded
from jonq.fixtures import load_fixture
from jonq.groebner import (
    Budget,
    IdealHandle,
    colon,
    ideal_equal,
    multiply_ideal,
)
from jonq.implicitize import (
    JonquieresData,
    implicitize,
    oracle_implicitize,
    predicted_degree,
    syzygetic_polynomials,
)
from jonq.rees import (
    _kernel_images,
    downgraded_rees_ideal,
    iterated_downgrades,
    monoid_association,
    rees_ideal,
    saturation_identities,
)
from jonq.ring import Polynomial, VariableSet, poly_gcd, random_form
from jonq.syzygies import (
    conductor_data,
    mapping_cone_matrix,
    syzygy_basis,
    verify_syzygy_generation,
)


def _stamp(name, t0, limit=None):
    dt = time.perf_counter() - t0
    budget = f" [< {limit:.0f}s]" if limit else ""
    print(f"\nACCEPTANCE {name}: PASS ({dt:.1f}s{budget})")
    if limit is not None:
        assert dt < limit, f"{name} exceeded its {limit}s budget ({dt:.1f}s)"


def kernel_contains(pres, carrier, h):
    """h maps to zero under x -> x, y_i -> t*carrier_i: membership in the
    Rees kernel of `carrier`, by substitution, independent of any basis."""
    return h.substitute(_kernel_images(pres.ambient, pres.y_names, carrier)).is_zero()


def _coprime_pair(ring, d, df, rng):
    while True:
        f = random_form(ring, df, rng.randrange(1 << 30))
        g = random_form(ring, d + df, rng.randrange(1 << 30))
        if poly_gcd(f, g).is_constant():
            return f, g


def test_criterion_1_space_example():
    t0 = time.perf_counter()
    inst = load_fixture("space")
    cre = inst.verified_cremona()
    assert cre.target_factor.total_degree() == 5
    P = inst.jonquieres()
    data = conductor_data(P.base_ideal_I(), P.g)
    assert data.kind == "inclusion"
    mon = implicitize(P)
    assert mon.delta == 2
    syz = syzygetic_polynomials(P, mon, data)
    assert len(syz) == 1
    y3 = Polynomial.variable(P.monoid_ring, "y3")
    assert syz[0].polynomial.proportional_to(y3 * mon.F)
    _stamp("criterion 1 (P^3 example: inclusion, P = -y3*F, deg F = 2)", t0, 10)


def test_criterion_2_plane_example():
    t0 = time.perf_counter()
    P = load_fixture("plane").jonquieres()
    cond = colon(P.base_ideal_I(), P.g)
    assert sorted(map(str, cond.gens)) == ["x0", "x1"]
    mon = implicitize(P)
    assert mon.delta == 4
    syz = syzygetic_polynomials(P, mon, conductor_data(P.base_ideal_I(), P.g))
    assert len(syz) == 2
    for s in syz:
        assert s.polynomial.total_degree() == 5
        assert s.extraneous_factor.total_degree() == 1
    orc = oracle_implicitize(list(P.coordinates()), P.monoid_ring)
    assert orc.proportional_to(mon.F)
    _stamp("criterion 2 (plane example: conductor, degree-5 syzygetics, deg F = 4)", t0, 10)


# shared instance pools reused by criterion 4
_identity_pool = []
_involution_pool = []


def test_criterion_3_monoid_case():
    t0 = time.perf_counter()
    plan = [(2, 1, 10), (2, 2, 9), (2, 3, 8), (3, 1, 10), (3, 2, 8), (3, 3, 5)]
    assert sum(c for _, _, c in plan) == 50
    count = 0
    for n, df, runs in plan:
        ring = VariableSet([f"x{i}" for i in range(n + 1)])
        target = VariableSet([f"y{i}" for i in range(n + 1)])
        cre = identity_map(ring, target)
        rng = random.Random(1000 * n + df)
        for _ in range(runs):
            f, g = _coprime_pair(ring, 1, df, rng)
            P = JonquieresData.build(cre, f, g)
            mon = implicitize(P)
            ylast = Polynomial.variable(P.monoid_ring, P.last_var)
            gy = g.rename(target).map_ring(P.monoid_ring)
            fy = f.rename(target).map_ring(P.monoid_ring)
            assert mon.F == gy - fy * ylast, "closed form must be exact"
            assert mon.delta == df + 1
            orc = oracle_implicitize(list(P.coordinates()), P.monoid_ring)
            assert orc.proportional_to(mon.F)
            _identity_pool.append(P)
            count += 1
    assert count == 50
    _stamp("criterion 3 (50 identity-Cremona monoid instances, F exact + oracle)", t0, 60)


def test_criterion_4_degree_law():
    t0 = time.perf_counter()
    instances = list(_identity_pool)
    instances.append(load_fixture("space").jonquieres())
    instances.append(load_fixture("plane").jonquieres())
    inv = load_fixture("plane").verified_cremona()
    ring = inv.source
    rng = random.Random(424242)
    for _ in range(25):
        df = rng.choice((1, 2))
        f, g = _coprime_pair(ring, 2, df, rng)
        instances.append(JonquieresData.build(inv, f, g))
    assert len(instances) >= 77
    for P in instances:
        mon = implicitize(P)
        rep = predicted_degree(P, mon)
        assert rep.deg_F == rep.via_deg_g == rep.via_deg_f
        assert rep.deg_F <= rep.upper_bound
        if rep.evaluations_coprime:
            assert rep.window_holds, "degree window must hold for coprime evaluations"
    _stamp("criterion 4 (degree law on 77+ instances incl. 25 involution draws)", t0)


def test_criterion_5_colon_transfer_law():
    t0 = time.perf_counter()
    R = VariableSet(["x0", "x1", "x2"])
    rng = random.Random(55_055)
    done = 0
    while done < 50:
        gens = [
            random_form(R, rng.choice((1, 2)), rng.randrange(1 << 30))
            for _ in range(rng.choice((2, 3)))
        ]
        f = random_form(R, rng.choice((1, 2)), rng.randrange(1 << 30))
        g = random_form(R, rng.choice((1, 2, 3)), rng.randrange(1 << 30))
        if not poly_gcd(f, g).is_constant():
            continue
        I = IdealHandle(R, gens)
        lhs = colon(multiply_ideal(I, f), g)
        rhs = multiply_ideal(colon(I, g), f)
        assert ideal_equal(lhs, rhs)
        done += 1
    _stamp("criterion 5 (colon transfer If:(g) = (I:(g))f on 50 seeded triples)", t0)


def _cone_for(P):
    I = P.base_ideal_I()
    phi = syzygy_basis(list(I.gens))
    data = conductor_data(I, P.g)
    psi = mapping_cone_matrix(list(I.gens), phi, P.f, P.g, data)
    return psi


def test_criterion_6_mapping_cone():
    t0 = time.perf_counter()
    plane = load_fixture("plane").jonquieres()
    psi = _cone_for(plane)  # columns verified to annihilate on construction
    ver = verify_syzygy_generation(list(plane.coordinates()), psi)
    assert ver.all_match, f"plane spans diverge at degree {ver.first_failure}"
    space = load_fixture("space").jonquieres()
    psi = _cone_for(space)
    ver = verify_syzygy_generation(list(space.coordinates()), psi, degree_bound=6)
    assert ver.all_match, f"space spans diverge at degree {ver.first_failure}"
    _stamp("criterion 6 (mapping cone columns + degree-by-degree span match)", t0)


def test_criterion_7_regularity(bound_checks):
    t0 = time.perf_counter()
    plane = load_fixture("plane").jonquieres()
    checks = {c.name: c for c in bound_checks(plane)}
    bound = checks["cremona_base_regularity_bound"]
    assert bound.status == "holds" and bound.lhs == 1 and bound.rhs == 1
    inv = load_fixture("plane").verified_cremona()
    ring = inv.source
    rng = random.Random(777_777)
    met = 0
    attempts = 0
    while met < 10 and attempts < 60:
        attempts += 1
        df = rng.choice((1, 2))
        f, g = _coprime_pair(ring, 2, df, rng)
        P = JonquieresData.build(inv, f, g)
        checks = {c.name: c for c in bound_checks(P)}
        c3 = checks["jonquieres_ideal_regularity_bound"]
        c3e = checks["jonquieres_ideal_regularity_equality_nzd"]
        c4 = checks["conductor_regularity_bound"]
        if c3.status == "skipped" and c4.status == "skipped":
            continue
        if c3.status != "skipped":
            assert c3.status == "holds"
        if c3e.status != "skipped":
            assert c3e.status == "holds"
        if c4.status != "skipped":
            assert c4.status == "holds"
        met += 1
    assert met == 10
    _stamp("criterion 7 (regularity bounds on plane fixture + 10 seeded instances)", t0)


def test_criterion_8_rees_machinery():
    t0 = time.perf_counter()
    fixtures = []
    for name in ("plane", "space", "identity"):
        fixtures.append(load_fixture(name).jonquieres())
    members_checked = 0
    rng = random.Random(88_888)
    for P in fixtures:
        mon = implicitize(P)
        pres, rep = downgraded_rees_ideal(P, mon, conductor_data(P.base_ideal_I(), P.g))
        assert rep.contained_in_rees
        assert rep.codim_matches, f"codim {rep.codim} != {rep.codim_expected}"
        assert rep.all_divisible_by_F
        for factor in rep.factors:
            assert not factor.is_zero()
        # randomized kernel members: monomial multiples of verified members
        carrier = list(P.coordinates())
        J_pres = rees_ideal(carrier, y_names=P.monoid_ring.names)
        amb = J_pres.ambient
        x_idx = J_pres.x_indices()
        H = [h.map_ring(amb) for h in P.cremona.inverse.coords]
        gens = list(J_pres.generators)
        per_fixture = 67 if P is not fixtures[-1] else 66
        got = 0
        guard = 0
        while got < per_fixture and guard < 1000:
            guard += 1
            base = gens[rng.randrange(len(gens))]
            mono = tuple(rng.randrange(0, 2) for _ in range(len(amb)))
            Q = base * Polynomial.monomial(amb, mono)
            if Q.degree_in(x_idx) == 0:
                continue
            if not Q.is_bihomogeneous(x_idx):
                continue
            assert kernel_contains(J_pres, carrier, Q)
            for step in iterated_downgrades(Q, H, x_idx):
                assert kernel_contains(J_pres, carrier, step)
            got += 1
        members_checked += got
    assert members_checked >= 200
    _stamp(
        f"criterion 8 (downgrades of {members_checked} kernel members + D-ideal checks)",
        t0,
        120,
    )


def test_criterion_9_monoid_association_and_saturation():
    t0 = time.perf_counter()
    for name in ("identity", "plane"):
        P = load_fixture(name).jonquieres()
        mon = implicitize(P)
        M, ma = monoid_association(P, mon)
        assert ma.same_implicit_equation, f"{name}: (a) fails"
        assert ma.composition_holds and ma.composition_order is not None
        sat = saturation_identities(P, M)
        assert sat.status == "holds", f"{name}: (c) {sat.status}"
    # the P^3 fixture: (a) and (b) must run; (c) may be skipped(budget)
    P = load_fixture("space").jonquieres()
    mon = implicitize(P)
    M, ma = monoid_association(P, mon)
    assert ma.same_implicit_equation and ma.composition_holds
    try:
        sat = saturation_identities(P, M, budget=Budget(max_pairs=200_000))
    except BudgetExceeded:
        pass
    else:
        assert sat.status == "holds", "P^3 (c) must hold or budget-skip"
    _stamp("criterion 9 (monoid association and saturation identities)", t0)
