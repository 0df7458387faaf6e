"""Cross-module randomized laws beyond the per-module suites."""

import random

from hypothesis import given, settings, strategies as st

from jonq.groebner import IdealHandle, normal_form, buchberger
from jonq.implicitize import (
    JonquieresData,
    implicitize,
    oracle_implicitize,
    predicted_degree,
    syzygetic_polynomials,
    verify_inverse_representative,
)
from jonq.ring import (
    Polynomial,
    VariableSet,
    divide_exact,
    parse_polynomial,
    poly_gcd,
    random_form,
)
from jonq.syzygies import conductor_data

R = VariableSet(["x0", "x1", "x2"])


def _instances(cre, degrees, seed, count):
    rng = random.Random(seed)
    ring = cre.source
    out = []
    while len(out) < count:
        df = rng.choice(degrees)
        f = random_form(ring, df, rng.randrange(1 << 30))
        g = random_form(ring, cre.degree + df, rng.randrange(1 << 30))
        if poly_gcd(f, g).is_constant():
            out.append(JonquieresData.build(cre, f, g))
    return out


def test_formula_oracle_agreement_involution(involution):
    for P in _instances(involution, (1, 2), 101, 5):
        mon = implicitize(P)
        orc = oracle_implicitize(list(P.coordinates()), P.monoid_ring)
        assert orc.proportional_to(mon.F)


def test_monoid_shape_invariant(involution):
    for P in _instances(involution, (1, 2), 202, 6):
        mon = implicitize(P)
        last = P.monoid_ring.index(P.last_var)
        assert mon.F.degree_in((last,)) == 1
        assert poly_gcd(mon.F_delta, mon.F_delta_minus_1).is_constant()


def test_syzygetic_divisibility_and_degrees(involution):
    for P in _instances(involution, (1, 2), 303, 4):
        mon = implicitize(P)
        for s in syzygetic_polynomials(P, mon, conductor_data(P.base_ideal_I(), P.g)):
            # divide_exact inside guarantees divisibility; degrees add up
            assert (
                s.polynomial.total_degree()
                == mon.delta + s.extraneous_factor.total_degree()
            )
            assert divide_exact(s.polynomial, mon.F) == s.extraneous_factor


def test_inverse_representative_randomized(involution):
    for P in _instances(involution, (1,), 404, 3):
        mon = implicitize(P)
        assert verify_inverse_representative(P, mon)


def test_degree_upper_bound_always(involution):
    for P in _instances(involution, (1, 2, 3), 505, 6):
        mon = implicitize(P)
        rep = predicted_degree(P, mon)
        assert rep.deg_F <= rep.upper_bound


def test_stripped_gcd_consistency(involution):
    # deg F + deg(stripped gcd) = deg(g) * deg(G^-1), by construction
    for P in _instances(involution, (1, 2), 606, 5):
        mon = implicitize(P)
        assert (
            mon.delta + mon.stripped_gcd.total_degree()
            == P.g.total_degree() * P.cremona.inverse_degree
        )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.integers(-6, 6),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_normal_form_linearity(items):
    terms = {m: c for m, c in items if c}
    p = Polynomial(R, terms)
    I = IdealHandle(R, (parse_polynomial("x0^2 - x1*x2", R), parse_polynomial("x1^3", R)))
    gb = I.gb()
    q = parse_polynomial("x0*x1 - x2^2", R)
    lhs = normal_form(p + q, gb)
    rhs = normal_form(p, gb) + normal_form(q, gb)
    assert normal_form(lhs - rhs, gb).is_zero()
    assert lhs == rhs  # remainders are k-linear


def test_reduced_gb_of_rescaled_generators():
    gens = [parse_polynomial("2*x0^2 - 4*x1*x2", R), parse_polynomial("3*x1^2 - 3*x0*x2", R)]
    scaled = [g * 7 for g in gens]
    assert buchberger(gens).generators == buchberger(scaled).generators
