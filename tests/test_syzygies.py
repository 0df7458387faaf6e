import dataclasses
import random
from operator import ge
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fraction_linalg import FractionSpan, fraction_kernel_basis
from jonq import groebner
from jonq.birational import RationalMapData, base_ideal, verify_cremona
from jonq.cli import main
from jonq.errors import HypothesisViolation, StructuralError
from jonq.groebner import (
    IdealHandle,
    colon,
    dim_and_codim,
    ideal_equal,
    saturate_by_variables,
)
from jonq.implicitize import JonquieresData, implicitize, syzygetic_polynomials
from jonq.fixtures import FIXTURE_NAMES, load_fixture
from jonq.orders import DegRevLex
from jonq.rees import downgraded_rees_ideal
from jonq.report import parse_report
from jonq.ring import (
    Polynomial,
    VariableSet,
    count_monomials,
    monomials_of_degree,
    parse_polynomial,
    poly_gcd,
    random_form,
)
from jonq.syzygies import (
    GradedMatrix,
    _minimal_columns,
    conductor_data,
    lift,
    mapping_cone_matrix,
    regularity_dim1,
    regularity_oracle,
    syzygy_basis,
    verify_syzygy_generation,
)

R = VariableSet(["x0", "x1", "x2"])


def p(text, ring=R):
    return parse_polynomial(text, ring)


class TestConductorData:
    def test_inclusion_gives_unit_conductor(self, space_instance):
        I = space_instance.base_ideal_I()
        data = conductor_data(I, space_instance.g)
        assert len(data.conductors) == 1
        assert data.conductors[0].is_constant()
        # content column lifts g itself
        total = Polynomial.zero(I.ring)
        for h, gi in zip(data.content.column(0), I.gens):
            total = total + h * gi
        assert total == space_instance.g

    def test_plane_conductor_content_degrees(self, plane_instance):
        I = plane_instance.base_ideal_I()
        data = conductor_data(I, plane_instance.g)
        assert set(map(str, data.conductors)) == {"x0", "x1"}
        for j, cj in enumerate(data.conductors):
            col = data.content.column(j)
            total = Polynomial.zero(I.ring)
            for h, gi in zip(col, I.gens):
                assert h.is_zero() or h.total_degree() == 2
                total = total + h * gi
            assert total == cj * plane_instance.g

    def test_nzd_conductors_are_the_generators(self, nzd_instance):
        I = nzd_instance.base_ideal_I()
        data = conductor_data(I, nzd_instance.g)
        assert data.conductors == I.gens
        # content is g times the identity
        for j in range(len(I.gens)):
            for i, h in enumerate(data.content.column(j)):
                if i == j:
                    assert h == nzd_instance.g
                else:
                    assert h.is_zero()


def _canonical_sort(gens):
    """The nonzero `gens` made canonical, by degree and then degrevlex lead."""
    order = DegRevLex(len(gens[0].ring))
    return sorted(
        (h.canonical() for h in gens if not h.is_zero()),
        key=lambda h: order.key(h.lead_term(order)[0]),
    )


def _reference_minimal(gens):
    """Groebner reference: after the canonical sort, keep each generator
    unless the ideal of those kept before it holds it."""
    kept = []
    for h in _canonical_sort(gens):
        if not IdealHandle(h.ring, kept).contains(h):
            kept.append(h)
    return kept


def _span_minimal(gens):
    """`conductor_data`'s route: the canonical sort, then `_minimal_columns`."""
    items = _canonical_sort(gens)
    return [items[j] for j in _minimal_columns([(h.total_degree(), (h,)) for h in items], (0,))]


def _colon_route(I, g):
    """`conductor_data` read from colon(I, g) alone: kind, conductors,
    content columns and the `case.conductor` text."""
    cond = IdealHandle(I.ring, _reference_minimal(colon(I, g).gens))
    gens = list(I.gens)
    if cond.gb().contains_unit():
        kind, conductors = "inclusion", (Polynomial.constant(I.ring, 1),)
    elif ideal_equal(cond, I):
        kind, conductors = "non_zero_divisor", I.gens
    else:
        kind, conductors = "general", cond.gens
    zero = Polynomial.zero(I.ring)
    if kind == "non_zero_divisor":
        columns = [tuple(g if k == j else zero for k in range(len(gens))) for j in range(len(gens))]
    else:
        columns = [tuple(lift(c * g, gens)) for c in conductors]
    return kind, tuple(conductors), columns, "; ".join(str(c) for c in cond.gens) or "0"


def _conductor_route(I, g):
    data = conductor_data(I, g)
    columns = [data.content.column(j) for j in range(data.content.ncols)]
    text = "; ".join(str(c) for c in data.ideal.gens) or "0"
    return data.kind, data.conductors, columns, text


class TestInclusionShortcut:
    """g in I read by one membership test gives what colon(I, g) gives."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_match_the_colon(self, name):
        P = load_fixture(name).jonquieres()
        I = P.base_ideal_I()
        assert _conductor_route(I, P.g) == _colon_route(P.base_ideal_I(), P.g)

    @pytest.mark.parametrize("family, kind", [
        ("identity2", "inclusion"), ("identity3", "inclusion"),
        ("plane", "inclusion"), ("nzd", "non_zero_divisor"),
    ])
    def test_seeded_draws_match_the_colon(self, family, kind, seeded_draws):
        for P in seeded_draws(family, 3, 25_027):
            got = _conductor_route(P.base_ideal_I(), P.g)
            assert got[0] == kind
            assert got == _colon_route(P.base_ideal_I(), P.g)

    @pytest.mark.parametrize("name", ["identity", "space"])
    def test_inclusion_makes_no_intersection(self, name, monkeypatch):
        P = load_fixture(name).jonquieres()
        calls = []
        meet = groebner.intersect
        counting = lambda *a, **k: calls.append(a) or meet(*a, **k)  # noqa: E731
        monkeypatch.setattr(groebner, "intersect", counting)
        assert conductor_data(P.base_ideal_I(), P.g).kind == "inclusion"
        assert calls == []


def _sparse_form(ring, degree, rng):
    """A seeded form of `degree` on about half its monomials, never zero."""
    monos = list(monomials_of_degree(len(ring), degree))
    picked = [m for m in monos if rng.random() < 0.5] or [rng.choice(monos)]
    return Polynomial(ring, {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in picked})


class TestMinimalColumns:
    """`_minimal_columns` on one-entry columns keeps what the Groebner
    reference keeps, after the same canonical sort."""

    @pytest.mark.parametrize("nvars", [3, 4])
    def test_seeded_forms_with_redundant_multiples(self, nvars):
        ring = VariableSet([f"x{i}" for i in range(nvars)])
        rng = random.Random(2900 + nvars)
        dropped = kept = 0
        for _ in range(60):
            gens = [_sparse_form(ring, rng.randint(1, 3), rng) for _ in range(rng.randint(2, 4))]
            for _ in range(rng.randint(1, 3)):  # a sum of multiples of the forms
                top = rng.randint(min(h.total_degree() for h in gens), 3)
                gens.append(sum(
                    (_sparse_form(ring, top - h.total_degree(), rng) * h
                     for h in gens if h.total_degree() <= top),
                    Polynomial.zero(ring),
                ))
            rng.shuffle(gens)
            want = _reference_minimal(gens)
            assert _span_minimal(gens) == want
            dropped += sum(not h.is_zero() for h in gens) - len(want)
            kept += len(want)
        assert dropped >= 100 and kept >= 150

    @pytest.mark.parametrize("nvars", [3, 4])
    def test_colon_outputs(self, nvars):
        ring = VariableSet([f"x{i}" for i in range(nvars)])
        rng = random.Random(2910 + nvars)
        shrank = 0
        for _ in range(20):
            I = IdealHandle(ring, [_sparse_form(ring, 2, rng) for _ in range(3)])
            gens = colon(I, _sparse_form(ring, rng.randint(1, 2), rng)).gens
            want = _reference_minimal(gens)
            assert _span_minimal(gens) == want
            shrank += len(want) < len(gens)
        assert shrank >= 5

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_colon_outputs(self, name):
        P = load_fixture(name).jonquieres()
        gens = colon(P.base_ideal_I(), P.g).gens
        assert _span_minimal(gens) == _reference_minimal(gens)

    def test_needs_forms_of_the_twisted_degrees(self):
        with pytest.raises(StructuralError):
            _minimal_columns([(2, (p("x0^2 + x1"),))], (0,))
        with pytest.raises(StructuralError):
            _minimal_columns([(3, (p("x0^2"),))], (0,))


def _shifted_by_syzygies(I, data):
    """`data` with each content column moved by a monomial multiple of a
    `syzygy_basis` column of I, so it is another lift of the same c_j*g."""
    gens = list(I.gens)
    content = data.content
    phi = syzygy_basis(gens)
    x0 = Polynomial.variable(I.ring, I.ring.names[0])
    columns = []
    for j, twist in enumerate(content.col_twists):
        col = content.column(j)
        fits = [k for k in range(phi.ncols) if phi.col_twists[k] <= twist]
        if fits:
            k = fits[j % len(fits)]
            m = 3 * x0 ** (twist - phi.col_twists[k])
            col = tuple(h + m * s for h, s in zip(col, phi.column(k)))
        columns.append(col)
    moved = GradedMatrix(I.ring, columns, content.row_twists, content.col_twists)
    return dataclasses.replace(data, content=moved)


def _lift_keys(P, data):
    """What `implicitize` and `rees` print from the content columns."""
    mon = implicitize(P)
    syz = [(s.polynomial, s.extraneous_factor) for s in syzygetic_polynomials(P, mon, data)]
    pres, dg = downgraded_rees_ideal(P, mon, data)
    ends = [chain[-1] for chain in dg.chains]
    return syz, ends, dg.factors, len(pres.generators)


class TestNoKeyDependsOnTheLift:
    """A lift is unique up to a syzygy s of I, and sum s_i(g')*g_i(g') = 0
    with g_i(g') = y_i*D; so the syzygetic polynomials, the downgrade chain
    ends and factors and the generator count do not move with it."""

    def _check(self, P):
        I = P.base_ideal_I()
        data = conductor_data(I, P.g)
        moved = _shifted_by_syzygies(I, data)
        assert moved.content != data.content
        for j, cj in enumerate(data.conductors):
            total = sum(
                (h * gi for h, gi in zip(moved.content.column(j), I.gens)), Polynomial.zero(I.ring)
            )
            assert total == cj * P.g
        assert _lift_keys(P, moved) == _lift_keys(P, data)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        self._check(load_fixture(name).jonquieres())

    def test_plane_draws(self, seeded_draws):
        # on these draws the solve and the tracked Buchberger it replaced
        # return different content columns
        for P in seeded_draws("plane", 3, 25_027):
            self._check(P)


class TestGradedMatrix:
    def test_twist_validation(self):
        with pytest.raises(StructuralError):
            GradedMatrix(
                R, [(p("x0"), p("x1^2"))], (1, 1), (2,)
            )

    def test_column_access(self):
        m = GradedMatrix(R, [(p("x0"), p("x1"))], (1, 1), (2,))
        assert m.column(0) == (p("x0"), p("x1"))


class TestSyzygyBasis:
    def test_involution_linear_syzygies(self, involution):
        I = list(involution.forward.coords)
        phi = syzygy_basis(I)
        assert phi.ncols == 2
        assert phi.col_twists == (3, 3)
        for j in range(2):
            total = Polynomial.zero(R)
            for gi, e in zip(I, phi.column(j)):
                total = total + gi * e
            assert total.is_zero()

    def test_space_hilbert_burch_shape(self, space_instance):
        I = list(space_instance.base_ideal_I().gens)
        phi = syzygy_basis(I)
        assert phi.ncols == 3
        assert phi.col_twists == (4, 4, 4)


class TestMappingCone:
    def test_inclusion_single_extra_column(self, space_instance):
        I = space_instance.base_ideal_I()
        phi = syzygy_basis(list(I.gens))
        data = conductor_data(I, space_instance.g)
        psi = mapping_cone_matrix(
            list(I.gens), phi, space_instance.f, space_instance.g, data
        )
        assert psi.ncols == phi.ncols + 1
        # bottom row of the extra column is -f
        assert psi.column(phi.ncols)[-1] == -space_instance.f

    def test_nzd_shape(self, nzd_instance):
        I = nzd_instance.base_ideal_I()
        phi = syzygy_basis(list(I.gens))
        data = conductor_data(I, nzd_instance.g)
        psi = mapping_cone_matrix(
            list(I.gens), phi, nzd_instance.f, nzd_instance.g, data
        )
        n_plus_1 = len(I.gens)
        assert psi.ncols == phi.ncols + n_plus_1
        for j in range(n_plus_1):
            col = psi.column(phi.ncols + j)
            for i in range(n_plus_1):
                if i == j:
                    assert col[i] == nzd_instance.g
                else:
                    assert col[i].is_zero()
            assert col[-1] == -(nzd_instance.f * I.gens[j])

    def test_general_extra_columns_count(self, plane_instance):
        I = plane_instance.base_ideal_I()
        phi = syzygy_basis(list(I.gens))
        data = conductor_data(I, plane_instance.g)
        psi = mapping_cone_matrix(
            list(I.gens), phi, plane_instance.f, plane_instance.g, data
        )
        assert psi.ncols == phi.ncols + len(data.conductors)

    def test_columns_annihilate(self, plane_instance):
        I = plane_instance.base_ideal_I()
        phi = syzygy_basis(list(I.gens))
        data = conductor_data(I, plane_instance.g)
        psi = mapping_cone_matrix(
            list(I.gens), phi, plane_instance.f, plane_instance.g, data
        )
        row = list(plane_instance.coordinates())
        for j in range(psi.ncols):
            total = Polynomial.zero(R)
            for a, b in zip(row, psi.column(j)):
                total = total + a * b
            assert total.is_zero()

    def test_bad_phi_rejected(self, plane_instance):
        I = plane_instance.base_ideal_I()
        bad_phi = GradedMatrix(
            R, [(p("x1"), p("0"), p("0"))], (2, 2, 2), (3,)
        )
        data = conductor_data(I, plane_instance.g)
        with pytest.raises(StructuralError):
            mapping_cone_matrix(
                list(I.gens), bad_phi, plane_instance.f, plane_instance.g, data
            )


class TestSyzygyVerification:
    def test_plane_spans_match(self, plane_instance):
        I = plane_instance.base_ideal_I()
        phi = syzygy_basis(list(I.gens))
        data = conductor_data(I, plane_instance.g)
        psi = mapping_cone_matrix(
            list(I.gens), phi, plane_instance.f, plane_instance.g, data
        )
        ver = verify_syzygy_generation(list(plane_instance.coordinates()), psi)
        assert ver.all_match
        assert ver.bound == max(psi.col_twists) + 2

    def test_space_spans_match(self, space_instance):
        I = space_instance.base_ideal_I()
        phi = syzygy_basis(list(I.gens))
        data = conductor_data(I, space_instance.g)
        psi = mapping_cone_matrix(
            list(I.gens), phi, space_instance.f, space_instance.g, data
        )
        ver = verify_syzygy_generation(
            list(space_instance.coordinates()), psi, degree_bound=6
        )
        assert ver.all_match

    def test_dropped_column_detected(self, plane_instance):
        I = plane_instance.base_ideal_I()
        phi = syzygy_basis(list(I.gens))
        data = conductor_data(I, plane_instance.g)
        psi = mapping_cone_matrix(
            list(I.gens), phi, plane_instance.f, plane_instance.g, data
        )
        # drop the last column
        cols = [psi.column(j) for j in range(psi.ncols - 1)]
        crippled = GradedMatrix(
            R, cols, psi.row_twists, psi.col_twists[:-1]
        )
        ver = verify_syzygy_generation(
            list(plane_instance.coordinates()), crippled, degree_bound=ver_bound(psi)
        )
        assert not ver.all_match
        assert ver.first_failure == 5  # the conductor columns live in degree 5


    @pytest.mark.parametrize(
        "case", [*FIXTURE_NAMES, "plane_dropped_column", "plane_duplicated_column"]
    )
    def test_per_degree_matches_fraction_reference(self, case, request):
        if case in FIXTURE_NAMES:
            P = load_fixture(case).jonquieres()
            psi = _psi_of(P)
            bound = None
        else:
            P = request.getfixturevalue("plane_instance")
            psi = _psi_of(P)
            bound = ver_bound(psi)
            if case == "plane_dropped_column":
                keep = range(psi.ncols - 1)
            else:
                keep = [*range(psi.ncols), 0]
            psi = GradedMatrix(
                psi.ring,
                [psi.column(j) for j in keep],
                psi.row_twists,
                [psi.col_twists[j] for j in keep],
            )
        gens = list(P.coordinates())
        ver = verify_syzygy_generation(gens, psi, bound)
        assert ver.per_degree == fraction_per_degree(gens, psi, ver.bound)
        if case == "plane_dropped_column":
            assert ver.first_failure == 5
        else:
            assert ver.all_match


def ver_bound(psi):
    return max(psi.col_twists) + 2


def _psi_of(P):
    I = P.base_ideal_I()
    phi = syzygy_basis(list(I.gens))
    data = conductor_data(I, P.g)
    return mapping_cone_matrix(list(I.gens), phi, P.f, P.g, data)


def _coefficients(poly, shift, index, key, vec):
    """Add the coefficients of shift*poly into vec at index[key(monomial)]."""
    for m, c in (Polynomial.monomial(poly.ring, shift) * poly).items():
        vec[index[key(m)]] += c


def _evaluation(gens, mu):
    """Slots (i, m) of the degree-mu multiples m*g_i, and the coefficient
    vector of each multiple over the monomials of degree mu, in slot order."""
    n = len(gens[0].ring)
    target = {m: r for r, m in enumerate(monomials_of_degree(n, mu))}
    slots = {}
    cols = []
    for i, g in enumerate(gens):
        for m in monomials_of_degree(n, mu - g.total_degree()):
            slots[i, m] = len(slots)
            col = [0] * len(target)
            _coefficients(g, m, target, lambda m2: m2, col)
            cols.append(col)
    return slots, cols


def _multiples(column, k, slots):
    """Coefficient vectors over `slots` of m*column, for every monomial m of degree k."""
    for m in monomials_of_degree(len(column[0].ring), k):
        vec = [0] * len(slots)
        for i, entry in enumerate(column):
            _coefficients(entry, m, slots, lambda m2, i=i: (i, m2), vec)
        yield vec


def fraction_per_degree(gens, psi, bound):
    """(mu, oracle, span, match) per degree, by `Fraction` Gauss-Jordan.

    The evaluation matrix and the Psi-column multiples are built here from
    polynomial products, independently of `jonq.syzygies`.
    """
    out = []
    for mu in range(min(g.total_degree() for g in gens), bound + 1):
        slots, cols = _evaluation(gens, mu)
        oracle = len(fraction_kernel_basis([list(r) for r in zip(*cols)], len(slots)))
        span = FractionSpan(len(slots))
        for j in range(psi.ncols):
            for vec in _multiples(psi.column(j), mu - psi.col_twists[j], slots):
                span.add(vec)
        out.append((mu, oracle, span.rank, oracle == span.rank))
    return tuple(out)


def fraction_syzygy_basis(gens, bound):
    """(twist, column) pairs of a minimal syzygy basis, degree by degree.

    In every degree mu up to the bound, the kernel vectors of the
    evaluation map (m*g_i) -> R_mu are kept when they lie outside the span
    of the monomial multiples of the columns kept before, all by
    `Fraction` Gauss-Jordan.
    """
    ring = gens[0].ring
    found = []
    for mu in range(min(g.total_degree() for g in gens), bound + 1):
        slots, cols = _evaluation(gens, mu)
        span = FractionSpan(len(slots))
        for twist, col in found:
            for vec in _multiples(col, mu - twist, slots):
                span.add(vec)
        for vec in fraction_kernel_basis([list(r) for r in zip(*cols)], len(slots)):
            if span.add(vec):
                entries = [{} for _ in gens]
                for (i, m), pos in slots.items():
                    entries[i][m] = vec[pos]
                found.append((mu, tuple(Polynomial(ring, e) for e in entries)))
    return found


COEFFS = st.sampled_from((-3, -2, -1, 1, 2, 3))


@st.composite
def equal_degree_forms(draw):
    """2-5 nonzero forms of one degree 1-3 in 3-4 variables.

    Each form has one or two terms: the Rees ideal of a few dense cubics
    holds their implicit equation, which a unit test cannot wait for.
    Besides binomials, the draws give monomial ideals, a repeated
    generator, and pairwise coprime pure powers, whose syzygies are the
    Koszul ones.
    """
    nvars = draw(st.integers(3, 4))
    ring = VariableSet([f"x{i}" for i in range(nvars)])
    deg = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("binomial", "monomial", "repeated", "coprime")))
    if kind == "coprime":
        picks = draw(st.permutations(range(nvars)))[: draw(st.integers(2, nvars))]
        return [
            Polynomial.monomial(ring, [deg * (k == v) for k in range(nvars)], draw(COEFFS))
            for v in picks
        ]
    monos = st.sampled_from(list(monomials_of_degree(nvars, deg)))
    size = 1 if kind == "monomial" else 2
    gens = [
        Polynomial(ring, {m: draw(COEFFS) for m in draw(st.sets(monos, min_size=1, max_size=size))})
        for _ in range(draw(st.integers(2, 5)))
    ]
    if kind == "repeated":
        gens[-1] = gens[draw(st.integers(0, len(gens) - 2))] * draw(COEFFS)
    return gens


def assert_same_syzygies(gens, bound):
    """The columns of twist <= bound of syzygy_basis against
    `fraction_syzygy_basis` up to the bound."""
    phi = syzygy_basis(gens)
    ref = fraction_syzygy_basis(gens, bound)
    columns = [(t, phi.column(j)) for j, t in enumerate(phi.col_twists) if t <= bound]
    assert [t for t, _ in columns] == [t for t, _ in ref]
    for j in range(phi.ncols):
        col = phi.column(j)
        assert sum((g * a for g, a in zip(gens, col)), Polynomial.zero(gens[0].ring)).is_zero()
    for mu in range(min(g.total_degree() for g in gens), bound + 1):
        slots, _ = _evaluation(gens, mu)
        got, want = FractionSpan(len(slots)), FractionSpan(len(slots))
        for span, cols in ((got, columns), (want, ref)):
            for twist, col in cols:
                for vec in _multiples(col, mu - twist, slots):
                    span.add(vec)
        assert got.rank == want.rank
        assert all(got.contains(row) for _, row in want.rows)


class TestSyzygyBasisDifferential:
    @settings(max_examples=60, deadline=None)
    @given(equal_degree_forms(), st.data())
    def test_matches_degree_by_degree_reference(self, gens, data):
        deg = gens[0].total_degree()
        assert_same_syzygies(gens, data.draw(st.integers(deg - 1, 7)))

    def test_source_ring_named_like_the_rees_variables(self):
        Y = VariableSet(["y0", "y1", "y2"])
        gens = [p(t, Y) for t in ("y1*y2", "y0*y2", "y0*y1")]
        assert_same_syzygies(gens, 5)
        assert syzygy_basis(gens).col_twists == (3, 3)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(StructuralError):
            syzygy_basis([p("x0"), p("x1^2")])

    @pytest.mark.parametrize(
        "name, twists",
        [("identity", (2, 2, 2)), ("plane", (3, 3)), ("space", (4, 4, 4)), ("nzd", (3, 3))],
    )
    def test_bound_past_the_last_generator_changes_nothing(self, name, twists):
        gens = list(load_fixture(name).jonquieres().base_ideal_I().gens)
        assert syzygy_basis(gens).col_twists == twists


def de_jonquieres(d, seed):
    """The plane de Jonquieres map of degree d with its inverse, verified.

    G = (x0*q, x1*q, r) with q = x2*a_{d-2} + a_{d-1}, r = x2*b_{d-1} + b_d,
    and G^-1 = (y0*Q, y1*Q, R) with Q = -y2*a_{d-2} + b_{d-1},
    R = y2*a_{d-1} - b_d, for seeded binary forms a_i, b_i of degree i
    (Alberich-Carraminana, Geometry of the Plane Cremona Maps, LNM 1769).
    Draws with a_{d-2}*b_d = a_{d-1}*b_{d-1} are skipped.
    """
    Y = VariableSet(["y0", "y1", "y2"])
    rng = random.Random(seed)

    def binary(ring, coeffs):
        deg = len(coeffs) - 1
        return Polynomial(ring, {(i, deg - i, 0): c for i, c in enumerate(coeffs)})

    while True:
        draw = [
            [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k + 1)]
            for k in (d - 2, d - 1, d - 1, d)
        ]
        a2, a1, b1, b0 = (binary(R, c) for c in draw)
        if a2 * b0 != a1 * b1:
            break
    x0, x1, x2 = Polynomial.gens(R)
    y0, y1, y2 = Polynomial.gens(Y)
    A2, A1, B1, B0 = (binary(Y, c) for c in draw)
    q, r = x2 * a2 + a1, x2 * b1 + b0
    Q, Rinv = -(y2 * A2) + B1, y2 * A1 - B0
    return verify_cremona(
        RationalMapData(R, Y, (x0 * q, x1 * q, r)),
        RationalMapData(Y, R, (y0 * Q, y1 * Q, Rinv)),
    )


class TestDeJonquieresFamily:
    """Phi is the whole Hilbert-Burch matrix of the base ideal, of twists
    d+1 and 2d-1, also where 2d-1 lies past every degree the span check
    walks by default."""

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_phi_twists(self, d):
        gens = list(base_ideal(de_jonquieres(d, 100 + d).forward).gens)
        assert syzygy_basis(gens).col_twists == (d + 1, 2 * d - 1)

    def test_analyze_degree_6(self, tmp_path, capsys):
        cremona = de_jonquieres(6, 106)
        rng = random.Random(6)
        while True:
            f = random_form(R, 1, rng.randrange(1 << 30))
            g = random_form(R, 7, rng.randrange(1 << 30))
            if poly_gcd(f, g).is_constant():
                break
        path = tmp_path / "dj6.jonq"
        path.write_text(
            "ring: x0, x1, x2\n"
            f"cremona: {', '.join(map(str, cremona.forward.coords))}\n"
            f"cremona_inverse: {', '.join(map(str, cremona.inverse.coords))}\n"
            f"f: {f}\ng: {g}\n"
        )
        # the exit code is not checked: bounds.resolution_minimality_predicate
        # reads `fails` here, where its hypothesis reg(R/I) <= d+deg(f)-2 is false
        main(["analyze", str(path), "--machine"])
        data = parse_report(capsys.readouterr().out)
        assert data["phi.col_twists"] == "7 11"
        assert data["syzygy_spans.all_match"] == "holds"


class TestRegularity:
    def test_plane_base_ideal(self, involution):
        I = IdealHandle(R, involution.forward.coords)
        rep = regularity_dim1(I, seed=1)
        assert rep.reg == 1
        assert rep.formula_value == 1
        assert rep.formula_matches_oracle
        assert rep.beg_sat is None  # saturated: +infinity convention
        assert rep.branch_saturation is None
        assert rep.beg_link == 1

    def test_plane_link_is_one_colon(self, involution):
        # alpha spans two of the three conics, so alpha : I = alpha : (g)
        # for the one conic g left over: one colon, whose one intersection
        # is the only one run
        counts = {"colon": 0, "intersect": 0}

        def counting(name):
            fn = getattr(groebner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        I = IdealHandle(R, involution.forward.coords)
        with mock.patch.object(groebner, "colon", counting("colon")), mock.patch.object(
            groebner, "intersect", counting("intersect")
        ):
            rep = regularity_dim1(I, seed=1)
        assert counts == {"colon": 1, "intersect": 1}
        assert rep.beg_link == 1

    def test_saturated_branch_drop(self):
        # complete intersection of two conics: saturated, dim 1
        I = IdealHandle(R, (p("x0^2 - x1*x2"), p("x1^2 - x0*x2")))
        rep = regularity_dim1(I, seed=5)
        assert rep.beg_sat is None
        assert rep.reg == rep.formula_value == 2  # CI(2,2): reg = 2

    def test_formula_counterexample_documented(self):
        # four quadrics where the two-branch formula overshoots: the
        # oracle regularity is 1, branch one evaluates to 2
        J = IdealHandle(R, (p("x0^2"), p("x0*x1"), p("x0*x2"), p("x1^2")))
        rep = regularity_dim1(J, seed=2)
        assert rep.reg == 1
        assert rep.formula_value == 2
        assert not rep.formula_matches_oracle

    def test_truncation_sanity(self, involution):
        from jonq.groebner import graded_piece_dim, saturate

        I = IdealHandle(R, involution.forward.coords)
        rep = regularity_dim1(I, seed=1)
        sat = rep.sat_ideal
        for mu in range(rep.reg + 1, rep.reg + 4):
            assert graded_piece_dim(I, mu) == graded_piece_dim(sat, mu)

    def test_oracle_matches_formula_on_random_acis(self, identity2):
        # paper-scope check: n+1 forms of one degree, codim n
        rng = random.Random(31)
        done = 0
        while done < 3:
            gens = tuple(
                random_form(R, 2, rng.randrange(1 << 30)) for _ in range(3)
            )
            I = IdealHandle(R, gens)
            from jonq.groebner import dim_and_codim

            try:
                dim, codim = dim_and_codim(I)
            except StructuralError:
                continue
            if dim > 1 or codim != 2:
                continue
            rep = regularity_dim1(I, seed=rng.randrange(1 << 30))
            assert rep.formula_matches_oracle
            done += 1

    def test_mixed_degrees_rejected(self):
        I = IdealHandle(R, (p("x0"), p("x1^2")))
        with pytest.raises(HypothesisViolation):
            regularity_dim1(I)

    def test_oracle_point_ring(self):
        # R/(x0, x1) is a polynomial ring in one variable: reg 0
        assert regularity_oracle(IdealHandle(R, (p("x0"), p("x1")))) == 0

    def test_oracle_finite_length(self):
        # R/(x0^2, x1^2, x2^2) has socle degree 3
        I = IdealHandle(R, (p("x0^2"), p("x1^2"), p("x2^2")))
        assert regularity_oracle(I) == 3


def _piece_dim(I, mu):
    """dim I_mu by enumeration: the degree-mu monomials that some lead divides."""
    leads = I.gb().lead_exponents()
    monos = monomials_of_degree(len(I.ring), mu)
    return sum(1 for m in monos if any(all(map(ge, m, lm)) for lm in leads))


def _degree_walking_reg(I, Isat):
    """reg(R/I) for dim(R/I) <= 1 by walking degrees: the oracle's former route.

    end(Isat/I) is the last degree where the two Hilbert functions differ,
    walked until they agree past the generators of Isat; reg(R/Isat) is
    where the Hilbert function of R/Isat stops rising; a unit Isat walks
    until I_mu = R_mu.
    """
    n = len(I.ring)
    if Isat.gb().contains_unit():
        mu = 0
        while _piece_dim(I, mu) < count_monomials(n, mu):
            mu += 1
        return max(mu - 1, 0)
    max_sat_deg = max(h.total_degree() for h in Isat.gb().generators)
    end0 = -1
    mu = 0
    while True:
        if _piece_dim(Isat, mu) > _piece_dim(I, mu):
            end0 = mu
        elif mu >= max_sat_deg:
            break
        mu += 1
    prev = None
    mu = 0
    while True:
        hf = count_monomials(n, mu) - _piece_dim(Isat, mu)
        if hf == prev:
            return max(mu - 1, end0)
        prev = hf
        mu += 1


class TestRegularityAgainstDegreeWalk:
    """The numerator-based oracle against the degree walk it replaced."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_ideals(self, name):
        P = load_fixture(name).jonquieres()
        I = P.base_ideal_I()
        checked = 0
        for X in (I, P.ideal_J(), conductor_data(I, P.g).ideal):
            if X.gb().contains_unit():
                with pytest.raises(StructuralError):
                    regularity_oracle(X)
                continue
            if dim_and_codim(X)[0] > 1:
                with pytest.raises(HypothesisViolation):
                    regularity_oracle(X)
                continue
            want = _degree_walking_reg(X, saturate_by_variables(X))
            assert regularity_oracle(X) == want
            assert regularity_dim1(X).reg == want
            checked += 1
        assert checked == {"identity": 2, "plane": 3, "space": 0, "nzd": 3}[name]

    def test_local_cohomology_term_dominates(self):
        # I = (x1, x2) * (x0, x1, x2)^3: Isat = (x1, x2), so reg(R/Isat) = 0,
        # while Isat/I is nonzero up to degree 3
        cube = list(monomials_of_degree(3, 3))
        gens = [x * Polynomial.monomial(R, m) for x in (p("x1"), p("x2")) for m in cube]
        I = IdealHandle(R, gens)
        Isat = saturate_by_variables(I)
        assert regularity_oracle(Isat) == 0
        assert regularity_oracle(I) == _degree_walking_reg(I, Isat) == 3
        assert regularity_dim1(I).reg == 3


class TestBoundChecks:
    def test_plane_fixture(self, plane_instance, bound_checks):
        checks = {c.name: c for c in bound_checks(plane_instance)}
        assert checks["resolution_minimality_predicate"].status == "holds"
        assert checks["two_branch_formula_vs_oracle"].status == "holds"
        assert checks["cremona_base_regularity_bound"].status == "holds"
        assert checks["cremona_base_regularity_bound"].lhs == 1
        assert checks["cremona_base_regularity_bound"].rhs == 1  # bound attained
        assert checks["jonquieres_ideal_regularity_bound"].status == "holds"
        assert checks["jonquieres_ideal_regularity_equality_nzd"].status == "skipped"
        assert checks["conductor_regularity_bound"].status == "holds"
        assert checks["mapping_cone_regularity_bound"].status == "holds"
        assert checks["mapping_cone_regularity_equality"].status == "holds"

    def test_nzd_equality(self, nzd_instance, bound_checks):
        checks = {c.name: c for c in bound_checks(nzd_instance)}
        assert checks["jonquieres_ideal_regularity_equality_nzd"].status == "holds"

    def test_space_skips(self, space_instance, bound_checks):
        checks = bound_checks(space_instance)
        assert all(c.status == "skipped" for c in checks)

    def test_randomized_plane_instances(self, involution, bound_checks):
        rng = random.Random(2025)
        done = 0
        while done < 5:
            f = random_form(R, 1, rng.randrange(1 << 30))
            g = random_form(R, 3, rng.randrange(1 << 30))
            if not poly_gcd(f, g).is_constant():
                continue
            P = JonquieresData.build(involution, f, g)
            checks = {c.name: c for c in bound_checks(P)}
            for name in ("cremona_base_regularity_bound", "jonquieres_ideal_regularity_bound", "conductor_regularity_bound"):
                if checks[name].status != "skipped":
                    assert checks[name].status == "holds", name
            if checks["jonquieres_ideal_regularity_equality_nzd"].status != "skipped":
                assert checks["jonquieres_ideal_regularity_equality_nzd"].status == "holds"
            done += 1
