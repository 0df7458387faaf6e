"""Conductors, content maps, mapping-cone syzygy matrices, regularity.

The syzygies of the base ideal are read from the y-linear part of its
Rees ideal, one elimination; the syzygies of the mapping cone are then
verified degree by degree with exact linear algebra, up to a
configurable bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import groupby
from operator import add, eq, itemgetter, le

from jonq.errors import HypothesisViolation, MembershipError, StructuralError
from jonq.groebner import (
    Budget,
    IdealHandle,
    _shifted_sum,
    colon,
    colon_ideal,
    dim_and_codim,
    hilbert_numerator,
    ideal_equal,
    saturate_by_variables,
)
from jonq.linalg import SpanTracker, rank, solve
from jonq.orders import DegRevLex
from jonq.rees import rees_ideal
from jonq.ring import Polynomial, monomials_of_degree


@dataclass(frozen=True)
class GradedMatrix:
    """Polynomial matrix with row/column degree twists, stored as its columns.

    Entry i of column j is zero or homogeneous of degree col_twists[j] -
    row_twists[i].  The columns and twists are kept as tuples.
    """

    ring: object
    columns: tuple  # tuple of columns, each a tuple of Polynomial
    row_twists: tuple
    col_twists: tuple

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(map(tuple, self.columns)))
        object.__setattr__(self, "row_twists", tuple(self.row_twists))
        object.__setattr__(self, "col_twists", tuple(self.col_twists))
        if len(self.columns) != len(self.col_twists):
            raise StructuralError("column twist count mismatch")
        for j, col in enumerate(self.columns):
            if len(col) != len(self.row_twists):
                raise StructuralError("ragged graded matrix")
            for i, e in enumerate(col):
                if e.is_zero():
                    continue
                want = self.col_twists[j] - self.row_twists[i]
                if not e.is_homogeneous() or e.total_degree() != want:
                    raise StructuralError(
                        f"entry ({i},{j}) has degree {e.total_degree()}, "
                        f"twists demand {want}"
                    )

    @property
    def ncols(self):
        return len(self.columns)

    def column(self, j):
        return self.columns[j]


@dataclass(frozen=True)
class ConductorData:
    """The conductor I:(g), its case, and minimal generators with content lifts."""

    ideal: IdealHandle  # I : (g)
    kind: str  # inclusion (g in I) | non_zero_divisor (I:g = I) | general
    conductors: tuple  # minimal generators of I : (g)
    degrees: tuple  # C_j
    content: GradedMatrix  # h_ij with c_j*g = sum_i h_ij g_i


def conductor_data(I, g, budget=None):
    """Conductor I:(g) with its case and the content map columns.

    g lies in I exactly when I:(g) is the unit ideal, so the inclusion case
    is read by one membership test against I's cached basis: the single
    conductor is 1, and no `colon` elimination runs.  Otherwise the colon
    is computed.  Its minimal generators are the quotients `colon` returns,
    made canonical and sorted by degree, then degrevlex lead, less those
    that `_minimal_columns` finds in the span of the ones before them; no
    S-pairs are charged for that.  When I:(g) = I the conductors are the
    generators of I themselves and the content map is g times the
    identity (the non-zero-divisor shape).  In the other two cases each
    content column is one `lift` of c_j*g, a linear solve charging no
    S-pairs; it is unique only up to a syzygy of I, and no printed key
    depends on which.
    """
    if g.is_zero():
        raise StructuralError("conductor of the zero form")
    ring = I.ring
    gens = list(I.gens)
    dg = g.total_degree()
    if I.contains(g, budget):
        kind = "inclusion"
        conductors = [Polynomial.constant(ring, 1)]
        cond = IdealHandle(ring, conductors)
    else:
        order = DegRevLex(len(ring))
        quots = [q.canonical() for q in colon(I, g, budget=budget).gens]
        quots.sort(key=lambda q: order.key(q.lead_term(order)[0]))  # by degree, then lead
        kept = _minimal_columns([(q.total_degree(), (q,)) for q in quots], (0,))
        cond = IdealHandle(ring, [quots[j] for j in kept])
        same = ideal_equal(cond, I, budget)
        kind = "non_zero_divisor" if same else "general"
        conductors = gens if same else list(cond.gens)
    if kind == "non_zero_divisor":
        zero = Polynomial.zero(ring)
        columns = [[g if k == j else zero for k in range(len(gens))] for j in range(len(gens))]
    else:
        columns = [lift(cj * g, gens) for cj in conductors]
    degrees = tuple(c.total_degree() for c in conductors)
    row_twists = [gi.total_degree() for gi in gens]
    content = GradedMatrix(ring, columns, row_twists, [C + dg for C in degrees])
    return ConductorData(cond, kind, tuple(conductors), degrees, content)


# -- syzygies -----------------------------------------------------------------


def _slots(row_twists, nvars, mu):
    """(row i, monomial m) for every monomial m of degree mu - row_twists[i]."""
    slots = []
    for i, t in enumerate(row_twists):
        if mu >= t:
            slots.extend((i, mono) for mono in monomials_of_degree(nvars, mu - t))
    return slots


def _shifted_vectors(col, k, index):
    """Sparse coefficient rows of m*col for every monomial m of degree k.

    `col` is a tuple of polynomials; `index` maps (entry position,
    monomial) to a coordinate.  Each row is a dict {coordinate:
    coefficient} holding the terms of m*col only: distinct terms of col
    stay distinct after the shift by m, so no two share a coordinate.
    """
    terms = [(gi, m2, c2) for gi, entry in enumerate(col) for m2, c2 in entry.items()]
    for mono in monomials_of_degree(len(col[0].ring), k):
        yield {index[gi, tuple(map(add, m2, mono))]: c2 for gi, m2, c2 in terms}


def _evaluation_columns(gens, mu):
    """Slots of degree mu, and the image of each slot in R_mu.

    The image of the slot m*g_i is the coefficient vector of m*g_i over
    the `ntarget` monomials of degree mu, as a sparse row {monomial
    position: coefficient}; the list of images, in slot order, is the
    column list of the evaluation map (m*g_i) -> R_mu.
    """
    target = monomials_of_degree(len(gens[0].ring), mu)
    index = {(0, m): r for r, m in enumerate(target)}
    cols = []
    for g in gens:
        k = mu - g.total_degree()
        if k >= 0:
            cols.extend(_shifted_vectors((g,), k, index))
    return _slots([g.total_degree() for g in gens], len(gens[0].ring), mu), len(index), cols


def _minimal_columns(columns, row_twists):
    """Indices of the columns outside the span of the monomial multiples of
    the columns kept before them.

    `columns` is a list of (twist, column) in ascending twist, a column a
    tuple of forms, entry i zero or of degree twist - row_twists[i].  For
    forms, a column lies in the submodule the kept ones generate exactly
    when it lies in that span in its own twist (Lazard, EUROCAL '83), so the
    kept columns generate what all of them generate, minimally.  One
    `SpanTracker` per twist takes the multiples of the columns kept at
    lower twists, then the columns of that twist one by one.  Raises
    StructuralError unless the entries are forms of those degrees.
    """
    for mu, col in columns:
        if any(
            not e.is_zero() and (not e.is_homogeneous() or e.total_degree() != mu - t)
            for e, t in zip(col, row_twists)
        ):
            raise StructuralError("minimal columns need forms of the twisted degrees")
    kept = []
    for mu, group in groupby(range(len(columns)), key=lambda j: columns[j][0]):
        nvars = len(columns[0][1][0].ring)
        index = {sm: pos for pos, sm in enumerate(_slots(row_twists, nvars, mu))}
        tracker = SpanTracker(len(index))
        for j in kept:
            t, col = columns[j]
            for vec in _shifted_vectors(col, mu - t, index):
                tracker.add(vec)
        for j in group:
            if tracker.add(next(_shifted_vectors(columns[j][1], 0, index))):
                kept.append(j)
    return kept


def lift(p, gens):
    """Forms h_i with p = sum h_i*gens_i, each zero or of degree deg p - deg gens_i.

    For forms, p lies in the ideal of `gens` exactly when its image in R_mu,
    mu = deg p, lies in the span of the images of the degree-mu slots
    m*g_i (Lazard, EUROCAL '83), so one `linalg.solve` over
    `_evaluation_columns`, with p's own image as the last column, decides
    membership and gives the h_i.  A lift is unique only up to a syzygy of
    `gens`.  Raises StructuralError unless p and `gens` are forms over one
    ring, and MembershipError when p is not in the ideal; no S-pairs are
    charged.
    """
    if not gens:
        raise MembershipError("no generators to lift against")
    ring = gens[0].ring
    if any(h.ring != ring for h in (p, *gens)):
        raise StructuralError("lift: mixed variable sets")
    if not all(h.is_homogeneous() for h in (p, *gens)):
        raise StructuralError("lift needs forms")
    live = [i for i, g in enumerate(gens) if not g.is_zero()]
    out = [{} for _ in gens]
    if not p.is_zero():
        slots, ntarget, cols = _evaluation_columns([gens[i] for i in live] + [p], p.total_degree())
        coeffs = solve(cols[:-1], ntarget, cols[-1])
        if coeffs is None:
            raise MembershipError("polynomial is not in the ideal of the generators")
        for (gi, mono), a in zip(slots, coeffs):
            if a:
                out[live[gi]][mono] = a
    return [Polynomial(ring, e) for e in out]


def syzygy_basis(gens):
    """A minimal generating set of the syzygies of `gens`, as a GradedMatrix.

    sum a_i y_i lies in the Rees ideal of the g_i exactly when
    sum a_i g_i = 0, and the Rees ideal has no element of y-degree 0; so
    the y-linear elements of its reduced bihomogeneous basis generate the
    syzygies (Vasconcelos, Arithmetic of Blowup Algebras, 1994).  By
    ascending twist, each is kept unless it lies in the span of the
    monomial multiples of the columns kept before it (`_minimal_columns`).
    `gens` must be nonzero forms of one degree d, as a Cremona base ideal
    is, or `rees_ideal` raises StructuralError.  The elimination runs on
    its own Budget and charges no S-pairs to the caller's.
    """
    ring = gens[0].ring
    n, d = len(ring), gens[0].total_degree()
    ext = ring
    for _ in gens:  # y names the source ring does not use
        ext = ext.extended(ext.fresh_name("y"))
    rees = rees_ideal(gens, y_names=ext.names[n:], budget=Budget())
    columns = []  # (twist, column) of each y-linear basis element
    for h in rees.generators:
        mu = h.total_degree() - 1 + d
        if h.degree_in(range(n, len(ext))) == 1:
            entries = [{} for _ in gens]
            for mono, c in h.items():
                entries[mono.index(1, n) - n][mono[:n]] = c
            columns.append((mu, tuple(Polynomial(ring, e) for e in entries)))
    columns.sort(key=itemgetter(0))
    rows = (d,) * len(gens)
    found = [columns[j] for j in _minimal_columns(columns, rows)]
    return GradedMatrix(ring, [col for _, col in found], rows, [mu for mu, _ in found])


def _check_annihilates(columns, row, message):
    """Raise StructuralError(message.format(j)) for the first column j whose
    entries do not annihilate `row`: sum row_i * column_i != 0."""
    zero = Polynomial.zero(row[0].ring)
    for j, col in enumerate(columns):
        if not sum((r * e for r, e in zip(row, col)), zero).is_zero():
            raise StructuralError(message.format(j))


def mapping_cone_matrix(I_gens, phi, f, g, conductor):
    """The block syzygy matrix Psi = [[phi, c(g)], [0, -f*pi]] of (If, g).

    Columns are verified to annihilate the row (g_0 f, ..., g_n f, g);
    phi columns must be syzygies of the g_i.
    """
    gens = list(I_gens)
    _check_annihilates(phi.columns, gens, "phi column {} is not a syzygy of the g_i")
    zero = Polynomial.zero(f.ring)
    content = conductor.content
    columns = [col + (zero,) for col in phi.columns] + [
        col + (-(f * cj),) for col, cj in zip(content.columns, conductor.conductors)
    ]
    row = [gi * f for gi in gens] + [g]
    df = f.total_degree()
    psi = GradedMatrix(
        f.ring,
        columns,
        [r.total_degree() for r in row],
        [t + df for t in phi.col_twists + content.col_twists],
    )
    _check_annihilates(psi.columns, row, "Psi column {} fails to annihilate (If, g)")
    return psi


@dataclass(frozen=True)
class SyzygyVerification:
    bound: int
    per_degree: tuple  # (mu, oracle_dim, span_dim, match)
    all_match: bool
    first_failure: int | None


def verify_syzygy_generation(J_gens, psi, degree_bound=None):
    """Compare spans of Psi-column multiples with the true syzygy spaces.

    For each degree mu up to the bound, the k-linear span of monomial
    multiples of the Psi columns is compared (by dimension) with the
    kernel of the evaluation map, computed by exact linear algebra.
    """
    gens = list(J_gens)
    if degree_bound is None:
        degree_bound = max(psi.col_twists) + 2 if psi.col_twists else 2
    report = []
    first_bad = None
    start = min(g.total_degree() for g in gens)
    for mu in range(start, degree_bound + 1):
        slots, ntarget, cols = _evaluation_columns(gens, mu)
        # dim ker E = #slots - rank E, and rank E is the rank of its columns
        oracle_dim = len(cols) - rank(cols, ntarget)
        slot_index = {sm: i for i, sm in enumerate(slots)}
        multiples = (
            vec
            for j in range(psi.ncols)
            if mu >= psi.col_twists[j]
            for vec in _shifted_vectors(psi.column(j), mu - psi.col_twists[j], slot_index)
        )
        span_dim = rank(multiples, len(slots))
        match = span_dim == oracle_dim
        if not match and first_bad is None:
            first_bad = mu
        report.append((mu, oracle_dim, span_dim, match))
    return SyzygyVerification(degree_bound, tuple(report), first_bad is None, first_bad)


# -- regularity ---------------------------------------------------------------


INF = None  # beg(0) = +infinity is represented as None


@dataclass(frozen=True)
class RegularityReport:
    reg: int  # the local-cohomology value (authoritative)
    formula_value: int | None  # two-branch formula (paper scope)
    branch_saturation: int | None
    beg_sat: int | None  # None = +infinity
    beg_link: int | None
    sat_ideal: IdealHandle
    alpha_colon_contains_I: bool
    formula_matches_oracle: bool


def _beg_quotient(big, small, budget=None):
    """min degree where a generator of `big` is outside `small`; None if none."""
    out = None
    for h in big.gb(budget=budget).generators:
        if not small.contains(h, budget):
            d = h.total_degree()
            if out is None or d < out:
                out = d
    return out


def regularity_oracle(I, budget=None):
    """reg(R/I) for dim(R/I) <= 1 via graded local cohomology sizes.

    reg = max(end(Isat/I), reg(R/Isat), 0) from the Hilbert-Poincare numerators
    of I and its saturation Isat: HS(Isat/I) = (N_I - N_sat)/(1-s)^n has degree
    end(Isat/I), the h-polynomial N_sat/(1-s)^(n-1) degree reg(R/Isat), as
    Isat/I has finite length and dim R/Isat = 1 unless Isat is the unit ideal.
    """
    if I.is_zero_ideal():
        raise StructuralError("regularity oracle needs a nonzero proper ideal")
    dim, _ = dim_and_codim(I, budget)
    if dim > 1:
        raise HypothesisViolation("regularity oracle requires dim(R/I) <= 1")
    Isat = saturate_by_variables(I, budget)
    return _local_cohomology_reg(I, Isat, budget)


def _local_cohomology_reg(I, Isat, budget):
    """`regularity_oracle` given Isat, the saturation of I by the variables."""
    n = len(I.ring)
    sat = hilbert_numerator(Isat, budget)
    h0 = _shifted_sum(hilbert_numerator(I, budget), sat, sign=-1)
    return max(len(h0) - 1 - n, len(sat) - n, 0)


ALPHA_ATTEMPTS = 16  # seeded draws of alpha before regularity_dim1 gives up


def regularity_dim1(I, seed=0, budget=None):
    """Two-branch regularity formula plus the independent oracle value.

    Requires dim(R/I) <= 1 and generators in a single degree d, which is
    read off them.  `reg` carries the oracle value; the formula value is
    reported alongside with a comparison flag (they coincide on
    n+1-generator Cremona-type ideals, but not for arbitrary generator
    counts).
    """
    ring = I.ring
    n = len(ring) - 1
    budget = budget or Budget()
    dim, _ = dim_and_codim(I, budget)
    if dim > 1:
        raise HypothesisViolation("regularity_dim1 requires dim(R/I) <= 1")
    degs = {g.total_degree() for g in I.gens}
    if len(degs) != 1:
        raise HypothesisViolation(
            f"regularity_dim1 requires generation in a single degree, got {sorted(degs)}"
        )
    (d,) = degs
    Isat = saturate_by_variables(I, budget)
    beg_sat = _beg_quotient(Isat, I, budget)
    # alpha: n seeded random combinations of the generators, codim n
    rng = random.Random(seed)
    alpha = None
    for _ in range(ALPHA_ATTEMPTS):
        cand = []
        for _k in range(n):
            acc = Polynomial.zero(ring)
            for g in I.gens:
                acc = acc + g * rng.choice((-3, -2, -1, 1, 2, 3))
            cand.append(acc)
        A = IdealHandle(ring, tuple(cand))
        if len(A.gens) != n:
            continue
        try:
            _, codim = dim_and_codim(A, budget)
        except StructuralError:
            continue
        if codim == n:
            alpha = tuple(cand)
            break
    if alpha is None:
        raise HypothesisViolation(
            "failed to draw a maximal regular sequence of d-forms "
            f"after {ALPHA_ATTEMPTS} attempts"
        )
    A = IdealHandle(ring, alpha)
    # alpha : I = alpha : B for the generators B of I outside the span of
    # alpha; for a Cremona base ideal B is one form
    kept = _minimal_columns([(d, (h,)) for h in alpha + I.gens], (0,))
    missed = tuple(I.gens[j - n] for j in kept if j >= n)
    if missed:
        link = colon_ideal(A, IdealHandle(ring, missed), budget)
    else:  # I inside alpha
        link = IdealHandle(ring, (Polynomial.constant(ring, 1),))
    beg_link = _beg_quotient(link, I, budget)
    contains_I = link.contains_ideal(I, budget)
    branch_sat = (n + 1) * (d - 1) - beg_sat if beg_sat is not None else None
    branch_link = n * (d - 1) - beg_link if beg_link is not None else None
    branches = [b for b in (branch_sat, branch_link) if b is not None]
    formula = max(branches) if branches else None
    oracle = _local_cohomology_reg(I, Isat, budget)
    return RegularityReport(
        reg=oracle,
        formula_value=formula,
        branch_saturation=branch_sat,
        beg_sat=beg_sat,
        beg_link=beg_link,
        sat_ideal=Isat,
        alpha_colon_contains_I=contains_I,
        formula_matches_oracle=(formula == oracle),
    )


@dataclass(frozen=True)
class BoundCheck:
    name: str
    status: str  # holds | fails | skipped
    lhs: object = None
    rhs: object = None
    reason: str = ""


BOUND_NAMES = (
    "resolution_minimality_predicate",
    "two_branch_formula_vs_oracle",
    "cremona_base_regularity_bound",
    "jonquieres_ideal_regularity_bound",
    "jonquieres_ideal_regularity_equality_nzd",
    "conductor_regularity_bound",
    "mapping_cone_regularity_bound",
    "mapping_cone_regularity_equality",
)


def regularity_bound_checks(P, I, conductor, report, budget=None):
    """Evaluate the regularity bounds and equalities exactly, one row each.

    `I` is the base ideal of `P`, `conductor` its `conductor_data` with
    `P.g`, and `report` the `regularity_dim1` report of `I` (None when
    dim(R/I) > 1).  The regularities are computed first, with the
    local-cohomology oracle.  Then each name of BOUND_NAMES is one row
    (name, hypotheses, lhs, relation, rhs), a hypothesis a pair (holds,
    reason): the row is skipped with the reason of its first hypothesis
    that fails, and otherwise holds or fails as relation(lhs, rhs).
    """
    budget = budget or Budget()
    dim_I, _ = dim_and_codim(I, budget)
    if dim_I > 1:
        reason = f"dim(R/I) = {dim_I} > 1"
        return [BoundCheck(name, "skipped", reason=reason) for name in BOUND_NAMES]
    n, d = P.n, P.cremona.degree
    df, dg = P.f.total_degree(), P.g.total_degree()
    kind = conductor.kind
    reg_I = report.reg
    J = P.ideal_J()
    dim_J, _ = dim_and_codim(J, budget)
    reg_J = regularity_oracle(J, budget) if dim_J <= 1 else None
    dim_c = reg_c = None
    if kind != "inclusion":
        dim_c, _ = dim_and_codim(conductor.ideal, budget)
        if kind == "non_zero_divisor":
            reg_c = reg_I  # I:(g) = I
        elif dim_c <= 1:
            reg_c = regularity_oracle(conductor.ideal, budget)

    base_locus = (d >= 2 and dim_I == 1, "needs deg(G) >= 2 and a nonempty base locus")
    known_J = (reg_J is not None, f"dim(R/(If,g)) = {dim_J} > 1")
    nzd = (kind == "non_zero_divisor", "g is a zero-divisor on R/I")
    proper = (kind != "inclusion", "I:(g) is the unit ideal (g in I)")
    small = (reg_I <= dg - 2, f"hypothesis reg(R/I) <= deg(g)-2 fails ({reg_I} > {dg - 2})")
    known_c = (reg_c is not None, f"dim(R/(I:g)) = {dim_c} > 1")
    unavailable = "regularity of R/(If,g) or R/(I:g) unavailable at dim > 1"
    cone = ((reg_J is not None, unavailable), proper, (reg_c is not None, unavailable))
    minimal = (reg_I <= d + df - 2, "minimality predicate reg(R/I) <= d+deg(f)-2 fails")
    J_rhs = reg_I + df + dg - 1
    cone_rhs = None if reg_c is None else reg_c + d + 2 * df - 1
    cone_max = None if reg_c is None else max(reg_I + df, cone_rhs)

    def matches(formula, reg):  # the report's own verdict on formula == reg
        return report.formula_matches_oracle

    rows = (
        ("resolution_minimality_predicate", (), reg_I, le, d + df - 2),
        ("two_branch_formula_vs_oracle", (), report.formula_value, matches, reg_I),
        ("cremona_base_regularity_bound", (base_locus,), reg_I, le, n * (d - 1) - 1),
        ("jonquieres_ideal_regularity_bound", (known_J,), reg_J, le, J_rhs),
        ("jonquieres_ideal_regularity_equality_nzd", (known_J, nzd), reg_J, eq, J_rhs),
        ("conductor_regularity_bound", (proper, small, known_c), reg_c, le, reg_I),
        ("mapping_cone_regularity_bound", cone, reg_J, le, cone_max),
        ("mapping_cone_regularity_equality", (*cone, minimal), reg_J, eq, cone_rhs),
    )
    checks = []
    for name, hypotheses, lhs, relation, rhs in rows:
        skip = next((reason for holds, reason in hypotheses if not holds), None)
        if skip:
            checks.append(BoundCheck(name, "skipped", reason=skip))
        else:
            checks.append(BoundCheck(name, "holds" if relation(lhs, rhs) else "fails", lhs, rhs))
    return checks
