"""The sparse fraction-free elimination engine of `jonq.linalg` against `Fraction` Gauss-Jordan.

Ranks and span decisions over Q do not depend on how a row space is
written down, so they must agree exactly with the reference in
`fraction_linalg`; `solve`'s coefficients are not unique, so they are
checked by the combination they give.  The engine takes sparse rows; a dense test row `row`
goes in as `dict(enumerate(row))`.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fraction_linalg import FractionSpan, fraction_rank
from jonq.linalg import SpanTracker, rank, solve


small = st.integers(-3, 3)
huge = st.integers(-(2**70), 2**70)
fractions = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40))
entries = st.one_of(small, small, huge, fractions)


@st.composite
def matrices(draw, max_dim=7):
    """(rows, ncols): wide or tall, with zero rows and repeated rows mixed in."""
    ncols = draw(st.integers(0, max_dim))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=max_dim))
    extra = draw(st.lists(st.sampled_from(("zero", "repeat", "scaled")), max_size=3))
    for kind in extra:
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            scale = 1 if kind == "repeat" else draw(st.sampled_from((-2, Fraction(3, 5))))
            rows.append([scale * x for x in row])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_fraction_gauss_jordan(mat):
    rows, ncols = mat
    sparse = [dict(enumerate(row)) for row in rows]
    assert rank(sparse, ncols) == fraction_rank(rows, ncols)
    assert rank(iter(sparse), ncols) == fraction_rank(rows, ncols)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.lists(st.lists(small, min_size=7, max_size=7), max_size=4))
def test_span_tracker_matches_fraction_span(mat, probes):
    rows, ncols = mat
    tracker, ref = SpanTracker(ncols), FractionSpan(ncols)
    for row in rows:
        sparse = dict(enumerate(row))
        assert tracker.contains(sparse) == ref.contains(row)
        assert tracker.add(sparse) == ref.add(row)
        assert tracker.rank == ref.rank
        assert tracker.contains(sparse)
    for probe in probes:
        probe = probe[:ncols]
        assert tracker.contains(dict(enumerate(probe))) == ref.contains(probe)
    _assert_echelon_invariant(tracker, ref)


def _assert_echelon_invariant(tracker, ref):
    """The rows the engine keeps: sparse primitive integer rows in row
    echelon form, one per pivot, spanning the reference's row space."""
    for pc, row in tracker.rows.items():
        assert min(row) == pc  # no entry before the pivot
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1 and row[pc] > 0
    assert tracker.rank == ref.rank
    assert all(tracker.contains(dict(enumerate(row))) for _, row in ref.rows)


nonzero = entries.filter(bool)


@st.composite
def sparse_matrices(draw, max_cols=60, max_rows=40):
    """(rows, ncols): wide sparse rows with 1 to 5 nonzeros each, the shape
    of the syzygy-span matrices, with zero, repeated and scaled rows mixed in."""
    ncols = draw(st.integers(1, max_cols))
    column = st.integers(0, ncols - 1)
    row = st.dictionaries(column, nonzero, min_size=1, max_size=5)
    rows = draw(st.lists(row, max_size=max_rows))
    extra = draw(st.lists(st.sampled_from(("zero", "repeat", "scaled")), max_size=6))
    for kind in extra:
        if kind == "zero" or not rows:
            rows.append(draw(st.sampled_from(({}, {draw(column): 0}))))
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            scale = 1 if kind == "repeat" else draw(st.sampled_from((-2, Fraction(3, 5), 2**70)))
            rows.append({c: scale * x for c, x in row.items()})
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


def _dense(row, ncols):
    return [row.get(c, 0) for c in range(ncols)]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.data())
def test_sparse_rows_match_fraction_gauss_jordan(mat, data):
    rows, ncols = mat
    dense = [_dense(row, ncols) for row in rows]
    assert rank(rows, ncols) == fraction_rank(dense, ncols)
    tracker, ref = SpanTracker(ncols), FractionSpan(ncols)
    for row, full in zip(rows, dense):
        assert tracker.contains(row) == ref.contains(full)
        assert tracker.add(row) == ref.add(full)
        assert tracker.rank == ref.rank
        assert tracker.contains(row)
    column = st.integers(0, ncols - 1)
    probes = data.draw(st.lists(st.dictionaries(column, nonzero, min_size=1, max_size=5), max_size=4))
    for probe in probes:
        assert tracker.contains(probe) == ref.contains(_dense(probe, ncols))
    _assert_echelon_invariant(tracker, ref)


def _then_fail(rows):
    yield from rows
    raise AssertionError("rank read a row after reaching full rank")


def _nonzero_entry(rng):
    """A draw like `nonzero`: small half the time, else a 70-bit integer or fraction."""
    kind = rng.randrange(4)
    if kind < 2:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    big = rng.choice((-1, 1)) * rng.randint(1, 2**70)
    return big if kind == 2 else Fraction(big, rng.randint(1, 2**40))


@st.composite
def full_rank_matrices(draw):
    """(rows, ncols): a triangular basis, one row per column with up to 4
    entries after its pivot, shuffled in among the rows of `sparse_matrices`.

    The basis and the shuffle come from one Hypothesis-driven `Random`:
    a strategy drawn per entry cost most of the test's time."""
    noise, ncols = draw(sparse_matrices())
    rng = draw(st.randoms(use_true_random=False))
    rows = list(noise)
    for pc in range(ncols):
        row = {rng.randint(pc, ncols - 1): _nonzero_entry(rng) for _ in range(rng.randint(0, 4))}
        rows.append({**row, pc: _nonzero_entry(rng)})
    rng.shuffle(rows)
    return rows, ncols


@settings(max_examples=100, deadline=None)
@given(full_rank_matrices())
def test_rank_stops_reading_at_full_rank(mat):
    rows, ncols = mat
    assert rank(_then_fail(rows), ncols) == ncols


@pytest.mark.parametrize("ncols", [0, 1, 4])
def test_empty_row_list(ncols):
    assert rank([], ncols) == 0
    tracker = SpanTracker(ncols)
    assert tracker.rank == 0
    assert tracker.contains({})
    assert tracker.contains(dict.fromkeys(range(ncols), 0))
    assert not tracker.add(dict.fromkeys(range(ncols), 0))


def test_full_rank_stops_early_with_the_same_answer():
    rows = [{0: 1}, {1: 1}, {0: 5, 1: 7}, {0: 2**70, 1: Fraction(1, 3)}]
    assert rank(rows, 2) == 2


def _combination(coeffs, rows, ncols):
    return [sum((a * row.get(c, 0) for a, row in zip(coeffs, rows)), Fraction(0)) for c in range(ncols)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_matrices(), st.data())
def test_solve_matches_fraction_span(mat, data):
    """A target in the span comes back as an exact combination of the rows;
    one off the span, a combination plus e_c for a column c that is no
    pivot of the reference's reduced row echelon form, gives None."""
    rows, ncols = mat
    ref = FractionSpan(ncols)
    for row in rows:
        ref.add(_dense(row, ncols))
    weights = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    inside = _combination(weights, rows, ncols)
    for target in (inside, [0] * ncols):
        got = solve(rows, ncols, dict(enumerate(target)))
        assert got is not None and len(got) == len(rows)
        assert _combination(got, rows, ncols) == target
    column = st.integers(0, ncols - 1)
    probe = data.draw(st.dictionaries(column, nonzero, min_size=1, max_size=5))
    got = solve(rows, ncols, probe)
    if ref.contains(_dense(probe, ncols)):
        assert _combination(got, rows, ncols) == _dense(probe, ncols)
    else:
        assert got is None
    pivots = {pc for pc, _ in ref.rows}
    free = [c for c in range(ncols) if c not in pivots]
    if free:
        off = list(inside)
        off[data.draw(st.sampled_from(free))] += data.draw(nonzero)
        assert solve(rows, ncols, dict(enumerate(off))) is None


def test_solve_without_rows():
    assert solve([], 3, {}) == []
    assert solve([], 3, {1: 0}) == []
    assert solve([], 3, {1: Fraction(2, 3)}) is None
    assert solve([{0: 2, 1: 4}, {0: 1, 1: 2}], 2, {0: 3, 1: 6}) is not None
    assert solve([{0: 2, 1: 4}, {0: 1, 1: 2}], 2, {0: 3, 1: 5}) is None
