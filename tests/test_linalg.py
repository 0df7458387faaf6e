"""The fraction-free elimination engine of `jonq.linalg` against `Fraction` Gauss-Jordan.

The reduced row echelon form over Q is unique, so ranks and span
decisions must agree exactly with the reference in `fraction_linalg`.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fraction_linalg import FractionSpan, fraction_rank
from jonq.linalg import SpanTracker, rank


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
    assert rank(rows, ncols) == fraction_rank(rows, ncols)
    assert rank(iter(rows), ncols) == fraction_rank(rows, ncols)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.lists(st.lists(small, min_size=7, max_size=7), max_size=4))
def test_span_tracker_matches_fraction_span(mat, probes):
    rows, ncols = mat
    tracker, ref = SpanTracker(ncols), FractionSpan(ncols)
    for row in rows:
        assert tracker.contains(row) == ref.contains(row)
        assert tracker.add(row) == ref.add(row)
        assert tracker.rank == ref.rank
        assert tracker.contains(row)
    for probe in probes:
        probe = probe[:ncols]
        assert tracker.contains(probe) == ref.contains(probe)
    # the invariant the engine keeps: primitive integer rows with a
    # positive pivot, in reduced echelon form sorted by pivot
    pivots = [pc for pc, _ in tracker.rows]
    assert pivots == sorted(pivots) == [pc for pc, _ in ref.rows]
    for pc, row in tracker.rows:
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1 and row[pc] > 0
        assert not any(row[:pc])
        assert all(row[other] == 0 for other in pivots if other != pc)
        assert [Fraction(x, row[pc]) for x in row] == dict(ref.rows)[pc]


@pytest.mark.parametrize("ncols", [0, 1, 4])
def test_empty_row_list(ncols):
    assert rank([], ncols) == 0
    tracker = SpanTracker(ncols)
    assert tracker.rank == 0
    assert tracker.contains([0] * ncols)
    assert not tracker.add([0] * ncols)


def test_full_rank_stops_early_with_the_same_answer():
    rows = [[1, 0], [0, 1], [5, 7], [2**70, Fraction(1, 3)]]
    assert rank(rows, 2) == 2
