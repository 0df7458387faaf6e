"""Small exact linear algebra over Q by fraction-free elimination.

Vectors come in as lists of ints and Fractions.  Each one is scaled by
the lcm of its denominators to a primitive integer row, and every
elimination step divides the result by its content again, so no
`Fraction` arithmetic runs while eliminating and the entries stay small
(integer-preserving elimination in the sense of Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 1968).  The rows are kept in reduced echelon form; that form is
unique up to the scale of each row, so ranks and span decisions are
exactly those of Gauss-Jordan elimination over Q.
"""

from __future__ import annotations

from bisect import insort
from math import gcd, lcm
from operator import attrgetter, itemgetter

_denominator = attrgetter("denominator")
_pivot_of = itemgetter(0)


def _primitive(v):
    """The integer vector `v` divided by its content."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _integer_row(vec):
    """`vec` scaled by the lcm of its denominators, as a primitive integer list."""
    den = lcm(*map(_denominator, vec))
    if den == 1:
        return _primitive(list(map(int, vec)))
    return _primitive([x.numerator * (den // x.denominator) for x in vec])


def _eliminate(v, rows):
    """`v` with the pivot columns of `rows` cleared, divided by its content.

    `rows` are (pivot column, primitive integer row) pairs in reduced
    echelon form: each row is zero in the pivot columns of the others, so
    one pass clears them all, in any order.
    """
    for pc, row in rows:
        c = v[pc]
        if c:
            p = row[pc]
            g = gcd(c, p)
            a, b = p // g, c // g
            v = _primitive([a * x - b * y for x, y in zip(v, row)])
    return v


class SpanTracker:
    """Incremental row space: primitive integer rows in reduced echelon form.

    `rows` is a list of (pivot column, row) pairs sorted by pivot; every
    row has content 1 and a positive pivot entry, and is zero in the pivot
    columns of the other rows.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Insert the vector; returns True when it enlarged the span."""
        v = _eliminate(_integer_row(vec), self.rows)
        pivot = next((k for k, x in enumerate(v) if x), -1)
        if pivot < 0:
            return False
        if v[pivot] < 0:
            v = [-x for x in v]
        new = ((pivot, v),)
        self.rows = [(pc, _eliminate(row, new)) for pc, row in self.rows]
        insort(self.rows, (pivot, v), key=_pivot_of)
        return True

    def contains(self, vec):
        return not any(_eliminate(_integer_row(vec), self.rows))


def _echelon(rows, ncols):
    """A tracker of the row space of `rows`; once that is all of Q^ncols,
    the remaining rows are not read."""
    tracker = SpanTracker(ncols)
    for r in rows:
        if tracker.rank == ncols:
            break
        tracker.add(r)
    return tracker


def rank(rows, ncols):
    """Rank of the matrix with the given rows of length ncols."""
    return _echelon(rows, ncols).rank
