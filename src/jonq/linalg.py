"""Small exact linear algebra over Q by sparse fraction-free elimination.

Vectors come in as sparse rows, dicts {column: entry} of ints and
Fractions (zero entries are dropped).  Each one is scaled by the lcm of
its denominators to a primitive integer row, and every elimination step
divides the result by its content again, so no `Fraction` arithmetic
runs while eliminating and the entries stay small (integer-preserving
elimination in the sense of Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968).  The rows
are kept in row echelon form, not reduced form: an incoming row is
reduced against the stored rows and a stored row is never rewritten.
The row space is exactly the one Gauss elimination over Q spans, so
ranks and span decisions are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SpanTracker:
    """Incremental row space: sparse primitive integer rows in row echelon form.

    `rows` maps the pivot column of each stored row to the row, a dict
    {column: nonzero int} with content 1, a positive entry at the pivot
    and no entry in a column before it.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def _remainder(self, vec):
        """`vec` reduced by the stored rows: a primitive integer dict, empty when
        `vec` lies in the span, else led by a column no stored row has as pivot.

        The lowest column of the row is cleared, while a stored row has its
        pivot there, by one fraction-free step a*v - b*row.
        """
        den = lcm(*(x.denominator for x in vec.values()))
        v = {c: x.numerator * (den // x.denominator) for c, x in vec.items() if x}
        g = gcd(*v.values())
        rows = self.rows
        while v:
            if g > 1:
                for c in v:
                    v[c] //= g
            pc = min(v)
            row = rows.get(pc)
            if row is None:
                break
            x, p = v[pc], row[pc]
            g = gcd(x, p)
            a, b = p // g, x // g
            if a != 1:
                for c in v:
                    v[c] *= a
            for c, y in row.items():
                z = v.get(c, 0) - b * y
                if z:
                    v[c] = z
                else:
                    del v[c]
            g = gcd(*v.values())
        return v

    def add(self, vec):
        """Insert the sparse row; returns True when it enlarged the span."""
        v = self._remainder(vec)
        if not v:
            return False
        pivot = min(v)
        if v[pivot] < 0:
            v = {c: -x for c, x in v.items()}
        self.rows[pivot] = v
        return True

    def contains(self, vec):
        return not self._remainder(vec)


def solve(rows, ncols, target):
    """Coefficients a_k, one Fraction per row, with sum a_k*rows[k] = target,
    or None when target is not in the row span.

    Row k is stored with a unit entry in tracking column ncols + k, so every
    stored row carries the combination of input rows that built it.  The
    target goes in with a marker entry 1 in the last column, which no stored
    row has.  Its remainder is lam*target - sum c_k*rows[k] on the first
    ncols columns, with -c_k in column ncols + k and lam != 0 in the marker's;
    it leads with a column below ncols exactly when target is off the span,
    and otherwise a_k = c_k/lam.
    """
    tracker = SpanTracker(ncols + len(rows) + 1)
    for k, row in enumerate(rows):
        tracker.add({**row, ncols + k: 1})
    marker = ncols + len(rows)
    rem = tracker._remainder({**target, marker: 1})
    if min(rem) < ncols:
        return None
    lam = rem[marker]
    return [Fraction(-rem.get(ncols + k, 0), lam) for k in range(len(rows))]


def rank(rows, ncols):
    """Rank of the matrix with the given sparse rows over ncols columns; once
    that is ncols, the remaining rows are not read."""
    tracker = SpanTracker(ncols)
    for r in rows:
        if tracker.add(r) and tracker.rank == ncols:
            break
    return tracker.rank
