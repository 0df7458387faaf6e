"""Exact Gauss-Jordan elimination over Q, the reference for `jonq.linalg`.

Written apart from `jonq.linalg` and tested against it.  Rows are scaled
to integers and kept primitive, so no `Fraction` arithmetic runs while
eliminating; `Fraction`s appear only in what is read out, the reduced
row echelon form over Q with pivot 1 (which is unique) and the kernel
vectors read off it.  `FractionSpan` keeps its rows in echelon form, not
reduced, and reduces them only when `rows` is read.
"""

from bisect import insort
from fractions import Fraction
from math import gcd, lcm


def _scaled(vec):
    """`vec` (ints and Fractions) times the lcm of its denominators, as ints."""
    dens = [x.denominator for x in vec]
    den = lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(vec, dens)]


def _primitive(v):
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _clear(v, row, col):
    """The primitive combination of `v` and `row` that is zero in `col`."""
    c, p = v[col], row[col]
    g = gcd(c, p)
    a, b = p // g, c // g
    return _primitive([a * x - b * y for x, y in zip(v, row)])


class FractionSpan:
    """Incremental row space: primitive integer rows in echelon form."""

    def __init__(self, ncols):
        self.ncols = ncols
        self._echelon = []  # (pivot_col, primitive int row), sorted by pivot

    @property
    def rank(self):
        return len(self._echelon)

    @property
    def rows(self):
        """(pivot_col, row) of the reduced row echelon form, pivots 1, sorted."""
        reduced = []
        for pc, row in reversed(self._echelon):
            for pc2, row2 in reduced:
                if row[pc2]:
                    row = _clear(row, row2, pc2)
            reduced.append((pc, row))
        return [
            (pc, [Fraction(x, row[pc]) for x in row]) for pc, row in reversed(reduced)
        ]

    def reduce(self, vec):
        v = _primitive(_scaled(vec))
        for pc, row in self._echelon:
            if v[pc]:
                v = _clear(v, row, pc)
        return v

    def add(self, vec):
        """Insert the vector; returns True when it enlarged the span."""
        v = self.reduce(vec)
        pivot = next((k for k, x in enumerate(v) if x), -1)
        if pivot < 0:
            return False
        insort(self._echelon, (pivot, v), key=lambda t: t[0])
        return True

    def contains(self, vec):
        return not any(self.reduce(vec))


def fraction_kernel_basis(rows, ncols):
    """Basis of {v : M v = 0} for M given by rows; deterministic.

    Returns a list of length-ncols vectors of Fractions, one per free
    column of the RREF, ordered by free column index.
    """
    mat = [_primitive(_scaled(r)) for r in rows]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if mat[i][c]), -1)
        if sel < 0:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        for i in range(nrows):
            if i != r and mat[i][c]:
                mat[i] = _clear(mat[i], mat[r], c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -Fraction(mat[i][free], mat[i][pc])
        basis.append(v)
    return basis


def fraction_rank(rows, ncols):
    tracker = FractionSpan(ncols)
    for r in rows:
        tracker.add(r)
    return tracker.rank
