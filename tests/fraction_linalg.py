"""Exact Gauss-Jordan elimination over Q with `Fraction` arithmetic.

A copy of `jonq.linalg` as it was before it kept primitive integer rows,
kept as the reference the fraction-free engine is tested against.
"""

from fractions import Fraction


class FractionSpan:
    """Incremental row space with reduced echelon Fraction rows."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # list of (pivot_col, normalized row)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        v = list(vec)
        for pc, row in self.rows:
            c = v[pc]
            if c:
                for k in range(pc, self.ncols):
                    if row[k]:
                        v[k] -= c * row[k]
        return v

    def add(self, vec):
        """Insert the vector; returns True when it enlarged the span."""
        v = self.reduce(vec)
        pivot = -1
        for k in range(self.ncols):
            if v[k]:
                pivot = k
                break
        if pivot < 0:
            return False
        inv = Fraction(1, 1) / v[pivot]
        v = [x * inv for x in v]
        # back-substitute into existing rows to keep things reduced
        for idx, (pc, row) in enumerate(self.rows):
            c = row[pivot]
            if c:
                self.rows[idx] = (
                    pc,
                    [a - c * b for a, b in zip(row, v)],
                )
        self.rows.append((pivot, v))
        self.rows.sort(key=lambda t: t[0])
        return True

    def contains(self, vec):
        return not any(self.reduce(vec))


def fraction_kernel_basis(rows, ncols):
    """Basis of {v : M v = 0} for M given by rows; deterministic.

    Returns a list of length-ncols vectors (Fractions/ints), one per free
    column of the RREF, ordered by free column index.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        sel = -1
        for i in range(r, nrows):
            if mat[i][c]:
                sel = i
                break
        if sel < 0:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = Fraction(1, 1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
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
            v[pc] = -mat[i][free]
        basis.append(v)
    return basis


def fraction_rank(rows, ncols):
    tracker = FractionSpan(ncols)
    for r in rows:
        tracker.add(r)
    return tracker.rank
