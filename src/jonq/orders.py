"""Monomial orders: degrevlex and a two-block elimination order.

Every reduced basis the library builds is degrevlex; `Block` serves
`groebner.block_run`, the Block run of an elimination, which keeps the
basis elements free of the first block.  Every order maps an exponent vector to an integer tuple
(`key`) such that the order relation is lexicographic comparison of keys
and keys are *additive*: key(m1*m2) = key(m1) + key(m2) componentwise.
Additivity is what lets the Groebner engine shift whole term lists by
adding one key.  Each order can also invert its key back to exponents
(`exponents`), so the engine only stores keys.
"""

from __future__ import annotations

from jonq.errors import StructuralError


class MonomialOrder:
    """Base class; subclasses are immutable and hashable."""

    nvars: int

    def key(self, exps):
        raise NotImplementedError

    def exponents(self, key):
        raise NotImplementedError

    def signature(self):
        """Hashable identity used for Groebner-basis caching."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return f"<order {self.signature()}>"


def _drl_key(exps):
    # degrevlex: compare total degree, then reversed exponents negated.
    return (sum(exps),) + tuple(-e for e in exps[:0:-1])


def _drl_exponents(key):
    total = key[0]
    rest = [-v for v in key[:0:-1]]
    return (total - sum(rest),) + tuple(rest)


class DegRevLex(MonomialOrder):
    def __init__(self, nvars):
        self.nvars = nvars

    def key(self, exps):
        return _drl_key(exps)

    def exponents(self, key):
        return _drl_exponents(key)

    def signature(self):
        return ("degrevlex", self.nvars)


class Block(MonomialOrder):
    """Elimination order: the first block dominates, degrevlex inside each.

    `first` is the tuple of variable indices forming the eliminated block;
    the remaining indices form the second block in their natural order.
    Neither block is empty.
    """

    def __init__(self, nvars, first):
        first = tuple(first)
        taken = set(first)
        if not 0 < len(taken) == len(first) < nvars or any(i < 0 or i >= nvars for i in first):
            raise StructuralError("block order: bad index set")
        self.nvars = nvars
        self.first = first
        self.second = tuple(i for i in range(nvars) if i not in taken)

    def key(self, exps):
        e1 = tuple(exps[i] for i in self.first)
        e2 = tuple(exps[i] for i in self.second)
        return _drl_key(e1) + _drl_key(e2)

    def exponents(self, key):
        cut = len(self.first)  # a drl key of k >= 1 exponents has length k
        out = [0] * self.nvars
        for i, e in zip(self.first, _drl_exponents(key[:cut])):
            out[i] = e
        for i, e in zip(self.second, _drl_exponents(key[cut:])):
            out[i] = e
        return tuple(out)

    def signature(self):
        return ("block", self.nvars, self.first)

