"""Rational maps, Cremona inverse verification, and composition.

The engine never computes an inverse: a claimed inverse is an input and
gets verified, extracting the two inversion factors along the way.
"""

from __future__ import annotations

from dataclasses import dataclass

from jonq.errors import HypothesisViolation, StructuralError
from jonq.groebner import IdealHandle
from jonq.ring import Polynomial, VariableSet, divide_exact, exact_quotient, poly_gcd


@dataclass(frozen=True)
class RationalMapData:
    """A rational map P^n --> P^m given by m+1 equal-degree forms."""

    source: VariableSet
    target: VariableSet
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != len(self.target):
            raise StructuralError(
                f"{len(self.coords)} coordinates for a target with "
                f"{len(self.target)} variables"
            )
        if all(c.is_zero() for c in self.coords):
            raise StructuralError("all map coordinates are zero")
        degs = set()
        for c in self.coords:
            if c.ring != self.source:
                raise StructuralError("map coordinates over mixed variable sets")
            if not c.is_zero():
                if not c.is_homogeneous():
                    raise StructuralError(f"coordinate {c} is not homogeneous")
                degs.add(c.total_degree())
        if len(degs) != 1:
            raise StructuralError(f"coordinates of unequal degrees {sorted(degs)}")

    @property
    def degree(self):
        return next(c.total_degree() for c in self.coords if not c.is_zero())

    def coordinate_gcd(self):
        """gcd of the coordinates, canonical; 1 when they are coprime.

        Every common factor of c_0, ..., c_n divides c_0 and the weighted
        sum c_1 + 2*c_2 + ... + n*c_n, so their gcd g is a multiple of the
        coordinate gcd.  One `poly_gcd` usually settles a coprime map (by
        its mod-p certificate); otherwise g is refined against each
        coordinate until it is constant.  That ends at the gcd of all the
        coordinates, also when c_0 or the sum is zero.
        """
        c0, *rest = self.coords
        weighted = sum((c * k for k, c in enumerate(rest, 1)), Polynomial.zero(self.source))
        g = poly_gcd(c0, weighted)
        for c in self.coords:
            if g.is_constant() and not g.is_zero():
                break
            g = poly_gcd(g, c)
        return g

    def is_gcd_stripped(self):
        return self.coordinate_gcd().is_constant()

    def stripped(self):
        g = self.coordinate_gcd()
        if g.is_constant():
            return self
        return RationalMapData(
            self.source, self.target, tuple(divide_exact(c, g) for c in self.coords)
        )


@dataclass(frozen=True)
class VerifiedCremona:
    """A Cremona map with a verified inverse and both inversion factors.

    g_i(g') = y_i * target_factor and g'_i(g) = x_i * source_factor hold
    exactly for the stored representatives.
    """

    forward: RationalMapData
    inverse: RationalMapData
    target_factor: Polynomial
    source_factor: Polynomial

    @property
    def degree(self):
        return self.forward.degree

    @property
    def inverse_degree(self):
        return self.inverse.degree

    @property
    def source(self):
        return self.forward.source

    @property
    def target(self):
        return self.forward.target


def _common_factor(substituted, variables, role):
    factor = None
    for i, (s, v) in enumerate(zip(substituted, variables)):
        if s.is_zero():
            raise HypothesisViolation(
                f"degenerate composition: coordinate {i} of the {role} "
                "composite vanishes identically"
            )
        q = exact_quotient(s, v)
        if q is None:
            raise HypothesisViolation(
                f"not mutually inverse: composite coordinate {i} is not a "
                f"multiple of {v}"
            )
        if factor is None:
            factor = q
        elif factor != q:
            raise HypothesisViolation(
                f"not mutually inverse: composite coordinate {i} yields a "
                "different inversion factor"
            )
    return factor


def verify_cremona(G, Ginv):
    """Verify that Ginv inverts G, extracting both inversion factors.

    Requires square maps with gcd-free coordinates on both sides.
    """
    n1 = len(G.source)
    if len(G.coords) != n1 or len(Ginv.coords) != n1:
        raise StructuralError("a Cremona map needs n+1 coordinates on both sides")
    if Ginv.source != G.target or Ginv.target != G.source:
        raise StructuralError(
            "inverse must map the target variables back to the source variables"
        )
    if not G.is_gcd_stripped():
        raise HypothesisViolation(
            "the coordinates of the forward map have a proper common factor"
        )
    if not Ginv.is_gcd_stripped():
        raise HypothesisViolation(
            "the coordinates of the inverse map have a proper common factor"
        )
    y_vars = Polynomial.gens(G.target)
    x_vars = Polynomial.gens(G.source)
    D = _common_factor([g.substitute(Ginv.coords) for g in G.coords], y_vars, "target")
    C = _common_factor([h.substitute(G.coords) for h in Ginv.coords], x_vars, "source")
    d, dprime = G.degree, Ginv.degree
    if d * dprime != D.total_degree() + 1 or d * dprime != C.total_degree() + 1:
        raise HypothesisViolation(
            "inversion factor degrees violate deg(G)*deg(G^-1) = deg(D)+1 = deg(C)+1"
        )
    return VerifiedCremona(G, Ginv, D, C)


def compose(A, B):
    """The composite map 'apply A, then B' (coordinatewise substitution).

    The coordinates keep their common factor; `.stripped()` divides it
    out.  A caller that only tests `projectively_equal` needs no gcd: a
    common factor c scales every 2x2 cross-product by c, so the verdict is
    the same.
    """
    if len(A.coords) != len(B.source):
        raise StructuralError(
            f"cannot compose: first map has {len(A.coords)} coordinates, "
            f"second map reads {len(B.source)} variables"
        )
    coords = tuple(b.substitute(list(A.coords)) for b in B.coords)
    if all(c.is_zero() for c in coords):
        raise HypothesisViolation("composite map vanishes identically")
    return RationalMapData(A.source, B.target, coords)


def base_ideal(G):
    """The ideal generated by the parameterizing forms."""
    return IdealHandle(G.source, G.coords)


def projectively_equal(coords_a, coords_b):
    """Equality as projective tuples: all 2x2 cross-products vanish.

    Only those against one pivot k with b_k != 0 are formed: if a_i b_k =
    a_k b_i for every i, then b_k (a_i b_j - a_j b_i) = 0, and k[x] is a
    domain.  A tuple of zeros equals nothing.
    """
    if len(coords_a) != len(coords_b):
        return False
    k = next((k for k, b in enumerate(coords_b) if not b.is_zero()), None)
    if k is None:
        return False
    a_k, b_k = coords_a[k], coords_b[k]
    return all(
        a * b_k == a_k * b for i, (a, b) in enumerate(zip(coords_a, coords_b)) if i != k
    ) and any(not a.is_zero() for a in coords_a)


def identity_map(ring, target):
    """The identity Cremona map of P^n, verified."""
    fwd = RationalMapData(ring, target, tuple(Polynomial.gens(ring)))
    inv = RationalMapData(target, ring, tuple(Polynomial.gens(target)))
    return verify_cremona(fwd, inv)
