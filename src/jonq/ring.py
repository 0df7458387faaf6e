"""Exact sparse multivariate polynomials over the rationals.

Polynomials are immutable maps {exponent tuple -> nonzero coefficient}
attached to a :class:`VariableSet`.  Coefficients are Python ints or
`fractions.Fraction`; nothing is ever floating point.  The text grammar
implemented by :func:`parse_polynomial` / ``str()`` is the exchange format
used by the CLI and the golden tests.  Division (`exact_quotient`) runs
on `_Accumulator`, the packed-monomial heap that the Groebner engine
shares.  Results the library builds from already clean terms skip the
public constructor's checks through `Polynomial._clean`, and
`substitute_all` expands a batch of polynomials over images packed once,
sharing each product of image powers between the terms that need it.
`poly_gcd` has no algebra of its own: a mod-p coprimality certificate, an
exact-divisor test and the same certificate on the inputs stripped of
their monomial contents answer most calls, and the rest divide a*b by the
lcm that one elimination (`groebner.intersect`) finds.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import random
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm as int_lcm

from jonq import kernel
from jonq.errors import DivisibilityError, ParseError, StructuralError
from jonq.orders import DegRevLex

Coeff = "int | Fraction"


class VariableSet:
    """An ordered set of distinct variable names."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise StructuralError(f"duplicate variable names in {names}")
        if not names:
            raise StructuralError("empty variable set")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableSet({', '.join(self.names)})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError(f"unknown variable {name!r} in {self!r}") from None

    def __contains__(self, name):
        return name in self._index

    def union(self, other):
        """Disjoint union, keeping this set's names first."""
        clash = set(self.names) & set(other.names)
        if clash:
            raise StructuralError(f"variable sets overlap: {sorted(clash)}")
        return VariableSet(self.names + other.names)

    def extended(self, *names):
        return VariableSet(self.names + tuple(names))

    def fresh_name(self, base="t"):
        """A name not already present, for auxiliary variables."""
        if base not in self._index:
            return base
        k = 0
        while f"{base}{k}" in self._index:
            k += 1
        return f"{base}{k}"


def _lower(c):
    """An exact coefficient with an integral Fraction made an int."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def _norm_coeff(c):
    if isinstance(c, (int, Fraction)):
        return _lower(c)
    raise StructuralError(f"coefficient {c!r} is not an exact rational")


class Polynomial:
    """Immutable sparse polynomial over an exact rational coefficient field."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        clean = {}
        n = len(ring)
        for mono, c in terms.items():
            c = _norm_coeff(c)
            if not c:
                continue
            if len(mono) != n or any(e < 0 for e in mono):
                raise StructuralError(f"bad exponent vector {mono} for {ring!r}")
            clean[mono] = c
        self._terms = clean
        self._hash = None

    @classmethod
    def _clean(cls, ring, terms):
        """Adopt `terms` unchecked: nonzero `_lower`ed coefficients, exponent
        vectors of length len(ring) with no negative entry."""
        self = object.__new__(cls)
        self.ring = ring
        self._terms = terms
        self._hash = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {(0,) * len(ring): c})

    @classmethod
    def variable(cls, ring, name):
        e = [0] * len(ring)
        e[ring.index(name)] = 1
        return cls(ring, {tuple(e): 1})

    @classmethod
    def monomial(cls, ring, exps, coeff=1):
        return cls(ring, {tuple(exps): coeff})

    @classmethod
    def gens(cls, ring):
        return [cls.variable(ring, n) for n in ring.names]

    # -- basic queries -----------------------------------------------------

    def terms(self):
        """Copy of the term map."""
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def __len__(self):
        return len(self._terms)

    def is_zero(self):
        return not self._terms

    def is_constant(self):
        return all(not any(m) for m in self._terms)

    def total_degree(self):
        """Max total degree of a term; None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(m) for m in self._terms)

    def is_homogeneous(self):
        degs = {sum(m) for m in self._terms}
        return len(degs) <= 1

    def is_bihomogeneous(self, x_indices):
        """True iff every term has one degree in the variables at `x_indices`
        and one in the others; the zero polynomial is bihomogeneous."""
        idx = tuple(x_indices)
        return len({(sum(m[i] for i in idx), sum(m)) for m in self._terms}) <= 1

    def degree_in(self, indices):
        """Max degree in the given variable positions; 0 for zero poly."""
        idx = tuple(indices)
        if not self._terms:
            return 0
        return max(sum(m[i] for i in idx) for m in self._terms)

    def coefficient_of(self, mono):
        return self._terms.get(tuple(mono), 0)

    # -- ordering helpers --------------------------------------------------

    def sorted_terms(self, order=None):
        """Terms as [(mono, coeff)] descending under `order` (degrevlex default)."""
        order = order or DegRevLex(len(self.ring))
        return sorted(self._terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def lead_term(self, order=None):
        if not self._terms:
            raise StructuralError("zero polynomial has no lead term")
        order = order or DegRevLex(len(self.ring))
        m = max(self._terms, key=order.key)
        return m, self._terms[m]

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise StructuralError(
                f"mixed variable sets: {self.ring!r} vs {other.ring!r}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        self._check_ring(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = _lower(s)
            else:
                terms.pop(m, None)
        return Polynomial._clean(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._clean(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.ring)
            return Polynomial._clean(
                self.ring, {m: _lower(c * other) for m, c in self._terms.items()}
            )
        self._check_ring(other)
        if not self._terms or not other._terms:
            return Polynomial.zero(self.ring)
        return Polynomial._clean(
            self.ring, _mul_term_maps(self._terms, other._terms, len(self.ring))
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            inv = Fraction(1, 1) / other
            return self * inv
        return divide_exact(self, other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise StructuralError("polynomial powers must be non-negative ints")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    # -- substitution and ring transport ------------------------------------

    def substitute(self, images):
        """Replace the i-th variable by images[i]; images share one ring.

        This is the evaluation homomorphism x_i -> images[i], fully
        expanded: `substitute_all` of this one polynomial.
        """
        return substitute_all((self,), images)[0]

    def map_ring(self, target):
        """Embed into a larger variable set by name."""
        pos = [target.index(n) for n in self.ring.names]
        n = len(target)
        terms = {}
        for mono, c in self._terms.items():
            out = [0] * n
            for p, e in zip(pos, mono):
                out[p] = e
            terms[tuple(out)] = c
        return Polynomial._clean(target, terms)

    def restrict_to(self, target):
        """Restrict to a subring containing the support, by name."""
        pos = []
        for i, nme in enumerate(self.ring.names):
            pos.append(target._index.get(nme, -1))
        n = len(target)
        terms = {}
        for mono, c in self._terms.items():
            out = [0] * n
            for i, e in enumerate(mono):
                if e:
                    if pos[i] < 0:
                        raise StructuralError(
                            f"support uses {self.ring.names[i]!r}, absent from target"
                        )
                    out[pos[i]] = e
            terms[tuple(out)] = c
        return Polynomial(target, terms)

    def rename(self, target):
        """Positional rename onto another variable set of the same size."""
        if len(target) != len(self.ring):
            raise StructuralError("rename requires equal variable counts")
        return Polynomial._clean(target, self._terms)

    def derivative(self, name):
        i = self.ring.index(name)
        terms = {}
        for mono, c in self._terms.items():
            e = mono[i]
            if e:
                m2 = list(mono)
                m2[i] = e - 1
                terms[tuple(m2)] = terms.get(tuple(m2), 0) + c * e
        return Polynomial(self.ring, terms)

    # -- normalization -----------------------------------------------------

    def denominator_lcm(self):
        den = 1
        for c in self._terms.values():
            den = int_lcm(den, c.denominator)
        return den

    def integer_content(self):
        """gcd of numerators after clearing denominators; 0 for zero poly."""
        den = self.denominator_lcm()
        g = 0
        for c in self._terms.values():
            g = int_gcd(g, int(c * den))
        return Fraction(g, den)

    def primitive_part(self):
        if not self._terms:
            return self
        content = self.integer_content()
        if content == 1:
            return self
        return self * (1 / content)

    def canonical(self):
        """Integer-primitive scalar multiple with positive lead coefficient."""
        if not self._terms:
            return self
        p = self.primitive_part()
        _, lc = p.lead_term()
        if lc < 0:
            p = -p
        return p

    def proportional_to(self, other):
        """True iff self = c*other for a nonzero rational c."""
        if not isinstance(other, Polynomial) or self.ring != other.ring:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        m, a = self.lead_term()
        if m not in other._terms:
            return False
        b = other._terms[m]
        return self * b == other * a

    # -- text format ---------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


@functools.lru_cache(maxsize=64)
def _exponent_packing(nvars, bits):
    """(pack, unpack) between exponent vectors and ints of `bits`-bit fields.

    Products of packed monomials add their ints, so the fields must hold
    every exponent of the product.
    """
    mask = (1 << bits) - 1
    shifts = [bits * i for i in reversed(range(nvars))]

    def pack(m):
        return sum(map(operator.lshift, m, shifts))

    def unpack(k):
        return tuple([k >> s & mask for s in shifts])

    return pack, unpack


def substitute_all(polys, images):
    """[p.substitute(images) for p in polys], with the work shared.

    An image with one term c*m acts as a shift: it multiplies by c^e and
    adds e times m's packed key.  A zero image kills every term it
    touches.  The product of the other images' powers is expanded once
    per distinct vector of their exponents, and every term of every
    polynomial with that vector shares it: the product for the vector
    with its last nonzero entry cleared, times that entry's power, made by
    squaring.  The products are dropped when the call returns.
    """
    images = tuple(images)
    for p in polys:
        if len(images) != len(p.ring):
            raise StructuralError(
                f"substitute needs {len(p.ring)} images, got {len(images)}"
            )
    if not images:
        raise StructuralError("no images")
    target = images[0].ring
    for im in images:
        if im.ring != target:
            raise StructuralError("substitution images over mixed variable sets")
    # every product below has total degree at most `top`
    degs = [im.total_degree() or 0 for im in images]
    top = max((sum(map(operator.mul, m, degs)) for p in polys for m in p._terms), default=0)
    pack, unpack = _exponent_packing(len(target), max(1, top.bit_length()))
    mul = kernel.mul_packed
    zero = [i for i, im in enumerate(images) if not im._terms]
    shifts = [
        (i, pack(m), c) for i, im in enumerate(images) if len(im._terms) == 1
        for m, c in im._terms.items()
    ]
    multi = [i for i, im in enumerate(images) if len(im._terms) > 1]
    width = len(multi)
    products = {(0,) * width: [(0, 1)]}
    for j, i in enumerate(multi):
        unit = (0,) * j + (1,) + (0,) * (width - j - 1)
        products[unit] = [(pack(m), c) for m, c in images[i]._terms.items()]

    def product(sub):
        got = products.get(sub)
        if got is None:
            j = max(i for i, e in enumerate(sub) if e)
            e, head, tail = sub[j], sub[:j], (0,) * (width - j - 1)
            if any(head):
                got = mul(product(head + (0,) + tail), product((0,) * j + (e,) + tail))
            else:
                half = product(head + (e // 2,) + tail)
                got = mul(half, half)
                if e & 1:
                    got = mul(list(got.items()), products[head + (1,) + tail])
            got = products[sub] = list(got.items())
        return got

    out = []
    for p in polys:
        acc = {}
        get = acc.get
        for mono, c in p._terms.items():
            if zero and any(mono[i] for i in zero):
                continue
            key = 0
            for i, k, v in shifts:
                e = mono[i]
                if e:
                    key += e * k
                    if v != 1:
                        c *= v**e
            for k, v in product(tuple([mono[i] for i in multi])):
                k += key
                acc[k] = get(k, 0) + v * c
        out.append(Polynomial._clean(target, {unpack(k): _lower(c) for k, c in acc.items() if c}))
    return out


def _mul_term_maps(a, b, nvars):
    """Multiply two clean term maps via the packed-int kernel."""
    da = max(sum(m) for m in a)
    db = max(sum(m) for m in b)
    pack, unpack = _exponent_packing(nvars, max(1, (da + db).bit_length()))
    prod = kernel.mul_packed(
        [(pack(m), c) for m, c in a.items()], [(pack(m), c) for m, c in b.items()]
    )
    return {unpack(k): _lower(c) for k, c in prod.items()}


# -- packed monomials and the sparse accumulator ----------------------------


class _KeyOverflow(Exception):
    """A field left the range of the current packing; widen and retry."""


class _Packing:
    """Monomials packed into one int: the order key over the exponent vector.

    The high part holds the additive order key, one field of `bits` bits
    per component, most significant first, stored offset-binary
    (component + 2**(bits-1)).  The low part holds the exponent vector,
    one field of `bits` bits per variable whose top bit, the guard, stays
    clear.  The key part decides every comparison, so comparing two packed
    ints compares the keys.  Both parts are additive, so adding the packed
    quotient of two monomials shifts a monomial.  A field that borrows
    sets its guard, so l divides m exactly when (m - l) & guard == 0.

    Every order's exponents are a linear function of its key, so `pack`
    is one dot product of the key with per-field weights.  It accepts
    only monomials whose exponents are below 2**ebits, chosen so that
    their key components are at most `limit` = 2**(bits-3).  A shifted
    monomial then has exponents below 2**(ebits+1) <= 2**(bits-2) and key
    components below 3*limit, so shifts never carry out of a field.  A
    shift target with an exponent at or past the bound (an `over` bit
    set) raises `_KeyOverflow` before it is used.
    """

    __slots__ = (
        "bits", "xmask", "guard", "over", "pack", "unpack", "exponents", "lcm", "monomial",
    )

    def __init__(self, order, bits):
        n = order.nvars
        unit_keys = [order.key(tuple(int(i == v) for i in range(n))) for v in range(n)]
        nfields = len(order.key((0,) * n))
        limit = 1 << (bits - 3)
        spread = max(sum(abs(k[f]) for k in unit_keys) for f in range(nfields))
        ebits = (limit // spread + 1).bit_length() - 1
        half = 1 << (bits - 1)
        fmask = (1 << bits) - 1
        eshifts = [bits * i for i in reversed(range(n))]
        kshifts = [bits * (n + i) for i in reversed(range(nfields))]
        weights = []
        for f, s in enumerate(kshifts):
            exps = order.exponents(tuple(int(i == f) for i in range(nfields)))
            weights.append((1 << s) + sum(e << t for e, t in zip(exps, eshifts)))
        base = half * sum(1 << s for s in kshifts)
        vweights = [sum(map(operator.mul, k, weights)) for k in unit_keys]
        self.bits = bits
        self.xmask = (1 << bits * n) - 1  # the exponent part
        self.guard = guard = sum(half << s for s in eshifts)
        self.over = over = sum((fmask >> ebits << ebits) << s for s in eshifts)
        top = bits - 1

        def pack(key):
            if max(map(abs, key)) > limit:  # would carry past the `over` test
                raise _KeyOverflow
            packed = sum(map(operator.mul, key, weights)) + base
            if packed & over:
                raise _KeyOverflow
            return packed

        def unpack(packed):
            return tuple([(packed >> s & fmask) - half for s in kshifts])

        def exponents(packed):
            return tuple([packed >> s & fmask for s in eshifts])

        def lcm(a, b):
            # per-field max of two exponent parts: sel spans the fields with a >= b
            t = ((a | guard) - b) & guard
            sel = t - (t >> top)
            return (a & sel) | (b & ~sel)

        def monomial(x):
            # the packed monomial with exponent part x, and its total degree
            packed, deg = base, 0
            for s, w in zip(eshifts, vweights):
                e = x >> s & fmask
                packed += e * w
                deg += e
            return packed, deg

        self.pack = pack
        self.unpack = unpack
        self.exponents = exponents
        self.lcm = lcm
        self.monomial = monomial

    def offsets(self, terms):
        """A term list's tail as (packed offset from its lead, coefficient)."""
        pack = self.pack
        lead = pack(terms[0][0])
        return [(pack(key) - lead, c) for key, c in terms[1:]]


@functools.lru_cache(maxsize=64)
def _packing(order, bits):
    return _Packing(order, bits)


def _with_wide_keys(run, order, bits=16):
    """run(packing), from `bits`-bit fields up, doubling on `_KeyOverflow`."""
    while True:
        try:
            return run(_packing(order, bits))
        except _KeyOverflow:
            bits *= 2


class _Accumulator:
    """A polynomial under division: packed monomial -> coefficient.

    A max-heap (of negated packed monomials) orders the live terms.  A
    term whose coefficient cancels leaves the dict but stays in the heap,
    and `pop_lead` skips it (lazy deletion), so adding a term costs
    O(log n) however many terms are live.
    """

    __slots__ = ("packing", "coeffs", "heap")

    def __init__(self, packing, terms=()):
        """`terms`: a list of (order key, coefficient), distinct keys."""
        self.packing = packing
        pack = packing.pack
        self.coeffs = {pack(key): c for key, c in terms}
        self.heap = [-k for k in self.coeffs]
        heapq.heapify(self.heap)

    def __bool__(self):
        return bool(self.coeffs)

    def pop_lead(self):
        """Remove the largest live term; returns (packed monomial, coefficient)."""
        coeffs = self.coeffs
        heap = self.heap
        while True:
            k = -heapq.heappop(heap)
            c = coeffs.pop(k, None)
            if c is not None:
                return k, c

    def add_shifted(self, packed, tail, mult):
        """Add mult * tail moved so that its lead lands on `packed`.

        `tail` comes from `_Packing.offsets`.
        """
        if packed & self.packing.over:
            raise _KeyOverflow
        coeffs = self.coeffs
        heap = self.heap
        get = coeffs.get
        push = heapq.heappush
        for off, c in tail:
            k = packed + off
            v = get(k)
            if v is None:
                coeffs[k] = mult * c
                push(heap, -k)
            else:
                v += mult * c
                if v:
                    coeffs[k] = v
                else:
                    del coeffs[k]

    def values(self):
        return self.coeffs.values()

    def scale(self, a):
        coeffs = self.coeffs
        for k in coeffs:
            coeffs[k] *= a

    def divide(self, a):
        """Exact division of every coefficient by the integer `a`."""
        coeffs = self.coeffs
        for k in coeffs:
            coeffs[k] //= a


# -- division, gcd ---------------------------------------------------------


def exact_quotient(p, d):
    """p / d as a Polynomial when the polynomial d divides p exactly, else
    None (d = 0 included).

    Each lead of the running remainder must be divisible by d's degrevlex
    lead; the first that is not ends the division, since p = q*d leaves
    every remainder a multiple of d.
    """
    p._check_ring(d)
    if d.is_zero():
        return None
    if p.is_zero():
        return p
    order = DegRevLex(len(p.ring))
    key = order.key
    dterms = sorted(((key(m), c) for m, c in d._terms.items()), reverse=True)
    lc = dterms[0][1]
    pterms = [(key(m), c) for m, c in p._terms.items()]

    def run(packing):
        guard = packing.guard
        lm = packing.pack(dterms[0][0])
        tail = packing.offsets(dterms)
        rem = _Accumulator(packing, pterms)
        quot = {}
        while rem:
            k, c = rem.pop_lead()
            if (k - lm) & guard:
                return None
            qc = Fraction(c, 1) / lc
            quot[k - lm] = qc
            rem.add_shifted(k, tail, -qc)
        exponents = packing.exponents
        return Polynomial._clean(p.ring, {exponents(q): _lower(c) for q, c in quot.items()})

    return _with_wide_keys(run, order)


def divide_exact(p, d):
    """Quotient q with q*d = p; raises DivisibilityError otherwise."""
    if not isinstance(d, Polynomial):
        return p * (Fraction(1, 1) / d)
    q = exact_quotient(p, d)
    if q is None:
        if d.is_zero():
            raise DivisibilityError("division by the zero polynomial")
        raise DivisibilityError(f"({d}) does not divide ({p}) exactly")
    return q


def poly_gcd(p, q):
    """Greatest common divisor, canonically normalized.

    1 when `_coprime_on_line` proves the inputs coprime; else the input of
    lower degree when it divides the other; else the monomial that
    `_monomial_gcd` certifies from the inputs' monomial contents; else
    a*b / lcm(a, b), where the lcm generates (a) meet (b), one elimination
    by `groebner.intersect` on a fresh budget, so no caller's S-pair count
    moves.  The result is unique up to a unit, which `canonical()` fixes.
    gcd(p, 0) = canonical(p).
    """
    if not isinstance(p, Polynomial) or not isinstance(q, Polynomial):
        raise StructuralError("poly_gcd needs two polynomials")
    p._check_ring(q)
    if p.is_zero():
        return q.canonical()
    if q.is_zero():
        return p.canonical()
    a = p.canonical()
    b = q.canonical()
    if _coprime_on_line(a, b):
        return Polynomial.constant(p.ring, 1)
    # u | v makes gcd(u, v) = u.canonical() = u
    u, v = (a, b) if a.total_degree() <= b.total_degree() else (b, a)
    if exact_quotient(v, u) is not None:
        return u
    monomial = _monomial_gcd(a, b)
    if monomial is not None:
        return monomial
    # (a) meet (b) = (lcm(a, b)); groebner imports this module
    from jonq.groebner import IdealHandle, intersect

    (lcm,) = intersect(IdealHandle.of(a), IdealHandle.of(b)).gens
    return divide_exact(a * b, lcm).canonical()


def _monomial_gcd(a, b):
    """gcd(a, b) of integer-primitive a, b when it is a monomial that their
    monomial contents certify; None declines.

    Write a = x^alpha a' and b = x^beta b' with no variable dividing a' or
    b'.  The variables are the only prime factors of x^alpha, so gcd(a, b)
    = x^min(alpha, beta) gcd(a', b'), which is x^min(alpha, beta) when
    `_coprime_on_line` proves a', b' coprime.  Without monomial content
    a', b' are a, b, which that certificate already declined.
    """
    contents = [tuple(map(min, zip(*p._terms))) for p in (a, b)]
    if not any(map(any, contents)):
        return None
    stripped = [
        Polynomial._clean(p.ring, {tuple(map(operator.sub, m, e)): c for m, c in p._terms.items()})
        for p, e in zip((a, b), contents)
    ]
    if not _coprime_on_line(*stripped):
        return None
    return Polynomial._clean(a.ring, {tuple(map(min, *contents)): 1})


_P = (1 << 61) - 1


@functools.lru_cache(maxsize=None)
def _line(n):
    """A fixed point and direction in Z^n (seeded residues mod _P)."""
    rng = random.Random(n)
    vals = [rng.randrange(1, _P) for _ in range(2 * n)]
    return tuple(vals[:n]), tuple(vals[n:])


def _on_line(p, point, direction):
    """Total degree of p, and the coefficients (lowest first, zeros stripped)
    of t -> p(point + t*direction) mod _P.

    Kronecker substitution t = 2^w: a slot sums len(p) products of a residue
    and a coefficient of prod (x_i + y_i t)^e_i, each below 2^(62 (deg + 1)),
    so no slot carries into the next.
    """
    deg = p.total_degree()
    w = 62 * (deg + 1) + len(p._terms).bit_length()
    xs = [x % _P + (y % _P << w) for x, y in zip(point, direction)]
    v = 0
    for mono, c in p._terms.items():
        term = c % _P
        for x, e in zip(xs, mono):
            if e:
                term *= x**e
        v += term
    out = [(v >> k * w & ((1 << w) - 1)) % _P for k in range(deg + 1)]
    while out and not out[-1]:
        out.pop()
    return deg, out


def _coprime_on_line(a, b, point=None, direction=None):
    """True only if integer-primitive a, b are coprime; False declines.

    If h = gcd(a, b) is not constant, h_top(direction) divides
    a_top(direction), the top coefficient of a's image on the line.  When
    that is nonzero mod _P, h's image keeps its degree and divides both
    images, so a constant gcd of the images mod _P proves gcd(a, b) = 1.
    """
    if point is None:
        point, direction = _line(len(a.ring))
    deg, f = _on_line(a, point, direction)
    if len(f) != deg + 1:
        return False
    g = _on_line(b, point, direction)[1]
    while g:
        inv = pow(g[-1], -1, _P)
        while len(f) >= len(g):
            q, shift = f[-1] * inv % _P, len(f) - len(g)
            for k, y in enumerate(g):
                f[shift + k] = (f[shift + k] - q * y) % _P
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) == 1


# -- random forms -----------------------------------------------------------


def monomials_of_degree(nvars, degree):
    """All exponent vectors of the given total degree, lexicographically
    descending on the exponent tuples; deterministic."""
    if degree < 0:
        return
    if nvars == 1:
        yield (degree,)
        return
    for lead in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - lead):
            yield (lead,) + rest


def count_monomials(nvars, degree):
    """Number of monomials of a total degree (binomial coefficient)."""
    import math

    if degree < 0:
        return 0
    return math.comb(degree + nvars - 1, nvars - 1)


def random_form(ring, degree, seed):
    """Dense homogeneous form with nonzero seeded coefficients in [-3, 3].

    Realizes 'general form' hypotheses; deterministic per seed.
    """
    if degree < 0:
        raise StructuralError("random_form needs degree >= 0")
    rng = random.Random(seed)
    terms = {}
    for mono in monomials_of_degree(len(ring), degree):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        terms[mono] = c
    return Polynomial(ring, terms)


# -- text grammar -----------------------------------------------------------


def format_coeff(c):
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    return str(c)


def format_polynomial(p):
    """Canonical serialization: degrevlex-descending terms, explicit signs."""
    if p.is_zero():
        return "0"
    parts = []
    for mono, c in p.sorted_terms():
        factors = []
        for name, e in zip(p.ring.names, mono):
            if e == 1:
                factors.append(name)
            elif e >= 2:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        ac = abs(c)
        if not body:
            text = format_coeff(ac)
        elif ac == 1:
            text = body
        else:
            text = f"{format_coeff(ac)}*{body}"
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f" + {text}" if c > 0 else f" - {text}")
    return "".join(parts)


class _Tokenizer:
    def __init__(self, text, line=1):
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, msg):
        raise ParseError(msg, self.line, self.pos + 1)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_number(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        return int(self.text[start : self.pos])

    def take_name(self):
        start = self.pos
        ch = self.text[self.pos]
        if not (ch.isalpha() or ch == "_"):
            self.error("expected a variable name")
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def parse_polynomial(text, ring, line=1):
    """Parse the polynomial text grammar over the given variable set.

    Grammar: terms joined by + / -; a term is coeff*mono, mono, or coeff;
    mono is products of v or v^k joined by *; coeff is an integer or a/b.
    Whitespace is ignored.
    """
    tk = _Tokenizer(text, line)
    n = len(ring)
    terms = {}

    def add_term(mono, coeff):
        key = tuple(mono)
        s = terms.get(key, 0) + coeff
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)

    def parse_factor(sign_coeff, mono):
        ch = tk.peek()
        if ch is None:
            tk.error("unexpected end of polynomial")
        if ch.isdigit():
            num = tk.take_number()
            if tk.peek() == "/":
                tk.pos += 1
                if tk.peek() is None or not tk.peek().isdigit():
                    tk.error("expected a denominator")
                den = tk.take_number()
                if den == 0:
                    tk.error("zero denominator")
                return sign_coeff * Fraction(num, den), mono
            return sign_coeff * num, mono
        name = tk.take_name()
        if name not in ring:
            tk.error(f"unknown variable {name!r}")
        e = 1
        if tk.peek() == "^":
            tk.pos += 1
            if tk.peek() is None or not tk.peek().isdigit():
                tk.error("expected an exponent")
            e = tk.take_number()
        mono = list(mono)
        mono[ring.index(name)] += e
        return sign_coeff, tuple(mono)

    def parse_term(sign):
        coeff = sign
        mono = (0,) * n
        coeff, mono = parse_factor(coeff, mono)
        while tk.peek() == "*":
            tk.pos += 1
            coeff, mono = parse_factor(coeff, mono)
        return mono, coeff

    ch = tk.peek()
    if ch is None:
        tk.error("empty polynomial")
    sign = 1
    if ch in "+-":
        sign = -1 if ch == "-" else 1
        tk.pos += 1
    mono, coeff = parse_term(sign)
    add_term(mono, coeff)
    while True:
        ch = tk.peek()
        if ch is None:
            break
        if ch not in "+-":
            tk.error(f"unexpected character {ch!r}")
        tk.pos += 1
        mono, coeff = parse_term(-1 if ch == "-" else 1)
        add_term(mono, coeff)
    return Polynomial(ring, terms)
