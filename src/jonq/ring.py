"""Exact sparse multivariate polynomials over the rationals.

Polynomials are immutable maps {exponent tuple -> nonzero coefficient}
attached to a :class:`VariableSet`.  Coefficients are Python ints or
`fractions.Fraction`; nothing is ever floating point.  The text grammar
implemented by :func:`parse_polynomial` / ``str()`` is the exchange format
used by the CLI and the golden tests.  Division (`_divide`) runs
on `_Accumulator`, the packed-monomial heap that the Groebner engine
shares.
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


def _norm_coeff(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise StructuralError(f"coefficient {c!r} is not an exact rational")


class DegreeInfo:
    """Result of :meth:`Polynomial.degree_info`."""

    __slots__ = ("total", "homogeneous", "block_degrees", "bihomogeneous")

    def __init__(self, total, homogeneous, block_degrees=None, bihomogeneous=None):
        self.total = total
        self.homogeneous = homogeneous
        self.block_degrees = block_degrees
        self.bihomogeneous = bihomogeneous

    def __repr__(self):
        return (
            f"DegreeInfo(total={self.total}, homogeneous={self.homogeneous}, "
            f"block_degrees={self.block_degrees}, bihomogeneous={self.bihomogeneous})"
        )


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

    def degree_info(self, split=None):
        """Total degree, homogeneity, and per-block degrees under `split`.

        `split` is a sequence of index blocks (each a set/sequence of
        variable positions); bihomogeneity means every term has the same
        degree vector across the blocks.
        """
        if not self._terms:
            return DegreeInfo(None, True, None, True if split else None)
        total = self.total_degree()
        homog = self.is_homogeneous()
        if split is None:
            return DegreeInfo(total, homog)
        blocks = [tuple(sorted(b)) for b in split]
        vecs = {
            tuple(sum(m[i] for i in b) for b in blocks) for m in self._terms
        }
        bihom = len(vecs) == 1
        degvec = (
            next(iter(vecs))
            if bihom
            else tuple(max(v[j] for v in vecs) for j in range(len(blocks)))
        )
        return DegreeInfo(total, homog, degvec, bihom)

    def degree_in(self, indices):
        """Max degree in the given variable positions; 0 for zero poly."""
        idx = tuple(indices)
        if not self._terms:
            return 0
        return max(sum(m[i] for i in idx) for m in self._terms)

    def support_mask(self):
        mask = 0
        for m in self._terms:
            for i, e in enumerate(m):
                if e:
                    mask |= 1 << i
        return mask

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
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self._terms.items()})

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
            return Polynomial(
                self.ring, {m: c * other for m, c in self._terms.items()}
            )
        self._check_ring(other)
        if not self._terms or not other._terms:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, _mul_term_maps(self._terms, other._terms, len(self.ring)))

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
        expanded.
        """
        if len(images) != len(self.ring):
            raise StructuralError(
                f"substitute needs {len(self.ring)} images, got {len(images)}"
            )
        if not images:
            raise StructuralError("no images")
        target = images[0].ring
        for im in images:
            if im.ring != target:
                raise StructuralError("substitution images over mixed variable sets")
        if not self._terms:
            return Polynomial.zero(target)
        # cache powers of each image
        power_cache = [dict() for _ in images]
        one = Polynomial.constant(target, 1)

        def power(i, e):
            cache = power_cache[i]
            got = cache.get(e)
            if got is not None:
                return got
            if e == 0:
                p = one
            elif e == 1:
                p = images[i]
            else:
                p = power(i, e // 2)
                p = p * p
                if e & 1:
                    p = p * images[i]
            cache[e] = p
            return p

        acc = Polynomial.zero(target)
        for mono, c in sorted(self._terms.items()):
            piece = Polynomial.constant(target, c)
            for i, e in enumerate(mono):
                if e:
                    piece = piece * power(i, e)
            acc = acc + piece
        return acc

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
        return Polynomial(target, terms)

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
        return Polynomial(target, dict(self._terms))

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

    def canonical(self, order=None):
        """Integer-primitive scalar multiple with positive lead coefficient."""
        if not self._terms:
            return self
        p = self.primitive_part()
        _, lc = p.lead_term(order)
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


def _mul_term_maps(a, b, nvars):
    """Multiply two term maps via the packed-int kernel."""
    da = max(sum(m) for m in a)
    db = max(sum(m) for m in b)
    bits = max(1, (da + db).bit_length())
    mask = (1 << bits) - 1

    def pack(m):
        k = 0
        for e in m:
            k = (k << bits) | e
        return k

    def unpack(k):
        out = []
        for _ in range(nvars):
            out.append(k & mask)
            k >>= bits
        out.reverse()
        return tuple(out)

    prod = kernel.mul_packed(
        [(pack(m), c) for m, c in a.items()], [(pack(m), c) for m, c in b.items()]
    )
    return {unpack(k): c for k, c in prod.items()}


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


def _with_wide_keys(run, order):
    """run(packing), from 16-bit fields up, doubling on `_KeyOverflow`."""
    bits = 16
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


def _divide(p, divisors, order, exact=False):
    """Divide p by a list of polynomials; returns (quotients, remainder).

    Both come back as exponent maps.  Each lead of the running remainder
    goes to the first divisor whose lead divides it, and to the remainder
    if there is none.  With `exact`, the first such irreducible lead ends
    the division, so the remainder is empty exactly when the divisors
    divide p without one.
    """
    key = order.key
    dterms = [
        sorted(((key(m), c) for m, c in d._terms.items()), reverse=True)
        for d in divisors
    ]
    lcs = [t[0][1] for t in dterms]
    pterms = [(key(m), c) for m, c in p._terms.items()]

    def run(packing):
        guard = packing.guard
        leads = [packing.pack(t[0][0]) for t in dterms]
        tails = [packing.offsets(t) for t in dterms]
        rem = _Accumulator(packing, pterms)
        quots = [{} for _ in dterms]
        out = []
        while rem:
            k, c = rem.pop_lead()
            for hit, lm in enumerate(leads):
                if not (k - lm) & guard:
                    break
            else:
                out.append((k, c))
                if exact:
                    break
                continue
            qc = Fraction(c, 1) / lcs[hit]
            quots[hit][k - lm] = qc
            rem.add_shifted(k, tails[hit], -qc)
        exponents = packing.exponents
        return (
            [{exponents(q): c for q, c in quot.items()} for quot in quots],
            {exponents(k): c for k, c in out},
        )

    return _with_wide_keys(run, order)


def divide_exact(p, d):
    """Quotient q with q*d = p; raises DivisibilityError otherwise."""
    if not isinstance(d, Polynomial):
        return p * (Fraction(1, 1) / d)
    p._check_ring(d)
    if d.is_zero():
        raise DivisibilityError("division by the zero polynomial")
    if p.is_zero():
        return p
    (q,), rem = _divide(p, [d], DegRevLex(len(p.ring)), exact=True)
    if rem:
        raise DivisibilityError(f"({d}) does not divide ({p}) exactly")
    return Polynomial(p.ring, q)


def poly_gcd(p, q):
    """Greatest common divisor, canonically normalized.

    Primitive-part/content recursion with a subresultant PRS in the last
    active variable, run only when `_coprime_on_line` cannot prove the
    gcd is 1.  gcd(p, 0) = canonical(p).
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
    return _gcd_recursive(a, b).canonical()


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


def _active_vars(p):
    mask = p.support_mask()
    return [i for i in range(len(p.ring)) if mask >> i & 1]


def _gcd_recursive(a, b):
    ring = a.ring
    av = set(_active_vars(a))
    bv = set(_active_vars(b))
    if not av and not bv:
        return Polynomial.constant(ring, 1)
    common = sorted(av | bv)
    v = common[-1]
    if v not in av:
        # a has no v: gcd(a, cont_v(b))
        return _gcd_recursive(a, _content_in(b, v))
    if v not in bv:
        return _gcd_recursive(_content_in(a, v), b)
    ca = _content_in(a, v)
    cb = _content_in(b, v)
    cont = _gcd_recursive(ca, cb)
    pa = divide_exact(a, ca)
    pb = divide_exact(b, cb)
    prim = _prs_gcd(pa, pb, v)
    return cont * prim


def _coeffs_in(p, v):
    """p as a map {v-exponent: coefficient polynomial (v-free)}."""
    ring = p.ring
    out = {}
    for mono, c in p._terms.items():
        e = mono[v]
        m2 = list(mono)
        m2[v] = 0
        key = tuple(m2)
        d = out.setdefault(e, {})
        d[key] = d.get(key, 0) + c
    return {e: Polynomial(ring, t) for e, t in out.items()}


def _from_coeffs(ring, v, coeffs):
    terms = {}
    for e, poly in coeffs.items():
        for mono, c in poly._terms.items():
            m2 = list(mono)
            m2[v] = m2[v] + e
            terms[tuple(m2)] = terms.get(tuple(m2), 0) + c
    return Polynomial(ring, terms)


def _content_in(p, v):
    g = Polynomial.zero(p.ring)
    for _, coeff in sorted(_coeffs_in(p, v).items()):
        g = poly_gcd(g, coeff) if not g.is_zero() else coeff.canonical()
        if g.is_constant():
            return Polynomial.constant(p.ring, 1)
    return g


def _deg_in(p, v):
    return max((m[v] for m in p._terms), default=-1)


def _pseudo_rem(a, b, v):
    """Pseudo remainder in variable v: lc_v(b)^(da-db+1) * a mod b."""
    ring = a.ring
    db = _deg_in(b, v)
    bc = _coeffs_in(b, v)
    lcb = bc[db]
    r = a
    da = _deg_in(r, v)
    steps = 0
    target = da - db + 1
    while not r.is_zero() and da >= db:
        rc = _coeffs_in(r, v)
        lead = rc[da]
        # r := lcb*r - lead * v^(da-db) * b
        sub = _from_coeffs(
            ring, v, {da - db + e: lead * c for e, c in bc.items()}
        )
        r = lcb * r - sub
        steps += 1
        da = _deg_in(r, v)
    # normalize the multiplier to exactly lcb^(deg a - deg b + 1)
    if steps < target:
        r = r * (lcb ** (target - steps))
    return r


def _prs_gcd(a, b, v):
    """Subresultant PRS gcd of v-primitive a, b (both with positive v-degree)."""
    if _deg_in(a, v) < _deg_in(b, v):
        a, b = b, a
    one = Polynomial.constant(a.ring, 1)
    g = one
    h = one
    while True:
        delta = _deg_in(a, v) - _deg_in(b, v)
        r = _pseudo_rem(a, b, v)
        if r.is_zero():
            break
        if _deg_in(r, v) == 0:
            return one
        a = b
        b = divide_exact(r, g * (h ** delta))
        g = _coeffs_in(a, v)[_deg_in(a, v)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = divide_exact(g ** delta, h ** (delta - 1))
    cb = _content_in(b, v)
    return divide_exact(b, cb).canonical()


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


def format_polynomial(p, order=None):
    """Canonical serialization: degrevlex-descending terms, explicit signs."""
    if p.is_zero():
        return "0"
    parts = []
    for mono, c in p.sorted_terms(order):
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
