"""Seeded instance generation and independent output checks.

Everything here is written against the instance-file text format and the
`--machine` report format only; nothing imports `jonq`.  A change to the
library therefore cannot change which instances a seed produces, nor what
the checks accept.

Forms are dicts mapping exponent tuples to nonzero ints (or Fractions
when parsed from a report).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

COEFFS = (-3, -2, -1, 1, 2, 3)

# The standard quadratic involution of P^2; its own inverse.
PLANE_CREMONA = "x1*x2, x0*x2, x0*x1"
PLANE_INVERSE = "y1*y2, y0*y2, y0*y1"


@dataclass
class Instance:
    """One instance file plus what the checks need to know about it."""

    name: str
    text: str
    n: int
    f: dict | None = None  # set for identity-Cremona instances only
    g: dict | None = None


def monomials(nvars, degree):
    """Exponent tuples of the given total degree, in a fixed order."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


def draw_form(rng, nvars, degree, pure_powers=True):
    """Dense form with coefficients drawn from COEFFS.

    With `pure_powers=False` the coefficients of x_i^degree are zero, so
    the form vanishes at every coordinate point.
    """
    out = {}
    for m in monomials(nvars, degree):
        if not pure_powers and degree > 0 and max(m) == degree:
            continue
        out[m] = rng.choice(COEFFS)
    return out


def format_form(form, names):
    parts = []
    for m in sorted(form, reverse=True):
        c = form[m]
        body = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e
        )
        mag = abs(c)
        text = body if (mag == 1 and body) else (f"{mag}*{body}" if body else str(mag))
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {text}")
    first = parts[0]
    head = first[2:] if first[0] == "+" else "-" + first[2:]
    return " ".join([head] + parts[1:])


# -- coprimality without a multivariate gcd ---------------------------------


def _restrict_to_line(form, a, b):
    """Univariate coefficients (ascending in t) of form(a + t*b)."""
    deg = sum(next(iter(form)))
    coeffs = [Fraction(0)] * (deg + 1)
    for m, c in form.items():
        poly = [Fraction(c)]
        for ai, bi, e in zip(a, b, m):
            for _ in range(e):
                nxt = [Fraction(0)] * (len(poly) + 1)
                for k, v in enumerate(poly):
                    nxt[k] += v * ai
                    nxt[k + 1] += v * bi
                poly = nxt
        for k, v in enumerate(poly):
            coeffs[k] += v
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _univariate_gcd_degree(p, q):
    while q:
        r = list(p)
        while len(r) >= len(q) and r:
            factor = r[-1] / q[-1]
            shift = len(r) - len(q)
            for k, v in enumerate(q):
                r[shift + k] -= factor * v
            while r and r[-1] == 0:
                r.pop()
        p, q = q, r
    return len(p) - 1


def _evaluate(form, point):
    total = 0
    for m, c in form.items():
        term = c
        for x, e in zip(point, m):
            term *= x**e
        total += term
    return total


def coprime(f, g, rng):
    """A sufficient test that the forms f and g share no factor.

    A common factor h would restrict to a common factor of positive degree
    on any line x = a + t*b not inside V(h); the affine chart misses only
    the point b, which is checked on its own.  False means "could not
    certify", and the caller draws again.
    """
    nvars = len(next(iter(f)))
    a = [rng.randint(-5, 5) for _ in range(nvars)]
    b = [rng.randint(-5, 5) for _ in range(nvars)]
    if _evaluate(f, b) == 0 and _evaluate(g, b) == 0:
        return False
    fl = _restrict_to_line(f, a, b)
    gl = _restrict_to_line(g, a, b)
    if not fl or not gl:
        return False
    return _univariate_gcd_degree(fl, gl) == 0


def coprime_pair(rng, nvars, deg_f, deg_g, g_pure_powers=True):
    for _ in range(64):
        f = draw_form(rng, nvars, deg_f)
        g = draw_form(rng, nvars, deg_g, pure_powers=g_pure_powers)
        if coprime(f, g, rng):
            return f, g
    raise RuntimeError("no coprime pair in 64 draws")


# -- instance text ---------------------------------------------------------


def _instance_text(header, n, cremona, inverse, f, g):
    xs = [f"x{i}" for i in range(n + 1)]
    return (
        f"# {header}\n"
        f"ring: {', '.join(xs)}\n"
        f"cremona: {cremona}\n"
        f"cremona_inverse: {inverse}\n"
        f"f: {format_form(f, xs)}\n"
        f"g: {format_form(g, xs)}\n"
    )


def identity_instance(rng, name, n, deg_f):
    f, g = coprime_pair(rng, n + 1, deg_f, deg_f + 1)
    xs = ", ".join(f"x{i}" for i in range(n + 1))
    ys = ", ".join(f"y{i}" for i in range(n + 1))
    text = _instance_text(f"identity Cremona of P^{n}, deg f = {deg_f}", n, xs, ys, f, g)
    return Instance(name, text, n, f, g)


def plane_instance(rng, name, deg_f, nzd):
    """Plane involution; `nzd` makes g miss the three base points."""
    f, g = coprime_pair(rng, 3, deg_f, deg_f + 2, g_pure_powers=nzd)
    tag = "nzd" if nzd else "plane"
    text = _instance_text(
        f"plane involution, deg f = {deg_f}, {tag}", 2, PLANE_CREMONA, PLANE_INVERSE, f, g
    )
    return Instance(name, text, 2)


# -- report parsing and checks -----------------------------------------------


def parse_report(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


def parse_form(text, names):
    """Parse a rendered polynomial such as `y0^2 - 2/3*y1*y3 + 5`."""
    index = {name: i for i, name in enumerate(names)}
    tokens = text.replace(" - ", " + -").split(" + ")
    out = {}
    for tok in tokens:
        tok = tok.strip()
        sign = 1
        if tok.startswith("-"):
            sign, tok = -1, tok[1:].strip()
        coeff = Fraction(1)
        exps = [0] * len(names)
        for factor in tok.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                exps[index[name]] += int(power) if power else 1
        m = tuple(exps)
        out[m] = out.get(m, 0) + sign * coeff
    return {m: c for m, c in out.items() if c}


def identity_expected_F(f, g, n):
    """g(y) - f(y) * y_{n+1} over y0..y_{n+1}, computed here from scratch."""
    out = {m + (0,): Fraction(c) for m, c in g.items()}
    for m, c in f.items():
        key = m + (1,)
        out[key] = out.get(key, 0) - c
    return {m: c for m, c in out.items() if c}


# -- workloads ---------------------------------------------------------------

FIXTURES = ("identity", "plane", "nzd", "space")

# name -> (CLI command, seeded mix).  A mix entry is
# (count, family, n, deg f); family "identity" is the identity Cremona of
# P^n, "plane" and "nzd" the plane involution with g through, or missing,
# its three base points.  Every workload also runs the four fixtures.
WORKLOADS = {
    "oracle": (
        ["implicitize", "--oracle"],
        [(1, "identity", 3, 2), (4, "identity", 3, 1), (1, "identity", 2, 3),
         (5, "identity", 2, 2), (4, "identity", 2, 1), (5, "plane", 2, 1),
         (1, "plane", 2, 2), (4, "nzd", 2, 1), (1, "nzd", 2, 2)],
    ),
    "rees": (
        ["rees"],
        [(4, "identity", 3, 1), (6, "identity", 2, 2), (10, "identity", 2, 1),
         (5, "plane", 2, 1), (1, "nzd", 2, 1)],
    ),
    "analyze": (
        ["analyze"],
        [(11, "identity", 2, 1), (1, "identity", 2, 2), (12, "plane", 2, 1),
         (1, "plane", 2, 2), (1, "nzd", 2, 1)],
    ),
    "oracle.compiled": None,  # the oracle instances on the compiled kernel
}
COMPILED = {"oracle.compiled": "oracle"}


def workload_spec(name):
    return WORKLOADS[COMPILED.get(name, name)]


def make_instances(workload, seed, fixture_dir, quick=False):
    """The fixed instance set of one workload and seed.

    `quick` keeps the fixtures and one instance per mix entry.
    """
    _, mix = workload_spec(workload)
    rng = random.Random(f"{COMPILED.get(workload, workload)}:{seed}")
    out = []
    for name in FIXTURES:
        with open(f"{fixture_dir}/{name}.jonq", encoding="utf-8") as fh:
            out.append(Instance(f"fixture.{name}", fh.read(), -1))
    for count, family, n, deg_f in mix:
        for k in range(1 if quick else count):
            name = f"{family}{n}.f{deg_f}.{k}"
            if family == "identity":
                out.append(identity_instance(rng, name, n, deg_f))
            else:
                out.append(plane_instance(rng, name, deg_f, nzd=family == "nzd"))
    return out
