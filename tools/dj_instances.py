#!/usr/bin/env python3
"""Write a seeded plane de Jonquieres instance file.

    python3 tools/dj_instances.py --d 3 --deg-f 1 --seed 3011 --out dj.jonq

The Cremona map is the plane de Jonquieres map of degree d,

    G = (x0*q, x1*q, r),  q = x2*a_{d-2} + a_{d-1},  r = x2*b_{d-1} + b_d,

with inverse (y0*Q, y1*Q, R), Q = -y2*a_{d-2} + b_{d-1} and
R = y2*a_{d-1} - b_d (Alberich-Carraminana, Geometry of the Plane
Cremona Maps, LNM 1769, 2002).  The a_i and b_i are binary forms of
degree i in (x0, x1), resp. (y0, y1), with seeded coefficients in
{-3..3} \\ {0}; f and g are dense seeded forms of degrees deg f and
d + deg f.  A draw with a_{d-2}*b_d = a_{d-1}*b_{d-1} (q and r then share
a factor) or with f and g not coprime is thrown away and the next
one taken, so a seed always names the same instance.  The file is
checked by `jonq verify-cremona`, not here.  Needs `src` of this
checkout (found next to this file) and nothing else.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from jonq.ring import Polynomial, VariableSet, poly_gcd, random_form  # noqa: E402

X = VariableSet(["x0", "x1", "x2"])
Y = VariableSet(["y0", "y1", "y2"])


def _binary(ring, coeffs):
    deg = len(coeffs) - 1
    return Polynomial(ring, {(i, deg - i, 0): c for i, c in enumerate(coeffs)})


def de_jonquieres(d, deg_f, seed):
    """(forward, inverse, f, g) of the draw named by `seed`."""
    if d < 2 or deg_f < 1:
        raise ValueError("need d >= 2 and deg f >= 1")
    rng = random.Random(f"dj:{d}:{deg_f}:{seed}")
    while True:
        draw = [
            [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k + 1)]
            for k in (d - 2, d - 1, d - 1, d)
        ]
        a2, a1, b1, b0 = (_binary(X, c) for c in draw)
        f = random_form(X, deg_f, rng.randrange(1 << 30))
        g = random_form(X, d + deg_f, rng.randrange(1 << 30))
        if a2 * b0 != a1 * b1 and poly_gcd(f, g).is_constant():
            break
    x0, x1, x2 = Polynomial.gens(X)
    y0, y1, y2 = Polynomial.gens(Y)
    A2, A1, B1, B0 = (_binary(Y, c) for c in draw)
    q, r = x2 * a2 + a1, x2 * b1 + b0
    Q, R = -(y2 * A2) + B1, y2 * A1 - B0
    return (x0 * q, x1 * q, r), (y0 * Q, y1 * Q, R), f, g


def instance_text(d, deg_f, seed):
    forward, inverse, f, g = de_jonquieres(d, deg_f, seed)
    return (
        f"# plane de Jonquieres map of degree {d}, deg f = {deg_f}, seed {seed}\n"
        f"ring: {', '.join(X.names)}\n"
        f"cremona: {', '.join(map(str, forward))}\n"
        f"cremona_inverse: {', '.join(map(str, inverse))}\n"
        f"f: {f}\n"
        f"g: {g}\n"
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--d", type=int, required=True, help="degree of the Cremona map, >= 2")
    ap.add_argument("--deg-f", type=int, required=True, help="degree of f, >= 1")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="instance file to write")
    args = ap.parse_args(argv)
    if args.d < 2 or args.deg_f < 1:
        ap.error("need --d >= 2 and --deg-f >= 1")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(instance_text(args.d, args.deg_f, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
