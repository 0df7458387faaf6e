"""Order-key laws and parity between the pure and compiled kernels."""

import pytest
from hypothesis import given, settings, strategies as st

from jonq import _kernel as pure
from jonq.errors import StructuralError
from jonq.orders import Block, DegRevLex

exps4 = st.tuples(*(st.integers(0, 6) for _ in range(4)))


def orders():
    return [
        DegRevLex(4),
        Block(4, (0, 1)),
        Block(4, (2,)),
    ]


@settings(max_examples=60, deadline=None)
@given(exps4, exps4)
def test_keys_are_additive(a, b):
    ab = tuple(x + y for x, y in zip(a, b))
    for order in orders():
        ka, kb = order.key(a), order.key(b)
        assert order.key(ab) == tuple(x + y for x, y in zip(ka, kb))


@settings(max_examples=60, deadline=None)
@given(exps4)
def test_keys_invert(a):
    for order in orders():
        assert order.exponents(order.key(a)) == a


@settings(max_examples=60, deadline=None)
@given(exps4, exps4, exps4)
def test_multiplication_compatible(a, b, m):
    am = tuple(x + y for x, y in zip(a, m))
    bm = tuple(x + y for x, y in zip(b, m))
    for order in orders():
        if order.key(a) < order.key(b):
            assert order.key(am) < order.key(bm)


def test_degrevlex_classic_comparisons():
    o = DegRevLex(3)
    # x0 > x1 > x2, and x0*x2 < x1^2 under degrevlex
    assert o.key((1, 0, 0)) > o.key((0, 1, 0)) > o.key((0, 0, 1))
    assert o.key((1, 0, 1)) < o.key((0, 2, 0))


def test_block_order_eliminates_first_block():
    o = Block(3, (0,))
    # any monomial containing x0 beats any x0-free monomial
    assert o.key((1, 0, 0)) > o.key((0, 5, 5))


@pytest.mark.parametrize("first", [(), (0, 1, 2), (0, 0), (3,), (-1,)])
def test_block_order_rejects_a_bad_index_set(first):
    with pytest.raises(StructuralError):
        Block(3, first)


def _random_terms(rng, n, count, order):
    seen = {}
    for _ in range(count):
        m = tuple(rng.randrange(0, 5) for _ in range(n))
        seen[order.key(m)] = rng.randrange(-9, 10) or 1
    return sorted(seen.items(), reverse=True)


def test_backend_parity_merge_and_mul(compiled_kernel):
    import random

    rng = random.Random(5)
    order = DegRevLex(4)
    for trial in range(40):
        a = _random_terms(rng, 4, rng.randrange(1, 8), order)
        b = _random_terms(rng, 4, rng.randrange(1, 8), order)
        sa = tuple(rng.randrange(0, 3) for _ in range(5))
        sb = tuple(rng.randrange(0, 3) for _ in range(5))
        ca, cb = rng.randrange(1, 5), -rng.randrange(1, 5)
        got = compiled_kernel.merge_linear(a, 0, ca, sa, b, 0, cb, sb)
        want = pure.merge_linear(a, 0, ca, sa, b, 0, cb, sb)
        assert got == want
        ap = [(sum(m) * 64 + i, c) for i, (m, c) in enumerate(a)]
        bp = [(sum(m) * 64 + i, c) for i, (m, c) in enumerate(b)]
        assert compiled_kernel.mul_packed(ap, bp) == pure.mul_packed(ap, bp)


def test_backend_parity_find_reducer(compiled_kernel):
    import random

    rng = random.Random(9)
    for _ in range(60):
        exps = tuple(rng.randrange(0, 4) for _ in range(4))
        mask = sum(1 << i for i, e in enumerate(exps) if e)
        leads = []
        for idx in range(rng.randrange(1, 6)):
            lm = tuple(rng.randrange(0, 4) for _ in range(4))
            lmask = sum(1 << i for i, e in enumerate(lm) if e)
            leads.append((lmask, lm, idx))
        assert compiled_kernel.find_reducer(exps, mask, leads) == pure.find_reducer(
            exps, mask, leads
        )


def _outputs_on_both_backends(compiled_kernel_path, body):
    """Run `body` (Python source printing its results) once on the compiled
    kernel loaded from `compiled_kernel_path` and once on the pure backend;
    returns {JONQ_PURE value: (backend name, remaining output lines)}."""
    import os
    import subprocess
    import sys

    script = (
        "import importlib.machinery, importlib.util, sys\n"
        "name = 'jonq._kernel_c'\n"
        f"loader = importlib.machinery.ExtensionFileLoader(name, {compiled_kernel_path!r})\n"
        "spec = importlib.util.spec_from_loader(name, loader)\n"
        "sys.modules[name] = importlib.util.module_from_spec(spec)\n"
        "loader.exec_module(sys.modules[name])\n"
        "from jonq.kernel import BACKEND\n"
        "print(BACKEND)\n"
    ) + body
    outs = {}
    for env_val in ("0", "1"):
        full = dict(os.environ)
        full["JONQ_PURE"] = env_val
        res = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=full
        )
        assert res.returncode == 0, res.stderr
        backend, *lines = res.stdout.strip().splitlines()
        outs[env_val] = (backend, lines)
    assert outs["0"][0] == "cython"
    assert outs["1"][0] == "python"
    return outs


def test_groebner_identical_across_backends(compiled_kernel_path):
    """The reduced basis must be bit-identical under both kernels."""
    body = (
        "from jonq.ring import VariableSet, parse_polynomial\n"
        "from jonq.groebner import buchberger\n"
        "R = VariableSet(['x0','x1','x2','x3'])\n"
        "gens = [parse_polynomial(s, R) for s in ("
        "'x0^2*x1 - x2^3 + x3^3', 'x0*x3 - x1*x2', 'x1^3 - x0*x2^2')]\n"
        "print('|'.join(str(g) for g in buchberger(gens)))\n"
    )
    outs = _outputs_on_both_backends(compiled_kernel_path, body)
    assert outs["0"][1] == outs["1"][1]


def test_polynomial_layer_identical_across_backends(compiled_kernel_path):
    """`substitute`, `poly_gcd` and `compose` hand `mul_packed` the lists the
    compiled kernel is typed for, and print the same on both kernels."""
    body = (
        "from jonq.birational import compose\n"
        "from jonq.fixtures import load_fixture\n"
        "from jonq.ring import poly_gcd\n"
        "for name in ('plane', 'space'):\n"
        "    inst = load_fixture(name)\n"
        "    fwd, inv = inst.forward_map(), inst.inverse_map()\n"
        "    raw = compose(fwd, inv).coords\n"
        "    print('|'.join(str(c) for c in raw))\n"
        "    print('|'.join(str(c) for c in compose(fwd, inv).stripped().coords))\n"
        "    print('|'.join(str(c) for c in compose(inv, fwd).stripped().coords))\n"
        "    print(inst.g.substitute(list(inv.coords)))\n"
        "    print((inst.f * inst.g - 1).substitute(list(inv.coords)))\n"
        "    print(poly_gcd(raw[0], raw[1]), poly_gcd(raw[1], raw[0] * raw[1]))\n"
        "    print(poly_gcd(inst.f * inst.g, inst.g * (inst.f + 1)))\n"
    )
    outs = _outputs_on_both_backends(compiled_kernel_path, body)
    assert len(outs["0"][1]) == 14
    assert outs["0"][1] == outs["1"][1]


def test_batch_substitution_identical_across_backends(compiled_kernel_path):
    """`substitute_all` over zero, constant, one-term and multi-term images,
    on a batch that shares monomials, prints the same on both kernels."""
    body = (
        "from jonq.ring import VariableSet, parse_polynomial, random_form, substitute_all\n"
        "R = VariableSet(['x0','x1','x2','x3'])\n"
        "S = VariableSet(['s','t'])\n"
        "images = [parse_polynomial(s, S) for s in ('0', '-5/3', '2*s*t^2', 's^2 - 1/2*t')]\n"
        "polys = [random_form(R, d, seed) for d, seed in ((3, 1), (4, 2), (4, 3))]\n"
        "polys.append(polys[1] + polys[2] * parse_polynomial('x3 - x1', R))\n"
        "print('|'.join(str(q) for q in substitute_all(polys, images)))\n"
    )
    outs = _outputs_on_both_backends(compiled_kernel_path, body)
    assert outs["0"][1] == outs["1"][1] and outs["0"][1][0].count("|") == 3


def test_generated_c_matches_pyx():
    """_kernel_c.c must be regenerated (by Cython) whenever _kernel_c.pyx changes.

    Cython quotes every source line it compiles in a ` * <line>` comment of
    the generated C; every non-blank line of the .pyx outside its module
    docstring must appear there.
    """
    import os
    import re

    src = os.path.dirname(pure.__file__)
    with open(os.path.join(src, "_kernel_c.pyx")) as fh:
        code = re.sub(r'^""".*?"""', "", fh.read(), count=1, flags=re.S | re.M)
    with open(os.path.join(src, "_kernel_c.c")) as fh:
        quoted = {
            re.sub(r"\s+# <+$", "", line[3:])
            for line in fh.read().splitlines()
            if line.startswith(" * ")
        }
    missing = [line for line in code.splitlines() if line.strip() and line not in quoted]
    assert not missing, f"_kernel_c.c is stale; regenerate it from the .pyx: {missing[:3]}"
