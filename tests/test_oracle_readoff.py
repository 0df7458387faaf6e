"""The elimination oracle's read-off against the route it replaced.

`reference_oracle` is `oracle_implicitize` as it was when it built the
reduced basis of the Rees ideal and read its x-free elements:
`implicit_generator(eliminate_rees_parameter(...))`, written out with the
body of the former `rees.implicit_generator`.  `oracle_implicitize` reads
F off the one Block run instead.  Both must give the same F, raise the same
`HypothesisViolation` text (the generator count included) and charge the
same S-pairs, on the fixtures, on the zero-coordinate and
not-a-hypersurface cases of `TestOracle` and on drawn tuples, in-process
and on both kernels.
"""

import hashlib
import os

import pytest
from hypothesis import given, settings
from test_implicitize import equal_degree_tuples
from test_orders_kernel import _outputs_on_both_backends

from jonq.errors import BudgetExceeded, HypothesisViolation
from jonq.fixtures import FIXTURE_NAMES, load_fixture
from jonq.groebner import Budget, _GBPoly, _to_internal
from jonq.implicitize import oracle_implicitize
from jonq.orders import DegRevLex
from jonq.rees import eliminate_rees_parameter, x_free_generator
from jonq.ring import VariableSet, parse_polynomial


def reference_oracle(coords, target_ring, budget):
    """The canonical generator of the x-free part of the reduced Rees basis."""
    ideal = eliminate_rees_parameter(coords, target_ring.names, budget)
    x_idx = tuple(ideal.ring.index(nm) for nm in coords[0].ring.names)
    free = [h for h in ideal.gb(budget=budget).generators if h.degree_in(x_idx) == 0]
    if len(free) != 1:
        raise HypothesisViolation(
            "the image is not a hypersurface: elimination ideal is not "
            f"principal ({len(free)} generators)"
        )
    return free[0].restrict_to(target_ring).canonical()


def _outcome(oracle, coords, target_ring, budget):
    try:
        return ("F", oracle(coords, target_ring, budget), budget.pairs_used)
    except HypothesisViolation as exc:
        return ("raises", str(exc), budget.pairs_used)


def check_readoff(coords, target_ring=None):
    """The read-off's outcome, held to the reference's; returns it."""
    target_ring = target_ring or VariableSet([f"y{i}" for i in range(len(coords))])
    want = _outcome(reference_oracle, coords, target_ring, Budget())
    got = _outcome(oracle_implicitize, coords, target_ring, Budget())
    assert got == want
    if got[0] == "F":
        assert got[1].substitute(list(coords)).is_zero()
    return got


R2 = VariableSet(["x0", "x1"])

# `TestOracle`'s cases: the conic, the zero coordinates and a point of P^2
PINNED = [
    ("x0^2", "x0*x1", "x1^2"),
    ("x0^2", "x1^2", "0"),
    ("x0^2", "0", "x0*x1"),
    ("x0^2 - x1^2", "0", "0"),
    ("0", "0", "x0^2"),
    ("x0^2", "2*x0^2", "3*x0^2"),
]


def readoff_digests():
    """Digests of the oracle's outcome and S-pairs on the fixtures and the
    pinned tuples, each checked against `reference_oracle`."""
    out = []
    for name in FIXTURE_NAMES:
        P = load_fixture(name).jonquieres()
        out.append(check_readoff(list(P.coordinates()), P.monoid_ring))
    for texts in PINNED:
        out.append(check_readoff([parse_polynomial(t, R2) for t in texts]))
    return [hashlib.sha256(repr(o).encode()).hexdigest()[:16] for o in out]


def test_pinned_outcomes():
    # three F, and 2 generators for each image that is no hypersurface
    kinds = [check_readoff([parse_polynomial(t, R2) for t in texts]) for texts in PINNED]
    assert [k[0] for k in kinds] == ["F", "F", "F", "raises", "raises", "raises"]
    assert [k[1] for k in kinds[3:]] == [
        "the image is not a hypersurface: elimination ideal is not principal (2 generators)"
    ] * 3


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_budget_boundary_is_the_same(name):
    # the run that finishes with k pairs fails at a budget of k - 1 either way
    P = load_fixture(name).jonquieres()
    coords, target = list(P.coordinates()), P.monoid_ring
    used = check_readoff(coords, target)[2]
    for oracle in (reference_oracle, oracle_implicitize):
        assert oracle(coords, target, Budget(max_pairs=used)) is not None
        with pytest.raises(BudgetExceeded):
            oracle(coords, target, Budget(max_pairs=used - 1))


def test_a_lead_that_another_divides_is_not_counted():
    # a Groebner basis need not be minimal: y0*y1 + y1^2 = y1*(y0 + y1) is
    # counted only while no lead of the x-free part divides its lead y0*y1
    ring, y = VariableSet(["x0", "y0", "y1"]), VariableSet(["y0", "y1"])
    order = DegRevLex(3)

    def elems(*texts):
        return [_GBPoly(_to_internal(parse_polynomial(t, ring), order), order) for t in texts]

    F = x_free_generator(elems("y0*y1 + y1^2", "x0 - y1", "2*y0 + 2*y1"), order, ring, ["x0"], y)
    assert F == parse_polynomial("y0 + y1", y)
    with pytest.raises(HypothesisViolation, match=r"principal \(2 generators\)"):
        x_free_generator(elems("y0*y1 + y1^2", "y1^3"), order, ring, ["x0"], y)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coords=equal_degree_tuples())
def test_readoff_matches_on_drawn_tuples(coords):
    check_readoff(coords)


def test_readoff_identical_across_backends(compiled_kernel_path):
    body = (
        f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "from test_oracle_readoff import readoff_digests, test_readoff_matches_on_drawn_tuples\n"
        "test_readoff_matches_on_drawn_tuples()\n"
        "print('\\n'.join(readoff_digests()))\n"
    )
    outs = _outputs_on_both_backends(compiled_kernel_path, body)
    assert outs["0"][1] == outs["1"][1]
    assert len(outs["0"][1]) == len(FIXTURE_NAMES) + len(PINNED)
