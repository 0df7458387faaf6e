"""The S-pairs Buchberger processes, pinned.

Each row was recorded by running `buchberger` on a fixture's base ideal
(its Cremona coordinates) or its graph ideal (y_i - coordinate_i over
source and target variables) under four orders.  The row holds
`Budget.pairs_used`, the size of the reduced basis and a digest of its
generators.  A change to the pair update (Gebauer-Moeller criteria,
normal selection, the sugar tie-break) or to the reducer choice shows up
here as a different pair count or basis, even when the basis is only
reordered.
"""

import hashlib

import pytest

from jonq.fixtures import FIXTURE_NAMES, load_fixture
from jonq.groebner import Budget, buchberger
from jonq.orders import Block, DegRevLex, Lex, Weighted
from jonq.ring import Polynomial

RECORDED = {
    ("identity", "base", "degrevlex"): (0, 3, "571af3efee9a870c"),
    ("identity", "base", "block"): (0, 3, "571af3efee9a870c"),
    ("identity", "base", "lex"): (0, 3, "571af3efee9a870c"),
    ("identity", "base", "weighted"): (0, 3, "ec6ead6fb87a1d74"),
    ("identity", "graph", "degrevlex"): (16, 9, "dbeaa558fc8e4609"),
    ("identity", "graph", "block"): (39, 13, "bb7a3f7f7fe5f352"),
    ("identity", "graph", "lex"): (39, 13, "644279e82f52bbc4"),
    ("identity", "graph", "weighted"): (16, 9, "ae6ad786eaf838be"),
    ("plane", "base", "degrevlex"): (2, 3, "2883ae828e358a68"),
    ("plane", "base", "block"): (2, 3, "2883ae828e358a68"),
    ("plane", "base", "lex"): (2, 3, "2883ae828e358a68"),
    ("plane", "base", "weighted"): (2, 3, "3a8a973ecd639c61"),
    ("plane", "graph", "degrevlex"): (53, 18, "404d45c91d708b2a"),
    ("plane", "graph", "block"): (76, 23, "6c0c2a3da31d61f6"),
    ("plane", "graph", "lex"): (80, 24, "c024a2f81216ca63"),
    ("plane", "graph", "weighted"): (53, 18, "8a0c23c6b17a7b13"),
    ("space", "base", "degrevlex"): (5, 5, "8babb4dc0a50020a"),
    ("space", "base", "block"): (5, 5, "b7af66df119f8d45"),
    ("space", "base", "lex"): (5, 5, "b7af66df119f8d45"),
    ("space", "base", "weighted"): (3, 4, "25020826a2972998"),
    ("space", "graph", "degrevlex"): (217, 46, "ac850b513604bcf1"),
    ("space", "graph", "block"): (263, 53, "4e4ca7f8401009b9"),
    ("space", "graph", "lex"): (291, 58, "4eed3bede7835ed1"),
    ("space", "graph", "weighted"): (214, 46, "03541445a11a3725"),
    ("nzd", "base", "degrevlex"): (2, 3, "2883ae828e358a68"),
    ("nzd", "base", "block"): (2, 3, "2883ae828e358a68"),
    ("nzd", "base", "lex"): (2, 3, "2883ae828e358a68"),
    ("nzd", "base", "weighted"): (2, 3, "3a8a973ecd639c61"),
    ("nzd", "graph", "degrevlex"): (76, 25, "01dea4b981da9d72"),
    ("nzd", "graph", "block"): (122, 35, "c6bc652c2cc3759d"),
    ("nzd", "graph", "lex"): (184, 46, "7c3b3fcd3d8d2f15"),
    ("nzd", "graph", "weighted"): (76, 25, "d914f4929750a4e0"),
}


def _ideal(name, kind):
    """Generators and the order for each order name."""
    P = load_fixture(name).jonquieres()
    nx = len(P.source)
    if kind == "base":
        gens = list(P.base_ideal_I().gens)
        n = nx
        block = Block(n, (0,))
        weights = tuple(range(2, n + 2))
    else:
        coords = P.coordinates()
        big = P.source.union(P.monoid_ring)
        gens = [
            Polynomial.variable(big, nm) - c.map_ring(big)
            for nm, c in zip(P.monoid_ring.names, coords)
        ]
        n = len(big)
        block = Block(n, tuple(range(nx)))
        weights = tuple([1] * nx + [c.total_degree() for c in coords])
    orders = {
        "degrevlex": DegRevLex(n),
        "block": block,
        "lex": Lex(n),
        "weighted": Weighted(weights),
    }
    return gens, orders


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("kind", ["base", "graph"])
def test_pairs_and_bases_as_recorded(name, kind):
    gens, orders = _ideal(name, kind)
    for oname, order in orders.items():
        budget = Budget()
        gb = buchberger(gens, order, budget)
        digest = hashlib.sha256("\n".join(map(str, gb.generators)).encode()).hexdigest()
        got = (budget.pairs_used, len(gb), digest[:16])
        assert got == RECORDED[name, kind, oname], (name, kind, oname)
