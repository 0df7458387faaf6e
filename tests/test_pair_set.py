"""The S-pairs Buchberger processes, pinned.

Each row was recorded by running `buchberger` on a fixture's base ideal
(its Cremona coordinates) or its graph ideal (y_i - coordinate_i over
source and target variables) under degrevlex and a block order.  The row holds
`Budget.pairs_used`, the size of the reduced basis and a digest of its
generators.  A change to the pair update (Gebauer-Moeller criteria,
normal selection, the sugar tie-break) or to the reducer choice shows up
here as a different pair count or basis, even when the basis is only
reordered.  `RECORDED_ELIMINATE` pins `eliminate` on the graph ideals the
same way: the pairs it charges and a digest of the generators it returns,
dropping the source variables, the target variables, or `x1` alone.
`RECORDED_REES` pins `rees_ideal`, whose elimination of t drops the pairs
its Hilbert series rules out, on a fixture's coordinates and on its
Cremona coordinates.  Without that pruning the same bases took 23, 8, 57,
8, 220, 37, 92 and 8 pairs, in the table's order.
"""

import hashlib

import pytest

from jonq.fixtures import FIXTURE_NAMES, load_fixture
from jonq.groebner import Budget, IdealHandle, buchberger, eliminate
from jonq.orders import Block, DegRevLex
from jonq.rees import rees_ideal
from jonq.ring import Polynomial

RECORDED = {
    ("identity", "base", "degrevlex"): (0, 3, "571af3efee9a870c"),
    ("identity", "base", "block"): (0, 3, "571af3efee9a870c"),
    ("identity", "graph", "degrevlex"): (16, 9, "dbeaa558fc8e4609"),
    ("identity", "graph", "block"): (39, 13, "bb7a3f7f7fe5f352"),
    ("plane", "base", "degrevlex"): (2, 3, "2883ae828e358a68"),
    ("plane", "base", "block"): (2, 3, "2883ae828e358a68"),
    ("plane", "graph", "degrevlex"): (53, 18, "404d45c91d708b2a"),
    ("plane", "graph", "block"): (76, 23, "6c0c2a3da31d61f6"),
    ("space", "base", "degrevlex"): (5, 5, "8babb4dc0a50020a"),
    ("space", "base", "block"): (5, 5, "b7af66df119f8d45"),
    ("space", "graph", "degrevlex"): (217, 46, "ac850b513604bcf1"),
    ("space", "graph", "block"): (263, 53, "4e4ca7f8401009b9"),
    ("nzd", "base", "degrevlex"): (2, 3, "2883ae828e358a68"),
    ("nzd", "base", "block"): (2, 3, "2883ae828e358a68"),
    ("nzd", "graph", "degrevlex"): (76, 25, "01dea4b981da9d72"),
    ("nzd", "graph", "block"): (122, 35, "c6bc652c2cc3759d"),
}

RECORDED_ELIMINATE = {
    ("identity", "source"): (39, 1, "0224f1ebf530d5b6"),
    ("identity", "target"): (0, 0, "e3b0c44298fc1c14"),
    ("identity", "x1"): (32, 6, "6a6336c883b9fed4"),
    ("plane", "source"): (76, 1, "efe6a4d540fe46f5"),
    ("plane", "target"): (0, 0, "e3b0c44298fc1c14"),
    ("plane", "x1"): (63, 11, "70f8a28936a7f07e"),
    ("space", "source"): (263, 1, "e9fef720314f342a"),
    ("space", "target"): (0, 0, "e3b0c44298fc1c14"),
    ("space", "x1"): (115, 18, "5badcff23800ad82"),
    ("nzd", "source"): (122, 1, "34f84912ebdca8b6"),
    ("nzd", "target"): (0, 0, "e3b0c44298fc1c14"),
    ("nzd", "x1"): (131, 21, "8729960de03b4237"),
}

RECORDED_REES = {
    ("identity", "coordinates"): (13, 7, "69654d759ea50f25"),
    ("identity", "cremona"): (4, 3, "0b8c7865fa964de8"),
    ("plane", "coordinates"): (23, 7, "c47d4ad6266eb906"),
    ("plane", "cremona"): (3, 2, "dab0137c7b0aebd2"),
    ("space", "coordinates"): (102, 9, "84a0e658f40cc233"),
    ("space", "cremona"): (11, 5, "ba0c4a25b6359192"),
    ("nzd", "coordinates"): (36, 8, "07ffc6baafd72082"),
    ("nzd", "cremona"): (3, 2, "dab0137c7b0aebd2"),
}


def _digest(gens):
    return hashlib.sha256("\n".join(map(str, gens)).encode()).hexdigest()[:16]


def _ideal(name, kind):
    """Generators and the order for each order name."""
    P = load_fixture(name).jonquieres()
    nx = len(P.source)
    if kind == "base":
        gens = list(P.base_ideal_I().gens)
        n = nx
        block = Block(n, (0,))
    else:
        coords = P.coordinates()
        big = P.source.union(P.monoid_ring)
        gens = [
            Polynomial.variable(big, nm) - c.map_ring(big)
            for nm, c in zip(P.monoid_ring.names, coords)
        ]
        n = len(big)
        block = Block(n, tuple(range(nx)))
    return gens, {"degrevlex": DegRevLex(n), "block": block}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("kind", ["base", "graph"])
def test_pairs_and_bases_as_recorded(name, kind):
    gens, orders = _ideal(name, kind)
    for oname, order in orders.items():
        budget = Budget()
        gb = buchberger(gens, order, budget)
        got = (budget.pairs_used, len(gb), _digest(gb.generators))
        assert got == RECORDED[name, kind, oname], (name, kind, oname)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_eliminations_as_recorded(name):
    gens, _ = _ideal(name, "graph")
    P = load_fixture(name).jonquieres()
    drops = {"source": P.source.names, "target": P.monoid_ring.names, "x1": ("x1",)}
    for dname, drop in drops.items():
        budget = Budget()
        out = eliminate(IdealHandle(gens[0].ring, gens), drop, budget=budget)
        assert out.gb().generators == out.gens
        got = (budget.pairs_used, len(out.gens), _digest(out.gens))
        assert got == RECORDED_ELIMINATE[name, dname], (name, dname)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rees_ideals_as_recorded(name):
    P = load_fixture(name).jonquieres()
    cases = {
        "coordinates": (list(P.coordinates()), P.monoid_ring.names),
        "cremona": (list(P.cremona.forward.coords), P.cremona.target.names),
    }
    for kind, (gens, y_names) in cases.items():
        budget = Budget()
        pres = rees_ideal(gens, y_names=y_names, budget=budget)
        got = (budget.pairs_used, len(pres.generators), _digest(pres.generators))
        assert got == RECORDED_REES[name, kind], (name, kind)
