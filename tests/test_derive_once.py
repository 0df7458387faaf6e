"""Each derived object of an instance is computed once per command.

Counting wrappers replace `saturate_by_variables`, `colon`, `eliminate`,
`regularity_dim1`, `conductor_data`, `implicitize`, `oracle_implicitize`,
`rees_ideal`, `rees._monoid_rees`, `buchberger` and `poly_gcd` in every
`jonq.*` module that binds them; the commands then run through the CLI
entry point.
"""

import sys

import pytest

from jonq import cli
from jonq.cli import main  # imports every layer module
from jonq.fixtures import fixture_path, load_fixture
from jonq.groebner import buchberger, colon, eliminate, saturate_by_variables
from jonq.implicitize import implicitize, oracle_implicitize
from jonq.rees import _monoid_rees, rees_ideal
from jonq.ring import poly_gcd
from jonq.syzygies import conductor_data, regularity_dim1

COUNTED = {
    "saturate_by_variables": saturate_by_variables,
    "colon": colon,
    "eliminate": eliminate,
    "regularity_dim1": regularity_dim1,
    "conductor_data": conductor_data,
    "implicitize": implicitize,
    "oracle_implicitize": oracle_implicitize,
    "rees_ideal": rees_ideal,
    "_monoid_rees": _monoid_rees,
    "buchberger": buchberger,
    "poly_gcd": poly_gcd,
}


def _counting(fn, log):
    def counted(*args, **kwargs):
        log.append(args)
        return fn(*args, **kwargs)

    return counted


@pytest.fixture
def calls(monkeypatch):
    """name -> positional arguments of every call made while the test runs."""
    log = {name: [] for name in COUNTED}
    for name, fn in COUNTED.items():
        wrapper = _counting(fn, log[name])
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "jonq" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    return log


def _counts(calls, fixture):
    P = load_fixture(fixture).jonquieres()
    base = P.cremona.forward.coords
    return {
        "saturate(I)": sum(1 for a in calls["saturate_by_variables"] if a[0].gens == base),
        "colon(I, g)": sum(
            1 for a in calls["colon"] if a[0].gens == base and a[1] == P.g
        ),
        "regularity_dim1": len(calls["regularity_dim1"]),
        "conductor_data": len(calls["conductor_data"]),
        "implicitize": len(calls["implicitize"]),
    }


# colon(I, g) runs once, or not at all when g lies in I (the identity fixture)
COLONS = [("identity", 0), ("plane", 1), ("nzd", 1)]


@pytest.mark.parametrize("fixture, colons", COLONS)
def test_analyze_derives_each_object_once(fixture, colons, calls, capsys):
    assert main(["analyze", fixture_path(fixture), "--machine"]) == 0
    assert _counts(calls, fixture) == {
        "saturate(I)": 1,
        "colon(I, g)": colons,
        "regularity_dim1": 1,
        "conductor_data": 1,
        "implicitize": 0,
    }


@pytest.mark.parametrize("fixture, colons", COLONS)
def test_implicitize_derives_each_object_once(fixture, colons, calls, capsys):
    assert main(["implicitize", fixture_path(fixture), "--oracle", "--machine"]) == 0
    assert _counts(calls, fixture) == {
        "saturate(I)": 0,
        "colon(I, g)": colons,
        "regularity_dim1": 0,
        "conductor_data": 1,
        "implicitize": 1,
    }


@pytest.mark.parametrize("fixture, tuples", [("plane", 3), ("identity", 1)])
def test_rees_builds_each_rees_ideal_once(fixture, tuples, calls, monkeypatch, capsys):
    # plane: the Cremona base ideal, the monoid M and the de Jonquieres
    # map; M's comes from the closed form, certified, with no elimination.
    # identity: the Cremona map's Rees ideal is its minors and M is the de
    # Jonquieres map, so only M's is built and nothing is eliminated
    eliminations = _calls_inside(monkeypatch, calls, "monoid_association", "eliminate")
    assert main(["rees", fixture_path(fixture), "--machine"]) == 0
    by_elimination = [tuple(a[0]) for a in calls["rees_ideal"]]
    closed_form = [tuple(a[2]) for a in calls["_monoid_rees"]]
    built = by_elimination + closed_form
    assert len(built) == len(set(built)) == tuples
    assert len(closed_form) == 1 and eliminations == [0]
    if fixture == "identity":
        assert by_elimination == [] and calls["eliminate"] == []
    assert calls["oracle_implicitize"] == []


@pytest.mark.parametrize("fixture", ["plane", "nzd"])
def test_oracle_is_one_elimination_of_one_variable(fixture, calls, monkeypatch, capsys):
    spans = []
    oracle = cli.oracle_implicitize

    def spanning(*args, **kwargs):
        start = len(calls["eliminate"])
        out = oracle(*args, **kwargs)
        spans.append([len(a[1]) for a in calls["eliminate"][start:]])
        return out

    monkeypatch.setattr(cli, "oracle_implicitize", spanning)
    assert main(["implicitize", fixture_path(fixture), "--oracle", "--machine"]) == 0
    assert spans == [[1]]


def _calls_inside(monkeypatch, calls, name, counted):
    """Per call of `cli.<name>`, the number of `counted` calls made inside it."""
    spans = []
    fn = getattr(cli, name)

    def spanning(*args, **kwargs):
        start = len(calls[counted])
        out = fn(*args, **kwargs)
        spans.append(len(calls[counted]) - start)
        return out

    monkeypatch.setattr(cli, name, spanning)
    return spans


@pytest.mark.parametrize("fixture", ["identity", "plane", "nzd", "space"])
def test_no_proof_is_made_twice(fixture, calls, monkeypatch, capsys):
    # F divides each minor: (F) needs no Groebner basis; the monoid's two
    # components are coprime by the construction of the monoid
    inverse = _calls_inside(monkeypatch, calls, "verify_inverse_representative", "buchberger")
    monoid = _calls_inside(monkeypatch, calls, "monoid_association", "poly_gcd")
    assert main(["implicitize", fixture_path(fixture), "--machine"]) == 0
    assert main(["rees", fixture_path(fixture), "--machine"]) == 0
    assert (inverse, monoid) == ([0], [0])


# poly_gcd calls per command, parsing and Cremona verification included
POLY_GCD_CALLS = {
    "identity": {"implicitize": 7, "rees": 6, "analyze": 4},
    "plane": {"implicitize": 7, "rees": 6, "analyze": 4},
    "nzd": {"implicitize": 7, "rees": 6, "analyze": 4},
    "space": {"implicitize": 7, "rees": 6, "analyze": 4},
}


@pytest.mark.parametrize("fixture", sorted(POLY_GCD_CALLS))
def test_poly_gcd_calls_pinned(fixture, calls, capsys):
    counts = {}
    for command, flags in (("implicitize", ["--oracle"]), ("rees", []), ("analyze", [])):
        start = len(calls["poly_gcd"])
        assert main([command, fixture_path(fixture), *flags, "--machine"]) == 0
        counts[command] = len(calls["poly_gcd"]) - start
    assert counts == POLY_GCD_CALLS[fixture]
