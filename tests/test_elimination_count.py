"""The eliminations the paper commands run on the fixtures, pinned.

Each row was recorded by running `implicitize --oracle` or `rees` on a
fixture through `jonq.cli.main`, with a spy on `groebner.block_run`, the
Block run of every elimination (and on the name `jonq.implicitize`
imports), that counts each run by its caller: `oracle_implicitize` (the
oracle reads F off its run), and for a run that `eliminate` makes, the
caller of `eliminate`: `eliminate_rees_parameter` (the Rees ideals'
elimination of t), and `intersect` by the function that asked for the
intersection, `colon` (the conductor `I : g`) or `poly_gcd` (an lcm,
when no certificate settles a gcd).  An avoidable elimination that comes
back shows up here as a larger count, even when every printed byte stays
the same.  `implicitize --oracle` on `plane` and `space` took one more
`poly_gcd` elimination, and `rees` on `plane` one more, before the gcd
of two polynomials with monomial content was certified from their
contents.  The oracle's run was counted under `eliminate_rees_parameter`
while it built the reduced basis of the Rees ideal.
"""

import contextlib
import importlib
import io
import sys
from collections import Counter

import pytest

from jonq import groebner
from jonq.cli import main
from jonq.fixtures import FIXTURE_NAMES, fixture_path

ORACLE = "oracle_implicitize"
REES = "eliminate_rees_parameter"
CONDUCTOR = "intersect<colon"
GCD = "intersect<poly_gcd"

RECORDED = {
    ("identity", "implicitize"): {ORACLE: 1},
    ("plane", "implicitize"): {ORACLE: 1, CONDUCTOR: 1},
    ("space", "implicitize"): {ORACLE: 1, GCD: 1},
    ("nzd", "implicitize"): {ORACLE: 1, CONDUCTOR: 1},
    ("identity", "rees"): {},
    ("plane", "rees"): {REES: 2, CONDUCTOR: 1},
    ("space", "rees"): {REES: 2, GCD: 1},
    ("nzd", "rees"): {REES: 2, CONDUCTOR: 1},
}

COMMANDS = {"implicitize": ["--oracle"], "rees": []}

# the module: `jonq.implicitize` names the function `jonq` exports
IMPLICITIZE = importlib.import_module("jonq.implicitize")


def _counting_block_runs(monkeypatch):
    """Patch every name `block_run` is called by; count runs by caller."""
    calls = Counter()
    block_run = groebner.block_run

    def spy(*args, **kwargs):
        depth = 1
        name = sys._getframe(depth).f_code.co_name
        if name == "eliminate":
            depth += 1
            name = sys._getframe(depth).f_code.co_name
        if name == "intersect":
            name += "<" + sys._getframe(depth + 1).f_code.co_name
        calls[name] += 1
        return block_run(*args, **kwargs)

    monkeypatch.setattr(groebner, "block_run", spy)
    monkeypatch.setattr(IMPLICITIZE, "block_run", spy)
    return calls


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_eliminations_as_recorded(name, command, monkeypatch):
    calls = _counting_block_runs(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, fixture_path(name), *COMMANDS[command], "--machine"])
    assert code == 0
    assert dict(calls) == RECORDED[name, command], (name, command)
