"""The eliminations the paper commands run on the fixtures, pinned.

Each row was recorded by running `implicitize --oracle` or `rees` on a
fixture through `jonq.cli.main`, with a spy on `groebner.eliminate` (and
on the name `jonq.rees` imports) that counts each call by its caller:
`eliminate_rees_parameter` (the oracle's and the Rees ideals' elimination
of t), and `intersect` by the function that asked for the intersection,
`colon` (the conductor `I : g`) or `poly_gcd` (an lcm, when no
certificate settles a gcd).  An avoidable elimination that comes back
shows up here as a larger count, even when every printed byte stays the
same.  `implicitize --oracle` on `plane` and `space` took one more
`poly_gcd` elimination, and `rees` on `plane` one more, before the gcd
of two polynomials with monomial content was certified from their
contents.
"""

import contextlib
import io
import sys
from collections import Counter

import pytest

from jonq import groebner, rees
from jonq.cli import main
from jonq.fixtures import FIXTURE_NAMES, fixture_path

ORACLE = "eliminate_rees_parameter"
CONDUCTOR = "intersect<colon"
GCD = "intersect<poly_gcd"

RECORDED = {
    ("identity", "implicitize"): {ORACLE: 1},
    ("plane", "implicitize"): {ORACLE: 1, CONDUCTOR: 1},
    ("space", "implicitize"): {ORACLE: 1, GCD: 1},
    ("nzd", "implicitize"): {ORACLE: 1, CONDUCTOR: 1},
    ("identity", "rees"): {},
    ("plane", "rees"): {ORACLE: 2, CONDUCTOR: 1},
    ("space", "rees"): {ORACLE: 2, GCD: 1},
    ("nzd", "rees"): {ORACLE: 2, CONDUCTOR: 1},
}

COMMANDS = {"implicitize": ["--oracle"], "rees": []}


def _counting_eliminations(monkeypatch):
    """Patch every name `eliminate` is called by; count calls by caller."""
    calls = Counter()
    eliminate = groebner.eliminate

    def spy(*args, **kwargs):
        caller = sys._getframe(1).f_code
        name = caller.co_name
        if name == "intersect":
            name += "<" + sys._getframe(2).f_code.co_name
        calls[name] += 1
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(groebner, "eliminate", spy)
    monkeypatch.setattr(rees, "eliminate", spy)
    return calls


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_eliminations_as_recorded(name, command, monkeypatch):
    calls = _counting_eliminations(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, fixture_path(name), *COMMANDS[command], "--machine"])
    assert code == 0
    assert dict(calls) == RECORDED[name, command], (name, command)
