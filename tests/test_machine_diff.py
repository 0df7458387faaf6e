"""`tools/machine_diff.py`: key classification and the default-budget rerun."""

import importlib.util
import json
import os

import pytest

from jonq.fixtures import fixture_text

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "machine_diff.py")
_spec = importlib.util.spec_from_file_location("machine_diff", _PATH)
machine_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(machine_diff)

SKIP = "skipped(budget: S-pair budget 50)"


def test_classify_sorts_each_differing_key():
    parent = {
        "exit": "0",
        "same": "holds",
        "a": SKIP,
        "b": "holds",
        "c": "fails",
        "d": "holds",
        "e": "holds",
    }
    change = {
        "exit": "0",
        "same": "holds",
        "a": "holds",
        "b": SKIP,
        "c": "holds",
        "d": "holds",
        "f": "1",
    }
    assert machine_diff.classify(parent, change) == [
        ("a", "parent-skip"),
        ("b", "change-skip"),
        ("c", "other"),
        ("e", "change-missing"),
        ("f", "parent-missing"),
    ]


def test_classify_a_skip_against_an_absent_key():
    assert machine_diff.classify({"k": SKIP}, {}) == [("k", "parent-skip")]
    assert machine_diff.classify({}, {"k": SKIP}) == [("k", "change-skip")]


# `rees --budget-pairs 50` on two instances of the seed-3 benchmark set: the
# parent ran out of pairs in the monoid association, so it skipped the
# saturation identities for want of its output; the change finished the
# association and then ran out of pairs in the identities (plane2.f1.0) or
# finished them too (identity2.f2.0).
MONOID_SKIPPED = """command = rees
monoid.same_implicit_equation = skipped(budget: Groebner S-pair limit (limit 50))
saturation.identities = skipped(monoid association unavailable)
"""
MONOID_DONE = """command = rees
monoid.composition_holds = holds
monoid.composition_order = cremona_then_monoid
monoid.paper_sign_vanishes = no
monoid.same_implicit_equation = holds
monoid.sign = +
"""
IDENTITIES_SKIPPED = MONOID_DONE + (
    "saturation.identities = skipped(budget: budget exceeded: Groebner S-pair limit (limit 50))\n"
)
IDENTITIES_DONE = MONOID_DONE + """saturation.backward_equal = holds
saturation.backward_exponents = 0
saturation.forward_equal = holds
saturation.forward_exponents = 0
"""


@pytest.mark.parametrize(
    "change", [IDENTITIES_SKIPPED, IDENTITIES_DONE], ids=["identities-skipped", "identities-done"]
)
def test_a_skip_a_budget_skip_upstream_caused_is_a_parent_skip(change):
    parent = machine_diff.parse(0, MONOID_SKIPPED)
    found = dict(machine_diff.classify(parent, machine_diff.parse(0, change)))
    assert found.pop("saturation.identities") == "parent-skip"
    assert found.pop("monoid.same_implicit_equation") == "parent-skip"
    assert set(found.values()) == {"parent-missing"}
    # the same reports the other way round: the change got less far
    back = dict(machine_diff.classify(machine_diff.parse(0, change), parent))
    assert back["saturation.identities"] == "change-skip"
    assert set(back.values()) <= {"change-skip", "change-missing"}


def test_a_skip_without_a_budget_skip_is_a_value():
    # no budget skip in either report: a skipped verdict is an ordinary value
    parent = {"bounds.k": "skipped(g is a zero-divisor on R/I)"}
    assert machine_diff.classify(parent, {"bounds.k": "holds"}) == [("bounds.k", "other")]
    assert machine_diff.classify(parent, {}) == [("bounds.k", "change-missing")]


def test_parse_reads_keys_and_the_exit_code():
    text = "command = rees\nmonoid.sign = +\nnot a key line\n"
    assert machine_diff.parse(1, text) == {
        "exit": "1", "command": "rees", "monoid.sign": "+",
    }


def test_off_default_takes_an_absent_key():
    # the parent skips a key that the change does not print at all
    assert not machine_diff.off_default("saturation.identities", {}, {})
    assert machine_diff.off_default("k", {}, {"k": "holds"})
    assert machine_diff.off_default("k", {"k": "fails"}, {"k": "holds"})
    assert not machine_diff.off_default("k", {"k": "holds"}, {"k": "holds"})


def test_a_budget_skip_at_change_is_still_skipped_not_off_default():
    # `rees --budget-pairs 50`: the parent skipped the identities for want of
    # the monoid association; the change finished it and then met the limit
    # in the identities, a value the default-budget run never prints
    change = machine_diff.parse(0, IDENTITIES_SKIPPED)
    default = machine_diff.parse(0, IDENTITIES_DONE)
    assert machine_diff.against_default("saturation.identities", change, default) == "still-skipped"
    assert machine_diff.against_default("monoid.sign", change, default) is None
    assert machine_diff.against_default("monoid.sign", change, {}) == "not-default"


@pytest.mark.parametrize(
    "flags, want",
    [
        ([], []),
        (["--oracle", "--budget-pairs", "50"], ["--oracle"]),
        (["--budget-sat", "2", "--deg-bound", "3"], ["--deg-bound", "3"]),
        (["--budget-pairs=75", "--oracle", "--budget-sat=1"], ["--oracle"]),
        (["--budget-pairs", "50", "--budget-sat", "2"], []),
        (["--seed", "4", "--count", "2"], ["--seed", "4", "--count", "2"]),
    ],
)
def test_default_budget_flags_keep_every_other_flag(flags, want):
    assert machine_diff.default_budget_flags(flags) == want


def test_a_one_word_dash_led_flags_value_parses(tmp_path, capsys):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    (tmp_path / "identity.jonq").write_text(fixture_text("identity"))
    argv = [root, root, str(tmp_path), "--command", "implicitize", "--flags", "--oracle"]
    assert machine_diff.main(argv) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["flags"] == "--oracle"
    assert summary["instances"] == 1
