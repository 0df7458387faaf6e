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
