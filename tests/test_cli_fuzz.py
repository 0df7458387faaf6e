"""The CLI contract under mutated instance files.

Each example takes one of the four fixtures, damages one line (a bad
exponent, a zero denominator, an unknown or a swapped variable, a
duplicate ring name, an empty value, or a negative, small or huge
`option.*` value) and runs the result through `verify-cremona` and
`implicitize`, and, with a tighter budget and fewer examples, through
`analyze` and `rees`.  Those two also get `--deg-bound 8`: like the pair
and saturation budgets, the flag overrides the instance's option, and no
budget bounds the degree loops of `analyze` (a huge `option.deg_bound`
runs without end).  Whatever the input,
the CLI must answer with exit code 0, 1 or 2 and let no exception escape.
"""

import contextlib
import io
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from jonq.cli import main
from jonq.fixtures import FIXTURE_NAMES, fixture_text

_OPTIONS = ("seed", "deg_bound", "max_pairs", "sat_cap")
_VARIABLE = re.compile(r"\b[xy]\d+\b")


def _replace_nth(pattern, line, k, new):
    hits = list(pattern.finditer(line))
    if not hits:
        return line + " " + new("x0")
    m = hits[k % len(hits)]
    return line[: m.start()] + new(m.group()) + line[m.end() :]


def _bad_exponent(line, k, data):
    exponent = data.draw(st.sampled_from(["^", "^-1", "^x0", "^1/2", "^ ", "^99999999999", "^0^2"]))
    return _replace_nth(_VARIABLE, line, k, lambda v: v + exponent)


def _zero_denominator(line, k, data):
    return _replace_nth(_VARIABLE, line, k, lambda v: "1/0*" + v)


def _unknown_variable(line, k, data):
    name = data.draw(st.sampled_from(["w", "x9", "y9", "t", "_", "x0x1"]))
    return _replace_nth(_VARIABLE, line, k, lambda v: name)


def _other_variable(line, k, data):
    # keeps the line parseable, so the instance reaches the checks behind the parser
    index = data.draw(st.integers(0, 2))
    return _replace_nth(_VARIABLE, line, k, lambda v: f"{v[0]}{index}")


def _empty_value(line, k, data):
    key = line.split(":", 1)[0]
    return data.draw(st.sampled_from([f"{key}:", f"{key}: ,", f"{key}: x0,,x1", ""]))


def _duplicate_ring_name(line, k, data):
    return data.draw(st.sampled_from(["ring: x0, x0, x1", "ring: x0 x1 x1 x2", "ring: y0, x1, x2"]))


def _option(line, k, data):
    name = data.draw(st.sampled_from(_OPTIONS + ("bogus",)))
    value = data.draw(
        st.one_of(
            st.integers(-(10**30), -1),
            st.integers(0, 3),
            st.integers(10**6, 10**30),
            st.sampled_from(["0", "1.5", "", "-0", "1e9", "x0"]),
        )
    )
    return f"{line}\noption.{name}: {value}"


_MUTATIONS = (
    _bad_exponent,
    _zero_denominator,
    _unknown_variable,
    _other_variable,
    _empty_value,
    _duplicate_ring_name,
    _option,
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


@contextlib.contextmanager
def _mutated(name, k, mutate, data):
    """The fixture with one damaged line, as a file; yields (path, damaged line)."""
    lines = fixture_text(name).splitlines()
    body = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    at = body[k % len(body)]
    if mutate is _duplicate_ring_name:
        at = next(i for i in body if lines[i].startswith("ring:"))
    lines[at] = mutate(lines[at], k, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{name}.jonq")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        yield path, lines[at]


_CASES = (st.sampled_from(FIXTURE_NAMES), st.integers(0, 50), st.sampled_from(_MUTATIONS), st.data())


@settings(max_examples=120, deadline=None)
@given(*_CASES)
def test_mutated_instances_keep_the_exit_code_contract(name, k, mutate, data):
    with _mutated(name, k, mutate, data) as (path, line):
        for command in ("verify-cremona", "implicitize"):
            code = _run([command, path, "--machine", "--budget-pairs", "200"])
            assert code in (0, 1, 2), (command, line, code)


@settings(max_examples=100, deadline=None)
@given(*_CASES)
def test_mutated_instances_keep_the_contract_in_analyze_and_rees(name, k, mutate, data):
    with _mutated(name, k, mutate, data) as (path, line):
        for command in ("analyze", "rees"):
            budgets = ["--budget-pairs", "200", "--budget-sat", "4", "--deg-bound", "8"]
            code = _run([command, path, "--machine", *budgets])
            assert code in (0, 1, 2), (command, line, code)
