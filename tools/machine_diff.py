#!/usr/bin/env python3
"""Compare the full `--machine` output of two jonq checkouts, per instance.

    python3 tools/machine_diff.py PARENT CHANGE DIR --command analyze \\
        [--flags "--budget-pairs 60"] [--check-default] [--list]

PARENT and CHANGE are checkout roots (each holds `src/jonq`); DIR holds
`*.jonq` instance files.  Each checkout runs `jonq <command> <file>
<flags> --machine` on every file in one interpreter process, with its
own `src` on the path.  The reports are compared key by key, the exit
code counting as the key `exit`.  A key is skipped for the budget when
its value is `skipped(budget ...)`, or when it is any other `skipped(...)`
in a report that holds a budget skip: a stage whose input an earlier
budget skip left unavailable (`saturation.identities = skipped(monoid
association unavailable)`).  That upstream skip got less far than a
budget skip of the key itself.  A differing key is sorted into one of:

    parent-skip     skipped at PARENT for the budget, CHANGE got further
    change-skip     skipped at CHANGE for the budget, PARENT got further
    parent-missing  absent at PARENT only (a stage a skip cut short)
    change-missing  absent at CHANGE only
    other           any other difference

With `--check-default`, CHANGE also runs with the flags less every
budget flag (`--budget-pairs`, `--budget-sat` and their values).  A
parent-skip or parent-missing key whose CHANGE value is itself a budget
skip is counted as `still-skipped`: CHANGE got further, then met the
limit at that key, which no default-budget run shows.  Any other such
key whose CHANGE value differs from the default-budget one is counted as
`not-default`.  The last line of output is one
JSON object with the counts; `--list` prints each differing key before
it.  Exit code 0: no differing key; 1: some; 2: bad arguments.
Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shlex
import subprocess
import sys

RUNNER = r"""
import contextlib, io, json, sys
from jonq.cli import main

command, flags, paths = json.loads(sys.stdin.read())
out = {}
for path in paths:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, path, *flags, "--machine"])
    out[path] = [code, buf.getvalue()]
json.dump(out, sys.stdout)
"""


def run_checkout(root, command, flags, paths):
    """{path: (exit code, report text)} from one checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=json.dumps([command, flags, paths]),
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{root}: runner failed\n{proc.stderr}")
    return {path: tuple(v) for path, v in json.loads(proc.stdout).items()}


def parse(code, text):
    """The report as {key: value}, with the exit code as the key `exit`."""
    out = {"exit": str(code)}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


BUDGET_FLAGS = ("--budget-pairs", "--budget-sat")


def default_budget_flags(flags):
    """`flags` less every budget flag and its value."""
    out = []
    skip = False
    for flag in flags:
        if skip:
            skip = False
        elif flag in BUDGET_FLAGS:
            skip = True
        elif not flag.startswith(tuple(f + "=" for f in BUDGET_FLAGS)):
            out.append(flag)
    return out


def is_budget_skip(value):
    return value is not None and value.startswith("skipped(budget")


def skip_depth(value, report):
    """How far a key skipped for the budget got: 0 upstream, 1 at the key; None if not skipped."""
    if is_budget_skip(value):
        return 1
    if value is not None and value.startswith("skipped("):
        if any(map(is_budget_skip, report.values())):
            return 0
    return None


def classify(parent, change):
    """(key, category) for every key whose values differ."""
    out = []
    for key in sorted(set(parent) | set(change)):
        a, b = parent.get(key), change.get(key)
        if a == b:
            continue
        da, db = skip_depth(a, parent), skip_depth(b, change)
        if da is not None and (db is None or da < db):
            out.append((key, "parent-skip"))
        elif db is not None and (da is None or db < da):
            out.append((key, "change-skip"))
        elif a is None:
            out.append((key, "parent-missing"))
        elif b is None:
            out.append((key, "change-missing"))
        else:
            out.append((key, "other"))
    return out


def off_default(key, change, default):
    """True if CHANGE's value of `key` (absent counts) is not its default-budget one."""
    return default.get(key) != change.get(key)


def against_default(key, change, default):
    """`still-skipped`, `not-default` or None for a parent-skip or parent-missing key."""
    if is_budget_skip(change.get(key)):
        return "still-skipped"
    return "not-default" if off_default(key, change, default) else None


def join_flags(argv):
    """`argv` with `--flags VALUE` as `--flags=VALUE`.

    argparse takes a dash-led VALUE as an option unless it holds a space,
    so `--flags --oracle` would fail to parse.
    """
    argv = list(argv)
    if "--flags" in argv[:-1]:
        i = argv.index("--flags")
        argv[i : i + 2] = ["--flags=" + argv[i + 1]]
    return argv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("instances", help="directory of *.jonq instance files")
    ap.add_argument("--command", default="analyze")
    ap.add_argument("--flags", default="", help="one shell-quoted flag string")
    ap.add_argument("--check-default", action="store_true")
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args(join_flags(sys.argv[1:] if argv is None else argv))
    paths = sorted(glob.glob(os.path.join(os.path.abspath(args.instances), "*.jonq")))
    if not paths:
        ap.error(f"no *.jonq files in {args.instances}")
    flags = shlex.split(args.flags)
    before = run_checkout(args.parent, args.command, flags, paths)
    after = run_checkout(args.change, args.command, flags, paths)
    default = None
    if args.check_default:
        default = run_checkout(args.change, args.command, default_budget_flags(flags), paths)
    categories = ("parent-skip", "change-skip", "parent-missing", "change-missing", "other")
    counts = dict.fromkeys(categories, 0)
    if default is not None:
        counts.update({"still-skipped": 0, "not-default": 0})
    differing = 0
    for path in paths:
        a, b = parse(*before[path]), parse(*after[path])
        found = classify(a, b)
        differing += bool(found)
        for key, category in found:
            counts[category] += 1
            note = ""
            if default is not None and category in ("parent-skip", "parent-missing"):
                verdict = against_default(key, b, parse(*default[path]))
                if verdict:
                    counts[verdict] += 1
                    note = f" ({verdict})"
            if args.list:
                name = os.path.basename(path)
                print(f"{name} {key} [{category}]{note}: {a.get(key)!r} -> {b.get(key)!r}")
    summary = {
        "command": args.command, "flags": args.flags, "instances": len(paths),
        "instances_differing": differing, **counts,
    }
    print(json.dumps(summary, sort_keys=True))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
