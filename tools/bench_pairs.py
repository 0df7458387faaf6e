#!/usr/bin/env python3
"""Run the benchmark in two checkouts as alternating pairs, and judge a claim.

    python3 tools/bench_pairs.py PARENT CHANGE --workload rees --seed 257 \\
        --seconds 20 --pairs 10 [--claim METRIC] [--out FILE]

PARENT and CHANGE are checkout roots (each holds `perfbench/run.py`).
Each pair runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout; the first pair runs PARENT first, the
next CHANGE first, and so on, so drift on the host falls on both sides
alike.  The metrics, their direction and their regression bound come
from PARENT's `BENCHMARK.json` (`end_to_end`).

For each metric it prints the median and quartiles of each side, and
the pairs that CHANGE won in the metric's direction.  The claim rule
holds for a metric when at least 10 pairs ran, CHANGE won at least 9 of
every 10 of them (a tie wins for neither side), and its median is better
than PARENT's by more than PARENT's interquartile range (quartiles by
`statistics.quantiles`, exclusive method).  A metric regresses when
CHANGE's median is worse than PARENT's by more than the metric's
`bound`, a fraction of PARENT's median.

The last line of output is one JSON object with the summary, the
claim (`--claim METRIC` names the end-to-end metric the change claims to
improve on this workload: `{"metric": ..., "workload": ...}`, null
without the flag), the commit id of each checkout (`git rev-parse HEAD`,
null when the root is not a git checkout) and the host (name, Python
version, CPU count); `--out` appends it, with the runs, to a JSON file
(`{"results": [...]}`).
Exit code 0: no regression and every run correct with no failed
operation; 1: otherwise; 2: bad arguments, a claimed metric that
PARENT's `BENCHMARK.json` does not list, or a run that printed no
result.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

CLAIM_SHARE = 0.9
CLAIM_PAIRS = 10


class PairError(Exception):
    """A checkout is unusable, or a run printed no result."""


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise PairError(f"cannot read {path}: {exc}") from None


def run_once(root, workload, seed, seconds):
    """The JSON result that `perfbench/run.py` prints last, run in `root`."""
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PairError(
            f"{root}: perfbench/run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        )
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise PairError(f"{root}: last line is not JSON: {lines[-1][:200]}") from None


def commit_id(root):
    """HEAD of the git checkout whose top level is `root`, else None."""
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError:  # no git on the host
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != 2 or not os.path.samefile(lines[0], root):
        return None  # not a checkout, or a directory inside another one
    return lines[1]


def host():
    return {
        "node": platform.node(), "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def quartiles(values):
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(pairs, spec):
    """Per metric: both sides' quartiles, wins, the claim and the bound."""
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum(1 for a, b in zip(parent, change) if (b > a if higher else b < a))
        pq, cq = quartiles(parent), quartiles(change)
        gain = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "wins": wins,
            "pairs": len(pairs),
            "relative_change": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
            "claim_holds": len(pairs) >= CLAIM_PAIRS
            and wins >= CLAIM_SHARE * len(pairs)
            and gain > pq[2] - pq[0],
            "regressed": -gain > metric["bound"] * abs(pq[1]),
        }
    return out


def describe(summary, pairs):
    lines = []
    for name, m in summary.items():
        p, c = m["parent"], m["change"]
        rel = m["relative_change"]
        lines.append(f"{name} ({m['better']} is better, bound {m['bound']:.0%})")
        for side, q in (("parent", p), ("change", c)):
            lines.append(
                f"  {side}  median {q['median']:.6g}  q1 {q['q1']:.6g}  q3 {q['q3']:.6g}"
                f"  iqr {q['q3'] - q['q1']:.6g}"
            )
        lines.append(
            f"  change won {m['wins']}/{m['pairs']} pairs"
            + (f", median {rel:+.1%}" if rel is not None else "")
            + f"; claim {'holds' if m['claim_holds'] else 'does not hold'}"
            + f"; {'REGRESSED beyond bound' if m['regressed'] else 'within bound'}"
        )
    for side in ("parent", "change"):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        correct = all(p[side]["correct"] for p in pairs)
        lines.append(f"{side}: failed {failed} of {attempted}, correct {correct}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--claim", metavar="METRIC")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0:
        ap.error("--pairs must be at least 1 and --seconds not negative")
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    try:
        spec = load_spec(roots["parent"])
        if args.claim is not None and args.claim not in {m["name"] for m in spec["end_to_end"]}:
            raise PairError(f"--claim {args.claim}: not an end-to-end metric of the benchmark")
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], args.workload, args.seed, args.seconds)
            pairs.append(pair)
            print(f"# pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    except (PairError, OSError) as exc:
        print(f"bench_pairs error: {exc}", file=sys.stderr)
        return 2
    summary = judge(pairs, spec)
    ok = not any(m["regressed"] for m in summary.values()) and all(
        p[s]["correct"] and not p[s]["failed"] for p in pairs for s in ("parent", "change")
    )
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "ok": ok, "metrics": summary,
        "claim": {"metric": args.claim, "workload": args.workload} if args.claim else None,
        "commits": {side: commit_id(root) for side, root in roots.items()}, "host": host(),
    }
    print(describe(summary, pairs))
    print(json.dumps(result, sort_keys=True))
    if args.out:
        record = {"results": []}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                record = json.load(fh)
        record["results"].append(dict(result, runs=pairs))
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
