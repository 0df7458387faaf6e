"""`tools/bench_pairs.py`: alternating pairs, quartiles, the claim rule and
the regression bound, against stub checkouts whose `perfbench/run.py`
prints fixed results."""

import importlib.util
import json
import os
import platform
import subprocess
import textwrap

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "instances_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}

# run i of a side prints results[i]; every run is logged with its argv
STUB = textwrap.dedent(
    """
    import json, os, sys
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    log = os.path.join(os.path.dirname(here), "runs.log")
    side = os.path.basename(here)
    with open(os.path.join(here, "results.json")) as fh:
        results = json.load(fh)
    done = 0
    if os.path.exists(log):
        with open(log) as fh:
            done = sum(1 for line in fh if line.split()[0] == side)
    with open(log, "a") as fh:
        fh.write(side + " " + " ".join(sys.argv[1:]) + "\\n")
    if results[done] is None:
        print("benchmark error: stub", file=sys.stderr)
        sys.exit(2)
    print("# workload stub")
    print(json.dumps(results[done]))
    """
)


def result(ips, p50=0.01, failed=0, correct=True):
    return {
        "correct": correct,
        "attempted": 30,
        "failed": failed,
        "metrics": {
            "instances_per_s": {"value": ips, "unit": "1/s"},
            "latency_p50_s": {"value": p50, "unit": "s"},
        },
    }


def checkouts(tmp_path, parent, change):
    roots = []
    for side, results in (("parent", parent), ("change", change)):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(STUB)
        (root / "results.json").write_text(json.dumps(results))
        (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
        roots.append(str(root))
    return roots


def run(tmp_path, parent, change, capsys, extra=()):
    p, c = checkouts(tmp_path, parent, change)
    argv = [p, c, "--workload", "rees", "--seed", "5", "--seconds", "0.5"]
    argv += ["--pairs", str(len(parent)), *extra]
    code = bench_pairs.main(argv)
    out = capsys.readouterr()
    return code, json.loads(out.out.strip().splitlines()[-1]) if code != 2 else out.err


def log(tmp_path):
    return (tmp_path / "runs.log").read_text().splitlines()


def test_alternates_and_forwards_the_run(tmp_path, capsys):
    parent = [result(50 + i % 3) for i in range(4)]
    change = [result(60 + i % 3) for i in range(4)]
    code, summary = run(tmp_path, parent, change, capsys)
    assert code == 0 and summary["ok"]
    ips = summary["metrics"]["instances_per_s"]
    assert ips["wins"] == 4 and not ips["claim_holds"]  # a claim needs 10 pairs
    lines = log(tmp_path)
    assert [line.split()[0] for line in lines] == [
        "parent", "change", "change", "parent", "parent", "change", "change", "parent"
    ]
    assert lines[0].split()[1:] == [
        "--workload", "rees", "--seed", "5", "--seconds", "0.5", "--trace", "0"
    ]


def judged(parent, change):
    pairs = [{"parent": a, "change": b} for a, b in zip(parent, change)]
    return bench_pairs.judge(pairs, SPEC)


def test_claim_holds_with_quartiles():
    values = (50, 52, 49, 51, 50, 53, 48, 50, 51, 49)
    summary = judged([result(v) for v in values], [result(v + 5, p50=0.009) for v in values])
    ips = summary["instances_per_s"]
    assert ips["wins"] == 10 and ips["claim_holds"] and not ips["regressed"]
    assert ips["parent"]["median"] == 50 and ips["change"]["median"] == 55
    assert (ips["parent"]["q1"], ips["parent"]["q3"]) == (49, 51.25)
    p50 = summary["latency_p50_s"]
    assert p50["wins"] == 10 and p50["claim_holds"]  # lower is better


def test_claim_needs_nine_of_ten_pairs():
    ips = judged([result(50)] * 10, [result(v) for v in (60,) * 8 + (40, 40)])["instances_per_s"]
    assert ips["wins"] == 8 and not ips["claim_holds"]
    ips = judged([result(50)] * 10, [result(v) for v in (60,) * 9 + (50,)])["instances_per_s"]
    assert ips["wins"] == 9 and ips["claim_holds"]  # a tie wins for neither side


def test_claim_needs_a_gap_beyond_the_parent_iqr():
    values = (40, 60, 40, 60, 40, 60, 40, 60, 40, 60)
    ips = judged([result(v) for v in values], [result(v + 1) for v in values])["instances_per_s"]
    assert ips["wins"] == 10 and not ips["claim_holds"]


def test_regression_beyond_the_bound_fails(tmp_path, capsys):
    parent = [result(50, p50=0.010) for _ in range(3)]
    change = [result(50, p50=0.013) for _ in range(3)]
    code, summary = run(tmp_path, parent, change, capsys)
    assert code == 1 and not summary["ok"]
    assert summary["metrics"]["latency_p50_s"]["regressed"]
    assert not summary["metrics"]["instances_per_s"]["regressed"]
    change = [result(50, p50=0.012) for _ in range(3)]  # +20% < 25%
    code, summary = run(tmp_path / "again", parent, change, capsys)
    assert code == 0 and not summary["metrics"]["latency_p50_s"]["regressed"]


def test_failed_operations_fail_the_run(tmp_path, capsys):
    code, summary = run(tmp_path, [result(50)], [result(60, failed=1)], capsys)
    assert code == 1 and not summary["ok"]


def test_a_run_without_result_is_an_error(tmp_path, capsys):
    code, err = run(tmp_path, [result(50), None], [result(50), result(50)], capsys)
    assert code == 2
    assert "benchmark error: stub" in err


def test_out_appends_the_runs(tmp_path, capsys):
    out = tmp_path / "bench.json"
    for sub in ("a", "b"):
        run(tmp_path / sub, [result(50)] * 2, [result(55)] * 2, capsys, extra=("--out", str(out)))
    record = json.loads(out.read_text())
    assert [r["workload"] for r in record["results"]] == ["rees", "rees"]
    first = record["results"][0]
    assert [p["first"] for p in first["runs"]] == ["parent", "change"]
    assert first["runs"][1]["change"]["metrics"]["instances_per_s"]["value"] == 55


def test_out_records_commits_and_host(tmp_path, capsys):
    p, c = checkouts(tmp_path, [result(50)], [result(55)])
    git = ["git", "-C", p, "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "stub"], check=True)
    head = subprocess.run(
        git + ["rev-parse", "HEAD"], check=True, capture_output=True, text=True
    ).stdout.strip()
    out = tmp_path / "bench.json"
    argv = [p, c, "--workload", "rees", "--seed", "5", "--seconds", "0.5", "--pairs", "1"]
    assert bench_pairs.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    (got,) = json.loads(out.read_text())["results"]
    assert got["commits"] == {"parent": head, "change": None}
    assert got["host"] == {
        "node": platform.node(), "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    assert bench_pairs.commit_id(os.path.join(p, "perfbench")) is None  # inside a checkout


def test_claim_is_recorded(tmp_path, capsys):
    out = tmp_path / "bench.json"
    claim = ("--claim", "instances_per_s", "--out", str(out))
    code, summary = run(tmp_path / "a", [result(50)], [result(55)], capsys, extra=claim)
    assert code == 0
    assert summary["claim"] == {"metric": "instances_per_s", "workload": "rees"}
    (got,) = json.loads(out.read_text())["results"]
    assert got["claim"] == summary["claim"]
    code, summary = run(tmp_path / "b", [result(50)], [result(55)], capsys)
    assert code == 0 and summary["claim"] is None


def test_claim_of_an_unknown_metric_is_an_error(tmp_path, capsys):
    code, err = run(tmp_path, [result(50)], [result(55)], capsys, extra=("--claim", "speed"))
    assert code == 2 and "--claim speed" in err
    assert not (tmp_path / "runs.log").exists()  # refused before any run
