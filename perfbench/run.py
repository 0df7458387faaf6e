#!/usr/bin/env python3
"""The jonq benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick

Each workload is a fixed, seeded set of instance files run through the real
CLI path (`jonq.cli.main([..., "--machine"])`) by one worker process, one
instance at a time.  `--trace 0` times whole passes over the set for
`--seconds` and prints the end-to-end metrics, in reference seconds (wall
seconds corrected for other load on the host); `--trace 1` runs one
untraced and two traced passes (plus a traced pure-backend pass on
`oracle.compiled`), prints the per-layer metrics and checks that their
counts repeat exactly.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  NOTES.md says why
each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import instances  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 12
MIN_PASSES = 3
# The reference loop's time (worker.reference_seconds) on a quiet core of a
# 2.0 GHz Xeon VM with Python 3.11.  Times are reported in "reference
# seconds": wall seconds on that VM when nothing else loads it.
REFERENCE_S = 2.2e-3
JOB_TIMEOUT_S = 170

END_TO_END = {
    "instances_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- build and set-up ----------------------------------------------------------


def build_kernel():
    """Compile src/jonq/_kernel_c.c into perfbench/.build; returns (path, build_s).

    The build is reused while the source, the interpreter and the flags
    are unchanged; build_s is the time the build took when it ran.
    """
    source = os.path.join(ROOT, "src", "jonq", "_kernel_c.c")
    include = sysconfig.get_paths()["include"]
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    flags = ["-O3", "-fwrapv", "-DNDEBUG", "-fPIC", "-shared", f"-I{include}"]
    with open(source, "rb") as fh:
        key = hashlib.sha256(fh.read() + sys.version.encode() + " ".join(flags).encode())
    out_dir = os.path.join(HERE, ".build", key.hexdigest()[:16])
    target = os.path.join(out_dir, "_kernel_c" + suffix)
    stamp = os.path.join(out_dir, "build.json")
    if os.path.exists(target) and os.path.exists(stamp):
        with open(stamp, encoding="utf-8") as fh:
            return target, json.load(fh)["build_s"]
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None or not os.path.exists(os.path.join(include, "Python.h")):
        raise BenchError("no C compiler or Python headers for the compiled kernel")
    os.makedirs(out_dir, exist_ok=True)
    partial = target + ".part"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [compiler, *flags, source, "-o", partial], capture_output=True, text=True, timeout=600
    )
    build_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"kernel build failed:\n{proc.stderr[-4000:]}")
    os.replace(partial, target)
    with open(stamp, "w", encoding="utf-8") as fh:
        json.dump({"build_s": build_s}, fh)
    return target, build_s


def worker_env(pure):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if pure:
        env["JONQ_PURE"] = "1"
    else:
        env.pop("JONQ_PURE", None)
    return env


def measure_setup(so, env, probes):
    """Times, in fresh interpreters, until jonq is imported and ready.

    Returns (times in reference seconds, backend).  The first probe also
    writes the bytecode caches and is not counted.
    """
    cmd = [sys.executable, WORKER, "probe", ROOT] + ([so] if so else [])
    times = []
    backend = None
    for rep in range(probes + 1):
        ref = worker.reference_seconds()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("set-up probe did not exit") from None
        if proc.returncode != 0 or not line.startswith("ready "):
            raise BenchError(f"set-up probe failed:\n{err[-4000:]}")
        backend = line.split()[1]
        if rep:
            times.append((t1 - t0) * REFERENCE_S / ref)
    return times, backend


def run_worker(job, work_dir, tag, env):
    job_path = os.path.join(work_dir, f"{tag}.job.json")
    result_path = os.path.join(work_dir, f"{tag}.result.json")
    job["spans_path"] = os.path.join(work_dir, f"{tag}.spans.jsonl")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.run(
        [sys.executable, WORKER, "job", job_path, result_path],
        capture_output=True, text=True, env=env, timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} failed:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


# -- checks --------------------------------------------------------------------


def check_output(inst, text, oracle):
    """Problems with one instance's --machine output; empty when correct."""
    rep = instances.parse_report(text)
    problems = []
    if "command" not in rep:
        return ["no report"]
    bad = sorted(k for k, v in rep.items() if v.startswith("fails"))
    if bad:
        problems.append(f"fails verdicts: {', '.join(bad)}")
    if oracle and rep.get("oracle.matches_formula") != "holds":
        problems.append("oracle.matches_formula does not hold")
    if inst.f is not None and "implicit.F" in rep:
        names = [f"y{i}" for i in range(inst.n + 2)]
        got = instances.parse_form(rep["implicit.F"], names)
        if got != instances.identity_expected_F(inst.f, inst.g, inst.n):
            problems.append("implicit.F differs from g(y) - f(y)*y_{n+1}")
    return problems


def judge(result, by_id, oracle, reference=None):
    """Mark each sample passed or failed; returns (problems by id, digests).

    A sample fails when it raised, exited non-zero, its instance's output
    fails a check, or its output differs from the first run of the same
    instance (or from `reference`, the digests of another run).
    """
    first = {}
    problems = {}
    for s in result["samples"]:
        first.setdefault(s["id"], s["digest"])
    for iid, text in result["outputs"].items():
        found = check_output(by_id[iid], text, oracle)
        if reference is not None and reference.get(iid) != first[iid]:
            found.append("output differs from the reference run")
        if found:
            problems[iid] = found
    for s in result["samples"]:
        why = []
        if s["exc"]:
            why.append("raised: " + s["exc"].strip().splitlines()[-1])
        elif s["rc"] != 0:
            why.append(f"exit code {s['rc']}: {s['stderr'].strip()[-200:]}")
        if s["digest"] != first[s["id"]]:
            why.append("output changed between passes")
        s["ok"] = not why and s["id"] not in problems
        if why:
            problems.setdefault(s["id"], []).extend(why)
    return problems, first


def latencies(result):
    """Each passing instance's latency in reference seconds, by instance id.

    A run's wall time is scaled by REFERENCE_S over the reference loop's time
    around that run, which removes slowdowns caused by other load on a
    shared host (up to 2x, for minutes at a time, on the VM this was tuned
    on); an instance's latency is the median over its runs.
    """
    runs = {}
    failed = {s["id"] for s in result["samples"] if not s["ok"]}
    for s in result["samples"]:
        if s["id"] not in failed:
            runs.setdefault(s["id"], []).append(s["seconds"] * REFERENCE_S / s["reference"])
    return {iid: statistics.median(v) for iid, v in runs.items()}


def end_to_end(result):
    """Throughput, median and tail over the instance set.

    The tail is the highest percentile with at least ten instances beyond
    it: with N instances, the (N-10)-th smallest, at 100*(N-10)/N, but
    never below the median (the quick mode has fewer than 21 instances).
    With no passing instance every time reads 0 (and the run is not correct).
    """
    values = sorted(latencies(result).values())
    n = len(values)
    rank = max(n - 11, n // 2)
    return {
        "instances_per_s": n / sum(values) if n else 0.0,
        "latency_p50_s": statistics.median(values) if n else 0.0,
        "latency_tail_s": values[rank] if n else 0.0,
        "tail_percentile": round(100.0 * (rank + 1) / n, 1) if n else 0.0,
        "tail_instances": n,
        "tail_beyond": max(0, n - rank - 1),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "wall_instances_per_s": sum(s["ok"] for s in result["samples"]) / result["elapsed"],
        "host_slowdown": statistics.median(
            s["reference"] for s in result["samples"]) / REFERENCE_S,
    }


# -- one run ---------------------------------------------------------------------


def prepare(workload, seed, quick=False):
    work_dir = os.path.join(HERE, ".work", f"{workload}-s{seed}" + ("-quick" if quick else ""))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    fixture_dir = os.path.join(ROOT, "src", "jonq", "data")
    insts = instances.make_instances(workload, seed, fixture_dir, quick=quick)
    command, _ = instances.workload_spec(workload)
    jobs = []
    for inst in insts:
        path = os.path.join(work_dir, f"{inst.name}.jonq")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inst.text)
        jobs.append({"id": inst.name, "argv": [*command, path, "--machine"]})
    return work_dir, {i.name: i for i in insts}, jobs


def run(workload, seed, seconds, trace, quick=False):
    if not os.path.exists(os.path.join(ROOT, "src", "jonq", "cli.py")):
        raise BenchError(f"no jonq sources under {ROOT}/src")
    compiled = workload in instances.COMPILED
    oracle = instances.workload_spec(workload)[0][-1] == "--oracle"
    detail = {"workload": workload, "seed": seed, "trace": trace}
    so = None
    if compiled:
        so, detail["build_s"] = build_kernel()
    env = worker_env(pure=not compiled)
    setup_times, backend = measure_setup(so, env, SETUP_PROBES // 2)
    want = "cython" if compiled else "python"
    if backend != want:
        raise BenchError(f"kernel backend is {backend}, expected {want}")
    detail["backend"] = backend
    work_dir, by_id, jobs = prepare(workload, seed, quick)

    def job(min_passes, run_seconds, traced, so_path=so):
        return {
            "root": ROOT, "compiled_so": so_path, "instances": jobs,
            "min_passes": min_passes, "seconds": run_seconds, "trace": traced,
        }

    findings = []
    if not trace:
        passes = 1 if quick else MIN_PASSES
        result = run_worker(job(passes, seconds, False), work_dir, "timed", env)
        problems, digests = judge(result, by_id, oracle)
        e2e = end_to_end(result)
        # the other half of the set-up probes runs after the timed passes,
        # so the median sees the machine at both ends of the run
        setup_times += measure_setup(so, env, SETUP_PROBES - SETUP_PROBES // 2)[0]
        e2e["setup_s"] = statistics.median(setup_times)
        samples = result["samples"]
        detail["passes"] = result["passes"]
        detail.update({k: v for k, v in e2e.items() if k not in END_TO_END})
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        plain = run_worker(job(1, 0, False), work_dir, "untraced", env)
        problems, digests = judge(plain, by_id, oracle)
        runs = {"traced_a": run_worker(job(1, 0, True), work_dir, "traced_a", env)}
        runs["traced_b"] = run_worker(job(1, 0, True), work_dir, "traced_b", env)
        if compiled:
            runs["traced_pure"] = run_worker(
                job(1, 0, True, so_path=None), work_dir, "traced_pure", worker_env(True)
            )
        samples = list(plain["samples"])
        for tag, res in runs.items():
            extra, _ = judge(res, by_id, oracle, reference=digests)
            for iid, why in extra.items():
                problems.setdefault(iid, []).extend(f"{tag}: {w}" for w in why)
            samples += res["samples"]
        base = runs["traced_a"]["layers"]
        for tag in [t for t in runs if t != "traced_a"]:
            for name, value in base.items():
                other = runs[tag]["layers"][name]
                if tracing.is_count(name) and other != value:
                    findings.append(f"{name}: traced_a={value} {tag}={other}")
        untraced_e2e = end_to_end(plain)
        traced_e2e = end_to_end(runs["traced_a"])
        detail["tracing_overhead"] = {
            k: {"untraced": untraced_e2e[k], "traced": traced_e2e[k],
                "difference": traced_e2e[k] - untraced_e2e[k]}
            for k in ("instances_per_s", "latency_p50_s", "latency_tail_s")
        }
        detail["spans"] = runs["traced_a"]["spans"]
        detail["counts_repeat"] = not findings
        metrics = {
            name: {"value": base[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER
        }
    failed = sum(1 for s in samples if not s["ok"])
    detail["failed_share"] = failed / len(samples)
    detail["instances"] = len(jobs)
    detail["output_digest"] = hashlib.sha256(
        "".join(digests[k] for k in sorted(digests)).encode()
    ).hexdigest()
    detail["problems"] = problems
    detail["count_mismatches"] = findings
    with open(os.path.join(work_dir, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    with open(os.path.join(work_dir, "detail.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    return {
        "correct": not problems and not findings and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }, detail


def describe(result, detail):
    """Human-readable lines printed before the JSON result."""
    lines = [f"# workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}"
             f" backend {detail['backend']} instances {detail['instances']}"]
    if "build_s" in detail:
        lines.append(f"#   build_s {detail['build_s']:.3f} s (compiled kernel, outside setup_s)")
    for name, m in result["metrics"].items():
        lines.append(f"#   {name} = {m['value']:.6g} {m['unit']}")
    if "tail_percentile" in detail:
        lines.append(
            f"#   latency_tail_s is p{detail['tail_percentile']} over "
            f"{detail['tail_instances']} instances ({detail['tail_beyond']} beyond), "
            f"median of {detail['passes']} passes"
        )
    if "host_slowdown" in detail:
        lines.append(
            f"#   times are in reference seconds; the host ran {detail['host_slowdown']:.3f}x "
            f"slower than REFERENCE_S, and the raw wall throughput was "
            f"{detail['wall_instances_per_s']:.6g} instances/s"
        )
    for k, v in detail.get("tracing_overhead", {}).items():
        lines.append(
            f"#   overhead {k}: untraced {v['untraced']:.6g} traced {v['traced']:.6g} "
            f"difference {v['difference']:+.6g}"
        )
    lines.append(f"#   output digest {detail['output_digest']} (per instance: digests.json)")
    lines.append(f"#   failed_share = {detail['failed_share']:.6g} "
                 f"({result['failed']} of {result['attempted']})")
    for iid, why in sorted(detail["problems"].items()):
        lines.append(f"#   FAILED {iid}: {'; '.join(why)}")
    for f in detail["count_mismatches"]:
        lines.append(f"#   COUNT MISMATCH {f}")
    return "\n".join(lines)


def quick():
    """One short pass of every workload, untraced and traced, with every check."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    ok = True
    if os.path.exists(spec_path):
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        names = {
            "workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": [m["name"] for m in spec["end_to_end"]],
            "per_layer": [m["name"] for m in spec["per_layer"]],
        }
        want = {
            "workloads": list(instances.WORKLOADS),
            "end_to_end": list(END_TO_END),
            "per_layer": [n for n, _, _ in tracing.PER_LAYER],
        }
        for key in names:
            if names[key] != want[key]:
                print(f"BENCHMARK.json {key} do not match the benchmark code")
                ok = False
    for workload in instances.WORKLOADS:
        for trace in (0, 1):
            result, detail = run(workload, 0, 0, trace, quick=True)
            print(describe(result, detail))
            ok = ok and result["correct"]
    print("quick check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(instances.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="smoke test of every workload")
    args = ap.parse_args(argv)
    try:
        if args.quick:
            return quick()
        if args.workload is None:
            ap.error("--workload is required")
        result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(describe(result, detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
