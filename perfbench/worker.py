"""One workload process: a fresh interpreter that runs instance files
through the real CLI entry point, `jonq.cli.main([..., "--machine"])`,
one at a time (a closed loop with one client).

    python3 worker.py probe <repo-root> [<compiled-kernel.so>]
    python3 worker.py job <job.json> <result.json>

`probe` imports `jonq`, `jonq.cli` and the kernel backend, prints
`ready <backend>` and exits; the parent times it as the set-up cost.
`job` runs whole passes over the job's instances until `seconds` have
passed (at least `min_passes`), optionally under the tracer, and writes
per-run times, the reference loop's time around each run, exit codes,
output digests and the first output of each instance as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.abc
import importlib.machinery
import importlib.util
import io
import json
import os
import resource
import sys
import time
import traceback


class _CompiledKernelFinder(importlib.abc.MetaPathFinder):
    """Resolve `jonq._kernel_c` to an extension built outside the source tree."""

    def __init__(self, path):
        self.path = path

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "jonq._kernel_c":
            return None
        loader = importlib.machinery.ExtensionFileLoader(fullname, self.path)
        return importlib.util.spec_from_file_location(fullname, self.path, loader=loader)


def load_jonq(root, compiled_so):
    """Import jonq from `<root>/src`; returns (cli.main, backend name)."""
    sys.path.insert(0, os.path.join(root, "src"))
    if compiled_so:
        sys.meta_path.insert(0, _CompiledKernelFinder(compiled_so))
    import jonq  # noqa: F401
    import jonq.cli
    import jonq.kernel

    return jonq.cli.main, jonq.kernel.BACKEND


def run_one(main, argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as stop:  # argparse rejects bad arguments this way
        rc = stop.code if isinstance(stop.code, int) else 2
    except Exception:  # the benchmark records the failure and goes on
        rc = None
        exc = traceback.format_exc(limit=4)
    dt = time.perf_counter() - t0
    return dt, rc, exc, out.getvalue(), err.getvalue()


# A fixed pure-Python loop shaped like the kernel's term merging (tuple keys
# added componentwise, big-int coefficients combined, a list built).  It
# never calls jonq, so a change to the program cannot change it; its time
# tracks how fast the host runs Python at that moment.
_REF_A = [((i % 7, i % 5, i % 3), (i * 7919) ** 3) for i in range(300, 0, -1)]
_REF_B = [((i % 5, i % 7, i % 2), (i * 104729) ** 3) for i in range(300, 0, -1)]


def _reference_loop():
    t0 = time.perf_counter()
    for _ in range(8):
        out = []
        for (ka, va), (kb, vb) in zip(_REF_A, _REF_B):
            out.append((tuple(map(sum, zip(ka, kb))), 3 * va - 7 * vb))
    return time.perf_counter() - t0


def reference_seconds():
    """The faster of two runs of the reference loop (about 2 ms)."""
    return min(_reference_loop(), _reference_loop())


def run_job(job, main):
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        main = sys.modules["jonq.cli"].main  # the wrapped entry point
    samples = []
    outputs = {}
    t_start = time.perf_counter()
    passes = 0
    while True:
        for inst in job["instances"]:
            if tracer is not None:
                tracer.instance = inst["id"]
            before = reference_seconds()
            dt, rc, exc, out, err = run_one(main, inst["argv"])
            ref = (before + reference_seconds()) / 2
            samples.append({
                "id": inst["id"],
                "seconds": dt,
                "reference": ref,
                "rc": rc,
                "exc": exc,
                "stderr": err[-2000:],
                "digest": hashlib.sha256(out.encode()).hexdigest(),
            })
            outputs.setdefault(inst["id"], out)
        passes += 1
        elapsed = time.perf_counter() - t_start
        if passes >= job["min_passes"] and elapsed >= job["seconds"]:
            break
    result = {
        "samples": samples,
        "outputs": outputs,
        "passes": passes,
        "elapsed": elapsed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
        tracer.write_spans(job["spans_path"])
    return result


def main(argv):
    mode = argv[0]
    if mode == "probe":
        _, backend = load_jonq(argv[1], argv[2] if len(argv) > 2 else None)
        sys.stdout.write(f"ready {backend}\n")
        sys.stdout.flush()
        return 0
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    cli_main, backend = load_jonq(job["root"], job["compiled_so"])
    result = run_job(job, cli_main)
    result["backend"] = backend
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
