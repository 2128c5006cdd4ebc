"""One pass of a workload in a fresh process.

Usage (started by run.py, from the root of a checkout):
    python3 perfbench/worker.py

Protocol: after importing numpy and lienil the worker prints `ready`.  It
then reads one JSON job from stdin, {"argv": [[...], ...], "trace": bool,
"spans": path or null}, runs each argv through `lienil.cli.main` with
stdout and stderr captured, and prints one JSON result line.  Both
`lru_cache` databases of `lienil.catalog` are cleared before every
invocation, because a real CLI run starts with them empty.

A short reference job runs before the first invocation and after each
one, outside the pass's `run_s`.  Each invocation's time over the mean of
the reference times around it, summed over the pass, is `run_rel`: the
pass in units of the machine's speed at that moment.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy

import lienil.catalog
import lienil.cli


def reference_job(n: int = 40000) -> float:
    """Seconds taken by fixed pure-Python work of the collector's kind
    (tuples rebuilt from lists, dict lookups, small-integer arithmetic)."""
    t0 = time.perf_counter()
    seen: dict = {}
    x = (0,) * 8
    for i in range(n):
        cur = list(x)
        cur[i % 8] = (cur[i % 8] + i) % 5
        x = tuple(cur)
        seen[x] = seen.get(x, 0) + 1
    return time.perf_counter() - t0


def main() -> int:
    out = sys.stdout
    src = (Path.cwd() / "src").resolve()
    if src not in Path(lienil.__file__).resolve().parents:
        print(f"worker: lienil was imported from {lienil.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3
    out.write("ready\n")
    out.flush()

    job = json.loads(sys.stdin.read())
    # Keep the lru_cache objects themselves: tracing replaces the names.
    caches = (lienil.catalog.fingerprint_db, lienil.catalog.reference_fingerprint)
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    reference = [reference_job()]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, argv in enumerate(job["argv"]):
        for cache in caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.request = i
        stdout, stderr = io.StringIO(), io.StringIO()
        code, raised = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = lienil.cli.main(argv)
        except Exception as exc:  # counted as a failed invocation by run.py
            raised = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        reference.append(reference_job())
        results.append({"seconds": seconds, "reference_s": (reference[-2] + reference[-1]) / 2,
                        "exit": code, "stdout": stdout.getvalue(),
                        "stderr": stderr.getvalue(), "raised": raised})
    # the reference jobs are single-threaded, so their CPU time is their wall time
    run_s = time.perf_counter() - wall0 - sum(reference[1:])
    cpu_s = time.process_time() - cpu0 - sum(reference[1:])

    record = {
        "run_s": run_s,
        "run_rel": sum(r["seconds"] / r["reference_s"] for r in results),
        "cpu_s": cpu_s,
        "results": results,
        "env": {
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    }
    if tracer is not None:
        record["trace"] = tracer.report()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    out.write(json.dumps(record) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
