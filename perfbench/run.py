"""lienil benchmark: golden-checked CLI workloads, timed end to end and,
in a separate traced run, layer by layer.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each pass starts a fresh worker process (perfbench/worker.py) that runs
the workload's invocations one at a time through `lienil.cli.main`
(a closed loop with one client).  Passes repeat until the next one would
end after `--seconds`; at least MIN_PASSES run.  Every stdout and exit
code is compared with perfbench/goldens.json.

With `--trace 0` the last line reports the end-to-end metrics of
BENCHMARK.json, as medians over the passes.  With `--trace 1` traced and
untraced passes alternate, and the last line reports the per-layer
metrics: counts from the first traced pass, times as medians over traced
passes, and trace.overhead_s as the traced minus the untraced median
run_s.  Metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, invocations, key, prepare

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
SPANS_DIR = Path("perfbench/work/spans")
BLAS_THREADS = "1"
MIN_PASSES = 3
MIN_TRACE_PASSES = 2   # of each kind, traced and untraced
PASS_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # every worker compiles lienil from source, whatever earlier runs left
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_pass(root: Path, argvs: list[list[str]], trace: bool = False,
             spans: Path | None = None) -> dict:
    """Start a worker, time its set-up, run one pass, read its rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=root,
                            env=worker_env(root), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        job = {"argv": argvs, "trace": trace, "spans": str(spans) if spans else None}
        if ready == b"ready\n":
            proc.stdin.write(json.dumps(job).encode())
        proc.stdin.close()
        payload = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if ready != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed with exit status {proc.returncode}")
    record = json.loads(payload)
    record["setup_s"] = setup_s
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    return record


def count_failures(argvs, record, goldens, log=sys.stderr) -> int:
    failed = 0
    for argv, got in zip(argvs, record["results"]):
        want = goldens.get(key(argv))
        if (want is None or got["raised"] is not None or got["exit"] != want["exit"]
                or got["stdout"] != want["stdout"]):
            failed += 1
            if want is None:
                reason = "no golden"
            elif got["raised"] is not None:
                reason = got["raised"]
            elif got["exit"] != want["exit"]:
                reason = f"exit {got['exit']}, golden {want['exit']}: {got['stderr'].strip()}"
            else:
                reason = "stdout differs from the golden"
            print(f"FAILED {key(argv)}: {reason}", file=log)
    return failed


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(names: list[str], traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metric values, derived from each metric's name."""
    first = traced[0]["trace"]

    def median_of(part: str, name: str) -> float:
        return statistics.median(r["trace"][part].get(name, 0.0) for r in traced)

    values = {}
    for name in names:
        obj, _, stat = name.rpartition(".")
        if name == "trace.overhead_s":
            values[name] = (statistics.median(r["run_s"] for r in traced)
                            - statistics.median(r["run_s"] for r in untraced))
        elif name == "cli.cpu_util":
            values[name] = statistics.median(r["cpu_s"] / r["run_s"] for r in untraced)
        elif name == "fp_linalg.add_block.yield":
            rows_in = first["extra"].get("fp_linalg.add_block.rows_in", 0)
            kept = first["extra"].get("fp_linalg.add_block.rows_kept", 0)
            values[name] = kept / rows_in if rows_in else 0.0
        elif name == "subgroups.normal_closure.closures_per_call":
            calls = first["calls"].get("subgroups.normal_closure", 0)
            closures = first["extra"].get("subgroups.normal_closure.closures", 0)
            values[name] = closures / calls if calls else 0.0
        elif stat == "calls":
            values[name] = first["calls"].get(obj, 0)
        elif stat == "self_s":
            values[name] = median_of("self_s", obj)
        elif stat == "s":
            values[name] = median_of("secs", obj)
        elif stat in ("elements", "rows_in", "rows_kept", "flops_computed"):
            values[name] = first["extra"].get(name, 0)
        else:
            raise BenchError(f"no source for per-layer metric {name!r}")
    return values


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool, goldens: dict) -> tuple[dict, dict]:
    argvs = invocations(workload, seed)
    prepare(root, argvs)
    spans = None
    if trace:
        (root / SPANS_DIR).mkdir(parents=True, exist_ok=True)
        spans = SPANS_DIR / f"{workload}-{seed}.jsonl"
    traced, untraced = [], []
    start = time.perf_counter()
    while True:
        is_traced = trace and len(traced) < len(untraced)
        record = run_pass(root, argvs, is_traced, spans if is_traced else None)
        record["failed"] = count_failures(argvs, record, goldens[workload])
        (traced if is_traced else untraced).append(record)
        passes = traced + untraced
        elapsed = time.perf_counter() - start
        enough = (min(len(traced), len(untraced)) >= MIN_TRACE_PASSES if trace
                  else len(passes) >= MIN_PASSES)
        next_pass = max(r["setup_s"] + r["run_s"] for r in passes[-2:])
        if enough and elapsed + next_pass > seconds:
            break

    attempted = len(argvs) * len(passes)
    failed = sum(r["failed"] for r in passes)
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "invocations": {key(a): statistics.median(r["results"][i]["seconds"] for r in untraced)
                        for i, a in enumerate(argvs)},
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "failed_frac": failed / attempted,
        "env": dict(untraced[0]["env"], blas_threads=BLAS_THREADS),
    }
    for name in ("run_s", "run_rel", "setup_s", "peak_rss_mb"):
        detail[name] = summary([r[name] for r in untraced])

    if trace:
        counts = [({**r["trace"]["calls"], **r["trace"]["extra"]}) for r in traced]
        detail["counts_repeat"] = all(c == counts[0] for c in counts)
        detail["traced_run_s"] = summary([r["run_s"] for r in traced])
        detail["spans"] = {"file": str(spans), "count": traced[-1]["trace"]["spans"]}
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_metrics(names, traced, untraced)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {n: detail[n]["median"] for n in names}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    return detail, result


def check_checkout(root: Path) -> None:
    for need in ("BENCHMARK.json", "src/lienil/cli.py", "src/lienil/data/tables"):
        if not (root / need).exists():
            raise BenchError(f"{need} is missing: run from the root of a lienil checkout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        check_checkout(root)
        spec = json.loads((root / "BENCHMARK.json").read_text())
        goldens = json.loads(GOLDENS.read_text())
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            detail, result = run_workload(root, spec, name, args.seed, args.seconds,
                                          bool(args.trace), goldens)
            print(json.dumps(detail))
            if args.workload == "all":
                print(f"{name:9} run_s {detail['run_s']['median']:8.3f} s   "
                      f"run_rel {detail['run_rel']['median']:7.1f} ref   "
                      f"setup_s {detail['setup_s']['median']:6.3f} s   "
                      f"peak_rss_mb {detail['peak_rss_mb']['median']:6.1f} MB   "
                      f"failed_frac {detail['failed_frac']:.3f}")
            results[name] = result
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
