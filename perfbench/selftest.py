"""Self-test of the benchmark on a tiny corpus (about a minute).

Usage, from the root of a checkout:
    python3 perfbench/selftest.py

The corpus takes one cheap invocation of each subcommand from the goldens,
so every layer is called.  The test checks that
  - an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric;
  - every layer reports busy self time;
  - the counts (.calls, .elements, .rows_*, .flops_computed) of two
    traced runs are equal;
  - with one golden altered in a copy of the goldens, the run reports
    failures (failed_frac > 0);
  - in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from run import GOLDENS, run_workload
from tracer import LAYERS

CORPUS = [
    ["classify", "--json", "--builder", "dihedral:16"],
    ["oracle", "--json", "--builder", "dihedral:32"],
    ["index", "--json", "--builder", "heisenberg:13"],
    ["verify-tables", "perfbench/work/tables/s3125_40+s243_16", "--json"],
]
COUNT_STATS = ("calls", "elements", "rows_in", "rows_kept", "flops_computed")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    stored = json.loads(GOLDENS.read_text())
    by_key = {k: v for per_workload in stored.values() for k, v in per_workload.items()}
    goldens = {"selftest": {workloads.key(a): by_key[workloads.key(a)] for a in CORPUS}}
    workloads.WORKLOADS["selftest"] = [[argv] for argv in CORPUS]
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'pass' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    def run(trace: bool, golden_set: dict) -> dict:
        _, result = run_workload(root, spec, "selftest", 1, 0, trace, golden_set)
        return result

    def printed_with_units(result: dict, wanted: list[dict]) -> bool:
        return (list(result["metrics"]) == [m["name"] for m in wanted]
                and all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted))

    plain = run(False, goldens)
    check(plain["correct"] and plain["failed"] == 0, "untraced run matches the goldens")
    check(printed_with_units(plain, spec["end_to_end"]),
          "every end-to-end metric is printed with its unit")
    check(all(m["value"] > 0 for m in plain["metrics"].values()),
          "end-to-end metrics are positive")

    first, second = run(True, goldens), run(True, goldens)
    check(first["correct"] and second["correct"], "traced runs match the goldens")
    check(printed_with_units(first, spec["per_layer"]),
          "every per-layer metric is printed with its unit")
    check(all(first["metrics"][f"{layer}.self_s"]["value"] > 0 for layer in LAYERS),
          "every layer reports self time")
    counts = [name for name in first["metrics"] if name.rpartition(".")[2] in COUNT_STATS]
    check(any(first["metrics"][n]["value"] for n in counts)
          and all(first["metrics"][n] == second["metrics"][n] for n in counts),
          f"{len(counts)} counts repeat exactly across two traced runs")

    altered = copy.deepcopy(goldens)
    golden = altered["selftest"][workloads.key(CORPUS[2])]
    golden["stdout"] = golden["stdout"].replace('"upper_index": 14', '"upper_index": 15')
    bad = run(False, altered)
    check(bad["failed"] > 0 and not bad["correct"],
          f"an altered golden is counted as failed ({bad['failed']}/{bad['attempted']})")

    bare = root / "perfbench/work/bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(root / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "index",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the package, run.py exits non-zero with no result")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
