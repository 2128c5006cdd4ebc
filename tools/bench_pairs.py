#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in alternating pairs.

Each pair runs `perfbench/run.py --workload W --seed S --seconds T` once
in each checkout, one after the other; which side runs first alternates
from pair to pair, and pair i uses the (i mod k)-th of the k seeds given.
Every run is read from its detail line (the line before the last), so
the plain wall time of a pass, `run_s`, is reported next to `run_rel`:
`run_rel` divides by a reference job whose speed can differ between the
two checkouts' processes, and `run_s` does not.

Usage, from anywhere:

    python3 tools/bench_pairs.py BASE CHANGE --workload oracle --pairs 10 \\
        --seconds 30 --seeds 1 2 3 --tag graded-oracle

It prints one line per pair, then for each metric the median and
quartiles of each side and the number of pairs in which CHANGE is lower
(every metric here is better lower; ties count for neither side): once
over all pairs, and once per seed.  Different seeds pick different
inputs, whose costs can differ far more than the noise, so only the
per-seed quartiles measure the spread.  A last verdict line says whether
CHANGE gains on `run_rel`: lower in at least 9 of 10 pairs, and on every
seed lower in the median by more than BASE's interquartile range.  It
exits 1 if any run failed an invocation.

The same report, every pair's row, the per-seed medians and quartiles
and the verdict, is merged into the "pairs" section of BENCH_<tag>.json
at the repository root under the workload's name, next to nproc and the
Python and numpy versions; `--tag` names the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

METRICS = ("run_rel", "run_s", "setup_s", "peak_rss_mb")
REPO = Path(__file__).resolve().parents[1]


def bench_file(tag: str) -> Path:
    return REPO / f"BENCH_{tag}.json"


def update_bench(path: Path, section: str, entries: dict) -> None:
    """Merge entries into one section of a BENCH file, and record the
    machine: nproc and the Python and numpy versions."""
    report = json.loads(path.read_text()) if path.is_file() else {}
    report["machine"] = {"nproc": os.cpu_count(),
                         "python": platform.python_version(),
                         "numpy": metadata.version("numpy")}
    report.setdefault(section, {}).update(entries)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The median of each metric, and failed_frac, from one benchmark run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_pairs: run in {root} failed "
                         f"(exit {done.returncode}):\n{done.stderr}")
    detail = json.loads(lines[-2])
    row = {name: detail[name]["median"] for name in METRICS}
    row["failed_frac"] = detail["failed_frac"]
    return row


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def by_seed(seeds: list[int], rows: dict[str, list[dict]]) -> dict:
    """{seed: (base rows, change rows)} over the pairs run on that seed."""
    groups: dict[int, tuple[list[dict], list[dict]]] = {}
    for seed, b, c in zip(seeds, rows["base"], rows["change"]):
        base, change = groups.setdefault(seed, ([], []))
        base.append(b)
        change.append(c)
    return groups


def summarize(metric: str, label: str, base_rows: list[dict],
              change_rows: list[dict]) -> dict:
    """Print and return one metric's quartiles on both sides and the
    number of pairs in which CHANGE is lower and higher."""
    base = [r[metric] for r in base_rows]
    change = [r[metric] for r in change_rows]
    wins = sum(c < b for b, c in zip(base, change))
    losses = sum(c > b for b, c in zip(base, change))
    (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
    print(f"{metric:12} {label:9} base {bmed:.4g} [{bq1:.4g}, {bq3:.4g}]   "
          f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]   "
          f"change lower in {wins}/{len(base)}, higher in {losses}/{len(base)}   "
          f"median diff {cmed - bmed:+.4g} vs base IQR {bq3 - bq1:.4g}")
    return {"base": [bq1, bmed, bq3], "change": [cq1, cmed, cq3],
            "lower": wins, "higher": losses, "pairs": len(base)}


def verdict(metric: str, seeds: list[int], rows: dict[str, list[dict]]) -> str:
    """Whether CHANGE gains on `metric`: lower in at least 9 of 10 pairs,
    and on every seed lower in the median by more than BASE's IQR."""
    pairs = len(rows["base"])
    wins = sum(c[metric] < b[metric] for b, c in zip(rows["base"], rows["change"]))
    gain = 10 * wins >= 9 * pairs
    gaps = []
    for seed, (base_rows, change_rows) in by_seed(seeds, rows).items():
        bq1, bmed, bq3 = quartiles([r[metric] for r in base_rows])
        cmed = quartiles([r[metric] for r in change_rows])[1]
        gain &= bmed - cmed > bq3 - bq1
        gaps.append(f"seed {seed} gap {bmed - cmed:+.4g} vs IQR {bq3 - bq1:.4g}")
    return (f"verdict {metric}: {'GAIN' if gain else 'NO GAIN'}   lower in "
            f"{wins}/{pairs} pairs   " + "   ".join(gaps))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout measured as the parent")
    parser.add_argument("change", type=Path, help="checkout measured as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--tag", required=True, help="names BENCH_<tag>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} is not a checkout with perfbench/run.py")

    rows: dict[str, list[dict]] = {"base": [], "change": []}
    seeds = [args.seeds[i % len(args.seeds)] for i in range(args.pairs)]
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            rows[side].append(run_once(sides[side], args.workload, seed, args.seconds))
        b, c = rows["base"][-1], rows["change"][-1]
        pairs.append({"seed": seed, "first": order[0], "base": b, "change": c})
        print(f"pair {i + 1:2} seed {seed:3} {order[0]:6} first   "
              + "   ".join(f"{m} {b[m]:.4g} -> {c[m]:.4g}" for m in METRICS)
              + f"   failed_frac {b['failed_frac']:.3f} -> {c['failed_frac']:.3f}",
              flush=True)

    summary: dict = {"all": {}, "seeds": {}}
    for m in METRICS:
        summary["all"][m] = summarize(m, "all", rows["base"], rows["change"])
        for seed, (base_rows, change_rows) in by_seed(seeds, rows).items():
            summary["seeds"].setdefault(str(seed), {})[m] = summarize(
                m, f"seed {seed}", base_rows, change_rows)
    line = verdict("run_rel", seeds, rows)
    print(line)
    update_bench(bench_file(args.tag), "pairs", {args.workload: {
        "seconds": args.seconds, "pairs": pairs, **summary, "verdict": line}})
    failed = any(r["failed_frac"] for side in rows.values() for r in side)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
