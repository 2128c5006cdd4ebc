#!/usr/bin/env python3
"""Time the oracle's Lie chains in process, in two checkouts, interleaved.

One worker process per checkout imports that checkout's `lienil` and
waits for group specs on stdin.  For each group and each repeat the two
workers are asked in turn, which one goes first alternating, and each
builds the algebra and runs `upper_lie_chain` and `lower_lie_chain`,
which return the dimension of each term, timing the three in CPU time
(`time.process_time`), which other load on the machine moves less than
wall time.  Each worker also returns the chain lengths and
`lie_dimension_orders(A)`, computed outside the timed stages, and the
two checkouts must agree on both: they do not depend on the basis
order, so they stay comparable when a change reorders the basis.  BLAS
runs on one thread, as in `perfbench/run.py`, so the two agree on an
idle machine.  Before the timed repeats, each worker
builds the algebra and runs both chains once untimed, counting the
build's calls to `PcGroup.multiply`, every collected product, and each
chain's calls to `fp_linalg._residues`, every reduction mod p of the
elimination.  The counts do not depend on the machine or its load, so
they show a change in the work done that the timings' noise can hide.

Usage, from anywhere:

    python3 tools/bench_chains.py BASE CHANGE --tag graded-oracle \\
        --repeats 15 --groups dihedral:64 condition-quotient:65/3

A group is a builder spec as `lienil --builder` reads it, with `/p` for
the prime where the builder needs one.  The default groups are the eight
of the `oracle` workload.  `--cap` raises the oracle cap for larger
groups.  For each group it prints, per stage, each side's median and
a verdict read as in tools/bench_pairs.py: CHANGE is "lower" or
"higher" when it is so in at least 9 of 10 repeats and its median is
off BASE's by more than BASE's interquartile range, and "unresolved"
otherwise.  It merges each side's quartiles, the verdicts and the
counts into the "chains" section of BENCH_<tag>.json at the repository
root (see tools/bench_pairs.py), one entry per group, replacing an
earlier entry for the same group.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_pairs import bench_file, quartiles, update_bench

WORKLOAD_GROUPS = ("condition-quotient:65/3", "condition-quotient:66/3",
                   "dihedral:64", "quaternion:64", "dihedral:32",
                   "quaternion:32", "heisenberg:5", "free_class2:3/2")
STAGES = ("build", "upper", "lower")

WORKER = r"""
import json, sys, time
import lienil.fp_linalg as fp_linalg
from lienil.catalog import build_named
from lienil.oracle import build_algebra, lie_dimension_orders, lower_lie_chain, upper_lie_chain
from lienil.pcgroup import PcGroup
cap = int(sys.argv[1])

def counted_calls(owner, name, run):
    # run()'s result and the number of calls it made to owner.name
    method, calls = getattr(owner, name), 0
    def counted(*args):
        nonlocal calls
        calls += 1
        return method(*args)
    setattr(owner, name, counted)
    try:
        return run(), calls
    finally:
        setattr(owner, name, method)

for line in sys.stdin:
    mode, spec = line.split()
    spec, _, p = spec.partition("/")
    G = build_named(spec, int(p) if p else None).group
    if mode == "count":
        A, multiply = counted_calls(PcGroup, "multiply", lambda: build_algebra(G, cap))
        counts = {"multiply": multiply}
        for name, chain in (("upper", upper_lie_chain), ("lower", lower_lie_chain)):
            counts[name] = counted_calls(fp_linalg, "_residues", lambda: chain(A))[1]
        print(json.dumps(counts), flush=True)
        continue
    t0 = time.process_time()
    A = build_algebra(G, cap)
    t1 = time.process_time()
    upper = len(upper_lie_chain(A))
    t2 = time.process_time()
    lower = len(lower_lie_chain(A))
    t3 = time.process_time()
    print(json.dumps({"build": t1 - t0, "upper": t2 - t1, "lower": t3 - t2,
                      "lengths": [upper, lower],
                      "dimension_orders": lie_dimension_orders(A)}), flush=True)
"""


def start_worker(root: Path, cap: int) -> subprocess.Popen:
    env = {"PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PATH": "/usr/bin:/bin"}
    return subprocess.Popen([sys.executable, "-c", WORKER, str(cap)], cwd=root,
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)


def ask(worker: subprocess.Popen, mode: str, spec: str) -> dict:
    """One reply of a worker: "time" runs the timed stages, "count" counts
    the build's products and each chain's reductions."""
    worker.stdin.write(f"{mode} {spec}\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        raise SystemExit(f"bench_chains: worker failed on {spec}")
    return json.loads(line)


def judge(base: list[float], change: list[float]) -> str:
    """"lower" or "higher" when CHANGE is so in at least 9 of 10 paired
    repeats and its median is off BASE's by more than BASE's
    interquartile range, else "unresolved"."""
    (bq1, bmed, bq3), cmed = quartiles(base), quartiles(change)[1]
    lower = sum(c < b for b, c in zip(base, change))
    higher = sum(c > b for b, c in zip(base, change))
    if 10 * lower >= 9 * len(base) and bmed - cmed > bq3 - bq1:
        return "lower"
    if 10 * higher >= 9 * len(base) and cmed - bmed > bq3 - bq1:
        return "higher"
    return "unresolved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout measured as the parent")
    parser.add_argument("change", type=Path, help="checkout measured as the change")
    parser.add_argument("--tag", required=True, help="names BENCH_<tag>.json")
    parser.add_argument("--groups", nargs="+", default=list(WORKLOAD_GROUPS))
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--cap", type=int, default=256)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    workers = {side: start_worker(root, args.cap) for side, root in sides.items()}
    report = {}
    try:
        for spec in args.groups:
            residues = {side: ask(worker, "count", spec) for side, worker in workers.items()}
            multiply = {side: counts.pop("multiply") for side, counts in residues.items()}
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i in range(args.repeats):
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    runs[side].append(ask(workers[side], "time", spec))
            for key in ("lengths", "dimension_orders"):
                if runs["base"][0][key] != runs["change"][0][key]:
                    raise SystemExit(f"bench_chains: {key} differ on {spec}")
            for rows in runs.values():
                for r in rows:
                    r["total"] = sum(r[stage] for stage in STAGES)
            entry = {"repeats": args.repeats, "cap": args.cap,
                     "lengths": runs["base"][0]["lengths"], "multiply": multiply,
                     "residues": residues,
                     "verdict": {}}
            for side, rows in runs.items():
                entry[side] = {stage: list(quartiles([r[stage] for r in rows]))
                               for stage in (*STAGES, "total")}
            for stage in (*STAGES, "total"):
                entry["verdict"][stage] = judge([r[stage] for r in runs["base"]],
                                                [r[stage] for r in runs["change"]])
            report[spec] = entry
            b, c = entry["base"], entry["change"]
            print(f"{spec:26} " + "   ".join(
                f"{stage} {b[stage][1] * 1e3:.1f} -> {c[stage][1] * 1e3:.1f} ms "
                f"({entry['verdict'][stage]})" for stage in (*STAGES, "total"))
                + f"   build multiply {multiply['base']} -> {multiply['change']}"
                + "   _residues " + "   ".join(
                    f"{chain} {residues['base'][chain]} -> {residues['change'][chain]}"
                    for chain in residues["base"]), flush=True)
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()
    update_bench(bench_file(args.tag), "chains", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
