#!/usr/bin/env python3
"""Measure what each fast path of the README's "Fast-path ledger" saves.

In one process on this checkout, each ledger row has a switch that
turns its path off alone and puts back the route the path replaced:

- `overlap-skips`: the every-overlap consistency check of
  tests/test_pcgroup.py in place of `PcGroup._consistency_check`;
- `supports-commute`: `PcGroup.supports_commute` always false;
- `relation-reads`: `PcGroup.commutator` and `PcGroup.power` without
  their reads of pc-generator brackets and p-th powers, so they collect;
- `kept-generators`: every lower central term, G' included, bracketed
  with and closed under conjugation by all of G's pc generators, in
  place of the whole group's kept generators;
- `power-first`: closures sift a new entry's commutators before its
  p-th power (the stack in `subgroups._grow` not reversed);
- `power-series-memo`: `PcGroup.power_series_memo` stores nothing.

The invocations are every `index`, `classify` and `verify-tables` argv
that perfbench/workloads.py can pick, run through `lienil.cli.main` with
stdout captured; the table directories are written to a temporary
directory.  One untimed pass with every path on fills the process's
caches, as a benchmark worker's first pass does.  Then each variant's
`PcGroup._mul` calls are counted in one untimed pass, and its stdout
must equal the all-on pass's.  Then come the timed rounds: in each, every
variant runs every invocation once, the order of the variants rotated
from round to round, and each workload's invocations are timed together
with `time.perf_counter`.

Usage, from anywhere:

    python3 tools/bench_ledger.py --rounds 15 --tag one-elimination

For each row and workload it prints the `_mul` calls saved, the median
of the in-round differences (off minus on) in milliseconds with their
quartiles, and in how many rounds turning the path off was slower; a
saving is "unresolved" when that is fewer than 9 in 10 rounds.  The
same report is merged into the "ledger" section of BENCH_<tag>.json
(see tools/bench_pairs.py) when `--tag` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
for path in (REPO / "src", REPO / "tests", REPO / "perfbench"):
    sys.path.insert(0, str(path))

from bench_pairs import bench_file, quartiles, update_bench  # noqa: E402
import lienil.classify  # noqa: E402
import lienil.cli  # noqa: E402
import lienil.dimension  # noqa: E402
import lienil.subgroups as subgroups  # noqa: E402
from lienil.catalog import DATA_DIR  # noqa: E402
from lienil.pcgroup import PcGroup  # noqa: E402
from test_pcgroup import every_overlap_check  # noqa: E402
from workloads import all_invocations  # noqa: E402

WORKLOADS = ("index", "classify", "tables")


def _collecting_commutator(G, x, y):
    if G.supports_commute(x, y):
        return G.identity
    xy, yx = G._mul(x, y), G._mul(y, x)
    if xy == yx:
        return G.identity
    return G._mul(G._inv(yx), xy)


def _collecting_power(G, x, m):
    return G._pow(G._inv(x), -m) if m < 0 else G._pow(x, m)


def _every_pc_generator_series(W):
    if W._lower_central is None:
        G = W.group
        gens = G.generators()
        current = subgroups._conjugation_closure(
            G, subgroups._generator_commutators(G, gens), gens)
        series = [W, current]
        while not current.is_trivial():
            brackets = [c for x in current.generators for g in gens
                        if (c := G.commutator(x, g)) != G.identity]
            current = subgroups._conjugation_closure(G, brackets, gens)
            series.append(current)
        W._lower_central = series
    return W._lower_central


def _commutators_first_grow(H, gens):
    G = H.group
    seq = subgroups._PcSequence(G, H._seq)
    kept = list(H.generators)
    for g in gens:
        r = seq.sift(g)
        if r == G.identity:
            continue
        kept.append(g)
        pending = [r]
        while pending:
            r = seq.sift(pending.pop())
            if r == G.identity:
                continue
            pending.extend(seq.add(r))
    if len(kept) == len(H.generators):
        return H
    seq.reduce()
    return subgroups.Subgroup(G, tuple(kept), seq)


class _Forgetful(dict):
    def __setitem__(self, key, value):
        pass


_init = PcGroup.__init__


def _forgetful_init(self, *args, **kwargs):
    _init(self, *args, **kwargs)
    self.power_series_memo = _Forgetful()


SWITCHES = {
    "overlap-skips": [(PcGroup, "_consistency_check", every_overlap_check)],
    "supports-commute": [(PcGroup, "supports_commute", lambda G, x, y: False)],
    "relation-reads": [(PcGroup, "commutator", _collecting_commutator),
                       (PcGroup, "power", _collecting_power)],
    "kept-generators": [(module, "lower_central_series", _every_pc_generator_series)
                        for module in (subgroups, lienil.dimension, lienil.classify)],
    "power-first": [(subgroups, "_grow", _commutators_first_grow)],
    "power-series-memo": [(PcGroup, "__init__", _forgetful_init)],
}
VARIANTS = ("on", *SWITCHES)


@contextlib.contextmanager
def switched_off(variant: str):
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in SWITCHES.get(variant, ())]
    for owner, name, value in SWITCHES.get(variant, ()):
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def invocations(tables: Path) -> dict[str, list[list[str]]]:
    """Every argv each workload can pick; table directories under `tables`."""
    picked = {}
    for workload in WORKLOADS:
        argvs = []
        for argv in all_invocations(workload):
            if argv[0] == "verify-tables":
                target = tables / Path(argv[1]).name
                if not target.is_dir():
                    target.mkdir(parents=True)
                    for row in target.name.split("+"):
                        shutil.copyfile(DATA_DIR / f"{row}.pres", target / f"{row}.pres")
                argv = [argv[0], str(target), *argv[2:]]
            argvs.append(argv)
        picked[workload] = argvs
    return picked


def run(argvs: list[list[str]]) -> list[str]:
    outputs = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lienil.cli.main(argv)
        outputs.append(f"{code}\n{out.getvalue()}")
    return outputs


def count_mul(argvs: list[list[str]]) -> tuple[int, list[str]]:
    calls = 0
    mul = PcGroup._mul

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return mul(self, x, y)

    PcGroup._mul = counted
    try:
        outputs = run(argvs)
    finally:
        PcGroup._mul = mul
    return calls, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--tag", help="merge the report into BENCH_<tag>.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        picked = invocations(Path(tmp))
        baseline = {w: run(argvs) for w, argvs in picked.items()}
        muls = {}
        for variant in VARIANTS:
            with switched_off(variant):
                for workload, argvs in picked.items():
                    calls, outputs = count_mul(argvs)
                    if outputs != baseline[workload]:
                        raise SystemExit(f"bench_ledger: {variant} changes {workload}'s output")
                    muls[variant, workload] = calls
        seconds = {(v, w): [] for v in VARIANTS for w in WORKLOADS}
        for r in range(args.rounds):
            for variant in VARIANTS[r % len(VARIANTS):] + VARIANTS[:r % len(VARIANTS)]:
                with switched_off(variant):
                    for workload, argvs in picked.items():
                        start = time.perf_counter()
                        run(argvs)
                        seconds[variant, workload].append(time.perf_counter() - start)
    report = {"rounds": args.rounds}
    for variant in VARIANTS:
        report[variant] = {}
        for workload in WORKLOADS:
            on, off = seconds["on", workload], seconds[variant, workload]
            diffs = [1e3 * (b - a) for a, b in zip(on, off)]
            entry = {"mul": muls[variant, workload],
                     "ms": [round(1e3 * x, 3) for x in quartiles(off)]}
            if variant != "on":
                entry["mul_saved"] = muls[variant, workload] - muls["on", workload]
                entry["ms_saved"] = [round(x, 3) for x in quartiles(diffs)]
                entry["slower_off"] = sum(d > 0 for d in diffs)
                entry["resolved"] = 10 * entry["slower_off"] >= 9 * args.rounds
            report[variant][workload] = entry
            line = f"{variant:18} {workload:9} _mul {entry['mul']:6}"
            if variant == "on":
                q1, med, q3 = entry["ms"]
                line += f"   total {med:7.3f} ms [{q1:.3f}, {q3:.3f}]"
            else:
                q1, med, q3 = entry["ms_saved"]
                line += (f" saved {entry['mul_saved']:6}   saved {med:7.3f} ms "
                         f"[{q1:.3f}, {q3:.3f}]   slower off in "
                         f"{entry['slower_off']}/{args.rounds}"
                         + ("" if entry["resolved"] else " (unresolved)"))
            print(line)
    if args.tag:
        update_bench(bench_file(args.tag), "ledger", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
