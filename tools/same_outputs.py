#!/usr/bin/env python3
"""Check that two checkouts print the same thing for a fixed list of CLI calls.

For each argv, `python -m lienil.cli ARGV` runs in a fresh process
against each checkout's `src`, from that checkout's root, and the exit
code, stdout and stderr are compared.  One line per argv says `same` or
names what differs; the run exits 1 on any difference.

Usage, from anywhere:

    python3 tools/same_outputs.py BASE CHANGE

The argv list is fixed:
- every `index`, `classify` and `oracle` invocation of the benchmark
  (`perfbench/workloads.all_invocations`, imported without writing
  bytecode, so nothing is written under `perfbench/`);
- `oracle --json` at the default cap's order, 256, and
  `classify --with-oracle --json`, the oracle path of `classify`;
- `oracle --json --cap 3125` on the shipped rows S(2187,5867) and
  S(3125,40), whose algebras have 729 and 625 cosets of G', where the
  upper chain's work in F_p[G'] differs most from work in F_p[G];
- `index --json` at p = 10^18 + 3 and p = 1000003 and on
  `free_class2:8 -p 3`, and `classify --json` on `free_class2:5 -p 3`:
  exponents of 2 and above in the collector's `_conj` and `_pow`, at
  primes far above the benchmark's p <= 13;
- `index --json` on `dihedral:65536` and `classify --json` on
  `quaternion:1024`: lower central series of whole groups that keep 2
  of their 16 and 10 pc generators;
- `classify --json` on `heisenberg:13` and on `free_class2:6 -p 2`:
  centres taken where some pairs of generators pass
  `PcGroup.supports_commute` and others do not;
- `index --json` on `quaternion:512`, and `index --json` and
  `classify --json` on `abelian:27x9x3 -p 3`: power series built by
  the abelian recursion and read from the per-group memo, the
  lower central terms' in `index`, and those of the subgroups
  `classify` fingerprints;
- `index` on presentation files written to one temporary directory
  that both checkouts read: the four hand-made inconsistent
  presentations of `tests/test_pcgroup.py`, one per overlap test of the
  consistency check, each refused with exit 2 and the overlap named,
  and a consistent group whose overlap (g3 g2) g1 is collected only
  because the check closes supports under the power relations;
- `verify-tables --json` on the packaged data;
- `catalog list`, in text and `--json`;
- `catalog build`, in text and `--json`, for every builder family;
- `catalog build` on bad specs, whose exit code and stderr must agree.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

GOOD_SPECS = (
    ["dihedral:8"], ["dihedral:1024"], ["quaternion:8"], ["quaternion:512"],
    ["abelian:8x4x2", "-p", "2"], ["abelian:27,3", "-p", "3"], ["heisenberg:7"],
    ["free_class2:4", "-p", "3"], ["condition:46", "-p", "5"],
    ["condition-quotient:66", "-p", "3"],
)

ORACLE_ARGVS = (
    ["oracle", "--json", "--builder", "dihedral:256"],
    ["oracle", "--json", "--builder", "quaternion:256"],
    ["classify", "--with-oracle", "--json", "--builder", "dihedral:16"],
    ["oracle", "--json", "--cap", "3125", "src/lienil/data/tables/s2187_5867.pres"],
    ["oracle", "--json", "--cap", "3125", "src/lienil/data/tables/s3125_40.pres"],
)

COLLECTOR_ARGVS = (
    ["index", "--json", "--builder", "heisenberg:1000000000000000003"],
    ["index", "--json", "--builder", "free_class2:4", "-p", "1000003"],
    ["index", "--json", "--builder", "free_class2:8", "-p", "3"],
    ["classify", "--json", "--builder", "free_class2:5", "-p", "3"],
)

SERIES_ARGVS = (
    ["index", "--json", "--builder", "dihedral:65536"],
    ["classify", "--json", "--builder", "quaternion:1024"],
)

CENTRE_ARGVS = (
    ["classify", "--json", "--builder", "heisenberg:13"],
    ["classify", "--json", "--builder", "free_class2:6", "-p", "2"],
)

POWER_ARGVS = (
    ["index", "--json", "--builder", "quaternion:512"],
    ["index", "--json", "--builder", "abelian:27x9x3", "-p", "3"],
    ["classify", "--json", "--builder", "abelian:27x9x3", "-p", "3"],
)

# name -> presentation text, for `index` on a file
PRESENTATIONS = {
    "overlap-g1p-g1": "p 2\ngens 3\npow 1 : g2^1\npow 2 : g3^1\ncomm 2 1 : g3^1\n",
    "overlap-g3-g2-g1": (
        "p 2\ngens 5\npow 1 : g4^1\npow 2 : g4^1\npow 4 : g5^1\ncomm 2 1 : g3^1\n"
        "comm 3 1 : g4^1 g5^1\ncomm 3 2 : g4^1\ncomm 4 2 : g5^1\ncomm 4 3 : g5^1\n"),
    "overlap-g2p-g1": (
        "p 2\ngens 4\npow 2 : g3^1\npow 3 : g4^1\ncomm 2 1 : g4^1\ncomm 3 1 : g4^1\n"),
    "overlap-g2-g1p": (
        "p 2\ngens 4\npow 1 : g3^1\npow 2 : g3^1\npow 3 : g4^1\n"
        "comm 2 1 : g3^1 g4^1\ncomm 3 1 : g4^1\ncomm 3 2 : g4^1\n"),
    "power-closed-support": (
        "p 2\ngens 7\npow 2 : g5^1 g6^1\ncomm 3 1 : g4^1\ncomm 5 3 : g7^1\n"
        "comm 6 3 : g7^1\n"),
}

BAD_SPECS = (
    ["abelian:1", "-p", "2"], ["abelian:6", "-p", "2"], ["abelian:4x2"],
    ["abelian:2xq", "-p", "2"], ["abelian:", "-p", "2"], ["free_class2:3"],
    ["condition:47", "-p", "3"], ["nosuch:3"], ["dihedral:abc"],
    ["dihedral:12"], ["quaternion:4"], ["heisenberg:x"],
)


def benchmark_argvs() -> list[list[str]]:
    """The benchmark's index, classify and oracle invocations."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads
    return [argv for name in ("index", "classify", "oracle")
            for argv in workloads.all_invocations(name)]


def presentation_argvs(directory: Path) -> list[list[str]]:
    """Write PRESENTATIONS into directory; `index` on each file."""
    argvs = []
    for name, text in PRESENTATIONS.items():
        path = directory / f"{name}.pres"
        path.write_text(text)
        argvs.append(["index", str(path)])
    return argvs


def default_argvs(directory: Path) -> list[list[str]]:
    argvs = benchmark_argvs()
    argvs += ORACLE_ARGVS
    argvs += COLLECTOR_ARGVS
    argvs += SERIES_ARGVS
    argvs += CENTRE_ARGVS
    argvs += POWER_ARGVS
    argvs += presentation_argvs(directory)
    argvs.append(["verify-tables", "--json"])
    argvs += [["catalog", "list"], ["catalog", "list", "--json"]]
    for spec in GOOD_SPECS:
        argvs += [["catalog", "build", *spec], ["catalog", "build", *spec, "--json"]]
    argvs += [["catalog", "build", *spec] for spec in BAD_SPECS]
    return argvs


def run(root: Path, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "lienil.cli", *argv], cwd=root,
                          env=env, capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout under test")
    args = parser.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()
    differ = 0
    with tempfile.TemporaryDirectory() as directory:
        calls = default_argvs(Path(directory))
        for call in calls:
            a, b = run(base, call), run(change, call)
            diffs = [what for what, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y]
            if diffs:
                differ += 1
            status = "DIFF " + ",".join(diffs) if diffs else "same"
            print(f"{status:<24} exit {b[0]}  {' '.join(call)}", flush=True)
    print(f"{differ} of {len(calls)} calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
