"""Workload definitions: which CLI invocations a pass runs, chosen by seed.

A workload is a list of slots.  Each slot lists one or more alternatives;
an alternative is the argv of one `lienil` invocation.  Slots with several
alternatives hold twins: inputs of the same shape and near-equal cost, so
the seed can vary the input without moving the timing.  The seed picks
one alternative per slot and then permutes the order of the slots.

Why each workload was chosen, and which layer it stresses or bypasses, is
written down in NOTES.md next to this file.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

TABLE_SOURCE = Path("src/lienil/data/tables")
TABLE_WORK = Path("perfbench/work/tables")


def _group(cmd: str, spec: str, p: int | None = None) -> list[str]:
    argv = [cmd, "--json", "--builder", spec]
    if p is not None:
        argv += ["-p", str(p)]
    return argv


def _twins(cmd: str, specs: tuple[str, ...], p: int | None = None) -> list[list[str]]:
    return [_group(cmd, spec, p) for spec in specs]


def _table_slot(large: tuple[str, str], small: tuple[str, str]) -> list[list[str]]:
    """verify-tables on a two-row directory: one order-3125 and one
    order-243 row, each picked from a twin pair (two rows, two pool threads)."""
    return [["verify-tables", str(TABLE_WORK / f"{a}+{b}"), "--json"]
            for a in large for b in small]


# classify invocations whose golden must match no condition
NEGATIVES = tuple(_group("classify", *spec) for spec in (
    ("dihedral:16",), ("heisenberg:7",), ("condition:65", 3),
    ("condition:66", 3), ("condition:46", 5)))

WORKLOADS: dict[str, list[list[list[str]]]] = {
    "tables": [
        _table_slot(("s3125_40", "s3125_41"), ("s243_16", "s243_19")),
        _table_slot(("s3125_42", "s3125_43"), ("s243_38", "s243_39")),
    ],
    "classify": [
        [_group("classify", "free_class2:5", 2)],
        [_group("classify", "free_class2:4", 3)],
        [_group("classify", "dihedral:1024")],
        _twins("classify", ("dihedral:512", "quaternion:512")),
        *([argv] for argv in NEGATIVES),
    ],
    "oracle": [
        _twins("oracle", ("condition-quotient:65", "condition-quotient:66"), 3),
        _twins("oracle", ("dihedral:64", "quaternion:64")),
        _twins("oracle", ("dihedral:32", "quaternion:32")),
        [_group("oracle", "heisenberg:5")],
        [_group("oracle", "free_class2:3", 2)],
    ],
    "index": [
        _twins("index", ("dihedral:1024", "quaternion:1024")),
        [_group("index", "free_class2:4", 5)],
        [_group("index", "free_class2:5", 2)],
        [_group("index", "heisenberg:13")],
    ],
}


def key(argv: list[str]) -> str:
    return " ".join(argv)


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The argv list of one pass: one alternative per slot, order permuted."""
    rng = random.Random(f"{workload}:{seed}")
    chosen = [rng.choice(slot) for slot in WORKLOADS[workload]]
    rng.shuffle(chosen)
    return chosen


def all_invocations(workload: str) -> list[list[str]]:
    """Every argv any seed can produce for the workload."""
    return [argv for slot in WORKLOADS[workload] for argv in slot]


def prepare(root: Path, argvs: list[list[str]]) -> None:
    """Materialise the presentation directories that verify-tables reads.

    Each directory is named by its rows joined with '+', and holds copies
    of the shipped .pres files for those rows.
    """
    for argv in argvs:
        if argv[0] != "verify-tables":
            continue
        target = root / argv[1]
        rows = target.name.split("+")
        if target.is_dir() and sorted(f.stem for f in target.iterdir()) == sorted(rows):
            continue
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for row in rows:
            shutil.copyfile(root / TABLE_SOURCE / f"{row}.pres", target / f"{row}.pres")
