"""Capture perfbench/goldens.json: stdout and exit code of every invocation
any seed can produce, after cross-checking each one against facts that do
not come from the code under test.

Usage, from the root of a checkout (takes about two minutes):
    python3 perfbench/capture.py

Checks before a golden is accepted:
  - oracle: exit 0, "agree" true and upper_direct == upper_formula;
  - tables: exit 0 and "passed" true;
  - classify: free_class2:5 at p = 2 and at p = 3 gives t^L = 10p-8 with
    a CONSISTENT verdict and a matched condition; the negatives match no
    condition; every verdict is CONSISTENT;
  - index: t^L = 2 + (p-1) * sum (m-1) d_(m), the d_(m) sum to log_p |G'|,
    and t^L equals the closed form of its family (free class 2 of rank r:
    2 + (p-1) r(r-1)/2; dihedral or quaternion of order 2^n, whose G' is
    cyclic of order 2^(n-2): |G'| + 1; Heisenberg mod p: p + 1).
The p = 3 classify run (about a minute) is a check only: it is in no
workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import GOLDENS, BenchError, check_checkout, run_pass
from workloads import NEGATIVES, WORKLOADS, all_invocations, key, prepare

EXTRA_CHECKS = [["classify", "--json", "--builder", "free_class2:5", "-p", "3"]]


def _spec(argv: list[str]) -> tuple[str, int, int | None]:
    """(family, parameter, p) of a --builder invocation."""
    spec = argv[argv.index("--builder") + 1]
    family, _, param = spec.partition(":")
    p = int(argv[argv.index("-p") + 1]) if "-p" in argv else None
    return family, int(param), p


def _family_index(family: str, param: int, p: int) -> int | None:
    if family == "free_class2":
        return 2 + (p - 1) * param * (param - 1) // 2
    if family in ("dihedral", "quaternion"):
        return param // 4 + 1
    if family == "heisenberg":
        return p + 1
    return None


def problems(argv: list[str], code: int, out: str) -> list[str]:
    if code != 0:
        return [f"exit {code}"]
    doc = json.loads(out)
    cmd, found = argv[0], []
    if cmd == "verify-tables":
        if doc["passed"] is not True:
            found.append("tables not passed")
    elif cmd == "oracle":
        if doc["agree"] is not True or doc["upper_direct"] != doc["upper_formula"]:
            found.append("oracle disagrees with the formula")
    elif cmd == "classify":
        if doc["verdict"] != "CONSISTENT":
            found.append(f"verdict {doc['verdict']}")
        if argv in NEGATIVES and doc["matched_conditions"]:
            found.append("negative matched a condition")
        family, param, p = _spec(argv)
        if (family, param) == ("free_class2", 5):
            if not (doc["upper_index"] == doc["expected_index"] == 10 * p - 8
                    and doc["matched_conditions"]):
                found.append("rank-5 witness does not reach 10p-8 with a match")
    elif cmd == "index":
        p, d = doc["p"], {int(m): v for m, v in doc["d_sequence"].items()}
        if doc["upper_index"] != 2 + (p - 1) * sum((m - 1) * v for m, v in d.items()):
            found.append("t^L is not the Jennings formula of the d-sequence")
        if p ** sum(d.values()) != doc["dimension_chain"]["2"]:
            found.append("d-sequence mass differs from log_p |G'|")
        family, param, _ = _spec(argv)
        want = _family_index(family, param, doc["p"])
        if want is not None and doc["upper_index"] != want:
            found.append(f"t^L {doc['upper_index']}, closed form gives {want}")
    return found


def main() -> int:
    root = Path.cwd()
    check_checkout(root)
    goldens, bad = {}, 0
    runs = [(w, all_invocations(w)) for w in WORKLOADS] + [(None, EXTRA_CHECKS)]
    for workload, argvs in runs:
        prepare(root, argvs)
        record = run_pass(root, argvs)
        for argv, got in zip(argvs, record["results"]):
            found = ([f"raised {got['raised']}"] if got["raised"]
                     else problems(argv, got["exit"], got["stdout"]))
            print(f"{'ok ' if not found else 'BAD'} {key(argv)} {'; '.join(found)}")
            bad += bool(found)
            if workload is not None:
                goldens.setdefault(workload, {})[key(argv)] = {
                    "exit": got["exit"], "stdout": got["stdout"]}
    if bad:
        print(f"{bad} invocations failed their checks; goldens not written",
              file=sys.stderr)
        return 1
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"capture: {exc}", file=sys.stderr)
        sys.exit(2)
