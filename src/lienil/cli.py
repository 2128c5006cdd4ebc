"""Command-line interface.

Subcommands:
    index          dimension-subgroup chain, d-sequence, and the index t^L
    oracle         direct Lie-power indices and agreement with the formula
    classify       check one group against the index-(10p-8) classification
    enumerate-d    admissible d-vector survivors at a given weight
    verify-tables  recompute the shipped table rows and diff every column
    catalog        list built-in entries or print a builder's presentation

Groups come either from a presentation file or from `--builder name:params`
(see `catalog list` for builders).  Exit status: 0 success or consistent,
1 an inconsistency or failed check, 2 usage or input errors.

Caps: subgroup enumeration is bounded by a fixed 2^20 elements, and
`enumerate-d --weight` by 30 (dvectors.MAX_WEIGHT);
`oracle --cap` bounds the oracle's group order (default 256, env
LIENIL_ORACLE_CAP).
JSON output (`--json`) is deterministic for fixed inputs and flags: keys
are sorted and the report order is by entry name.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .catalog import (
    BUILDER_NAMES,
    DATA_DIR,
    CatalogEntry,
    build_named,
    import_presentation,
    standard_catalog,
    table_entries,
    verify_tables,
)
from .classify import verify_theorem
from .dimension import d_sequence_of_chain, jennings_index, lie_dimension_chain, upper_index
from .dvectors import REPORT_PRIMES, enumerate_admissible
from .pcgroup import PresentationError, check_prime
from .subgroups import CapExceeded, whole_group

ORACLE_CAP_ENV = "LIENIL_ORACLE_CAP"


class InputProblem(Exception):
    """Bad arguments or unreadable input; maps to exit status 2."""


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InputProblem(f"{name} must be an integer, got {raw!r}")
    return _positive(name, value)


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise InputProblem(f"{name} must be positive, got {value}")
    return value


def _oracle_cap(args) -> Optional[int]:
    if args.cap is not None:
        return _positive("--cap", args.cap)
    return _env_int(ORACLE_CAP_ENV)


def _check_prime(entry: CatalogEntry, p: Optional[int]) -> CatalogEntry:
    if p is not None and entry.group.p != p:
        raise InputProblem(f"{entry.name} is a {entry.group.p}-group, but -p {p} was given")
    return entry


def _build_entry(spec: str, p: Optional[int]) -> CatalogEntry:
    try:
        entry = build_named(spec, p=p)
    except ValueError as exc:
        raise InputProblem(str(exc))
    return _check_prime(entry, p)


def _load_entry(args) -> CatalogEntry:
    if args.builder and args.file:
        raise InputProblem("give a presentation file or --builder, not both")
    if args.builder:
        return _build_entry(args.builder, args.p)
    if not args.file:
        raise InputProblem("need a presentation file or --builder name:params")
    path = Path(args.file)
    if not path.is_file():
        raise InputProblem(f"no such file: {path}")
    try:
        entry = import_presentation(path)
    except PresentationError as exc:
        raise InputProblem(str(exc))
    return _check_prime(entry, args.p)


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _dvec_payload(vec) -> dict:
    return {str(m): v for m, v in vec.d}


# ---------------------------------------------------------------------------
# subcommands


def cmd_index(args) -> int:
    entry = _load_entry(args)
    G = entry.group
    chain = lie_dimension_chain(whole_group(G))
    seq = d_sequence_of_chain(chain)
    t = jennings_index(seq)
    if args.json:
        _emit_json({
            "group": entry.name,
            "order": G.order,
            "p": G.p,
            "dimension_chain": {str(m): sub.order
                                for m, sub in enumerate(chain, start=2)},
            "d_sequence": _dvec_payload(seq),
            "upper_index": t,
        })
        return 0
    print(f"group {entry.name}: order {G.order}, p = {G.p}")
    print("dimension subgroups: "
          + ", ".join(f"|D_({m})| = {sub.order}"
                      for m, sub in enumerate(chain, start=2)))
    print(f"d-sequence: {seq}")
    print(f"upper index t^L = {t}")
    return 0


def cmd_oracle(args) -> int:
    # the oracle brings in numpy, so only the commands that run it import it
    from .oracle import DEFAULT_ORACLE_CAP, build_algebra, lower_lie_chain, upper_lie_chain
    cap = _oracle_cap(args) or DEFAULT_ORACLE_CAP
    entry = _load_entry(args)
    G = entry.group
    A = build_algebra(G, cap)
    # the enumeration cap is checked before the dense chains, not after them
    formula = upper_index(whole_group(G))
    upper = len(upper_lie_chain(A))
    lower = len(lower_lie_chain(A))
    agree = (upper == formula) and (lower <= upper)
    if args.json:
        _emit_json({
            "group": entry.name,
            "order": G.order,
            "p": G.p,
            "upper_direct": upper,
            "lower_direct": lower,
            "upper_formula": formula,
            "agree": agree,
        })
        return 0 if agree else 1
    print(f"group {entry.name}: order {G.order}, p = {G.p}")
    print(f"t^L direct  = {upper}")
    print(f"t_L direct  = {lower}")
    print(f"t^L formula = {formula}")
    if agree:
        note = "t_L = t^L" if lower == upper else f"t_L < t^L by {upper - lower}"
        print(f"AGREE: direct chain matches the dimension formula ({note})")
        return 0
    print("DISAGREE: direct chain and dimension formula differ")
    return 1


def cmd_classify(args) -> int:
    # the cap only bounds the oracle, so it is read only when that runs
    oracle_cap = _env_int(ORACLE_CAP_ENV) if args.with_oracle else None
    entry = _load_entry(args)
    report = verify_theorem(
        entry.group,
        corrected=args.corrected_conditions,
        with_oracle=args.with_oracle,
        oracle_cap=oracle_cap,
    )
    if args.json:
        _emit_json({
            "group": entry.name,
            "order": report.group_order,
            "p": report.p,
            "upper_index": report.index,
            "expected_index": report.expected_index,
            "matched_conditions": list(report.matched_ids),
            "ambiguous": [
                {"condition": amb.condition_id,
                 "candidates": [list(c) for c in amb.candidates]}
                for amb in report.ambiguous
            ],
            "oracle_index": report.oracle_index,
            "corrected_conditions": report.corrected,
            "notes": list(report.notes),
            "verdict": report.verdict,
        })
        return 0 if report.consistent else 1
    print(f"group {entry.name}: order {report.group_order}, p = {report.p}")
    print(f"upper index t^L = {report.index} (10p-8 = {report.expected_index})")
    if report.oracle_index is not None:
        print(f"direct-chain index = {report.oracle_index}")
    if report.matched_ids:
        print("matched conditions: "
              + ", ".join(str(i) for i in report.matched_ids))
    else:
        print("matched conditions: none")
    for amb in report.ambiguous:
        cands = ", ".join(f"S({o},{n})" for o, n in amb.candidates)
        print(f"ambiguous: condition {amb.condition_id} (candidates: {cands or 'none known'})")
    for note in report.notes:
        print(f"note: {note}")
    print(f"verdict: {report.verdict}")
    return 0 if report.consistent else 1


def cmd_enumerate_d(args) -> int:
    if args.all_p:
        primes = list(REPORT_PRIMES)
    elif args.p is not None:
        try:
            primes = [check_prime(args.p)]
        except ValueError as exc:
            raise InputProblem(str(exc))
    else:
        raise InputProblem("need -p <prime> or --all-p")
    weight = args.weight
    if weight < 1:
        raise InputProblem(f"--weight must be positive, got {weight}")
    try:
        survivors = {p: enumerate_admissible(p, weight) for p in primes}
    except ValueError as exc:
        raise InputProblem(str(exc))
    if args.json:
        _emit_json({
            "weight": weight,
            "survivors": {str(p): [_dvec_payload(v) for v in vecs]
                          for p, vecs in survivors.items()},
        })
        return 0
    for p in primes:
        vecs = survivors[p]
        print(f"p = {p}: {len(vecs)} admissible d-vectors of weight {weight}")
        for vec in vecs:
            print(f"  {vec}")
    return 0


def cmd_verify_tables(args) -> int:
    base = Path(args.dir) if args.dir else DATA_DIR
    if not base.is_dir():
        raise InputProblem(f"no such directory: {base}")
    try:
        report = verify_tables(table_entries(base))
    except PresentationError as exc:
        raise InputProblem(str(exc))
    if not report.rows:
        raise InputProblem(f"no presentation files with expectations in {base}")
    if args.json:
        _emit_json({
            "rows": [
                {"name": row.name,
                 "passed": row.passed,
                 "columns": {key: {"expected": want, "computed": got}
                             for key, want, got in row.details}}
                for row in report.rows
            ],
            "passed": report.passed,
        })
        return 0 if report.passed else 1
    for line in report.lines():
        print(line)
    good = sum(1 for row in report.rows if row.passed)
    print(f"{good}/{len(report.rows)} rows passed")
    return 0 if report.passed else 1


def cmd_catalog(args) -> int:
    if args.action == "list":
        entries = standard_catalog()
        if args.json:
            _emit_json({
                "entries": [
                    {"name": e.name, "order": e.order, "p": e.group.p,
                     "description": e.description}
                    for e in entries
                ],
                "builders": list(BUILDER_NAMES),
            })
            return 0
        for e in entries:
            print(f"{e.name:32} order {e.order:>6}  p = {e.group.p}")
        print(f"{len(entries)} entries; builders: " + ", ".join(BUILDER_NAMES))
        return 0
    # build
    if not args.spec:
        raise InputProblem("catalog build needs a builder spec, e.g. dihedral:16")
    entry = _build_entry(args.spec, args.p)
    text = entry.group.to_text(header_comments=[entry.name])
    if args.json:
        _emit_json({
            "name": entry.name,
            "order": entry.order,
            "p": entry.group.p,
            "presentation": text,
        })
        return 0
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_group_args(sub) -> None:
    sub.add_argument("file", nargs="?", help="presentation file")
    sub.add_argument("--builder", metavar="NAME:PARAMS",
                     help="build a catalog group instead of reading a file")
    sub.add_argument("-p", type=int, default=None,
                     help="prime (builder parameter, or checked against the file)")


@functools.cache  # built once per process: main may run many times in one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lienil",
        description="Lie nilpotency indices of modular group algebras "
                    "of finite p-groups")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("index", help="d-sequence and t^L via the dimension formula")
    _add_group_args(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_index)

    sub = subs.add_parser("oracle", help="direct Lie-power chain computation")
    _add_group_args(sub)
    sub.add_argument("--cap", type=int, help="largest group order the oracle accepts")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("classify", help="check a group against the classification")
    _add_group_args(sub)
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--corrected-conditions", action="store_true",
                     help="use the corrected condition set instead of the literal one")
    sub.add_argument("--with-oracle", action="store_true",
                     help="also run the direct Lie-power computation when affordable")
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("enumerate-d", help="admissible d-vectors of a given weight")
    sub.add_argument("-p", type=int, default=None, help="prime")
    sub.add_argument("--weight", type=int, default=10)
    sub.add_argument("--all-p", action="store_true",
                     help=f"report every prime in {REPORT_PRIMES}")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_enumerate_d)

    sub = subs.add_parser("verify-tables", help="recompute shipped table rows")
    sub.add_argument("dir", nargs="?", help="directory of .pres files "
                                            "(default: the packaged data)")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_verify_tables)

    sub = subs.add_parser("catalog", help="list catalog entries or print a builder")
    sub.add_argument("action", choices=("list", "build"))
    sub.add_argument("spec", nargs="?", help="builder spec for `build`")
    sub.add_argument("-p", type=int, default=None)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: the rest of the output goes to
        # the null device, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputProblem, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # lienil.oracle is imported only by the commands that run it, and
        # only then can its errors arise
        oracle = sys.modules.get("lienil.oracle")
        if oracle is None:
            raise
        if isinstance(exc, oracle.OracleCapExceeded):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, oracle.NotLieNilpotentDetected):
            print(f"inconsistency: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
