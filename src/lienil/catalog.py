"""Group builders, the built-in test catalog, and table verification.

Standard constructions (abelian p-groups, dihedral, quaternion,
Heisenberg, free class-2 groups, the groups presented inside condition
rows) all produce CatalogEntry objects: a named, consistency-checked pc
group, optionally tagged with a declared external small-group id and a
set of expected invariants.  `--builder` names come from one table,
_BUILDERS, which `catalog list` prints: a new builder is one entry.

The data/tables directory ships presentations for the order-3125, 2187
and 243 reference groups used by the condition table and the expected
column values to verify them against.  Those files are data: the id
labels declare positions in the external small-groups numbering and the
presentations were assembled to match the published invariant columns,
row by row (see the repository README for the exact claim).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

from .dvectors import enumerate_raw
from .pcgroup import PcGroup, PresentationError, Word, check_prime, parse_presentation_with_meta
from .subgroups import (IsoType, center, derived_subgroup, fingerprint,
                        _log_p, intersection, power_subgroup, whole_group)

DATA_DIR = Path(__file__).resolve().parent / "data" / "tables"


@dataclass
class CatalogEntry:
    """A named group plus optional identification and expectations."""

    name: str
    group: PcGroup
    declared_id: Optional[tuple[int, int]] = None
    expected: dict[str, str] = field(default_factory=dict)
    description: str = ""

    @property
    def order(self) -> int:
        return self.group.order


# ---------------------------------------------------------------------------
# builders


def build_abelian(p: int, invariant_factors: Iterable[int]) -> CatalogEntry:
    """Direct product of cyclic p-groups with the given invariant factors."""
    check_prime(p)
    factors = sorted(invariant_factors, reverse=True)
    if not factors:
        raise ValueError("need at least one invariant factor")
    powers: dict[int, Word] = {}
    idx = 0
    for f in factors:
        try:
            length = _log_p(f, p)
        except ValueError:
            length = 0
        if not length:
            raise ValueError(f"invariant factor {f} is not a power of {p} (> 1)")
        for step in range(length - 1):
            powers[idx + step] = ((idx + step + 1, 1),)
        idx += length
    group = PcGroup(p, idx, powers=powers, comms={})
    name = "abelian-" + "x".join(f"C{f}" for f in factors) + f"-p{p}"
    return CatalogEntry(name, group,
                        description="abelian, invariant factors "
                        + "x".join(str(f) for f in factors))


def _dihedral_type(order: int, quaternion: bool) -> PcGroup:
    """g1 over the cyclic chain g2..gn of the rotation, with g1^2 = 1, or
    g1^2 = g_n (the chain's involution) for the quaternion group.

    The inverse of the chain generator g_k is g_k g_(k+1) ... g_n, so
    [g_k, g1] = g_(k+1) ... g_n.
    """
    if order < 8 or order & (order - 1):
        family = "quaternion" if quaternion else "dihedral"
        raise ValueError(f"{family} builder needs a 2-power order >= 8")
    n = order.bit_length() - 1  # order = 2^n
    powers: dict[int, Word] = {k: ((k + 1, 1),) for k in range(1, n - 1)}
    if quaternion:
        powers[0] = ((n - 1, 1),)
    comms = {(k, 0): tuple((i, 1) for i in range(k + 1, n)) for k in range(1, n - 1)}
    return PcGroup(2, n, powers=powers, comms=comms)


def build_dihedral(order: int) -> CatalogEntry:
    """Dihedral 2-group: reflection plus a cyclic chain for the rotation."""
    return CatalogEntry(f"dihedral-{order}", _dihedral_type(order, False),
                        description=f"dihedral group of order {order}")


def build_quaternion(order: int) -> CatalogEntry:
    """Generalized quaternion 2-group (s^2 = the involution of the chain)."""
    return CatalogEntry(f"quaternion-{order}", _dihedral_type(order, True),
                        description=f"generalized quaternion group of order {order}")


def _heisenberg_times_cp(p: int, k: int) -> PcGroup:
    """H(p) x (Cp)^k: generators a, b, [b,a], then k free central ones."""
    return PcGroup(p, 3 + k, powers={}, comms={(1, 0): ((2, 1),)})


def _row66_group(p: int, k: int) -> PcGroup:
    """<a, b, c, d, e | x^p = 1, [b,a] = e, [d,c] = e> x (Cp)^k."""
    return PcGroup(p, 5 + k, powers={}, comms={(1, 0): ((4, 1),),
                                               (3, 2): ((4, 1),)})


def build_heisenberg(p: int) -> CatalogEntry:
    """Non-abelian group of order p^3 and exponent p (p odd)."""
    if p < 3:
        raise ValueError("heisenberg builder needs an odd prime")
    group = _heisenberg_times_cp(p, 0)
    return CatalogEntry(f"heisenberg-{p}", group,
                        description=f"extraspecial of order {p}^3, exponent {p}")


def build_free_class2(rank: int, p: int) -> CatalogEntry:
    """Rank-k generators, all commutators central of order p, class 2.

    The derived subgroup is elementary abelian of rank k(k-1)/2 and
    gamma_3 is trivial; rank 5 at p = 2 is the headline-index witness.
    """
    if not 2 <= rank <= 8:
        raise ValueError("free class-2 builder supports ranks 2..8")
    cidx: dict[tuple[int, int], int] = {}
    k = rank
    for j in range(1, rank):
        for i in range(j):
            cidx[(j, i)] = k
            k += 1
    comms = {pair: ((cidx[pair], 1),) for pair in cidx}
    group = PcGroup(p, k, powers={}, comms=comms)
    return CatalogEntry(f"free-class2-rank{rank}-p{p}", group,
                        description=f"class-2 group on {rank} generators with "
                        f"elementary abelian derived subgroup of rank "
                        f"{rank * (rank - 1) // 2}")


def build_condition_group(item: int, p: int) -> CatalogEntry:
    """The group presented inside condition row 46, 65 or 66.

    Row 46 (p >= 5): (Cp x Cp) x <a,b,e | [b,a] = e>, order p^5.
    Row 65 (p >= 3): <a..g | all p-th powers 1, [b,a] = c>, order p^7.
    Row 66 (p >= 3): <a..g | all p-th powers 1, [b,a] = e, [d,c] = e>.
    """
    if item == 46:
        if p < 5:
            raise ValueError("row 46 is stated for p >= 5")
        # generators a, b, e, c, d; only [b,a] = e is nontrivial
        group = _heisenberg_times_cp(p, 2)
    elif item == 65:
        if p < 3:
            raise ValueError("row 65 is stated for odd p")
        group = _heisenberg_times_cp(p, 4)
    elif item == 66:
        if p < 3:
            raise ValueError("row 66 is stated for odd p")
        group = _row66_group(p, 2)
    else:
        raise ValueError(f"no presented group in condition row {item}")
    return CatalogEntry(f"cond{item}-p{p}", group,
                        description=f"group presented in condition row {item}")


def build_condition_quotient(item: int, p: int) -> CatalogEntry:
    """Rows 65/66 with the two free direct factors dropped (order p^5)."""
    if item == 65:
        group = _heisenberg_times_cp(p, 2)
    elif item == 66:
        group = _row66_group(p, 0)
    else:
        raise ValueError(f"no quotient builder for condition row {item}")
    return CatalogEntry(f"cond{item}-quotient-p{p}", group,
                        description=f"condition row {item} group modulo its "
                        f"free direct factors")


_REFERENCE_BUILDERS = {
    # Heisenberg x Cp (condition row 31)
    "heis_x_cp": lambda p: _heisenberg_times_cp(p, 1),
    # (Cp x Cp) x extraspecial p^(1+2) of exponent p (condition row 46)
    "item46": lambda p: build_condition_group(46, p).group,
    "item65": lambda p: build_condition_group(65, p).group,
    "item66": lambda p: build_condition_group(66, p).group,
    # Heisenberg x (Cp)^3 (condition row 82)
    "heis_x_cp3": lambda p: _heisenberg_times_cp(p, 3),
}


@functools.lru_cache(maxsize=None)
def reference_fingerprint(key: str, p: int) -> IsoType:
    """Fingerprint of a named reference construction at the prime p."""
    try:
        builder = _REFERENCE_BUILDERS[key]
    except KeyError:
        raise ValueError(f"unknown reference construction {key!r}") from None
    return fingerprint(whole_group(builder(p)))


# ---------------------------------------------------------------------------
# builder dispatch (CLI `--builder name:params`)


def _int_param(spec: str, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"builder spec {spec!r}: {what} {text!r} "
                         "is not an integer") from None


class _Builder(NamedTuple):
    grammar: str  # the parameters as `catalog list` prints them
    label: str  # what _int_param calls a parameter
    needs_p: bool
    call: Callable[..., CatalogEntry]  # call(parameter, p)
    listed: bool = False  # the parameter is a list of integers joined by x or ,


_BUILDERS = {
    "dihedral": _Builder("<order>", "order", False, lambda n, p: build_dihedral(n)),
    "quaternion": _Builder("<order>", "order", False, lambda n, p: build_quaternion(n)),
    "heisenberg": _Builder("<p>", "prime", False, lambda n, p: build_heisenberg(n)),
    "abelian": _Builder("<f1>x<f2>x...", "invariant factor", True,
                        lambda fs, p: build_abelian(p, fs), listed=True),
    "free_class2": _Builder("<rank>", "rank", True, build_free_class2),
    "condition": _Builder("<46|65|66>", "row", True, build_condition_group),
    "condition-quotient": _Builder("<65|66>", "row", True, build_condition_quotient),
}

BUILDER_NAMES = tuple(f"{name}:{b.grammar}" + (" (-p required)" if b.needs_p else "")
                      for name, b in _BUILDERS.items())


def build_named(spec: str, p: Optional[int] = None) -> CatalogEntry:
    """Build from a `name:params` string, e.g. dihedral:16, abelian:4x2."""
    name, _, params = spec.partition(":")
    name = name.strip().lower()
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"unknown builder {name!r}")
    if builder.needs_p and p is None:
        raise ValueError(f"{name} builder needs -p")
    if builder.listed:
        return builder.call([_int_param(spec, builder.label, tok)
                             for tok in re.split("[x,]", params)], p)
    return builder.call(_int_param(spec, builder.label, params), p)


# ---------------------------------------------------------------------------
# the built-in catalog


def standard_catalog() -> list[CatalogEntry]:
    """The built-in test corpus.

    All abelian p-groups of order <= 64 for p in {2, 3, 5}, the dihedral
    and quaternion 2-groups up to order 32, the two Heisenberg groups
    p = 3, 5, the order-243 quotients of the condition-row 65/66 groups,
    and the order-2^15 headline witness.
    """
    # enumerate_raw(n) lists the partitions of n: key e + 1 holds the number of parts e
    entries = [build_abelian(p, [p**(key - 1) for key, count in parts.items()
                                 for _ in range(count)])
               for p, max_exp in ((2, 6), (3, 3), (5, 2))
               for n in range(1, max_exp + 1) for parts in enumerate_raw(n)]
    entries += [build_dihedral(order) for order in (8, 16, 32)]
    entries += [build_quaternion(order) for order in (8, 16)]
    entries += [build_heisenberg(p) for p in (3, 5)]
    entries += [build_condition_quotient(65, 3), build_condition_quotient(66, 3),
                build_free_class2(5, 2)]
    entries.sort(key=lambda e: e.name)
    return entries


# ---------------------------------------------------------------------------
# imported presentations and table verification


def import_presentation(path: str | Path) -> CatalogEntry:
    """Load a .pres file into a consistency-checked entry.

    Raises PresentationError, prefixed with the file name, for a path that
    cannot be read and for text that does not parse (or is not UTF-8).
    """
    path = Path(path)
    try:
        group, meta = parse_presentation_with_meta(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise PresentationError(f"{path.name}: cannot read: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise PresentationError(f"{path.name}: {exc}") from None
    name = path.stem
    if meta.small_group_id:
        order, number = meta.small_group_id
        name = f"S({order},{number})"
    return CatalogEntry(name, group, declared_id=meta.small_group_id,
                        expected=dict(meta.expect),
                        description=f"imported from {path.name}")


def table_entries(data_dir: Optional[str | Path] = None) -> list[CatalogEntry]:
    """All shipped table presentations, sorted by name."""
    base = Path(data_dir) if data_dir is not None else DATA_DIR
    entries = [import_presentation(f) for f in sorted(base.glob("*.pres"))]
    entries.sort(key=lambda e: (e.order, e.declared_id or (0, 0), e.name))
    return entries


# every table column key; <q> is a positive integer exponent
_COLUMN_KEY = re.compile(
    r"expGp|zeta|Gpp|GppcapZeta|GppcapGp[1-9][0-9]*|Gp[1-9][0-9]*(capZeta)?")


def _check_column_keys(name: str, keys: Iterable[str]) -> None:
    for key in keys:
        if not _COLUMN_KEY.fullmatch(key):
            raise PresentationError(f"{name}: unknown expectation key {key!r}")


def computed_columns(entry: CatalogEntry, keys: Iterable[str]) -> dict[str, str]:
    """Evaluate table columns on an entry's group.

    The group itself plays the derived-subgroup role, so `Gp5`/`Gp3`
    mean its own fifth/cube power subgroup, `Gpp` its derived subgroup,
    `zeta` its centre, and the intersection keys `GppcapZeta`,
    `Gp<q>capZeta` and `GppcapGp<q>` the pairwise intersections.
    Unknown keys raise PresentationError before any column is computed.
    """
    keys = list(keys)
    _check_column_keys(entry.name, keys)
    W = whole_group(entry.group)
    out: dict[str, str] = {}
    for key in keys:
        q = int(re.sub(r"\D", "", key) or 0)  # the <q> of a power key
        if key == "expGp":
            out[key] = str(W.exponent())
            continue
        if key == "zeta":
            sub = center(W)
        elif key == "Gpp":
            sub = derived_subgroup(W)
        elif key == "GppcapZeta":
            sub = intersection(derived_subgroup(W), center(W), W)
        elif key.startswith("GppcapGp"):
            sub = intersection(derived_subgroup(W), power_subgroup(W, q), W)
        elif key.endswith("capZeta"):
            sub = intersection(power_subgroup(W, q), center(W), W)
        else:
            sub = power_subgroup(W, q)
        out[key] = str(fingerprint(sub))
    return out


@dataclass(frozen=True)
class RowCheck:
    name: str
    passed: bool
    details: tuple[tuple[str, str, str], ...]  # (key, expected, computed)


@dataclass(frozen=True)
class TableReport:
    rows: tuple[RowCheck, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def lines(self) -> list[str]:
        out = []
        for row in self.rows:
            status = "PASS" if row.passed else "FAIL"
            out.append(f"{status}  {row.name}")
            if not row.passed:
                for key, want, got in row.details:
                    mark = "ok" if want == got else "MISMATCH"
                    out.append(f"      {key}: expected {want}, computed {got}"
                               f"  [{mark}]")
        return out


def verify_tables(entries: Optional[Iterable[CatalogEntry]] = None) -> TableReport:
    """Diff expected column values against computed ones, row by row.

    Every row's keys are checked before any column is computed.
    """
    entries = [e for e in (table_entries() if entries is None else entries)
               if e.expected]
    for entry in entries:
        _check_column_keys(entry.name, entry.expected)
    rows: list[RowCheck] = []
    for entry in entries:
        computed = computed_columns(entry, entry.expected.keys())
        details = tuple((key, entry.expected[key], computed[key])
                        for key in sorted(entry.expected))
        passed = all(want == got for _, want, got in details)
        rows.append(RowCheck(entry.name, passed, details))
    rows.sort(key=lambda r: r.name)
    return TableReport(tuple(rows))


# ---------------------------------------------------------------------------
# fingerprint database for derived-subgroup identification


@functools.lru_cache(maxsize=1)
def fingerprint_db() -> dict[tuple[int, int], IsoType]:
    """Fingerprints of every shipped presentation with a declared id."""
    db: dict[tuple[int, int], IsoType] = {}
    for entry in table_entries():
        if entry.declared_id is None:
            continue
        db[entry.declared_id] = fingerprint(whole_group(entry.group))
    return db
