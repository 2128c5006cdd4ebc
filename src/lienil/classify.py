"""Condition matching for the index classification, read off the group.

Every clause of the condition table in lienil.conditions is a statement
about subgroups of G: the lower central terms gamma_i, the power
subgroups P_q = (G')^q of the derived subgroup, the centre and second
derived subgroup of G', and U = P_(p^2) * gamma_3^p.  evaluate_clause
reads each one off the whole group W.  W memoizes its lower central
series, and each subgroup memoizes its powers, centre, derived subgroup
and fingerprint, so a subgroup that several clauses name is built once.
match_conditions evaluates the table; verify_theorem ties the match
outcome to the Jennings index so the classification can be checked
group by group.

Identification of a non-abelian derived subgroup against the declared
small-group ids in the table goes through a fingerprint database (see
lienil.catalog).  Fingerprints are not a full isomorphism test, so when
several database entries share the fingerprint of G' and disagree
about membership in a condition's id list, the condition is reported as
ambiguous rather than silently matched or dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .catalog import fingerprint_db, reference_fingerprint
from .conditions import (ConditionRecord, eval_abelian, eval_value,
                         get_conditions, p_applies)
from .dimension import upper_index
from .pcgroup import PcGroup
from .subgroups import (IsoType, Subgroup, center, derived_subgroup,
                        fingerprint, intersection, lower_central_series,
                        power_subgroup, subgroup_product, whole_group)


# ---------------------------------------------------------------------------
# clause evaluation


def _gamma(W: Subgroup, i: int) -> Subgroup:
    """gamma_i of the whole group W; past the class, the trivial term."""
    series = lower_central_series(W)
    return series[min(i, len(series)) - 1]


def _has_type(H: Subgroup, abt: tuple, p: int) -> bool:
    """H is abelian of the type abt; ("abl", ()) means H is trivial."""
    return fingerprint(H) == IsoType("abelian", eval_abelian(abt, p))


def evaluate_clause(clause: tuple, W: Subgroup) -> bool:
    """One clause of the condition table (see lienil.conditions) on the
    whole group W."""
    op, *args = clause
    p = W.group.p
    derived = _gamma(W, 2)
    g3 = _gamma(W, 3)

    def P(q: tuple) -> Subgroup:
        return power_subgroup(derived, eval_value(q, p))

    def U() -> Subgroup:
        return subgroup_product(power_subgroup(derived, p * p), power_subgroup(g3, p))

    if op == "g_iso":
        return _has_type(_gamma(W, args[0]), args[1], p)
    if op == "g_in_P":
        return _gamma(W, args[0]) <= P(args[1])
    if op == "P_in_g3":
        return P(args[0]) <= g3
    if op == "P_eq_g3":
        return P(args[0]) == g3
    if op in ("cap3", "cap4"):
        term = g3 if op == "cap3" else _gamma(W, 4)
        return intersection(P(args[0]), term, W).order == eval_value(args[1], p)
    if op == "P_iso":
        return _has_type(P(args[0]), args[1], p)
    if op == "g3_iso_P":
        return fingerprint(g3) == fingerprint(P(args[0]))
    if op == "g4_in_U":
        return _gamma(W, 4) <= U()
    if op == "U_iso":
        return _has_type(U(), args[0], p)
    if op == "P_in_zeta":
        return P(args[0]) <= center(derived)
    if op == "gpp_in_zeta":
        return derived_subgroup(derived) <= center(derived)
    raise ValueError(f"unknown clause {clause!r}")


def _branches_hold(record: ConditionRecord, W: Subgroup) -> bool:
    return any(all(evaluate_clause(c, W) for c in branch)
               for branch in record.branches)


# ---------------------------------------------------------------------------
# derived-subgroup identification


FingerprintDB = Mapping[tuple[int, int], IsoType]


def _gprime_status(record: ConditionRecord, W: Subgroup,
                   db: Optional[FingerprintDB]) -> tuple[str, tuple[tuple[int, int], ...]]:
    """Classify the derived-subgroup requirement of one record.

    Returns (status, candidates): status is "yes", "no" or "ambiguous";
    candidates lists the fingerprint-equal database entries when the
    identification could not be pinned to a single answer.
    """
    p = W.group.p
    derived = _gamma(W, 2)
    kind = record.gprime[0]
    if kind == "ab":
        return ("yes" if _has_type(derived, record.gprime[1], p) else "no"), ()
    iso = fingerprint(derived)
    if iso.kind == "abelian":  # "ref" and "sg" rows name non-abelian groups
        return "no", ()
    if kind == "ref":
        want = reference_fingerprint(record.gprime[1], p)
        return ("yes" if iso == want else "no"), ()
    # kind == "sg"
    order, ids = record.gprime[1], record.gprime[2]
    if derived.order != order:
        return "no", ()
    if db is None:
        db = fingerprint_db()
    cands = tuple(sorted(key for key, other in db.items()
                         if key[0] == order and other == iso))
    if not cands:
        return "no", ()
    inside = [k for k in cands if k[1] in ids]
    if len(inside) == len(cands):
        return "yes", cands
    if not inside:
        return "no", cands
    return "ambiguous", cands


@dataclass(frozen=True)
class AmbiguousMatch:
    """A condition whose clause part holds but whose derived-subgroup
    identification has fingerprint-equal candidates on both sides of
    the id list."""

    condition_id: int
    candidates: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MatchReport:
    matched_ids: tuple[int, ...]
    ambiguous: tuple[AmbiguousMatch, ...]
    notes: tuple[str, ...]
    corrected: bool


def match_conditions(W: Subgroup, corrected: bool = False,
                     records: Optional[tuple[ConditionRecord, ...]] = None,
                     db: Optional[FingerprintDB] = None) -> MatchReport:
    """Evaluate the condition table on the whole group W.

    Several conditions may match the same group (the table contains
    verbatim repeats and overlapping families); all matches are
    returned, in id order.
    """
    if records is None:
        records = get_conditions(corrected)
    matched: list[int] = []
    ambiguous: list[AmbiguousMatch] = []
    notes: list[str] = []
    for rec in records:
        if not p_applies(rec.applicable_p, W.group.p):
            continue
        status, cands = _gprime_status(rec, W, db)
        if status == "no":
            continue
        if not _branches_hold(rec, W):
            continue
        if status == "ambiguous":
            ambiguous.append(AmbiguousMatch(rec.id, cands))
            notes.append(
                f"condition {rec.id}: clauses hold but the derived subgroup "
                f"fingerprint matches several reference groups "
                f"({', '.join(f'S{c}' for c in cands)}) that disagree on "
                f"membership; not counted as a match")
            continue
        matched.append(rec.id)
    if len(matched) > 1:
        notes.append(f"profile matches {len(matched)} conditions: "
                     f"{matched} (overlap is expected for repeated rows)")
    return MatchReport(tuple(matched), tuple(ambiguous), tuple(notes),
                       corrected)


# ---------------------------------------------------------------------------
# the theorem check


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking one group against the classification.

    verdict is CONSISTENT when the group's upper index equals 10p-8
    exactly if some condition matches, INCONSISTENT otherwise.
    """

    p: int
    group_order: int
    index: int
    expected_index: int
    matched_ids: tuple[int, ...]
    ambiguous: tuple[AmbiguousMatch, ...]
    verdict: str
    oracle_index: Optional[int]
    notes: tuple[str, ...]
    corrected: bool

    @property
    def consistent(self) -> bool:
        return self.verdict == "CONSISTENT"


def verify_theorem(G: PcGroup, corrected: bool = False,
                   with_oracle: bool = False,
                   oracle_cap: Optional[int] = None) -> TheoremReport:
    """Check one group against the index-(10p-8) classification."""
    p = G.p
    # one whole group, so its memoized series and powers serve both
    W = whole_group(G)
    t = upper_index(W)
    expected = 10 * p - 8
    rep = match_conditions(W, corrected=corrected)
    notes = list(rep.notes)

    oracle_index = None
    if with_oracle:
        from .oracle import DEFAULT_ORACLE_CAP, t_upper_direct
        limit = oracle_cap if oracle_cap is not None else DEFAULT_ORACLE_CAP
        if G.order <= limit:
            oracle_index = t_upper_direct(G, cap=limit)
            if oracle_index != t:
                notes.append(
                    f"dimension-formula index {t} disagrees with the "
                    f"direct chain computation {oracle_index}")
        else:
            notes.append(f"group order {G.order} above the direct-check "
                         f"limit {limit}; index taken from the dimension "
                         f"formula only")

    has_index = (t == expected)
    has_match = bool(rep.matched_ids)
    consistent = (has_index == has_match)
    if oracle_index is not None and oracle_index != t:
        consistent = False
    if rep.ambiguous and not has_match and has_index:
        notes.append("ambiguous identifications above could supply the "
                     "missing match; verdict based on confirmed matches only")
    return TheoremReport(
        p=p,
        group_order=G.order,
        index=t,
        expected_index=expected,
        matched_ids=rep.matched_ids,
        ambiguous=rep.ambiguous,
        verdict="CONSISTENT" if consistent else "INCONSISTENT",
        oracle_index=oracle_index,
        notes=tuple(notes),
        corrected=corrected,
    )
