"""Structure profiles and condition matching for the index classification.

A StructureProfile captures everything about a group that the condition
table in lienil.conditions can ask for: the derived subgroup's type, the
lower central terms, power subgroups of the derived subgroup and their
interactions with gamma_3 and gamma_4.  match_conditions evaluates the
table against a profile; verify_theorem ties the match outcome to the
Jennings index so the classification can be checked group by group.

Identification of a non-abelian derived subgroup against the declared
small-group ids in the table goes through a fingerprint database (see
lienil.catalog).  Fingerprints are not a full isomorphism test, so when
several database entries share the profile's fingerprint and disagree
about membership in a condition's id list, the condition is reported as
ambiguous rather than silently matched or dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .conditions import (ConditionRecord, eval_abelian, eval_value,
                         get_conditions, p_applies)
from .dimension import upper_index
from .pcgroup import PcGroup
from .subgroups import (DEFAULT_CAP, IsoType, Subgroup, center,
                        derived_subgroup, fingerprint, intersection,
                        lower_central_series, power_subgroup,
                        subgroup_product, whole_group)


@dataclass(frozen=True)
class TermInfo:
    """Order and isomorphism descriptor of one subgroup."""

    order: int
    iso: IsoType


@dataclass(frozen=True)
class PowerInfo:
    """How the subgroup generated by q-th powers of G' sits in the group."""

    q: int
    order: int
    iso: IsoType
    cap_gamma3: int
    cap_gamma4: int
    in_gamma3: bool
    eq_gamma3: bool
    contains_gamma3: bool
    contains_gamma4: bool
    in_centre: bool


@dataclass(frozen=True)
class StructureProfile:
    """All structural facts the condition table can query.

    `derived_iso` is exact (invariant factors) when G' is abelian and a
    fingerprint otherwise; `declared_id` is an optional (order, number)
    label supplied by whoever built the group.  `powers` is keyed by the
    literal exponent q and always covers q = 2, 3, p and p^2.
    """

    p: int
    group_order: int
    derived_order: int
    derived_exponent: int
    derived_iso: IsoType
    derived_invariants: Optional[tuple[int, ...]]
    declared_id: Optional[tuple[int, int]]
    gamma: Mapping[int, TermInfo]
    powers: Mapping[int, PowerInfo]
    u_order: int
    u_iso: IsoType
    gamma4_in_u: bool
    centre_order: int
    second_derived: TermInfo
    second_derived_in_centre: bool
    nilpotency_class: int

    def gamma_info(self, i: int) -> TermInfo:
        info = self.gamma.get(i)
        if info is None:
            return TermInfo(1, IsoType("abelian", ()))
        return info

    def power_info(self, q: int) -> PowerInfo:
        try:
            return self.powers[q]
        except KeyError:
            raise KeyError(f"power subgroup for exponent {q} not profiled")


def profile(W: Subgroup,
            declared_derived_id: Optional[tuple[int, int]] = None) -> StructureProfile:
    """Compute the structure profile of a pc group G from its whole group W."""
    G = W.group
    p = G.p
    series = lower_central_series(W)

    def gamma_term(i: int) -> Subgroup:  # the series ends at its trivial term
        return series[min(i, len(series)) - 1]

    derived = gamma_term(2)
    g3 = gamma_term(3)
    g4 = gamma_term(4)

    gamma: dict[int, TermInfo] = {}
    top = max(6, len(series))
    for i in range(3, top + 1):
        term = gamma_term(i)
        gamma[i] = TermInfo(term.order, fingerprint(term))

    zeta = center(derived)
    second = derived_subgroup(derived)

    powers: dict[int, PowerInfo] = {}
    for q in sorted({2, 3, p, p * p}):
        P = power_subgroup(derived, q)
        powers[q] = PowerInfo(
            q=q,
            order=P.order,
            iso=fingerprint(P),
            cap_gamma3=intersection(P, g3).order,
            cap_gamma4=intersection(P, g4).order,
            in_gamma3=P <= g3,
            eq_gamma3=P == g3,
            contains_gamma3=g3 <= P,
            contains_gamma4=g4 <= P,
            in_centre=P <= zeta,
        )

    u = subgroup_product(power_subgroup(derived, p * p), power_subgroup(g3, p))

    inv = None
    derived_iso = fingerprint(derived)
    if derived_iso.kind == "abelian":
        inv = derived_iso.invariants

    return StructureProfile(
        p=p,
        group_order=G.order,
        derived_order=derived.order,
        derived_exponent=derived.exponent(),
        derived_iso=derived_iso,
        derived_invariants=inv,
        declared_id=declared_derived_id,
        gamma=gamma,
        powers=powers,
        u_order=u.order,
        u_iso=fingerprint(u),
        gamma4_in_u=g4 <= u,
        centre_order=zeta.order,
        second_derived=TermInfo(second.order, fingerprint(second)),
        second_derived_in_centre=second <= zeta,
        nilpotency_class=max(1, len(series) - 1),
    )


# ---------------------------------------------------------------------------
# clause evaluation


def _abelian_matches(iso: IsoType, order: int, abt: tuple, p: int) -> bool:
    target = eval_abelian(abt, p)
    if not target:
        return order == 1
    return iso.kind == "abelian" and iso.invariants == target


def evaluate_clause(clause: tuple, prof: StructureProfile) -> bool:
    op = clause[0]
    p = prof.p
    if op == "g_iso":
        info = prof.gamma_info(clause[1])
        return _abelian_matches(info.iso, info.order, clause[2], p)
    if op == "g_in_P":
        pi = prof.power_info(eval_value(clause[2], p))
        if clause[1] == 3:
            return pi.contains_gamma3
        if clause[1] == 4:
            return pi.contains_gamma4
        raise ValueError(f"containment of gamma_{clause[1]} not profiled")
    if op == "P_in_g3":
        return prof.power_info(eval_value(clause[1], p)).in_gamma3
    if op == "P_eq_g3":
        return prof.power_info(eval_value(clause[1], p)).eq_gamma3
    if op == "cap3":
        pi = prof.power_info(eval_value(clause[1], p))
        return pi.cap_gamma3 == eval_value(clause[2], p)
    if op == "cap4":
        pi = prof.power_info(eval_value(clause[1], p))
        return pi.cap_gamma4 == eval_value(clause[2], p)
    if op == "P_iso":
        pi = prof.power_info(eval_value(clause[1], p))
        return _abelian_matches(pi.iso, pi.order, clause[2], p)
    if op == "g3_iso_P":
        pi = prof.power_info(eval_value(clause[1], p))
        return prof.gamma_info(3).iso == pi.iso
    if op == "g4_in_U":
        return prof.gamma4_in_u
    if op == "U_iso":
        return _abelian_matches(prof.u_iso, prof.u_order, clause[1], p)
    if op == "P_in_zeta":
        return prof.power_info(eval_value(clause[1], p)).in_centre
    if op == "gpp_in_zeta":
        return prof.second_derived_in_centre
    raise ValueError(f"unknown clause {clause!r}")


def _branches_hold(record: ConditionRecord, prof: StructureProfile) -> bool:
    return any(all(evaluate_clause(c, prof) for c in branch)
               for branch in record.branches)


# ---------------------------------------------------------------------------
# derived-subgroup identification


FingerprintDB = Mapping[tuple[int, int], IsoType]
RefProvider = Callable[[str, int], IsoType]


def _default_db() -> FingerprintDB:
    from .catalog import fingerprint_db
    return fingerprint_db()


def _default_ref(key: str, p: int) -> IsoType:
    from .catalog import reference_fingerprint
    return reference_fingerprint(key, p)


def _gprime_status(record: ConditionRecord, prof: StructureProfile,
                   db: Optional[FingerprintDB],
                   ref: RefProvider) -> tuple[str, tuple[tuple[int, int], ...]]:
    """Classify the derived-subgroup requirement of one record.

    Returns (status, candidates): status is "yes", "no" or "ambiguous";
    candidates lists the fingerprint-equal database entries when the
    identification could not be pinned to a single answer.
    """
    kind = record.gprime[0]
    if kind == "ab":
        want = eval_abelian(record.gprime[1], prof.p)
        ok = (prof.derived_invariants is not None
              and prof.derived_invariants == want)
        return ("yes" if ok else "no"), ()
    if kind == "ref":
        if prof.derived_iso.kind == "abelian":
            return "no", ()
        want_iso = ref(record.gprime[1], prof.p)
        return ("yes" if prof.derived_iso == want_iso else "no"), ()
    # kind == "sg"
    order, ids = record.gprime[1], record.gprime[2]
    if prof.derived_order != order or prof.derived_iso.kind == "abelian":
        return "no", ()
    if prof.declared_id is not None:
        o, n = prof.declared_id
        return ("yes" if (o == order and n in ids) else "no"), ()
    if db is None:
        db = _default_db()
    cands = tuple(sorted(key for key, iso in db.items()
                         if key[0] == order and iso == prof.derived_iso))
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


def match_conditions(prof: StructureProfile, corrected: bool = False,
                     records: Optional[tuple[ConditionRecord, ...]] = None,
                     db: Optional[FingerprintDB] = None,
                     ref: RefProvider = _default_ref) -> MatchReport:
    """Evaluate the condition table against a profile.

    Several conditions may match the same profile (the table contains
    verbatim repeats and overlapping families); all matches are
    returned, in id order.
    """
    if records is None:
        records = get_conditions(corrected)
    matched: list[int] = []
    ambiguous: list[AmbiguousMatch] = []
    notes: list[str] = []
    for rec in records:
        if not p_applies(rec.applicable_p, prof.p):
            continue
        status, cands = _gprime_status(rec, prof, db, ref)
        if status == "no":
            continue
        if not _branches_hold(rec, prof):
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
                   cap: int = DEFAULT_CAP,
                   declared_derived_id: Optional[tuple[int, int]] = None,
                   db: Optional[FingerprintDB] = None,
                   ref: RefProvider = _default_ref,
                   with_oracle: bool = False,
                   oracle_cap: Optional[int] = None) -> TheoremReport:
    """Check one group against the index-(10p-8) classification."""
    p = G.p
    # one whole group, so its memoized series and powers serve both
    W = whole_group(G, cap)
    t = upper_index(W)
    expected = 10 * p - 8
    prof = profile(W, declared_derived_id)
    rep = match_conditions(prof, corrected=corrected, db=db, ref=ref)
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
