"""The condition table as data: shape, gates, and the corrected variant."""

import pytest

from lienil.conditions import (
    CONDITIONS,
    SUSPECT_IDS,
    ConditionRecord,
    ab_lit,
    ab_p,
    corrected_records,
    eval_abelian,
    eval_value,
    get_conditions,
    lit,
    p_applies,
    pp,
)


def test_table_has_107_rows_with_unique_increasing_ids():
    ids = [r.id for r in CONDITIONS]
    assert len(ids) == 107
    assert ids == sorted(ids)
    assert len(set(ids)) == 107
    assert ids[0] == 1 and ids[-1] == 107


def test_value_and_type_atoms():
    assert eval_value(lit(4), 5) == 4
    assert eval_value(pp(2), 5) == 25
    assert eval_abelian(ab_lit(9, 3), 7) == (9, 3)
    assert eval_abelian(ab_p(2, 1), 3) == (9, 3)
    assert eval_abelian(ab_lit(), 3) == ()


def test_prime_gates():
    assert p_applies(("any",), 2)
    assert p_applies(("eq", 3), 3) and not p_applies(("eq", 3), 5)
    assert p_applies(("ge", 5), 7) and not p_applies(("ge", 5), 3)


def test_suspect_rows_carry_notes():
    by_id = {r.id: r for r in CONDITIONS}
    for cid in SUSPECT_IDS:
        assert by_id[cid].note, f"row {cid} should explain its suspicion"


def test_corrected_table_differs_exactly_on_suspect_ids():
    literal = get_conditions(False)
    corrected = get_conditions(True)
    assert len(corrected) == len(literal)
    assert [r.id for r in corrected] == [r.id for r in literal]
    changed = tuple(a.id for a, b in zip(literal, corrected) if a != b)
    assert changed == SUSPECT_IDS


def test_corrected_records_is_cached_and_stable():
    assert corrected_records() == corrected_records()
    assert get_conditions(True) is not get_conditions(False)


def test_records_are_frozen_data():
    rec = next(r for r in CONDITIONS if r.id == 90)
    assert isinstance(rec, ConditionRecord)
    with pytest.raises(AttributeError):
        rec.id = 91


def test_rows_with_informational_notes_are_not_corrected():
    # A few rows carry commentary (duplicates, merges) without being
    # candidates for repair; they must survive correction untouched.
    literal = {r.id: r for r in get_conditions(False)}
    corrected = {r.id: r for r in get_conditions(True)}
    for cid in (34, 50, 104):
        assert literal[cid].note
        assert literal[cid] == corrected[cid]


def test_every_branch_clause_is_well_formed():
    known_ops = {"g_iso", "g_in_P", "P_in_g3", "P_eq_g3", "cap3", "cap4",
                 "P_iso", "g3_iso_P", "g4_in_U", "U_iso", "P_in_zeta",
                 "gpp_in_zeta"}
    for table in (get_conditions(False), get_conditions(True)):
        for rec in table:
            assert rec.gprime[0] in ("ab", "sg", "ref")
            assert rec.branches, f"row {rec.id} has no branches"
            for branch in rec.branches:
                for clause in branch:
                    assert clause[0] in known_ops, (rec.id, clause)


def test_every_reference_key_is_built_at_each_admitted_prime():
    from lienil.catalog import reference_fingerprint
    checked = set()
    for table in (CONDITIONS, corrected_records()):
        for r in table:
            if r.gprime[0] != "ref":
                continue
            for p in (3, 5, 7):
                if p_applies(r.applicable_p, p):
                    # raises ValueError for a key the catalog does not know;
                    # every reference is non-abelian, as classify assumes
                    assert reference_fingerprint(r.gprime[1], p).kind == "fingerprint"
                    checked.add(r.gprime[1])
    assert checked == {"heis_x_cp", "item46", "item65", "item66", "heis_x_cp3"}
