"""Structure profiles, condition matching, and the per-group theorem check."""

from dataclasses import replace

import pytest

from lienil.catalog import (
    build_abelian,
    build_condition_quotient,
    build_dihedral,
    build_free_class2,
    build_heisenberg,
)
from lienil.classify import (
    AmbiguousMatch,
    StructureProfile,
    TermInfo,
    evaluate_clause,
    match_conditions,
    profile,
    verify_theorem,
)
from lienil.conditions import ConditionRecord, ab_lit, lit
from lienil.subgroups import IsoType, whole_group


@pytest.fixture(scope="module")
def heis3_profile():
    return profile(whole_group(build_heisenberg(3).group))


def test_profile_of_heisenberg(heis3_profile):
    prof = heis3_profile
    assert prof.p == 3
    assert prof.group_order == 27
    assert prof.derived_order == 3
    assert prof.derived_exponent == 3
    assert prof.derived_invariants == (3,)
    assert prof.gamma_info(3).order == 1
    assert prof.nilpotency_class == 2
    assert sorted(prof.powers) == [2, 3, 9]
    # coprime exponent: squares regenerate the whole derived subgroup
    assert prof.power_info(2).order == 3
    assert prof.power_info(3).order == 1
    with pytest.raises(KeyError):
        prof.power_info(4)


def test_evaluate_clause_vocabulary(heis3_profile):
    prof = heis3_profile
    assert evaluate_clause(("g_iso", 3, ab_lit()), prof)
    assert evaluate_clause(("P_in_g3", ("p", 1)), prof)
    assert not evaluate_clause(("P_in_g3", lit(2)), prof)
    assert evaluate_clause(("cap3", lit(2), lit(1)), prof)
    assert evaluate_clause(("P_in_zeta", ("p", 1)), prof)
    assert evaluate_clause(("gpp_in_zeta",), prof)
    d16 = profile(whole_group(build_dihedral(16).group))
    assert evaluate_clause(("g_iso", 3, ab_lit(2)), d16)
    assert not evaluate_clause(("g_iso", 3, ab_lit(4)), d16)
    assert evaluate_clause(("g_in_P", 3, lit(2)), d16)
    assert evaluate_clause(("P_eq_g3", lit(2)), d16)
    with pytest.raises(ValueError):
        evaluate_clause(("no_such_op",), prof)
    with pytest.raises(ValueError):
        evaluate_clause(("g_in_P", 5, lit(2)), prof)


def test_dihedral_16_is_consistent_without_matches():
    rep = verify_theorem(build_dihedral(16).group)
    assert rep.index == 5
    assert rep.expected_index == 12
    assert rep.matched_ids == ()
    assert rep.ambiguous == ()
    assert rep.verdict == "CONSISTENT"
    assert rep.consistent


def test_heisenberg_7_is_consistent_without_matches():
    rep = verify_theorem(build_heisenberg(7).group)
    assert rep.index == 8
    assert rep.expected_index == 62
    assert rep.matched_ids == ()
    assert rep.consistent


def test_witness_matches_exactly_one_condition():
    G = build_free_class2(5, 2).group
    for corrected in (False, True):
        rep = verify_theorem(G, corrected=corrected)
        assert rep.index == rep.expected_index == 12
        assert rep.matched_ids == (90,)
        assert rep.verdict == "CONSISTENT"
        assert rep.corrected is corrected


def test_classify_builds_one_lower_central_series(monkeypatch, capsys):
    # the series is memoized on the whole group, so every call, from the
    # profile and from the dimension chain, returns the same list
    from lienil import classify, cli, dimension, subgroups
    returned = []

    def recorded(W):
        series = subgroups.lower_central_series(W)
        returned.append(series)
        return series

    for module in (classify, dimension):
        monkeypatch.setattr(module, "lower_central_series", recorded)
    assert cli.main(["classify", "--builder", "dihedral:16"]) == 0
    capsys.readouterr()
    assert len(returned) > 1
    assert all(series is returned[0] for series in returned)


def test_abelian_group_is_trivially_consistent():
    rep = verify_theorem(build_abelian(2, [4, 2]).group)
    assert rep.index == 2
    assert rep.matched_ids == ()
    assert rep.consistent


def test_condition_quotients_at_order_243():
    for item in (65, 66):
        rep = verify_theorem(build_condition_quotient(item, 3).group)
        assert rep.consistent
        assert rep.matched_ids == ()


def test_with_oracle_annotates_report():
    rep = verify_theorem(build_dihedral(16).group, with_oracle=True)
    assert rep.oracle_index == 5
    assert rep.consistent
    big = verify_theorem(build_free_class2(5, 2).group, with_oracle=True)
    assert big.oracle_index is None
    assert any("direct-check" in note for note in big.notes)
    assert big.consistent


# ---------------------------------------------------------------------------
# synthetic profiles: exercise identification paths the real corpus cannot


def fake_profile(derived_iso, declared_id=None, p=3, derived_order=243):
    triv = IsoType("abelian", ())
    return StructureProfile(
        p=p,
        group_order=derived_order * p**2,
        derived_order=derived_order,
        derived_exponent=p,
        derived_iso=derived_iso,
        derived_invariants=(derived_iso.invariants
                            if derived_iso.kind == "abelian" else None),
        declared_id=declared_id,
        gamma={},
        powers={},
        u_order=1,
        u_iso=triv,
        gamma4_in_u=True,
        centre_order=1,
        second_derived=TermInfo(1, triv),
        second_derived_in_centre=True,
        nilpotency_class=3,
    )


FAKE_ISO = IsoType("fingerprint",
                   fingerprint=(243, 9, 27, "C3xC3xC3", 3, "C3", "C3xC3",
                                (27, 1)))


def sg_record(ids):
    return ConditionRecord(id=1, applicable_p=("any",),
                           gprime=("sg", 243, tuple(ids)),
                           branches=((),))


def test_fingerprint_collision_reports_ambiguity():
    prof = fake_profile(FAKE_ISO)
    db = {(243, 5): FAKE_ISO, (243, 6): FAKE_ISO}
    rep = match_conditions(prof, records=(sg_record([5]),), db=db)
    assert rep.matched_ids == ()
    assert rep.ambiguous == (AmbiguousMatch(1, ((243, 5), (243, 6))),)
    assert any("disagree" in note for note in rep.notes)


def test_fingerprint_agreement_counts_as_match():
    prof = fake_profile(FAKE_ISO)
    db = {(243, 5): FAKE_ISO, (243, 6): FAKE_ISO}
    rep = match_conditions(prof, records=(sg_record([5, 6]),), db=db)
    assert rep.matched_ids == (1,)
    assert rep.ambiguous == ()


def test_fingerprint_disagreement_everywhere_is_no_match():
    prof = fake_profile(FAKE_ISO)
    db = {(243, 5): FAKE_ISO, (243, 6): FAKE_ISO}
    rep = match_conditions(prof, records=(sg_record([7]),), db=db)
    assert rep.matched_ids == ()
    assert rep.ambiguous == ()


def test_declared_id_short_circuits_the_database():
    prof = fake_profile(FAKE_ISO, declared_id=(243, 5))
    rep = match_conditions(prof, records=(sg_record([5]),), db={})
    assert rep.matched_ids == (1,)
    other = fake_profile(FAKE_ISO, declared_id=(243, 9))
    rep2 = match_conditions(other, records=(sg_record([5]),), db={})
    assert rep2.matched_ids == ()


def test_unknown_fingerprint_is_no_match():
    prof = fake_profile(FAKE_ISO)
    rep = match_conditions(prof, records=(sg_record([5]),), db={})
    assert rep.matched_ids == ()


def test_abelian_derived_subgroup_never_matches_sg_rows():
    prof = fake_profile(IsoType("abelian", (3,) * 5))
    rep = match_conditions(prof, records=(sg_record([5]),),
                           db={(243, 5): FAKE_ISO})
    assert rep.matched_ids == ()


def test_overlapping_matches_are_all_reported():
    prof = fake_profile(IsoType("abelian", (3, 3)), derived_order=9)
    rec_a = ConditionRecord(id=1, applicable_p=("any",),
                            gprime=("ab", ("abl", (3, 3))), branches=((),))
    rec_b = replace(rec_a, id=2)
    rep = match_conditions(prof, records=(rec_a, rec_b), db={})
    assert rep.matched_ids == (1, 2)
    assert any("matches 2 conditions" in note for note in rep.notes)


def test_prime_gate_filters_records():
    prof = fake_profile(IsoType("abelian", (3, 3)), derived_order=9)
    rec = ConditionRecord(id=1, applicable_p=("eq", 5),
                          gprime=("ab", ("abl", (3, 3))), branches=((),))
    rep = match_conditions(prof, records=(rec,), db={})
    assert rep.matched_ids == ()
