"""Admissible d-vector enumeration against frozen golden lists.

The weight-10 survivor lists below were derived by hand from the two
admissibility constraints and reviewed once against the case analysis
they reproduce; they are frozen here so any change to the filter shows
up as a diff against known-good output.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lienil.dimension import DSequence, d_sequence
from lienil.dvectors import (
    REPORT_PRIMES,
    enumerate_admissible,
    enumerate_raw,
    lemma_constraints_ok,
    theta_p_prime,
)
from lienil.subgroups import whole_group

# Survivors common to every prime at weight 10.
GENERIC_10 = (
    {2: 10},
    {2: 8, 3: 1},
    {2: 6, 3: 2},
    {2: 5, 3: 1, 4: 1},
    {2: 4, 3: 3},
    {2: 3, 3: 2, 4: 1},
    {2: 2, 3: 4},
    {2: 2, 3: 1, 4: 2},
    {2: 1, 3: 3, 4: 1},
    {2: 1, 3: 1, 4: 1, 5: 1},
)

EXTRA_10 = {
    2: ({2: 4, 3: 1, 5: 1}, {2: 2, 3: 2, 5: 1}),
    3: ({2: 7, 4: 1}, {2: 4, 4: 2}, {2: 1, 4: 3}),
    5: ({2: 5, 6: 1}, {2: 3, 3: 1, 6: 1}, {2: 1, 3: 2, 6: 1}),
    7: ({2: 3, 8: 1}, {2: 1, 3: 1, 8: 1}),
    11: (),
    13: (),
}


def golden(p):
    return {DSequence.from_dict(p, d) for d in GENERIC_10 + EXTRA_10[p]}


def test_theta_p_prime():
    assert theta_p_prime(3, 54) == 2
    assert theta_p_prime(2, 48) == 3
    assert theta_p_prime(5, 7) == 7
    assert theta_p_prime(5, 125) == 1
    with pytest.raises(ValueError):
        theta_p_prime(3, 0)


def test_dvector_round_trip():
    v = DSequence.from_dict(7, {8: 1, 2: 3})
    assert dict(v.d) == {2: 3, 8: 1}
    assert v.get(8) == 1 and v.get(5) == 0
    assert v.weight() == 10
    assert str(v) == "{d_(2)=3, d_(8)=1}"
    assert str(DSequence.from_dict(2, {})) == "{}"


def test_raw_enumeration_counts_are_partition_numbers():
    # Supported maps with sum m*f(m) = w are exactly the partitions of w.
    partition_numbers = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 10: 42}
    for w, count in partition_numbers.items():
        assert len(enumerate_raw(w)) == count


def test_raw_enumeration_weights_and_keys():
    for values in enumerate_raw(6):
        assert sum((m - 1) * v for m, v in values.items()) == 6
        assert all(m >= 2 for m in values)


@pytest.mark.parametrize("p", sorted(EXTRA_10))
def test_weight_10_survivors_match_golden_list(p):
    got = set(enumerate_admissible(p, 10))
    assert got == golden(p)


def test_survivor_order_is_deterministic():
    first = enumerate_admissible(3, 10)
    second = enumerate_admissible(3, 10)
    assert first == second
    assert [v.d for v in first] == sorted(
        (v.d for v in first),
        key=lambda d: tuple(-dict(d).get(m, 0) for m in range(2, 12)))


def test_top_index_support_is_prime_specific():
    for p in (2, 3, 5, 7, 11):
        survivors = set(enumerate_admissible(p, 10))
        # d_(8) support survives only at p = 7, d_(6) support only at p = 5.
        assert any(v.get(8) for v in survivors) == (p == 7)
        assert any(v.get(6) for v in survivors) == (p == 5)
        # The d_(5) vectors with no d_(4) support survive only at p = 2
        # ({d_(2)=1, d_(3)=1, d_(4)=1, d_(5)=1} is generic and always there).
        assert (DSequence.from_dict(p, {2: 4, 3: 1, 5: 1}) in survivors) == (p == 2)
        assert (DSequence.from_dict(p, {2: 2, 3: 2, 5: 1}) in survivors) == (p == 2)
        assert (DSequence.from_dict(p, {2: 5, 6: 1}) in survivors) == (p == 5)
        assert (DSequence.from_dict(p, {2: 3, 8: 1}) in survivors) == (p == 7)


def test_named_discards_are_absent():
    # Spot-checks of vectors the constraints must reject at weight 10.
    rejected = [
        (3, {2: 3, 8: 1}),   # d_(8) needs p = 7
        (5, {2: 3, 8: 1}),
        (2, {2: 5, 6: 1}),   # d_(6) needs p = 5
        (3, {2: 4, 3: 1, 5: 1}),  # d_(5) with d_(4) = 0 needs p = 2
        (2, {2: 7, 4: 1}),   # d_(4) with d_(3) = 0 needs p = 3
        (5, {2: 1, 4: 3}),
        (2, {11: 1}),        # single huge entry: every intermediate vanishes
    ]
    for p, values in rejected:
        vec = DSequence.from_dict(p, values)
        ok, violations = lemma_constraints_ok(vec)
        assert not ok, vec
        assert violations


def test_constraint_one_is_scoped_to_vanishing_entries():
    # {d_(2)=1, d_(4)=3} at p = 3: d_(3) = 0 but 3*1+1 = 4 has d_(4) != 0
    # only under the over-wide premise; the sequence is admissible (and
    # group-realizable), so the filter must keep it.
    vec = DSequence.from_dict(3, {2: 1, 4: 3})
    ok, violations = lemma_constraints_ok(vec)
    assert ok, violations


def test_lemma_constraints_accept_real_group_sequences():
    from lienil.catalog import build_dihedral, build_heisenberg
    for G in (build_dihedral(32).group, build_heisenberg(5).group):
        seq = d_sequence(whole_group(G))
        ok, violations = lemma_constraints_ok(seq)
        assert ok, (str(seq), violations)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(REPORT_PRIMES), w=st.integers(1, 8))
def test_survivors_are_a_subset_of_raw_with_right_weight(p, w):
    raw = {DSequence.from_dict(p, v) for v in enumerate_raw(w)}
    for vec in enumerate_admissible(p, w):
        assert vec in raw
        assert vec.weight() == w


def test_weight_one_has_single_survivor():
    for p in REPORT_PRIMES:
        assert [dict(v.d) for v in enumerate_admissible(p, 1)] == [{2: 1}]


def test_enumeration_matches_golden_at_p7_and_p11():
    assert set(enumerate_admissible(7, 10)) == golden(7)
    assert set(enumerate_admissible(11, 10)) == golden(11)
