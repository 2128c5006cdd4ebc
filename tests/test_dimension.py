"""Dimension subgroup chains, d-sequences, and the index formula."""

import pytest

from lienil.catalog import (
    build_abelian,
    build_dihedral,
    build_free_class2,
    build_heisenberg,
    build_quaternion,
)
from lienil.dimension import (
    DSequence,
    d_sequence,
    jennings_index,
    lie_dimension_chain,
    upper_index,
)
from lienil.subgroups import (
    derived_subgroup,
    lower_central_series,
    power_series,
    power_subgroup,
    subgroup_product,
    trivial_subgroup,
    whole_group,
    _log_p,
)
from groups import fresh, group, names
from test_pcgroup import _calls


def test_dsequence_basics():
    seq = DSequence.from_dict(7, {2: 3, 8: 1, 5: 0})
    assert dict(seq.d) == {2: 3, 8: 1}
    assert seq.get(2) == 3 and seq.get(8) == 1 and seq.get(4) == 0
    assert seq.total() == 4
    assert seq.weight() == 1 * 3 + 7 * 1
    assert str(seq) == "{d_(2)=3, d_(8)=1}"
    assert str(DSequence.from_dict(2, {})) == "{}"
    with pytest.raises(ValueError):
        DSequence.from_dict(2, {1: 1})
    with pytest.raises(ValueError):
        DSequence.from_dict(2, {3: -1})


def test_jennings_index_from_sequences():
    # weighted sum: t = 2 + (p-1) * sum m * d_(m+1)
    assert jennings_index(DSequence.from_dict(2, {2: 1})) == 3
    assert jennings_index(DSequence.from_dict(2, {2: 1, 3: 1})) == 5
    assert jennings_index(DSequence.from_dict(2, {2: 10})) == 12
    assert jennings_index(DSequence.from_dict(7, {2: 3, 8: 1})) == 62
    assert jennings_index(DSequence.from_dict(5, {})) == 2


def test_dihedral_8_chain():
    G = build_dihedral(8).group
    chain = lie_dimension_chain(whole_group(G))
    assert [s.order for s in chain] == [2, 1]
    assert dict(d_sequence(whole_group(G)).d) == {2: 1}
    assert upper_index(whole_group(G)) == 3


def test_dihedral_16_chain():
    G = build_dihedral(16).group
    chain = lie_dimension_chain(whole_group(G))
    assert [s.order for s in chain] == [4, 2, 1]
    assert dict(d_sequence(whole_group(G)).d) == {2: 1, 3: 1}
    assert upper_index(whole_group(G)) == 5


def test_quaternion_groups():
    assert upper_index(whole_group(build_quaternion(8).group)) == 3
    assert dict(d_sequence(whole_group(build_quaternion(16).group)).d) == {2: 1, 3: 1}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_heisenberg_index_is_p_plus_one(p):
    G = build_heisenberg(p).group
    assert dict(d_sequence(whole_group(G)).d) == {2: 1}
    assert upper_index(whole_group(G)) == p + 1


def test_abelian_groups_have_index_two():
    for p, factors in ((2, [4, 2]), (3, [9]), (5, [5, 5])):
        G = build_abelian(p, factors).group
        assert dict(d_sequence(whole_group(G)).d) == {}
        assert upper_index(whole_group(G)) == 2


def test_headline_witness_sequence():
    G = build_free_class2(5, 2).group
    seq = d_sequence(whole_group(G))
    assert dict(seq.d) == {2: 10}
    assert jennings_index(seq) == 12


def test_chain_descends_to_trivial_with_gaps_allowed():
    # D_(4) = D_(5) here, so the d-sequence skips index 4.
    G = build_dihedral(32).group
    chain = lie_dimension_chain(whole_group(G))
    orders = [s.order for s in chain]
    assert orders == [8, 4, 2, 2, 1]
    assert all(a >= b for a, b in zip(orders, orders[1:]))
    assert dict(d_sequence(whole_group(G)).d) == {2: 1, 3: 1, 5: 1}
    assert upper_index(whole_group(G)) == 9  # one more than |G'|


def lie_dimension_subgroup(W, m):
    """D_(m) of the whole group W by the product formula: the product of
    gamma_i^(p^j) over i >= 2, j >= 0 with (i-1) p^j >= m - 1."""
    p = W.group.p
    result = trivial_subgroup(W.group)
    for i, gamma_i in enumerate(lower_central_series(W)[1:-1], start=2):
        j = 0
        while not (piece := power_subgroup(gamma_i, p**j)).is_trivial():
            if (i - 1) * p**j >= m - 1:
                result = subgroup_product(result, piece)
            j += 1
    return result


def test_single_subgroup_matches_chain():
    for name in names():
        chain = lie_dimension_chain(whole_group(group(name)))
        # a separately built group: no memo is shared with the chain
        reference = whole_group(fresh(name))
        assert [term.entries for term in chain] == [
            lie_dimension_subgroup(reference, m).entries
            for m in range(2, len(chain) + 2)], name
        # the chain stops at its first trivial term
        assert chain[-1].is_trivial(), name
        assert not any(term.is_trivial() for term in chain[:-1]), name


def test_mass_check_equals_derived_order():
    for name in names():
        G = group(name)
        seq = d_sequence(whole_group(G))
        der = derived_subgroup(whole_group(G))
        assert seq.total() == _log_p(der.order, G.p), name


@pytest.mark.parametrize("name, work, before", [
    # before: the counts when every bracket and centre product was collected
    ("dihedral-1024", (437, 545), (2975, 3782)),
    ("free-class2-rank5-p2", (0, 0), (450, 360)),
])
def test_dimension_chain_work_is_pinned(monkeypatch, name, work, before):
    """(_mul, _collect) calls of the chain, whole group included.  Brackets
    and centre products of elements whose supports commute are read off
    the presentation (PcGroup.supports_commute), not collected, nor are
    p-th powers of pc generators, and each distinct subgroup's power
    series is built once."""
    G = fresh(name)
    assert _calls(monkeypatch, lambda: lie_dimension_chain(whole_group(G))) == work
    assert work[0] < before[0] and work[1] < before[1]


def test_whole_group_work_is_pinned(monkeypatch):
    """Closing G from its pc generators sifts each new entry's p-th power
    first, so the sequence fills with pc generators read off the power
    relations, and no product is collected (348 _mul and 418 _collect
    calls when the commutators were sifted first)."""
    G = fresh("dihedral-1024")
    assert _calls(monkeypatch, lambda: whole_group(G)) == (0, 0)


def test_equal_pieces_share_one_power_series():
    """On the dihedral group of order 1024, gamma_2^2 equals gamma_3, so
    gamma_3's series is [gamma_3] + the later terms of gamma_2's, the
    same objects, and the chain builds one series per distinct subgroup:
    the 9 terms of gamma_2's."""
    G = fresh("dihedral-1024")
    W = whole_group(G)
    lie_dimension_chain(W)
    gamma = lower_central_series(W)
    s2, s3 = power_series(gamma[1]), power_series(gamma[2])
    assert s2[1] == gamma[2] and s3[0] is gamma[2]
    assert len(s2) == len(s3) + 1 == 9
    assert all(a is b for a, b in zip(s2[2:], s3[1:]))
    assert len(G.power_series_memo) == 9
