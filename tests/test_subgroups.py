"""Subgroup enumeration, series, and isomorphism-invariant computations."""

import functools
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lienil.catalog import (
    build_abelian,
    build_dihedral,
    build_free_class2,
    build_quaternion,
)
from lienil.subgroups import (
    CapExceeded,
    IsoType,
    abelian_invariants,
    abelianization_invariants,
    center,
    closure,
    derived_subgroup,
    fingerprint,
    intersection,
    is_abelian,
    lower_central_series,
    normal_closure,
    power_series,
    power_subgroup,
    subgroup_product,
    trivial_subgroup,
    whole_group,
)
from lienil import subgroups
from lienil.dimension import lie_dimension_chain
from lienil.pcgroup import PcGroup, parse_presentation
from groups import fresh, group, names
from test_pcgroup import _calls, collected_commutator, collected_conjugate


def _order_counts(H):
    """Map element order -> count over the elements of H."""
    return Counter(H.group.element_order(x) for x in H.elements)


@pytest.fixture
def d16():
    return group("dihedral-16")


@pytest.fixture
def heis3():
    return group("heisenberg-3")


def test_closure_of_rotation_in_dihedral(d16):
    rotation = d16.generator(1)
    cyc = closure(d16, [rotation])
    assert cyc.order == 8
    full = closure(d16, d16.generators())
    assert full.order == 16
    assert cyc <= full


def _naive_closure(G, gens):
    """Right-multiply every element by every generator until stable."""
    elements = {G.identity}
    while True:
        grown = elements | {G.multiply(x, g) for x in elements for g in gens}
        if grown == elements:
            return elements
        elements = grown


# the builder groups whose closures are checked from generating
# sequences that are not pc generators
CLOSURE_GROUPS = st.sampled_from(names("nonpc", "builder")).map(group)


@st.composite
def group_and_generators(draw):
    G = draw(CLOSURE_GROUPS)
    element = st.lists(st.integers(0, G.p - 1), min_size=G.ngens,
                       max_size=G.ngens).map(G.element)
    return G, draw(st.lists(element, max_size=5))


def _bfs_closure(G, gens, cap):
    """The breadth-first closure that the sifting closure replaced, kept as
    the reference: the coset S*g of each kept generator, then every new
    element times every kept generator, |H| * len(generators) products.
    Returns the element set and the kept generators."""
    kept = []
    seen = {G.identity}
    for g in gens:
        if g in seen:
            continue
        if len(seen) * G.p > cap:
            raise CapExceeded(f"subgroup larger than cap {cap}")
        kept.append(g)
        frontier = [G.multiply(x, g) for x in seen]
        seen.update(frontier)
        while frontier:
            new = []
            for x in frontier:
                for h in kept:
                    y = G.multiply(x, h)
                    if y not in seen:
                        seen.add(y)
                        if len(seen) > cap:
                            raise CapExceeded(f"subgroup larger than cap {cap}")
                        new.append(y)
            frontier = new
    return frozenset(seen), tuple(kept)


def _capped(build):
    try:
        return build()
    except CapExceeded as exc:
        return str(exc)


def _assert_closure_matches_bfs(G, gens):
    """Same elements, the same kept generators in the same order, and
    CapExceeded exactly when |H| > ENUMERATION_CAP, with the same message;
    the sifting closure refuses on enumeration, not when it is built.  The
    cap stays positive: a cap of 0 would refuse even the trivial group."""
    gens = list(gens)
    H = closure(G, gens)
    assert (H.elements, H.generators) == _bfs_closure(G, gens, 2**20)
    for cap in (max(H.order - 1, 1), H.order):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subgroups, "ENUMERATION_CAP", cap)
            assert (_capped(lambda: closure(G, gens).elements)
                    == _capped(lambda: _bfs_closure(G, gens, cap)[0]))
            if cap < H.order:
                capped = closure(G, gens)
                assert capped == H
                with pytest.raises(CapExceeded, match=f"^subgroup larger than cap {cap}$"):
                    capped.elements


@settings(max_examples=60, deadline=None)
@given(drawn=group_and_generators())
def test_closure_matches_naive_fixpoint_with_few_generators(drawn):
    G, gens = drawn
    H = closure(G, gens)
    assert H.elements == _naive_closure(G, gens)
    assert G.p ** len(H.generators) <= H.order  # at most log_p |H| generators
    assert set(H.generators) <= set(gens)
    assert closure(G, H.generators) == H
    _assert_closure_matches_bfs(G, gens)


@st.composite
def two_closures(draw):
    G = draw(CLOSURE_GROUPS)
    element = st.lists(st.integers(0, G.p - 1), min_size=G.ngens,
                       max_size=G.ngens).map(G.element)
    H, K = (closure(G, draw(st.lists(element, max_size=4))) for _ in range(2))
    return G, H, K


@settings(max_examples=60, deadline=None)
@given(drawn=two_closures())
def test_canonical_sequence_decides_equality_inclusion_and_membership(drawn):
    G, H, K = drawn
    assert (H == K) == (H.elements == K.elements)
    if H == K:
        assert hash(H) == hash(K)
    # the same subgroup from another generating sequence has the same entries
    same = closure(G, sorted(H.elements, reverse=True))
    assert same == H and hash(same) == hash(H) and same.entries == H.entries
    assert (H <= K) == (H.elements <= K.elements)
    for x in whole_group(G).elements:
        assert (x in H) == (x in H.elements)
    depths = [next(i for i, e in enumerate(t) if e) for t in H.entries]
    for d, t in zip(depths, H.entries):
        assert [t[c] for c in depths] == [int(c == d) for c in depths]
    if K <= H:
        assert subgroup_product(H, K) is H


def test_whole_group_entries_are_the_pc_generators():
    for name in names():
        G = group(name)
        W = whole_group(G)
        assert W == closure(G, G.generators())
        assert W.entries == tuple(G.generators())


def _word(G, *letters):
    """The product g_i^e ... of the given (i, e) pairs, left to right."""
    x = G.identity
    for i, e in letters:
        x = G.multiply(x, G.power(G.generator(i), e))
    return x


# Generating sequences that are not pc generators, so the sequence has
# entries with a non-zero tail: diagonals, products of letters.  Each
# entry is a word, its (generator index, exponent) letters left to right.
NON_PC_WORDS = {
    "dihedral-16": [[((0, 1), (1, 1))], [((1, 1), (2, 1))]],
    "heisenberg-5": [[((0, 1), (1, 1)), ((2, 1),)], [((0, 1), (1, 2)), ((1, 1), (2, 1))]],
    "free-class2-rank3-p3": [[((0, 1), (1, 1)), ((1, 1), (2, 1))]],
    "s3125_41": [[((0, 1), (1, 3)), ((1, 1), (4, 1))]],
}


def _non_pc_sequence(name, k):
    G = group(name)
    return G, [_word(G, *word) for word in NON_PC_WORDS[name][k]]


@pytest.mark.parametrize("name", names("nonpc"))
def test_closure_matches_breadth_first_reference_on_non_pc_sequences(name):
    # the words above, and each subgroup's elements in both orders
    G = group(name)
    for k in range(len(NON_PC_WORDS.get(name, ()))):
        _assert_closure_matches_bfs(*_non_pc_sequence(name, k))
    _assert_closure_matches_bfs(G, G.generators())
    W = whole_group(G)
    der, zc = derived_subgroup(W), center(W)
    for H in (W, der, zc, power_subgroup(W, G.p), power_subgroup(der, G.p),
              power_subgroup(W, G.p**2)):
        _assert_closure_matches_bfs(G, H.generators)
        _assert_closure_matches_bfs(G, sorted(H.elements))
        _assert_closure_matches_bfs(G, sorted(H.elements, reverse=True))


@pytest.fixture
def multiply_calls(monkeypatch):
    calls = []
    multiply = PcGroup.multiply

    def counted(self, x, y):
        calls.append(y)
        return multiply(self, x, y)

    monkeypatch.setattr(PcGroup, "multiply", counted)
    return calls


def test_whole_group_enumeration_makes_no_products(multiply_calls):
    # every entry of the sequence is a pc generator: elements are spliced
    G = group("s3125_41")
    multiply_calls.clear()
    assert len(whole_group(G).elements) == 3125
    assert multiply_calls == []


def test_derived_subgroup_of_free_class2_closes_without_products(multiply_calls):
    G = build_free_class2(4, 5).group
    der = derived_subgroup(whole_group(G))
    multiply_calls.clear()
    assert closure(G, der.generators) == der
    assert der.order == 5**6 and multiply_calls == []


@pytest.mark.parametrize("name, k", [("heisenberg-5", 1), ("s3125_41", 0)])
def test_non_pc_closure_makes_one_product_per_element_plus_sifting(name, k, multiply_calls):
    # breadth-first closure makes |H| * len(generators) products here
    G, gens = _non_pc_sequence(name, k)
    multiply_calls.clear()
    H = closure(G, gens)
    k = round(math.log(H.order, G.p))
    assert len(H.generators) == 2
    assert len(multiply_calls) <= H.order + G.p * k * k


@pytest.mark.parametrize("stem", names("shipped"))
def test_derived_constructions_keep_a_short_generating_sequence(stem):
    G = group(stem)
    W = whole_group(G)
    der, zc = derived_subgroup(W), center(W)
    built = [zc, power_subgroup(W, G.p), power_subgroup(der, G.p),
             intersection(der, zc, W), intersection(der, power_subgroup(W, G.p), W),
             intersection(power_subgroup(W, G.p), zc, W)]
    for H in built:
        assert G.p ** len(H.generators) <= H.order, H
        assert closure(G, H.generators) == H


@functools.lru_cache(maxsize=None)
def _regular_action(G):
    """Index of every element of G, and for each pc generator g_i the
    (p, |G|) array whose row e maps the index of x to that of x * g_i^e."""
    elements = sorted(whole_group(G).elements)
    index = {x: k for k, x in enumerate(elements)}
    tables = []
    for g in G.generators():
        step = np.array([index[G.multiply(x, g)] for x in elements])
        rows = [np.arange(len(elements))]
        for _ in range(G.p - 1):
            rows.append(step[rows[-1]])
        tables.append(np.array(rows))
    return index, tables


def _naive_center(H):
    """The x in H that commute with every element of H: all |H|^2 pairs are
    compared, each product x * y read off the regular action along y's
    normal form g_1^e_1 ... g_n^e_n (collecting them takes about 20 s at
    order 3125)."""
    index, tables = _regular_action(H.group)
    members = sorted(H.elements)
    exponents = np.array(members)
    positions = np.array([index[y] for y in members])
    central = set()
    for x in members:
        xy = np.full(len(members), index[x])
        yx = positions
        for i, table in enumerate(tables):
            xy = table[exponents[:, i], xy]
            yx = table[x[i]][yx]
        if np.array_equal(xy, yx):
            central.add(x)
    return central


def _marked_coset_representatives(H):
    """One element per non-central coset of Z(H), found by marking: the
    least uncovered element of H \\ Z(H), then its whole coset, and so on."""
    G = H.group
    Z = center(H)
    covered = set()
    reps = []
    for x in sorted(H.elements - Z.elements):
        if x not in covered:
            reps.append(x)
            covered.update(G.multiply(x, z) for z in Z.elements)
    return reps


def _cosets(H, reps):
    G = H.group
    Z = center(H).elements
    return {frozenset(G.multiply(x, z) for z in Z) for x in reps}


def _assert_powers_match_element_scan(H):
    """The slow references: the q-th power of every element of H, the
    largest element order, the centre by commuting every pair, the centre
    transversal by marking cosets, and for abelian H the element-order
    counts #{x : x^q = 1} = prod_i min(f_i, q) over the invariant factors
    f_i, for each element order q.  closure itself is checked against a
    naive fixpoint above.  power_subgroup and exponent are read off one
    memoized power_series, checked term by term here."""
    G = H.group
    p = G.p
    fresh = closure(G, H.generators)
    for q in (1, p + 1):
        assert power_subgroup(fresh, q) is fresh
    assert fresh._power_series is None
    series = power_series(H)
    assert [S.is_trivial() for S in series] == [False] * (len(series) - 1) + [True]
    for j, S in enumerate(series):
        assert power_subgroup(H, p**j) is S, j
    for j in (len(series), len(series) + 2):
        assert power_subgroup(H, p**j) is series[-1], j
    assert H.exponent() == p ** (len(series) - 1)
    reps = subgroups._centre_transversal(H)
    marked = _marked_coset_representatives(H)
    assert len(reps) == len(marked) == H.order // center(H).order - 1
    assert _cosets(H, reps) == _cosets(H, marked)
    for q in (p, p**2, p**3, 2 * p, 6):
        powers = sorted({G.power(x, q) for x in H.elements})
        assert power_subgroup(H, q).elements == closure(G, powers).elements, q
    assert H.exponent() == max(G.element_order(x) for x in H.elements)
    assert center(H).elements == _naive_center(H)
    assert (center(H) is H) == is_abelian(H)
    if is_abelian(H):
        factors = abelian_invariants(H)
        orders = Counter(G.element_order(x) for x in H.elements)
        for q in sorted(orders):
            killed = sum(n for order, n in orders.items() if order <= q)
            assert killed == math.prod(min(f, q) for f in factors), q


@pytest.mark.parametrize("name", names("scan"))
def test_power_subgroups_of_whole_groups_match_element_scan(name):
    _assert_powers_match_element_scan(whole_group(group(name)))


@st.composite
def random_subgroup(draw):
    # s3125_41 is scanned whole by the test above; drawn here, a few large
    # subgroups of it cost seconds
    G = group(draw(st.sampled_from(names("scan", most=729))))
    element = st.lists(st.integers(0, G.p - 1), min_size=G.ngens,
                       max_size=G.ngens).map(G.element)
    return closure(G, draw(st.lists(element, min_size=1, max_size=3)))


@settings(max_examples=40, deadline=None)
@given(H=random_subgroup())
def test_power_subgroups_of_random_subgroups_match_element_scan(H):
    _assert_powers_match_element_scan(H)


def test_power_subgroups_are_memoized(d16, heis3):
    W = whole_group(d16)
    assert power_subgroup(W, 2) is power_subgroup(W, 2)
    assert power_subgroup(W, 4) is not power_subgroup(W, 2)
    # only the p-part of q matters: x -> x^3 is a bijection of a 2-group
    assert power_subgroup(W, 6) is power_subgroup(W, 2)
    # q coprime to p: the q-th power map is a bijection, so H itself
    assert power_subgroup(W, 3) is W
    assert power_subgroup(W, 1) is W
    H = whole_group(heis3)
    assert power_subgroup(H, 2) is H
    assert power_subgroup(H, 3) is power_subgroup(H, 3)


def _assert_series_match_a_rebuilt_group(subgroups_of_G):
    """Each subgroup's power series, read through the memo its group
    keeps by canonical entries, equals the series computed afresh for the
    same subgroup of a separately built group, whose memo is emptied
    before each one."""
    G = subgroups_of_G[0].group
    rebuilt = PcGroup(G.p, G.ngens, dict(enumerate(G._powers)), G._comms)
    for K in subgroups_of_G:
        rebuilt.power_series_memo.clear()
        fresh = power_series(closure(rebuilt, K.generators))
        assert [S.entries for S in power_series(K)] == [S.entries for S in fresh], K


def _assert_memo_matches_a_rebuilt_group(G):
    """After the Lie dimension chain and the fingerprint of G, every
    memoized series, and that of every lower central term (which reads
    the memo), equals a fresh computation."""
    W = whole_group(G)
    lie_dimension_chain(W)
    fingerprint(W)
    for entries, series in G.power_series_memo.items():
        assert series[0].entries == entries and series[0]._power_series is series
    _assert_series_match_a_rebuilt_group(
        [series[0] for series in G.power_series_memo.values()]
        + lower_central_series(W))


@settings(max_examples=40, deadline=None)
@given(H=random_subgroup())
def test_memoized_power_series_of_random_subgroups_match_a_rebuilt_group(H):
    fingerprint(H)
    _assert_series_match_a_rebuilt_group(
        [*power_series(H), center(H), derived_subgroup(H)])


def test_closure_respects_cap(d16, monkeypatch):
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 7)
    H = closure(d16, d16.generators())
    assert H.order == 16
    with pytest.raises(CapExceeded):
        H.elements


def test_whole_group_defers_enumeration(d16, multiply_calls, monkeypatch):
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 15)
    W = whole_group(d16)
    multiply_calls.clear()
    assert W.order == 16
    with pytest.raises(CapExceeded, match="^subgroup larger than cap 15$"):
        W.elements
    assert multiply_calls == []
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 16)
    assert len(whole_group(d16).elements) == 16


def test_lower_central_series_dihedral(d16):
    W = whole_group(d16)
    orders = [s.order for s in lower_central_series(W)]
    assert orders == [16, 4, 2, 1]
    assert lower_central_series(W) is lower_central_series(W)


def test_derived_subgroup_enumeration_is_refused_above_the_cap(monkeypatch):
    # |G'| = 64 for the dihedral group of order 256
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 8)
    W = whole_group(build_dihedral(256).group)
    der = derived_subgroup(W)
    assert der.order == 64
    with pytest.raises(CapExceeded, match="^subgroup larger than cap 8$"):
        der.elements


def test_abelian_power_chain_enumerates_nothing(monkeypatch):
    # |W| = 2187 above the cap, every power subgroup at most 243
    calls = []
    elements = subgroups._PcSequence.elements

    def counted(self):
        calls.append(self)
        return elements(self)

    monkeypatch.setattr(subgroups._PcSequence, "elements", counted)
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 243)
    W = whole_group(build_abelian(3, [729, 3]).group)
    assert W.exponent() == 729
    assert str(fingerprint(W)) == "C729xC3"
    assert calls == []


def test_lower_central_series_heisenberg(heis3):
    orders = [s.order for s in lower_central_series(whole_group(heis3))]
    assert orders == [27, 3, 1]


def test_derived_and_center_of_dihedral(d16):
    W = whole_group(d16)
    der = derived_subgroup(W)
    assert der.order == 4
    assert abelian_invariants(der) == [4]
    assert center(W).order == 2
    assert abelianization_invariants(W) == [2, 2]


def test_center_of_quaternion_is_the_unique_involution():
    q8 = build_quaternion(8).group
    W = whole_group(q8)
    z = center(W)
    assert z.order == 2
    assert _order_counts(W) == {1: 1, 2: 1, 4: 6}


def test_power_subgroup_squares_and_cubes(d16, heis3):
    W = whole_group(d16)
    squares = power_subgroup(W, 2)
    assert squares.order == 4
    assert abelian_invariants(squares) == [4]
    H = whole_group(heis3)
    assert power_subgroup(H, 3).is_trivial()
    # exponent coprime to p: cube map is onto a 2-group
    assert power_subgroup(W, 3).order == 16


def test_normal_closure_of_a_reflection(d16):
    reflection = d16.generator(0)
    nc = normal_closure(whole_group(d16), [reflection])
    assert nc.order == 8
    plain = closure(d16, [reflection])
    assert plain.order == 2


def test_product_and_intersection_identities(d16):
    W = whole_group(d16)
    der = derived_subgroup(W)
    zc = center(W)
    prod = subgroup_product(der, zc)
    assert prod.order == 4  # the centre sits inside the derived subgroup
    assert intersection(der, zc, W) == zc
    triv = trivial_subgroup(d16)
    assert subgroup_product(der, triv) == der
    assert intersection(der, triv, W) == triv


def test_intersection_refuses_a_subgroup_that_is_not_normal(d16):
    # <g1> is normalised by g1 but not by g2, the other kept generator
    W = whole_group(d16)
    assert W.generators == d16.generators()[:2]
    reflection = closure(d16, [d16.generator(0)])
    with pytest.raises(ValueError, match="normal"):
        intersection(W, reflection, W)
    assert intersection(reflection, W, W) == reflection


def test_centre_of_a_subgroup_above_its_last_lower_central_term():
    der = derived_subgroup(whole_group(group("nonabelian-derived-128")))
    last = derived_subgroup(der)
    assert (der.order, last.order) == (16, 2)
    assert derived_subgroup(last).is_trivial()  # der has class 2
    assert last <= center(der) and center(der).order == 4
    assert center(der).elements == _naive_center(der)


def test_non_abelian_iso_type_prints_its_fingerprint():
    # G' is D8 x C2 (Q8 x C2 has the same invariants, but G' is generated
    # by the involutions g4..g7): exponent 4, centre C2xC2, derived C2,
    # G'/G'' = C2^3, and (G')^2 of order 2
    iso = fingerprint(derived_subgroup(whole_group(group("nonabelian-derived-128"))))
    assert iso.kind == "fingerprint"
    assert str(iso) == "fp[o=16,e=4,z=4:C2xC2,d=2:C2,ab=C2xC2xC2,pow=2.1]"


@pytest.mark.parametrize("stem", names("shipped"))
def test_intersections_of_normal_subgroups_match_element_sets(stem):
    G = group(stem)
    W = whole_group(G)
    normal = [*lower_central_series(W)[1:], center(W),
              power_subgroup(W, G.p), power_subgroup(W, G.p**2)]
    for H in normal:
        for K in normal:
            assert intersection(H, K, W).elements == H.elements & K.elements


@settings(max_examples=40, deadline=None)
@given(drawn=two_closures())
def test_intersection_with_a_normal_closure_matches_element_sets(drawn):
    G, H, K = drawn
    W = whole_group(G)
    N = normal_closure(W, K.generators)
    assert intersection(H, N, W).elements == H.elements & N.elements
    if N != K:
        assert not _reference_is_normal(K)
        with pytest.raises(ValueError, match="normal"):
            intersection(H, K, W)
    else:
        assert _reference_is_normal(K)


abelian_factor_lists = st.lists(
    st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=4
).map(lambda exps: [e + 1 for e in exps])


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from((2, 3)), exps=abelian_factor_lists)
def test_abelian_invariants_round_trip(p, exps):
    factors = sorted((p**e for e in exps), reverse=True)
    if max(factors) ** len(factors) > 2**12:
        factors = factors[:2]
    entry = build_abelian(p, factors)
    W = whole_group(entry.group)
    assert is_abelian(W)
    assert abelian_invariants(W) == sorted(factors, reverse=True)


def test_abelian_invariants_rejects_nonabelian(heis3):
    W = whole_group(heis3)
    with pytest.raises(ValueError):
        abelian_invariants(W)


def test_fingerprint_on_order_8_groups():
    kinds = {
        "C8": build_abelian(2, [8]),
        "C4xC2": build_abelian(2, [4, 2]),
        "C2^3": build_abelian(2, [2, 2, 2]),
        "D8": build_dihedral(8),
        "Q8": build_quaternion(8),
    }
    prints = {name: fingerprint(whole_group(e.group))
              for name, e in kinds.items()}
    assert str(prints["C8"]) == "C8"
    assert str(prints["C4xC2"]) == "C4xC2"
    assert str(prints["C2^3"]) == "C2xC2xC2"
    assert len({str(prints[n]) for n in ("C8", "C4xC2", "C2^3")}) == 3
    # The fingerprint is deliberately not a full isomorphism test: the two
    # non-abelian groups of order 8 collide on every invariant it records.
    # Sharper invariants (e.g. the count of elements by order) tell them
    # apart.
    assert prints["D8"].kind == prints["Q8"].kind == "fingerprint"
    assert prints["D8"] == prints["Q8"]
    h_d8 = _order_counts(whole_group(kinds["D8"].group))
    h_q8 = _order_counts(whole_group(kinds["Q8"].group))
    assert h_d8 == {1: 1, 2: 5, 4: 2}
    assert h_d8 != h_q8


def test_fingerprint_is_presentation_independent():
    # The same abstract group through two different pc chains.
    a = build_abelian(2, [4, 2]).group
    b = parse_presentation("p 2\ngens 3\npow 1 : 1\npow 2 : g3^1\npow 3 : 1\n")
    fa = fingerprint(whole_group(a))
    fb = fingerprint(whole_group(b))
    assert fa == fb == IsoType("abelian", (4, 2))


def test_free_class2_structure():
    G = build_free_class2(3, 3).group
    W = whole_group(G)
    der = derived_subgroup(W)
    assert der.order == 27
    assert abelian_invariants(der) == [3, 3, 3]
    series = lower_central_series(whole_group(G))
    assert [s.order for s in series] == [3**6, 27, 1]


def test_series_works_above_enumeration_cap(monkeypatch):
    # order 2^15 with a tight cap: only the subgroups themselves enumerate
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 2**11)
    G = build_free_class2(5, 2).group
    series = lower_central_series(whole_group(G))
    assert [s.order for s in series] == [2**15, 2**10, 1]
    assert abelian_invariants(series[1]) == [2] * 10


def test_exponent_values():
    assert whole_group(group("heisenberg-5")).exponent() == 5
    assert whole_group(group("dihedral-16")).exponent() == 8


def _reference_normal_closure(G, gens):
    """The normal closure by every pc generator, the slow reference: close
    the generators and all their conjugates until nothing is added."""
    sub = closure(G, gens)
    while True:
        grown = closure(G, [*sub.generators,
                            *(collected_conjugate(G, x, g) for x in sub.generators
                              for g in G.generators())])
        if grown == sub:
            return sub
        sub = grown


def _reference_is_normal(K):
    """Whether K is normalised by every pc generator, the slow reference."""
    G = K.group
    return all(collected_conjugate(G, k, g) in K
               for k in K.generators for g in G.generators())


def _reference_lower_central_series(G):
    """gamma_1, ..., 1, each term the normal closure by every pc generator
    of the collected brackets of the last term's generators with every
    pc generator; gamma_1 is taken from all n pc generators."""
    series, current = [whole_group(G)], G.generators()
    while not series[-1].is_trivial():
        term = _reference_normal_closure(
            G, [collected_commutator(G, x, g) for x in current for g in G.generators()])
        series.append(term)
        current = term.generators
    return series


def _assert_series_matches_reference(G):
    series = lower_central_series(whole_group(G))
    assert ([S.entries for S in series]
            == [S.entries for S in _reference_lower_central_series(G)])


@pytest.mark.parametrize("name", names())
def test_lower_central_series_matches_the_reference(name):
    _assert_series_matches_reference(group(name))


@pytest.mark.parametrize("name", names())
def test_memoized_power_series_match_a_rebuilt_group(name):
    _assert_memo_matches_a_rebuilt_group(group(name))


@settings(max_examples=40, deadline=None)
@given(drawn=group_and_generators())
def test_normal_closure_and_series_match_every_generator_reference(drawn):
    G, gens = drawn
    assert (normal_closure(whole_group(G), gens).entries
            == _reference_normal_closure(G, gens).entries)
    _assert_series_matches_reference(G)


@pytest.fixture
def bracket_calls(monkeypatch):
    """Calls of PcGroup.commutator and .conjugate, and of the collected
    references that stand for them in the slow reference series; and the
    collector calls, under "_mul" and "_collect", with those made inside
    PcGroup.commutator counted again under "_mul in commutator" and
    "_collect in commutator"."""
    calls = Counter()
    module = sys.modules[__name__]
    inside = []  # one flag per open bracket call: is it PcGroup.commutator?
    for owner, attr, name in ((PcGroup, "commutator", "commutator"),
                              (PcGroup, "conjugate", "conjugate"),
                              (module, "collected_commutator", "commutator"),
                              (module, "collected_conjugate", "conjugate")):
        def counted(G, x, y, _name=name, _f=getattr(owner, attr),
                    _pc=owner is PcGroup and attr == "commutator"):
            calls[_name] += 1
            inside.append(_pc)
            try:
                return _f(G, x, y)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, attr, counted)
    for name in ("_mul", "_collect"):
        def collected(G, *args, _name=name, _f=getattr(PcGroup, name)):
            calls[_name] += 1
            if any(inside):
                calls[f"{_name} in commutator"] += 1
            return _f(G, *args)
        monkeypatch.setattr(PcGroup, name, collected)
    return calls


@pytest.mark.parametrize("name, work", [
    # 2 of 10 pc generators kept; the brackets of the terms' non-pc
    # generators with them are collected
    ("dihedral-1024", {"collector": (437, 545), "conjugate": 16}),
    # 5 of 15 kept; every bracket is a relation word, the 50 conjugations
    # are gamma_2's 10 generators by the 5 kept ones
    ("free-class2-rank5-p2", {"collector": (0, 0), "conjugate": 50}),
])
def test_lower_central_series_bracket_work_is_pinned(name, work, bracket_calls):
    """(_mul, _collect) calls and conjugations of the series, on a group
    built afresh, so that no earlier test has filled its collector's
    memos; both fewer than the every-pc-generator reference makes."""
    G = fresh(name)
    W = whole_group(G)
    bracket_calls.clear()
    lower_central_series(W)
    fast = bracket_calls.copy()
    assert (fast["_mul"], fast["_collect"]) == work["collector"]
    assert fast["conjugate"] == work["conjugate"]
    bracket_calls.clear()
    _reference_lower_central_series(G)
    assert fast["_mul"] < bracket_calls["_mul"] and fast["_collect"] < bracket_calls["_collect"]
    assert fast["conjugate"] < bracket_calls["conjugate"]


@pytest.mark.parametrize("name", names("builder"))
def test_derived_subgroup_of_the_whole_group_collects_no_bracket(name, bracket_calls):
    """W's kept generators are pc generators, so every bracket of
    derived_subgroup(W) and is_abelian(W) is read off the relations, or
    skipped on commuting supports: PcGroup.commutator collects nothing."""
    W = whole_group(group(name))
    bracket_calls.clear()
    derived_subgroup(W)
    is_abelian(W)
    assert bracket_calls["commutator"] > 0
    assert bracket_calls["_mul in commutator"] == bracket_calls["_collect in commutator"] == 0


@pytest.mark.parametrize("name", names())
def test_brackets_read_off_the_relations_equal_collected_ones(name, monkeypatch):
    """On every ordered pair of pc generators g_j, g_i, PcGroup.commutator
    equals the collected bracket, and makes no collector call for j >= i,
    where it is the relation word or 1; PcGroup.power(g_i, p) equals the
    collected p-th power with no collector call."""
    G = group(name)
    gens = G.generators()
    for j, x in enumerate(gens):
        for i, y in enumerate(gens):
            got = []
            work = _calls(monkeypatch, lambda: got.append(G.commutator(x, y)))
            assert got == [collected_commutator(G, x, y)]
            if j >= i:
                assert work == (0, 0)
        got = []
        assert _calls(monkeypatch, lambda: got.append(G.power(x, G.p))) == (0, 0)
        collected = G.identity
        for _ in range(G.p):
            collected = G.multiply(collected, x)
        assert got == [collected]
    collected = [c for a, y in enumerate(gens) for x in gens[a + 1:]
                 if (c := collected_commutator(G, x, y)) != G.identity]
    assert list(subgroups._generator_commutators(G, gens)) == collected
