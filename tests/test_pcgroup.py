"""Polycyclic presentations: collection, parsing, and consistency checking.

The collection algorithm is cross-checked against 3x3 unitriangular
matrices over GF(p), an independent concrete model of the extraspecial
group of order p^3 and exponent p.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lienil import pcgroup
from lienil.pcgroup import (
    PcGroup,
    PresentationError,
    PresentationMeta,
    format_word,
    parse_presentation,
    parse_presentation_with_meta,
)


def heisenberg(p):
    return PcGroup(p, 3, powers={}, comms={(1, 0): ((2, 1),)})


def dihedral8():
    return PcGroup(2, 3, powers={1: ((2, 1),)}, comms={(1, 0): ((2, 1),)})


def unitriangular(p, a, b, c):
    """[[1,a,c],[0,1,b],[0,0,1]] over GF(p)."""
    return np.array([[1, a, c], [0, 1, b], [0, 0, 1]], dtype=np.int64) % p


@pytest.mark.parametrize("p", [3, 5])
def test_collection_matches_matrix_model(p):
    """phi(e1,e2,e3) = A^e1 B^e2 C^e3, with A and B the two elementary
    unitriangular matrices and C = [B, A], is a bijection onto the 3x3
    unitriangular group, and collection multiplies exactly as matrices do."""
    G = heisenberg(p)
    A = unitriangular(p, 1, 0, 0)
    B = unitriangular(p, 0, 1, 0)

    def minv(M):
        a, b, c = M[0, 1], M[1, 2], M[0, 2]
        return unitriangular(p, -a, -b, a * b - c)

    C = minv(B) @ minv(A) @ B @ A % p

    def phi(x):
        M = np.eye(3, dtype=np.int64)
        for base, e in zip((A, B, C), x):
            for _ in range(e):
                M = M @ base % p
        return M

    def key(M):
        return (int(M[0, 1]), int(M[1, 2]), int(M[0, 2]))

    elements = list(itertools.product(range(p), repeat=3))
    assert len({key(phi(x)) for x in elements}) == p**3  # phi injective

    pairs = (itertools.product(elements, repeat=2) if p == 3
             else zip(elements[::3], elements[::7]))
    for x, y in pairs:
        prod = G.multiply(G.element(x), G.element(y))
        assert key(phi(prod)) == key(phi(x) @ phi(y) % p)


@pytest.mark.parametrize("make", [heisenberg, dihedral8],
                         ids=["heisenberg3", "dihedral8"])
def test_associativity_exhaustive(make):
    G = make(3) if make is heisenberg else make()
    elements = list(itertools.product(range(G.p), repeat=G.ngens))
    for x in elements:
        for y in elements:
            xy = G.multiply(x, y)
            for z in elements:
                assert G.multiply(xy, z) == G.multiply(x, G.multiply(y, z))


@settings(max_examples=200, deadline=None)
@given(exps=st.lists(st.integers(0, 4), min_size=15, max_size=15))
def test_associativity_randomized_order_3125(exps):
    G = PcGroup(5, 5, powers={0: ((3, 1),), 1: ((4, 1),)},
                comms={(1, 0): ((2, 1),)})
    x = G.element(exps[0:5])
    y = G.element(exps[5:10])
    z = G.element(exps[10:15])
    assert G.multiply(G.multiply(x, y), z) == G.multiply(x, G.multiply(y, z))


def test_normal_forms_are_exactly_the_exponent_tuples():
    G = heisenberg(3)
    seen = set()
    for x in itertools.product(range(3), repeat=3):
        for y in itertools.product(range(3), repeat=3):
            seen.add(G.multiply(x, y))
    assert len(seen) == 27
    assert all(all(0 <= e < 3 for e in x) for x in seen)


@settings(max_examples=100, deadline=None)
@given(exps=st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_inverse_cancels(exps):
    G = heisenberg(3)
    x = G.element(exps)
    assert G.multiply(x, G.inverse(x)) == G.identity
    assert G.multiply(G.inverse(x), x) == G.identity


@settings(max_examples=100, deadline=None)
@given(exps=st.lists(st.integers(0, 4), min_size=3, max_size=3),
       m=st.integers(-6, 12))
def test_power_matches_repeated_multiplication(exps, m):
    G = heisenberg(5)
    x = G.element(exps)
    expected = G.identity
    step = x if m >= 0 else G.inverse(x)
    for _ in range(abs(m)):
        expected = G.multiply(expected, step)
    assert G.power(x, m) == expected


def test_element_orders_in_dihedral_16():
    G = PcGroup(2, 4, powers={1: ((2, 1),), 2: ((3, 1),)},
                comms={(1, 0): ((2, 1), (3, 1)), (2, 0): ((3, 1),)})
    rotation = G.generator(1)
    reflection = G.generator(0)
    assert G.element_order(rotation) == 8
    assert G.element_order(reflection) == 2
    assert G.element_order(G.identity) == 1


def test_commutator_and_conjugate_are_consistent():
    G = heisenberg(3)
    a, b = G.generator(0), G.generator(1)
    comm = G.commutator(b, a)
    assert comm == G.generator(2)
    # x^g = x * [x, g]
    assert G.conjugate(b, a) == G.multiply(b, G.commutator(b, a))


def _letter_inverse(G, x):
    # clear x's exponents left to right, then collect the letters used
    # once more from the identity
    cur, letters = x, []
    for k in range(G.ngens):
        if cur[k]:
            chunk = (k,) * (G.p - cur[k])
            cur = G._mul_letters(cur, chunk)
            letters.extend(chunk)
    return G._mul_letters(G.identity, letters)


def _collector_cases():
    from lienil.catalog import (DATA_DIR, build_dihedral, build_free_class2,
                                build_heisenberg, build_quaternion,
                                import_presentation)
    groups = [import_presentation(f).group
              for f in sorted(DATA_DIR.glob("*.pres"))]
    return groups + [build_dihedral(64).group, build_quaternion(32).group,
                     build_heisenberg(7).group, build_free_class2(4, 3).group,
                     build_free_class2(3, 5).group]


def test_inverse_and_commutator_match_the_letter_formulas():
    # reference: x^-1 collected from its letters, [x, y] = x^-1 y^-1 x y
    rng = np.random.default_rng(3)
    groups = _collector_cases()
    assert len(groups) == 35
    for G in groups:
        for _ in range(30):
            x, y = (G.element(rng.integers(0, G.p, size=G.ngens)) for _ in "xy")
            assert G.inverse(x) == _letter_inverse(G, x)
            want = G.multiply(G.multiply(G.multiply(_letter_inverse(G, x),
                                                    _letter_inverse(G, y)), x), y)
            assert G.commutator(x, y) == want


def test_inconsistent_presentation_is_rejected():
    # g1^2 = g2 makes g2 a power of g1, contradicting [g2, g1] = g3 != 1.
    with pytest.raises(PresentationError, match="inconsistent"):
        PcGroup(2, 3, powers={0: ((1, 1),), 1: ((2, 1),)},
                comms={(1, 0): ((2, 1),)})


def test_primes_beyond_the_collector_step_limit(monkeypatch):
    # g^p by squaring ends in a product of 2^7 = 128 letters for p = 197,
    # one step each; above 2 * limit such a product is certain
    monkeypatch.setattr(pcgroup, "_COLLECTION_STEP_LIMIT", 100)
    with pytest.raises(PresentationError, match="^p = 211 is too large .* 100 steps$"):
        PcGroup(211, 1, powers={}, comms={})
    with pytest.raises(PresentationError,
                       match="^collection exceeded 100 steps: the presentation is "
                             "inconsistent, or its exponents are too large"):
        PcGroup(197, 1, powers={}, comms={})


def test_relation_word_index_discipline():
    with pytest.raises(PresentationError, match="earlier-or-equal"):
        PcGroup(3, 3, powers={1: ((0, 1),)}, comms={})
    with pytest.raises(PresentationError, match="earlier-or-equal"):
        PcGroup(3, 3, powers={}, comms={(1, 0): ((1, 1),)})
    with pytest.raises(PresentationError, match="out of order"):
        PcGroup(3, 3, powers={}, comms={(0, 1): ((2, 1),)})
    with pytest.raises(PresentationError, match="exponent"):
        PcGroup(3, 3, powers={0: ((2, 3),)}, comms={})
    with pytest.raises(PresentationError, match="increasing"):
        PcGroup(3, 4, powers={0: ((3, 1), (2, 1))}, comms={})


TEXT = """\
# extraspecial, order 27
p 3
gens 3
id 27 3
pow 1 : 1
pow 2 : 1
pow 3 : 1
comm 2 1 : g3^1
expect zeta C3
"""


def test_parse_round_trip():
    G, meta = parse_presentation_with_meta(TEXT)
    assert (G.p, G.ngens, G.order) == (3, 3, 27)
    assert meta.small_group_id == (27, 3)
    assert meta.expect == {"zeta": "C3"}
    rendered = G.to_text(meta=meta)
    G2, meta2 = parse_presentation_with_meta(rendered)
    assert G2.to_text(meta=meta2) == rendered
    for x in itertools.product(range(3), repeat=3):
        assert G.multiply(x, G.generator(0)) == G2.multiply(x, G2.generator(0))


def test_parse_rejects_malformed_input():
    bad_cases = [
        ("gens 2", "declare p"),
        ("p 4\ngens 2", "not a prime"),
        ("p 3\ngens 2\npow 1 : 1\npow 1 : 1", "duplicate pow"),
        ("p 3\ngens 2\npow 3 : 1", "out of range"),
        ("p 3\ngens 2\ncomm 1 2 : 1", "earlier-or-equal"),
        ("p 3\ngens 2\ncomm 2 1 : g2", "bad word factor"),
        ("p 3\ngens 2\nfrobnicate 1", "unknown directive"),
        ("p 3\ngens 2\nid 27 1", "declared id order"),
        ("p 3\ngens 2\nid x y", "line 3: id needs an integer"),
        ("p 3\npow 1 : 1\ngens 2", "pow before"),
    ]
    for text, needle in bad_cases:
        with pytest.raises(PresentationError, match=needle):
            parse_presentation(text)


def test_comments_and_blank_lines_are_ignored():
    text = "\n# leading comment\np 2\n\ngens 1   # trailing\npow 1 : 1\n"
    G = parse_presentation(text)
    assert G.order == 2


def test_format_word():
    assert format_word(()) == "1"
    assert format_word(((0, 1), (2, 2))) == "g1^1 g3^2"


def test_meta_serialization_orders_are_stable():
    meta = PresentationMeta(small_group_id=(8, 3), expect={"zeta": "C2"})
    G = dihedral8()
    text1 = G.to_text(meta=meta, header_comments=["dihedral of order 8"])
    text2 = G.to_text(meta=meta, header_comments=["dihedral of order 8"])
    assert text1 == text2
    assert text1.startswith("# dihedral of order 8\n")
