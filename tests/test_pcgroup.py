"""Polycyclic presentations: collection, parsing, and consistency checking.

The collector is cross-checked against 3x3 unitriangular matrices over
GF(p), an independent concrete model of the extraspecial group of order
p^3 and exponent p, and against a reference that collects one generator
letter at a time.
"""

import functools
import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lienil.pcgroup import (
    PcGroup,
    PresentationError,
    PresentationMeta,
    format_word,
    parse_presentation,
    parse_presentation_with_meta,
)
from groups import fresh, group, names


def heisenberg(p):
    return PcGroup(p, 3, powers={}, comms={(1, 0): ((2, 1),)})


def dihedral8():
    return PcGroup(2, 3, powers={1: ((2, 1),)}, comms={(1, 0): ((2, 1),)})


def unitriangular(p, a, b, c):
    """[[1,a,c],[0,1,b],[0,0,1]] over GF(p)."""
    return np.array([[1, a, c], [0, 1, b], [0, 0, 1]], dtype=np.int64) % p


@pytest.mark.parametrize("p", [3, 5, 1009, 10007])
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

    def mpow(M, e):
        out = np.eye(3, dtype=np.int64)
        while e:
            if e & 1:
                out = out @ M % p
            M = M @ M % p
            e >>= 1
        return out

    C = minv(B) @ minv(A) @ B @ A % p

    def phi(x):
        return mpow(A, x[0]) @ mpow(B, x[1]) @ mpow(C, x[2]) % p

    def key(M):
        return (int(M[0, 1]), int(M[1, 2]), int(M[0, 2]))

    if p == 3:
        elements = list(itertools.product(range(p), repeat=3))
        assert len({key(phi(x)) for x in elements}) == p**3  # phi injective
        pairs = itertools.product(elements, repeat=2)
    else:
        rng = np.random.default_rng(p)
        pairs = [tuple(tuple(int(v) for v in rng.integers(0, p, size=3)) for _ in "xy")
                 for _ in range(200)]
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


def collected_commutator(G, x, y):
    """[x, y] = x^-1 y^-1 x y formed by products, the reference for any
    bracket read off the presentation or skipped."""
    return G.multiply(G.multiply(G.inverse(x), G.inverse(y)), G.multiply(x, y))


def collected_conjugate(G, x, g):
    """x^g = g^-1 x g formed by products, the reference for any
    conjugate read off the presentation or skipped."""
    return G.multiply(G.multiply(G.inverse(g), x), g)


def test_commutator_and_conjugate_are_consistent():
    G = heisenberg(3)
    a, b = G.generator(0), G.generator(1)
    comm = G.commutator(b, a)
    assert comm == G.generator(2)
    # x^g = x * [x, g]
    assert G.conjugate(b, a) == G.multiply(b, G.commutator(b, a))


class LetterCollector:
    """The reference collector: x times one generator letter at a time,
    reading G's relation words.  A letter g_i that commutes with every
    occupied position above i is added at i (with g_i^p = w_i inserted
    before the tail on overflow); otherwise it moves one letter left past
    the highest occupied position j, using g_j g_i = g_i g_j w_ji."""

    def __init__(self, G):
        self.G = G
        self.power_letters = [self._letters(dict(w), G.ngens) for w in G._powers]
        self.comm_letters = {pair: self._letters(dict(w), G.ngens)
                             for pair, w in G._comms.items()}
        self.partners = [sorted(j for (j, i) in G._comms if i == k)
                         for k in range(G.ngens)]

    @staticmethod
    def _letters(exps, n):
        return [k for k in range(n) for _ in range(exps.get(k, 0))]

    def collect(self, x, letters):
        cur, pend, p = list(x), deque(letters), self.G.p
        while pend:
            i = pend.popleft()
            if not any(cur[j] for j in self.partners[i]):
                cur[i] += 1
                if cur[i] < p:
                    continue
                cur[i] = 0
                tail = [j for j in range(i + 1, len(cur)) for _ in range(cur[j])]
                cur[i + 1:] = [0] * (len(cur) - i - 1)
                pend.extendleft(reversed(self.power_letters[i] + tail))
                continue
            j = max(k for k in range(i + 1, len(cur)) if cur[k])
            cur[j] -= 1
            pend.extendleft(reversed([i, j] + self.comm_letters.get((j, i), [])))
        return tuple(cur)

    def multiply(self, x, y):
        return self.collect(x, self._letters(dict(enumerate(y)), len(y)))

    def inverse(self, x):
        # clear x's exponents left to right, then collect the letters used
        # once more from the identity
        cur, letters = x, []
        for k in range(self.G.ngens):
            if cur[k]:
                chunk = [k] * (self.G.p - cur[k])
                cur = self.collect(cur, chunk)
                letters.extend(chunk)
        return self.collect(self.G.identity, letters)

    def power(self, x, m):
        step, out = (x if m >= 0 else self.inverse(x)), self.G.identity
        for _ in range(abs(m)):
            out = self.multiply(out, step)
        return out

    def commutator(self, x, y):
        return self.multiply(self.multiply(self.multiply(self.inverse(x), self.inverse(y)),
                                           x), y)

    def conjugate(self, x, g):
        return self.multiply(self.multiply(self.inverse(g), x), g)


@functools.lru_cache(maxsize=None)
def _collector_cases():
    return tuple((group(name), LetterCollector(group(name)))
                 for name in names({"shipped", "builder"}))


def _assert_matches_reference(G, ref, x, y, m):
    assert G.multiply(x, y) == ref.multiply(x, y)
    assert G.inverse(x) == ref.inverse(x)
    assert G.power(x, m) == ref.power(x, m)
    assert G.commutator(x, y) == ref.commutator(x, y)
    assert G.conjugate(x, y) == ref.conjugate(x, y)


def test_collector_matches_the_letter_collector():
    rng = np.random.default_rng(3)
    for G, ref in _collector_cases():
        for _ in range(20):
            x, y = (G.element(rng.integers(0, G.p, size=G.ngens)) for _ in "xy")
            _assert_matches_reference(G, ref, x, y, int(rng.integers(-2 * G.p, 2 * G.p)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_collector_matches_the_letter_collector_hypothesis(data):
    G, ref = data.draw(st.sampled_from(_collector_cases()))
    x, y = (G.element(data.draw(st.lists(st.integers(0, G.p - 1), min_size=G.ngens,
                                         max_size=G.ngens))) for _ in "xy")
    _assert_matches_reference(G, ref, x, y, data.draw(st.integers(-2 * G.p, 2 * G.p)))


def test_inconsistent_presentation_is_rejected():
    # g1^2 = g2 makes g2 a power of g1, contradicting [g2, g1] = g3 != 1.
    with pytest.raises(PresentationError, match="overlap g1\\^p g1$"):
        PcGroup(2, 3, powers={0: ((1, 1),), 1: ((2, 1),)},
                comms={(1, 0): ((2, 1),)})
    # one presentation for each other overlap test of _consistency_check
    for text, overlap in [
            ("p 2\ngens 5\npow 1 : g4^1\npow 2 : g4^1\npow 4 : g5^1\ncomm 2 1 : g3^1\n"
             "comm 3 1 : g4^1 g5^1\ncomm 3 2 : g4^1\ncomm 4 2 : g5^1\ncomm 4 3 : g5^1",
             "(g3 g2) g1"),
            # conjugation by g1 sends g2 to g2 g4 and g2^2 = g3 to g3 g4,
            # but (g2 g4)^2 = g3
            ("p 2\ngens 4\npow 2 : g3^1\npow 3 : g4^1\ncomm 2 1 : g4^1\ncomm 3 1 : g4^1",
             "g2^p g1"),
            ("p 2\ngens 4\npow 1 : g3^1\npow 2 : g3^1\npow 3 : g4^1\n"
             "comm 2 1 : g3^1 g4^1\ncomm 3 1 : g4^1\ncomm 3 2 : g4^1", "g2 g1^p")]:
        with pytest.raises(PresentationError) as caught:
            parse_presentation(text)
        assert str(caught.value) == f"inconsistent presentation: overlap {overlap}"


class _Unchecked(PcGroup):
    """A presentation built without the overlap tests, for the reference."""

    def _consistency_check(self):
        pass


def every_overlap_check(G):
    """The reference: every overlap test, each collected on both sides, in
    the order and with the messages of PcGroup's check."""
    g = G.generators()
    mul = G._mul
    n = G.ngens
    pairs = {(k, j): mul(g[k], g[j]) for k in range(n) for j in range(k)}
    for k in range(n):
        for j in range(k):
            for i in range(j):
                if mul(pairs[k, j], g[i]) != mul(g[k], pairs[j, i]):
                    raise PresentationError(
                        f"inconsistent presentation: overlap (g{k+1} g{j+1}) g{i+1}")
    for j in range(n):
        below = G._pow(g[j], G.p - 1)
        pj = mul(below, g[j])
        for i in range(j):
            if mul(pj, g[i]) != mul(below, pairs[j, i]):
                raise PresentationError(
                    f"inconsistent presentation: overlap g{j+1}^p g{i+1}")
        for kk in range(j + 1, n):
            if mul(g[kk], pj) != mul(pairs[kk, j], below):
                raise PresentationError(
                    f"inconsistent presentation: overlap g{kk+1} g{j+1}^p")
        if mul(pj, g[j]) != mul(g[j], pj):
            raise PresentationError(
                f"inconsistent presentation: overlap g{j+1}^p g{j+1}")


def _verdicts(p, n, powers, comms):
    """The check's and the reference's outcome: None or the message."""
    out = []
    for check in (lambda: PcGroup(p, n, powers, comms),
                  lambda: every_overlap_check(_Unchecked(p, n, powers, comms))):
        try:
            check()
            out.append(None)
        except PresentationError as exc:
            out.append(str(exc))
    return out


@st.composite
def _relations(draw):
    """Random relation dictionaries: each relation is present or not, and a
    present one is a normal word on one or two of the generators it may
    use; about two thirds of them are inconsistent."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 6))

    def word(start):
        if start == n:
            return ()
        gens = draw(st.sets(st.integers(start, n - 1), min_size=1, max_size=2))
        return tuple((k, draw(st.integers(1, p - 1))) for k in sorted(gens))

    powers = {i: word(i + 1) for i in range(n) if draw(st.booleans())}
    comms = {(j, i): word(j + 1) for j in range(n) for i in range(j)
             if draw(st.booleans())}
    return p, n, powers, comms


@settings(max_examples=400, deadline=None)
@given(case=_relations())
def test_check_agrees_with_every_overlap_reference(case):
    fast, reference = _verdicts(*case)
    assert fast == reference


def _relation_dicts(G):
    return G.p, G.ngens, dict(enumerate(G._powers)), G._comms


def test_shipped_and_built_groups_pass_both_checks():
    for name in names():
        assert _verdicts(*_relation_dicts(group(name))) == [None, None], name


@st.composite
def _consistent_groups(draw):
    """Random presentations from _relations that pass the check."""
    try:
        return PcGroup(*draw(_relations()))
    except PresentationError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_support_test_commutes_and_is_exact_on_pc_generators(data):
    """supports_commute(x, y) implies xy = yx; on two pc generators it
    holds exactly when their collected bracket is 1, in either order; and
    commutator and conjugate, which skip the products when it holds,
    equal the collected values."""
    G = data.draw(st.sampled_from(names({"shipped", "builder"})).map(group)
                  | _consistent_groups())
    gens = G.generators()
    for x in gens:
        for y in gens:
            assert G.supports_commute(x, y) == (collected_commutator(G, x, y) == G.identity)
    # mostly zero exponents, so that supports often commute
    sparse = st.lists(st.just(0) | st.integers(0, G.p - 1),
                      min_size=G.ngens, max_size=G.ngens).map(G.element)
    x, y = data.draw(sparse), data.draw(sparse)
    if G.supports_commute(x, y):
        assert G.multiply(x, y) == G.multiply(y, x)
    assert G.commutator(x, y) == collected_commutator(G, x, y)
    assert G.conjugate(x, y) == collected_conjugate(G, x, y)


def _calls(monkeypatch, run):
    """(_mul calls, _collect calls) that run() makes, nested ones included."""
    counts = {"_mul": 0, "_collect": 0}
    for name in counts:
        def counted(self, *args, _name=name, _f=getattr(PcGroup, name)):
            counts[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(PcGroup, name, counted)
    run()
    monkeypatch.undo()
    return counts["_mul"], counts["_collect"]


@pytest.mark.parametrize("name, work", [
    # (707, 977) and (490, 735) when the overlaps that collect inside an
    # abelian support were collected too
    ("dihedral-1024", (303, 377)),
    ("free-class2-rank5-p2", (170, 235)),
    # relation-free: only the g_k g_j collections, each a plain write
    pytest.param("p 2\ngens 40", (0, 780), id="gens-40"),
    # phi_2 = g2 and phi_3 = g3 g4 (conjugates by g1) have link-free
    # supports, but w_2 = g5 g6 links to g3, so the overlap (g3 g2) g1 is
    # collected only because the abelian-support skip closes supports
    # under the power relations: (57, 62) without that closure
    pytest.param("p 2\ngens 7\npow 2 : g5^1 g6^1\ncomm 3 1 : g4^1\ncomm 5 3 : g7^1\n"
                 "comm 6 3 : g7^1", (61, 68), id="power-closed-support"),
])
def test_check_work_is_pinned(monkeypatch, name, work):
    """The check collects only the overlaps whose sides can differ, so it
    makes fewer products than the every-overlap reference."""
    G = parse_presentation(name) if name.startswith("p ") else fresh(name)
    fast, ref = _Unchecked(*_relation_dicts(G)), _Unchecked(*_relation_dicts(G))
    assert _calls(monkeypatch, lambda: PcGroup._consistency_check(fast)) == work
    ref_mul, ref_collect = _calls(monkeypatch, lambda: every_overlap_check(ref))
    assert work[0] < ref_mul and work[1] < ref_collect


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
    for bad in (5, 3, -1):
        with pytest.raises(PresentationError, match=f"power relation index out of range: {bad}"):
            PcGroup(3, 3, powers={bad: ((2, 1),)}, comms={})
    # an empty word does not excuse a pair outside the generators
    for pair in ((7, 0), (1, 1), (0, 1)):
        with pytest.raises(PresentationError, match="out of order"):
            PcGroup(3, 3, powers={}, comms={pair: ()})


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
        # a second p or gens line is refused, not obeyed: obeying the last
        # gens line would silently drop pow 3
        ("p 3\ngens 3\npow 3 : g1^1\ngens 2", "^line 4: duplicate gens$"),
        ("p 3\np 3\ngens 1", "^line 2: duplicate p$"),
        ("p 3\ngens 1\npow 1 : 1\np 5", "^line 4: duplicate p$"),
        # nor is a second id or a second expect line for one key: obeying
        # the last would silently replace the first
        ("p 3\ngens 1\nid 3 1\nid 3 2", "^line 4: duplicate id$"),
        ("p 3\ngens 1\nexpect zeta C3\nexpect zeta C9", "^line 4: duplicate expect zeta$"),
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
