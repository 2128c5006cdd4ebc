"""Subgroup-level computations on finite p-groups given by pc presentations.

A subgroup H is its group, a generating sequence of at most log_p |H|
elements, and an induced polycyclic sequence of H in canonical form:
one entry per depth of H's elements (the depth of x != 1 is its first
non-zero exponent), where the entry at depth d has exponent 1 at d and 0
at the depth of every other entry.  That sequence is unique for its
subgroup, so it decides |H| = p^(entries), membership (x lies in H
exactly when sifting leaves 1), inclusion and equality without any
element set.  closure() builds subgroups from generators; the centre and
intersections are kernels taken layer by layer down the central pc
series (_kernel), so they read no element set either.  The centre,
derived subgroup and power series of H are memoized on H, and the
lower central series on the whole group W, so they live as long as
their subgroup does.  Power series are also memoized per group, in
G.power_series_memo, keyed by the canonical entries: equal subgroups
built by different routes are different objects (gamma_2^p and gamma_3
of a dihedral group, say), and the key, unlike the object, is the same
for both, so each distinct subgroup's series is built once.

The whole group W = whole_group(G) keeps only the pc generators that do
not lie in the subgroup of those before them (2 of 10 for the dihedral
group of order 1024), and they generate G.  So W's series (derived
subgroup, lower central series, normal closures) bracket with and
conjugate by W's kept generators, not by all n pc generators.  Every
bracket and p-th power comes from PcGroup.commutator and PcGroup.power,
which read those of pc generators off the presentation, so this module
holds no copy of the relations.

Nor is a product formed only to compare or bracket two elements x, y
whose supports commute (PcGroup.supports_commute: no generator of x has
a nontrivial commutator relation with one of y, so xy = yx).  Closing a
sequence (_PcSequence.add) skips their bracket, the centre's kernel
takes the equal pair (x, x) for such a generator h, and
PcGroup.commutator and conjugate return 1 and x.  Entries that are
powers of one rotation, or central pc generators, are the usual case.

ENUMERATION_CAP bounds enumeration only: the element set of H, and the
centre transversal power_series takes, are refused when they would
hold more than ENUMERATION_CAP elements (_PcSequence.elements).
Sequences are never capped, so groups far above the cap still get their
lower central series, centres, intersections and dimension subgroups,
as long as no step enumerates.

Powers of H are one memoized chain, power_series(H) = [H, H^p, ..., 1],
built from H's structure, never from a power of every element: for
abelian H the p-th powers of H's generators generate H^p, and the chain
goes on as H^p's own; otherwise (xz)^p = x^p z^p for central z, so one
p-th power per coset of Z(H) and step, with the p^j-th powers of Z(H)'s
generators, generate H^(p^j).  Everything else about powers is read off
that chain: H^q is the term at the p-part of q (power_subgroup), exp(H)
is p^(length - 1), the invariants and fingerprints come from the terms'
orders, and the Lie dimension chain takes the nontrivial terms as its
pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from lienil.pcgroup import Element, PcGroup

ENUMERATION_CAP = 2**20


class CapExceeded(RuntimeError):
    """An enumeration would hold more than ENUMERATION_CAP elements."""


def _depth(x: Element) -> int:
    """Position of the first non-zero exponent of x != 1."""
    return next(i for i, e in enumerate(x) if e)


class _PcSequence:
    """Induced polycyclic sequence of a subgroup S: at most one entry per
    depth, where the depth of x != 1 is its first non-zero exponent.

    The entry t at depth d has t[d] = 1.  Sifting x runs through its
    depths in order; at a depth d with exponent e and an entry t it
    replaces x by t^(p-e) x, which has exponent 0 at d.  A pc-generator
    entry g_d needs no product: it replaces x by g_d^-e x, which is x with
    position d cleared.  When every depth of S holds an entry (see
    closure), x lies in S exactly when it sifts to the identity.
    """

    __slots__ = ("group", "entries", "_powers")

    def __init__(self, G: PcGroup, base: Optional["_PcSequence"] = None):
        """An empty sequence, or a copy of base to grow."""
        self.group = G
        self.entries: list[Optional[Element]] = (
            list(base.entries) if base else [None] * G.ngens)
        # d -> memo {k: t^k} for each entry t that is not g_d itself
        self._powers: dict[int, dict[int, Element]] = dict(base._powers) if base else {}

    def sift(self, x: Element) -> Element:
        """x reduced through the entries; a non-identity result has no
        entry at its depth."""
        G = self.group
        for d in range(G.ngens):
            e = x[d]
            if not e:
                continue
            t = self.entries[d]
            if t is None:
                return x
            if d in self._powers:
                x = G.multiply(self._power(d, G.p - e), x)
            else:
                x = G.identity[:d + 1] + x[d + 1:]
        return x

    def _power(self, d: int, k: int) -> Element:
        """t^k for the entry t at depth d, memoized unless t is g_d."""
        memo = self._powers.get(d)
        if memo is None:
            G = self.group
            return G.identity[:d] + (k % G.p,) + G.identity[d + 1:]
        if k not in memo:
            memo[k] = self.group.power(self.entries[d], k)
        return memo[k]

    def _set(self, d: int, t: Element) -> None:
        """Make t the entry at depth d, with a fresh power memo unless t
        is g_d."""
        self.entries[d] = t
        self._powers.pop(d, None)
        if any(t[d + 1:]):
            self._powers[d] = {}

    def add(self, r: Element) -> list[Element]:
        """Enter a sifted r != 1 at its depth; return the new entry's p-th
        power and its non-trivial commutators with the other entries,
        deeper entry first, which lie in S and still need sifting.  Both
        come from PcGroup.power and PcGroup.commutator: on a pc-generator
        entry g_d the power is the relation word w_d, and on two such
        entries, deeper first, the commutator is the relation word itself,
        so neither is collected."""
        G = self.group
        d = _depth(r)
        t = r if r[d] == 1 else G.power(r, pow(r[d], -1, G.p))
        self._set(d, t)
        found = [G.power(t, G.p)]
        for c, s in enumerate(self.entries):
            if s is None or c == d:
                continue
            u = G.commutator(s, t) if c > d else G.commutator(t, s)
            if u != G.identity:
                found.append(u)
        return found

    def reduce(self) -> None:
        """Canonical form of a closed sequence: each entry gets exponent 0
        at every other entry's depth, which makes it unique for S.

        The series is central, so left multiplication by an element of G_c
        keeps every exponent before c and adds at c: the depths c > d of
        an entry are cleared in increasing order by powers of their
        entries.  When every depth from `full` on holds an entry, G_full
        lies in S, so those positions are just zeroed, and an entry there
        becomes the pc generator g_d without a product.
        """
        G = self.group
        full = G.ngens
        while full and self.entries[full - 1] is not None:
            full -= 1
        depths = [d for d in range(full) if self.entries[d] is not None]
        for d, t in enumerate(self.entries):
            if t is None:
                continue
            for c in depths:
                if c > d and t[c]:
                    t = G.multiply(self._power(c, G.p - t[c]), t)
            keep = max(d + 1, full)
            t = t[:keep] + G.identity[keep:]
            if t != self.entries[d]:
                self._set(d, t)

    def elements(self) -> frozenset:
        """Every t_1^e_1 ... t_k^e_k (entries by depth), built deepest
        entry first with one left multiplication per element; a
        pc-generator entry g_d only writes e into position d.  Raises
        CapExceeded, before any product, when there are more than
        ENUMERATION_CAP."""
        G = self.group
        if G.p ** (G.ngens - self.entries.count(None)) > ENUMERATION_CAP:
            raise CapExceeded(f"subgroup larger than cap {ENUMERATION_CAP}")
        out = [G.identity]
        for d in reversed(range(G.ngens)):
            t = self.entries[d]
            if t is None:
                continue
            m = len(out)
            if d in self._powers:
                powers = [t]
                for _ in range(G.p - 2):
                    powers.append(G.multiply(powers[-1], t))
                out.extend(G.multiply(power, y) for power in powers for y in islice(out, m))
            else:
                out.extend(G.identity[:d] + (e,) + y[d + 1:]
                           for e in range(1, G.p) for y in islice(out, m))
        return frozenset(out)


class Subgroup:
    """A subgroup of a pc group: kept generators and a closed induced
    sequence in canonical form (see _PcSequence.reduce); built by
    closure() and _kernel().  The element set is formed on first use."""

    __slots__ = ("group", "generators", "entries", "order", "_seq", "_elements", "_center",
                 "_derived", "_fingerprint", "_power_series", "_lower_central")

    def __init__(self, group: PcGroup, generators: tuple[Element, ...], seq: _PcSequence):
        self.group = group
        self.generators = generators
        self.entries = tuple(t for t in seq.entries if t is not None)
        self.order = group.p ** len(self.entries)
        self._seq = seq
        self._elements: Optional[frozenset] = None
        self._center: Optional["Subgroup"] = None
        self._derived: Optional["Subgroup"] = None
        self._fingerprint: Optional["IsoType"] = None
        self._power_series: Optional[list["Subgroup"]] = None
        self._lower_central: Optional[list["Subgroup"]] = None

    @property
    def elements(self) -> frozenset:
        """The element set, enumerated on first use."""
        return self.enumerated()._elements

    def enumerated(self) -> "Subgroup":
        """H, with its element set formed on the first call; that call
        raises CapExceeded when |H| exceeds ENUMERATION_CAP."""
        if self._elements is None:
            self._elements = self._seq.elements()
        return self

    def is_trivial(self) -> bool:
        return self.order == 1

    def __contains__(self, x: Element) -> bool:
        return self._seq.sift(x) == self.group.identity

    def __le__(self, other: "Subgroup") -> bool:
        return all(g in other for g in self.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.group is other.group and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((id(self.group), self.entries))

    def exponent(self) -> int:
        """exp(H) = p^k for the last term H^(p^k) = 1 of power_series(H)."""
        return self.group.p ** (len(power_series(self)) - 1)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, gens={len(self.generators)})"


def whole_group(G: PcGroup) -> Subgroup:
    """G itself, closed from its pc generators."""
    return closure(G, G.generators())


def trivial_subgroup(G: PcGroup) -> Subgroup:
    return Subgroup(G, (), _PcSequence(G))


def _grow(H: Subgroup, gens: Iterable[Element]) -> Subgroup:
    """<H, gens>, keeping H's generators and then each g that does not lie
    in the subgroup of those kept before it; H itself, memos and all,
    when every g sifts to 1 through H."""
    G = H.group
    seq = _PcSequence(G, H._seq)
    kept = list(H.generators)
    for g in gens:
        r = seq.sift(g)
        if r == G.identity:
            continue
        kept.append(g)
        pending = [r]
        while pending:
            r = seq.sift(pending.pop())
            if r == G.identity:
                continue
            pending.extend(reversed(seq.add(r)))  # p-th power popped first
    if len(kept) == len(H.generators):
        return H
    seq.reduce()
    return Subgroup(G, tuple(kept), seq)


def closure(G: PcGroup, gens: Iterable[Element]) -> Subgroup:
    """Subgroup H generated by gens, keeping at most log_p |H| of them.

    A generator is kept when it does not lie in the subgroup S of the
    generators kept before it; then |<S, g>| >= p |S|, hence the bound.
    Membership is decided by sifting through an induced polycyclic
    sequence of S (_PcSequence), not by an element set.

    Sifting is exact because the pc series G_i = <g_i, ..., g_n> is
    central: every relation word for g_j^p and [g_j, g_i] lies strictly
    after j.  So reading the exponent at depth d is a homomorphism
    G_d -> Z/p, and an entry t of depth d with t[d] = 1 cancels the
    exponent at d without touching earlier ones.  The sequence is closed
    by sifting, after each new entry, its p-th power and then its
    commutators with the other entries in order of depth, and entering
    what does not sift to 1; an entered element's own power and
    commutators are sifted before the rest of the earlier ones (a stack).
    Sifting the power first fills a chain of pc-generator entries from
    the power relations, g_d^p = w_d, so that on such entries every later
    commutator is a relation word and sifts without a product.  With
    entries t_1, ..., t_k by depth d_1 < ... < d_k, t_i^p lies in G_(d_i+1)
    and [t_j, t_i] (i < j) in G_(d_j+1), so each sifts through deeper
    entries only: t_i^p lies in <t_(i+1), ..., t_k>, and t_i normalises
    that subgroup.  By induction from the deepest entry,
    <t_i, ..., t_k> = {t_i^e_i ... t_k^e_k} has order p^(k-i+1), so a
    closed sequence has an entry at every depth of S's elements.

    So |H| = p^k for k entries, known without any element.
    """
    return _grow(trivial_subgroup(G), gens)


def _generator_commutators(G: PcGroup, gens: Sequence[Element]) -> Iterator[Element]:
    """The non-identity brackets [gens[b], gens[a]] for a < b."""
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            c = G.commutator(gens[b], gens[a])
            if c != G.identity:
                yield c


def _conjugation_closure(G: PcGroup, gens: Iterable[Element],
                         conjugators: Sequence[Element]) -> Subgroup:
    """Smallest subgroup containing gens and closed under conjugation by
    every element of `conjugators`.

    Grows the closure by the conjugates of its generators until stable;
    conjugating a generating set suffices because (xy)^g = x^g y^g.  Each
    round conjugates only the generators the last round added: the
    conjugates of the older ones already lie in the subgroup.
    """
    sub = closure(G, gens)
    new = sub.generators
    while new:
        grown = _grow(sub, [G.conjugate(x, g) for x in new for g in conjugators])
        new = grown.generators[len(sub.generators):]
        sub = grown
    return sub


def normal_closure(W: Subgroup, gens: Iterable[Element]) -> Subgroup:
    """Smallest normal subgroup of the whole group W containing gens.

    Conjugating by W's kept generators suffices: they generate G, and a
    subgroup H of a finite group closed under conjugation by each y of a
    generating set is normal, since H^y <= H with |H^y| = |H| gives
    H^y = H, hence also H^(y^-1) = H.
    """
    assert W.order == W.group.order, "normal closure in a proper subgroup"
    return _conjugation_closure(W.group, gens, W.generators)


def subgroup_product(H: Subgroup, K: Subgroup) -> Subgroup:
    """Closure of H union K (equals the set product when both are normal):
    H itself when K <= H, K itself when H <= K, else H grown by K's
    generators."""
    if H.group is not K.group:
        raise ValueError("subgroup product across different groups")
    if K <= H:
        return H
    if H <= K:
        return K
    return _grow(H, K.generators)


def _kernel(H: Subgroup,
            image: Callable[[Element], list[tuple[Element, Element]]]) -> Subgroup:
    """The x in H with a == b for every pair (a, b) in image(x); H itself
    when that is all of H.

    Let C_i be the x in H whose pairs agree before depth i.  image must
    make x -> (a_i - b_i per pair), the depth-i exponents of b^-1 a, a
    homomorphism C_i -> GF(p)^m; C_(i+1) is then its kernel and C_(n+1)
    the answer.  A step reduces the vectors of C_i's entries by GF(p)
    elimination, deepest entry first, multiplying an entry on the right by
    powers of deeper pivots, so it keeps its depth and exponent 1 there.
    The m - rank entries that reduce to 0 lie in C_(i+1) at distinct
    depths, so they are an induced sequence of it, of order |C_i| / p^rank,
    with no p-th power or commutator to sift.  Depths where all pairs
    agree are skipped, so image runs once per term; the assert checks that
    each term's pairs agree through the depth of the step that made it.

    image must return the same number m of pairs for every element, in a
    fixed order, since pair k of every element makes coordinate k of the
    vectors; an equal pair (x, x) stands for a coordinate that is 0.
    """
    G = H.group
    p = G.p
    entries = list(H.entries)
    depth = -1
    while True:
        images = [image(t) for t in entries]
        assert len({len(pairs) for pairs in images}) <= 1, \
            "image returned different numbers of pairs for different elements"
        lead = min((next(i for i, (u, w) in enumerate(zip(a, b)) if u != w)
                    for pairs in images for a, b in pairs if a != b), default=G.ngens)
        assert lead > depth, "image is not a homomorphism on the kernel"
        if lead == G.ngens:
            break
        depth = lead
        pivots: list[tuple[int, list[int], Element]] = []  # column, vector, element
        kernel = []
        for t, pairs in zip(reversed(entries), reversed(images)):
            v = [(a[depth] - b[depth]) % p for a, b in pairs]
            for col, row, pivot in pivots:
                c = v[col]
                if c:
                    v = [(u - c * w) % p for u, w in zip(v, row)]
                    t = G.multiply(t, G.power(pivot, p - c))
            col = next((k for k, u in enumerate(v) if u), None)
            if col is None:
                kernel.append(t)
            else:
                s = pow(v[col], -1, p)
                pivots.append((col, [u * s % p for u in v], G.power(t, s)))
        entries = kernel[::-1]
    if len(entries) == len(H.entries):
        return H
    seq = _PcSequence(G)
    for t in entries:
        seq._set(_depth(t), t)
    seq.reduce()
    return Subgroup(G, tuple(t for t in seq.entries if t is not None), seq)


def intersection(H: Subgroup, K: Subgroup, W: Subgroup) -> Subgroup:
    """H meet K for K normal in G: the kernel of
    x -> (K's sift of x, 1).  For x in C_i = H meet K G_i the sift lies in
    G_i, and its depth-i exponent is x's image in K G_i / K G_(i+1),
    which is Z/p or trivial; so C_(n+1) = H meet K (see _kernel).

    W is the whole group: K's normality is checked by conjugating its
    generators by W's kept generators, which generate G (see
    normal_closure).
    """
    if H.group is not K.group:
        raise ValueError("intersection across different groups")
    G = H.group
    assert W.group is G and W.order == G.order, "W is not the whole group"
    if any(G.conjugate(k, g) not in K for k in K.generators for g in W.generators):
        raise ValueError("intersection needs its second subgroup normal in the group")
    return _kernel(H, lambda x: [(K._seq.sift(x), G.identity)])


def power_subgroup(H: Subgroup, q: int) -> Subgroup:
    """Subgroup H^q generated by the q-th powers of all elements of H.

    q is normally a power of the group prime; arbitrary positive q is
    accepted because a handful of condition transcriptions need literal
    non-p-power exponents.  For q = p^j m with m coprime to p, x -> x^m
    is a bijection of the p-group H, so {x^q} = {x^(p^j)}: term j of
    power_series(H), or its trivial last term past the end, and H itself,
    with no series built, when j = 0.
    """
    if q < 1:
        raise ValueError(f"bad power {q}")
    p = H.group.p
    j = 0
    while q % p == 0:
        q //= p
        j += 1
    if j == 0:
        return H
    series = power_series(H)
    return series[min(j, len(series) - 1)]


def power_series(H: Subgroup) -> list[Subgroup]:
    """[H, H^p, H^(p^2), ..., 1], ending at the first trivial term;
    memoized on H, and per group by H's canonical entries, so an equal
    subgroup built elsewhere gets [itself] + the same later terms.  The
    terms descend strictly: H^(p^(j+1)) lies in (H^(p^j))^p, inside the
    Frattini subgroup of H^(p^j).

    For abelian H, x -> x^p is a homomorphism, so H^p is the closure of
    the p-th powers of H's generators and (H^(p^j))^p = H^(p^(j+1)): the
    series is [H] + power_series(H^p), and each of its terms is recorded
    as the start of its own series.

    Otherwise each x in H is r z, with r one representative per coset of
    the centre Z = Z(H) and z in Z, and (rz)^p = r^p z^p.  So {x^(p^j)} =
    {r^(p^j)} * Z^(p^j): one p-th power per non-central representative
    and step, times Z^(p^j), which, as the power map is a homomorphism on
    the abelian Z, is the closure of the p^j-th powers of Z's generators.
    H^(p^j) is the closure of both.  Each step takes one p-th power of
    each of the last step's powers, z^(p^j) = (z^(p^(j-1)))^p, not a
    p^j-th power of z.
    """
    if H._power_series is None:
        memo = H.group.power_series_memo
        shared = memo.get(H.entries)
        if shared is not None:
            H._power_series = [H] + shared[1:]
        elif center(H) is H:
            _abelian_power_series(H, memo)
        else:
            G = H.group
            series = [H]
            central, images = center(H).generators, _centre_transversal(H)
            while not series[-1].is_trivial():
                images = frozenset(y for y in (G.power(x, G.p) for x in images)
                                   if y != G.identity)
                central = [G.power(z, G.p) for z in central]
                series.append(closure(G, sorted(images) + central))
            H._power_series = memo[H.entries] = series
    return H._power_series


def _abelian_power_series(H: Subgroup, memo: dict) -> None:
    """power_series(H) for abelian H: H^(p^(j+1)) is the closure of the
    p-th powers of a generating set of H^(p^j), until a term is trivial
    or already starts a memoized series.  That set is the term's entries
    when they are all pc generators (its sequence keeps no power memo),
    whose p-th powers are the power relations, else its kept generators,
    which are fewer.  Every new term is abelian, and is memoized as the
    start of the rest of the series."""
    G = H.group
    series = [H]
    term = H
    while not term.is_trivial():
        gens = term.generators if term._seq._powers else term.entries
        term = closure(G, [G.power(g, G.p) for g in gens])
        shared = memo.get(term.entries)
        if shared is not None:
            series += shared
            break
        term._center = term
        series.append(term)
    for j, term in enumerate(series):
        if term._power_series is None:
            term._power_series = memo[term.entries] = series[j:]


def _centre_transversal(H: Subgroup) -> frozenset:
    """One representative per non-central coset of Z(H): none, and no
    element of H formed, when H is abelian.

    The representatives are the normal words in H's entries at the depths
    Z(H) does not occupy, enumerated under ENUMERATION_CAP.  Z <= H, so
    Z's depths are some of H's; two such words differ first at a depth Z
    does not occupy, so the quotient of the two is not in Z, and there
    are |H : Z| of them, the identity among them.
    """
    G = H.group
    Z = center(H)
    if Z is H:
        return frozenset()
    transversal = _PcSequence(G, H._seq)
    for d, z in enumerate(Z._seq.entries):
        if z is not None:
            transversal.entries[d] = None
            transversal._powers.pop(d, None)
    return transversal.elements() - {G.identity}


def derived_subgroup(H: Subgroup) -> Subgroup:
    """Commutator subgroup of H (normal closure in H of generator brackets)."""
    if H._derived is None:
        G = H.group
        H._derived = _conjugation_closure(
            G, _generator_commutators(G, H.generators), H.generators)
    return H._derived


def center(H: Subgroup) -> Subgroup:
    """Center of H, H itself when H is abelian: the kernel of
    x -> (x h, h x) for h in H's generators.  x h = h x [x, h], and on C_i
    the commutators lie in G_i, where [xy, h] = [x, h]^y [y, h] agrees
    with [x, h] [y, h] at depth i because the pc series is central (see
    _kernel)."""
    if H._center is None:
        G = H.group
        H._center = _kernel(H, lambda x: [
            (x, x) if G.supports_commute(x, h) else (G.multiply(x, h), G.multiply(h, x))
            for h in H.generators])
    return H._center


def lower_central_series(W: Subgroup) -> list[Subgroup]:
    """[gamma_1 = W, gamma_2, ..., 1] for the whole group W; memoized on W.

    Each term comes from the last by brackets with W's kept generators
    only, closed under conjugation by them (normal_closure), not by all
    of G's pc generators.  This gives [N, G] for N = <X> normal in
    G = <Y>, with X N's kept generators and Y W's: let K be the normal
    closure of the [x, y].  K <= [N, G], which is normal and holds every
    [x, y], and K <= N as N is normal.  Modulo K every x commutes with
    every y, so N/K is central in G/K, that is [N, G] <= K.
    gamma_2 = derived_subgroup(W) is the case N = G, X = Y.
    """
    if W._lower_central is None:
        G = W.group
        assert W.order == G.order, "lower central series of a proper subgroup"
        current = derived_subgroup(W)
        series = [W, current]
        while not current.is_trivial():
            brackets = [c for x in current.generators for g in W.generators
                        if (c := G.commutator(x, g)) != G.identity]
            nxt = normal_closure(W, brackets)
            assert nxt <= current, "lower central series not descending"
            series.append(nxt)
            current = nxt
        W._lower_central = series
    return W._lower_central


def is_abelian(H: Subgroup) -> bool:
    return next(_generator_commutators(H.group, H.generators), None) is None


def _log_p(n: int, p: int) -> int:
    k = 0
    while n > 1:
        if n % p:
            raise ValueError(f"{n} is not a power of {p}")
        n //= p
        k += 1
    return k


def _factors_from_power_orders(s: list[int], p: int) -> list[int]:
    """Invariant factors (descending) of an abelian p-group from
    s_j = log_p |A^(p^j)|, j = 0, 1, ... down to the trivial term.

    The count of factors of order > p^j is s_j - s_(j+1), which pins the
    factor multiset uniquely.
    """
    counts = [s[j] - s[j + 1] for j in range(len(s) - 1)]
    rank = counts[0] if counts else 0
    factors = []
    for i in range(1, rank + 1):
        lam = max(j + 1 for j in range(len(counts)) if counts[j] >= i)
        factors.append(p**lam)
    assert sum(_log_p(f, p) for f in factors) == s[0]
    return sorted(factors, reverse=True)


def abelian_invariants(H: Subgroup) -> list[int]:
    """Invariant factors [p^l1, p^l2, ...] (descending) of an abelian H.

    H' is trivial, so these are abelianization_invariants(H), read off the
    orders of power_series(H).
    """
    if not is_abelian(H):
        raise ValueError("subgroup is not abelian")
    return abelianization_invariants(H)


@dataclass(frozen=True)
class IsoType:
    """Isomorphism descriptor: exact for abelian groups, a fingerprint else.

    The fingerprint tuple is (order, exponent, |center|, center type,
    |derived|, derived type, abelianization type, orders of H^(p^j) for
    j >= 1 until trivial).  It separates every candidate list the condition
    table needs; it is not a general isomorphism test.
    """

    kind: str  # "abelian" | "fingerprint"
    invariants: tuple[int, ...] = ()
    fingerprint: tuple = ()

    def __str__(self) -> str:
        if self.kind == "abelian":
            if not self.invariants:
                return "1"
            return "x".join(f"C{n}" for n in self.invariants)
        order, exponent, zorder, ztype, dorder, dtype, abtype, powers = self.fingerprint
        return (f"fp[o={order},e={exponent},z={zorder}:{ztype},d={dorder}:{dtype},"
                f"ab={abtype},pow={'.'.join(str(n) for n in powers)}]")


def abelianization_invariants(H: Subgroup) -> list[int]:
    """Invariant factors of H/H' without building the quotient.

    |(H/H')^(p^j)| = |H^(p^j) * H'| / |H'|, and the count of factors of
    order > p^j is log_p of the ratio of consecutive terms (see
    _factors_from_power_orders).
    """
    p = H.group.p
    derived = derived_subgroup(H)
    s = []
    for hp in power_series(H):
        quotient_order = subgroup_product(hp, derived).order // derived.order
        s.append(_log_p(quotient_order, p))
        if quotient_order == 1:
            break
    return _factors_from_power_orders(s, p)


def fingerprint(H: Subgroup) -> IsoType:
    """IsoType of H: exact invariants when abelian, fingerprint otherwise;
    memoized on H."""
    if H._fingerprint is None:
        H._fingerprint = _fingerprint(H)
    return H._fingerprint


def _fingerprint(H: Subgroup) -> IsoType:
    if is_abelian(H):
        return IsoType("abelian", tuple(abelian_invariants(H)))
    zc = center(H)
    dv = derived_subgroup(H)
    powers = [S.order for S in power_series(H)[1:]]
    fp = (H.order, H.exponent(), zc.order, str(fingerprint(zc)),
          dv.order, str(fingerprint(dv)),
          str(IsoType("abelian", tuple(abelianization_invariants(H)))),
          tuple(powers))
    return IsoType("fingerprint", fingerprint=fp)
