"""Subgroup-level computations on enumerated finite p-groups.

A subgroup H is an explicit element set (tuples of exponents) plus a
generating sequence of at most log_p |H| elements.  closure() builds every
non-trivial subgroup and keeps that bound, whatever it is handed: centres,
intersections and power subgroups are closures of their element sets.
The centre, derived subgroup and power subgroups of H are memoized on H,
so they live as long as H does.

The one exception is the whole-group marker returned by whole_group(),
which carries its order and the pc generators without enumerating
elements; series computations only ever enumerate the subgroups
themselves, so groups far above the enumeration cap still get their lower
central series, derived subgroup and power subgroups computed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from lienil.pcgroup import Element, PcGroup

DEFAULT_CAP = 2**20


class CapExceeded(RuntimeError):
    """A subgroup enumeration outgrew the caller's cap."""


class Subgroup:
    """A subgroup of a pc group, as an explicit closed element set."""

    __slots__ = ("group", "elements", "generators", "_whole_order",
                 "_exponent", "_center", "_derived", "_powers")

    def __init__(self, group: PcGroup, elements: Optional[frozenset],
                 generators: tuple[Element, ...],
                 whole_order: Optional[int] = None):
        self.group = group
        self.elements = elements
        self.generators = generators
        self._whole_order = whole_order
        self._exponent: Optional[int] = None
        self._center: Optional["Subgroup"] = None
        self._derived: Optional["Subgroup"] = None
        self._powers: dict[int, "Subgroup"] = {}

    @property
    def order(self) -> int:
        if self.elements is not None:
            return len(self.elements)
        assert self._whole_order is not None
        return self._whole_order

    @property
    def is_whole_marker(self) -> bool:
        return self.elements is None

    def is_trivial(self) -> bool:
        return self.order == 1

    def __contains__(self, x: Element) -> bool:
        if self.elements is None:
            return True
        return x in self.elements

    def __le__(self, other: "Subgroup") -> bool:
        if other.elements is None:
            return True
        if self.elements is None:
            return self.order <= other.order and other.order == self.group.order
        return self.elements <= other.elements

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        if self.group is not other.group:
            return False
        if self.elements is None or other.elements is None:
            return self.order == other.order == self.group.order
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash((id(self.group), self.order,
                     None if self.elements is None else self.elements))

    def __iter__(self) -> Iterator[Element]:
        if self.elements is None:
            raise CapExceeded("whole-group marker is not enumerated; call enumerated()")
        return iter(self.elements)

    def enumerated(self, cap: int = DEFAULT_CAP) -> "Subgroup":
        """Materialize the element set (no-op when already explicit)."""
        if self.elements is not None:
            return self
        if self.group.order > cap:
            raise CapExceeded(
                f"group order {self.group.order} exceeds enumeration cap {cap}")
        return closure(self.group, self.generators, cap)

    def exponent(self) -> int:
        if self._exponent is None:
            self._require_elements()
            G = self.group
            self._exponent = max((G.element_order(x) for x in self.elements), default=1)
        return self._exponent

    def _require_elements(self) -> None:
        if self.elements is None:
            raise CapExceeded("operation needs an enumerated subgroup")

    def __repr__(self) -> str:
        tag = "whole" if self.elements is None else "enum"
        return f"Subgroup(order={self.order}, gens={len(self.generators)}, {tag})"


def whole_group(G: PcGroup) -> Subgroup:
    """Marker subgroup for G itself; never enumerated implicitly."""
    return Subgroup(G, None, tuple(G.generators()), whole_order=G.order)


def trivial_subgroup(G: PcGroup) -> Subgroup:
    return Subgroup(G, frozenset([G.identity]), ())


def closure(G: PcGroup, gens: Iterable[Element], cap: int = DEFAULT_CAP) -> Subgroup:
    """Subgroup H generated by gens, keeping at most log_p |H| of them.

    A generator that already lies in the subgroup S built so far is
    dropped.  A kept generator g lies outside S, so the coset S*g is new
    and |<S, g>| >= p |S|; hence the bound, and a cap below p |S| is
    reported before the coset is built.  S*g is taken once; then only the
    new elements are closed under the kept generators by right
    multiplication.  In a finite group the multiplicative closure of a set
    containing the identity is already a subgroup, so no inverses are
    taken.
    """
    kept: list[Element] = []
    seen: set[Element] = {G.identity}
    for g in gens:
        if g in seen:
            continue
        if len(seen) * G.p > cap:
            raise CapExceeded(f"subgroup larger than cap {cap}")
        kept.append(g)
        frontier = [G.multiply(x, g) for x in seen]
        seen.update(frontier)
        while frontier:
            new: list[Element] = []
            for x in frontier:
                for h in kept:
                    y = G.multiply(x, h)
                    if y not in seen:
                        seen.add(y)
                        if len(seen) > cap:
                            raise CapExceeded(f"subgroup larger than cap {cap}")
                        new.append(y)
            frontier = new
    return Subgroup(G, frozenset(seen), tuple(kept))


def _generator_commutators(G: PcGroup, gens: Sequence[Element]) -> Iterator[Element]:
    """The non-identity brackets [gens[b], gens[a]] for a < b."""
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            c = G.commutator(gens[b], gens[a])
            if c != G.identity:
                yield c


def _conjugation_closure(G: PcGroup, gens: Iterable[Element],
                         conjugators: Sequence[Element], cap: int) -> Subgroup:
    """Smallest subgroup containing gens and closed under conjugation by
    every element of `conjugators`.

    Alternates closure with conjugation of the generating set until stable;
    conjugating a generating set suffices because (xy)^g = x^g y^g.
    """
    sub = closure(G, gens, cap)
    changed = True
    while changed:
        changed = False
        for x in sub.generators:
            for g in conjugators:
                y = G.conjugate(x, g)
                if y not in sub:
                    sub = closure(G, sub.generators + (y,), cap)
                    changed = True
    return sub


def normal_closure(G: PcGroup, gens: Iterable[Element],
                   cap: int = DEFAULT_CAP) -> Subgroup:
    """Smallest normal subgroup of G containing gens.

    Conjugating by the pc generators of G suffices, since they generate G.
    """
    return _conjugation_closure(G, gens, G.generators(), cap)


def subgroup_product(H: Subgroup, K: Subgroup, cap: int = DEFAULT_CAP) -> Subgroup:
    """Closure of H union K (equals the set product when both are normal)."""
    if H.group is not K.group:
        raise ValueError("subgroup product across different groups")
    if H.is_trivial():
        return K
    if K.is_trivial():
        return H
    if H.elements is not None and K.elements is not None:
        if H.elements >= K.elements:
            return H
        if K.elements >= H.elements:
            return K
    return closure(H.group, H.generators + K.generators, cap)


def intersection(H: Subgroup, K: Subgroup) -> Subgroup:
    if H.group is not K.group:
        raise ValueError("intersection across different groups")
    if H.elements is None:
        return K
    if K.elements is None:
        return H
    common = H.elements & K.elements
    return closure(H.group, sorted(common), len(common))


def power_subgroup(H: Subgroup, q: int, cap: int = DEFAULT_CAP) -> Subgroup:
    """Subgroup H^q generated by the q-th powers of all elements of H.

    q is normally a power of the group prime; arbitrary positive q is
    accepted because a handful of condition transcriptions need literal
    non-p-power exponents.  For q coprime to p the q-th power map is a
    bijection of the p-group H, so H itself is returned.  Otherwise H^q is
    the closure of the q-th powers (at most log_p |H^q| generators) and is
    memoized on H, keyed by q.
    """
    if q < 1:
        raise ValueError(f"bad power {q}")
    G = H.group
    if q % G.p:
        return H
    if q not in H._powers:
        H._require_elements()
        H._powers[q] = closure(G, sorted({G.power(x, q) for x in H.elements}), cap)
    return H._powers[q]


def derived_subgroup(H: Subgroup, cap: int = DEFAULT_CAP) -> Subgroup:
    """Commutator subgroup of H (normal closure in H of generator brackets)."""
    if H._derived is None:
        G = H.group
        H._derived = _conjugation_closure(
            G, _generator_commutators(G, H.generators), H.generators, cap)
    return H._derived


def center(H: Subgroup, cap: int = DEFAULT_CAP) -> Subgroup:
    """Center of H by scanning elements against H's generators.

    An element commutes with all of H iff it commutes with a generating
    set, so the scan is |H| * len(generators) commutator tests.
    """
    if H._center is None:
        H2 = H.enumerated(cap)
        G = H.group
        central = [x for x in H2.elements
                   if all(G.multiply(x, g) == G.multiply(g, x) for g in H2.generators)]
        H._center = H2._center = closure(G, sorted(central), len(central))
    return H._center


def lower_central_series(G: PcGroup, cap: int = DEFAULT_CAP) -> list[Subgroup]:
    """[gamma_1 = G, gamma_2, ..., 1]; gamma_1 is the whole-group marker."""
    series = [whole_group(G)]
    current = derived_subgroup(series[0], cap)
    series.append(current)
    gens = G.generators()
    while not current.is_trivial():
        brackets = []
        for x in current.generators:
            for g in gens:
                c = G.commutator(x, g)
                if c != G.identity:
                    brackets.append(c)
        nxt = normal_closure(G, brackets, cap)
        if current.elements is not None and nxt.elements is not None:
            assert nxt.elements <= current.elements, "lower central series not descending"
        series.append(nxt)
        current = nxt
    return series


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


def abelian_invariants(H: Subgroup, cap: int = DEFAULT_CAP) -> list[int]:
    """Invariant factors [p^l1, p^l2, ...] (descending) of an abelian H,
    derived from the orders of the power subgroups H^(p^j)."""
    if not is_abelian(H):
        raise ValueError("subgroup is not abelian")
    H = H.enumerated(cap)
    p = H.group.p
    s = [_log_p(H.order, p)]
    current = H
    while current.order > 1:
        current = power_subgroup(current, p, cap)
        s.append(_log_p(current.order, p))
    return _factors_from_power_orders(s, p)


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


def abelianization_invariants(H: Subgroup, cap: int = DEFAULT_CAP) -> list[int]:
    """Invariant factors of H/H' without building the quotient.

    |(H/H')^(p^j)| = |H^(p^j) * H'| / |H'|, and the factor profile follows
    as in abelian_invariants.
    """
    H = H.enumerated(cap)
    p = H.group.p
    derived = derived_subgroup(H, cap)
    d = _log_p(derived.order, p)
    s = []
    j = 0
    while True:
        hp = power_subgroup(H, p**j, cap)
        quotient_order = subgroup_product(hp, derived, cap).order // derived.order
        s.append(_log_p(quotient_order, p))
        if quotient_order == 1:
            break
        j += 1
    return _factors_from_power_orders(s, p)


def fingerprint(H: Subgroup, cap: int = DEFAULT_CAP) -> IsoType:
    """IsoType of H: exact invariants when abelian, fingerprint otherwise."""
    H = H.enumerated(cap)
    if is_abelian(H):
        return IsoType("abelian", tuple(abelian_invariants(H, cap)))
    p = H.group.p
    zc = center(H, cap)
    dv = derived_subgroup(H, cap)
    powers = []
    current = H
    j = 1
    while True:
        current = power_subgroup(H, p**j, cap)
        powers.append(current.order)
        if current.order == 1:
            break
        j += 1
    fp = (H.order, H.exponent(), zc.order, str(fingerprint(zc, cap)),
          dv.order, str(fingerprint(dv, cap)),
          str(IsoType("abelian", tuple(abelianization_invariants(H, cap)))),
          tuple(powers))
    return IsoType("fingerprint", fingerprint=fp)


def order_histogram(H: Subgroup) -> dict[int, int]:
    """Map element order -> count; a cheap isomorphism invariant."""
    H._require_elements()
    G = H.group
    hist: dict[int, int] = {}
    for x in H.elements:
        o = G.element_order(x)
        hist[o] = hist.get(o, 0) + 1
    return hist


def _conjugacy_classes(H: Subgroup) -> Iterator[set[Element]]:
    """The conjugacy classes of an enumerated subgroup, as element sets."""
    H._require_elements()
    G = H.group
    left: set[Element] = set(H.elements)
    while left:
        x = left.pop()
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in H.generators:
                z = G.conjugate(y, g)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        left -= orbit
        yield orbit


def conjugacy_class_sizes(H: Subgroup) -> list[int]:
    """Sorted conjugacy class sizes of an enumerated subgroup."""
    return sorted(len(orbit) for orbit in _conjugacy_classes(H))


def joint_order_class_histogram(H: Subgroup) -> tuple:
    """Sorted ((element order, class size), count) pairs, counted by element."""
    G = H.group
    pairs: Counter = Counter()
    for orbit in _conjugacy_classes(H):
        pairs[(G.element_order(next(iter(orbit))), len(orbit))] += len(orbit)
    return tuple(sorted(pairs.items()))


def pth_power_in_commutator_closure_count(H: Subgroup) -> int:
    """#{x in H : x^p lies in the normal closure in H of [x, H]}.

    An isomorphism invariant that separates groups the class and order
    statistics cannot.
    """
    H._require_elements()
    G = H.group
    count = 0
    for x in H.elements:
        image = _conjugation_closure(G, (G.commutator(x, g) for g in H.generators),
                                     H.generators, H.order)  # stays inside H
        if G.power(x, G.p) in image:
            count += 1
    return count
