"""Brute-force Lie power chains inside the group algebra F_p[G].

This is the package's ground truth: the algebra is materialized as a
dim x dim multiplication table of basis indices, the upper chain

    M^(1) = F_p[G],   M^(n+1) = ideal generated by [M^(n), F_p[G]]

and the lower chain of left-normed bracket spans

    V_1 = F_p[G],     V_(n+1) = span of [V_n, F_p[G]]

are computed as explicit subspaces, and the nilpotency indices are the
chains' lengths, the first index whose term vanishes.  The lower chain's
terms are the spans V_n, not the ideals they generate; the two vanish
together, so t_L is the same either way.  The upper chain brackets
against the group generators alone and closes the brackets' span under
right multiplication by the generators: the ideal is the right ideal
[M^(n), F_p[G]] F_p[G] (`upper_lie_chain` gives the argument).  The
lower chain brackets each span against one element per orbit of the
non-central elements under conjugation and central translation
(x -> h^-1 x h z), found from the multiplication table alone
(`lower_lie_chain` gives the argument).  Both products of an element
with a basis element are column gathers through the table.  Everything
here is exact arithmetic mod p on numpy arrays, and even |G'|, which
bounds the chains' length, is read off the table; nothing is shared
with the Jennings-style computation in lienil.dimension and
lienil.subgroups, so the two routes cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from lienil.fp_linalg import EchelonAccumulator, close_under
from lienil.pcgroup import Element, PcGroup

DEFAULT_ORACLE_CAP = 256


class OracleCapExceeded(RuntimeError):
    """The group is too large for the dense-algebra oracle."""


class NotLieNilpotentDetected(RuntimeError):
    """The chain went stationary at a nonzero term (or ran past its bound)."""


@dataclass
class GroupAlgebra:
    """F_p[G] with a dense basis-index multiplication table.

    Attributes:
        group: the underlying group.
        p: the coefficient characteristic (always the group prime here).
        elements: basis order; elements[0] is the identity.
        table: table[a, b] = index of elements[a] * elements[b].
        generator_indices: positions of the pc generators in `elements`.
    """

    group: PcGroup
    p: int
    elements: list[Element]
    table: np.ndarray
    generator_indices: tuple[int, ...]
    index: dict[Element, int] = field(repr=False, default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.elements)

    @cached_property
    def chain_bound(self) -> int:
        """|G'| + 2, the a-priori stopping bound for both Lie chains.

        G' is closed off the table from the commutators [x, g] over x in G
        and the pc generators g.  They generate G': the subgroup N they
        generate is normal, as [x, g]^y = [xy, g] [y, g]^-1, and modulo N
        every x commutes with every generator.  In a finite group, closing
        {1} under right multiplication by them gives N.
        """
        t, inv = self.table, self.inverse_indices
        comms = np.unique([t[t[inv, inv[g]], t[:, g]] for g in self.generator_indices])
        members = np.zeros(1, dtype=t.dtype)
        while len(grown := np.union1d(members, t[np.ix_(members, comms)])) > len(members):
            members = grown
        return len(members) + 2

    @cached_property
    def inverse_indices(self) -> np.ndarray:
        """inverse_indices[b] = index of elements[b]^-1."""
        return np.argmin(self.table, axis=1)

    def bracket_with_basis(self, block: np.ndarray, b: int) -> np.ndarray:
        """[v, e_b] = v*e_b - e_b*v for each row v of a block of residues.

        With e_c = e_b^-1, coordinate y of v*e_b is v[y*c] and that of
        e_b*v is v[c*y], so both products are column gathers.
        """
        c = self.inverse_indices[b]
        out = block[:, self.table[:, c]]
        out -= block[:, self.table[c, :]]
        # residues in, so out lies in (-p, p): one conditional add reduces it
        return np.add(out, self.p, out=out, where=out < 0)


def build_algebra(G: PcGroup, cap: int = DEFAULT_ORACLE_CAP) -> GroupAlgebra:
    """Materialize F_p[G]; refuses groups with more than `cap` elements."""
    if G.order > cap:
        raise OracleCapExceeded(
            f"group order {G.order} exceeds the oracle cap {cap}"
        )
    p = G.p
    gens = list(G.generators())
    # BFS enumeration by right multiplication; identity first.  Every element
    # is expanded once, so the search meets each product x * g exactly once:
    # right[k, x] = index(elements[x] * gens[k]) is the generator's column.
    elements: list[Element] = [G.identity]
    index: dict[Element, int] = {G.identity: 0}
    right = np.empty((len(gens), G.order), dtype=np.int32)
    frontier = [0]
    while frontier:
        nxt: list[int] = []
        for xi in frontier:
            x = elements[xi]
            for k, g in enumerate(gens):
                y = G.multiply(x, g)
                yi = index.get(y)
                if yi is None:
                    yi = index[y] = len(elements)
                    elements.append(y)
                    nxt.append(yi)
                right[k, xi] = yi
        frontier = nxt
    dim = len(elements)
    assert dim == G.order, "enumeration does not match the declared order"

    # Column for element y: col_y[x] = index(elements[x] * y).  Columns for
    # the generators come from the search; every other column is a
    # composition col_{h*g} = col_g[col_h], filled in BFS discovery order so
    # col_h always exists before col_{h*g} is needed.
    cols = np.empty((dim, dim), dtype=np.int32)
    cols[:, 0] = np.arange(dim, dtype=np.int32)
    gen_indices = tuple(int(right[k, 0]) for k in range(len(gens)))
    for k, gi in enumerate(gen_indices):
        cols[:, gi] = right[k]
    done = {0, *gen_indices}
    for hi in range(dim):
        for k in range(len(gens)):
            yi = int(right[k, hi])
            if yi in done:
                continue
            cols[:, yi] = right[k][cols[:, hi]]
            done.add(yi)
    assert len(done) == dim
    return GroupAlgebra(group=G, p=p, elements=elements, table=cols,
                        generator_indices=gen_indices, index=index)


def _lie_chain(A: GroupAlgebra, against: Sequence[int],
               ideals: bool) -> list[np.ndarray]:
    """Terms from F_p[G] down to the first zero term, so the index is the
    length of the list.

    A term is the read-only RREF basis of a subspace of F_p[G], one row
    per dimension.  Each term is the span of [v, e_b] over v in a basis
    of the previous term and b in `against`, closed under right
    multiplication by the group generators when `ideals` is set.  The
    slow routes the tests compare the default seedings against pass
    every basis index, range(A.dim).

    Every term lies in the one before it: M^(n+1) lies in M^(n) because
    M^(n) is an ideal, and V_(n+1) = [V_n, F_p[G]] lies in
    [V_(n-1), F_p[G]] = V_n by induction from V_2 in V_1 = F_p[G].  So a
    term of the previous term's rank is the previous term itself.

    Raises:
        NotLieNilpotentDetected: a nonzero term repeats, or the chain
            runs past A.chain_bound terms.
    """
    kind = "upper" if ideals else "lower"
    # coordinate y of v * e_g is v[y * g^-1]
    right_gathers = [A.table[:, A.inverse_indices[g]] for g in A.generator_indices]
    terms = [np.eye(A.dim, dtype=np.int64)]
    terms[0].setflags(write=False)
    while len(terms[-1]):
        current = terms[-1]
        acc = EchelonAccumulator(A.p, A.dim)
        for b in against:
            acc.add_block(A.bracket_with_basis(current, b))
        nxt = close_under(acc, right_gathers) if ideals else acc.basis
        if len(nxt) == len(current):
            raise NotLieNilpotentDetected(
                f"{kind} chain went stationary at nonzero dimension "
                f"{len(current)}: not Lie nilpotent (or a bug)"
            )
        terms.append(nxt)
        if len(terms) > A.chain_bound + 1:
            raise NotLieNilpotentDetected(
                f"{kind} chain exceeded {A.chain_bound} terms without "
                "vanishing: not Lie nilpotent (or a bug)"
            )
    return terms


def upper_lie_chain(A: GroupAlgebra) -> list[np.ndarray]:
    """The chain M^(n): each term is the ideal generated by brackets of the
    previous term against the algebra; its length is t^L.

    Each term is T * F_p[G], where T is the span of [v, g] over v in a
    basis of M^(n) and the group generators g; closing T under right
    multiplication by the generators gives T * F_p[G], since every
    element of G is a word in them.  With L = [M^(n), F_p[G]], this is
    the two-sided ideal F_p[G] L F_p[G]:

    1. [v, yg] = [v, y]g + [v, g]y - [[v, g], y], and [v, g] lies in the
       ideal M^(n).  By induction on the word length of x, every
       [v, x] with v in M^(n) lies in T * F_p[G]; so L lies in it.
    2. L is a Lie ideal: for l in L and x in F_p[G], x l = l x - [l, x]
       with [l, x] in L, since l lies in M^(n).  So F_p[G] L lies in
       L * F_p[G], and F_p[G] L F_p[G] = L * F_p[G] = T * F_p[G].
    """
    return _lie_chain(A, A.generator_indices, ideals=True)


def _orbit_representatives(A: GroupAlgebra) -> tuple[int, ...]:
    """One basis index per orbit of the non-central elements of G under
    x -> h^-1 x h z (h in G, z in Z(G)), the least index of each orbit.

    Read from the multiplication table alone: x is central iff it commutes
    with every generator, and conjugation by a generator g is
    x -> g^-1 (x g).  Conjugation permutes the cosets xZ, so the orbit of
    x is the union of the cosets yZ over the conjugates y of x.
    """
    table, inv = A.table, A.inverse_indices
    gens = A.generator_indices
    central = np.ones(A.dim, dtype=bool)
    for g in gens:
        central &= table[:, g] == table[g, :]
    centre = np.flatnonzero(central)
    conj = [table[inv[g], table[:, g]] for g in gens]
    seen = central.copy()
    reps: list[int] = []
    for x in range(A.dim):
        if seen[x]:
            continue
        reps.append(x)
        cls = {x}
        frontier = [x]
        while frontier:
            frontier = [y for c in conj for y in c[frontier].tolist()
                        if y not in cls]
            cls.update(frontier)
        seen[table[np.fromiter(cls, dtype=np.int64)][:, centre]] = True
    return tuple(reps)


def lower_lie_chain(A: GroupAlgebra) -> list[np.ndarray]:
    """The left-normed bracket spans V_n; the chain's length is t_L.

    V_1 = F_p[G]; V_{n+1} = span of [v, e_b] over v in a basis of V_n and
    the basis elements e_b.  The terms are these spans themselves, not the
    ideals they generate: an ideal vanishes exactly when its generating
    span does, so the index is the same.  The spans do not absorb
    products, so no generator reduction is valid here.

    Instead b runs over one representative per orbit of the non-central
    elements of G under x -> h^-1 x h z (h in G, z in Z(G)); central
    elements bracket to 0.  Let W be the span of [V_n, b] over the
    representatives.  Then W = V_{n+1}:

    1. For central z, [v, b] z = [v z, b] and V_m z = V_m, so W z = W and
       [u, b z] = [u z, b] lies in W for u in V_m, m >= n.
    2. For u in V_m, m >= n, and a = h^-1 b: b^h = b + [a, h], so
       [u, b^h] = [u, b] + [u, [a, h]], and by Jacobi
       [u, [a, h]] = [[u, a], h] - [[u, h], a] lies in V_{m+2}.
    3. V_m lies in V_n, so [u, b] lies in W; by 1 and 2, V_{m+1} is in
       W + V_{m+2} for every m >= n.
    4. F_p[G] is Lie nilpotent for a finite p-group, so V_N = 0 for some N;
       hence V_{n+1} is in W, and W is in V_{n+1} trivially.
    """
    return _lie_chain(A, _orbit_representatives(A), ideals=False)


def t_upper_direct(G: PcGroup, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """t^L of F_p[G] read off the upper chain."""
    return len(upper_lie_chain(build_algebra(G, cap)))


def t_lower_direct(G: PcGroup, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """t_L of F_p[G] read off the lower chain."""
    return len(lower_lie_chain(build_algebra(G, cap)))
