"""Brute-force Lie power chains inside the group algebra F_p[G].

This is the package's ground truth: the algebra is materialized as a
dim x dim multiplication table of basis indices, the upper chain

    M^(1) = F_p[G],   M^(n+1) = ideal generated by [M^(n), F_p[G]]

and the lower chain of left-normed bracket spans

    V_1 = F_p[G],     V_(n+1) = span of [V_n, F_p[G]]

are computed as explicit subspaces.  `upper_lie_chain` and
`lower_lie_chain` return the dimension of each term, from F_p[G] down to
the first zero term, so the nilpotency indices are the lists' lengths.
The lower chain's terms are the spans V_n, not the ideals they generate;
the two vanish together, so t_L is the same either way.  Both chains
use a minimal generating set S of G, d(G) = log_p [G : Phi(G)] elements
by the Burnside basis theorem, often far fewer than the pc generators.  The
upper chain brackets against S alone and closes the brackets' span
under right multiplication by S: the ideal is the right ideal
[M^(n), F_p[G]] F_p[G] (`upper_lie_chain` gives the argument).  The
lower chain brackets the basis of V_n, and the brackets' span is
V_(n+1) itself.  Its first step brackets against S, since
[a, bc] = [ab, c] + [ca, b] makes [F_p[G], F_p[G]] the span of
[F_p[G], S]; later steps bracket against one element per orbit of the
non-central elements under conjugation and central translation
(x -> h^-1 x h z) (`lower_lie_chain` gives the argument).  S, the
orbits and the centre are all found from the multiplication table
alone, and both products of an element with a basis element are column
gathers through it.

Both chains are graded by G/G': every term is spanned by elements each
supported on one coset of G', and so is each row of its reduced
row-echelon basis (`_lie_chain` gives the argument).  `build_algebra`
lists the basis coset by coset of G', so a term is |G : G'| echelon
blocks of width |G'|, one per coset, eliminated together as one stack
(fp_linalg.EchelonAccumulator with one grade per coset), which does
about |G : G'| times fewer flops than one dense basis of width |G|.  The
blocks are the only form a term takes: its dimension is the number of
pivots in its blocks, and block 0, the coset G', gives the Lie dimension
subgroups (`lie_dimension_orders`).

The multiplication table itself is read off G's pc relations by array
gathers, and no product is collected (`_pc_table` gives the
construction and its proof).

Everything here is exact arithmetic mod p on numpy arrays, and even
|G'|, which bounds the chains' length, is read off the table; nothing is
shared with the Jennings-style computation in lienil.dimension and
lienil.subgroups, nor with the collector in lienil.pcgroup, so the two
routes cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from lienil.fp_linalg import EchelonAccumulator, close_under, to_layers
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
        elements: basis order, coset by coset of G'; elements[0] is the
            identity.
        table: table[a, b] = index of elements[a] * elements[b].
        generator_indices: positions of the pc generators in `elements`.
        cosets: the cosets of G' as a (|G : G'|, |G'|) index array, row c
            holding indices c*m to c*m + m, m = |G'|; row 0 is G'.
    """

    group: PcGroup
    p: int
    elements: list[Element]
    table: np.ndarray
    generator_indices: tuple[int, ...]
    cosets: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.elements)

    @cached_property
    def chain_bound(self) -> int:
        """|G'| + 2, the a-priori stopping bound for both Lie chains."""
        return self.cosets.shape[1] + 2

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A minimal generating set of G: the pc generators, in order,
        that lie outside the subgroup H generated by Phi(G) and the ones
        kept before them.

        Phi(G) = G' G^p, and G/G' is abelian, so the cosets x^p G' make
        up (G/G')^p and Phi(G) is the set of products G' x^p.  Every H
        that contains Phi(G) is normal in G, so <H, g> is the union of
        the cosets H g^k, and the loop adds them until one is H again.
        The kept generators are a basis of G/Phi(G), so by the Burnside
        basis theorem they generate G, and there are log_p [G : Phi(G)]
        of them.
        """
        xs = np.arange(self.dim)
        powers = xs
        for _ in range(self.p - 1):
            powers = self.table[powers, xs]
        members = np.zeros(self.dim, dtype=bool)
        members[self.table[np.ix_(self.cosets[0], powers)]] = True
        kept: list[int] = []
        for g in self.generator_indices:
            if members[g]:
                continue
            kept.append(g)
            coset = np.flatnonzero(members)
            while True:
                coset = self.table[coset, g]
                if members[coset[0]]:
                    break
                members[coset] = True
        return tuple(kept)

    @cached_property
    def inverse_indices(self) -> np.ndarray:
        """inverse_indices[b] = index of elements[b]^-1."""
        return np.argmin(self.table, axis=1)

    @cached_property
    def centre(self) -> np.ndarray:
        """Indices of the central elements, ascending: x is central iff it
        commutes with every element of a generating set, here the minimal
        one `generators`."""
        central = np.ones(self.dim, dtype=bool)
        for g in self.generators:
            central &= self.table[:, g] == self.table[g, :]
        return np.flatnonzero(central)

    def bracket_with_basis(self, block: np.ndarray, b: int | Sequence[int]) -> np.ndarray:
        """[v, e_b] = v*e_b - e_b*v for each row v of a block of residues.

        With e_c = e_b^-1, coordinate y of v*e_b is v[y*c] and that of
        e_b*v is v[c*y], so both products are column gathers.  For a
        sequence of indices b, one gather each brackets every row against
        all of them: the rows [v, e_b] for one v follow one another, in
        the order of b.
        """
        c = self.inverse_indices[b]
        out = block[:, self.table[:, c].T]
        out -= block[:, self.table[c, :]]
        # residues in, so out lies in (-p, p): one conditional add reduces it
        np.add(out, self.p, out=out, where=out < 0)
        return out.reshape(-1, self.dim)


def _derived_subgroup(table: np.ndarray, generators: Sequence[int]) -> np.ndarray:
    """Boolean mask of G', closed off a multiplication table whose
    generators generate G.

    G' is generated by the commutators [x, g] over x in G and the
    generators g: the subgroup N they generate is normal, as
    [x, g]^y = [xy, g] [y, g]^-1, and modulo N every x commutes with
    every generator.  In a finite group, closing {1} under right
    multiplication by them gives N.
    """
    inv = np.argmin(table, axis=1)
    is_comm = np.zeros(len(table), dtype=bool)
    for g in generators:
        is_comm[table[table[inv, inv[g]], table[:, g]]] = True
    comms = np.flatnonzero(is_comm)
    members = np.zeros(len(table), dtype=bool)
    members[0] = True
    size = 0
    while (grown := int(members.sum())) > size:
        size = grown
        members[table[np.ix_(np.flatnonzero(members), comms)]] = True
    return members


def _pc_table(G: PcGroup) -> np.ndarray:
    """The int32 multiplication table of G on pc indices, built from the
    relations alone: entry [x, y] is the pc index of x y, where an
    element's pc index is its exponent vector read in base p, with g_1
    as the top digit, so the identity is 0 and g_k is p^(n-k).

    Let G_k = <g_k, ..., g_n>, w_k = g_k^p the power relation, and
    g_j^(g_k) = g_j [g_j, g_k] the conjugates the commutator relations
    give.  The tables are built from G_(n+1) = 1 up to G_1 = G, each from
    the one before:

    1. G_k is normal in G: for j >= k, g_j^(g_i) is g_j [g_j, g_i] with
       [g_j, g_i] after g_j when i < j, and in G_(i+1) when i > j.  The
       relations among g_k, ..., g_n have their right-hand sides in
       G_(k+1), so G_k is the set of normal words in them, the elements
       with pc index below p^(n-k+1), and its table is the top-left
       corner of G_(k-1)'s.
    2. Write x = g_k^a s and y = g_k^b t with s, t in G_(k+1) and
       0 <= a, b < p.  Then x y = g_k^(a+b) s^(g_k^b) t.  When a + b >= p,
       g_k^(a+b) = g_k^(a+b-p) w_k with w_k in G_(k+1), so the carry is
       w_k multiplied on the left of s^(g_k^b) t.  So x y has the top
       digit (a + b) mod p, and its part in G_(k+1) is s^(g_k^b) t or
       w_k s^(g_k^b) t, entries of G_(k+1)'s table.
    3. Conjugation by g_k is an automorphism of G_(k+1) (by 1), so the
       image of g_j^e u, u in G_(j+1), is (g_j [g_j, g_k])^e times the
       image of u, a product in G_(k+1)'s table.  For j from n down to
       k + 1 this gives the image of every element of G_j, and at the end
       conjugation by g_k as one permutation of G_(k+1).  Conjugation by
       g_k^b is that permutation composed b times, built by doubling.

    A level makes O(log p) gathers for the compositions, p - 1 lookups
    per relation image for its powers, and a constant number of calls for
    its table, broadcast over a and b.  The presentation is consistent
    (PcGroup checks it), so these are the products of G, and no product
    is collected.
    """
    p, n = G.p, G.ngens

    def pc_index(x: Element) -> int:
        return int(np.ravel_multi_index(x, (p,) * n))

    digits = np.arange(p, dtype=np.int32)
    top = digits[:, None] + digits  # [a, b]: a + b, then the top digit of the product
    carry = top >= p
    np.subtract(top, p, out=top, where=carry)
    carry = carry[:, None, :, None]
    table = np.zeros((1, 1), dtype=np.int32)  # the trivial group below g_n
    for k in range(n - 1, -1, -1):  # indices from 0: this level adds generator k
        r = len(table)  # the order of the subgroup of the generators after k
        conj = np.zeros(1, dtype=np.int32)  # conjugation by generator k, on ever larger corners
        for j in range(n - 1, k, -1):
            image = p ** (n - 1 - j) + pc_index(G.commutator_relation(j, k))
            powers = [0]
            for _ in range(p - 1):
                powers.append(table[powers[-1], image])
            conj = table[np.array(powers)[:, None], conj].ravel()
        sigma = np.arange(r, dtype=np.int32)[None, :]  # row b: conjugation by g_k^b
        while len(sigma) < p:
            sigma = np.concatenate([sigma, conj[sigma[-1]][sigma]])[:p]
        tail = table[sigma].transpose(1, 0, 2)  # [s, b, t]: s^(g_k^b) t
        w = pc_index(G.power_relation(k))
        if w:
            tail = np.where(carry, table[w][tail], tail)
        table = (tail + (top * r)[:, None, :, None]).reshape(p * r, p * r)
    return table


def build_algebra(G: PcGroup, cap: int = DEFAULT_ORACLE_CAP) -> GroupAlgebra:
    """Materialize F_p[G], its basis listed coset by coset of G' (see
    GroupAlgebra.cosets); refuses groups with more than `cap` elements.

    The table is read off the pc relations by `_pc_table`; no product is
    collected.

    The basis is numbered in the order in which a breadth-first search
    from the identity meets the elements, by right multiplication by
    g_1, ..., g_n in turn, each element expanded once.  That order
    depends only on the products, so it is the order a search by
    collected products gives.  It is regrouped by coset of G': each
    coset in ascending search order, the cosets by their first element,
    so G' comes first and the identity keeps index 0.  The pc-indexed
    table is renumbered once, by the one composed permutation: one
    gather per axis and one for the entries.
    """
    if G.order > cap:
        raise OracleCapExceeded(
            f"group order {G.order} exceeds the oracle cap {cap}"
        )
    p, n, dim = G.p, G.ngens, G.order
    table = _pc_table(G)
    gens = [p ** (n - 1 - k) for k in range(n)]  # pc index of g_(k+1)
    successors = table[:, gens].tolist()
    seen = [True] + [False] * (dim - 1)
    found = [0]
    for x in found:  # the list grows as the search meets elements
        for y in successors[x]:
            if not seen[y]:
                seen[y] = True
                found.append(y)
    rank = np.empty(dim, dtype=np.intp)
    rank[found] = np.arange(dim)
    derived = np.flatnonzero(_derived_subgroup(table, gens))
    first = rank[table[:, derived]].min(axis=1)  # each element's coset, by its first element
    order = np.lexsort((rank, first))  # pc index of each new index
    position = np.empty(dim, dtype=np.intp)
    position[order] = np.arange(dim)
    # one take per axis, and the pc-indexed table is freed before the
    # entries are renumbered
    table = table.take(order, axis=0).take(order, axis=1)
    table = position.take(table)
    digits = np.unravel_index(order, (p,) * n)
    elements = list(zip(*(d.tolist() for d in digits)))
    return GroupAlgebra(group=G, p=p, elements=elements, table=table,
                        generator_indices=tuple(position[gens].tolist()),
                        cosets=np.arange(dim).reshape(-1, len(derived)))


def _right_gathers(A: GroupAlgebra, indices: Sequence[int]) -> np.ndarray:
    """Right multiplication by each e_g as a column gather: coordinate y
    of v * e_g is v[y * g^-1]."""
    return A.table[:, A.inverse_indices[list(indices)]].T


def _lie_chain(A: GroupAlgebra, against: Sequence[int], ideals: bool) -> list[np.ndarray]:
    """The terms from F_p[G] down to the first zero term, each as the
    (k, m, m) square stack of its echelon blocks, so the index is the
    length of the list.

    The grading: for x, b in G, bx = b(xb)b^-1, so xb and bx lie in one
    coset of G', and [e_x, e_b] = e_(xb) - e_(bx) lies in F_p[cG'] with
    c = xbG'.  So F_p[G] is the direct sum of the F_p[cG'] over the
    cosets, and the bracket, like the product, sends a homogeneous element
    of coset xG' and e_b to one of coset xbG'.  By induction every term
    below is spanned by homogeneous elements.  Then each row of its RREF
    is homogeneous: the row's component in its pivot's coset lies in the
    term, has the same pivot and is zero at the other pivots, so it is
    the row itself, the RREF being unique.  A term is therefore |G : G'|
    independent echelon blocks, each |G'| wide, held as one (k, m, m)
    square stack (an EchelonAccumulator with one grade per coset): block
    c is the RREF of the term's component in coset c, row c of A.cosets,
    the indices c*m to c*m + m.

    Each step brackets every basis row v of the previous term against a
    set of basis indices b: the first step against the minimal generating
    set A.generators, and every later step against `against`.  W is the
    span of the [v, e_b].  The lower chain's term is W; the upper chain's
    (`ideals`) is W closed under right multiplication by A.generators.  The
    basis is listed coset by coset, so the grades are the cosets, and a
    layer (fp_linalg.to_layers), one homogeneous row per coset side by
    side, is an element of the algebra: one gather brackets every coset's
    rows at once and moves each to its new coset.

    The brackets are fed to the accumulator in blocks of at most A.dim
    layers.

    Every term lies in the one before it: M^(n+1) lies in M^(n) because
    M^(n) is an ideal, and V_(n+1) = [V_n, F_p[G]] lies in
    [V_(n-1), F_p[G]] = V_n by induction from V_2 in V_1 = F_p[G].  So a
    term of the previous term's rank is the previous term itself.

    Raises:
        NotLieNilpotentDetected: a nonzero term repeats, or the chain
            runs past A.chain_bound terms.
    """
    kind = "upper" if ideals else "lower"
    k, m = A.cosets.shape
    terms = [np.tile(np.eye(m), (k, 1, 1))]
    spanning = to_layers(terms[0], np.ones((k, m), dtype=bool))
    gathers = _right_gathers(A, A.generators) if ideals else None
    bracketing = np.asarray(A.generators)
    rank = A.dim
    while rank:
        acc = EchelonAccumulator(A.p, A.dim, grades=k)
        per_block = max(1, A.dim // len(spanning))
        for lo in range(0, len(bracketing), per_block):
            acc.add_block(A.bracket_with_basis(spanning, bracketing[lo:lo + per_block]))
        spanning = close_under(acc, gathers) if ideals else acc.basis
        if (nxt_rank := acc.dim) == rank:
            raise NotLieNilpotentDetected(
                f"{kind} chain went stationary at nonzero dimension "
                f"{rank}: not Lie nilpotent (or a bug)"
            )
        terms.append(acc.square)
        if len(terms) > A.chain_bound + 1:
            raise NotLieNilpotentDetected(
                f"{kind} chain exceeded {A.chain_bound} terms without "
                "vanishing: not Lie nilpotent (or a bug)"
            )
        bracketing = np.asarray(against)
        rank = nxt_rank
    return terms


def _dimensions(squares: list[np.ndarray]) -> list[int]:
    """The dimension of each term: the number of its blocks' pivots, the
    1s on their diagonals."""
    return [int(np.count_nonzero(np.diagonal(square, axis1=1, axis2=2)))
            for square in squares]


def upper_lie_chain(A: GroupAlgebra) -> list[int]:
    """The dimensions of the chain M^(n), from F_p[G] down to the first
    zero term: each term is the ideal generated by brackets of the
    previous term against the algebra, and the list's length is t^L.

    Each term is T * F_p[G], where T is the span of [v, g] over v in a
    basis of M^(n) and g in any generating set S of G, here the minimal
    one A.generators; closing T under right multiplication by S gives
    T * F_p[G], since every element of G is a word in S.  With
    L = [M^(n), F_p[G]], this is the two-sided ideal F_p[G] L F_p[G]:

    1. [v, yg] = [v, y]g + [v, g]y - [[v, g], y], and [v, g] lies in the
       ideal M^(n).  By induction on the length of x as a word in S,
       every [v, x] with v in M^(n) lies in T * F_p[G]; so L lies in it.
    2. L is a Lie ideal: for l in L and x in F_p[G], x l = l x - [l, x]
       with [l, x] in L, since l lies in M^(n).  So F_p[G] L lies in
       L * F_p[G], and F_p[G] L F_p[G] = L * F_p[G] = T * F_p[G].
    """
    return _dimensions(_lie_chain(A, A.generators, ideals=True))


def _orbit_representatives(A: GroupAlgebra) -> tuple[int, ...]:
    """One basis index per orbit of the non-central elements of G under
    x -> h^-1 x h z (h in G, z in Z(G)), the least index of each orbit,
    listed by position within its coset of G' and then by coset.

    The order changes no term, but it changes the lower chain's cost:
    listed ascending, the representatives come coset by coset, and the
    lower chain of `dihedral:128` makes 556 reductions mod p
    (fp_linalg._residues) instead of 403.

    Read from the multiplication table alone: conjugation by a generator
    g is x -> g^-1 (x g), and the minimal generating set A.generators
    generates G, so its conjugations reach every conjugate of x.
    Conjugation permutes the cosets xZ, so the orbit of x is the union of
    the cosets yZ over the conjugates y of x.
    """
    table, inv = A.table, A.inverse_indices
    centre = A.centre
    conj = [table[inv[g], table[:, g]] for g in A.generators]
    seen = np.zeros(A.dim, dtype=bool)
    seen[centre] = True
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
    m = A.cosets.shape[1]
    return tuple(sorted(reps, key=lambda x: (x % m, x // m)))


def lower_lie_chain(A: GroupAlgebra) -> list[int]:
    """The dimensions of the left-normed bracket spans V_n, from F_p[G]
    down to the first zero term; the list's length is t_L.

    V_1 = F_p[G]; V_{n+1} = span of [v, e_b] over v in a basis of V_n and
    the basis elements e_b.  The terms are these spans themselves, not the
    ideals they generate: an ideal vanishes exactly when its generating
    span does, so the index is the same.

    The first step brackets against a generating set S of G, here the
    minimal one A.generators:

    0. [a, bc] = [ab, c] + [ca, b].  F_p[G] is closed under products, so
       by induction on the length of x as a word in S, every [a, x] with
       a in F_p[G] lies in the span of [F_p[G], S]; so V_2 is that span.

    For n >= 2, V_n is not closed under products and step 0 fails.
    There b runs over one representative per orbit of the non-central
    elements of G under x -> h^-1 x h z (h in G, z in Z(G)); central
    elements bracket to 0.  Let W be the span of [V_n, b] over the
    representatives.  Then W = V_{n+1}:

    1. V_m z = V_m for z in Z(G), by induction from V_1 = F_p[G]: for
       v in V_(m-1), [v, x] z = [v z, x], and right multiplication by z
       is invertible.  So [v, b] z = [v z, b] gives W z = W, and
       [u, b z] = [u z, b] lies in W for u in V_m, m >= n.
    2. For u in V_m, m >= n, and a = h^-1 b: b^h = b + [a, h], so
       [u, b^h] = [u, b] + [u, [a, h]], and by Jacobi
       [u, [a, h]] = [[u, a], h] - [[u, h], a] lies in V_{m+2}.
    3. V_m lies in V_n, so [u, b] lies in W; by 1 and 2, V_{m+1} is in
       W + V_{m+2} for every m >= n.
    4. F_p[G] is Lie nilpotent for a finite p-group, so V_N = 0 for some N;
       hence V_{n+1} is in W, and W is in V_{n+1} trivially.
    """
    return _dimensions(_lie_chain(A, _orbit_representatives(A), ideals=False))


def lie_dimension_orders(A: GroupAlgebra) -> list[int]:
    """[|D_(2)|, |D_(3)|, ...] read off the upper chain, ending at the first
    trivial term, as dimension.lie_dimension_chain ends.

    The Lie dimension subgroup D_(m) is the set of g in G with
    e_g - e_1 in M^(m) (Passi and Sehgal, Comm. Algebra 3, 1975), and for
    m >= 2 it lies in G', the coset of the identity, block 0 of each
    upper term.  So g lies in D_(m) exactly when e_g - e_1 reduces to 0
    against that block: v - v @ square[0] is v reduced (see
    fp_linalg.EchelonAccumulator), one product per term for all of G' at
    once, exact in float64 for the widths the accumulator admits.  The
    last term is 0, where only the identity passes, so the list ends.
    """
    m = A.cosets.shape[1]
    differences = np.eye(m)
    differences[:, 0] -= 1  # row g: e_g - e_1, the identity at column 0
    differences %= A.p
    orders = []
    for square in _lie_chain(A, A.generators, ideals=True)[1:]:
        residual = np.mod(differences - differences @ square[0], A.p)
        orders.append(m - int(residual.any(axis=1).sum()))
        if orders[-1] == 1:
            break
    return orders


def t_upper_direct(G: PcGroup, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """t^L of F_p[G], the length of the upper chain."""
    return len(upper_lie_chain(build_algebra(G, cap)))

