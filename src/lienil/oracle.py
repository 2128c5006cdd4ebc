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
by the Burnside basis theorem, often far fewer than the pc generators.

Both chains are graded by G/G': every term is spanned by elements each
supported on one coset of G', and so is each row of its reduced
row-echelon basis (`_lie_chain` gives the argument).  `build_algebra`
lists the basis coset by coset of G'.

The upper chain is computed inside F_p[G'] alone.  M^(n) is a two-sided
ideal, so its part in the coset c = x G' is I_n x, with I_n the
intersection of M^(n) and F_p[G'], and dim M^(n) = |G : G'| dim I_n.
I_(n+1) is the span of v - g v g^-1 and v - v h over a basis of I_n, g
in S and h in a minimal generating set H of G'; that span is already a
right ideal of F_p[G'] (`_upper_ideals` gives the argument).  Both
moves are gathers within G', so each step is one elimination of width
|G'|, and no element is bracketed.  I_m also gives the Lie dimension
subgroups (`lie_dimension_orders`).

The lower chain brackets the basis of V_n, and the brackets' span is
V_(n+1) itself.  Its first step brackets against S, since
[a, bc] = [ab, c] + [ca, b] makes [F_p[G], F_p[G]] the span of
[F_p[G], S]; later steps bracket against one element per orbit of the
non-central elements under conjugation and central translation
(x -> h^-1 x h z) (`lower_lie_chain` gives the argument).  A lower term
is |G : G'| echelon blocks of width |G'|, one per coset, eliminated
together as one stack (fp_linalg.EchelonAccumulator with one grade per
coset), which does about |G : G'| times fewer flops than one dense
basis of width |G|.  The blocks are the only form a lower term takes:
its dimension is the number of pivots in its blocks.

S, H, the orbits and the centre are all found from the multiplication
table alone, and both products of an element with a basis element are
column gathers through it.

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

from lienil.fp_linalg import EchelonAccumulator, to_layers
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
        """A minimal generating set S of G, read off the table by
        `_burnside_basis` from the pc generators, in order: by the
        Burnside basis theorem it has log_p [G : Phi(G)] elements."""
        return _burnside_basis(self.table, self.p, self.cosets[0], self.generator_indices)

    @cached_property
    def derived_generators(self) -> tuple[int, ...]:
        """A minimal generating set H of G', read off the table alone.

        G' is the indices below m = |G'|, and the top-left m x m corner of
        the table is its multiplication table.  The commutators [x, g]
        over x in G and g in S generate G' (`_derived_subgroup`), so
        `_burnside_basis` picks H from them, ascending, against the
        derived subgroup G'' that they give on that corner.
        """
        m = self.cosets.shape[1]
        comms = _commutators(self.table, self.generators)
        corner = self.table[:m, :m]
        second = np.flatnonzero(_derived_subgroup(corner, comms))
        return _burnside_basis(corner, self.p, second, comms.tolist())

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


def _commutators(table: np.ndarray, generators: Sequence[int]) -> np.ndarray:
    """The indices of the commutators [x, g] = x^-1 g^-1 x g over every x
    and the generators g, ascending."""
    inv = np.argmin(table, axis=1)
    is_comm = np.zeros(len(table), dtype=bool)
    for g in generators:
        is_comm[table[table[inv, inv[g]], table[:, g]]] = True
    return np.flatnonzero(is_comm)


def _derived_subgroup(table: np.ndarray, generators: Sequence[int]) -> np.ndarray:
    """Boolean mask of G', closed off a multiplication table whose
    generators generate G.

    G' is generated by the commutators [x, g] over x in G and the
    generators g (`_commutators`): the subgroup N they generate is
    normal, as [x, g]^y = [xy, g] [y, g]^-1, and modulo N every x
    commutes with every generator.  In a finite group, closing {1} under
    right multiplication by them gives N.
    """
    comms = _commutators(table, generators)
    members = np.zeros(len(table), dtype=bool)
    members[0] = True
    size = 0
    while (grown := int(members.sum())) > size:
        size = grown
        members[table[np.ix_(np.flatnonzero(members), comms)]] = True
    return members


def _burnside_basis(table: np.ndarray, p: int, derived: np.ndarray,
                    candidates: Sequence[int]) -> tuple[int, ...]:
    """A minimal generating set of a p-group K, given its multiplication
    table, the indices of K' and candidates that generate K: the
    candidates, in order, that lie outside the subgroup H generated by
    Phi(K) and the ones kept before them.

    Phi(K) = K' K^p, and K/K' is abelian, so the cosets x^p K' make up
    (K/K')^p and Phi(K) is the set of products K' x^p.  Every H that
    contains Phi(K) is normal in K, so <H, g> is the union of the cosets
    H g^k, and the loop adds them until one is H again.  The kept
    candidates are a basis of K/Phi(K), so by the Burnside basis theorem
    they generate K, and there are log_p [K : Phi(K)] of them.
    """
    xs = np.arange(len(table))
    powers = xs
    for _ in range(p - 1):
        powers = table[powers, xs]
    members = np.zeros(len(table), dtype=bool)
    members[table[np.ix_(derived, powers)]] = True
    kept: list[int] = []
    for g in candidates:
        if members[g]:
            continue
        kept.append(g)
        coset = np.flatnonzero(members)
        while True:
            coset = table[coset, g]
            if members[coset[0]]:
                break
            members[coset] = True
    return tuple(kept)


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


def _guard(A: GroupAlgebra, kind: str, rank: int, nxt_rank: int, length: int) -> None:
    """Refuse a step of the `kind` chain from a term of dimension `rank`
    to one of `nxt_rank` that makes the chain `length` terms long.

    Every term lies in the one before it (see `_lie_chain` and
    `_upper_ideals`), so a term of the previous term's rank is the
    previous term itself, and the chain would repeat it for ever.  The
    ranks are dimensions in F_p[G]: a lower term's pivots over all its
    blocks, and |G : G'| dim I_n for the upper term M^(n), whose part
    I_n in F_p[G'] is one elimination.

    Raises:
        NotLieNilpotentDetected: the rank repeats, or the chain runs past
            A.chain_bound terms.
    """
    if nxt_rank == rank:
        raise NotLieNilpotentDetected(
            f"{kind} chain went stationary at nonzero dimension "
            f"{rank}: not Lie nilpotent (or a bug)"
        )
    if length > A.chain_bound + 1:
        raise NotLieNilpotentDetected(
            f"{kind} chain exceeded {A.chain_bound} terms without "
            "vanishing: not Lie nilpotent (or a bug)"
        )


def _lie_chain(A: GroupAlgebra) -> list[np.ndarray]:
    """The lower chain's terms V_n, from F_p[G] down to the first zero
    term, each as the (k, m, m) square stack of its echelon blocks, so
    the index is the length of the list.

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
    set A.generators, and every later step against the orbit
    representatives `_orbit_representatives(A)` (`lower_lie_chain` gives
    the argument).  The term is the span of the [v, e_b].  The basis is
    listed coset by coset, so the grades are the cosets, and a layer
    (fp_linalg.to_layers), one homogeneous row per coset side by side, is
    an element of the algebra: one gather brackets every coset's rows at
    once and moves each to its new coset.

    The brackets are fed to the accumulator in blocks of at most A.dim
    layers.

    V_(n+1) = [V_n, F_p[G]] lies in [V_(n-1), F_p[G]] = V_n by induction
    from V_2 in V_1 = F_p[G], so `_guard` applies.

    Raises:
        NotLieNilpotentDetected: see `_guard`.
    """
    k, m = A.cosets.shape
    terms = [np.tile(np.eye(m), (k, 1, 1))]
    spanning = to_layers(terms[0], np.ones((k, m), dtype=bool))
    bracketing = np.asarray(A.generators)
    representatives = np.asarray(_orbit_representatives(A))
    rank = A.dim
    while rank:
        acc = EchelonAccumulator(A.p, A.dim, grades=k)
        per_block = max(1, A.dim // len(spanning))
        for lo in range(0, len(bracketing), per_block):
            acc.add_block(A.bracket_with_basis(spanning, bracketing[lo:lo + per_block]))
        _guard(A, "lower", rank, acc.dim, len(terms) + 1)
        terms.append(acc.square)
        spanning, bracketing, rank = acc.basis, representatives, acc.dim
    return terms


def _dimensions(squares: list[np.ndarray]) -> list[int]:
    """The number of pivots of each square form or stack of them, the 1s
    on their diagonals."""
    return [int(np.count_nonzero(np.diagonal(square, axis1=-2, axis2=-1)))
            for square in squares]


def _upper_moves(A: GroupAlgebra) -> np.ndarray:
    """The gathers of an upper step, as rows of an (|S| + |H|, m) array
    of indices into G', the indices below m = |G'|: first conjugation
    v -> g v g^-1 by each g in S = A.generators, whose coordinate y is
    v[g^-1 y g], then right multiplication v -> v h by each h in
    H = A.derived_generators, whose coordinate y is v[y h^-1].  G' is
    normal, so every entry is below m."""
    m = A.cosets.shape[1]
    table, inv, ys = A.table, A.inverse_indices, np.arange(m)
    conjugations = [table[table[inv[g], ys], g] for g in A.generators]
    translations = [table[ys, inv[h]] for h in A.derived_generators]
    return np.array(conjugations + translations, dtype=np.intp).reshape(-1, m)


def _upper_step(A: GroupAlgebra, ideal: np.ndarray, moves: np.ndarray) -> EchelonAccumulator:
    """I_(n+1), as an accumulator of width m = |G'| with one grade, from
    the basis rows of I_n, int64 residues over G' (see `_upper_ideals`).

    The rows v - v^t, over the basis rows v and the gathers t of
    `_upper_moves`, are fed as one block of at most m (|S| + |H|) rows,
    and their span is I_(n+1).
    """
    m = A.cosets.shape[1]
    acc = EchelonAccumulator(A.p, m)
    block = ideal[:, None, :] - ideal[:, moves]
    # residues in, so the block lies in (-p, p): one conditional add reduces it
    np.add(block, A.p, out=block, where=block < 0)
    acc.add_block(block.reshape(-1, m))
    return acc


def _upper_ideals(A: GroupAlgebra) -> list[np.ndarray]:
    """The intersections I_n of the upper chain's terms M^(n) with
    F_p[G'], from I_1 = F_p[G'] down to the first zero term, each as the
    (m, m) square form of its RREF (see fp_linalg.EchelonAccumulator),
    m = |G'|.

    M^(n) is a two-sided ideal graded by G/G': products and brackets of
    homogeneous elements are homogeneous (`_lie_chain` gives the
    grading), so M^(n) is spanned by homogeneous elements.  Its
    component in the coset c = x_c G' is I_n x_c, for any x_c in c: right
    multiplication by x_c and by x_c^-1 moves M^(n) into itself and
    F_p[G'] onto F_p[c] and back.  So M^(n) is the direct sum of the
    I_n x_c over the cosets, dim M^(n) = |G : G'| dim I_n, and the chain,
    from M^(1) = F_p[G] down to the first zero term, is the chain of the
    I_n.

    Write v^g = g v g^-1.  I_n is an ideal of F_p[G'], and I_n^g = I_n
    for g in G, as M^(n) is an ideal.  With S = A.generators and
    H = A.derived_generators, generating G and G':

        I_(n+1) = span of v - v^g and v - v h, over v in a basis of I_n,
                  g in S and h in H, times F_p[G'].

    1. By `upper_lie_chain`, M^(n+1) = T F_p[G], where T is the span of
       the [v x_c, g] over v in a basis of I_n, the cosets c and g in S:
       the v x_c are a basis of M^(n).  [v x_c, g] lies in coset
       c' = x_c g G', so the part of T F_p[G] in G' is the sum of the
       [v x_c, g] (x_c g)^-1 F_p[G'], and
       [v x_c, g] (x_c g)^-1 = v - v^g d, with d = g x_c g^-1 x_c^-1 in
       G', which is v - v^g + v^g (1 - d).
    2. With x_c = 1, d = 1: v - v^g lies in I_(n+1).
    3. For v in I_n and a, b in G, va lies in M^(n), and
       v (1 - [b, a]) = ([va, b] - [v, b] a)(ab)^-1 with
       [b, a] = b a b^-1 a^-1, so it lies in M^(n+1), and in F_p[G'].
       v (1 - d e) = v (1 - d) + (v d)(1 - e) with v d in I_n, so the
       d in G' with every v (1 - d) in I_(n+1) form a subgroup, which
       holds the commutators, so is G'.  So I_n w(G') lies in I_(n+1),
       w(G') the augmentation ideal, and v^g (1 - d) lies in it.  By the
       same identity, I_n w(G') is the span of the v - v h over v in I_n
       and h in H, and it is a right ideal.
    4. So I_(n+1) is the span of the v - v^g and v - v h, times F_p[G'],
       and that span is already a right ideal of F_p[G'], so it is
       I_(n+1) itself.  H generates G' and G' is finite, so it is enough
       that right multiplication by each h in H keeps the span.  With
       u = v h in I_n, (v - v^g) h = (u - u^g) + v^g h^g (1 - (h^g)^-1 h),
       whose second term lies in I_n w(G').  And
       (v - v h') h = (v - v h' h) - (v - v h), with both terms in
       I_n w(G'), the span of the v - v h by step 3.

    Both moves are gathers within G' (`_upper_moves`), so a step works
    on |G'| columns and rows only, and never brackets.
    M^(n+1) lies in the ideal M^(n), so I_(n+1) lies in I_n, and
    `_guard` applies, to the dimensions of the M^(n).

    Raises:
        NotLieNilpotentDetected: see `_guard`.
    """
    k, m = A.cosets.shape
    moves = _upper_moves(A)
    terms = [np.eye(m)]
    ideal = np.eye(m, dtype=np.int64)
    rank = A.dim
    while rank:
        acc = _upper_step(A, ideal, moves)
        _guard(A, "upper", rank, k * acc.dim, len(terms) + 1)
        terms.append(acc.square[0])
        ideal, rank = acc.basis, k * acc.dim
    return terms


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

    The terms are computed inside F_p[G'] alone: dim M^(n) is
    |G : G'| dim I_n, with I_n the intersection of M^(n) and F_p[G']
    (`_upper_ideals`).
    """
    k = A.cosets.shape[0]
    return [k * d for d in _dimensions(_upper_ideals(A))]


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
    the cosets yZ over the conjugates y of x.  Each element starts with
    the least index of its coset xZ as its label, and takes the least of
    its own label and that of its conjugate by each generator, until no
    label changes.  Conjugation by a generator is a permutation of
    finite order, so then every label is the least index of its orbit,
    and the representatives are the non-central x labelled x.
    """
    table, inv = A.table, A.inverse_indices
    conj = [table[inv[g], table[:, g]] for g in A.generators]
    label = table[:, A.centre].min(axis=1)
    while True:
        before = label
        for c in conj:
            label = np.minimum(label, label[c])
        if np.array_equal(label, before):
            break
    xs = np.arange(A.dim)
    least = label == xs
    least[A.centre] = False
    reps = xs[least]
    m = A.cosets.shape[1]
    return tuple(reps[np.lexsort((reps // m, reps % m))].tolist())


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
    return _dimensions(_lie_chain(A))


def lie_dimension_orders(A: GroupAlgebra) -> list[int]:
    """[|D_(2)|, |D_(3)|, ...] read off the upper chain, ending at the first
    trivial term, as dimension.lie_dimension_chain ends.

    The Lie dimension subgroup D_(m) is the set of g in G with
    e_g - e_1 in M^(m) (Passi and Sehgal, Comm. Algebra 3, 1975), and for
    m >= 2 it lies in G', so g lies in D_(m) exactly when e_g - e_1 lies
    in I_m, the intersection of M^(m) and F_p[G'] (`_upper_ideals`), that
    is, reduces to 0 against I_m's square form: v - v @ square is v
    reduced (see fp_linalg.EchelonAccumulator), one product per term for
    all of G' at once, exact in float64 for the widths the accumulator
    admits.  The last term is 0, where only the identity passes, so the
    list ends.
    """
    m = A.cosets.shape[1]
    differences = np.eye(m)
    differences[:, 0] -= 1  # row g: e_g - e_1, the identity at column 0
    differences %= A.p
    orders = []
    for square in _upper_ideals(A)[1:]:
        residual = np.mod(differences - differences @ square, A.p)
        orders.append(m - int(residual.any(axis=1).sum()))
        if orders[-1] == 1:
            break
    return orders


def t_upper_direct(G: PcGroup, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """t^L of F_p[G], the length of the upper chain."""
    return len(upper_lie_chain(build_algebra(G, cap)))

