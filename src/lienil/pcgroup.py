"""Finite p-groups given by consistent polycyclic presentations.

A group of order p^n is described by a generator chain g1..gn with
relations

    g_i^p       = w_i      (a normal word on generators strictly after i)
    [g_j, g_i]  = w_{ji}   (j > i; a normal word on generators strictly
                            after j; omitted pairs commute)

using the commutator convention [x, y] = x^-1 y^-1 x y, so collection
rewrites g_j g_i -> g_i g_j [g_j, g_i] for j > i.  Every element then has a
unique normal form g1^e1 ... gn^en with exponents in [0, p), carried around
as a plain tuple, and products are collected on those tuples: a whole
syllable g_i^e moves at once, x g_i^e = a g_i^e b^(g_i^e) for x = a b with
b in <g_(i+1), ..., g_n>, and conjugation by g_i^e comes from memoized
generator images built by squaring on e (collection from the left:
Leedham-Green and Soicher, J. Symb. Comp. 9, 1990; Vaughan-Lee, ibid.).
A product costs a number of steps polynomial in n and log p, so no prime
below check_prime's bound is refused.  Relation words (Word) are kept
only for parsing and to_text.

The text format (one relation per line, generators named g1..gn, 1-based)::

    p 3
    gens 3
    pow 1 : 1
    pow 2 : 1
    pow 3 : 1
    comm 2 1 : g3^1
    id 27 3            # optional external library id
    expect zeta C3     # optional expected-invariant lines

Words are `gK^eK gL^eL ...` with strictly increasing K and exponents in
[1, p), or the single token `1` for the empty word.  `#` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterable, Optional

# A normal word: ((gen_index, exponent), ...) with 0-based strictly
# increasing gen_index and exponents in [1, p).
Word = tuple[tuple[int, int], ...]
Element = tuple[int, ...]


def _pc_index(x: Element) -> Optional[int]:
    """i when x is the pc generator g_i, else None."""
    return x.index(1) if 1 in x and x.count(0) == len(x) - 1 else None


# Miller-Rabin with the prime bases 2..41 is exact below _PRIME_TEST_BOUND
# (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def check_prime(p: int) -> int:
    """Validate that p is a prime usable as a field characteristic, by
    deterministic Miller-Rabin over _PRIME_BASES.

    Args:
        p: candidate modulus.

    Returns:
        p itself, for call chaining.

    Raises:
        ValueError: if p is not a prime number, or not below _PRIME_TEST_BOUND.
    """
    if not isinstance(p, Integral) or p < 2:
        raise ValueError(f"not a prime: {p!r}")
    n = int(p)
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: "
                         f"primes must be below {_PRIME_TEST_BOUND}")
    if n in _PRIME_BASES:
        return n
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 2**r, n) for r in range(s)):
            raise ValueError(f"not a prime: {n}")
    return n


class PresentationError(ValueError):
    """Raised for malformed or inconsistent presentations."""


@dataclass
class PresentationMeta:
    """Optional per-file annotations carried alongside a presentation."""

    small_group_id: Optional[tuple[int, int]] = None
    expect: dict[str, str] = field(default_factory=dict)


class PcGroup:
    """A consistent polycyclic presentation of a group of order p^ngens."""

    def __init__(self, p: int, ngens: int,
                 powers: dict[int, Word],
                 comms: dict[tuple[int, int], Word]):
        """Build a presentation from relation dictionaries (0-based indices).

        Args:
            p: the prime.
            ngens: number of polycyclic generators.
            powers: map i -> normal word for g_i^p; missing i means g_i^p = 1.
            comms: map (j, i) with j > i -> normal word for [g_j, g_i];
                missing pairs commute; trivial words may be omitted.
        """
        check_prime(p)
        if ngens < 1:
            raise PresentationError("need at least one generator")
        self.p = p
        self.ngens = ngens
        self.order = p**ngens
        for i in powers:
            if not (0 <= i < ngens):
                raise PresentationError(f"power relation index out of range: {i}")
        self._powers: list[Word] = [tuple(powers.get(i, ())) for i in range(ngens)]
        self._comms: dict[tuple[int, int], Word] = {}
        for (j, i), w in comms.items():
            if not (0 <= i < j < ngens):
                raise PresentationError(f"commutator pair out of order: ({j},{i})")
            if w:
                self._comms[(j, i)] = tuple(w)
        for i, w in enumerate(self._powers):
            self._validate_word(w, min_index=i + 1, what=f"pow {i+1}")
        for (j, i), w in self._comms.items():
            self._validate_word(w, min_index=j + 1, what=f"comm {j+1} {i+1}")
        self.identity: Element = (0,) * ngens
        self._generators: tuple[Element, ...] = tuple(
            self.identity[:i] + (1,) + self.identity[i + 1:] for i in range(ngens))
        # The relations as elements: w_i = g_i^p, and, under (i, 1), the
        # conjugates g_j^(g_i) = g_j w_ji, None where g_j commutes with g_i.
        # _images adds the conjugates by g_i^e under (i, e) on demand.
        self._power_rel: tuple[Element, ...] = tuple(
            self._word_element(w) for w in self._powers)
        conjugates: list[list[Optional[Element]]] = [[None] * ngens for _ in range(ngens)]
        for (j, i), w in self._comms.items():
            conjugates[i][j] = self._generators[j][:j + 1] + self._word_element(w)[j + 1:]
        self._partners: tuple[tuple[int, ...], ...] = tuple(
            tuple(j for j, c in enumerate(row) if c) for row in conjugates)
        # Bit j of _links[i] is set when [g_j, g_i] or [g_i, g_j] is a
        # nontrivial relation (see supports_commute).
        links = [0] * ngens
        for j, i in self._comms:
            links[i] |= 1 << j
            links[j] |= 1 << i
        self._links: tuple[int, ...] = tuple(links)
        self._image_memo: dict[tuple[int, int], tuple[Optional[Element], ...]] = {
            (i, 1): tuple(row) for i, row in enumerate(conjugates)}
        # The power series of this group's subgroups, keyed by their
        # canonical entries (lienil.subgroups.power_series).
        self.power_series_memo: dict = {}
        self._consistency_check()

    # -- word validation ------------------------------------------------

    def _validate_word(self, w: Word, min_index: int, what: str) -> None:
        prev = -1
        for gen, exp in w:
            if not (0 <= gen < self.ngens):
                raise PresentationError(f"{what}: generator g{gen+1} out of range")
            if gen < min_index:
                raise PresentationError(
                    f"{what}: relation references earlier-or-equal generator g{gen+1}")
            if gen <= prev:
                raise PresentationError(f"{what}: word indices not strictly increasing")
            if not (1 <= exp < self.p):
                raise PresentationError(f"{what}: exponent {exp} out of range [1,{self.p})")
            prev = gen

    # -- element arithmetic ----------------------------------------------

    def element(self, exponents: Iterable[int]) -> Element:
        e = tuple(int(v) % self.p for v in exponents)
        if len(e) != self.ngens:
            raise ValueError(f"need {self.ngens} exponents, got {len(e)}")
        return e

    def generator(self, i: int) -> Element:
        if not (0 <= i < self.ngens):
            raise ValueError(f"no generator {i}")
        return self._generators[i]

    def generators(self) -> tuple[Element, ...]:
        return self._generators

    def power_relation(self, i: int) -> Element:
        """g_i^p, read off the presentation (no collection)."""
        return self._power_rel[i]

    def commutator_relation(self, j: int, i: int) -> Element:
        """[g_j, g_i] for j > i, read off the presentation (no collection)."""
        return self._word_element(self._comms.get((j, i), ()))

    def _word_element(self, w: Word) -> Element:
        e = list(self.identity)
        for gen, exp in w:
            e[gen] = exp
        return tuple(e)

    # Collection from the left on exponent tuples.  An element of
    # G_(i+1) = <g_(i+1), ..., g_n> is a tuple that is 0 up to position i.
    # Collecting a syllable g_i^e forms products only inside G_(i+1) (the
    # tail's image and w_i times it), and _images(i, e) recurses on smaller
    # e, so the recursion ends within ngens levels, with no step limit.
    # The public methods below call only these private ones, so a caller's
    # product is one `multiply` call however it is collected.

    def _mul(self, x: Element, y: Element) -> Element:
        """x y: y's syllables collected into x one at a time."""
        if not any(x):
            return y
        collect = self._collect
        for i, e in enumerate(y):
            if e:
                x = collect(x, i, e)
        return x

    def _collect(self, x: Element, i: int, e: int) -> Element:
        """x g_i^e for 0 < e < p.  With x = a b, a ending at position i and
        b in G_(i+1), x g_i^e = a g_i^e b^(g_i^e); when the exponent at i
        reaches p, g_i^p = w_i joins b's image from the left."""
        # b^(g_i^e) = b unless b has a generator that g_i does not commute
        # with.  The test is a plain loop, not any() over a generator
        # expression, because every collected syllable runs it: making a
        # generator object per call was about a fifth of the collector's
        # time in a profile of `lienil index`.
        tail = x
        for j in self._partners[i]:
            if x[j]:
                tail = self._conj(x, i, e)
                break
        s = x[i] + e
        if s >= self.p:
            s -= self.p
            tail = self._mul(self._power_rel[i], self.identity[:i + 1] + tail[i + 1:])
        return x[:i] + (s,) + tail[i + 1:]

    def _conj(self, c: Element, i: int, e: int) -> Element:
        """c^(g_i^e) for c in G_(i+1); positions up to i of c are ignored.
        Conjugation is an automorphism, so c's image is the product of its
        generators' images."""
        images = self._images(i, e)
        out = self.identity
        for j in range(i + 1, self.ngens):
            b = c[j]
            if b:
                image = images[j]
                out = (self._collect(out, j, b) if image is None
                       else self._mul(out, image if b == 1 else self._pow(image, b)))
        return out

    def _images(self, i: int, e: int) -> tuple[Optional[Element], ...]:
        """The conjugates g_j^(g_i^e), memoized per (i, e) and built from
        g_i^(e - h) and g_i^h with h = e // 2; None where g_j commutes with
        g_i."""
        images = self._image_memo.get((i, e))
        if images is None:
            h = e // 2
            images = tuple(None if c is None else self._conj(c, i, h)
                           for c in self._images(i, e - h))
            self._image_memo[i, e] = images
        return images

    def _pow(self, x: Element, m: int) -> Element:
        """x^m for m >= 0, by repeated squaring."""
        result = self.identity
        while m:
            if m & 1:
                result = self._mul(result, x)
            m >>= 1
            if m:
                x = self._mul(x, x)
        return result

    def _inv(self, x: Element) -> Element:
        """Clear x's exponents left to right: x * g_k^(p - e_k) zeroes
        position k and leaves the positions before it at 0.  The factors,
        taken in increasing k with exponents in [1, p), are themselves a
        normal word, so their exponents are x^-1."""
        cur = x
        inv = [0] * self.ngens
        for k in range(self.ngens):
            e = cur[k]
            if e:
                inv[k] = self.p - e
                cur = self._collect(cur, k, inv[k])
        return tuple(inv)

    def multiply(self, x: Element, y: Element) -> Element:
        return self._mul(x, y)

    def inverse(self, x: Element) -> Element:
        return self._inv(x)

    def power(self, x: Element, m: int) -> Element:
        """x^m; for x = g_i and m = p, the power relation w_i, read off the
        presentation with no product."""
        if m == self.p:
            i = _pc_index(x)
            if i is not None:
                return self._power_rel[i]
        if m < 0:
            return self._pow(self._inv(x), -m)
        return self._pow(x, m)

    def supports_commute(self, x: Element, y: Element) -> bool:
        """Whether no generator in x's support has a nontrivial commutator
        relation with one in y's; then xy = yx, read off the presentation.

        Proof: x = g_i1^a1 ... g_ik^ak and y = g_j1^b1 ... g_jl^bl are
        their normal words.  A pair of pc generators with no relation
        [g_j, g_i] != 1 commutes, and a generator commutes with itself, so
        every factor of x commutes with every factor of y, hence x with y.
        The test is sufficient but not necessary: x = y = g1 g2 commutes
        with itself, but fails it wherever [g2, g1] != 1.  On two pc
        generators it is exact, since their bracket is the relation word.
        """
        links = self._links
        reach = 0
        for i, e in enumerate(x):
            if e:
                reach |= links[i]
        if reach:
            for j, e in enumerate(y):
                if e and reach >> j & 1:
                    return False
        return True

    def commutator(self, x: Element, y: Element) -> Element:
        """[x, y] = x^-1 y^-1 x y.  For pc generators x = g_j, y = g_i it
        is read off the presentation with no product: the relation word
        [g_j, g_i] for j > i, its inverse for j < i, and 1 for j = i.
        Otherwise it is 1, with no product, when supports_commute(x, y);
        else xy and yx are formed once, and it is 1 when they are equal,
        (yx)^-1 (xy) with one inverse when they are not."""
        j, i = _pc_index(x), _pc_index(y)
        if j is not None and i is not None:
            if j > i:
                return self.commutator_relation(j, i)
            if j < i:
                return self._inv(self.commutator_relation(i, j))
            return self.identity
        if self.supports_commute(x, y):
            return self.identity
        xy, yx = self._mul(x, y), self._mul(y, x)
        if xy == yx:
            return self.identity
        return self._mul(self._inv(yx), xy)

    def conjugate(self, x: Element, g: Element) -> Element:
        """x^g = g^-1 x g; x itself, with no product, when
        supports_commute(x, g)."""
        if self.supports_commute(x, g):
            return x
        return self._mul(self._mul(self._inv(g), x), g)

    def element_order(self, x: Element) -> int:
        order = 1
        while x != self.identity:
            x = self._pow(x, self.p)
            order *= self.p
        return order

    # -- consistency -----------------------------------------------------

    def _consistency_check(self) -> None:
        """Overlap tests: every ambiguous collection order must agree.

        Each collection step rewrites with a relation (or with conjugation
        by g_i^e, an automorphism in any group the relations define), so
        two different normal forms of one overlap word prove the
        presentation inconsistent.  Conversely, if G_(i+1) is consistent,
        the overlaps whose smallest generator is g_i say that conjugation
        by g_i, extended to normal words, is an automorphism of G_(i+1)
        that fixes w_i and whose p-th power is conjugation by w_i; that
        makes G_i consistent, so by induction from the bottom the tests
        decide consistency.

        An overlap is collected only when its two sides can take different
        collection paths.  Every skipped test would pass, so the verdict,
        and the overlap an error names first, are those of testing every
        overlap in the same order.  Call g_m a partner of g_i when m > i and
        [g_m, g_i] != 1 is a relation, and say x avoids g_i when x has
        exponent 0 at every partner of g_i: collecting g_i into such an x
        conjugates nothing, so it only adds 1 at position i.  That holds
        in particular when every non-zero position of x lies below i.
        Write e_m for the generator g_m as a tuple.  Collecting g_j into a
        power of g_j conjugates nothing either, so the tests read
        g_j^(p-1) = (p - 1) e_j and g_j^p = w_j off the presentation.

        - (g_k g_j) g_i, k > j > i, is skipped when x = g_k g_j avoids g_i.
          Then j and k, which both have exponent 1 in x, are not partners
          of g_i, so g_j g_i = e_i + e_j.  The right side g_k (g_j g_i)
          collects g_i into g_k with no conjugation, then g_j through the
          same conjugation of g_k by g_j that produced x; the left side only
          writes 1 at position i of x.  Both are x + e_i.
        - g_j^p g_i, i < j, and g_j^p g_j, are skipped when g_j is not a
          partner of g_i and w_j avoids g_i.  The left side w_j g_i is
          w_j + e_i.  The right side g_j^(p-1) (g_j g_i) collects
          g_i with no conjugation, since g_j g_i = e_i + e_j, then g_j,
          whose exponent reaches p and puts w_j behind an empty tail:
          e_i + w_j.  For i = j the sides are w_j g_j and g_j w_j; the
          latter collects each syllable of w_j above every non-zero
          position, so both are w_j + e_j.
        - g_k g_j^p, k > j, is skipped when g_k is not a partner of g_j,
          w_j has exponent 0 at k, and no relation links g_k to a generator
          of w_j (supports_commute(g_k, w_j)).  The left side g_k w_j
          collects each syllable of w_j with no conjugation into a tuple
          whose only other entries lie below it or at k: e_k + w_j.  The
          right side (g_k g_j) g_j^(p-1) = (e_j + e_k) g_j^(p-1) conjugates
          nothing, and the exponent at j reaches p, which leaves
          w_j g_k = w_j + e_k, since w_j avoids g_k.
        - (g_k g_j) g_i, k > j > i, is also skipped when [g_k, g_j] has no
          relation and the overlap collects inside an abelian support.
          Write phi_m = g_m^(g_i), read off the relation [g_m, g_i] (e_m
          when there is none).  The left side collects g_i into
          g_k g_j = e_j + e_k, whose part up to i is empty, so it is
          e_i + mul(phi_j, phi_k).  The right side collects g_i into g_k,
          giving e_i + phi_k, then phi_j's syllables, which lie after i:
          e_i + mul(phi_k, phi_j).  Let A be the supports of phi_j and
          phi_k, closed under the supports of the power relations w_m of
          its generators, and suppose no two generators of A have a
          relation [g_m, g_l] != 1.  Then collecting inside A never
          conjugates, and a carry g_m^p = w_m stays inside A, so both
          products are collections in the presentation on A with only
          the power relations.  That presentation is consistent: it
          presents Z^A over the lattice spanned by the p e_m - w_m, whose
          matrix is triangular with p on the diagonal, so the quotient
          has p^|A| elements, as many as there are normal words on A, and
          each element has one normal word.  phi_j phi_k and phi_k phi_j
          are one element of that abelian group, so the sides agree.
          Each generator's closed support is computed once per check, and
          from those each phi_m's, with the relations it links.
        """
        g = self._generators
        mul = self._mul
        n = self.ngens
        partners = self._partners
        linked = self._comms
        links = self._links
        acting = [i for i in range(n) if partners[i]]

        def moves(x: Element, i: int) -> bool:
            return any(x[m] for m in partners[i])

        # closed[m]: bit mask of g_m and, recursively, of the supports of
        # the power relations of its bits; reach[m]: the generators that
        # those bits have a relation with
        closed = [0] * n
        reach = [0] * n
        for m in reversed(range(n)):
            closed[m], reach[m] = 1 << m, links[m]
            for l, e in enumerate(self._power_rel[m]):
                if e:
                    closed[m] |= closed[l]
                    reach[m] |= reach[l]
        # (closed, reach) of the union over phi_m = g_m^(g_i)'s support,
        # for the partners m of g_i; phi_m = g_m for the others
        supports = {}
        for i in acting:
            for m, c in enumerate(self._image_memo[i, 1]):
                if c is not None:
                    mask = r = 0
                    for l, e in enumerate(c):
                        if e:
                            mask |= closed[l]
                            r |= reach[l]
                    supports[i, m] = mask, r
        collect = self._collect
        pairs = {(k, j): collect(g[k], j, 1) for k in range(n) for j in range(k)}
        for k in range(n):
            for j in range(k):
                kj = pairs[k, j]
                commuting = (k, j) not in linked
                for i in acting:
                    if i >= j:
                        break
                    if not moves(kj, i):
                        continue
                    if commuting:
                        mask_j, reach_j = supports.get((i, j)) or (closed[j], reach[j])
                        mask_k, reach_k = supports.get((i, k)) or (closed[k], reach[k])
                        if not (mask_j | mask_k) & (reach_j | reach_k):
                            continue
                    if mul(kj, g[i]) != mul(g[k], pairs[j, i]):
                        raise PresentationError(
                            f"inconsistent presentation: overlap (g{k+1} g{j+1}) g{i+1}")
        for j in range(n):
            below = self.identity[:j] + (self.p - 1,) + self.identity[j + 1:]
            pj = self._power_rel[j]
            for i in range(j):
                if (((j, i) in linked or moves(pj, i))
                        and mul(pj, g[i]) != mul(below, pairs[j, i])):
                    raise PresentationError(
                        f"inconsistent presentation: overlap g{j+1}^p g{i+1}")
            for kk in range(j + 1, n):
                if (((kk, j) in linked or pj[kk] or not self.supports_commute(g[kk], pj))
                        and mul(g[kk], pj) != mul(pairs[kk, j], below)):
                    raise PresentationError(
                        f"inconsistent presentation: overlap g{kk+1} g{j+1}^p")
            if moves(pj, j) and mul(pj, g[j]) != mul(g[j], pj):
                raise PresentationError(
                    f"inconsistent presentation: overlap g{j+1}^p g{j+1}")

    # -- serialization ---------------------------------------------------

    def to_text(self, meta: Optional[PresentationMeta] = None,
                header_comments: Iterable[str] = ()) -> str:
        """Render the presentation in the text file format."""
        lines = [f"# {c}" for c in header_comments]
        lines.append(f"p {self.p}")
        lines.append(f"gens {self.ngens}")
        if meta and meta.small_group_id:
            order, number = meta.small_group_id
            lines.append(f"id {order} {number}")
        for i in range(self.ngens):
            lines.append(f"pow {i+1} : {format_word(self._powers[i])}")
        for (j, i) in sorted(self._comms):
            lines.append(f"comm {j+1} {i+1} : {format_word(self._comms[(j, i)])}")
        if meta:
            for key in meta.expect:
                lines.append(f"expect {key} {meta.expect[key]}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"PcGroup(p={self.p}, ngens={self.ngens}, order={self.order})"


def format_word(w: Word) -> str:
    if not w:
        return "1"
    return " ".join(f"g{gen+1}^{exp}" for gen, exp in w)


def _parse_word(token: str, lineno: int) -> Word:
    token = token.strip()
    if token == "1":
        return ()
    parts = token.split()
    out = []
    for part in parts:
        if not part.startswith("g") or "^" not in part:
            raise PresentationError(f"line {lineno}: bad word factor {part!r}")
        gen_s, _, exp_s = part[1:].partition("^")
        try:
            gen = int(gen_s)
            exp = int(exp_s)
        except ValueError:
            raise PresentationError(f"line {lineno}: bad word factor {part!r}") from None
        out.append((gen - 1, exp))
    return tuple(out)


def parse_presentation_with_meta(text: str) -> tuple[PcGroup, PresentationMeta]:
    """Parse the text format, returning the group and its annotations."""
    p: Optional[int] = None
    ngens: Optional[int] = None
    powers: dict[int, Word] = {}
    comms: dict[tuple[int, int], Word] = {}
    meta = PresentationMeta()
    seen_pow: set[int] = set()
    seen_comm: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        key = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if key == "p":
            if p is not None:
                raise PresentationError(f"line {lineno}: duplicate p")
            try:
                p = check_prime(int(rest))
            except ValueError as exc:
                raise PresentationError(f"line {lineno}: {exc}") from None
        elif key == "gens":
            if ngens is not None:
                raise PresentationError(f"line {lineno}: duplicate gens")
            try:
                ngens = int(rest)
            except ValueError:
                raise PresentationError(f"line {lineno}: bad gens count {rest!r}") from None
        elif key == "pow":
            if p is None or ngens is None:
                raise PresentationError(f"line {lineno}: pow before p/gens")
            head, sep, word_s = rest.partition(":")
            if not sep:
                raise PresentationError(f"line {lineno}: missing ':' in pow")
            try:
                i = int(head.strip())
            except ValueError:
                raise PresentationError(f"line {lineno}: bad pow index") from None
            if not (1 <= i <= ngens):
                raise PresentationError(f"line {lineno}: pow index {i} out of range")
            if i in seen_pow:
                raise PresentationError(f"line {lineno}: duplicate pow {i}")
            seen_pow.add(i)
            powers[i - 1] = _parse_word(word_s, lineno)
        elif key == "comm":
            if p is None or ngens is None:
                raise PresentationError(f"line {lineno}: comm before p/gens")
            head, sep, word_s = rest.partition(":")
            if not sep:
                raise PresentationError(f"line {lineno}: missing ':' in comm")
            idx = head.split()
            if len(idx) != 2:
                raise PresentationError(f"line {lineno}: comm needs two indices")
            try:
                j, i = int(idx[0]), int(idx[1])
            except ValueError:
                raise PresentationError(f"line {lineno}: bad comm indices") from None
            if not (1 <= i < j <= ngens):
                raise PresentationError(
                    f"line {lineno}: relation referencing earlier-or-equal generators "
                    f"(need j > i, got j={j}, i={i})")
            if (j, i) in seen_comm:
                raise PresentationError(f"line {lineno}: duplicate comm {j} {i}")
            seen_comm.add((j, i))
            comms[(j - 1, i - 1)] = _parse_word(word_s, lineno)
        elif key == "id":
            if meta.small_group_id is not None:
                raise PresentationError(f"line {lineno}: duplicate id")
            vals = rest.split()
            try:
                order, number = map(int, vals)
            except ValueError:
                raise PresentationError(
                    f"line {lineno}: id needs an integer order and number") from None
            meta.small_group_id = (order, number)
        elif key == "expect":
            vals = rest.split(None, 1)
            if len(vals) != 2:
                raise PresentationError(f"line {lineno}: expect needs key and value")
            if vals[0] in meta.expect:
                raise PresentationError(f"line {lineno}: duplicate expect {vals[0]}")
            meta.expect[vals[0]] = vals[1].strip()
        else:
            raise PresentationError(f"line {lineno}: unknown directive {key!r}")
    if p is None or ngens is None:
        raise PresentationError("presentation must declare p and gens")
    group = PcGroup(p, ngens, powers, comms)
    if meta.small_group_id and meta.small_group_id[0] != group.order:
        raise PresentationError(
            f"declared id order {meta.small_group_id[0]} != presentation order {group.order}")
    return group, meta


def parse_presentation(text: str) -> PcGroup:
    """Parse the text format, discarding annotations."""
    group, _ = parse_presentation_with_meta(text)
    return group
