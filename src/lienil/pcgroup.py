"""Finite p-groups given by consistent polycyclic presentations.

A group of order p^n is described by a generator chain g1..gn with
relations

    g_i^p       = w_i      (a normal word on generators strictly after i)
    [g_j, g_i]  = w_{ji}   (j > i; a normal word on generators strictly
                            after j; omitted pairs commute)

using the commutator convention [x, y] = x^-1 y^-1 x y, so collection
rewrites g_j g_i -> g_i g_j [g_j, g_i] for j > i.  Every element then has a
unique normal form g1^e1 ... gn^en with exponents in [0, p), carried around
as a plain tuple.

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

from collections import deque
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterable, Iterator, Optional

# A normal word: ((gen_index, exponent), ...) with 0-based strictly
# increasing gen_index and exponents in [1, p).
Word = tuple[tuple[int, int], ...]
Element = tuple[int, ...]

_COLLECTION_STEP_LIMIT = 10_000_000

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
        if p > 2 * _COLLECTION_STEP_LIMIT:  # g^p by squaring collects > p/2 letters
            raise PresentationError(f"p = {p} is too large for the letter collector: a "
                                    f"p-th power takes more than its limit of "
                                    f"{_COLLECTION_STEP_LIMIT} steps")
        if ngens < 1:
            raise PresentationError("need at least one generator")
        self.p = p
        self.ngens = ngens
        self.order = p**ngens
        self._powers: list[Word] = [tuple(powers.get(i, ())) for i in range(ngens)]
        self._comms: dict[tuple[int, int], Word] = {}
        for (j, i), w in comms.items():
            w = tuple(w)
            if not w:
                continue
            if not (0 <= i < j < ngens):
                raise PresentationError(f"commutator pair out of order: ({j},{i})")
            self._comms[(j, i)] = w
        for i, w in enumerate(self._powers):
            self._validate_word(w, min_index=i + 1, what=f"pow {i+1}")
        for (j, i), w in self._comms.items():
            self._validate_word(w, min_index=j + 1, what=f"comm {j+1} {i+1}")
        # Letter expansions of relation words, used by the collector.
        self._power_letters: list[tuple[int, ...]] = [
            _word_letters(w) for w in self._powers
        ]
        self._comm_letters: dict[tuple[int, int], tuple[int, ...]] = {
            pair: _word_letters(w) for pair, w in self._comms.items()
        }
        # For each i, generators j > i with a nontrivial commutator against
        # g_i (the fast-path test in collection).
        partners: list[list[int]] = [[] for _ in range(ngens)]
        for (j, i) in self._comms:
            partners[i].append(j)
        self._noncomm_above: list[tuple[int, ...]] = [
            tuple(sorted(js)) for js in partners
        ]
        self.identity: Element = (0,) * ngens
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
        return tuple(1 if k == i else 0 for k in range(self.ngens))

    def generators(self) -> list[Element]:
        return [self.generator(i) for i in range(self.ngens)]

    def power_relation(self, i: int) -> Element:
        """g_i^p, read off the presentation (no collection)."""
        return self._word_element(self._powers[i])

    def commutator_relation(self, j: int, i: int) -> Element:
        """[g_j, g_i] for j > i, read off the presentation (no collection)."""
        return self._word_element(self._comms.get((j, i), ()))

    def _word_element(self, w: Word) -> Element:
        e = list(self.identity)
        for gen, exp in w:
            e[gen] = exp
        return tuple(e)

    def _mul_letters(self, x: Element, letters: Iterable[int]) -> Element:
        """Normal form of x * (product of the given generator letters)."""
        cur = list(x)
        pend = deque(letters)
        p = self.p
        steps = 0
        while pend:
            steps += 1
            if steps > _COLLECTION_STEP_LIMIT:
                raise PresentationError(f"collection exceeded {_COLLECTION_STEP_LIMIT} steps: the "
                                        "presentation is inconsistent, or its exponents are "
                                        "too large for the letter collector")
            i = pend.popleft()
            blockers = [j for j in self._noncomm_above[i] if cur[j]]
            if not blockers:
                # Everything above i in the normal form commutes with g_i.
                e = cur[i] + 1
                if e < p:
                    cur[i] = e
                    continue
                cur[i] = 0
                # g_i^p = w_i must be inserted before the tail above i.
                tail: list[int] = []
                for j in range(i + 1, self.ngens):
                    if cur[j]:
                        tail.extend((j,) * cur[j])
                        cur[j] = 0
                insert = list(self._power_letters[i]) + tail
                if insert:
                    pend.extendleft(reversed(insert))
                continue
            # Move g_i one letter left past the highest occupied position.
            j = max(jj for jj in range(i + 1, self.ngens) if cur[jj])
            cur[j] -= 1
            insert = [i, j]
            comm = self._comm_letters.get((j, i))
            if comm:
                insert.extend(comm)
            pend.extendleft(reversed(insert))
        return tuple(cur)

    def multiply(self, x: Element, y: Element) -> Element:
        return self._mul_letters(x, _exps_letters(y))

    def inverse(self, x: Element) -> Element:
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
                cur = self._mul_letters(cur, (k,) * inv[k])
        return tuple(inv)

    def power(self, x: Element, m: int) -> Element:
        if m < 0:
            x = self.inverse(x)
            m = -m
        result = self.identity
        base = x
        while m:
            if m & 1:
                result = self.multiply(result, base)
            base_needed = m > 1
            if base_needed:
                base = self.multiply(base, base)
            m >>= 1
        return result

    def commutator(self, x: Element, y: Element) -> Element:
        """[x, y] = x^-1 y^-1 x y = (yx)^-1 (xy), with one inverse."""
        return self.multiply(self.inverse(self.multiply(y, x)), self.multiply(x, y))

    def conjugate(self, x: Element, g: Element) -> Element:
        """x^g = g^-1 x g."""
        gi = self.inverse(g)
        return self.multiply(self.multiply(gi, x), g)

    def element_order(self, x: Element) -> int:
        order = 1
        while x != self.identity:
            x = self.power(x, self.p)
            order *= self.p
        return order

    # -- consistency -----------------------------------------------------

    def _consistency_check(self) -> None:
        """Overlap tests: every ambiguous collection order must agree."""
        g = self.generator
        mul = self.multiply
        n = self.ngens
        for k in range(n):
            for j in range(k):
                for i in range(j):
                    left = mul(mul(g(k), g(j)), g(i))
                    right = mul(g(k), mul(g(j), g(i)))
                    if left != right:
                        raise PresentationError(
                            f"inconsistent presentation: overlap (g{k+1} g{j+1}) g{i+1}")
        for j in range(n):
            pj = self.power(g(j), self.p)
            for i in range(j):
                left = mul(pj, g(i))
                right = mul(self.power(g(j), self.p - 1), mul(g(j), g(i)))
                if left != right:
                    raise PresentationError(
                        f"inconsistent presentation: overlap g{j+1}^p g{i+1}")
            for kk in range(j + 1, n):
                left = mul(g(kk), pj)
                right = mul(mul(g(kk), g(j)), self.power(g(j), self.p - 1))
                if left != right:
                    raise PresentationError(
                        f"inconsistent presentation: overlap g{kk+1} g{j+1}^p")
            left = mul(pj, g(j))
            right = mul(g(j), pj)
            if left != right:
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


def _word_letters(w: Word) -> tuple[int, ...]:
    out: list[int] = []
    for gen, exp in w:
        out.extend((gen,) * exp)
    return tuple(out)


def _exps_letters(x: Element) -> tuple[int, ...]:
    out: list[int] = []
    for gen, exp in enumerate(x):
        if exp:
            out.extend((gen,) * exp)
    return tuple(out)


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
            try:
                p = check_prime(int(rest))
            except ValueError as exc:
                raise PresentationError(f"line {lineno}: {exc}") from None
        elif key == "gens":
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
