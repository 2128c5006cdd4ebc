"""Lie dimension subgroups, the d-sequence, and the upper index.

The m-th Lie dimension subgroup of F_p[G] is computed from the lower
central series by the product formula

    D_(m) = product of gamma_i(G)^(p^j) over all i >= 2, j >= 0
            with (i-1) * p^j >= m - 1,

and the d-sequence is d_(m) = log_p |D_(m) : D_(m+1)|.  The upper Lie
nilpotency index then comes out of the weighted sum

    t = 2 + (p-1) * sum_{m>=1} m * d_(m+1).
"""

from __future__ import annotations

from dataclasses import dataclass

from lienil.subgroups import (
    Subgroup,
    lower_central_series,
    power_series,
    subgroup_product,
    trivial_subgroup,
    _log_p,
)


@dataclass(frozen=True)
class DSequence:
    """Finitely supported sequence m -> d_(m) for m >= 2 (zero entries absent)."""

    p: int
    d: tuple[tuple[int, int], ...]  # sorted (m, d_m) pairs, d_m > 0

    @classmethod
    def from_dict(cls, p: int, values: dict[int, int]) -> "DSequence":
        items = tuple(sorted((m, v) for m, v in values.items() if v))
        for m, v in items:
            if m < 2 or v < 0:
                raise ValueError(f"bad d-sequence entry d_({m}) = {v}")
        return cls(p, items)

    def get(self, m: int) -> int:
        for mm, v in self.d:
            if mm == m:
                return v
        return 0

    def total(self) -> int:
        """Sum of all d_(m); equals log_p |G'| for sequences from groups."""
        return sum(v for _, v in self.d)

    def weight(self) -> int:
        """sum_{m>=1} m * d_(m+1), the quantity Jennings' formula weighs."""
        return sum((m - 1) * v for m, v in self.d)

    def __str__(self) -> str:
        if not self.d:
            return "{}"
        return "{" + ", ".join(f"d_({m})={v}" for m, v in self.d) + "}"


def lie_dimension_chain(W: Subgroup) -> list[Subgroup]:
    """[D_(2), D_(3), ...] of W, ending at the first trivial term.

    Each nontrivial piece gamma_i^(p^j) has weight (i-1) p^j and lies in
    D_(m) exactly when its weight is at least m - 1, so
    D_(m) = D_(m+1) * (the pieces of weight m - 1).  The chain is built
    that way from the deepest nontrivial term up, one product per piece;
    the lower central series and each term's power series are memoized.
    """
    G = W.group
    p = G.p
    by_weight: dict[int, list[Subgroup]] = {}
    # gamma_2, gamma_3, ... and their powers: every term but the last of
    # each series, the one trivial term
    for i, gamma_i in enumerate(lower_central_series(W)[1:-1], start=2):
        for j, piece in enumerate(power_series(gamma_i)[:-1]):
            by_weight.setdefault((i - 1) * p**j, []).append(piece)
    term = trivial_subgroup(G)
    chain = [term]
    for m in range(max(by_weight, default=0) + 1, 1, -1):
        for piece in by_weight.get(m - 1, ()):
            term = subgroup_product(term, piece)
        chain.append(term)
    return chain[::-1]


def d_sequence(W: Subgroup) -> DSequence:
    """The Jennings d-sequence of F_p[G] for W = G and p the group prime."""
    return d_sequence_of_chain(lie_dimension_chain(W))


def d_sequence_of_chain(chain: list[Subgroup]) -> DSequence:
    """d_(m) = log_p |D_(m) : D_(m+1)| read off a lie_dimension_chain."""
    p = chain[0].group.p
    values = {m: _log_p(hi.order // lo.order, p)
              for m, (hi, lo) in enumerate(zip(chain, chain[1:]), start=2)}
    seq = DSequence.from_dict(p, values)
    derived_order = chain[0].order  # D_(2) = G'
    assert seq.total() == _log_p(derived_order, p), "d-sequence mass check failed"
    return seq


def jennings_index(d: DSequence) -> int:
    """Upper Lie nilpotency index from a d-sequence."""
    return 2 + (d.p - 1) * d.weight()


def upper_index(W: Subgroup) -> int:
    """t^L of F_p[G] for W = G."""
    return jennings_index(d_sequence(W))
