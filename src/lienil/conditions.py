"""The condition table for the index-(10p-8) classification.

Each record describes one admissible shape for the derived subgroup and
the lower central series of a group G whose modular group algebra has
upper Lie nilpotency index 10p-8.  A record is pure data: a derived
subgroup description, an OR-list of clause branches (AND within a
branch), and a prime gate.  Evaluation lives in lienil.classify.

Two parallel tables ship.  CONDITIONS transcribes every row as found,
including rows whose literal reading is internally odd (a handful use
an exponent 2 where the family prime is 3 or 5, one attaches "p >= 5"
to a 2-group family, one calls a group with a nontrivial commutator
relation abelian).  Those rows carry a `note`, and `corrected_records()`
swaps in the repaired readings.  The two tables are never mixed
silently; callers choose.

Clause vocabulary (P_q below means the subgroup generated by q-th
powers of the derived subgroup; gamma_i is the i-th lower central
term of the ambient group):

    ("g_iso", i, abt)    gamma_i isomorphic to the abelian type abt
    ("g_in_P", i, q)     gamma_i contained in P_q
    ("P_in_g3", q)       P_q contained in gamma_3
    ("P_eq_g3", q)       P_q equal to gamma_3
    ("cap3", q, v)       |P_q meet gamma_3| = v
    ("cap4", q, v)       |P_q meet gamma_4| = v
    ("P_iso", q, abt)    P_q isomorphic to abt
    ("g3_iso_P", q)      gamma_3 and P_q share an abelian type
    ("g4_in_U",)         gamma_4 contained in U = P_4 * gamma_3^2
    ("U_iso", abt)       U isomorphic to abt
    ("P_in_zeta", q)     P_q contained in the centre of the derived subgroup
    ("gpp_in_zeta",)     second derived subgroup contained in that centre

Exponents q and cardinalities v are ("lit", n) for a concrete integer
or ("p", e) for p**e.  Abelian types are ("abl", factors) with literal
invariant factors, or ("abp", exps) whose factors are p**e per entry;
("abl", ()) is the trivial group.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

# ---------------------------------------------------------------------------
# value/type atoms


def lit(n: int) -> tuple:
    return ("lit", n)


def pp(e: int) -> tuple:
    return ("p", e)


def ab_lit(*factors: int) -> tuple:
    return ("abl", tuple(factors))


def ab_p(*exps: int) -> tuple:
    return ("abp", tuple(exps))


TRIVIAL_TYPE = ab_lit()


def eval_value(v: tuple, p: int) -> int:
    kind, x = v
    return x if kind == "lit" else p**x


def eval_abelian(abt: tuple, p: int) -> tuple[int, ...]:
    kind, xs = abt
    return tuple(xs) if kind == "abl" else tuple(p**e for e in xs)


# ---------------------------------------------------------------------------
# prime gates: ("eq", n) | ("ge", n) | ("any",)


def p_applies(gate: tuple, p: int) -> bool:
    if gate[0] == "eq":
        return p == gate[1]
    if gate[0] == "ge":
        return p >= gate[1]
    return True


# ---------------------------------------------------------------------------
# derived-subgroup descriptions
#   ("ab", abt)            abelian of the given type
#   ("sg", order, ids)     one of the listed external-library groups
#   ("ref", key)           isomorphic to a named reference construction
#                          (a key of catalog.reference_fingerprint)


@dataclass(frozen=True)
class ConditionRecord:
    """One row of the classification table."""

    id: int
    applicable_p: tuple
    gprime: tuple
    branches: tuple[tuple[tuple, ...], ...]
    note: str = ""


def _rec(cid, gate, gp, *branches, note=""):
    brs = tuple(tuple(b) for b in branches)
    return ConditionRecord(cid, gate, gp, brs, note)


EQ2, EQ3, EQ5, EQ7 = ("eq", 2), ("eq", 3), ("eq", 5), ("eq", 7)
GE3, GE5, ANYP = ("ge", 3), ("ge", 5), ("any",)

_DUP_NOTE = "predicate repeats an earlier row verbatim; kept as its own entry"
_MERGE_NOTE = ("single condition covering both declared-id batches "
               "{423,424} and {416,419,499,500}; their clause lists coincide")


def _build_conditions() -> tuple[ConditionRecord, ...]:
    L2, L3, L4, L5, L7 = lit(2), lit(3), lit(4), lit(5), lit(7)
    one = lit(1)
    recs = [
        _rec(1, EQ7, ("ab", ab_lit(49, 7, 7)),
             [("g_in_P", 3, L7)]),
        _rec(2, EQ7, ("ab", ab_lit(49, 7)),
             [("g_iso", 3, ab_lit(7)), ("cap3", L7, one)]),
        _rec(3, EQ7, ("ab", ab_lit(49, 7)),
             [("g_in_P", 4, L7), ("P_in_g3", L7), ("g_iso", 3, ab_lit(7, 7)),
              ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(4, EQ5, ("ab", ab_lit(25, 5, 5, 5, 5)),
             [("P_in_g3", L5), ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(5, EQ5, ("ab", ab_lit(5, 5, 5, 5, 5, 5)),
             [("cap3", L5, one), ("g_iso", 3, ab_lit(5)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(6, EQ5, ("ab", ab_lit(25, 25, 5)),
             [("g_in_P", 3, L2)],
             note="exponent 2 in a prime-5 family; squares generate the "
                  "whole group there, so the containment is vacuous; the "
                  "corrected variant uses fifth powers"),
        _rec(7, EQ5, ("ab", ab_lit(25, 5, 5, 5)),
             [("cap3", L5, one), ("g_iso", 3, ab_lit(5))],
             [("P_in_g3", L5), ("g_iso", 3, ab_lit(5, 5))]),
        _rec(8, EQ5, ("ab", ab_lit(5, 5, 5, 5, 5)),
             [("cap3", L5, one), ("g_iso", 3, ab_lit(5, 5)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(9, EQ5, ("sg", 3125, (2, 40, 41, 42, 43, 44, 73, 74)),
             [("P_in_zeta", L5), ("gpp_in_zeta",), ("P_in_g3", L5),
              ("g_iso", 3, ab_lit(5, 5)), ("g_iso", 4, ab_lit(5)),
              ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(10, EQ5, ("ab", ab_lit(25, 5, 5)),
             [("cap3", L5, one), ("g_iso", 3, ab_lit(5, 5))],
             [("P_eq_g3", L5), ("g_iso", 3, ab_lit(5))],
             [("P_in_g3", L5), ("g_iso", 3, ab_lit(5, 5, 5))]),
        _rec(11, EQ2, ("ab", ab_lit(8, 2, 2, 2)),
             [("g_in_P", 3, L2), ("g_iso", 3, ab_lit(4)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(12, EQ2, ("ab", ab_lit(4, 4, 2, 2)),
             [("g_in_P", 3, L2), ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(13, EQ2, ("ab", ab_lit(4, 2, 2, 2, 2)),
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(4)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(14, EQ2, ("sg", 64, (199, 200, 201) + tuple(range(215, 246))),
             [("g_in_P", 3, L2), ("g_iso", 4, ab_lit(2))]),
        _rec(15, EQ2, ("sg", 64, (264, 265)),
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(4))],
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2))]),
        _rec(16, EQ2, ("sg", 64, (247, 248)),
             [("P_eq_g3", L2), ("g_iso", 3, ab_lit(4)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(17, EQ2, ("sg", 64, (263,)),
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(4)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(18, EQ2, ("ab", ab_lit(8, 4)),
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(4, 2))],
             [("g_in_P", 3, L2), ("g_iso", 3, ab_lit(4))]),
        _rec(19, EQ2, ("ab", ab_lit(8, 2, 2)),
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(4, 2))]),
        _rec(20, EQ2, ("ab", ab_lit(4, 4, 2)),
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(4))],
             [("cap3", L2, lit(4)), ("g_iso", 3, ab_lit(4, 2))]),
        _rec(21, EQ2, ("ab", ab_lit(4, 2, 2, 2)),
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(4, 2))]),
        _rec(22, EQ2, ("sg", 32, (4, 5, 12)),
             [("g_in_P", 3, L2), ("P_iso", L2, ab_lit(4, 2)),
              ("g4_in_U",), ("U_iso", ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(23, EQ2, ("sg", 32, (22, 23, 24, 25, 26)),
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(4)),
              ("g4_in_U",), ("U_iso", ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(4, 2)),
              ("g4_in_U",), ("U_iso", ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(24, EQ2, ("sg", 32, (37, 38)),
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(2, 2)),
              ("g4_in_U",), ("U_iso", ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(4, 2)),
              ("g4_in_U",), ("U_iso", ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(25, EQ2, ("sg", 32, (46, 47, 48)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(4)),
              ("g4_in_U",), ("U_iso", ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(4, 2)),
              ("g4_in_U",), ("U_iso", ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(26, GE5, ("ab", ab_p(1, 1, 1, 1)),
             [("cap3", pp(1), one), ("g_iso", 3, ab_p(1, 1, 1)),
              ("g_iso", 4, ab_p(1, 1)), ("g_iso", 5, ab_p(1))]),
        _rec(27, EQ3, ("ab", ab_lit(9, 3, 3)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(3, 3))],
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3, 3))],
             note="first branch intersects with squares in a prime-3 "
                  "family (squares generate everything there); the "
                  "corrected variant uses cubes"),
        _rec(28, EQ3, ("ab", ab_lit(3, 3, 3, 3)),
             [("cap3", L3, one), ("g_iso", 3, ab_lit(3, 3, 3))]),
        _rec(29, EQ2, ("ab", ab_lit(8, 2)),
             [("g_iso", 3, ab_lit(2)), ("cap3", L2, one)],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(4, 2))]),
        _rec(30, EQ2, ("ab", ab_lit(4, 2, 2)),
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(4, 2))]),
        _rec(31, GE5, ("ref", "heis_x_cp"),
             [("g_iso", 3, ab_p(1, 1, 1)), ("g_iso", 4, ab_p(1, 1)),
              ("g_iso", 5, ab_p(1)), ("g_iso", 6, TRIVIAL_TYPE)]),
        _rec(32, EQ3, ("ab", ab_lit(9, 9)),
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3, 3))]),
        _rec(33, EQ3, ("ab", ab_lit(9, 3, 3)),
             [("cap3", L3, one), ("g_iso", 3, ab_lit(3, 3))],
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3, 3))]),
        _rec(34, EQ3, ("ab", ab_lit(3, 3, 3, 3)),
             [("cap3", L3, one), ("g_iso", 3, ab_lit(3, 3, 3))],
             note=_DUP_NOTE),
        _rec(35, GE5, ("ab", ab_p(1, 1, 1, 1, 1)),
             [("g_iso", 3, ab_p(1, 1, 1)), ("cap3", pp(1), one)]),
        _rec(36, EQ3, ("ab", ab_lit(9, 9, 3)),
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3, 3))]),
        _rec(37, EQ3, ("ab", ab_lit(9, 3, 3, 3)),
             [("cap3", L3, one), ("g_iso", 3, ab_lit(3, 3))],
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3, 3))]),
        _rec(38, EQ3, ("ab", ab_lit(3, 3, 3, 3, 3)),
             [("cap3", L3, one), ("g_iso", 3, ab_lit(3, 3, 3))]),
        _rec(39, EQ2, ("ab", ab_lit(4, 4, 2)),
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2, 2))],
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(2, 2))],
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2))]),
        _rec(40, EQ2, ("ab", ab_lit(4, 2, 2, 2)),
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2, 2))],
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2))]),
        _rec(41, EQ2, ("ab", ab_lit(2, 2, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2, 2))]),
        _rec(42, EQ2, ("sg", 32, (2,)),
             [("g_in_P", 3, L2), ("g_iso", 4, ab_lit(2)),
              ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(43, EQ2, ("sg", 32, (22, 23, 24, 25, 26)),
             [("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE),
              ("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(2, 2))]),
        _rec(44, EQ2, ("sg", 32, (46, 47, 48)),
             [("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE),
              ("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2))],
             [("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE),
              ("P_in_g3", L2), ("g_iso", 3, ab_lit(3, 3, 3))],
             note="second branch asks a 2-group section to be C3 x C3 x "
                  "C3, which no subgroup of a 2-group satisfies; the "
                  "corrected variant reads C2 x C2 x C2"),
        _rec(45, EQ3, ("sg", 243, (2, 33, 34, 36)),
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)],
             [("cap3", L3, lit(3)), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(46, GE5, ("ref", "item46"),
             [("g_iso", 3, ab_p(1, 1, 1)), ("g_iso", 4, ab_p(1)),
              ("g_iso", 5, TRIVIAL_TYPE)],
             note="the described direct factor <a,b,e | [b,a] = e> is "
                  "called abelian of exponent p, but its own relation "
                  "makes it the extraspecial group of order p^3; the "
                  "relation reading is primary here and the corrected "
                  "variant takes the abelian wording, (Cp)^5"),
        _rec(47, EQ3, ("ab", ab_lit(9, 9, 3, 3)),
             [("g_in_P", 3, L3), ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(48, EQ3, ("ab", ab_lit(9, 3, 3, 3, 3)),
             [("g_iso", 3, ab_lit(3)), ("g_iso", 4, TRIVIAL_TYPE),
              ("cap3", L3, one)],
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(49, EQ3, ("sg", 729, (422, 502)),
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3)),
              ("cap4", L3, one), ("g_iso", 4, ab_lit(3)),
              ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(50, EQ3, ("sg", 729, (423, 424, 416, 419, 499, 500)),
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)],
             note=_MERGE_NOTE),
        _rec(51, EQ3, ("sg", 729, (103, 105, 417, 418, 420, 421)),
             [("P_eq_g3", L3), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(52, EQ3, ("ab", ab_lit(9, 3, 3, 3, 3, 3, 3)),
             [("g_in_P", 3, L3), ("P_iso", L3, ab_lit(3)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(53, EQ2, ("ab", ab_lit(4, 4, 2, 2, 2)),
             [("g3_iso_P", L2)]),
        _rec(54, EQ2, ("ab", ab_lit(4, 2, 2, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2))],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2))]),
        _rec(55, EQ3, ("ab", ab_lit(9, 3, 3, 3, 3, 3)),
             [("g_iso", 3, ab_lit(3)), ("cap3", L3, one)],
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3))]),
        _rec(56, GE5, ("ab", ab_p(1, 1, 1, 1, 1, 1, 1)),
             [("cap3", pp(1), one), ("g_iso", 3, ab_p(1, 1))]),
        _rec(57, EQ2, ("sg", 128, tuple(range(2157, 2163)) + (2304,)),
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(58, EQ2, ("sg", 128, (2323, 2324, 2325)),
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(59, EQ2, ("sg", 128, tuple(range(2151, 2157)) + (2302, 2303)),
             [("P_eq_g3", L2), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(60, EQ2, ("sg", 128, (2320, 2321, 2322)),
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(61, EQ3, ("sg", 2187, (5874, 5876, 9102, 9103, 9104, 9105)),
             [("P_eq_g3", L3), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(62, EQ3, ("sg", 2187, (9100, 9101, 9306, 9307)),
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(63, EQ3, ("sg", 2187,
                       (5867, 5870, 5872, 9096, 9097, 9098, 9099)),
             [("P_eq_g3", L3), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(64, EQ3, ("sg", 2187, (9094, 9095, 9303, 9304)),
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(65, GE3, ("ref", "item65"),
             [("g_iso", 3, ab_p(1, 1)), ("g_iso", 4, ab_p(1)),
              ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(66, GE3, ("ref", "item66"),
             [("g_iso", 3, ab_p(1, 1)), ("g_iso", 4, ab_p(1)),
              ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(67, EQ2, ("ab", ab_lit(4, 4, 4)),
             [("g_in_P", 3, L2), ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(68, EQ2, ("ab", ab_lit(4, 4, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2))],
             [("g_iso", 3, ab_lit(2, 2))],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2, 2))]),
        _rec(69, EQ2, ("ab", ab_lit(2, 2, 2, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(70, EQ3, ("ab", ab_lit(9, 3, 3, 3, 3)),
             [("g_iso", 3, ab_lit(3, 3)), ("cap3", L2, one)],
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3, 3))],
             note="first branch intersects with squares in a prime-3 "
                  "family; the corrected variant uses cubes"),
        _rec(71, GE5, ("ab", ab_p(1, 1, 1, 1, 1, 1)),
             [("cap3", pp(1), one), ("g_iso", 3, ab_p(1, 1, 1)),
              ("g_iso", 4, ab_p(1)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(72, EQ2, ("sg", 64, (199, 200, 201)),
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(73, EQ2, ("sg", 64, (264, 265)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(74, EQ2, ("sg", 64, (56, 57, 58, 59)),
             [("g_in_P", 3, L2), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(75, EQ2, ("sg", 64, tuple(range(193, 199))),
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(76, EQ2, ("sg", 64, (56, 57, 58, 59)),
             [("g_in_P", 3, L2), ("g_iso", 3, ab_lit(2, 2, 2)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(77, EQ2, ("sg", 64, tuple(range(193, 199))),
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2, 2))]),
        _rec(78, EQ3, ("sg", 729,
                       (103, 104, 105, 106, 416, 417, 418, 419, 420,
                        499, 500)),
             [("P_in_g3", L3), ("g_iso", 3, ab_lit(3, 3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(79, EQ3, ("sg", 729, (103, 105, 417, 418, 420, 421)),
             [("cap3", L3, lit(3)), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(80, EQ3, ("sg", 729, (104, 106)),
             [("g_in_P", 3, L2), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)],
             note="containment in the squares of a prime-3 family is "
                  "vacuous; the corrected variant uses cubes"),
        _rec(81, EQ3, ("sg", 729, (416, 419, 499, 500)),
             [("cap3", L3, one), ("g_iso", 3, ab_lit(3, 3)),
              ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(82, GE5, ("ref", "heis_x_cp3"),
             [("g_iso", 3, ab_p(1, 1, 1)), ("cap3", pp(1), one),
              ("g_iso", 4, ab_p(1)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(83, EQ2, ("ab", ab_lit(4, 4, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2))],
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(2, 2, 2))],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2, 2, 2))]),
        _rec(84, EQ2, ("ab", ab_lit(4, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2, 2))],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2, 2, 2))]),
        _rec(85, EQ2, ("ab", ab_lit(2, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2, 2, 2))]),
        _rec(86, EQ3, ("ab", ab_lit(9, 3, 3, 3)),
             [("g_iso", 3, ab_lit(3, 3, 3)), ("cap3", L3, one)],
             [("g_iso", 3, ab_lit(3, 3, 3, 3)), ("P_in_g3", L3)]),
        _rec(87, GE5, ("ab", ab_p(1, 1, 1, 1, 1)),
             [("g_iso", 3, ab_p(1, 1, 1, 1)), ("cap3", pp(1), one)]),
        _rec(88, EQ2, ("sg", 32, (2,)),
             [("cap3", L2, lit(4)), ("g_iso", 3, ab_lit(2, 2, 2)),
              ("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE)]),
        _rec(89, EQ3, ("sg", 243, (32,)),
             [("cap3", L3, one), ("g_iso", 3, ab_lit(3, 3, 3)),
              ("g_iso", 4, ab_lit(3))]),
        _rec(90, ANYP, ("ab", ab_p(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
             [("g_iso", 3, TRIVIAL_TYPE), ("cap4", L3, one)],
             note="the intersection uses cubes at every prime although "
                  "the family is parametrized by p; the corrected "
                  "variant intersects with p-th powers (gamma_3 = 1 "
                  "forces gamma_4 = 1, so both readings hold vacuously "
                  "on the family)"),
        _rec(91, GE3, ("ab", ab_p(1, 1, 1, 1, 1, 1, 1, 1, 1)),
             [("g_iso", 3, ab_p(1)), ("cap3", pp(1), one),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(92, EQ2, ("ab", ab_lit(4, 2, 2, 2, 2, 2, 2, 2)),
             [("g_in_P", 3, L2), ("P_iso", L2, ab_lit(2)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(93, EQ2, ("ab", ab_lit(2, 2, 2, 2, 2, 2, 2, 2, 2)),
             [("g_iso", 3, ab_lit(2)), ("cap3", L2, one),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(94, GE3, ("ab", ab_p(1, 1, 1, 1, 1, 1, 1, 1)),
             [("g_iso", 3, ab_p(1, 1)), ("cap3", pp(1), one),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(95, GE5, ("ab", ab_lit(2, 2, 2, 2, 2, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)],
             note="gated p >= 5 although every named factor is C2, so "
                  "the row is unsatisfiable as written; the corrected "
                  "variant gates p = 2"),
        _rec(96, GE5, ("ab", ab_lit(4, 2, 2, 2, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2))],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2))],
             note="gated p >= 5 although every named factor is a "
                  "2-group; the corrected variant gates p = 2"),
        _rec(97, EQ2, ("ab", ab_lit(4, 4, 2, 2, 2, 2)),
             [("g_in_P", 3, L2), ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(98, GE3, ("ab", ab_p(1, 1, 1, 1, 1, 1, 1)),
             [("g_iso", 3, ab_p(1, 1, 1)), ("cap3", pp(1), one)]),
        _rec(99, EQ2, ("ab", ab_lit(4, 4, 4, 2)),
             [("g_in_P", 3, L2), ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(100, EQ2, ("ab", ab_lit(4, 4, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2)),
              ("g_iso", 4, TRIVIAL_TYPE)],
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(101, EQ2, ("ab", ab_lit(4, 2, 2, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2))],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2, 2))]),
        _rec(102, EQ2, ("ab", ab_lit(2, 2, 2, 2, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(103, GE3, ("ab", ab_p(1, 1, 1, 1, 1, 1)),
             [("cap3", pp(1), one), ("g_iso", 3, ab_p(1, 1, 1, 1))]),
        _rec(104, EQ2, ("ab", ab_lit(4, 4, 4)),
             [("g_in_P", 3, L2), ("g_iso", 4, TRIVIAL_TYPE)],
             note=_DUP_NOTE),
        _rec(105, EQ2, ("ab", ab_lit(4, 4, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)],
             [("cap3", L2, lit(2)), ("g_iso", 3, ab_lit(2, 2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2, 2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(106, EQ2, ("ab", ab_lit(4, 2, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)],
             [("P_in_g3", L2), ("g_iso", 3, ab_lit(2, 2, 2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
        _rec(107, EQ2, ("ab", ab_lit(2, 2, 2, 2, 2, 2)),
             [("cap3", L2, one), ("g_iso", 3, ab_lit(2, 2, 2, 2)),
              ("g_iso", 4, TRIVIAL_TYPE)]),
    ]
    ids = [r.id for r in recs]
    assert ids == list(range(1, 108)), "condition ids must be 1..107"
    return tuple(recs)


CONDITIONS: tuple[ConditionRecord, ...] = _build_conditions()

# ids whose literal reading is annotated as suspect
SUSPECT_IDS = tuple(r.id for r in CONDITIONS if r.note and r.id not in (34, 50, 104))


def _corrected_overrides() -> dict[int, ConditionRecord]:
    L3, L5 = lit(3), lit(5)
    one = lit(1)
    by_id = {r.id: r for r in CONDITIONS}
    out: dict[int, ConditionRecord] = {}

    out[6] = replace(by_id[6], branches=(( ("g_in_P", 3, L5), ),))
    out[27] = replace(by_id[27], branches=(
        (("cap3", L3, one), ("g_iso", 3, ab_lit(3, 3))),
        by_id[27].branches[1],
    ))
    out[44] = replace(by_id[44], branches=(
        by_id[44].branches[0],
        (("g_iso", 4, ab_lit(2)), ("g_iso", 5, TRIVIAL_TYPE),
         ("P_in_g3", lit(2)), ("g_iso", 3, ab_lit(2, 2, 2))),
    ))
    out[46] = replace(by_id[46], gprime=("ab", ab_p(1, 1, 1, 1, 1)))
    out[70] = replace(by_id[70], branches=(
        (("g_iso", 3, ab_lit(3, 3)), ("cap3", L3, one)),
        by_id[70].branches[1],
    ))
    out[80] = replace(by_id[80], branches=(
        (("g_in_P", 3, L3), ("g_iso", 3, ab_lit(3, 3)),
         ("g_iso", 4, ab_lit(3)), ("g_iso", 5, TRIVIAL_TYPE)),
    ))
    out[90] = replace(by_id[90], branches=(
        (("g_iso", 3, TRIVIAL_TYPE), ("cap4", pp(1), one)),
    ))
    out[95] = replace(by_id[95], applicable_p=("eq", 2))
    out[96] = replace(by_id[96], applicable_p=("eq", 2))
    return out


def corrected_records() -> tuple[ConditionRecord, ...]:
    """The table with every annotated row replaced by its repaired reading."""
    overrides = _corrected_overrides()
    return tuple(overrides.get(r.id, r) for r in CONDITIONS)


def get_conditions(corrected: bool = False) -> tuple[ConditionRecord, ...]:
    return corrected_records() if corrected else CONDITIONS
