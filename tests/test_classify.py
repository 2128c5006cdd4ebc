"""Clause evaluation on the group, condition matching, and the per-group
theorem check."""

from dataclasses import replace
from math import gcd, prod

import pytest

from lienil import classify
from lienil.catalog import (
    build_abelian,
    build_condition_quotient,
    build_dihedral,
    build_free_class2,
    build_heisenberg,
)
from lienil.classify import (
    AmbiguousMatch,
    evaluate_clause,
    match_conditions,
    verify_theorem,
)
from lienil.conditions import (CONDITIONS, ConditionRecord, ab_lit,
                               corrected_records, eval_abelian, eval_value, lit)
from lienil.subgroups import (IsoType, fingerprint, lower_central_series,
                              power_subgroup, whole_group)
from groups import group, names
from test_pcgroup import collected_commutator, collected_conjugate


@pytest.fixture(scope="module")
def heis3():
    return whole_group(group("heisenberg-3"))


def test_profile_of_heisenberg(heis3):
    W = heis3
    series = lower_central_series(W)
    derived = series[1]
    assert W.group.p == 3
    assert W.order == 27
    assert derived.order == 3
    assert derived.exponent() == 3
    assert fingerprint(derived) == IsoType("abelian", (3,))
    assert series[-1].is_trivial() and len(series) - 1 == 2  # class 2
    # coprime exponent: squares regenerate the whole derived subgroup
    assert power_subgroup(derived, 2).order == 3
    assert power_subgroup(derived, 3).order == 1
    # any exponent is evaluated: 4 is coprime to 3 as well
    assert power_subgroup(derived, 4) is derived
    assert evaluate_clause(("P_iso", lit(4), ab_lit(3)), W)


def test_evaluate_clause_vocabulary(heis3):
    W = heis3
    assert evaluate_clause(("g_iso", 3, ab_lit()), W)
    assert evaluate_clause(("P_in_g3", ("p", 1)), W)
    assert not evaluate_clause(("P_in_g3", lit(2)), W)
    assert evaluate_clause(("cap3", lit(2), lit(1)), W)
    assert evaluate_clause(("P_in_zeta", ("p", 1)), W)
    assert evaluate_clause(("gpp_in_zeta",), W)
    d16 = whole_group(build_dihedral(16).group)
    assert evaluate_clause(("g_iso", 3, ab_lit(2)), d16)
    assert not evaluate_clause(("g_iso", 3, ab_lit(4)), d16)
    assert evaluate_clause(("g_in_P", 3, lit(2)), d16)
    assert evaluate_clause(("P_eq_g3", lit(2)), d16)
    with pytest.raises(ValueError):
        evaluate_clause(("no_such_op",), W)
    # gamma_5 of a class-2 group is trivial, so it lies in every P_q
    assert evaluate_clause(("g_in_P", 5, lit(2)), W)


def test_dihedral_16_is_consistent_without_matches():
    rep = verify_theorem(build_dihedral(16).group)
    assert rep.index == 5
    assert rep.expected_index == 12
    assert rep.matched_ids == ()
    assert rep.ambiguous == ()
    assert rep.verdict == "CONSISTENT"
    assert rep.consistent


def test_heisenberg_7_is_consistent_without_matches():
    rep = verify_theorem(build_heisenberg(7).group)
    assert rep.index == 8
    assert rep.expected_index == 62
    assert rep.matched_ids == ()
    assert rep.consistent


def test_witness_matches_exactly_one_condition():
    G = build_free_class2(5, 2).group
    for corrected in (False, True):
        rep = verify_theorem(G, corrected=corrected)
        assert rep.index == rep.expected_index == 12
        assert rep.matched_ids == (90,)
        assert rep.verdict == "CONSISTENT"
        assert rep.corrected is corrected


def test_classify_builds_one_lower_central_series(monkeypatch, capsys):
    # the series is memoized on the whole group, so every call, from the
    # clauses and from the dimension chain, returns the same list
    from lienil import classify, cli, dimension, subgroups
    returned = []

    def recorded(W):
        series = subgroups.lower_central_series(W)
        returned.append(series)
        return series

    for module in (classify, dimension):
        monkeypatch.setattr(module, "lower_central_series", recorded)
    assert cli.main(["classify", "--builder", "dihedral:16"]) == 0
    capsys.readouterr()
    assert len(returned) > 1
    assert all(series is returned[0] for series in returned)


def test_abelian_group_is_trivially_consistent():
    rep = verify_theorem(build_abelian(2, [4, 2]).group)
    assert rep.index == 2
    assert rep.matched_ids == ()
    assert rep.consistent


def test_condition_quotients_at_order_243():
    for item in (65, 66):
        rep = verify_theorem(build_condition_quotient(item, 3).group)
        assert rep.consistent
        assert rep.matched_ids == ()


def test_with_oracle_annotates_report():
    rep = verify_theorem(build_dihedral(16).group, with_oracle=True)
    assert rep.oracle_index == 5
    assert rep.consistent
    big = verify_theorem(build_free_class2(5, 2).group, with_oracle=True)
    assert big.oracle_index is None
    assert any("direct-check" in note for note in big.notes)
    assert big.consistent


# ---------------------------------------------------------------------------
# identification paths the shipped corpus cannot reach, on real groups with
# a fake fingerprint database


@pytest.fixture(scope="module")
def nonabelian_derived():
    """W of order 2^7 and the fingerprint of its non-abelian G' (order 16)."""
    W = whole_group(group("nonabelian-derived-128"))
    iso = fingerprint(lower_central_series(W)[1])
    assert iso.kind == "fingerprint" and iso.fingerprint[0] == 16
    return W, iso


def sg_record(ids, order=16):
    return ConditionRecord(id=1, applicable_p=("any",),
                           gprime=("sg", order, tuple(ids)),
                           branches=((),))


def test_reference_rows_match_by_the_reference_fingerprint(nonabelian_derived):
    # G' is D8 x C2, which is heis_x_cp at p = 2 (H(2) = D8), and is not
    # H(2) x C2^3
    W, _ = nonabelian_derived
    for key, matched in (("heis_x_cp", (1,)), ("heis_x_cp3", ())):
        rec = ConditionRecord(id=1, applicable_p=("any",), gprime=("ref", key),
                              branches=((),))
        assert match_conditions(W, records=(rec,)).matched_ids == matched


def test_sg_rows_read_the_shipped_fingerprints_by_default(nonabelian_derived, monkeypatch):
    W, iso = nonabelian_derived
    # no shipped presentation has order 16
    assert match_conditions(W, records=(sg_record([5]),)).matched_ids == ()
    monkeypatch.setattr(classify, "fingerprint_db", lambda: {(16, 5): iso})
    assert match_conditions(W, records=(sg_record([5]),)).matched_ids == (1,)


def ab_record(cid, gate=("any",)):
    """A row that every group with G' cyclic of order 3 satisfies."""
    return ConditionRecord(id=cid, applicable_p=gate,
                           gprime=("ab", ab_lit(3)), branches=((),))


def test_fingerprint_collision_reports_ambiguity(nonabelian_derived):
    W, iso = nonabelian_derived
    db = {(16, 5): iso, (16, 6): iso}
    rep = match_conditions(W, records=(sg_record([5]),), db=db)
    assert rep.matched_ids == ()
    assert rep.ambiguous == (AmbiguousMatch(1, ((16, 5), (16, 6))),)
    assert any("disagree" in note for note in rep.notes)


def test_fingerprint_agreement_counts_as_match(nonabelian_derived):
    W, iso = nonabelian_derived
    db = {(16, 5): iso, (16, 6): iso}
    rep = match_conditions(W, records=(sg_record([5, 6]),), db=db)
    assert rep.matched_ids == (1,)
    assert rep.ambiguous == ()


def test_fingerprint_disagreement_everywhere_is_no_match(nonabelian_derived):
    W, iso = nonabelian_derived
    db = {(16, 5): iso, (16, 6): iso}
    rep = match_conditions(W, records=(sg_record([7]),), db=db)
    assert rep.matched_ids == ()
    assert rep.ambiguous == ()


def test_unknown_fingerprint_is_no_match(nonabelian_derived):
    W, _ = nonabelian_derived
    rep = match_conditions(W, records=(sg_record([5]),), db={})
    assert rep.matched_ids == ()


def test_abelian_derived_subgroup_never_matches_sg_rows(heis3):
    # even a database entry carrying G''s own (abelian) type does not match
    iso = fingerprint(lower_central_series(heis3)[1])
    rep = match_conditions(heis3, records=(sg_record([5], order=3),),
                           db={(3, 5): iso})
    assert rep.matched_ids == ()


def test_overlapping_matches_are_all_reported(heis3):
    rec_a = ab_record(1)
    rec_b = replace(rec_a, id=2)
    rep = match_conditions(heis3, records=(rec_a, rec_b), db={})
    assert rep.matched_ids == (1, 2)
    assert any("matches 2 conditions" in note for note in rep.notes)


def test_prime_gate_filters_records(heis3):
    rep = match_conditions(heis3, records=(ab_record(1, ("eq", 5)),), db={})
    assert rep.matched_ids == ()
    rep = match_conditions(heis3, records=(ab_record(1, ("eq", 3)),), db={})
    assert rep.matched_ids == (1,)


# ---------------------------------------------------------------------------
# every clause of both tables against an evaluator on element sets


class ElementSets:
    """The subgroups the clauses name, as element sets of one small group,
    built by brute force: closures by right multiplication, gamma_(i+1)
    as the normal closure of [x, g] for every x in gamma_i and every pc
    generator g, P_q from every q-th power in G'."""

    def __init__(self, G):
        self.G = G
        self.gamma = [self.close(G.generators())]
        while len(self.gamma[-1]) > 1:
            self.gamma.append(self.normal_close(
                collected_commutator(G, x, g) for x in self.gamma[-1] for g in G.generators()))
        self._powers, self._abelian = {}, {}
        self.derived = self.term(2)
        self.centre = frozenset(z for z in self.derived
                                if all(G.multiply(z, x) == G.multiply(x, z)
                                       for x in self.derived))
        self.second = self.close(collected_commutator(G, x, y)
                                 for x in self.derived for y in self.derived)

    def close(self, gens):
        G = self.G
        kept, elements = [], {G.identity}
        for g in gens:
            if g in elements:
                continue
            kept.append(g)
            frontier = list(elements)
            while frontier:
                x = frontier.pop()
                for h in kept:
                    y = G.multiply(x, h)
                    if y not in elements:
                        elements.add(y)
                        frontier.append(y)
        return frozenset(elements)

    def normal_close(self, gens):
        S = self.close(gens)
        while True:
            T = self.close([*S, *(collected_conjugate(self.G, x, g)
                                   for x in S for g in self.G.generators())])
            if T == S:
                return S
            S = T

    def term(self, i):
        return self.gamma[min(i, len(self.gamma)) - 1]

    def power(self, S, q):
        if (S, q) not in self._powers:
            self._powers[S, q] = self.close(self.G.power(x, q) for x in S)
        return self._powers[S, q]

    def abelian(self, S):
        G = self.G
        if S not in self._abelian:
            self._abelian[S] = all(G.multiply(x, y) == G.multiply(y, x)
                                   for x in S for y in S)
        return self._abelian[S]

    def roots(self, S, m):
        """#{x in S : x^m = 1}."""
        return sum(self.G.power(x, m) == self.G.identity for x in S)

    def has_type(self, S, factors):
        """S abelian and isomorphic to the product of cyclic groups of the
        given orders: a finite abelian group is pinned by its order and by
        the number of solutions of x^m = 1 for each m dividing it."""
        if len(S) != prod(factors) or not self.abelian(S):
            return False
        ms = [self.G.p ** k for k in range(len(S).bit_length())]
        return all(self.roots(S, m) == prod(gcd(m, n) for n in factors)
                   for m in ms)

    def same_abelian_type(self, S, T):
        ms = [self.G.p ** k for k in range(max(len(S), len(T)).bit_length())]
        return (len(S) == len(T) and self.abelian(S) and self.abelian(T)
                and all(self.roots(S, m) == self.roots(T, m) for m in ms))

    def evaluate(self, clause):
        op, *args = clause
        p = self.G.p
        g3, g4 = self.term(3), self.term(4)

        def P(q):
            return self.power(self.derived, eval_value(q, p))

        if op == "g_iso":
            return self.has_type(self.term(args[0]), eval_abelian(args[1], p))
        if op == "g_in_P":
            return self.term(args[0]) <= P(args[1])
        if op == "P_in_g3":
            return P(args[0]) <= g3
        if op == "P_eq_g3":
            return P(args[0]) == g3
        if op == "cap3":
            return len(P(args[0]) & g3) == eval_value(args[1], p)
        if op == "cap4":
            return len(P(args[0]) & g4) == eval_value(args[1], p)
        if op == "P_iso":
            return self.has_type(P(args[0]), eval_abelian(args[1], p))
        if op == "g3_iso_P":
            assert self.abelian(g3), "the reference compares abelian types only"
            return self.same_abelian_type(g3, P(args[0]))
        u = self.close(self.power(self.derived, p * p) | self.power(g3, p))
        if op == "g4_in_U":
            return g4 <= u
        if op == "U_iso":
            return self.has_type(u, eval_abelian(args[0], p))
        if op == "P_in_zeta":
            return P(args[0]) <= self.centre
        if op == "gpp_in_zeta":
            return self.second <= self.centre
        raise ValueError(f"unknown clause {clause!r}")


ALL_CLAUSES = sorted({clause for table in (CONDITIONS, corrected_records())
                      for record in table for branch in record.branches
                      for clause in branch}, key=repr)

@pytest.mark.parametrize("name", names("oracle"))
def test_every_clause_matches_the_element_set_reference(name):
    G = group(name)
    W = whole_group(G)
    sets = ElementSets(G)
    assert [S.elements for S in lower_central_series(W)] == sets.gamma
    for clause in ALL_CLAUSES:
        assert evaluate_clause(clause, W) == sets.evaluate(clause), clause
