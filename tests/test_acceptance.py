"""Release checks.

Each test covers one advertised guarantee and prints a single PASS/FAIL
line, so `pytest tests/test_acceptance.py -q` doubles as a short report.
"""

import time

import pytest

from lienil.catalog import build_dihedral, build_free_class2, build_heisenberg, standard_catalog, table_entries, verify_tables
from lienil.classify import verify_theorem
from lienil.dimension import DSequence, d_sequence, jennings_index, lie_dimension_chain
from lienil.dvectors import enumerate_admissible, enumerate_raw, lemma_constraints_ok
from lienil.oracle import build_algebra, lie_dimension_orders, lower_lie_chain, t_upper_direct
from lienil.subgroups import abelian_invariants, derived_subgroup, lower_central_series, whole_group

ORACLE_CAP = 256


def report(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\ncheck {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def small_entries():
    return [e for e in standard_catalog() if e.order <= ORACLE_CAP]


def derived_of(entry):
    return derived_subgroup(whole_group(entry.group))


def test_check1_direct_oracle_agrees_with_jennings_formula(capsys):
    start = time.perf_counter()
    entries = small_entries()
    assert len(entries) >= 25
    assert {e.group.p for e in entries} == {2, 3, 5}
    names = {e.name for e in entries}
    assert names >= {"dihedral-8", "dihedral-16", "dihedral-32",
                     "quaternion-8", "quaternion-16",
                     "heisenberg-3", "heisenberg-5",
                     "cond65-quotient-p3", "cond66-quotient-p3"}
    assert sum(1 for n in names if n.startswith("abelian")) == 38
    mismatches = []
    for e in entries:
        direct = t_upper_direct(e.group, cap=ORACLE_CAP)
        formula = jennings_index(d_sequence(whole_group(e.group)))
        if direct != formula:
            mismatches.append((e.name, direct, formula))
        # the whole chain of Lie dimension subgroups, not only its length
        orders = lie_dimension_orders(build_algebra(e.group, ORACLE_CAP))
        if orders != [D.order for D in lie_dimension_chain(whole_group(e.group))]:
            mismatches.append((e.name, orders))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300
    report(capsys, 1, "direct chain and D_(m) equal the Jennings formula", ok,
           f"{len(entries)} groups, {elapsed:.1f}s"
           + (f", mismatches {mismatches}" if mismatches else ""))


def test_check2_d_sequence_mass_equals_derived_subgroup_log(capsys):
    entries = standard_catalog()
    bad = []
    for e in entries:
        seq = d_sequence(whole_group(e.group))
        if e.group.p ** seq.total() != derived_of(e).order:
            bad.append(e.name)
    report(capsys, 2, "d-sequence mass equals log_p|G'|", not bad,
           f"{len(entries)} groups, including the order-2^15 witness"
           + (f", failures {bad}" if bad else ""))


def test_check3_index_bounds_and_equality_above_p_3(capsys):
    rows = []
    for e in small_entries():
        derived_order = derived_of(e).order
        if derived_order == 1:
            continue
        p = e.group.p
        upper = t_upper_direct(e.group, cap=ORACLE_CAP)
        lower = len(lower_lie_chain(build_algebra(e.group, ORACLE_CAP)))
        in_bounds = p + 1 <= lower <= upper <= derived_order + 1
        equal_when_large_p = p <= 3 or lower == upper
        rows.append((e.name, p, in_bounds and equal_when_large_p))
    assert any(p > 3 for _, p, _ in rows)  # the equality clause is exercised
    bad = [name for name, _, ok in rows if not ok]
    report(capsys, 3, "p+1 <= t_L <= t^L <= |G'|+1, t_L = t^L for p > 3",
           not bad, f"{len(rows)} non-abelian groups"
           + (f", violations {bad}" if bad else ""))


def test_check4_headline_witness_and_d8_branch(capsys):
    start = time.perf_counter()
    witness = build_free_class2(5, 2)
    derived = derived_of(witness)
    assert abelian_invariants(derived) == [2] * 10
    assert lower_central_series(whole_group(witness.group))[2].order == 1
    seq = d_sequence(whole_group(witness.group))
    assert dict(seq.d) == {2: 10}
    t = jennings_index(seq)
    rep = verify_theorem(witness.group)
    branch = jennings_index(DSequence.from_dict(7, {2: 3, 8: 1}))
    elapsed = time.perf_counter() - start
    ok = (t == 12 == 10 * 2 - 8 and rep.consistent
          and rep.matched_ids == (90,) and branch == 62 == 10 * 7 - 8
          and elapsed < 60)
    report(capsys, 4, "witness index 12 with a unique matching condition, "
           "d_(8) branch gives 62", ok,
           f"t^L={t}, matched {rep.matched_ids}, verdict {rep.verdict}, "
           f"branch {branch}, {elapsed:.1f}s")


GENERIC_10 = (
    {2: 10}, {2: 8, 3: 1}, {2: 6, 3: 2}, {2: 5, 3: 1, 4: 1}, {2: 4, 3: 3},
    {2: 3, 3: 2, 4: 1}, {2: 2, 3: 4}, {2: 2, 3: 1, 4: 2}, {2: 1, 3: 3, 4: 1},
    {2: 1, 3: 1, 4: 1, 5: 1},
)

EXTRA_10 = {
    2: ({2: 4, 3: 1, 5: 1}, {2: 2, 3: 2, 5: 1}),
    3: ({2: 7, 4: 1}, {2: 4, 4: 2}, {2: 1, 4: 3}),
    5: ({2: 5, 6: 1}, {2: 3, 3: 1, 6: 1}, {2: 1, 3: 2, 6: 1}),
    7: ({2: 3, 8: 1}, {2: 1, 3: 1, 8: 1}),
    11: (),
}


def test_check5_weight_10_survivor_inventory(capsys):
    raw = enumerate_raw(10)
    assert len(raw) == 42
    problems = []
    for p in (2, 3, 5, 7, 11):
        golden = {DSequence.from_dict(p, d) for d in GENERIC_10 + EXTRA_10[p]}
        survivors = set(enumerate_admissible(p, 10))
        if survivors != golden:
            problems.append(f"p={p}: {survivors ^ golden}")
        for d in raw:
            vec = DSequence.from_dict(p, d)
            ok, violations = lemma_constraints_ok(vec)
            if ok != (vec in golden) or (not ok and not violations):
                problems.append(f"p={p}, {d}: constraint check disagrees")
    # the survivors singled out in the writeup, prime by prime
    d8_primes = {p for p in (2, 3, 5, 7, 11)
                 if any(v.get(8) for v in enumerate_admissible(p, 10))}
    if d8_primes != {7}:
        problems.append(f"d_(8) support {d8_primes}")
    if {p for p in (2, 3, 5, 7, 11)
            if DSequence.from_dict(p, {2: 5, 6: 1})
            in set(enumerate_admissible(p, 10))} != {5}:
        problems.append("{d2=5, d6=1} support wrong")
    if {p for p in (2, 3, 5, 7, 11)
            if DSequence.from_dict(p, {2: 4, 3: 1, 5: 1})
            in set(enumerate_admissible(p, 10))} != {2}:
        problems.append("{d2=4, d3=1, d5=1} support wrong")
    report(capsys, 5, "weight-10 survivors match the reviewed golden lists",
           not problems, "counts "
           + ", ".join(f"p={p}: {len(enumerate_admissible(p, 10))}"
                       for p in (2, 3, 5, 7, 11))
           + (f"; problems {problems}" if problems else ""))


def test_check6_shipped_tables_verify_exactly(capsys):
    entries = table_entries()
    by_order = {}
    for e in entries:
        by_order[e.order] = by_order.get(e.order, 0) + 1
    assert by_order.get(243, 0) >= 10
    assert by_order.get(3125, 0) >= 5
    assert by_order.get(2187, 0) >= 5
    rep = verify_tables(entries)
    failures = [r.name for r in rep.rows if not r.passed]
    report(capsys, 6, "every shipped table row recomputes exactly",
           rep.passed, f"rows by order {by_order}"
           + (f", failures {failures}" if failures else ""))


def test_check7_catalog_sequences_satisfy_lemma_constraints(capsys):
    bad = []
    for e in standard_catalog():
        seq = d_sequence(whole_group(e.group))
        ok, violations = lemma_constraints_ok(seq)
        if not ok or violations:
            bad.append((e.name, violations))
    report(capsys, 7, "every realized d-sequence is admissible", not bad,
           f"{len(standard_catalog())} groups"
           + (f", violations {bad}" if bad else ""))


def test_check8_negative_controls_match_nothing(capsys):
    d16 = verify_theorem(build_dihedral(16).group)
    h7 = verify_theorem(build_heisenberg(7).group)
    ok = (d16.index == 5 and d16.matched_ids == () and d16.consistent
          and h7.index == 8 and h7.matched_ids == () and h7.consistent)
    report(capsys, 8, "negative controls stay unmatched and consistent", ok,
           f"dihedral-16: t^L={d16.index}, {d16.verdict}; "
           f"heisenberg-7: t^L={h7.index}, {h7.verdict}")
