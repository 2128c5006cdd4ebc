"""End-to-end checks of the command-line interface, run in process."""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lienil import cli, dvectors, oracle, subgroups
from lienil.catalog import DATA_DIR
from lienil.cli import main
from lienil.fp_linalg import EchelonAccumulator
from lienil.pcgroup import PcGroup, PresentationError, parse_presentation_with_meta
from groups import NONABELIAN_DERIVED


@pytest.fixture(autouse=True)
def clean_cap_env(monkeypatch):
    monkeypatch.delenv("LIENIL_ORACLE_CAP", raising=False)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDENS = json.loads((Path(__file__).resolve().parents[1]
                      / "perfbench" / "goldens.json").read_text())
REPLAYED = {cmd: want for workload in ("classify", "index", "oracle")
            for cmd, want in sorted(GOLDENS[workload].items())}


@pytest.mark.parametrize("cmd", REPLAYED)
def test_benchmark_goldens_replay_byte_for_byte(capsys, cmd):
    # the benchmark's recorded exit codes and stdout, read, never written
    code, out, _ = run(capsys, cmd.split())
    assert (code, out) == (REPLAYED[cmd]["exit"], REPLAYED[cmd]["stdout"])


def test_index_text_output(capsys):
    code, out, err = run(capsys, ["index", "--builder", "dihedral:16"])
    assert code == 0 and err == ""
    assert out == ("group dihedral-16: order 16, p = 2\n"
                   "dimension subgroups: |D_(2)| = 4, |D_(3)| = 2, |D_(4)| = 1\n"
                   "d-sequence: {d_(2)=1, d_(3)=1}\n"
                   "upper index t^L = 5\n")


def test_index_on_shipped_file(capsys):
    path = str(DATA_DIR / "s243_13.pres")
    code, out, _ = run(capsys, ["index", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group S(243,13): order 243, p = 3"
    assert lines[2] == "d-sequence: {d_(2)=1, d_(3)=1}"
    assert lines[3] == "upper index t^L = 8"


def test_index_json_is_byte_deterministic(capsys):
    argv = ["index", "--builder", "heisenberg:5", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert payload["order"] == 125
    assert payload["d_sequence"] == {"2": 1}
    assert payload["upper_index"] == 6
    assert list(payload) == sorted(payload)


def test_oracle_agreement_note(capsys):
    code, out, _ = run(capsys, ["oracle", "--builder", "dihedral:16"])
    assert code == 0
    assert "t^L direct  = 5" in out
    assert "AGREE: direct chain matches the dimension formula (t_L = t^L)" in out


def test_oracle_json_payload(capsys):
    code, out, _ = run(capsys, ["oracle", "--builder", "quaternion:8", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "agree": True,
        "group": "quaternion-8",
        "lower_direct": 3,
        "order": 8,
        "p": 2,
        "upper_direct": 3,
        "upper_formula": 3,
    }


def test_classify_unmatched_group_is_consistent(capsys):
    code, out, _ = run(capsys, ["classify", "--builder", "dihedral:16"])
    assert code == 0
    assert "matched conditions: none" in out
    assert "verdict: CONSISTENT" in out


def test_classify_with_oracle_text_output(capsys):
    code, out, err = run(capsys, ["classify", "--builder", "dihedral:16", "--with-oracle"])
    assert (code, err) == (0, "")
    assert out == ("group dihedral-16: order 16, p = 2\n"
                   "upper index t^L = 5 (10p-8 = 12)\n"
                   "direct-chain index = 5\n"
                   "matched conditions: none\n"
                   "verdict: CONSISTENT\n")


def test_classify_witness_matches_condition_90(capsys):
    argv = ["classify", "--builder", "free_class2:5", "-p", "2", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_index"] == 12
    assert payload["expected_index"] == 12
    assert payload["matched_conditions"] == [90]
    assert payload["verdict"] == "CONSISTENT"
    # the corrected condition set agrees on this group
    code2, out2, _ = run(capsys, argv + ["--corrected-conditions"])
    assert code2 == 0
    assert json.loads(out2)["matched_conditions"] == [90]


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, ["enumerate-d", "-p", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p = 3: 13 admissible d-vectors of weight 10"
    assert len(lines) == 14


def test_enumerate_all_primes_json(capsys):
    code, out, _ = run(capsys, ["enumerate-d", "--all-p", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == 10
    counts = {p: len(v) for p, v in payload["survivors"].items()}
    assert counts == {"2": 12, "3": 13, "5": 13, "7": 12, "11": 10, "13": 10}
    assert {"2": 3, "8": 1} in payload["survivors"]["7"]


def test_enumerate_requires_a_prime(capsys):
    code, _, err = run(capsys, ["enumerate-d"])
    assert code == 2
    assert "need -p <prime> or --all-p" in err
    for bad in ("0", "1", "4", "-3"):
        code, out, err = run(capsys, ["enumerate-d", "-p", bad])
        assert code == 2 and out == ""
        assert f"not a prime: {bad}" in err


def test_abelian_builder_requires_a_prime(capsys):
    # p = 0 first: without the prime check p = 1 never returns
    for bad in ("0", "1"):
        code, out, err = run(capsys, ["index", "--builder", "abelian:4", "-p", bad])
        assert code == 2 and out == ""
        assert f"not a prime: {bad}" in err


def test_abelian_builder_rejects_empty_or_non_integer_factors(capsys):
    for spec in ("abelian:4x", "abelian:4,,2", "abelian:4xa"):
        code, out, err = run(capsys, ["index", "--builder", spec, "-p", "2"])
        assert code == 2 and out == ""
        assert f"builder spec '{spec}'" in err
    # every builder parameter is read the same way, with the spec named
    for spec, what, text in (("dihedral:abc", "order", "abc"), ("quaternion:", "order", ""),
                             ("heisenberg:5.0", "prime", "5.0"), ("free_class2:x", "rank", "x"),
                             ("condition:a", "row", "a"), ("condition-quotient:6x", "row", "6x")):
        code, out, err = run(capsys, ["index", "--builder", spec, "-p", "3"])
        assert (code, out) == (2, "")
        assert err == f"error: builder spec '{spec}': {what} '{text}' is not an integer\n"


def test_index_checks_the_cap_before_enumerating(capsys, monkeypatch):
    # G' of the rank-5 free class-2 group has order p^10 > 2^20 at p = 5 and
    # p = 7; the cap bounds enumeration only and nothing here enumerates, so
    # the paper's witness gets its t^L = 10p - 8
    calls = []
    multiply = PcGroup.multiply

    def counted(self, x, y):
        calls.append(y)
        return multiply(self, x, y)

    monkeypatch.setattr(PcGroup, "multiply", counted)
    for p, order, derived, t in ((5, 30517578125, 9765625, 42),
                                 (7, 4747561509943, 282475249, 62)):
        calls.clear()
        start = time.perf_counter()
        code, out, err = run(capsys, ["index", "--builder", "free_class2:5", "-p", str(p)])
        assert time.perf_counter() - start < 1
        assert code == 0 and err == ""
        assert out == (f"group free-class2-rank5-p{p}: order {order}, p = {p}\n"
                       f"dimension subgroups: |D_(2)| = {derived}, |D_(3)| = 1\n"
                       "d-sequence: {d_(2)=10}\n"
                       f"upper index t^L = {t}\n")
        assert t == 10 * p - 8 and len(calls) < 2**20


@pytest.mark.parametrize("rank,p,t", [(6, 2, 17), (6, 3, 32), (7, 2, 23), (7, 3, 44)])
def test_index_of_free_class2_at_ranks_6_and_7(capsys, rank, p, t):
    # G' is elementary abelian of rank r(r-1)/2 and central, so
    # t^L = 2 + (p-1) r(r-1)/2
    code, out, err = run(capsys, ["index", "--builder", f"free_class2:{rank}", "-p", str(p)])
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == f"upper index t^L = {t}"
    assert t == 2 + (p - 1) * rank * (rank - 1) // 2


def test_index_above_the_cap_enumerates_no_large_subgroup(capsys, monkeypatch):
    # |G| = 127^3 > 2^20: G is known from its sequence and never enumerated,
    # and the power chain of the abelian G' enumerates nothing either
    orders = []
    elements = subgroups._PcSequence.elements

    def counted(self):
        out = elements(self)
        orders.append(len(out))
        return out

    monkeypatch.setattr(subgroups._PcSequence, "elements", counted)
    code, out, err = run(capsys, ["index", "--builder", "heisenberg:127"])
    assert code == 0 and err == ""
    assert out == ("group heisenberg-127: order 2048383, p = 127\n"
                   "dimension subgroups: |D_(2)| = 127, |D_(3)| = 1\n"
                   "d-sequence: {d_(2)=1}\n"
                   "upper index t^L = 128\n")
    assert orders == []
    assert len(subgroups.whole_group(PcGroup(2, 2, {}, {})).elements) == 4
    assert orders == [4]


def test_index_at_large_primes(capsys, tmp_path):
    # no structure is O(p): collection works on exponents, and an entry's
    # powers are formed on demand, so t^L = p + 1 comes back at any prime
    big = 1000000000000000003
    four = tmp_path / "four.pres"
    four.write_text(f"p {big}\ngens 4\ncomm 2 1 : g3^1 g4^1\n")
    for argv, p in ((["--builder", "heisenberg:10007"], 10007),
                    (["--builder", f"heisenberg:{big}"], big),
                    ([str(four)], big)):
        start = time.perf_counter()
        code, out, err = run(capsys, ["index", *argv])
        assert time.perf_counter() - start < 1
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [f"dimension subgroups: |D_(2)| = {p}, |D_(3)| = 1",
                                        "d-sequence: {d_(2)=1}",
                                        f"upper index t^L = {p + 1}"]


def test_verify_tables_refuses_a_group_above_the_cap(capsys, monkeypatch):
    # the largest centre transversal the 30 rows enumerate has 625 elements;
    # no row needs more, so a cap of 1000 changes nothing
    _, default, _ = run(capsys, ["verify-tables", "--json"])
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 1000)
    code, out, err = run(capsys, ["verify-tables", "--json"])
    assert code == 0 and err == "" and out == default
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 100)
    code, out, err = run(capsys, ["verify-tables"])
    assert code == 2 and out == ""
    assert err == "error: subgroup larger than cap 100\n"


def test_enumerate_rejects_bad_weight(capsys):
    code, _, err = run(capsys, ["enumerate-d", "-p", "2", "--weight", "0"])
    assert code == 2
    assert "--weight must be positive" in err


def test_enumerate_refuses_weights_above_the_bound_before_enumerating(capsys, monkeypatch):
    bound = dvectors.MAX_WEIGHT
    code, out, err = run(capsys, ["enumerate-d", "--all-p", "--weight", str(bound + 1)])
    assert (code, out) == (2, "")
    assert err == f"error: weight {bound + 1} exceeds the enumeration bound {bound}\n"
    # the bound is checked before the partitions are listed, and is inclusive
    monkeypatch.setattr(dvectors, "MAX_WEIGHT", 4)
    code, out, err = run(capsys, ["enumerate-d", "-p", "2", "--weight", "4"])
    assert code == 0 and out.startswith("p = 2: ")
    code, out, err = run(capsys, ["enumerate-d", "-p", "2", "--weight", str(10**9)])
    assert (code, out) == (2, "")
    assert err == f"error: weight {10**9} exceeds the enumeration bound 4\n"


def test_verify_tables_on_copied_rows(tmp_path, capsys):
    for name in ("s243_13.pres", "s243_14.pres"):
        shutil.copy(DATA_DIR / name, tmp_path / name)
    code, out, _ = run(capsys, ["verify-tables", str(tmp_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines == ["PASS  S(243,13)", "PASS  S(243,14)", "2/2 rows passed"]


def test_verify_tables_catches_doctored_expectation(tmp_path, capsys):
    text = (DATA_DIR / "s243_13.pres").read_text()
    assert "expect zeta C3xC3" in text
    (tmp_path / "s243_13.pres").write_text(
        text.replace("expect zeta C3xC3", "expect zeta C9"))
    code, out, _ = run(capsys, ["verify-tables", str(tmp_path)])
    assert code == 1
    assert "FAIL  S(243,13)" in out
    assert "zeta: expected C9, computed C3xC3" in out
    assert "0/1 rows passed" in out


def test_verify_tables_json(tmp_path, capsys):
    shutil.copy(DATA_DIR / "s2187_5867.pres", tmp_path / "row.pres")
    code, out, _ = run(capsys, ["verify-tables", str(tmp_path), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    (row,) = payload["rows"]
    assert row["name"] == "S(2187,5867)"
    assert all(col["expected"] == col["computed"]
               for col in row["columns"].values())


def test_verify_tables_input_errors(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, ["verify-tables", str(tmp_path / "missing")])
    assert code == 2 and "no such directory" in err
    code, _, err = run(capsys, ["verify-tables", str(tmp_path)])
    assert code == 2 and "no presentation files" in err
    shutil.copy(DATA_DIR / "s243_13.pres", tmp_path / "s243_13.pres")
    (tmp_path / "broken.pres").write_text("p 3\ngens 1\nbogus line\n")
    code, _, err = run(capsys, ["verify-tables", str(tmp_path)])
    assert code == 2 and "broken.pres: line 3: unknown directive" in err
    # the bad key sits in the later row, so checking row by row would
    # compute S(243,13) first
    (tmp_path / "broken.pres").write_text(
        (DATA_DIR / "s2187_5867.pres").read_text() + "expect nonsense C3\n")

    def no_columns(*args, **kwargs):
        raise AssertionError("a column was computed before the keys were checked")

    monkeypatch.setattr("lienil.catalog.computed_columns", no_columns)
    code, _, err = run(capsys, ["verify-tables", str(tmp_path)])
    assert code == 2 and "unknown expectation key 'nonsense'" in err


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.symlink_to(path.parent / "nowhere.txt"),
], ids=["directory", "dangling-symlink"])
def test_verify_tables_unreadable_pres_entry_exits_2(tmp_path, capsys, make):
    shutil.copy(DATA_DIR / "s243_13.pres", tmp_path / "s243_13.pres")
    make(tmp_path / "x.pres")
    code, out, err = run(capsys, ["verify-tables", str(tmp_path)])
    assert (code, out) == (2, "")
    # one error line, no traceback
    assert err.startswith("error: x.pres: cannot read: ") and err.count("\n") == 1


def test_catalog_list(capsys):
    code, out, _ = run(capsys, ["catalog", "list"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 49
    assert lines[-1].startswith("48 entries; builders: dihedral:<order>")


def test_catalog_list_json(capsys):
    code, out, err = run(capsys, ["catalog", "list", "--json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["builders"] == [
        "dihedral:<order>", "quaternion:<order>", "heisenberg:<p>",
        "abelian:<f1>x<f2>x... (-p required)", "free_class2:<rank> (-p required)",
        "condition:<46|65|66> (-p required)", "condition-quotient:<65|66> (-p required)"]
    assert len(payload["entries"]) == 48
    assert payload["entries"][0] == {"name": "abelian-C16-p2", "order": 16, "p": 2,
                                     "description": "abelian, invariant factors 16"}


def test_catalog_build_json(capsys):
    code, out, err = run(capsys, ["catalog", "build", "quaternion:8", "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "name": "quaternion-8", "order": 8, "p": 2,
        "presentation": "# quaternion-8\np 2\ngens 3\npow 1 : g3^1\npow 2 : g3^1\n"
                        "pow 3 : 1\ncomm 2 1 : g3^1\n"}


@pytest.mark.parametrize("argv,message", [
    (["catalog", "list", "--no-large"], "unrecognized arguments: --no-large"),
    (["index", "--builder", "free-class2:3", "-p", "2"], "unknown builder 'free-class2'"),
    (["index", "--builder", "cond:46", "-p", "3"], "unknown builder 'cond'"),
    (["index", "--builder", "cond-quotient:65", "-p", "3"], "unknown builder 'cond-quotient'"),
], ids=["no-large", "free-class2", "cond", "cond-quotient"])
def test_removed_catalog_options_are_refused(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and message in err


def test_catalog_build_round_trips(capsys):
    code, out, _ = run(capsys, ["catalog", "build", "dihedral:16"])
    assert code == 0
    assert out.startswith("# dihedral-16\n")
    group, _meta = parse_presentation_with_meta(out)
    assert group.order == 16 and group.p == 2


def test_catalog_build_requires_spec(capsys):
    code, _, err = run(capsys, ["catalog", "build"])
    assert code == 2
    assert "builder spec" in err


def test_catalog_build_checks_the_prime_as_index_does(capsys):
    want = (2, "", "error: dihedral-16 is a 2-group, but -p 3 was given\n")
    assert run(capsys, ["catalog", "build", "dihedral:16", "-p", "3"]) == want
    assert run(capsys, ["index", "--builder", "dihedral:16", "-p", "3"]) == want


# every number is at most 4, so no drawn text declares more than 4 generators
_DIRECTIVES = ("p", "gens", "pow", "comm", "id", "expect", "bogus", "#", "")
_TOKENS = ("-1", "0", "1", "2", "3", "4", ":", "x", "#", "g1^1", "g2^1", "g3^2",
           "g4^1", "g5^1", "g0^1", "g1^-1", "g2", "^", "Gp3", "C3")
_LINE = st.builds(lambda key, rest: " ".join([key, *rest]),
                  st.sampled_from(_DIRECTIVES), st.lists(st.sampled_from(_TOKENS), max_size=5))
_PRESENTATION_TEXT = st.builds(
    lambda head, lines: head + "\n".join(lines),
    st.sampled_from(("", "p 2\ngens 3\n", "p 3\ngens 2\n", "p 5\ngens 4\n")),
    st.lists(_LINE, max_size=8))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_PRESENTATION_TEXT)
def test_fuzzed_presentations_parse_or_exit_2_without_a_traceback(tmp_path, capsys, text):
    try:
        group, _ = parse_presentation_with_meta(text)
    except PresentationError:
        group = None
    assert group is None or isinstance(group, PcGroup)
    path = tmp_path / "fuzz.pres"
    path.write_text(text)
    code, _, err = run(capsys, ["index", str(path)])
    assert code == (2 if group is None else 0), err
    assert "Traceback" not in err


def test_a_second_gens_line_in_a_file_exits_2_with_its_line(tmp_path, capsys):
    path = tmp_path / "twice.pres"
    path.write_text("p 3\ngens 3\npow 3 : g1^1\ngens 2\n")
    code, out, err = run(capsys, ["index", str(path)])
    assert (code, out, err) == (2, "", "error: twice.pres: line 4: duplicate gens\n")


def test_a_second_id_or_expect_line_in_a_file_exits_2_with_its_line(tmp_path, capsys):
    path = tmp_path / "twice.pres"
    path.write_text("p 3\ngens 1\npow 1 : 1\nid 3 1\nid 3 2\n")
    code, out, err = run(capsys, ["index", str(path)])
    assert (code, out, err) == (2, "", "error: twice.pres: line 5: duplicate id\n")
    path.write_text("p 3\ngens 1\nexpect zeta C3\nexpect ab C3\nexpect zeta C9\n")
    code, out, err = run(capsys, ["index", str(path)])
    assert (code, out, err) == (2, "", "error: twice.pres: line 5: duplicate expect zeta\n")


def test_group_source_validation(tmp_path, capsys):
    path = str(DATA_DIR / "s243_13.pres")
    code, _, err = run(capsys, ["index", path, "--builder", "dihedral:8"])
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, ["index"])
    assert code == 2 and "need a presentation file or --builder" in err
    code, _, err = run(capsys, ["index", str(tmp_path / "ghost.pres")])
    assert code == 2 and "no such file" in err
    code, _, err = run(capsys, ["index", path, "-p", "2"])
    assert code == 2 and "3-group" in err
    code, _, err = run(capsys, ["index", "--builder", "nosuch:1"])
    assert code == 2 and "unknown builder" in err


def test_index_refuses_an_enumeration_above_the_cap(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g128.pres"
    path.write_text(NONABELIAN_DERIVED)
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 2)
    code, _, err = run(capsys, ["index", str(path)])
    assert code == 2 and "cap" in err
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 65536)
    code, out, _ = run(capsys, ["index", str(path)])
    assert code == 0 and "upper index t^L = 9" in out


@pytest.mark.parametrize("argv", [
    ["index", "--builder", "dihedral:16", "--cap", "0"],
    ["classify", "--builder", "dihedral:16", "--cap", "0"],
    ["oracle", "--builder", "dihedral:16", "--cap", "-1"],
    ["verify-tables", "--cap", "0"],
], ids=["index", "classify", "oracle", "verify-tables"])
def test_non_positive_cap_is_rejected_before_any_work(argv, monkeypatch, capsys):
    # --cap is the oracle's order bound only; elsewhere argparse refuses it
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --cap was checked")
    monkeypatch.setattr(cli, "_load_entry", no_work)
    monkeypatch.setattr(cli, "table_entries", no_work)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    if argv[0] == "oracle":
        assert f"--cap must be positive, got {argv[-1]}" in err
    else:
        assert "unrecognized arguments: --cap" in err


@pytest.mark.parametrize("argv", [
    ["index", "--builder", "free_class2:5", "-p", "2"],
    ["classify", "--builder", "free_class2:5", "-p", "2"],
    ["verify-tables", "--json"],
], ids=["index", "classify", "verify-tables"])
def test_lienil_cap_is_not_read(argv, monkeypatch, capsys):
    want = run(capsys, argv)
    assert want[1] and want[2] == ""
    monkeypatch.setenv("LIENIL_CAP", "1")
    assert run(capsys, argv) == want


def test_oracle_structure_cap_is_checked_before_the_chains(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("Lie chains started before the enumeration cap was checked")
    path = tmp_path / "g128.pres"
    path.write_text(NONABELIAN_DERIVED)
    monkeypatch.setattr(oracle, "upper_lie_chain", no_work)
    monkeypatch.setattr(oracle, "lower_lie_chain", no_work)
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 1)
    code, out, err = run(capsys, ["oracle", str(path)])
    assert code == 2 and out == ""
    assert "subgroup larger than cap 1" in err


def test_oracle_cap_is_checked_before_the_formula(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("formula started before the oracle cap was checked")
    monkeypatch.setattr(cli, "upper_index", no_work)
    code, out, err = run(capsys, ["oracle", "--builder", "dihedral:16",
                                  "--cap", "8"])
    assert code == 2 and out == ""
    assert "oracle cap 8" in err


def _ideal_step(A, rows):
    # an upper step's result holding exactly the given rows over G'
    acc = EchelonAccumulator(A.p, A.cosets.shape[1])
    acc.add_block(rows)
    return acc


def _stationary_step(A, ideal, moves):
    # a step that returns I_n keeps every term
    return _ideal_step(A, ideal)


def test_oracle_reports_a_stationary_chain_as_an_inconsistency(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_upper_step", _stationary_step)
    code, out, err = run(capsys, ["oracle", "--builder", "dihedral:16"])
    assert code == 1 and out == ""
    assert err == ("inconsistency: upper chain went stationary at nonzero "
                   "dimension 16: not Lie nilpotent (or a bug)\n")


def test_classify_with_oracle_reports_a_stationary_chain_as_an_inconsistency(
        monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_upper_step", _stationary_step)
    code, out, err = run(capsys, ["classify", "--builder", "dihedral:16", "--with-oracle"])
    assert code == 1 and out == ""
    assert err == ("inconsistency: upper chain went stationary at nonzero "
                   "dimension 16: not Lie nilpotent (or a bug)\n")


def test_oracle_reports_a_chain_past_its_bound_as_an_inconsistency(monkeypatch, capsys):
    # a step that drops a row of the whole of F_p[G'] and restores it
    # otherwise never vanishes, and no step keeps its term's dimension
    build_algebra = oracle.build_algebra

    def small_bound(G, cap):
        A = build_algebra(G, cap)
        A.__dict__["chain_bound"] = 2  # the true bound of D16 is |G'| + 2 = 6
        return A

    def endless_step(A, ideal, moves):
        m = A.cosets.shape[1]
        return _ideal_step(A, ideal[1:] if len(ideal) == m else np.eye(m, dtype=np.int64))

    monkeypatch.setattr(oracle, "build_algebra", small_bound)
    monkeypatch.setattr(oracle, "_upper_step", endless_step)
    code, out, err = run(capsys, ["oracle", "--builder", "dihedral:16"])
    assert code == 1 and out == ""
    assert err == ("inconsistency: upper chain exceeded 2 terms without "
                   "vanishing: not Lie nilpotent (or a bug)\n")


@pytest.mark.parametrize("message,line", [
    ("", "error: out of memory\n"),
    ("Unable to allocate 8.00 GiB", "error: out of memory: Unable to allocate 8.00 GiB\n"),
], ids=["bare", "numpy"])
def test_index_out_of_memory_exits_2_with_a_message(monkeypatch, capsys, message, line):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(cli, "lie_dimension_chain", no_memory)
    code, out, err = run(capsys, ["index", "--builder", "dihedral:16"])
    assert (code, out, err) == (2, "", line)


def test_oracle_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("LIENIL_ORACLE_CAP", "8")
    code, _, err = run(capsys, ["oracle", "--builder", "dihedral:16"])
    assert code == 2 and "oracle cap 8" in err
    monkeypatch.setenv("LIENIL_ORACLE_CAP", "soon")
    code, _, err = run(capsys, ["oracle", "--builder", "dihedral:16"])
    assert code == 2 and "must be an integer" in err


@pytest.mark.parametrize("bad", ["soon", "0"])
def test_classify_reads_the_oracle_cap_only_with_the_oracle(monkeypatch, capsys, bad):
    argv = ["classify", "--builder", "dihedral:16"]
    want = run(capsys, argv)
    monkeypatch.setenv("LIENIL_ORACLE_CAP", bad)
    assert run(capsys, argv) == want
    code, out, err = run(capsys, argv + ["--with-oracle"])
    assert code == 2 and out == "" and err.startswith("error: LIENIL_ORACLE_CAP must be")


def test_argparse_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    capsys.readouterr()


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def _action_row(action):
    return (tuple(action.option_strings), action.dest, action.type, action.default,
            action.nargs, action.const, action.choices)


def _reader_rows(command):
    """_read_argv's declarations of one command, as _action_row reads an
    argparse action: positionals in order, then options sorted."""
    positionals, options = cli._PLAIN[command]
    rows = [((), dest, None, None, nargs, None, choices) for dest, nargs, choices in positionals]
    for string, (dest, kind, default) in sorted(options.items()):
        if kind is bool:
            rows.append(((string,), dest, None, default, 0, True, None))
        else:
            rows.append(((string,), dest, None if kind is str else kind, default,
                         None, None, None))
    return rows


def test_argv_reader_declares_what_argparse_declares():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    assert list(commands.choices) == list(cli._PLAIN)
    for command, sub in commands.choices.items():
        actions = [a for a in sub._actions if a.option_strings != ["-h", "--help"]]
        positionals = [a for a in actions if not a.option_strings]
        options = sorted((a for a in actions if a.option_strings), key=lambda a: a.option_strings)
        assert [_action_row(a) for a in positionals + options] == _reader_rows(command)
        assert sub._defaults == {"func": getattr(cli, "cmd_" + command.replace("-", "_"))}


README_ARGVS = [line.partition("|")[0].split() for line in re.findall(
    r"^\$ lienil (.*)$", (Path(__file__).resolve().parents[1] / "README.md").read_text(),
    flags=re.MULTILINE)]


@pytest.mark.parametrize("argv", [cmd.split() for cmd in REPLAYED] + README_ARGVS,
                         ids=" ".join)
def test_benchmark_and_readme_argvs_are_read_without_argparse(argv):
    read = cli._read_argv(argv)
    assert read is not None and vars(read) == _argparse_vars(argv)


READER_OPTIONS = sorted({s for _, options in cli._PLAIN.values() for s in options})
READER_TOKENS = [*READER_OPTIONS, "--js", "--with", "--builder=x", "-p3", "-h", "--help",
                 "--", "", "-3", "3", "0", "x", "dihedral:8", "list", "build"]


@settings(max_examples=400, deadline=None)
@given(command=st.sampled_from([*cli._PLAIN, "bogus", "-h", "Index", ""]),
       tokens=st.lists(st.sampled_from(READER_TOKENS), max_size=6))
def test_argv_reader_agrees_with_argparse(command, tokens):
    argv = [command, *tokens]
    read, want = cli._read_argv(argv), _argparse_vars(argv)
    if read is not None:
        assert vars(read) == want
        assert read.func is want["func"]


@pytest.mark.parametrize("argv,p", [
    # argparse gives `spec` nothing before --json, then refuses dihedral:8
    (["catalog", "build", "--json", "dihedral:8"], None),
    (["index", "a", "b"], None),
    # argparse reads -3 as a value; the reader leaves every leading - to it
    (["index", "-p", "-3", "--builder", "dihedral:8"], -3),
], ids=["catalog-split-positionals", "index-two-files", "index-negative-p"])
def test_argv_reader_leaves_argparse_quirks_to_argparse(argv, p):
    assert cli._read_argv(argv) is None
    want = _argparse_vars(argv)
    assert (want and want["p"]) == p


def test_argv_reader_calls_the_command_bound_at_call_time(monkeypatch):
    # a tracer rebinds cmd_* after import; the plain path must reach it
    monkeypatch.setattr(cli, "cmd_index", lambda args: 7)
    assert main(["index", "--json"]) == 7


MODULES_AFTER = """
import contextlib, io, json, sys
from lienil.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def _run_fresh(argvs):
    """Exit codes of the invocations in a fresh interpreter, and the
    modules imported by then."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", MODULES_AFTER, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    return result["codes"], result["modules"]


def _numpy_modules_after(argvs):
    """The numpy modules imported by the invocations, each of which succeeds,
    in a fresh interpreter."""
    codes, modules = _run_fresh(argvs)
    assert codes == [0] * len(argvs)
    return [m for m in modules if m.split(".")[0] == "numpy"]


def test_commands_without_the_oracle_never_import_numpy():
    assert _numpy_modules_after([
        ["index", "--builder", "dihedral:16"],
        ["classify", "--builder", "dihedral:16"],
        ["verify-tables"],
        ["enumerate-d", "-p", "3"],
        ["catalog", "list"],
        ["catalog", "build", "dihedral:16"],
    ]) == []


def test_plain_argvs_never_import_argparse():
    codes, modules = _run_fresh([
        ["index", "--builder", "dihedral:16", "--json"],
        ["oracle", "--builder", "dihedral:8", "--cap", "16"],
        ["classify", "--builder", "dihedral:16", "--with-oracle", "--corrected-conditions"],
        ["verify-tables", "--json"],
        ["enumerate-d", "-p", "3", "--weight", "4"],
        ["enumerate-d", "--all-p"],
        ["catalog", "list"],
        ["catalog", "build", "dihedral:16", "-p", "2"],
    ])
    assert codes == [0] * 8
    assert "argparse" not in modules


@pytest.mark.parametrize("argv,code", [([], 2), (["bogus"], 2), (["index", "-h"], 0)],
                         ids=["none", "bogus", "index-help"])
def test_other_argvs_go_through_argparse(argv, code):
    codes, modules = _run_fresh([argv])
    assert codes == [code]
    assert "argparse" in modules


def test_oracle_does_not_import_numpy_ma():
    modules = _numpy_modules_after([["oracle", "--builder", "dihedral:16"]])
    assert "numpy" in modules
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("argv", [
    ["catalog", "list", "--json"],
    ["verify-tables", "--json"],
    # output short enough to sit in the buffer until the flush
    ["index", "--builder", "dihedral:8"],
], ids=["catalog-list", "verify-tables", "index"])
def test_a_closed_stdout_pipe_ends_quietly(argv):
    # the reader end is closed before the command writes anything
    read, write = os.pipe()
    os.close(read)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        done = subprocess.run([sys.executable, "-m", "lienil.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")
