"""Builders, the built-in corpus, shipped table data, and its verification."""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from lienil import subgroups
from lienil.catalog import (
    _BUILDERS,
    BUILDER_NAMES,
    DATA_DIR,
    build_abelian,
    build_condition_group,
    build_condition_quotient,
    build_dihedral,
    build_free_class2,
    build_heisenberg,
    build_named,
    build_quaternion,
    computed_columns,
    fingerprint_db,
    import_presentation,
    reference_fingerprint,
    standard_catalog,
    table_entries,
    verify_tables,
)
from lienil.conditions import get_conditions
from lienil.subgroups import center, whole_group
from groups import REGISTRY, group, names

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
from gen_tables import (  # noqa: E402  (the table generator is a script, not a package)
    joint_order_class_histogram,
    pth_power_in_commutator_closure_count,
)


def test_builder_orders_and_names():
    assert build_dihedral(16).order == 16
    assert build_dihedral(16).name == "dihedral-16"
    assert build_quaternion(8).order == 8
    assert build_heisenberg(5).order == 125
    assert build_abelian(3, [9, 3]).order == 27
    assert build_free_class2(5, 2).order == 2**15
    assert build_condition_group(65, 3).order == 3**7
    assert build_condition_quotient(66, 3).order == 3**5


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        build_dihedral(12)
    with pytest.raises(ValueError):
        build_quaternion(4)
    with pytest.raises(ValueError):
        build_heisenberg(2)
    with pytest.raises(ValueError):
        build_abelian(3, [4])
    # p = 0 first: without the prime check p = 1 never returns
    for bad_p in (0, 1, -2):
        with pytest.raises(ValueError, match="not a prime"):
            build_abelian(bad_p, [4])
    with pytest.raises(ValueError):
        build_free_class2(9, 2)
    with pytest.raises(ValueError):
        build_condition_group(46, 3)
    with pytest.raises(ValueError):
        build_condition_group(1, 5)
    # an empty or non-integer factor is an error, not a dropped factor
    for spec in ("abelian:4x", "abelian:4,,2", "abelian:4xa", "abelian:"):
        with pytest.raises(ValueError, match=f"builder spec '{spec}'"):
            build_named(spec, p=2)


def test_build_named_dispatch():
    assert build_named("dihedral:32").order == 32
    assert build_named("abelian:4x2", p=2).order == 8
    assert build_named("free_class2:3", p=3).order == 3**6
    assert build_named("condition-quotient:65", p=3).order == 243
    with pytest.raises(ValueError):
        build_named("abelian:4x2")  # needs p
    with pytest.raises(ValueError):
        build_named("nosuch:1")
    assert BUILDER_NAMES


def test_condition_group_centres():
    # Row 65's group: two free factors plus one extraspecial block, so the
    # centre keeps five of the seven generators.
    G65 = build_condition_group(65, 3).group
    assert center(whole_group(G65)).order == 3**5
    # Row 66's group as presented: both commutators land on the same
    # generator, which couples the two blocks and cuts the centre to
    # <e, f, g> of order 27.
    G66 = build_condition_group(66, 3).group
    assert center(whole_group(G66)).order == 27


def test_standard_catalog_shape():
    entries = standard_catalog()
    assert len(entries) == 48
    names = [e.name for e in entries]
    assert names == sorted(names)
    assert sum(1 for e in entries if e.order <= 256) == 47
    assert {e.group.p for e in entries} == {2, 3, 5}


def test_the_group_registry():
    # unique names, every group of its declared order, the catalog under
    # its own names and relations, 30 shipped rows, a builder group of
    # every family, and each tag's size
    assert len({e.name for e in REGISTRY}) == len(REGISTRY) == 106
    assert all(group(e.name).order == e.order for e in REGISTRY)
    catalog = {e.name: e.group for e in standard_catalog()}
    assert sorted(names("catalog")) == list(catalog)
    for name, G in catalog.items():
        H = group(name)
        assert (G.p, G._powers, G._comms) == (H.p, H._powers, H._comms), name
    assert len(names("shipped")) == 30
    assert {e.spec[0].partition(":")[0] for e in REGISTRY if e.spec} == set(_BUILDERS)
    sizes = {"catalog": 48, "shipped": 30, "builder": 29, "oracle": 80, "cap3125": 33,
             "carry": 4, "prime": 4, "nonpc": 7, "scan": 16, "orbit": 2}
    assert {tag: len(names(tag)) for tag in sizes} == sizes


def test_catalog_orders_are_prime_powers():
    for e in standard_catalog():
        assert e.order == e.group.p ** e.group.ngens


def test_import_presentation_round_trip(tmp_path):
    entry = table_entries()[0]
    text = (DATA_DIR / "s243_13.pres").read_text()
    copy = tmp_path / "s243_13.pres"
    copy.write_text(text)
    reimported = import_presentation(copy)
    assert reimported.name == "S(243,13)"
    assert reimported.declared_id == (243, 13)
    assert reimported.expected
    assert reimported.order == 243


def test_import_rejects_mismatched_id(tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("p 3\ngens 2\nid 27 2\npow 1 : 1\npow 2 : 1\n")
    with pytest.raises(Exception):
        import_presentation(bad)


def test_shipped_tables_inventory():
    entries = table_entries()
    assert len(entries) == 30
    by_order = Counter(e.order for e in entries)
    assert by_order == {243: 14, 2187: 8, 3125: 8}
    assert all(e.declared_id for e in entries)
    assert all(e.expected for e in entries)
    # six columns for the p = 3 tables, seven for the p = 5 one
    for e in entries:
        assert len(e.expected) == (7 if e.order == 3125 else 6)


def test_table_generator_reproduces_the_shipped_files(tmp_path):
    tool = TOOLS / "gen_tables.py"
    done = subprocess.run([sys.executable, str(tool), "--out-dir", str(tmp_path)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    written = sorted(f.name for f in tmp_path.glob("*.pres"))
    shipped = sorted(f.name for f in DATA_DIR.glob("*.pres"))
    assert len(written) == 30 and written == shipped
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name


def test_verify_tables_on_a_sample():
    by_name = {e.name: e for e in table_entries()}
    sample = [by_name["S(243,37)"], by_name["S(2187,9094)"],
              by_name["S(3125,72)"]]
    report = verify_tables(sample)
    assert report.passed
    assert [r.name for r in report.rows] == sorted(r.name for r in report.rows)
    assert all("PASS" in line for line in report.lines())


def test_verify_tables_flags_wrong_expectations():
    entry = {e.name: e for e in table_entries()}["S(243,37)"]
    entry.expected["zeta"] = "C9"  # the true value is C3xC3
    report = verify_tables([entry])
    assert not report.passed
    row = report.rows[0]
    assert not row.passed
    assert any(key == "zeta" and want != got for key, want, got in row.details)
    assert any("MISMATCH" in line for line in report.lines())


def test_computed_columns_rejects_unknown_keys(monkeypatch):
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 4096)
    entry = table_entries()[0]
    with pytest.raises(ValueError):
        computed_columns(entry, ["nonsense"])


def test_fingerprint_db_covers_all_declared_ids():
    db = fingerprint_db()
    assert len(db) == 30
    assert (243, 13) in db and (3125, 76) in db
    assert all(iso.kind in ("abelian", "fingerprint") for iso in db.values())


def test_reference_fingerprints():
    fp = reference_fingerprint("heis_x_cp", 3)
    assert fp.kind == "fingerprint"
    assert reference_fingerprint("heis_x_cp", 3) is fp  # cached
    with pytest.raises(ValueError):
        reference_fingerprint("nonsense", 3)


# ---------------------------------------------------------------------------
# rows sharing all published column values must still be non-isomorphic


TWIN_BLOCKS = (("13", "14", "15"), ("16", "19"), ("38", "39"),
               ("41", "42"), ("56", "57"))


def test_twin_blocks_share_their_column_values():
    by_name = {e.name: e for e in table_entries()}
    for block in TWIN_BLOCKS:
        expected = [by_name[f"S(243,{n})"].expected for n in block]
        assert all(e == expected[0] for e in expected[1:]), block


@pytest.mark.parametrize("block", TWIN_BLOCKS, ids=["-".join(b) for b in TWIN_BLOCKS])
def test_twin_blocks_are_pairwise_nonisomorphic(block):
    by_name = {e.name: e for e in table_entries()}
    groups = {n: whole_group(by_name[f"S(243,{n})"].group)
              for n in block}
    hists = {n: joint_order_class_histogram(G) for n, G in groups.items()}
    for i, a in enumerate(block):
        for b in block[i + 1:]:
            if hists[a] != hists[b]:
                continue
            assert (pth_power_in_commutator_closure_count(groups[a])
                    != pth_power_in_commutator_closure_count(groups[b])), \
                (a, b)


def test_no_condition_splits_a_fingerprint_collision_block():
    # The fingerprint collisions in the database are exactly the twin
    # blocks, and no "sg" id list, literal or corrected, holds part of a
    # block, so shipped data never reaches classify's ambiguous status.
    by_iso: dict = {}
    for key, iso in fingerprint_db().items():
        by_iso.setdefault(iso, set()).add(key)
    blocks = [ids for ids in by_iso.values() if len(ids) > 1]
    assert sorted(map(sorted, blocks)) == [
        [(243, int(n)) for n in block] for block in TWIN_BLOCKS]
    for table in (get_conditions(False), get_conditions(True)):
        for rec in table:
            if rec.gprime[0] != "sg":
                continue
            listed = {(rec.gprime[1], n) for n in rec.gprime[2]}
            for ids in blocks:
                assert ids <= listed or not ids & listed, (rec.id, sorted(ids))


def test_all_shipped_rows_verify():
    # The full sweep; every expected column of every row must be exact.
    report = verify_tables()
    failures = [r.name for r in report.rows if not r.passed]
    assert report.passed, failures
    assert len(report.rows) == 30
