#!/usr/bin/env python3
"""Regenerate the presentation data files under src/lienil/data/tables.

Each .pres file reconstructs one published table row: a group of order
5^5, 3^7, or 3^5 whose structure columns (power subgroup, exponent,
centre, derived subgroup, and their intersections) must match the pinned
values hardcoded below, column for column.  The script

  1. builds every group from an explicit polycyclic presentation (three
     order-243 families are filled by a small deterministic parameter
     search over candidate relation sets),
  2. recomputes each column with the package's own machinery and aborts
     on any mismatch,
  3. proves that entries sharing an identical column profile are pairwise
     non-isomorphic, using conjugation-refined invariants (joint element
     order / class size histogram, cube-versus-commutator-image counts,
     maximal subgroup fingerprints), and
  4. writes the .pres files with id line, construction comment, and
     expect lines.

The `id <order> <number>` lines are claims keyed to the standard
small-group numbering.  Where several rows share one column profile, the
assignment of our non-isomorphic reconstructions to the individual
numbers inside that block is a recorded convention, not a computed fact.

Run from the repo root:

    python3 tools/gen_tables.py [--check-only]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from lienil.catalog import DATA_DIR, CatalogEntry, computed_columns, verify_tables, table_entries
from lienil.pcgroup import Element, PcGroup, PresentationError, PresentationMeta
from lienil.subgroups import (
    Subgroup,
    _conjugation_closure,
    center,
    closure,
    derived_subgroup,
    fingerprint,
    power_subgroup,
    subgroup_product,
    whole_group,
)

T1_KEYS = ("Gp5", "expGp", "zeta", "Gpp", "GppcapGp5", "GppcapZeta", "Gp5capZeta")
T23_KEYS = ("Gp3", "expGp", "zeta", "Gpp", "GppcapGp3", "Gp3capZeta")


# ---------------------------------------------------------------------------
# invariants used to separate same-profile entries


def central_cube_count(W: Subgroup) -> int:
    G = W.group
    zeta = center(W)
    return sum(1 for x in W.elements if G.power(x, G.p) in zeta)


def _conjugacy_classes(H: Subgroup) -> Iterator[set[Element]]:
    """The conjugacy classes of H, as element sets."""
    G = H.group
    left: set[Element] = set(H.elements)
    while left:
        x = left.pop()
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in H.generators:
                z = G.conjugate(y, g)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        left -= orbit
        yield orbit


def joint_order_class_histogram(H: Subgroup) -> tuple:
    """Sorted ((element order, class size), count) pairs, counted by element."""
    G = H.group
    pairs: Counter = Counter()
    for orbit in _conjugacy_classes(H):
        pairs[(G.element_order(next(iter(orbit))), len(orbit))] += len(orbit)
    return tuple(sorted(pairs.items()))


def pth_power_in_commutator_closure_count(H: Subgroup) -> int:
    """#{x in H : x^p lies in the normal closure in H of [x, H]}.

    An isomorphism invariant that separates groups the class and order
    statistics cannot.
    """
    G = H.group
    count = 0
    for x in H.elements:
        image = _conjugation_closure(G, (G.commutator(x, g) for g in H.generators),
                                     H.generators)  # stays inside H
        if G.power(x, G.p) in image:
            count += 1
    return count


def maximal_subgroup_fingerprints(W: Subgroup) -> tuple:
    """Sorted multiset of fingerprints of the index-p subgroups of W."""
    G = W.group
    frat = subgroup_product(derived_subgroup(W), power_subgroup(W, G.p))
    basis = []
    span = frat
    for i in range(G.ngens):
        g = G.generator(i)
        if g in span:
            continue
        basis.append(g)
        span = closure(G, list(span.generators) + basis)
    k = len(basis)
    p = G.p
    names = []
    # one functional per hyperplane: first nonzero coefficient normalized to 1
    for code in range(p**k):
        coeffs = [(code // p**i) % p for i in range(k)]
        nz = [c for c in coeffs if c]
        if not nz or nz[0] != 1:
            continue
        gens = list(frat.generators)
        for vec in range(p**k):
            v = [(vec // p**i) % p for i in range(k)]
            if sum(c * e for c, e in zip(coeffs, v)) % p:
                continue
            elem = G.identity
            for b, e in zip(basis, v):
                elem = G.multiply(elem, G.power(b, e))
            gens.append(elem)
        sub = closure(G, gens)
        assert sub.order * p == G.order
        names.append(str(fingerprint(sub)))
    return tuple(sorted(names))


def strong_invariant(G: PcGroup) -> tuple:
    W = whole_group(G)
    return (
        joint_order_class_histogram(W),
        pth_power_in_commutator_closure_count(W),
        central_cube_count(W),
        maximal_subgroup_fingerprints(W),
    )


# ---------------------------------------------------------------------------
# row specifications


class Row:
    def __init__(self, order: int, number: int, keys, values, group: PcGroup,
                 comment: str):
        self.order = order
        self.number = number
        self.keys = tuple(keys)
        self.values = tuple(values)
        self.group = group
        self.comment = comment

    @property
    def expected(self) -> dict:
        return dict(zip(self.keys, self.values))

    @property
    def filename(self) -> str:
        return f"s{self.order}_{self.number}.pres"


def pc(p: int, n: int, powers: dict, comms: dict) -> PcGroup:
    return PcGroup(p, n, powers, comms)


def table1_rows() -> list:
    rows = []

    def add(number, values, group, comment):
        rows.append(Row(3125, number, T1_KEYS, values, group, comment))

    add(2, ("C5xC5", "25", "C5xC5xC5", "C5", "1", "C5", "C5xC5"),
        pc(5, 5, {0: ((3, 1),), 1: ((4, 1),)}, {(1, 0): ((2, 1),)}),
        "a, b of order 25 with [b,a] = c central of order 5")
    add(40, ("C5", "25", "C5xC5xC5", "C5", "1", "C5", "C5"),
        pc(5, 5, {0: ((3, 1),)}, {(1, 0): ((2, 1),)}),
        "a of order 25, b of order 5, [b,a] = c central of order 5; times C5")
    add(41, ("C5xC5", "25", "C5xC5xC5", "C5", "C5", "C5", "C5xC5"),
        pc(5, 5, {0: ((2, 1),), 1: ((3, 1),)}, {(1, 0): ((2, 1),)}),
        "metacyclic: a, b of order 25 with [b,a] = a^5; times C5")
    add(42, ("C5xC5", "25", "C25xC5", "C5", "C5", "C5", "C5xC5"),
        pc(5, 5, {0: ((2, 1),), 3: ((4, 1),)}, {(1, 0): ((2, 1),)}),
        "modular group of order 125 ([b,a] = a^5) times C25")
    add(43, ("C5", "25", "C25xC5", "C5", "1", "C5", "C5"),
        pc(5, 5, {3: ((4, 1),)}, {(1, 0): ((2, 1),)}),
        "Heisenberg group of order 125 times C25")
    add(72, ("1", "5", "C5xC5xC5", "C5", "1", "C5", "1"),
        pc(5, 5, {}, {(1, 0): ((2, 1),)}),
        "Heisenberg group of order 125 times C5 x C5")
    add(75, ("1", "5", "C5", "C5", "1", "C5", "1"),
        pc(5, 5, {}, {(1, 0): ((4, 1),), (3, 2): ((4, 1),)}),
        "extraspecial of order 5^5 and exponent 5")
    add(76, ("C5", "25", "C5", "C5", "C5", "C5", "C5"),
        pc(5, 5, {3: ((4, 1),)}, {(1, 0): ((4, 1),), (3, 2): ((4, 4),)}),
        "central product of the modular order-125 group and the Heisenberg "
        "group of order 125, identifying a^5 with the central commutator")
    return rows


def table2_rows() -> list:
    rows = []

    def add(number, values, group, comment):
        rows.append(Row(2187, number, T23_KEYS, values, group, comment))

    add(5867, ("C3xC3", "9", "C9xC9xC3", "C3", "1", "C3xC3"),
        pc(3, 7, {0: ((5, 1),), 1: ((6, 1),), 2: ((5, 1),), 3: ((6, 1),)},
           {(3, 2): ((4, 1),)}),
        "a, b of order 9 with [b,a] = c central of order 3; "
        "central u, v with u^3 = a^3 and v^3 = b^3")
    add(5868, ("C3xC3xC3", "9", "C9xC9xC3", "C3", "C3", "C3xC3xC3"),
        pc(3, 7, {0: ((5, 1),), 1: ((4, 1),), 2: ((5, 1),), 3: ((6, 1),)},
           {(3, 2): ((4, 1),)}),
        "a, b of order 9 with [b,a] = c central of order 3; "
        "central u, w with u^3 = a^3 and w^3 = c")
    add(5872, ("C3xC3", "9", "C3xC3xC3xC3xC3", "C3", "1", "C3xC3"),
        pc(3, 7, {0: ((3, 1),), 1: ((4, 1),)}, {(1, 0): ((2, 1),)}),
        "a, b of order 9 with [b,a] = c central of order 3; times C3 x C3")
    add(9094, ("C3", "9", "C3xC3xC3xC3xC3", "C3", "1", "C3"),
        pc(3, 7, {0: ((3, 1),)}, {(1, 0): ((2, 1),)}),
        "a of order 9, b of order 3, [b,a] = c central of order 3; times (C3)^3")
    add(9095, ("C3", "9", "C9xC3xC3xC3", "C3", "1", "C3"),
        pc(3, 7, {0: ((4, 1),), 1: ((4, 1),)}, {(2, 1): ((3, 1),)}),
        "a of order 9, b of order 3, [b,a] = c central of order 3, "
        "central u with u^3 = a^3; times C3 x C3")
    add(9099, ("C3xC3", "9", "C3xC3xC3xC3xC3", "C3", "C3", "C3xC3"),
        pc(3, 7, {0: ((2, 1),), 1: ((3, 1),)}, {(1, 0): ((2, 1),)}),
        "metacyclic: a, b of order 9 with [b,a] = a^3; times (C3)^3")
    add(9303, ("C3", "9", "C3xC3xC3xC3xC3", "C3", "C3", "C3"),
        pc(3, 7, {0: ((2, 1),)}, {(1, 0): ((2, 1),)}),
        "modular group of order 27 ([b,a] = a^3) times (C3)^4")
    add(9304, ("C3", "9", "C9xC3xC3xC3", "C3", "C3", "C3"),
        pc(3, 7, {0: ((3, 1),), 1: ((3, 1),)}, {(2, 1): ((3, 1),)}),
        "modular group of order 27 with central u, u^3 = a^3; times (C3)^3")
    return rows


# profiles for the order-243 table (same key set as the order-2187 table)
PROFILE_A = ("C3xC3", "9", "C3xC3", "C3xC3", "C3", "C3xC3")
PROFILE_B = ("C9", "27", "C9", "C3xC3", "C3", "C9")
PROFILE_E = ("C3", "9", "C3xC3", "C3xC3", "C3", "C3")
PROFILE_F = ("C3xC3", "9", "C3xC3", "C3xC3", "C3xC3", "C3xC3")
PROFILE_H = ("C3", "9", "C3", "C3xC3", "C3", "C3")


def table3_hand_rows() -> list:
    rows = []

    def add(number, values, group, comment):
        rows.append(Row(243, number, T23_KEYS, values, group, comment))

    add(22, ("C9xC3", "27", "C3", "C9", "C9", "C3"),
        pc(3, 5, {0: ((1, 1),), 2: ((3, 1),), 3: ((4, 1),)},
           {(2, 0): ((3, 1),), (2, 1): ((4, 1),), (3, 0): ((4, 1),)}),
        "metacyclic: a of order 27, b of order 9, a^b = a^4")
    add(37, ("1", "3", "C3xC3", "C3xC3", "1", "1"),
        pc(3, 5, {}, {(1, 0): ((3, 1),), (2, 0): ((4, 1),)}),
        "exponent 3, class 2: [b,a] = u, [c,a] = v, [c,b] = 1, u and v central")
    add(38, PROFILE_E,
        pc(3, 5, {0: ((3, 1),)}, {(1, 0): ((3, 1),), (2, 0): ((4, 1),)}),
        "class 2: [b,a] = u, [c,a] = v central; a^3 = u "
        "(cube image is the first commutator); "
        "number inside the equal-profile pair {38,39} assigned by convention")
    add(39, PROFILE_E,
        pc(3, 5, {2: ((3, 1),)}, {(1, 0): ((3, 1),), (2, 0): ((4, 1),)}),
        "class 2: [b,a] = u, [c,a] = v central; c^3 = u "
        "(the cubing element pairs with only part of the centre); "
        "number inside the equal-profile pair {38,39} assigned by convention")
    add(41, PROFILE_F,
        pc(3, 5, {0: ((3, 1),), 1: ((4, 1),)},
           {(1, 0): ((3, 1),), (2, 0): ((4, 1),)}),
        "class 2: [b,a] = u, [c,a] = v central; a^3 = u, b^3 = v; "
        "number inside the equal-profile pair {41,42} assigned by convention")
    add(42, PROFILE_F,
        pc(3, 5, {0: ((3, 1),), 2: ((4, 1),)},
           {(1, 0): ((3, 1),), (2, 0): ((4, 1),)}),
        "class 2: [b,a] = u, [c,a] = v central; a^3 = u, c^3 = v; "
        "number inside the equal-profile pair {41,42} assigned by convention")
    add(55, ("C3", "9", "C9", "C3xC3", "C3", "C3"),
        pc(3, 5, {0: ((4, 1),), 3: ((4, 1),)},
           {(1, 0): ((2, 1),), (2, 0): ((4, 1),)}),
        "central product with C9: [b,a] = u, [u,a] = w, a^3 = w = z^3")
    return rows


# ---------------------------------------------------------------------------
# deterministic parameter searches for the remaining order-243 families


def _zoo_run(name, candidates, profile, need):
    """Scan candidates in order; keep profile matches with fresh invariants."""
    picked = []
    for params, group in candidates:
        try:
            G = group()
        except PresentationError:
            continue
        cols = computed_columns(CatalogEntry("zoo", G), T23_KEYS)
        if tuple(cols[k] for k in T23_KEYS) != profile:
            continue
        inv = strong_invariant(G)
        if any(inv == have_inv for _, _, have_inv in picked):
            continue
        picked.append((params, G, inv))
        if len(picked) == need:
            return picked
    raise SystemExit(
        f"{name}: only {len(picked)} pairwise-distinct groups found, need {need}")


def _relation_text(eps, dlt, beta, wpow=lambda e: f"w^{e}" if e > 1 else "w"):
    def rhs(e):
        return wpow(e) if e else "1"

    return f"[u,a] = {rhs(eps)}, [u,b] = {rhs(dlt)}, b^3 = {rhs(beta)}"


def family_a_rows() -> list:
    """Two-generator, class 3: a of order 9, [b,a] = u, u^3 = 1, central w."""
    def candidates():
        for eps in range(3):
            for dlt in range(3):
                if eps == 0 and dlt == 0:
                    continue
                for beta in range(3):
                    powers = {0: ((3, 1),)}
                    if beta:
                        powers[1] = ((4, beta),)
                    comms = {(1, 0): ((2, 1),)}
                    if eps:
                        comms[(2, 0)] = ((4, eps),)
                    if dlt:
                        comms[(2, 1)] = ((4, dlt),)
                    yield ((eps, dlt, beta),
                           lambda pw=powers, cm=comms: pc(3, 5, pw, cm))

    picked = _zoo_run("family A (numbers 13, 14, 15)", candidates(), PROFILE_A, 3)
    rows = []
    for number, (params, G, _) in zip((13, 14, 15), picked):
        eps, dlt, beta = params
        rows.append(Row(243, number, T23_KEYS, PROFILE_A, G,
                        "class 3: a of order 9 with central a^3, [b,a] = u, "
                        f"{_relation_text(eps, dlt, beta)}; number inside the "
                        "equal-profile block {13,14,15} assigned by convention"))
    return rows


def family_b_rows() -> list:
    """Two-generator, class 3, exponent 27: a of order 27, [b,a] = u."""
    def candidates():
        for eps in range(3):
            for dlt in range(3):
                if eps == 0 and dlt == 0:
                    continue
                for beta in range(3):
                    powers = {0: ((3, 1),), 3: ((4, 1),)}
                    if beta:
                        powers[1] = ((4, beta),)
                    comms = {(1, 0): ((2, 1),)}
                    if eps:
                        comms[(2, 0)] = ((4, eps),)
                    if dlt:
                        comms[(2, 1)] = ((4, dlt),)
                    yield ((eps, dlt, beta),
                           lambda pw=powers, cm=comms: pc(3, 5, pw, cm))

    picked = _zoo_run("family B (numbers 16, 19)", candidates(), PROFILE_B, 2)
    rows = []
    for number, (params, G, _) in zip((16, 19), picked):
        eps, dlt, beta = params
        rows.append(Row(243, number, T23_KEYS, PROFILE_B, G,
                        "class 3: a of order 27, [b,a] = u, "
                        f"{_relation_text(eps, dlt, beta, wpow=lambda e: f'a^{9 * e}')}"
                        "; number inside the equal-profile block {16,19} "
                        "assigned by convention"))
    return rows


def family_h_rows() -> list:
    """Three-generator, class 3, centre of order 3."""
    def candidates():
        for eps in range(3):
            for dlt in range(3):
                if eps == 0 and dlt == 0:
                    continue
                for sig in range(3):
                    for tau in range(3):
                        if (sig * dlt - eps * tau) % 3 == 0:
                            continue  # centre would exceed order 3
                        for beta in range(3):
                            for gamma in range(3):
                                powers = {0: ((4, 1),)}
                                if beta:
                                    powers[1] = ((4, beta),)
                                if gamma:
                                    powers[2] = ((4, gamma),)
                                comms = {(1, 0): ((3, 1),)}
                                if eps:
                                    comms[(3, 0)] = ((4, eps),)
                                if dlt:
                                    comms[(3, 1)] = ((4, dlt),)
                                if sig:
                                    comms[(2, 0)] = ((4, sig),)
                                if tau:
                                    comms[(2, 1)] = ((4, tau),)
                                yield ((eps, dlt, sig, tau, beta, gamma),
                                       lambda pw=powers, cm=comms: pc(3, 5, pw, cm))

    picked = _zoo_run("family H (numbers 56, 57)", candidates(), PROFILE_H, 2)
    rows = []

    def w(e):
        return {0: "1", 1: "w", 2: "w^2"}[e]

    for number, (params, G, _) in zip((56, 57), picked):
        eps, dlt, sig, tau, beta, gamma = params
        rel = (f"[b,a] = u, [u,a] = {w(eps)}, [u,b] = {w(dlt)}, "
               f"[c,a] = {w(sig)}, [c,b] = {w(tau)}, "
               f"a^3 = w, b^3 = {w(beta)}, c^3 = {w(gamma)}")
        rows.append(Row(243, number, T23_KEYS, PROFILE_H, G,
                        f"class 3, centre of order 3: {rel}; number inside the "
                        "equal-profile pair {56,57} assigned by convention"))
    return rows


# ---------------------------------------------------------------------------
# verification and output


def check_twins(rows: list) -> list:
    """Same-profile entries must have different strong invariants."""
    by_profile: dict = {}
    for row in rows:
        by_profile.setdefault((row.order, row.values), []).append(row)
    notes = []
    for (order, _values), group_rows in sorted(by_profile.items()):
        if len(group_rows) < 2:
            continue
        invs = {}
        for row in group_rows:
            inv = strong_invariant(row.group)
            for other, other_inv in invs.items():
                if inv == other_inv:
                    raise SystemExit(
                        f"S({order},{row.number}) and S({order},{other}) are "
                        "not separated by the strong invariants; refusing to "
                        "ship a possibly-duplicated row")
            invs[row.number] = inv
        numbers = sorted(invs)
        notes.append(f"order {order}, numbers {numbers}: pairwise distinct")
    return notes


def write_row(row: Row, out_dir: Path) -> Path:
    meta = PresentationMeta(small_group_id=(row.order, row.number),
                            expect=row.expected)
    comments = [row.comment, "regenerate with tools/gen_tables.py"]
    text = row.group.to_text(meta=meta, header_comments=comments)
    path = out_dir / row.filename
    path.write_text(text, encoding="utf-8")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-only", action="store_true",
                        help="verify constructions without writing files")
    parser.add_argument("--out-dir", default=str(DATA_DIR),
                        help="output directory (default: the packaged data dir)")
    args = parser.parse_args()

    rows = table1_rows() + table2_rows() + table3_hand_rows()
    rows += family_a_rows() + family_b_rows() + family_h_rows()
    rows.sort(key=lambda r: (r.order, r.number))

    for row in rows:
        name = f"S({row.order},{row.number})"
        report = verify_tables([CatalogEntry(name, row.group, expected=row.expected)])
        if not report.passed:
            raise SystemExit("\n".join(report.lines()))
        print(f"columns ok   {name}")
    for note in check_twins(rows):
        print(f"twins ok     {note}")

    if args.check_only:
        print(f"{len(rows)} rows verified (no files written)")
        return

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("*.pres"):
        stale.unlink()
    for row in rows:
        path = write_row(row, out_dir)
        print(f"wrote        {path}")

    # round trip: parse the shipped files and re-verify every column
    entries = table_entries(out_dir)
    report = verify_tables(entries)
    for line in report.lines():
        print(line)
    if not report.passed:
        raise SystemExit("verify_tables failed on the written files")
    print(f"{len(rows)} rows written and verified")


if __name__ == "__main__":
    main()
