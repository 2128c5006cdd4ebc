"""The dense group-algebra oracle and its agreement with the formula route."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lienil.fp_linalg
import lienil.oracle
from lienil.dimension import lie_dimension_chain, upper_index
from lienil.fp_linalg import EchelonAccumulator
from lienil.oracle import (
    GroupAlgebra,
    NotLieNilpotentDetected,
    OracleCapExceeded,
    _derived_subgroup,
    _lie_chain,
    _orbit_representatives,
    _pc_table,
    _upper_ideals,
    _upper_step,
    build_algebra,
    lie_dimension_orders,
    lower_lie_chain,
    t_upper_direct,
    upper_lie_chain,
)
from lienil.pcgroup import PcGroup
from lienil.subgroups import (
    center,
    derived_subgroup,
    power_subgroup,
    subgroup_product,
    whole_group,
)
from groups import PRIME_FAMILIES, group, names
from test_fp_linalg import DenseEchelon, naive_rref
from test_pcgroup import collected_conjugate

# the oracle's cap that admits every shipped row
SHIPPED_CAP = 3125


def _index(A):
    # the basis index of each element of G
    return {x: i for i, x in enumerate(A.elements)}


def _dense(A, squares):
    # The read-only dense RREF arrays of graded terms: each block row
    # written to its coset's columns.  Coset c is columns c*m to c*m + m,
    # so a row's pivot is c*m plus its local pivot, and np.nonzero on the
    # stacked diagonals lists the rows by term and then by pivot.  All
    # terms are scattered at once, into one array that the terms are
    # slices of.
    stack = np.stack(squares)
    term, grade, col = np.nonzero(np.diagonal(stack, axis1=2, axis2=3))
    dense = np.zeros((len(term), *A.cosets.shape), dtype=np.int64)
    dense[np.arange(len(term)), grade] = stack[term, grade, col]
    dense = dense.reshape(len(term), A.dim)
    dense.setflags(write=False)
    ends = np.cumsum(np.bincount(term, minlength=len(squares)))
    return np.split(dense, ends[:-1])


def _rows(square):
    # the basis rows of a square form, int64, in pivot order
    return square[np.diagonal(square) != 0].astype(np.int64)


def _dense_upper(A):
    # The terms of upper_lie_chain as dense arrays, rebuilt from the parts
    # I_n of M^(n) in F_p[G'] that the chain computes: M^(n) is the sum
    # of the translates I_n x_c to every coset c, x_c its first element.
    # Coordinate y of v x_c is v[y x_c^-1], so one gather moves a row of
    # I_n to every coset at once, a layer of a graded accumulator.
    k, m = A.cosets.shape
    home = A.table[np.arange(A.dim), A.inverse_indices[np.repeat(A.cosets[:, 0], m)]]
    squares = []
    for square in _upper_ideals(A):
        acc = EchelonAccumulator(A.p, A.dim, grades=k)
        acc.add_block(_rows(square)[:, home])
        squares.append(acc.square)
    return _dense(A, squares)


def _dense_lower(A):
    # the terms of lower_lie_chain as dense arrays
    return _dense(A, _lie_chain(A))


def _scatter(dest):
    """Operator sending coordinate x of each row to coordinate dest[x]."""
    def op(block):
        out = np.empty_like(block)
        out[:, dest] = block
        return out
    return op


def _left_mult(A, b):
    """v -> e_b * v: coordinate x moves to b * x."""
    return _scatter(A.table[b, :])


def _right_mult(A, b):
    """v -> v * e_b: coordinate x moves to x * b."""
    return _scatter(A.table[:, b])


def _two_sided_upper_chain(A):
    # M^(n+1) = the span of [v, g] = v*g - g*v over a basis of M^(n) and
    # the generators, closed under left and right multiplication by every
    # generator: the ideal it generates, with every product scattered
    # straight off the table
    gens = A.generator_indices
    ops = [f(A, g) for g in gens for f in (_left_mult, _right_mult)]
    spaces = [np.eye(A.dim, dtype=np.int64)]
    while len(spaces[-1]):
        assert len(spaces) <= A.dim
        basis = spaces[-1]
        acc = DenseEchelon(A.p, A.dim)
        fresh = np.vstack([acc.add_block(_right_mult(A, g)(basis) - _left_mult(A, g)(basis))
                           for g in gens])
        while fresh.shape[0]:
            fresh = np.vstack([acc.add_block(op(fresh)) for op in ops])
        spaces.append(acc.basis)
    return spaces


def _right_gathers(A, indices):
    # right multiplication by each e_g as a column gather: coordinate y of
    # v * e_g is v[y * g^-1]
    return [A.table[:, A.inverse_indices[g]] for g in indices]


def _ungraded_lie_chain(A, gens, against, ideals):
    # The chain as it was before the grading by G/G', kept as the slow
    # reference: every term is one DenseEchelon of width |G|.
    # Each step brackets every row v of the previous term against basis
    # indices b: the first step against `gens`, later steps against
    # `against`.  W is the span of the [v, e_b], fed in blocks of at most
    # A.dim rows.  The lower chain's term is W; the upper chain's
    # (`ideals`) is W closed under right multiplication by `gens`.
    kind = "upper" if ideals else "lower"
    terms = [np.eye(A.dim, dtype=np.int64)]
    terms[0].setflags(write=False)
    bracketing = gens
    while len(terms[-1]):
        current = terms[-1]
        acc = DenseEchelon(A.p, A.dim)
        per_block = max(1, A.dim // len(current))
        for lo in range(0, len(bracketing), per_block):
            acc.add_block(np.vstack([A.bracket_with_basis(current, b)
                                     for b in bracketing[lo:lo + per_block]]))
        if ideals:
            # each round moves the rows new in the last one by every gather
            gathers = _right_gathers(A, gens)
            fresh = acc.basis
            while len(fresh):
                fresh = acc.add_block(np.vstack([fresh[:, g] for g in gathers]))
        nxt = acc.basis
        if len(nxt) == len(current):
            raise NotLieNilpotentDetected(f"{kind} chain went stationary")
        terms.append(nxt)
        assert len(terms) <= A.chain_bound + 1
        bracketing = against
    return terms


def _reference_chains(A):
    return (_ungraded_lie_chain(A, A.generators, A.generators, ideals=True),
            _ungraded_lie_chain(A, A.generators, _orbit_representatives(A), ideals=False))


def test_algebra_table_is_a_group_table():
    G = group("dihedral-8")
    A = build_algebra(G)
    assert A.dim == 8
    assert A.elements[0] == G.identity
    # identity row and column
    assert np.array_equal(A.table[0, :], np.arange(8))
    assert np.array_equal(A.table[:, 0], np.arange(8))
    # associativity on all triples
    for a in range(8):
        for b in range(8):
            ab = A.table[a, b]
            for c in range(8):
                assert A.table[ab, c] == A.table[a, A.table[b, c]]
    # the table rows/columns are permutations
    for i in range(8):
        assert sorted(A.table[i, :]) == list(range(8))
        assert sorted(A.table[:, i]) == list(range(8))


def test_build_algebra_makes_no_collector_product(monkeypatch):
    # the table comes from the pc relations alone: neither the public
    # product nor the collector behind every product is called
    groups = [group(name) for name in names("oracle")]
    calls = []
    for name in ("multiply", "_mul"):
        method = getattr(PcGroup, name)

        def counted(self, x, y, name=name, method=method):
            calls.append(name)
            return method(self, x, y)

        monkeypatch.setattr(PcGroup, name, counted)
    for G in groups:
        assert build_algebra(G).dim == G.order
    assert calls == []
    # the counters see a product
    G = group("heisenberg-3")
    G.multiply(G.generator(1), G.generator(0))
    assert calls[:2] == ["multiply", "_mul"]


def _pc_index(G, x):
    # the exponent vector read in base p, g_1 the top digit
    return sum(e * G.p ** (G.ngens - 1 - i) for i, e in enumerate(x))


def test_semidihedral_presentation():
    for name in names("carry"):
        G = group(name)
        k = G.ngens
        a, b, w = G.generator(0), G.generator(1), G.power_relation(0)
        assert G.element_order(a) == 2 ** (k - 1) and G.element_order(b) == 2
        assert G.conjugate(a, b) == G.power(a, 2 ** (k - 2) - 1)
        assert G.multiply(w, b) != G.multiply(b, w)


@settings(max_examples=60, deadline=None)
@given(G=PRIME_FAMILIES, data=st.data())
def test_pc_table_agrees_with_the_collector(G, data):
    # the relation-built table and the collector are two independent
    # routes to the same products
    table = _pc_table(G)
    assert table.shape == (G.order, G.order) and table.dtype == np.int32
    element = st.lists(st.integers(0, G.p - 1), min_size=G.ngens, max_size=G.ngens)
    for _ in range(20):
        x, y = (G.element(data.draw(element)) for _ in "xy")
        assert table[_pc_index(G, x), _pc_index(G, y)] == _pc_index(G, G.multiply(x, y))


def _collector_algebra(G):
    # build_algebra as it was before the table came from the relations,
    # kept as the slow reference: a breadth-first search by right
    # multiplication by the pc generators, every product collected, then
    # every column composed from the generators' columns, then the basis
    # listed coset by coset of G'
    gens = list(G.generators())
    elements = [G.identity]
    index = {G.identity: 0}
    right = np.empty((len(gens), G.order), dtype=np.int32)
    frontier = [0]
    while frontier:
        nxt = []
        for xi in frontier:
            x = elements[xi]
            for k, g in enumerate(gens):
                y = G.multiply(x, g)
                yi = index.get(y)
                if yi is None:
                    yi = index[y] = len(elements)
                    elements.append(y)
                    nxt.append(yi)
                right[k, xi] = yi
        frontier = nxt
    dim = len(elements)
    assert dim == G.order
    cols = np.empty((dim, dim), dtype=np.int32)
    cols[:, 0] = np.arange(dim, dtype=np.int32)
    gen_indices = tuple(int(right[k, 0]) for k in range(len(gens)))
    for k, gi in enumerate(gen_indices):
        cols[:, gi] = right[k]
    done = {0, *gen_indices}
    for hi in range(dim):
        for k in range(len(gens)):
            yi = int(right[k, hi])
            if yi in done:
                continue
            cols[:, yi] = right[k][cols[:, hi]]
            done.add(yi)
    assert len(done) == dim
    members = np.sort(cols[:, np.flatnonzero(_derived_subgroup(cols, gen_indices))], axis=1)
    order = members[members[:, 0] == np.arange(dim)].ravel()
    position = np.empty(dim, dtype=np.intp)
    position[order] = np.arange(dim)
    elements = [elements[x] for x in order.tolist()]
    return GroupAlgebra(group=G, p=G.p, elements=elements,
                        table=position[cols[np.ix_(order, order)]],
                        generator_indices=tuple(position[list(gen_indices)].tolist()),
                        cosets=np.arange(dim).reshape(-1, members.shape[1]))


def test_oracle_refuses_groups_above_cap():
    with pytest.raises(OracleCapExceeded):
        build_algebra(group("free-class2-rank5-p2"))
    with pytest.raises(OracleCapExceeded):
        t_upper_direct(group("dihedral-16"), cap=8)


KNOWN_INDICES = {"dihedral-8": 3, "quaternion-8": 3, "dihedral-16": 5, "heisenberg-3": 4,
                 "heisenberg-5": 6}


@pytest.mark.parametrize("name", KNOWN_INDICES)
def test_upper_index_known_values(name):
    assert t_upper_direct(group(name)) == KNOWN_INDICES[name]


def test_lower_indices_match_upper_on_small_groups():
    for name in ("dihedral-8", "quaternion-8", "heisenberg-3", "heisenberg-5"):
        G = group(name)
        assert len(lower_lie_chain(build_algebra(G))) == t_upper_direct(G)


def test_abelian_algebra_has_index_two():
    G = group("abelian-C9xC3-p3")
    assert t_upper_direct(G) == 2
    assert len(lower_lie_chain(build_algebra(G))) == 2


def test_chain_dimensions_decrease_strictly():
    G = group("dihedral-16")
    A = build_algebra(G)
    up = upper_lie_chain(A)
    low = lower_lie_chain(A)
    for dims in (up, low):
        assert dims[0] == 16 and dims[-1] == 0
        assert all(a > b for a, b in zip(dims, dims[1:]))
    assert len(up) == upper_index(whole_group(G))
    assert len(low) <= len(up)


def test_generator_seeding_spans_the_same_ideals():
    # every-element seeding costs |G|^3 per step: the small builder groups
    for name in names("scan", "builder", most=128):
        A = build_algebra(group(name))
        full = _ungraded_lie_chain(A, range(A.dim), range(A.dim), ideals=True)
        reduced = _dense_upper(A)
        assert len(full) == len(reduced)
        assert [s.tobytes() for s in full] == [s.tobytes() for s in reduced]


@pytest.mark.parametrize("name", names("scan", "builder", most=128))
def test_bracket_gathers_match_multiplication_scatters(name):
    A = build_algebra(group(name))
    rng = np.random.default_rng(5)
    block = rng.integers(0, A.p, size=(7, A.dim)).astype(np.int64)
    for b in range(A.dim):
        want = (_right_mult(A, b)(block) - _left_mult(A, b)(block)) % A.p
        got = A.bracket_with_basis(block, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def _lower_chain_without_centre(A, against):
    # V_(n+1) spanned by [v, e_b] over every basis row v of V_n and every b
    # in `against`, one accumulator block per b, with no centre step
    terms = [np.eye(A.dim, dtype=np.int64)]
    while len(terms[-1]):
        assert len(terms) <= A.dim
        acc = DenseEchelon(A.p, A.dim)
        for b in against:
            acc.add_block(A.bracket_with_basis(terms[-1], b))
        terms.append(acc.basis)
    return terms


# every-element brackets cost about |G|^3: the small scan groups and the
# orbit edge cases
ORBIT = names("scan", most=128) + names("orbit")


@pytest.mark.parametrize("name", ORBIT)
def test_orbit_seeding_spans_the_same_lower_terms(name):
    A = build_algebra(group(name))
    full = _lower_chain_without_centre(A, range(A.dim))
    reduced = _dense_lower(A)
    assert len(full) == len(reduced)
    assert [s.tobytes() for s in full] == [s.tobytes() for s in reduced]


def _naive_lower_spans(A):
    # V_(n+1) spanned by [v, e_b] = v*e_b - e_b*v over a basis of V_n and
    # every basis element, each product scattered straight off the table
    spaces = [[[int(i == j) for j in range(A.dim)] for i in range(A.dim)]]
    while spaces[-1]:
        assert len(spaces) <= A.dim
        rows = []
        for v in spaces[-1]:
            for b in range(A.dim):
                w = np.zeros(A.dim, dtype=np.int64)
                np.add.at(w, A.table[:, b], v)
                np.subtract.at(w, A.table[b, :], v)
                rows.append(w)
        spaces.append(naive_rref(rows, A.p))
    return spaces


SPAN_DIMS = {"dihedral-8": [8, 3, 0], "quaternion-8": [8, 3, 0],
             "heisenberg-3": [27, 16, 8, 0], "free-class2-rank3-p2": [64, 42, 28, 7, 0]}


@pytest.mark.parametrize("name", SPAN_DIMS)
def test_lower_chain_terms_are_the_bracket_spans(name):
    # the terms are the spans V_n themselves, not the ideals they generate
    A = build_algebra(group(name))
    naive = _naive_lower_spans(A)
    chain = _dense_lower(A)
    assert [s.tolist() for s in chain] == naive
    assert [len(s) for s in chain] == SPAN_DIMS[name]


@pytest.mark.parametrize("name", ORBIT)
def test_orbit_representatives_match_pc_orbits(name):
    G = group(name)
    A = build_algebra(G)
    index = _index(A)
    Z = center(whole_group(G)).elements
    central = {index[z] for z in Z}
    orbits = []
    covered = set(central)
    for x in A.elements:
        if index[x] not in covered:
            conjugates = {collected_conjugate(G, x, h) for h in A.elements}
            orbits.append({index[G.multiply(c, z)]
                           for c in conjugates for z in Z})
            covered |= orbits[-1]
    reps = _orbit_representatives(A)
    assert central.isdisjoint(reps)
    assert [len(orbit.intersection(reps)) for orbit in orbits] == [1] * len(orbits)
    assert len(reps) == len(orbits)


# The dense references of the three tests below take about 2 s a group at
# order 256, so they stop at 243.
DENSE = names({"scan", "shipped", "builder"}, most=243)


@pytest.mark.parametrize("name", DENSE)
def test_lower_terms_equal_dense_brackets_against_the_representatives(name):
    # the graded chain, bracketing V_n's layers in blocks, gives the terms
    # that bracketing every dense basis row of V_n against the same
    # representatives, one block per representative, gives
    A = build_algebra(group(name))
    want = _lower_chain_without_centre(A, _orbit_representatives(A))
    got = _dense_lower(A)
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
    assert [s.shape for s in got] == [s.shape for s in want]


def _log_p_index(H, K, p):
    return round(math.log(H.order // K.order, p))


def _closure(A, gens):
    # closing {1} under right multiplication by gens, straight off the table
    closed, frontier = {0}, {0}
    while frontier:
        frontier = {int(A.table[x, g]) for x in frontier for g in gens} - closed
        closed |= frontier
    return closed


@pytest.mark.parametrize("name", ORBIT)
def test_centre_matches_the_subgroup_centre(name):
    # A.centre, the one centre set the oracle keeps, against the subgroup
    # code's centre
    G = group(name)
    A = build_algebra(G)
    index = _index(A)
    Z = {index[z] for z in center(whole_group(G)).elements}
    assert set(A.centre.tolist()) == Z


def _pieces(A, layers):
    # the nonzero homogeneous rows held in layers, one row per coset side
    # by side, as dense rows ordered by leading index
    k, m = A.cosets.shape
    blocks = layers.reshape(-1, k, m)
    rows = []
    for layer in blocks:
        for c, piece in enumerate(layer):
            if piece.any():
                row = np.zeros(A.dim, dtype=np.int64)
                row[A.cosets[c]] = piece
                rows.append(row)
    rows.sort(key=lambda row: int(np.flatnonzero(row)[0]))
    return np.array(rows, dtype=np.int64).reshape(-1, A.dim)


def _counted_chain(monkeypatch, chain, A):
    # the chain's terms, each (rows, b) bracketed, as dense homogeneous
    # rows and indices of A, and the number of layers of each block fed to
    # the accumulator
    bracketed, blocks = [], []
    bracket, add_block = GroupAlgebra.bracket_with_basis, EchelonAccumulator.add_block

    def counted_bracket(self, layers, bs):
        assert self is A
        rows = _pieces(A, layers)
        bracketed.extend((rows, int(b)) for b in bs)
        return bracket(self, layers, bs)

    def counted_add(self, layers):
        blocks.append(len(layers))
        return add_block(self, layers)

    monkeypatch.setattr(GroupAlgebra, "bracket_with_basis", counted_bracket)
    monkeypatch.setattr(EchelonAccumulator, "add_block", counted_add)
    return chain(A), bracketed, blocks


@pytest.mark.parametrize("name", ["cond65-quotient-p3", "cond66-quotient-p3", "dihedral-64"])
def test_lower_chain_brackets_every_row_of_the_previous_term(monkeypatch, name):
    # the first step brackets all |G| rows against the minimal generating
    # set, each later step brackets exactly the previous term's rows
    # against the orbit representatives, and no block fed to the
    # accumulator exceeds A.dim layers
    A = build_algebra(group(name))
    reps, gens = _orbit_representatives(A), A.generators
    chain, bracketed, blocks = _counted_chain(monkeypatch, _dense_lower, A)
    want = [(chain[0], g) for g in gens]
    want += [(term, b) for term in chain[1:-1] for b in reps]
    assert len(gens) < len(reps) and len(chain[0]) == A.dim
    assert [b for _, b in bracketed] == [b for _, b in want]
    assert all(np.array_equal(got, term) for (got, _), (term, _) in zip(bracketed, want))
    assert max(blocks) <= A.dim


def _moved_by_the_collector(A, row, move):
    # row, over G', moved by a pc element: ("conjugate", g) sends the
    # coordinate of d to g d g^-1, ("translate", h) to d h, each product
    # collected
    G, index = A.group, _index(A)
    kind, x = move
    out = np.zeros_like(row)
    for d in range(len(row)):
        y = A.elements[d]
        if kind == "conjugate":
            y = G.multiply(G.multiply(x, y), G.inverse(x))
        else:
            y = G.multiply(y, x)
        out[index[y]] = row[d]
    return out


@pytest.mark.parametrize("name", ["cond66-quotient-p3", "dihedral-64", "free-class2-rank3-p2"])
def test_upper_chain_moves_every_row_of_the_previous_ideal(monkeypatch, name):
    # each step feeds v - g v g^-1 and v - v h for every basis row v of
    # I_n, the whole previous ideal, every g in the minimal generating set
    # S of G and every h in H, the minimal generating set of G', each
    # product collected here, as one block, and feeds nothing more
    A = build_algebra(group(name))
    ideals = _upper_ideals(A)
    moves = [("conjugate", A.elements[g]) for g in A.generators]
    moves += [("translate", A.elements[h]) for h in A.derived_generators]
    steps = []
    step, add_block = _upper_step, EchelonAccumulator.add_block

    def recorded_step(A, ideal, gathers):
        steps.append({"ideal": ideal, "fed": []})
        return step(A, ideal, gathers)

    def recorded_add(self, block):
        steps[-1]["fed"].append(np.asarray(block))
        return add_block(self, block)

    monkeypatch.setattr(lienil.oracle, "_upper_step", recorded_step)
    monkeypatch.setattr(EchelonAccumulator, "add_block", recorded_add)
    assert [t.tobytes() for t in _upper_ideals(A)] == [t.tobytes() for t in ideals]
    assert len(steps) == len(ideals) - 1
    for term, got in zip(ideals, steps):
        rows = _rows(term)
        assert np.array_equal(got["ideal"], rows)
        want = [(v - _moved_by_the_collector(A, v, move)) % A.p for v in rows for move in moves]
        [fed] = got["fed"]
        assert sorted(map(tuple, fed.tolist())) == sorted(map(tuple, np.array(want).tolist()))


def test_derived_generators_generate_the_derived_subgroup():
    # A.derived_generators generates G' with log_p [G' : G''G'^p] elements,
    # against the subgroup code's G', on every group the default cap admits
    for name in names("oracle"):
        G = group(name)
        A = build_algebra(G)
        index = _index(A)
        D = derived_subgroup(whole_group(G))
        frattini = subgroup_product(derived_subgroup(D), power_subgroup(D, G.p))
        assert _closure(A, A.derived_generators) == {index[d] for d in D.elements}
        assert len(A.derived_generators) == _log_p_index(D, frattini, G.p)


def _first_step_calls(monkeypatch, A):
    # bracket gathers, blocks added (one per bracket call) and elimination
    # calls (every reduction mod p) in the first step of the lower chain
    calls = {"brackets": 0, "blocks": 0, "eliminations": 0}
    steps = []

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    init = EchelonAccumulator.__init__

    def counted_init(self, *args, **kwargs):
        steps.append(dict(calls))
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupAlgebra, "bracket_with_basis",
                        counted("brackets", GroupAlgebra.bracket_with_basis))
    monkeypatch.setattr(EchelonAccumulator, "add_block",
                        counted("blocks", EchelonAccumulator.add_block))
    monkeypatch.setattr(lienil.fp_linalg, "_residues",
                        counted("eliminations", lienil.fp_linalg._residues))
    monkeypatch.setattr(EchelonAccumulator, "__init__", counted_init)
    lower_lie_chain(A)
    monkeypatch.undo()
    return {key: steps[1][key] - steps[0][key] for key in calls}


def _upper_accumulator_shapes(monkeypatch, A):
    # the (ambient dimension, grades) of every accumulator the upper
    # chain builds
    shapes = []
    init = EchelonAccumulator.__init__

    def recorded_init(self, p, ambient_dim, grades=1):
        shapes.append((ambient_dim, grades))
        init(self, p, ambient_dim, grades)

    monkeypatch.setattr(EchelonAccumulator, "__init__", recorded_init)
    upper_lie_chain(A)
    monkeypatch.undo()
    return shapes


def test_a_step_on_81_cosets_makes_no_more_numpy_calls_than_on_4(monkeypatch):
    # the graded elimination works on all cosets at once: the first lower
    # step of condition-quotient:66 (81 cosets of width 3) makes no more
    # gathers and eliminations than that of D32 (4 cosets of width 8),
    # though it brackets against twice as many generators; a loop over the
    # cosets would make about 81 times as many.  The upper chain works in
    # G' alone: every accumulator it builds has one grade of width |G'|.
    many = build_algebra(group("cond66-quotient-p3"))
    few = build_algebra(group("dihedral-32"))
    assert many.cosets.shape == (81, 3) and few.cosets.shape == (4, 8)
    assert len(many.generators) == 2 * len(few.generators)
    on_many = _first_step_calls(monkeypatch, many)
    on_few = _first_step_calls(monkeypatch, few)
    for key in on_many:
        assert 0 < on_many[key] <= on_few[key], (key, on_many, on_few)
    for A in (many, few):
        shapes = _upper_accumulator_shapes(monkeypatch, A)
        assert shapes and set(shapes) == {(A.cosets.shape[1], 1)}
        assert len(shapes) == len(upper_lie_chain(A)) - 1


@pytest.mark.parametrize("name", DENSE)
def test_upper_terms_are_the_two_sided_ideals(name):
    # closing under right multiplication alone reaches the two-sided ideal
    A = build_algebra(group(name))
    want = _two_sided_upper_chain(A)
    got = _dense_upper(A)
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]


def test_chain_bound_reads_the_derived_subgroup_off_the_table():
    # the oracle's |G'| against the subgroup code's, on every group the
    # default cap admits
    for name in names("oracle"):
        G = group(name)
        want = derived_subgroup(whole_group(G)).order + 2
        assert build_algebra(G).chain_bound == want


def test_generating_sets_are_minimal():
    # A.generators generates G with log_p [G : G'G^p] elements, on every
    # group the default cap admits
    for name in names("oracle"):
        G = group(name)
        A = build_algebra(G)
        W = whole_group(G)
        frattini = subgroup_product(derived_subgroup(W), power_subgroup(W, G.p))
        assert len(_closure(A, A.generators)) == G.order
        assert len(A.generators) == _log_p_index(W, frattini, G.p)
        assert set(A.generators) <= set(A.generator_indices)


ORACLE_ONLY = """
import sys
from pathlib import Path
import lienil.pcgroup
from lienil.oracle import build_algebra, lower_lie_chain, upper_lie_chain
path = Path(lienil.pcgroup.__file__).parent / "data" / "tables" / "s243_22.pres"
A = build_algebra(lienil.pcgroup.parse_presentation(path.read_text()))
print(len(upper_lie_chain(A)), len(lower_lie_chain(A)), A.chain_bound)
print(sorted(m for m in sys.modules if m.startswith("lienil")))
"""


def test_oracle_runs_both_chains_without_the_subgroup_code():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", ORACLE_ONLY], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lengths, modules = done.stdout.splitlines()
    G = group("s243_22")
    assert lengths == f"{upper_index(whole_group(G))} 10 " \
                      f"{derived_subgroup(whole_group(G)).order + 2}"
    assert "lienil.subgroups" not in modules
    assert "lienil.dimension" not in modules


def test_lower_chain_stationary_guard(monkeypatch):
    # a bracket that returns its rows keeps every term
    monkeypatch.setattr(GroupAlgebra, "bracket_with_basis",
                        lambda self, layers, bs: np.vstack([layers] * len(bs)))
    A = build_algebra(group("dihedral-16"))
    with pytest.raises(NotLieNilpotentDetected,
                       match="lower chain went stationary at nonzero dimension 16"):
        lower_lie_chain(A)


@pytest.mark.parametrize("name", names({"catalog", "builder"}, "oracle"))
def test_graded_chains_equal_the_ungraded_reference(name):
    # every term of both chains, byte for byte, dtype and shape included,
    # and the public chains' dimensions
    A = build_algebra(group(name))
    want_upper, want_lower = _reference_chains(A)
    assert upper_lie_chain(A) == [len(t) for t in want_upper]
    assert lower_lie_chain(A) == [len(t) for t in want_lower]
    for got, want in ((_dense_upper(A), want_upper), (_dense_lower(A), want_lower)):
        assert [t.dtype for t in got] == [t.dtype for t in want]
        assert [t.shape for t in got] == [t.shape for t in want]
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want]
        assert not any(t.flags.writeable for t in got)


def _orbit_representatives_by_search(A):
    # _orbit_representatives as it was before the labels, kept as the slow
    # reference: each element not yet covered is a representative, its
    # class is searched out by the generators' conjugations one element at
    # a time, and the cosets yZ of its class are covered
    table, inv = A.table, A.inverse_indices
    centre = A.centre
    conj = [table[inv[g], table[:, g]] for g in A.generators]
    seen = np.zeros(A.dim, dtype=bool)
    seen[centre] = True
    reps = []
    for x in range(A.dim):
        if seen[x]:
            continue
        reps.append(x)
        cls = {x}
        frontier = [x]
        while frontier:
            frontier = [y for c in conj for y in c[frontier].tolist()
                        if y not in cls]
            cls.update(frontier)
        seen[table[np.fromiter(cls, dtype=np.int64)][:, centre]] = True
    m = A.cosets.shape[1]
    return tuple(sorted(reps, key=lambda x: (x % m, x // m)))


@pytest.mark.parametrize("name", names({"oracle", "cap3125"}))
def test_orbit_labels_give_the_searched_representatives(name):
    A = build_algebra(group(name), SHIPPED_CAP)
    got = _orbit_representatives(A)
    assert type(got) is tuple and all(type(x) is int for x in got)
    assert got == _orbit_representatives_by_search(A)


@pytest.mark.parametrize("name", names("cap3125") + names(most=128))
def test_oracle_agrees_with_the_formula_route_up_to_order_3125(name):
    # every group the oracle checks at cap 3125 and every group of order at
    # most 128: the direct t^L is the formula's, every |D_(m)| read off the
    # upper chain is the formula's, t_L <= t^L <= |G'| + 1, p + 1 <= t_L
    # when G is not abelian, and t_L = t^L when p > 3
    G = group(name)
    A = build_algebra(G, SHIPPED_CAP)
    W = whole_group(G)
    upper, lower = len(upper_lie_chain(A)), len(lower_lie_chain(A))
    assert upper == upper_index(W)
    assert lie_dimension_orders(A) == [D.order for D in lie_dimension_chain(W)]
    dorder = derived_subgroup(W).order
    assert lower <= upper <= dorder + 1
    assert G.p + 1 <= lower or dorder == 1
    assert lower == upper or G.p <= 3


@pytest.mark.parametrize("name", names({"oracle", "cap3125"}))
def test_each_upper_step_span_is_closed_under_the_derived_generators(monkeypatch, name):
    # the span an upper step feeds is already a right ideal of F_p[G']
    # (`_upper_ideals`, step 4): its basis moved by each h in H adds no
    # row to the step's accumulator; v h at coordinate y is v[y h^-1]
    A = build_algebra(group(name), SHIPPED_CAP)
    accs, step = [], _upper_step

    def recorded_step(*args):
        accs.append(step(*args))
        return accs[-1]

    monkeypatch.setattr(lienil.oracle, "_upper_step", recorded_step)
    assert len(upper_lie_chain(A)) == len(accs) + 1
    m = A.cosets.shape[1]
    translations = A.table[:m, A.inverse_indices[list(A.derived_generators)]].T
    assert len(translations) > 0 or m == 1  # G' = 1 moves nothing
    for acc in accs:
        dim = acc.dim
        moved = acc.basis[:, translations].reshape(-1, m)
        assert acc.add_block(moved).shape[0] == 0 and acc.dim == dim


@pytest.mark.parametrize("name", names("oracle"))
def test_build_algebra_equals_the_collector_reference(name):
    # every field, the table's dtype and bytes included
    G = group(name)
    got, want = build_algebra(G), _collector_algebra(G)
    assert got.group is want.group and got.p == want.p
    assert got.elements == want.elements
    assert all(type(e) is int for x in got.elements for e in x)
    assert got.table.dtype == want.table.dtype == np.int64
    assert got.table.shape == want.table.shape
    assert got.table.tobytes() == want.table.tobytes()
    assert got.generator_indices == want.generator_indices
    assert got.cosets.dtype == want.cosets.dtype
    assert got.cosets.tobytes() == want.cosets.tobytes()
    assert got.cosets.shape == want.cosets.shape


@pytest.mark.parametrize("name", DENSE)
def test_every_term_row_lies_in_one_coset_of_the_derived_subgroup(name):
    # the cosets read off the subgroup code, not off the algebra's table
    G = group(name)
    A = build_algebra(G)
    index = _index(A)
    derived = [index[d] for d in derived_subgroup(whole_group(G)).elements]
    label = A.table[:, derived].min(axis=1)
    for term in _dense_upper(A) + _dense_lower(A):
        for row in term:
            assert len(set(label[np.flatnonzero(row)].tolist())) == 1


def test_cosets_partition_the_group_in_ascending_rows():
    # the basis is listed coset by coset of G', read off the subgroup code
    G = group("cond66-quotient-p3")
    A = build_algebra(G)
    assert A.cosets.shape == (81, 3)
    assert np.array_equal(A.cosets.ravel(), np.arange(A.dim))
    assert (np.diff(A.cosets, axis=1) > 0).all()
    assert (np.diff(A.cosets[:, 0]) > 0).all()
    index = _index(A)
    derived = derived_subgroup(whole_group(G)).elements
    assert set(A.cosets[0].tolist()) == {index[d] for d in derived}
    for row in A.cosets:
        x = A.elements[row[0]]
        assert set(row.tolist()) == {index[G.multiply(x, d)] for d in derived}

