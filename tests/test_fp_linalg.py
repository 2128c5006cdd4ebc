"""Exact GF(p) linear algebra, cross-checked against a naive oracle.

The oracle below is an independent Gaussian elimination on plain Python
lists; the accumulator's canonical echelon form and close_under are
verified against it rather than against themselves.  The batched-pivot
elimination is also compared with the column-by-column numpy loop it
replaced, on blocks built to need many rounds.  The prime test
check_prime, which lives in lienil.pcgroup, is tested here as well.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lienil.fp_linalg import (
    EchelonAccumulator,
    _rref,
    _unit_upper_solve,
    close_under,
    matmul_mod,
)
from lienil.pcgroup import check_prime

PRIMES = (2, 3, 5)
# The largest prime q with (q-1)^2 * 6 < 2**53: a product of inner
# dimension 6 is still exact in float64, the next prime's is not.
NEAR_LIMIT_PRIME = 38745307


def naive_rref(rows, p):
    """Reference RREF on lists of lists, no numpy involved."""
    a = [[int(x) % p for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, nrows) if a[k][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for k in range(nrows):
            if k != r and a[k][c]:
                f = a[k][c]
                a[k] = [(a[k][j] - f * a[r][j]) % p for j in range(ncols)]
        r += 1
        if r == nrows:
            break
    return a[:r]


def column_rref(a, p):
    """Reference elimination on a numpy residue block, one pivot column
    per step: returns the RREF rows and their pivot columns."""
    a = a.copy()
    nrows, ncols = a.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=12), min_size=n, max_size=n),
        min_size=1, max_size=6,
    )
)


def _accumulate(p, n, rows):
    acc = EchelonAccumulator(p, n)
    acc.add_block(np.asarray(rows, dtype=np.int64).reshape(-1, n))
    return acc


def _span(p, n, rows):
    return _accumulate(p, n, rows).basis


def _pivots(basis):
    return [int(np.flatnonzero(row)[0]) for row in basis]


@settings(max_examples=150, deadline=None)
@given(mat=small_matrix, p=st.sampled_from(PRIMES))
def test_rref_matches_naive_oracle(mat, p):
    got = _span(p, len(mat[0]), mat)
    want = naive_rref(mat, p)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert _pivots(got) == [row.index(next(filter(None, row))) for row in want]


@settings(max_examples=100, deadline=None)
@given(mat=small_matrix, p=st.sampled_from(PRIMES))
def test_rref_is_idempotent(mat, p):
    first = _span(p, len(mat[0]), mat)
    second = _span(p, len(mat[0]), first)
    assert second.shape == first.shape
    assert second.tobytes() == first.tobytes()
    assert _pivots(second) == _pivots(first)


@settings(max_examples=100, deadline=None)
@given(mat=small_matrix, p=st.sampled_from(PRIMES), seed=st.integers(0, 2**16))
def test_canonical_form_ignores_presentation(mat, p, seed):
    """Shuffling and rescaling the generating rows leaves the basis fixed."""
    n = len(mat[0])
    rng = np.random.default_rng(seed)
    scrambled = [[(x * s) % p for x in row]
                 for row, s in zip(mat, rng.integers(1, p, size=len(mat)))]
    rng.shuffle(scrambled)
    a = _span(p, n, mat)
    b = EchelonAccumulator(p, n)
    for row in scrambled:  # one row per block
        b.add_block(row)
    assert b.basis.shape == a.shape
    assert b.basis.tobytes() == a.tobytes()


@settings(max_examples=80, deadline=None)
@given(mat=small_matrix, p=st.sampled_from(PRIMES + (NEAR_LIMIT_PRIME,)),
       cuts=st.lists(st.integers(min_value=0, max_value=9), max_size=6),
       zeros=st.lists(st.integers(min_value=0, max_value=6), max_size=3),
       scale=st.integers(min_value=1, max_value=2**40))
def test_accumulator_agrees_with_batch_reduction(mat, p, cuts, zeros, scale):
    """Many small blocks, some empty and some with rows that vanish mod p.

    Rescaling row i by scale^(i+1) keeps the span but spreads the entries
    over all of GF(p), so the prime near the float64 limit meets products
    close to 2**53.  The appended combination must reduce to exactly zero.
    """
    n = len(mat[0])
    rows = [[x * (pow(scale, i + 1, p) or 1) % p for x in row]
            for i, row in enumerate(mat)]
    rows.append([sum(scale * r[j] for r in rows) % p for j in range(n)])
    for z in zeros:
        rows.insert(min(z, len(rows)), [p * z] * n)
    bounds = sorted(min(c, len(rows)) for c in cuts)
    acc = EchelonAccumulator(p, n)
    for lo, hi in zip([0] + bounds, bounds + [len(rows)]):
        acc.add_block(np.asarray(rows[lo:hi], dtype=np.int64).reshape(-1, n))
    assert acc.basis.tolist() == naive_rref(mat, p)


def test_accumulator_reports_only_new_rows():
    acc = EchelonAccumulator(2, 3)
    first = acc.add_block([[1, 0, 0]])
    assert first.shape == (1, 3)
    again = acc.add_block([[1, 0, 0]])
    assert again.shape == (0, 3)
    assert acc.dim == 1


def test_accumulator_refuses_the_first_inexact_field():
    # (p-1)^2 * n + p < 2**53 holds for GF(2) up to n = 2**53 - 3, and
    # for GF(3) up to n = 2**51 - 1
    EchelonAccumulator(2, 2**53 - 3)
    with pytest.raises(ValueError):
        EchelonAccumulator(2, 2**53 - 2)
    EchelonAccumulator(3, 2**51 - 1)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        EchelonAccumulator(3, 2**51)
    # A p-group algebra has n >= p; at n = p the bound first fails at
    # the prime 208067, where the previous prime 208057 still passes.
    EchelonAccumulator(208057, 208057)
    with pytest.raises(ValueError):
        EchelonAccumulator(208067, 208067)


def _naive_closure(p, seed_rows, gathers):
    rows = naive_rref(seed_rows, p)
    while True:
        before = len(rows)
        for g in gathers:
            rows = rows + (np.asarray(rows, dtype=np.int64).reshape(-1, len(g))[:, g]).tolist()
        rows = naive_rref(rows, p)
        if len(rows) == before:
            return rows


def test_close_under_reaches_orbit_span():
    # Cyclic shift on GF(2)^4: the orbit of e1 spans everything.
    p, n = 2, 4
    gathers = [np.roll(np.arange(n), 1)]
    acc = _accumulate(p, n, [[1, 0, 0, 0]])
    closed = close_under(acc, gathers)
    assert closed.tolist() == _naive_closure(p, [[1, 0, 0, 0]], gathers)
    assert np.array_equal(closed, np.eye(n, dtype=np.int64))
    assert closed is acc.basis


def test_close_under_respects_invariant_subspace():
    # Swapping the first two coordinates fixes e3 and e1 + e2.
    p, n = 3, 3
    swap = np.array([1, 0, 2])
    for rows in ([[0, 0, 1]], [[1, 1, 0]], [[1, 1, 2], [0, 0, 1]]):
        seed = _span(p, n, rows)
        closed = close_under(_accumulate(p, n, rows), [swap])
        assert closed.tolist() == _naive_closure(p, rows, [swap])
        assert closed.tobytes() == seed.tobytes()


def test_close_under_is_minimal_against_iteration():
    rng = np.random.default_rng(7)
    p, n = 3, 6
    for _ in range(20):
        gathers = [rng.permutation(n) for _ in range(2)]
        seed_rows = rng.integers(0, p, size=(2, n)).tolist()
        closed = close_under(_accumulate(p, n, seed_rows), gathers)
        assert closed.tolist() == _naive_closure(p, seed_rows, gathers)


def test_basis_is_read_only_and_not_aliased_by_later_blocks():
    acc = EchelonAccumulator(3, 4)
    acc.add_block([[1, 2, 0, 1], [0, 1, 1, 0]])
    before = acc.basis
    saved = before.copy()
    assert acc.basis is before
    with pytest.raises(ValueError):
        before[0, 0] = 2
    # the new pivot clears column 2 of the old rows, in a new array
    acc.add_block([[0, 0, 1, 2]])
    assert np.array_equal(before, saved)
    assert acc.basis is not before
    assert acc.basis.tolist() == naive_rref(saved.tolist() + [[0, 0, 1, 2]], 3)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES + (NEAR_LIMIT_PRIME,)), seed=st.integers(0, 2**16))
def test_matmul_mod_matches_integer_arithmetic(p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(4, 6))
    b = rng.integers(0, p, size=(6, 3))
    got = matmul_mod(a.astype(np.int64), b.astype(np.int64), p)
    want = (a.astype(object) @ b.astype(object)) % p
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    # the next prime's products of inner dimension 6 exceed 2**53
    top = np.full((1, 6), NEAR_LIMIT_PRIME - 1, dtype=np.int64)
    assert matmul_mod(top, top.T, NEAR_LIMIT_PRIME).tolist() == [[6]]
    with pytest.raises(ValueError):
        matmul_mod(top, top.T, 38745323)


def test_check_prime_accepts_and_rejects():
    for p in (2, 3, 5, 7, 11, 13, 17, 101):
        assert check_prime(p) == p
    for bad in (0, 1, 4, 9, 15, 21, -3, "5"):
        with pytest.raises(ValueError):
            check_prime(bad)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _accepts(n):
    try:
        return check_prime(n) == n
    except ValueError:
        return False


def test_check_prime_agrees_with_trial_division():
    for n in range(10**5):
        assert _accepts(n) == _is_prime_by_trial_division(n), n


def test_check_prime_rejects_strong_pseudoprimes_and_undecided_sizes():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    for spsp in (3215031751, 3825123056546413051):
        with pytest.raises(ValueError, match=f"^not a prime: {spsp}$"):
            check_prime(spsp)
    start = time.perf_counter()
    assert check_prime(10000000000000061) == 10000000000000061
    assert check_prime(2**61 - 1) == 2**61 - 1  # Mersenne prime
    assert time.perf_counter() - start < 0.5
    # a prime, but above the bound where the bases are proven exact
    with pytest.raises(ValueError, match="^cannot decide whether"):
        check_prime(2**89 - 1)


def test_zero_and_full_subspaces():
    z = EchelonAccumulator(5, 4).basis
    f = _span(5, 4, np.eye(4, dtype=np.int64)[::-1] * 3)
    assert z.shape == (0, 4) and z.dtype == np.int64
    assert f.shape == (4, 4)
    assert np.array_equal(f, np.eye(4, dtype=np.int64))


def _adversarial_blocks(p, rng):
    """Residue blocks named by the way they stress batched elimination."""
    n = 6 if p == NEAR_LIMIT_PRIME else 40
    scale = rng.integers(1, p, size=(n - 1, 1))
    # row i is e_0 + e_(i+1), rescaled: every round finds exactly one pivot
    staircase = np.zeros((n - 1, n), dtype=np.int64)
    staircase[:, 0] = 1
    staircase[np.arange(n - 1), np.arange(1, n)] = 1
    staircase = staircase * scale % p
    dense = rng.integers(0, p, size=(n + 3, n))
    shared = rng.integers(0, p, size=(n, n))
    shared[:, :2] = 0
    shared[:, 2] = rng.integers(1, p, size=n)
    repeats = np.vstack([dense[:4], np.zeros((2, n), dtype=np.int64),
                         dense[:4] * 2 % p, dense[1:3], np.zeros((1, n), dtype=np.int64)])
    blocks = {"staircase": staircase, "dense": dense, "one-leading-column": shared,
              "duplicates-and-zeros": repeats,
              "zero": np.zeros((3, n), dtype=np.int64)}
    if p != NEAR_LIMIT_PRIME:
        blocks["dense-200"] = rng.integers(0, p, size=(200, 200))
        blocks["dense-243"] = rng.integers(0, p, size=(243, 243))
        low_rank = rng.integers(0, p, size=(60, 12)) @ rng.integers(0, p, size=(12, 50)) % p
        blocks["rank-12"] = low_rank
    return blocks


@pytest.mark.parametrize("p", PRIMES + (NEAR_LIMIT_PRIME,))
def test_batched_rref_matches_the_column_loop(p):
    rng = np.random.default_rng(p)
    for name, block in _adversarial_blocks(p, rng).items():
        block = block.astype(np.int64)
        want, want_pivots = column_rref(block, p)
        got, pivots = _rref(block.copy(), p)
        assert pivots == want_pivots, name
        assert got.dtype == np.int64, name
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        if block.shape[1] <= 6:
            assert got.tolist() == naive_rref(block.tolist(), p), name


@pytest.mark.parametrize("p", PRIMES + (1000003,))
def test_unit_upper_inverse(p):
    rng = np.random.default_rng(p)
    for size in (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65):
        t = np.triu(rng.integers(0, p, size=(size, size)), k=1)
        np.fill_diagonal(t, 1)
        eye = np.eye(size, dtype=np.int64)
        assert np.array_equal(_unit_upper_solve(t, t, p), eye), size
        inverse = _unit_upper_solve(t, eye, p)
        product = (inverse.astype(object) @ t.astype(object)) % p
        assert product.tolist() == eye.tolist(), size
