"""Exact GF(p) linear algebra, cross-checked against a naive oracle.

The oracle below is an independent fraction-free Gaussian elimination on
plain Python lists; rref and the subspace lattice are verified against it
rather than against themselves.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lienil.fp_linalg import (
    EchelonAccumulator,
    FpSubspace,
    check_prime,
    close_under,
    matmul_mod,
    rref,
)

PRIMES = (2, 3, 5)
# Above 2**26 products leave the float64 route; at 2**31 - 1 a single
# (p-1)^2 * inner sum no longer fits int64 once inner >= 2.
LARGE_PRIMES = (67108859, 2**31 - 1)


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


small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=12), min_size=n, max_size=n),
        min_size=1, max_size=6,
    )
)


@settings(max_examples=150, deadline=None)
@given(mat=small_matrix, p=st.sampled_from(PRIMES))
def test_rref_matches_naive_oracle(mat, p):
    got, rank = rref(mat, p)
    want = naive_rref(mat, p)
    assert rank == len(want)
    assert got[:rank].tolist() == want


@settings(max_examples=100, deadline=None)
@given(mat=small_matrix, p=st.sampled_from(PRIMES))
def test_rref_is_idempotent(mat, p):
    first, rank = rref(mat, p)
    second, rank2 = rref(first, p)
    assert rank2 == rank
    assert np.array_equal(first, second)


@settings(max_examples=100, deadline=None)
@given(mat=small_matrix, p=st.sampled_from(PRIMES), seed=st.integers(0, 2**16))
def test_canonical_form_ignores_presentation(mat, p, seed):
    """Shuffling and rescaling the generating rows leaves the basis fixed."""
    n = len(mat[0])
    rng = np.random.default_rng(seed)
    scrambled = [[(x * s) % p for x in row]
                 for row, s in zip(mat, rng.integers(1, p, size=len(mat)))]
    rng.shuffle(scrambled)
    a = FpSubspace.from_vectors(p, n, mat)
    b = FpSubspace.from_vectors(p, n, scrambled)
    assert a == b
    assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(mat=small_matrix, p=st.sampled_from(PRIMES),
       coeffs=st.lists(st.integers(0, 12), min_size=6, max_size=6))
def test_contains_linear_combinations(mat, p, coeffs):
    n = len(mat[0])
    s = FpSubspace.from_vectors(p, n, mat)
    combo = np.zeros(n, dtype=np.int64)
    for c, row in zip(coeffs, mat):
        combo = (combo + c * np.asarray(row)) % p
    assert s.contains(combo)


def test_contains_rejects_outside_vector():
    s = FpSubspace.from_vectors(3, 3, [[1, 0, 2], [0, 1, 1]])
    assert not s.contains([0, 0, 1])
    assert s.contains([1, 1, 0])


@settings(max_examples=80, deadline=None)
@given(mat=small_matrix, p=st.sampled_from(PRIMES + LARGE_PRIMES),
       cuts=st.lists(st.integers(min_value=0, max_value=9), max_size=6),
       zeros=st.lists(st.integers(min_value=0, max_value=6), max_size=3),
       scale=st.integers(min_value=1, max_value=2**40))
def test_accumulator_agrees_with_batch_reduction(mat, p, cuts, zeros, scale):
    """Many small blocks, some empty and some with rows that vanish mod p.

    Rescaling row i by scale^(i+1) keeps the span but spreads the entries
    over all of GF(p), so large primes reach products beyond 2**53.  The
    appended combination must reduce to exactly zero.
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
        acc.add_block(rows[lo:hi])
    want = FpSubspace.from_vectors(p, n, mat)
    got = acc.snapshot()
    assert got == want
    assert got.pivots == want.pivots


def test_accumulator_reports_only_new_rows():
    acc = EchelonAccumulator(2, 3)
    first = acc.add_block([[1, 0, 0]])
    assert first.shape == (1, 3)
    again = acc.add_block([[1, 0, 0]])
    assert again.shape == (0, 3)
    assert acc.dim == 1


def _acting_on_rows(mat):
    # close_under takes callables on row blocks: v -> v @ M
    return lambda block: block @ mat


def test_close_under_reaches_orbit_span():
    # Cyclic shift on GF(2)^4: the orbit of e1 spans everything.
    p, n = 2, 4
    shift = np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
    seed = FpSubspace.from_vectors(p, n, [[1, 0, 0, 0]])
    closed = close_under(seed, [_acting_on_rows(shift)])
    assert closed.dim == n


def test_close_under_respects_invariant_subspace():
    # The last basis vector is an eigenvector of the operator (acting as
    # v -> v @ M), so its span is already closed.
    p, n = 3, 3
    op = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 2]], dtype=np.int64)
    seed = FpSubspace.from_vectors(p, n, [[0, 0, 1]])
    closed = close_under(seed, [_acting_on_rows(op)])
    assert closed == seed


def test_close_under_is_minimal_against_iteration():
    rng = np.random.default_rng(7)
    p, n = 3, 5
    ops = [rng.integers(0, p, size=(n, n)) for _ in range(2)]
    seed_rows = rng.integers(0, p, size=(1, n))
    seed = FpSubspace.from_vectors(p, n, seed_rows)
    closed = close_under(seed, [_acting_on_rows(op) for op in ops])
    # Re-derive by blunt fixpoint iteration.
    rows = [list(r) for r in seed_rows]
    while True:
        before = len(naive_rref(rows, p))
        for op in ops:
            rows.extend((np.asarray(rows) @ op % p).tolist())
        rows = naive_rref(rows, p)
        if len(rows) == before:
            break
    assert closed == FpSubspace.from_vectors(p, n, rows)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES + LARGE_PRIMES), seed=st.integers(0, 2**16))
def test_matmul_mod_matches_integer_arithmetic(p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(4, 6))
    b = rng.integers(0, p, size=(6, 3))
    got = matmul_mod(a.astype(np.int64), b.astype(np.int64), p)
    want = (a.astype(object) @ b.astype(object)) % p
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    # 3 * (q-1)^2 >= 2**63: plain int64 matmul would wrap here.
    q = 2**31 - 1
    top = np.full((1, 3), q - 1, dtype=np.int64)
    assert matmul_mod(top, top.T, q).tolist() == [[3]]


def test_elimination_rejects_primes_whose_products_overflow_int64():
    # (p-1)^2 < 2**63 holds up to q = 3037000493; from the next prime on,
    # one product of two residues wraps int64.
    q = 3037000493
    rows = [[3, q - 2], [5, 7]]
    reduced, rank = rref(rows, q)
    assert reduced[:rank].tolist() == naive_rref(rows, q)
    for p in (3037000507, 2**32 + 15):
        with pytest.raises(ValueError):
            rref([[3, p - 2]], p)
        with pytest.raises(ValueError):
            FpSubspace.from_vectors(p, 2, [[3, p - 2]])
        with pytest.raises(ValueError):
            EchelonAccumulator(p, 2)
        assert check_prime(p) == p  # presentations still accept it


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
    z = FpSubspace.zero(5, 4)
    f = FpSubspace.full(5, 4)
    assert z.is_zero() and z.dim == 0
    assert f.dim == 4
