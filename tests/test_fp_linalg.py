"""Exact GF(p) linear algebra, cross-checked against a naive oracle.

The oracle below is an independent Gaussian elimination on plain Python
lists; the accumulator's canonical echelon form is verified against it
rather than against itself.  DenseEchelon, the ungraded accumulator
the oracle's chains used before they were graded, is kept here as the
slow reference of tests/test_oracle.py; its
batched-pivot elimination is compared with the column-by-column numpy
loop it replaced, on blocks built to need many rounds.  matmul_mod,
the exact product mod p those references use, lives and is tested here
too.  The prime test check_prime, which lives in lienil.pcgroup, is
tested here as well.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lienil.fp_linalg import (
    EchelonAccumulator,
    _residues,
    to_layers,
)
from lienil.pcgroup import check_prime

PRIMES = (2, 3, 5)
# The largest prime q with (q-1)^2 * 6 < 2**53: a product of inner
# dimension 6 is still exact in float64, the next prime's is not.
NEAR_LIMIT_PRIME = 38745307


def matmul_mod(a, b, p):
    """Exact (a @ b) mod p for int64 residue matrices, through float64.

    Raises:
        ValueError: if (p-1)^2 * inner dimension reaches 2**53, where a
            float64 sum is no longer exact.
    """
    inner = a.shape[1]
    if (p - 1) ** 2 * inner >= 2**53:
        raise ValueError(f"GF({p}) products of inner dimension {inner} "
                         "are not exact in float64")
    prod = a.astype(np.float64) @ b.astype(np.float64)
    return np.mod(prod.astype(np.int64), p)


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


def _nonzero_rows(a):
    """a without its zero rows: a itself, not a copy, when it has none."""
    nonzero = a.any(axis=1)
    return a if nonzero.all() else a[nonzero]


def _unit_upper_solve(t, rows, p):
    """T^-1 @ rows mod p for a unit upper-triangular residue matrix T.

    With N = I - T, strictly upper triangular and so nilpotent,
    T^-1 = (I + N)(I + N^2)(I + N^4)..., a product that ends once a power
    of N is 0: a c x c matrix needs at most ceil(log2(c)) factors.
    """
    n = np.mod(-t, p)
    np.fill_diagonal(n, 0)
    while n.any():
        rows = np.mod(rows + matmul_mod(n, rows, p), p)
        n = matmul_mod(n, n, p)
    return rows


def _rref(a, p):
    """The RREF rows of a block of residues, and their pivot columns.

    Each round takes, for every distinct leading column, the first row
    that leads there, and scales it to a leading 1.  On their leading
    columns the chosen rows form a unit upper-triangular T, so T^-1
    times them is the RREF of their span.  Those columns are then cleared
    from the rows found so far and from the rest, each with one product,
    and the rows that vanish are dropped.
    """
    rows = np.zeros((0, a.shape[1]), dtype=np.int64)
    pivots = np.zeros(0, dtype=np.int64)
    a = _nonzero_rows(a)
    while a.shape[0]:
        lead = (a != 0).argmax(axis=1)
        order = np.argsort(lead, kind="stable")
        first = np.ones(len(order), dtype=bool)
        first[1:] = lead[order[1:]] != lead[order[:-1]]
        chosen, cols = order[first], lead[order[first]]
        new = a[chosen]
        heads = new[np.arange(len(cols)), cols]
        if (heads != 1).any():
            inverses = np.array([pow(h, -1, p) for h in heads.tolist()], dtype=np.int64)
            new = np.mod(new * inverses[:, None], p)
        new = _unit_upper_solve(new[:, cols], new, p)
        if rows.shape[0]:
            rows = np.mod(rows - matmul_mod(rows[:, cols], new, p), p)
        unchosen = np.ones(len(a), dtype=bool)
        unchosen[chosen] = False
        rest = a[unchosen]
        rest -= matmul_mod(rest[:, cols], new, p)
        a = _nonzero_rows(rest) % p
        rows = np.vstack([rows, new])
        pivots = np.concatenate([pivots, cols])
    order = np.argsort(pivots)
    return rows[order], pivots[order].tolist()


class DenseEchelon:
    """The ungraded growable RREF basis: every block is reduced against
    the whole basis of width n with one product, and what is left is
    eliminated by _rref and merged.  The same interface as
    EchelonAccumulator with one grade."""

    def __init__(self, p, ambient_dim):
        self.p = p
        self.ambient_dim = ambient_dim
        self._rows = np.zeros((0, ambient_dim), dtype=np.int64)
        self._pivots = []

    @property
    def dim(self):
        return self._rows.shape[0]

    @property
    def basis(self):
        self._rows.setflags(write=False)
        return self._rows

    def add_block(self, block):
        p = self.p
        blk = np.mod(np.asarray(block, dtype=np.int64).reshape(-1, self.ambient_dim), p)
        blk = _nonzero_rows(blk)
        if blk.shape[0] and self._pivots:
            blk = _nonzero_rows(np.mod(blk - matmul_mod(blk[:, self._pivots], self._rows, p), p))
        if blk.shape[0] == 0:
            return np.zeros((0, self.ambient_dim), dtype=np.int64)
        new_rows, new_pivots = _rref(blk, p)
        rows = self._rows
        if self._pivots:
            # clear the old rows' entries over the new pivot columns
            rows = np.mod(rows - matmul_mod(rows[:, new_pivots], new_rows, p), p)
        pivots = np.array(self._pivots + new_pivots)
        order = np.argsort(pivots)
        self._pivots = pivots[order].tolist()
        self._rows = np.vstack([rows, new_rows])[order]
        return new_rows


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


def _square_pivots(square):
    # the (k, m) pivot mask of a square form: its nonzero diagonal
    return np.diagonal(square, axis1=1, axis2=2) != 0


def _square_rows(square, c):
    # grade c's basis rows, in pivot order, from its square form
    block = square[c]
    return block[np.diagonal(block) != 0].astype(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES + (NEAR_LIMIT_PRIME,)),
       grades=st.integers(min_value=1, max_value=5),
       width=st.integers(min_value=1, max_value=6),
       sizes=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_graded_echelon_is_the_rref_of_each_grade(p, grades, width, sizes, seed):
    """Stacks of rows of every grade, fed in several adds, some rows
    repeated or combined so that they vanish, entries in (-p, p)."""
    rng = np.random.default_rng(seed)
    acc = EchelonAccumulator(p, grades * width, grades=grades)
    fed = [[] for _ in range(grades)]
    for size in sizes:
        block = rng.integers(0, p, size=(grades, size, width))
        if size > 1:
            block[:, -1] = (block[:, 0] * int(rng.integers(1, p))) % p
            block[:, 0] = -block[:, 0]
        before = _square_pivots(acc.square)
        layers = block.transpose(1, 0, 2).reshape(size, grades * width)
        new = acc.add_block(layers)
        assert new.dtype == np.int64
        assert new.tolist() == to_layers(acc.square, _square_pivots(acc.square) & ~before).tolist()
        for c in range(grades):
            fed[c] += block[c].tolist()
    for c in range(grades):
        assert _square_rows(acc.square, c) == naive_rref(fed[c] or [[0] * width], p)
    assert acc.dim == sum(len(naive_rref(rows, p)) for rows in fed if rows)
    assert acc.basis.tolist() == to_layers(acc.square, _square_pivots(acc.square)).tolist()


def test_graded_echelon_refuses_the_first_inexact_width():
    # width 6 is the widest in which GF(NEAR_LIMIT_PRIME) stays exact;
    # the bound is on the width of a grade, not on the whole dimension
    EchelonAccumulator(NEAR_LIMIT_PRIME, 12, grades=2)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        EchelonAccumulator(NEAR_LIMIT_PRIME, 14, grades=2)
    EchelonAccumulator(3, 4 * (2**51 - 1), grades=4)
    with pytest.raises(ValueError):
        EchelonAccumulator(3, 4 * 2**51, grades=4)
    with pytest.raises(ValueError, match="do not divide"):
        EchelonAccumulator(3, 10, grades=4)


def test_residues_match_integer_mod_near_the_float_limit():
    rng = np.random.default_rng(11)
    for p in PRIMES + (NEAR_LIMIT_PRIME,):
        bound = 2**53 - p  # |x| + p <= 2**53
        x = rng.integers(-bound, bound + 1, size=4000)
        x = np.concatenate([x, x - x % p, [bound, -bound, 0, p, -p]])
        assert np.array_equal(_residues(x.astype(np.float64), p).astype(np.int64), x % p)


def test_layers_hold_one_row_per_grade():
    square = np.arange(2 * 3 * 3, dtype=np.float64).reshape(2, 3, 3)
    rows = np.array([[True, False, True], [False, False, True]])
    layers = to_layers(square, rows)
    assert layers.tolist() == [[0, 1, 2, 0, 0, 0], [6, 7, 8, 15, 16, 17]]


def test_graded_square_is_read_only_and_not_aliased_by_later_blocks():
    acc = EchelonAccumulator(3, 6, grades=2)
    acc.add_block(np.array([[1, 2, 0, 0, 1, 1]]))
    before = acc.square
    kept = before.copy()
    assert not before.flags.writeable
    acc.add_block(np.array([[0, 1, 1, 1, 0, 0]]))
    assert np.array_equal(before, kept)
    assert acc.dim == 4


@settings(max_examples=80, deadline=None)
@given(mat=small_matrix, p=st.sampled_from(PRIMES + (NEAR_LIMIT_PRIME,)),
       cuts=st.lists(st.integers(min_value=0, max_value=6), max_size=4))
def test_dense_reference_accumulator_matches_naive_rref(mat, p, cuts):
    # the reference of the oracle's chain tests, fed in several blocks,
    # against the plain-list elimination and the graded accumulator
    n = len(mat[0])
    bounds = sorted(min(c, len(mat)) for c in cuts)
    acc = DenseEchelon(p, n)
    for lo, hi in zip([0] + bounds, bounds + [len(mat)]):
        acc.add_block(np.asarray(mat[lo:hi], dtype=np.int64).reshape(-1, n))
    assert acc.basis.tolist() == naive_rref(mat, p)
    assert acc.basis.tobytes() == _span(p, n, mat).tobytes()
