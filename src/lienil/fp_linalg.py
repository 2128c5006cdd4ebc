"""Row elimination over the prime field GF(p): the oracle's kernel.

Everything here works on numpy int64 arrays holding least non-negative
residues.  A subspace is the read-only (dim, n) array of its reduced
row-echelon basis, EchelonAccumulator.basis, so equal subspaces of one
ambient space have identical arrays.  close_under continues the
accumulator that holds its seed.

All products go through float64 BLAS, exact because every partial sum
stays below 2**53.  EchelonAccumulator(p, n) therefore refuses fields and
sizes with ``(p-1)^2 * n + p >= 2**53``; a p-group algebra has n >= p, so
that happens only for n above 2 * 10^5, far beyond any dense table.

EchelonAccumulator reduces each incoming block against its basis in one
fused pass: it keeps a float64 copy of its rows, computes
``blk - blk[:, pivots] @ rows`` with a single BLAS product, shifts the
int64 result by a multiple of p so that every entry is non-negative, and
applies one integer ``np.mod``.  What remains is eliminated in rounds,
not one pivot column at a time: each round takes one row per distinct
leading column, inverts the unit upper-triangular matrix those rows form
on their leading columns as a product of (I + N^(2^k)) factors, and
clears all of those columns with one product per array.  The RREF of a
span is unique, so the rows do not depend on how many rounds it took.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_FLOAT_EXACT_LIMIT = 2**53


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 residue matrices, through float64.

    Raises:
        ValueError: if (p-1)^2 * inner dimension reaches 2**53, where a
            float64 sum is no longer exact.
    """
    inner = a.shape[1]
    if (p - 1) ** 2 * inner >= _FLOAT_EXACT_LIMIT:
        raise ValueError(f"GF({p}) products of inner dimension {inner} "
                         "are not exact in float64")
    prod = a.astype(np.float64) @ b.astype(np.float64)
    return np.mod(prod.astype(np.int64), p)


def _nonzero_rows(a: np.ndarray) -> np.ndarray:
    """a without its zero rows: a itself, not a copy, when it has none."""
    nonzero = a.any(axis=1)
    return a if nonzero.all() else a[nonzero]


def _unit_upper_solve(t: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
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


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The RREF rows of a block of residues, and their pivot columns.

    Each round takes, for every distinct leading column, the first row
    that leads there, and scales it to a leading 1.  On their leading
    columns the chosen rows form a unit upper-triangular T, so T^-1
    times them is the RREF of their span.  Those columns are then cleared
    from the rows found so far and from the rest, each with one product,
    and the rows that vanish are dropped.  Every product's inner
    dimension is a number of pivots, at most the row length.
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


class EchelonAccumulator:
    """Growable RREF basis: feed row blocks, keep a canonical echelon.

    The basis after any sequence of blocks is the RREF of all the rows
    fed, whatever their order and grouping.  p must be prime.
    """

    def __init__(self, p: int, ambient_dim: int):
        if (p - 1) ** 2 * ambient_dim + p >= _FLOAT_EXACT_LIMIT:
            raise ValueError(f"GF({p}) elimination in dimension {ambient_dim} "
                             "needs (p-1)^2 * dim + p < 2**53")
        self.p = p
        self.ambient_dim = ambient_dim
        self._rows = np.zeros((0, ambient_dim), dtype=np.int64)
        self._rows_f = np.zeros((0, ambient_dim), dtype=np.float64)
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return self._rows.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """The RREF rows themselves, read-only.

        add_block replaces the row array and never writes into it, so a
        basis taken earlier keeps its value.
        """
        self._rows.setflags(write=False)
        return self._rows

    def _reduce(self, blk: np.ndarray) -> np.ndarray:
        """Residual (blk - blk[:, pivots] @ rows) mod p of a residue block."""
        p = self.p
        # The product lies in [0, (p-1)^2 * rank] and is exact in float64;
        # adding p*(p-1)*rank makes every entry non-negative.  The
        # coefficients are a temporary, freed before the product is cast.
        prod = (blk[:, self._pivots].astype(np.float64) @ self._rows_f).astype(np.int64)
        shift = p * (p - 1) * len(self._pivots)
        return np.mod(np.subtract(blk + shift, prod, out=prod), p)

    def add_block(self, block) -> np.ndarray:
        """Add a (k, n) block of residues; return the newly added RREF rows.

        The returned array is empty when the block lies in the current span.
        """
        blk = np.asarray(block, dtype=np.int64)
        if blk.ndim == 1:
            blk = blk.reshape(1, -1)
        # Blocks of residues, the usual input, skip the full-size np.mod.
        if blk.size and (blk.min() < 0 or blk.max() >= self.p):
            blk = np.mod(blk, self.p)
        blk = _nonzero_rows(blk)
        if blk.shape[0] and self._pivots:
            blk = _nonzero_rows(self._reduce(blk))
        if blk.shape[0] == 0:
            return np.zeros((0, self.ambient_dim), dtype=np.int64)
        new_rows, new_pivots = _rref(blk, self.p)
        rows = self._rows
        if self._pivots:
            # Clear old rows' entries over the new pivot columns, then merge.
            coeffs = rows[:, new_pivots]
            if coeffs.any():
                rows = np.mod(rows - matmul_mod(coeffs, new_rows, self.p), self.p)
        pivots = np.array(self._pivots + new_pivots)
        order = np.argsort(pivots)
        self._pivots = pivots[order].tolist()
        self._rows = np.vstack([rows, new_rows])[order]
        self._rows_f = self._rows.astype(np.float64)
        return new_rows


def close_under(acc: EchelonAccumulator,
                gathers: Sequence[np.ndarray]) -> np.ndarray:
    """Grow acc to the smallest subspace containing its span and stable
    under every gather; return the closure's basis.

    Args:
        acc: the accumulator holding the seed; it is continued in place.
        gathers: a non-empty list of coordinate permutations of the
            ambient space, each an index array g sending a row block to
            block[:, g].

    Returns:
        acc.basis once the closure is reached.
    """
    fresh = acc.basis
    while fresh.shape[0] > 0 and acc.dim < acc.ambient_dim:
        fresh = np.vstack([acc.add_block(fresh[:, g]) for g in gathers])
    return acc.basis
