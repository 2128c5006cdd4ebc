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
applies one integer ``np.mod``.
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


def _rref_inplace(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduce a (mutated) and return it with its pivot column list."""
    nrows, ncols = a.shape
    r = 0
    pivots: list[int] = []
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
    return a, pivots


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
        coeffs = blk[:, self._pivots]
        # The product lies in [0, (p-1)^2 * rank] and is exact in float64;
        # adding p*(p-1)*rank makes every entry non-negative.
        prod = (coeffs.astype(np.float64) @ self._rows_f).astype(np.int64)
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
        blk = blk[blk.any(axis=1)]
        if blk.shape[0] and self._pivots:
            blk = self._reduce(blk)
            blk = blk[blk.any(axis=1)]
        if blk.shape[0] == 0:
            return np.zeros((0, self.ambient_dim), dtype=np.int64)
        reduced, new_pivots = _rref_inplace(blk, self.p)
        new_rows = reduced[: len(new_pivots)]
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
