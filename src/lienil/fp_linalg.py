"""Exact dense linear algebra over the prime field GF(p).

Everything here works on numpy int64 arrays holding least non-negative
residues.  Subspaces are kept in reduced row-echelon form, which makes
equality, hashing and membership structural operations.  Row elimination
multiplies two residues in int64, so rref, FpSubspace and
EchelonAccumulator accept only primes with ``(p-1)^2 < 2**63``.

Matrix products route through float64 BLAS when ``(p-1)^2 * inner_dim``
fits a double exactly (< 2**53); the result is exact and is folded back to
int64.  Otherwise int64 matmul is used while ``(p-1)^2 * inner_dim`` stays
below 2**63, and Python integers beyond that.

EchelonAccumulator reduces each incoming block against its basis in one
fused pass: it keeps a float64 copy of its rows, computes
``blk - blk[:, pivots] @ rows`` with a single BLAS product while
``(p-1)^2 * rank + p < 2**53``, shifts the int64 result by a multiple of p
so that every entry is non-negative, and applies one integer ``np.mod``.
Larger products take the exact int64 route through matmul_mod.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

_FLOAT_EXACT_LIMIT = 2**53
_INT64_LIMIT = 2**63


# Miller-Rabin with the prime bases 2..41 is exact below _PRIME_TEST_BOUND
# (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def check_prime(p: int) -> int:
    """Validate that p is a prime usable as a field characteristic, by
    deterministic Miller-Rabin over _PRIME_BASES.

    Args:
        p: candidate modulus.

    Returns:
        p itself, for call chaining.

    Raises:
        ValueError: if p is not a prime number, or not below _PRIME_TEST_BOUND.
    """
    if not isinstance(p, (int, np.integer)) or p < 2:
        raise ValueError(f"not a prime: {p!r}")
    n = int(p)
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: "
                         f"primes must be below {_PRIME_TEST_BOUND}")
    if n in _PRIME_BASES:
        return n
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 2**r, n) for r in range(s)):
            raise ValueError(f"not a prime: {n}")
    return n


def _check_field(p: int) -> int:
    """check_prime, plus (p-1)^2 < 2**63 for elimination's int64 products."""
    if isinstance(p, (int, np.integer)) and (int(p) - 1) ** 2 >= _INT64_LIMIT:
        raise ValueError(f"GF({p}) elimination needs (p-1)^2 < 2**63")
    return check_prime(p)


def _as_residues(mat, p: int) -> np.ndarray:
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return np.mod(a, p)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 residue matrices.

    Raises:
        ValueError: if residues mod p do not fit int64 (p > 2**63).
    """
    p = int(p)
    if p > _INT64_LIMIT:
        raise ValueError(f"residues mod {p} do not fit int64")
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    bound = (p - 1) * (p - 1) * inner
    if bound < _FLOAT_EXACT_LIMIT:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return np.mod(prod.astype(np.int64), p)
    if bound < _INT64_LIMIT:
        return np.mod(a @ b, p)
    return np.mod(a.astype(object) @ b.astype(object), p).astype(np.int64)


def rref(mat, p: int) -> tuple[np.ndarray, int]:
    """Reduced row-echelon form over GF(p).

    Args:
        mat: 2-D array-like of integers (any residues; reduced mod p here).
        p: prime modulus.

    Returns:
        (R, rank) where R is the RREF with leading coefficients 1 and zero
        rows (if any) at the bottom, and rank is the number of nonzero rows.
    """
    _check_field(p)
    a = _as_residues(mat, p)
    reduced, pivots = _rref_inplace(a, p)
    return reduced, len(pivots)


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


class FpSubspace:
    """A subspace of GF(p)^n held as a canonical RREF basis.

    Two subspaces of the same ambient space are equal exactly when their
    basis arrays are identical; the basis array is non-writeable.
    """

    __slots__ = ("p", "ambient_dim", "basis", "pivots")

    def __init__(self, p: int, ambient_dim: int, basis: np.ndarray, pivots: tuple[int, ...]):
        # Internal constructor: callers go through from_vectors/zero/full.
        self.p = p
        self.ambient_dim = ambient_dim
        basis = np.ascontiguousarray(basis, dtype=np.int64)
        basis.setflags(write=False)
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "FpSubspace":
        _check_field(p)
        return cls(p, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64), ())

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "FpSubspace":
        _check_field(p)
        return cls(p, ambient_dim, np.eye(ambient_dim, dtype=np.int64),
                   tuple(range(ambient_dim)))

    @classmethod
    def from_vectors(cls, p: int, ambient_dim: int, vectors) -> "FpSubspace":
        """Span of the given row vectors."""
        _check_field(p)
        a = np.asarray(vectors, dtype=np.int64)
        if a.size == 0:
            return cls.zero(p, ambient_dim)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.shape[1] != ambient_dim:
            raise ValueError(f"vectors have {a.shape[1]} columns, ambient is {ambient_dim}")
        reduced, pivots = _rref_inplace(np.mod(a, p), p)
        return cls(p, ambient_dim, reduced[: len(pivots)], tuple(pivots))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpSubspace):
            return NotImplemented
        return (self.p == other.p and self.ambient_dim == other.ambient_dim
                and self.basis.shape == other.basis.shape
                and bool(np.array_equal(self.basis, other.basis)))

    def __hash__(self) -> int:
        return hash((self.p, self.ambient_dim, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"FpSubspace(p={self.p}, dim={self.dim}/{self.ambient_dim})"

    def contains(self, v) -> bool:
        """Membership of a single vector."""
        w = np.mod(np.asarray(v, dtype=np.int64), self.p)
        if w.shape != (self.ambient_dim,):
            raise ValueError(f"vector length {w.shape}, ambient is {self.ambient_dim}")
        if self.dim == 0:
            return not w.any()
        coeffs = w[list(self.pivots)].reshape(1, -1)
        residual = (w - matmul_mod(coeffs, self.basis, self.p)[0]) % self.p
        return not residual.any()


class EchelonAccumulator:
    """Growable RREF basis: feed row blocks, keep a canonical echelon.

    The accumulator maintains the same canonical form as FpSubspace, so the
    final snapshot() is byte-identical to from_vectors over all fed rows.
    """

    def __init__(self, p: int, ambient_dim: int):
        self.p = _check_field(p)
        self.ambient_dim = ambient_dim
        self._rows = np.zeros((0, ambient_dim), dtype=np.int64)
        self._pivots: list[int] = []
        # float64 copy of _rows while the fused reduction is exact, else None
        self._rows_f: Optional[np.ndarray] = self._rows.astype(np.float64)

    @property
    def dim(self) -> int:
        return self._rows.shape[0]

    def _reduce(self, blk: np.ndarray) -> np.ndarray:
        """Residual (blk - blk[:, pivots] @ rows) mod p of a residue block."""
        p = self.p
        coeffs = blk[:, self._pivots]
        if self._rows_f is None:
            return np.mod(blk - matmul_mod(coeffs, self._rows, p), p)
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
        rank = len(self._pivots)
        exact = (self.p - 1) ** 2 * rank + self.p < _FLOAT_EXACT_LIMIT
        self._rows_f = self._rows.astype(np.float64) if exact else None
        return new_rows

    def snapshot(self) -> FpSubspace:
        return FpSubspace(self.p, self.ambient_dim, self._rows.copy(),
                          tuple(self._pivots))


def close_under(seed: FpSubspace,
                operators: Sequence[Callable[[np.ndarray], np.ndarray]]
                ) -> FpSubspace:
    """Smallest subspace containing seed and stable under every operator.

    Args:
        seed: starting subspace.
        operators: linear maps on the ambient space, each a callable
            mapping a (k, n) residue block to a (k, n) block of integers
            (add_block reduces the image mod p).

    Returns:
        The closure, in canonical form.
    """
    acc = EchelonAccumulator(seed.p, seed.ambient_dim)
    fresh = acc.add_block(seed.basis)
    while fresh.shape[0] > 0 and acc.dim < seed.ambient_dim:
        produced = []
        for op in operators:
            added = acc.add_block(op(fresh))
            if added.shape[0]:
                produced.append(added)
        fresh = np.vstack(produced) if produced else np.zeros((0, seed.ambient_dim), dtype=np.int64)
    return acc.snapshot()
