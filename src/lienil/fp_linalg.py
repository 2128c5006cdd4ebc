"""Row elimination over the prime field GF(p): the oracle's kernel.

Everything here works on numpy arrays holding least non-negative
residues, int64 where they go in and out.  A subspace is the read-only
array of its echelon basis, EchelonAccumulator.basis, so equal subspaces
of one ambient space have identical arrays.

EchelonAccumulator(p, n, grades) splits GF(p)^n into `grades` blocks of
width m = n / grades and keeps one reduced row-echelon basis per block,
as the lower Lie chain of lienil.oracle needs: its terms are direct sums
of one subspace per coset of G'.  The bases are one (grades, m, m)
stack, and every step runs on the whole stack at once, so the number of
numpy calls does not grow with the number of grades, while the flops are
about `grades` times fewer than for one basis of width n.  Rows go in
and out as layers (to_layers), one row of each grade side by side.  With
one grade, the default, a layer is a row and the basis is the RREF of
every row fed; each step of the upper Lie chain, which works in F_p[G']
alone, is one block fed to one such accumulator of width |G'|.

All products go through float64 BLAS, exact because every partial sum
stays below 2**53.  An accumulator therefore refuses fields and widths
with ``(p-1)^2 * m + p >= 2**53``; a p-group algebra has n >= p, so that
happens only for m above 2 * 10^5, far beyond any dense table.
"""

from __future__ import annotations

import numpy as np

_FLOAT_EXACT_LIMIT = 2**53


def _residues(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for a float64 array of integers x with |x| + p <= 2**53,
    as x - p * floor(x / p).  The quotient is correctly rounded, and for
    x = np + r with 0 < r < p it stays within r/p >= 1/p of n, more than
    half a unit in its last place, so the floor is exact, and so is
    p * floor(x / p), of magnitude below |x| + p.  Every entry the
    elimination reduces is below (p-1)^2 * m + p in magnitude.  This runs
    several times faster than np.mod on float64."""
    q = x / p
    np.floor(q, out=q)
    q *= -p
    q += x
    return q


def _inverses(units: np.ndarray, p: int) -> np.ndarray:
    """u^(p-2) mod p for each entry of an int64 array of residues, p > 2:
    the inverse of every unit, and 0 for 0.  Square and multiply in
    int64, exact while p < 2**31."""
    result = np.ones_like(units)
    base, e = units, p - 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result.astype(np.float64)


def to_layers(square: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of a (k, m, m) square stack chosen by a (k, m) mask, as
    int64 layers: layer j is one row of length k*m holding row j of every
    grade side by side, grade c in columns c*m to c*m + m.  Layers in
    which no row is chosen are left out."""
    k, m, _ = square.shape
    chosen = rows.any(axis=0)
    if not chosen.any():
        return np.zeros((0, k * m), dtype=np.int64)
    picked = square[:, chosen] * rows[:, chosen, None]
    return picked.transpose(1, 0, 2).astype(np.int64, order="C").reshape(-1, k * m)


class EchelonAccumulator:
    """Growable RREF bases of the grades of GF(p)^n: feed rows, keep one
    canonical echelon basis per grade.

    Grade c is columns c*m to c*m + m, m = n / grades.  The accumulator
    holds the span of the grade-c pieces of every row fed, for each c;
    after any sequence of blocks each basis is the RREF of those pieces,
    whatever their order and grouping.  With one grade it is the RREF of
    the rows fed.  p must be prime.

    Grade c's basis is held in square form: row j of `square[c]` is the
    basis row whose pivot is column j, or zero when j is no pivot.  Then
    v - v @ square[c] is v reduced against grade c's basis: at a pivot j
    it subtracts v_j times the row with its leading 1 at j, and no other
    basis row is nonzero at j.  Entries are float64 residues and every
    product goes through BLAS, exact because (p-1)^2 * m + p < 2**53.

    add_block() reduces a stack of new rows with one product, then
    eliminates what is left in rounds, all grades at once.  Each round
    takes one row per distinct (grade, leading column) and scales it to
    a leading 1.  The products of a round run only over the union C of
    the leading columns taken in any grade.  On C the chosen rows are
    unit upper triangular, so (I + N)(I + N^2)... with N their strictly
    upper part, negated, turns them into their RREF, the rows `new`.
    Then square - square[:, C] @ new clears the old rows at the new
    pivots, the new rows go in at their pivots, and x - x[:, C] @ new is
    the rest of the stack reduced against the grown bases; the chosen
    rows vanish in it.  A round that takes every row left is the last.
    The RREF of a span is unique, so the bases do not depend on which
    rows a round chooses.
    """

    def __init__(self, p: int, ambient_dim: int, grades: int = 1):
        width, rest = divmod(ambient_dim, grades)
        if rest:
            raise ValueError(f"{grades} grades do not divide dimension {ambient_dim}")
        if (p - 1) ** 2 * width + p >= _FLOAT_EXACT_LIMIT:
            raise ValueError(f"GF({p}) elimination in width {width} "
                             "needs (p-1)^2 * width + p < 2**53")
        self.p = p
        self.ambient_dim = ambient_dim
        self._shape = (grades, width)
        # allocated by the first use: a width near the limit fits no memory
        self._square: np.ndarray | None = None
        self._pivots: np.ndarray | None = None
        self._basis: np.ndarray | None = None

    def _bases(self) -> tuple[np.ndarray, np.ndarray]:
        """The square form of the bases and its (grades, m) pivot mask."""
        if self._square is None:
            k, m = self._shape
            self._square = np.zeros((k, m, m))
            self._pivots = np.zeros((k, m), dtype=bool)
        return self._square, self._pivots

    @property
    def dim(self) -> int:
        return 0 if self._pivots is None else int(self._pivots.sum())

    @property
    def square(self) -> np.ndarray:
        """The (grades, m, m) square form of the bases, read-only.

        add_block replaces the array and never writes into it, so a
        square taken earlier keeps its value.
        """
        square, _ = self._bases()
        square.setflags(write=False)
        return square

    @property
    def basis(self) -> np.ndarray:
        """Every basis row, as read-only int64 layers (see to_layers); with
        one grade, the RREF rows in pivot order.

        add_block replaces the array and never writes into it, so a
        basis taken earlier keeps its value.
        """
        if self._basis is None:
            if self._square is None:
                self._basis = np.zeros((0, self.ambient_dim), dtype=np.int64)
            else:
                self._basis = to_layers(self._square, self._pivots)
            self._basis.setflags(write=False)
        return self._basis

    def add_block(self, block) -> np.ndarray:
        """Add an (r, n) block of integers, or one row; return the rows new
        to the bases, as int64 layers, empty when the block adds nothing."""
        p = self.p
        (k, m), (square, pivots) = self._shape, self._bases()
        blk = np.asarray(block)
        # Blocks of residues, the usual input, skip the full-size np.mod.
        if blk.size and (blk.min() < 0 or blk.max() >= p):
            blk = np.mod(blk, p)
        x = blk.reshape(-1, k, m).transpose(1, 0, 2).astype(np.float64)
        if pivots.any():
            x = _residues(x - x @ square, p)
        if not x.any():
            return np.zeros((0, k * m), dtype=np.int64)
        fresh = np.zeros((k, m), dtype=bool)
        grade = np.arange(k)[:, None]
        while True:
            nonzero = x != 0
            live = nonzero.any(axis=2)
            rows = live.any(axis=0)
            if not rows.any():
                break
            if not rows.all():
                x, nonzero, live = x[:, rows], nonzero[:, rows], live[:, rows]
            lead = np.where(live, nonzero.argmax(axis=2), m)
            # any one row per (grade, leading column) serves: which of the
            # indices written to a slot lands there does not matter
            pick = np.full((k, m + 1), -1)
            pick[grade, lead] = np.arange(x.shape[1])
            cols = np.flatnonzero((pick[:, :m] >= 0).any(axis=0))
            pick = pick[:, cols]
            chosen = pick >= 0
            new = x[grade, pick] * chosen[:, :, None]
            if p > 2:
                heads = new[:, np.arange(len(cols)), cols].astype(np.int64)
                new = _residues(new * _inverses(heads, p)[:, :, None], p)
            # minus the strictly upper part on the chosen columns
            nil = _residues((np.eye(len(cols)) - new[:, :, cols]) * chosen[:, None, :], p)
            while nil.any():
                new = _residues(new + nil @ new, p)
                nil = _residues(nil @ nil, p)
            square = _residues(square - square[:, :, cols] @ new, p)
            square[:, cols] += new
            fresh[:, cols] |= chosen
            if chosen.sum() == live.sum():
                break
            x = _residues(x - x[:, :, cols] @ new, p)
        self._square, self._pivots, self._basis = square, pivots | fresh, None
        return to_layers(square, fresh)
