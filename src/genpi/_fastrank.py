"""Fast exact rank of large integer matrices.

Maintains a fully reduced integer row echelon basis and reduces incoming
rows in batches.  Batch reduction against unit pivots is a single matrix
product, done in float64 when a rigorous magnitude bound certifies every
intermediate value is an exactly representable integer (< 2^53), else in
int64 (< 2^62).  If a bound cannot be certified, IntOverflow is raised and
the caller reruns the computation through the pure rational path, so exact
results are guaranteed either way.  Pivoting is first-nonzero in column
order and rows are consumed in caller order, so results are deterministic.
"""

from __future__ import annotations

import numpy as np

_F53 = 1 << 53
_I62 = 1 << 62


class IntOverflow(Exception):
    """Raised when a guarded integer bound cannot be certified."""


_GROWTH_LIMIT = 1 << 20


def _gcd_normalize(B: np.ndarray, force: bool = False) -> np.ndarray:
    """Divide each row by the gcd of its entries (sign untouched).  Only
    worth the scan once entries actually grow, unless forced."""
    if B.size == 0:
        return B
    if not force and int(np.abs(B).max(initial=0)) < _GROWTH_LIMIT:
        return B
    g = np.gcd.reduce(np.abs(B), axis=1)
    g[g == 0] = 1
    if (g > 1).any():
        B = B // g[:, None]
    return B


class FastIntRowSpace:
    """Incremental row space of vectors in Z^ncols; rank over Q."""

    def __init__(self, ncols: int, target_rank: int | None = None):
        self.ncols = ncols
        self.target_rank = target_rank
        self._cap = 64
        self._P = np.zeros((self._cap, ncols), dtype=np.int64)
        self._rowmax = np.zeros(self._cap, dtype=np.int64)
        self._r = 0
        self.pivcols: list[int] = []
        self._pivvals: list[int] = []
        self._pivindex: dict[int, int] = {}
        self._free_cache = None
        self._free_cache_rank = -1

    @property
    def rank(self) -> int:
        return self._r

    @property
    def saturated(self) -> bool:
        return self.target_rank is not None and self._r >= self.target_rank

    def basis_rows(self) -> np.ndarray:
        return self._P[: self._r].copy()

    def _max_p(self) -> int:
        return int(self._rowmax[: self._r].max(initial=0))

    def _grow(self, need: int):
        if need <= self._cap:
            return
        cap = self._cap
        while cap < need:
            cap *= 2
        P = np.zeros((cap, self.ncols), dtype=np.int64)
        P[: self._r] = self._P[: self._r]
        rm = np.zeros(cap, dtype=np.int64)
        rm[: self._r] = self._rowmax[: self._r]
        self._P, self._rowmax, self._cap = P, rm, cap

    def reduce_rows(self, B: np.ndarray) -> np.ndarray:
        """Reduce rows against the basis (rows may come back scaled by a
        positive integer; zero rows mean membership in the span)."""
        B = np.ascontiguousarray(B, dtype=np.int64)
        if B.ndim == 1:
            B = B[None, :]
        if self._r == 0 or B.size == 0 or not B.any():
            return B
        maxP = self._max_p()
        # non-unit pivots first, one at a time (rare in practice)
        for i in range(self._r):
            d = self._pivvals[i]
            if d == 1:
                continue
            col = B[:, self.pivcols[i]]
            if not col.any():
                continue
            maxB = int(np.abs(B).max(initial=0))
            if maxB * d + maxB * maxP >= _I62:
                raise IntOverflow
            B = B * d - np.outer(col, self._P[i])
            B = _gcd_normalize(B)
        unit = [i for i in range(self._r) if self._pivvals[i] == 1]
        if unit:
            idx = np.array(unit, dtype=np.intp)
            cols = np.array([self.pivcols[i] for i in unit], dtype=np.intp)
            C = B[:, cols]
            if C.any():
                maxB = int(np.abs(B).max(initial=0))
                bound = maxB + maxB * len(unit) * max(maxP, 1)
                # the basis is fully reduced: its rows are supported on the
                # own pivot column plus non-pivot columns only, so the
                # update lives entirely in the non-pivot block
                free = self._free_cols()
                Pfree = self._P[idx][:, free]
                if bound < _F53:
                    Bf = B[:, free].astype(np.float64)
                    Bf -= C.astype(np.float64) @ Pfree.astype(np.float64)
                    out = np.zeros_like(B)
                    out[:, free] = Bf.astype(np.int64)
                    B = out
                elif bound < _I62:
                    out = np.zeros_like(B)
                    out[:, free] = B[:, free] - C @ Pfree
                    B = out
                else:
                    raise IntOverflow
                B = _gcd_normalize(B)
        return B

    def contains_row(self, row: dict) -> bool:
        """Membership of the integer row {col: value} in the span; raises
        OverflowError when an entry does not fit int64."""
        vec = np.zeros((1, self.ncols), dtype=np.int64)
        vec[0, list(row)] = list(row.values())
        return not self.reduce_rows(vec).any()

    def _free_cols(self) -> np.ndarray:
        if self._free_cache is None or self._free_cache_rank != self._r:
            mask = np.ones(self.ncols, dtype=bool)
            if self.pivcols:
                mask[np.array(self.pivcols, dtype=np.intp)] = False
            self._free_cache = np.nonzero(mask)[0]
            self._free_cache_rank = self._r
        return self._free_cache

    def _reduce_single(self, row: np.ndarray) -> np.ndarray:
        """Fully reduce one row (needed after in-batch pivot insertions)."""
        while True:
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                return row
            hit = next((c for c in nz.tolist() if c in self._pivindex), None)
            if hit is None:
                return row
            i = self._pivindex[hit]
            d = self._pivvals[i]
            b = int(row[hit])
            maxr = int(np.abs(row).max())
            if maxr * d + abs(b) * max(int(self._rowmax[i]), 1) >= _I62:
                raise IntOverflow
            if d == 1:
                row = row - b * self._P[i]
            else:
                row = row * d - b * self._P[i]
            nzv = row[row != 0]
            if nzv.size:
                g = int(np.gcd.reduce(np.abs(nzv)))
                if g > 1:
                    row = row // g

    def _insert_row(self, row: np.ndarray):
        nz = np.nonzero(row)[0]
        c = int(nz[0])
        if row[c] < 0:
            row = -row
        self._grow(self._r + 1)
        # clear column c from existing rows to keep the basis fully reduced
        d = int(row[c])
        rowmax = int(np.abs(row).max())
        col = self._P[: self._r, c]
        touched = np.nonzero(col)[0]
        if touched.size:
            maxP = self._max_p()
            if maxP * d + maxP * rowmax >= _I62:
                raise IntOverflow
            sub = self._P[touched]
            if d == 1:
                sub = sub - np.outer(sub[:, c], row)
            else:
                sub = sub * d - np.outer(sub[:, c], row)
            sub = _gcd_normalize(sub)
            self._P[touched] = sub
            self._rowmax[touched] = np.abs(sub).max(axis=1)
            for j in touched.tolist():
                self._pivvals[j] = int(self._P[j, self.pivcols[j]])
        i = self._r
        self._P[i] = row
        self._rowmax[i] = rowmax
        self.pivcols.append(c)
        self._pivvals.append(d)
        self._pivindex[c] = i
        self._r += 1

    def add_rows(self, B: np.ndarray) -> int:
        """Feed rows in order; returns the number of new pivots."""
        B = self.reduce_rows(B)
        added = 0
        before = self._r
        for i in range(B.shape[0]):
            row = B[i]
            if self._r > before:
                row = self._reduce_single(row.copy())
            if not row.any():
                continue
            self._insert_row(row.copy())
            added += 1
            if self.saturated:
                break
        return added
