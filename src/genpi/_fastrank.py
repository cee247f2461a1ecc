"""The one exact elimination of genpi: the row space over Q of integer rows.

FastIntRowSpace holds the reduced row echelon form of the rows fed so far
as integer rows: basis row k has its pivot value d_k > 0 at its pivot
column, zeros at every other pivot column and coprime entries, so the
RREF row is that row divided by d_k.  Pivoting is first nonzero in column
order and rows are taken in caller order, so every result is deterministic
and the RREF is the canonical one.

Rows are fed in blocks of BLOCK rows.  A block is reduced against the basis
by one product: with L the lcm of the pivot values it hits, each row b
becomes L*b - sum_k b[p_k] (L/d_k) B_k, which vanishes at every pivot.  Its
rows are then taken in order, one new pivot at a time: a nonzero row is made
primitive, clears its pivot column from the basis and from the later rows of
the block, and joins the basis.

Columns are held in a physical order with the pivot columns first, so the
part of the basis a product reads is one contiguous slice.  Arithmetic is
float64 while a magnitude bound certifies that every intermediate value is
an integer below 2^52 (so exactly representable, whatever the order of
summation); the first time a bound fails, the basis moves for good to
Python-integer object arrays and the elimination goes on there.  Either way
the result is exact.
"""

from __future__ import annotations

from math import lcm

import numpy as np

BLOCK = 16
_LIMIT = float(1 << 52)  # half of 2^53, a margin for the rounding of the bound itself
_GROWTH = 1 << 20  # rows of a block are made primitive again past this size


def _ints(X: np.ndarray) -> np.ndarray:
    """X as Python integers (an object array)."""
    return X if X.dtype == object else X.astype(np.int64).astype(object)


def _primitive(X: np.ndarray) -> np.ndarray:
    """X (2-D) with each row divided by the gcd of its entries."""
    Xi = X if X.dtype == object else X.astype(np.int64)
    g = np.gcd.reduce(np.abs(Xi), axis=1, keepdims=True)
    g[g == 0] = 1
    return (Xi // g).astype(X.dtype)


class FastIntRowSpace:
    """Incremental row space of vectors in Z^ncols; rank over Q."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._B = np.zeros((BLOCK, ncols))  # basis rows, physical column order
        self._rowmax = np.zeros(BLOCK)  # largest |entry| per basis row (float mode)
        self._col = np.arange(ncols)  # the column at each physical position
        self._r = 0

    @property
    def rank(self) -> int:
        return self._r

    @property
    def exact(self) -> bool:
        """Whether the basis has moved to Python integers."""
        return self._B.dtype == object

    @property
    def pivots(self) -> np.ndarray:
        """The pivot columns, one per basis row."""
        return self._col[: self._r]

    def _exact_if(self, bound, *arrays):
        """The arrays, moved with the basis to Python integers when bound is
        too large for float64."""
        if not self.exact and bound >= _LIMIT:
            self._B = _ints(self._B)
        return [_ints(X) for X in arrays] if self.exact else list(arrays)

    def _load(self, B) -> np.ndarray:
        """A 2-D copy of integer rows B (any integer or exact float dtype) in
        physical column order and the number type of the basis."""
        B = np.asarray(B)
        X = (B[None, :] if B.ndim == 1 else B)[:, self._col]
        if not X.size:
            return X.astype(self._B.dtype)
        (X,) = self._exact_if(np.abs(X).max(), X)
        return X if self.exact else X.astype(np.float64)

    def _reduce(self, X: np.ndarray, start: int = 0) -> np.ndarray:
        """Rows X (physical order), zero at the pivots of the basis rows
        before start, reduced against the basis rows from start on: zero at
        every pivot, each a positive multiple of its remainder modulo the
        span."""
        r = self._r
        C = X[:, start:r]
        hit = C.any(axis=0)
        if not hit.any():
            return X
        d = np.diagonal(self._B[start:r, start:r])
        dh = d[hit]
        L = lcm(*{int(v) for v in dh[dh != 1].tolist()})
        if not self.exact:
            # |L b - sum_k b[p_k] (L/d_k) B_k| <= L |b| + sum_k |b[p_k]| (L/d_k) max|B_k|
            bound = L
            if L < _LIMIT:
                bound = L * np.abs(X).max() + (np.abs(C) @ (self._rowmax[start:r] * (L // d))).max()
            X, C = self._exact_if(bound, X, C)
            d = np.diagonal(self._B[start:r, start:r])
        D = C if L == 1 else C * (L // d)
        out = np.zeros_like(X)
        out[:, r:] = (X[:, r:] if L == 1 else L * X[:, r:]) - D @ self._B[start:r, r:]
        return out

    def reduce_rows(self, B, start: int = 0) -> np.ndarray:
        """Rows of B reduced against the basis and made primitive, in column
        order and the number type of the basis; a row comes back zero iff it
        lies in the span.  Given start, the rows must be zero at the pivots
        of the first start basis rows, as rows reduced when the rank was
        start are (a basis row is zero at every other pivot), and only the
        later basis rows are read."""
        X = self._load(B)
        if self._r > start and X.size:
            X = self._reduce(X, start)
        out = np.empty_like(X)
        out[:, self._col] = _primitive(X)
        return out

    def _swap(self, X: np.ndarray, p: int, q: int):
        """Exchange physical positions p and q in the layout, the basis and X."""
        if p != q:
            for M in (self._col, X.T, self._B[: self._r].T):
                M[[p, q]] = M[[q, p]]

    def _insert(self, X: np.ndarray, i: int) -> np.ndarray:
        """Make reduced row X[i] a basis row: its first nonzero in column
        order becomes the pivot, at physical position r, and is cleared from
        the basis and from the later rows of X.  Returns X."""
        r = self._r
        nz = r + np.flatnonzero(X[i, r:])
        self._swap(X, r, int(nz[np.argmin(self._col[nz])]))
        v = X[i] if abs(X[i, r]) == 1 else _primitive(X[i : i + 1])[0]
        v = -v if v[r] < 0 else v
        a, vmax = v[r], np.abs(v).max()
        touched = np.flatnonzero(self._B[:r, r])
        later = i + 1 + np.flatnonzero(X[i + 1 :, r])
        Bt, Xl = self._B[touched], X[later]
        if not self.exact and (touched.size or later.size):
            size = max(self._rowmax[touched].max(initial=0), np.abs(Xl).max(initial=0))
            col = max(np.abs(Bt[:, r]).max(initial=0), np.abs(Xl[:, r]).max(initial=0))
            X, Bt, Xl, v = self._exact_if(a * size + vmax * col, X, Bt, Xl, v)
            a = v[r]
        if touched.size:
            c = Bt[:, r : r + 1].copy()
            if a != 1:
                Bt *= a
            Bt -= c * v
            grown = Bt[np.arange(touched.size), touched] > 1
            if grown.any():
                Bt[grown] = _primitive(Bt[grown])
            self._B[touched] = Bt
            if not self.exact:
                self._rowmax[touched] = np.abs(Bt).max(axis=1)
        if later.size:
            Xl = (Xl if a == 1 else a * Xl) - Xl[:, r : r + 1] * v
            X[later] = _primitive(Xl) if np.abs(Xl).max() >= _GROWTH else Xl
        if r == len(self._B):  # the rank never exceeds ncols
            cap = min(2 * r, self.ncols)
            B, self._B = self._B, np.zeros((cap, self.ncols), self._B.dtype)
            self._B[:r] = B
            rowmax, self._rowmax = self._rowmax, np.zeros(cap)
            self._rowmax[:r] = rowmax
        self._B[r] = v
        if not self.exact:
            self._rowmax[r] = vmax
        self._r += 1
        return X

    def add_rows(self, B) -> int:
        """Feed rows in order; returns the number of new pivots."""
        B = np.asarray(B)
        B = B[None, :] if B.ndim == 1 else B
        before = self._r
        for start in range(0, B.shape[0], BLOCK):
            X = self._load(B[start : start + BLOCK])
            if self._r:
                X = self._reduce(X)
            for i in range(X.shape[0]):
                if X[i, self._r :].any():
                    X = self._insert(X, i)
        return self._r - before

    def rref(self):
        """(pivot columns ascending, integer rows in column order): the RREF
        row with pivot pivots[k] is rows[k] / rows[k, pivots[k]]."""
        r = self._r
        order = np.argsort(self._col[:r])
        rows = np.empty((r, self.ncols), dtype=self._B.dtype)
        rows[:, self._col] = self._B[order]
        return self._col[:r][order], _ints(rows)
