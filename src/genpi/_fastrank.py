"""Blocked exact elimination of dense integer rows: the row space over Q.

FastIntRowSpace holds the reduced row echelon form of the rows fed so far
as integer rows: basis row k has its pivot value d_k > 0 at its pivot
column, zeros at every other pivot column and coprime entries, so the
RREF row is that row divided by d_k.  Pivoting is first nonzero in column
order and rows are taken in caller order, so every result is deterministic
and the RREF is the canonical one.  It serves the dense rows, evaluation
rows above all; sparse rows whose basis stays sparse go to
SparseIntRowSpace (_sparserank.py), which holds the same canonical form.

Rows are fed in blocks of BLOCK rows, and a block joins the basis at once.
It is reduced against the basis by one product: with L the lcm of the pivot
values it hits, each row b becomes L*b - sum_k b[p_k] (L/d_k) B_k, which
vanishes at every pivot.  The block is then brought to its own
fraction-free reduced echelon form over the free columns, rows in order and
columns in column order, so each new pivot is the first nonzero of its row
once the earlier new pivots are cleared from it, as if the rows came one
at a time; its k rows Y are primitive with pivot values e_j > 0.  The basis
rows that hit the new pivots P are cleared by one product per chunk of
rows: with L the lcm of the e_j the chunk hits, each row b becomes
L*b - (b[P] L/e) @ Y, made primitive.  A chunk has at most BLOCK rows or
_CLEAR_BYTES per temporary, whichever is more.  One exchange over the at
most 2k positions involved then moves the new pivots next to the old ones,
and Y joins the basis.

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
_CLEAR_BYTES = 1 << 21  # one temporary of the clearing product


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

    def _reduce(self, X: np.ndarray) -> np.ndarray:
        """Rows X (physical order) reduced against the basis: zero at every
        pivot, each a positive multiple of its remainder modulo the span."""
        r = self._r
        C = X[:, :r]
        hit = C.any(axis=0)
        if not hit.any():
            return X
        d = np.diagonal(self._B[:r, :r])
        dh = d[hit]
        L = lcm(*{int(v) for v in dh[dh != 1].tolist()})
        if not self.exact:
            # |L b - sum_k b[p_k] (L/d_k) B_k| <= L |b| + sum_k |b[p_k]| (L/d_k) max|B_k|
            bound = L
            if L < _LIMIT:
                bound = L * np.abs(X).max() + (np.abs(C) @ (self._rowmax[:r] * (L // d))).max()
            X, C = self._exact_if(bound, X, C)
            d = np.diagonal(self._B[:r, :r])
        D = C if L == 1 else C * (L // d)
        out = np.zeros_like(X)
        out[:, r:] = (X[:, r:] if L == 1 else L * X[:, r:]) - D @ self._B[:r, r:]
        return out

    def reduce_rows(self, B) -> np.ndarray:
        """Rows of B reduced against the basis and made primitive, in column
        order and the number type of the basis; a row comes back zero iff it
        lies in the span."""
        X = self._load(B)
        if self._r and X.size:
            X = self._reduce(X)
        out = np.empty_like(X)
        out[:, self._col] = _primitive(X)
        return out

    def _echelon(self, X: np.ndarray):
        """(Y, P) for a block X that is zero at every pivot: its rows in
        reduced echelon form over the free positions r.., one row per new
        pivot, or None when X adds none.  Rows are taken in order and the
        free columns in column order, so new pivot j is the first nonzero
        of the j-th independent row once the earlier ones are cleared from
        it; it sits at physical position P[j].  Each row of Y is primitive,
        positive at its pivot and zero at the other new pivots."""
        r = self._r
        cols = r + X[:, r:].any(axis=0).nonzero()[0]
        if not cols.size:
            return None
        cols = cols[np.argsort(self._col[cols])]
        Z = X[:, cols]
        top = np.abs(Z).max()  # bounds every |entry| of Z
        rows, piv = [], []
        for i in Z.any(axis=1).nonzero()[0].tolist():
            z = Z[i]
            nz = z.nonzero()[0]
            if not nz.size:
                continue
            p = int(nz[0])
            if abs(z[p]) != 1:
                z[:] = _primitive(Z[i : i + 1])[0]
            if z[p] < 0:
                z *= -1
            c = Z[:, p].copy()
            c[i] = 0
            if c.any():
                # |a z_h - c_h z| <= a |z_h| + |c_h| |z| <= (a + top) top
                a = z[p]
                bound = (a + top) * top
                if not self.exact and bound >= _LIMIT:
                    bound = a * np.abs(Z[c != 0]).max() + np.abs(c).max() * np.abs(z).max()
                    Z, c = self._exact_if(bound, Z, c)
                    z, a = Z[i], Z[i, p]
                if a == 1:
                    Z -= c[:, None] * z
                else:  # scale only the rows that change
                    hit = np.flatnonzero(c)
                    Z[hit] = a * Z[hit] - c[hit, None] * z
                top = max(top, bound)
                if top >= _GROWTH:
                    Z = _primitive(Z)
                    top = np.abs(Z).max()
            rows.append(i)
            piv.append(p)
        if not rows:
            return None
        Zp = Z[rows]
        if (Zp[np.arange(len(rows)), piv] != 1).any():
            Zp = _primitive(Zp)
        Y = np.zeros((len(rows), self.ncols), dtype=Z.dtype)
        Y[:, cols] = Zp
        return Y, cols[piv]

    def _place(self, Y: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Clear the new pivots, at physical positions P of the rows Y, from
        the basis (_clear), and move them to positions r..r+k-1 by one
        exchange over the at most 2k positions involved, in the layout, the
        basis and Y.  Returns Y, in the number type of the basis."""
        r, k, P = self._r, len(P), P.tolist()
        dst = np.array([*range(r, r + k), *(p for p in P if p >= r + k)])
        src = np.array([*P, *sorted(set(range(r, r + k)).difference(P))])
        S = np.take(self._B[:r], src, axis=1)
        touched = S[:, :k].any(axis=1)
        # position r+j takes the column at P[j], and a position of P past
        # r+k-1 a column of r..r+k-1 that P does not hold: a basis row that
        # is zero at P (untouched) is zero at r..r+k-1 after the exchange,
        # and the touched rows are exchanged in _clear
        moved = np.flatnonzero(~touched & S[:, k:].any(axis=1))
        if moved.size:
            self._B[moved[:, None], dst[k:]] = S[moved, k:]
            self._B[moved, r : r + k] = 0
        Y = self._clear(Y, np.flatnonzero(touched), dst - r, src - r)
        for M in (self._col, Y.T):
            M[dst] = M[src]
        return Y

    def _clear(self, Y: np.ndarray, touched: np.ndarray, dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        """Clear the new pivots, at free positions P = src[:k] (counted from
        r) of the rows Y, from the touched basis rows, and move their free
        positions src to dst.  With L the lcm of the pivot values e a chunk
        of rows hits, each row b becomes L*b - (b[P] L/e) @ Y, made
        primitive; a chunk has at most BLOCK rows or _CLEAR_BYTES per
        temporary, whichever is more.  Returns Y, in the number type of the
        basis."""
        r, k = self._r, len(Y)
        if not touched.size:
            return Y
        P = src[:k]
        e = Y[np.arange(k), r + P]
        ymax = None if self.exact else np.abs(Y).max(axis=1)
        size = max(BLOCK, _CLEAR_BYTES // (8 * (self.ncols - r)))
        for start in range(0, touched.size, size):
            t = touched[start : start + size]
            T = self._B[t, r:]
            C = T[:, P]
            L = lcm(*{int(v) for v in e[C.any(axis=0)].tolist() if v != 1})
            if not self.exact:
                # |L b - sum_j b[P_j] (L/e_j) Y_j| <= L |b| + sum_j |b[P_j]| (L/e_j) max|Y_j|
                bound = L
                if L < _LIMIT:
                    bound = L * self._rowmax[t].max() + (np.abs(C) @ ((L // e) * ymax)).max()
                T, C, Y = self._exact_if(bound, T, C, Y)
                e = Y[np.arange(k), r + P]
            if L != 1:
                T *= L
            T -= (C * (L // e)) @ Y[:, r:]
            T[:, dst] = T[:, src]
            d = self._B[t, t] * L
            grown = d > 1
            if grown.any():
                G = _primitive(np.column_stack([d[grown], T[grown]]))
                d[grown], T[grown] = G[:, 0], G[:, 1:]
            self._B[t, r:] = T
            self._B[t, t] = d
            if not self.exact:
                self._rowmax[t] = np.maximum(d, np.abs(T).max(axis=1))
        return Y

    def _append(self, Y: np.ndarray):
        """Make the rows Y, with their pivots at positions r..r+k-1 and
        cleared from the basis, the next basis rows."""
        r, k = self._r, len(Y)
        if r + k > len(self._B):  # the rank never exceeds ncols
            cap = min(2 * len(self._B), self.ncols)
            B, self._B = self._B, np.zeros((cap, self.ncols), self._B.dtype)
            self._B[:r] = B[:r]
            rowmax, self._rowmax = self._rowmax, np.zeros(cap)
            self._rowmax[:r] = rowmax[:r]
        self._B[r : r + k] = Y
        if not self.exact:
            self._rowmax[r : r + k] = np.abs(Y).max(axis=1)
        self._r += k

    def add_rows(self, B) -> int:
        """Feed rows in order, BLOCK at a time; returns the number of new
        pivots.  A block is reduced against the basis (_reduce) and brought
        to its own reduced echelon form (_echelon); its new pivots are
        cleared from the basis and moved next to the old ones (_place), and
        its rows join the basis (_append)."""
        B = np.asarray(B)
        B = B[None, :] if B.ndim == 1 else B
        before = self._r
        for start in range(0, B.shape[0], BLOCK):
            new = self._echelon(self._reduce(self._load(B[start : start + BLOCK])))
            if new is not None:
                self._append(self._place(*new))
        return self._r - before

    def rref(self):
        """(pivot columns ascending, integer rows in column order): the RREF
        row with pivot pivots[k] is rows[k] / rows[k, pivots[k]].  Rows are
        int64 in float mode and Python integers once exact, copied BLOCK
        rows at a time, so no float64 copy of the basis is made."""
        r = self._r
        order = np.argsort(self._col[:r])
        rows = np.empty((r, self.ncols), dtype=object if self.exact else np.int64)
        for start in range(0, r, BLOCK):
            rows[start : start + BLOCK, self._col] = self._B[order[start : start + BLOCK]]
        return self._col[:r][order], rows

    @classmethod
    def from_rref(cls, pivots, rows) -> "FastIntRowSpace":
        """The space whose rref() is (pivots, rows), without elimination:
        rows are integer rows in column order, each primitive, positive at
        its pivot and zero at the other pivots, pivots ascending."""
        rows = np.asarray(rows)
        space = cls(rows.shape[1])
        r = len(pivots)
        free = np.ones(space.ncols, dtype=bool)
        free[pivots] = False
        space._col = np.concatenate([pivots, np.flatnonzero(free)]).astype(np.intp)
        X = rows[:, space._col]
        top = int(max(X.max(initial=0), -X.min(initial=0)))
        space._B = np.zeros((max(r, BLOCK), space.ncols), dtype=object if top >= _LIMIT else np.float64)
        space._B[:r] = X
        space._rowmax = np.zeros(len(space._B))
        if not space.exact:
            space._rowmax[:r] = np.abs(space._B[:r]).max(axis=1, initial=0)
        space._r = r
        return space
