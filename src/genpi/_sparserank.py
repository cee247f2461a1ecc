"""Exact elimination of sparse integer rows: the row space over Q.

SparseIntRowSpace holds the same canonical basis as FastIntRowSpace: one
integer row per pivot, the pivot its first nonzero, primitive, positive at
its pivot and zero at every other pivot, so rref() gives the same arrays.
It is meant for rows with few nonzeros whose basis stays sparse, as the
consequence spans of generating sets are (shifts of a few generators, like
the rows of a Macaulay matrix); on dense rows the blocked float64 products
of FastIntRowSpace are faster.  The consequence spans live in quotient
coordinates (codim._Quotient): one space per degree, fed row by row
(add_row), and remainder gives the exact normal forms that the rows of
the degree above are made of.

Rows go in and come out as {column: int} dicts of Python integers, so there
is no magnitude bound, no second number type and no dense row on the way;
dense_rows writes such rows out as an integer array, as rref() does with
the basis.  A row is reduced fraction-free, one pivot at a time,
v <- d_p v - v[p] B_p with d_p the pivot value of basis row B_p; as B_p is
zero at every other pivot, the pivots to clear are the ones where v is
nonzero on arrival.  A column index maps each non-pivot column to the
basis rows that are nonzero there: when a reduced row brings a new pivot,
it names the basis rows to clear of it, each by the same step.
"""

from __future__ import annotations

from math import gcd

import numpy as np

_INT64_LIMIT = 1 << 63


def _primitive(v: dict) -> dict:
    """v divided by the gcd of its entries (positive), in place; an empty v
    stays empty."""
    g = gcd(*v.values())
    if g != 1:
        for c in v:
            v[c] //= g
    return v


def dense_rows(rows, ncols: int, dtype=None) -> np.ndarray:
    """The {column: int} rows as one integer array of ncols columns: in
    dtype, by default int64 when every entry fits, else Python integers."""
    if dtype is None:
        dtype = np.int64 if _top(rows) < _INT64_LIMIT else object
    out = np.zeros((len(rows), ncols), dtype=dtype)
    for i, v in enumerate(rows):
        out[i, list(v)] = list(v.values())
    return out


def _top(rows) -> int:
    """The largest absolute entry of the dict rows (0 when there is none)."""
    return max((abs(x) for v in rows for x in v.values()), default=0)


class SparseIntRowSpace:
    """Incremental row space of sparse vectors in Z^ncols; rank over Q.
    Rows are fed one at a time (add_row) or in order (add_rows);
    reduce_rows tests membership, and remainder gives the exact remainder
    of a row modulo the span, with its scale."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict = {}  # pivot column -> basis row {column: int}
        self._index: dict = {}  # non-pivot column -> pivots of the rows nonzero there

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> np.ndarray:
        """The pivot columns, ascending."""
        return np.array(sorted(self._rows), dtype=np.intp)

    def _reduce(self, v: dict) -> dict:
        """v reduced against the basis, in place: zero at every pivot, a
        positive multiple of its remainder modulo the span."""
        rows = self._rows
        for p in [c for c in v if c in rows]:
            B, a = rows[p], v[p]
            d = B[p]
            if d != 1:
                for c in v:
                    v[c] *= d
            for c, x in B.items():
                y = v.get(c, 0) - a * x
                if y:
                    v[c] = y
                else:
                    del v[c]
        return v

    def add_row(self, v: dict) -> bool:
        """Feed one {column: int} row; whether it brought a new pivot.  The
        row is taken over: it is reduced in place, and if it brings a pivot
        it becomes a basis row."""
        v = self._reduce(v)
        if not v:
            return False
        p = min(v)
        e = v[p]
        if e < 0:
            for c in v:
                v[c] = -v[c]
            e = -e
        if e != 1:
            e = _primitive(v)[p]
        index = self._index
        for q in index.pop(p, ()):  # clear p from the rows nonzero there
            B = self._rows[q]
            b = B.pop(p)
            if e != 1:
                for c in B:
                    B[c] *= e
            for c, x in v.items():
                if c == p:
                    continue
                y = B.get(c, 0) - b * x
                if y:
                    if c not in B:
                        index.setdefault(c, set()).add(q)
                    B[c] = y
                else:
                    del B[c]
                    index[c].discard(q)
            if B[q] != 1:
                _primitive(B)
        for c in v:
            if c != p:
                index.setdefault(c, set()).add(p)
        self._rows[p] = v
        return True

    def add_rows(self, rows) -> int:
        """Feed {column: int} rows in order; returns the number of new
        pivots.  The rows are taken over: each is reduced in place, and one
        that brings a pivot becomes a basis row."""
        return sum(map(self.add_row, rows))

    def reduce_rows(self, rows) -> list:
        """Copies of the {column: int} rows reduced against the basis and
        made primitive; a row comes back empty iff it lies in the span."""
        return [_primitive(self._reduce(dict(v))) for v in rows]

    def remainder(self, v: dict):
        """(r, m): the remainder of the {column: int} row v modulo the
        span, the one vector of v + span that is zero at every pivot, is
        r / m, with r a {column: int} row and m a positive integer; v is
        not changed.  _reduce scales v by the pivot value d_p of each pivot
        p where v is nonzero on arrival and subtracts multiples of basis
        rows, so m is the product of those d_p."""
        m = 1
        for p in v:
            if p in self._rows:
                m *= self._rows[p][p]
        return self._reduce(dict(v)), m

    def rows(self) -> list:
        """The basis rows in pivot order, as the space's own {column: int}
        dicts: read them, do not change them."""
        return [self._rows[p] for p in sorted(self._rows)]

    def max_entry(self) -> int:
        """The largest absolute entry of the basis rows (0 when empty)."""
        return _top(self._rows.values())

    def rref(self, dtype=None):
        """(pivot columns ascending, integer rows in column order): the RREF
        row with pivot pivots[k] is rows[k] / rows[k, pivots[k]].  Rows are
        in dtype, by default int64 when every entry fits, else Python
        integers."""
        return self.pivots, dense_rows(self.rows(), self.ncols, dtype)
