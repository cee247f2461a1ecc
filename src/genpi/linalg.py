"""Exact rational linear algebra: matrices, rank, kernels, subspace arithmetic.

Everything here runs on the blocked exact elimination of the package,
FastIntRowSpace (_fastrank.py): rational rows are scaled to integer rows,
and ranks, memberships, canonical bases, kernels and solutions are read off
its reduced row echelon form, so no rational arithmetic happens during
elimination.  Pivoting is deterministic (first nonzero entry in column
order), hence every derived object is reproducible bit for bit.

Subspaces hold the integer form of their reduced row echelon form: the
pivot columns and one primitive integer row per pivot, positive at its
pivot and zero at every other pivot, so equal subspaces compare equal
structurally.  Rationals appear only at the edges: the Fraction basis,
leading entries 1, is made when a caller reads it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm

import numpy as np

from ._fastrank import FastIntRowSpace
from ._sparserank import SparseIntRowSpace, dense_rows
from .errors import DimensionMismatch, NotRational, UnknownOperation

_ZERO = Fraction(0)
_INT64_LIMIT = 1 << 63
_INT_TYPES = tuple(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64))


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ValueError:
            pass
    raise NotRational(f"not an exact rational: {x!r}")


def int_dict(v) -> dict:
    """v, a sequence or a {col: value} dict of rationals, times a positive
    rational, as the {col: int} dict of its nonzero entries: the lcm of the
    denominators clears them, and the values are Python integers."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    items = [(c, x if isinstance(x, int) else rat(x)) for c, x in items]
    items = [(c, x) for c, x in items if x]
    den = lcm(*(x.denominator for _, x in items))
    return {c: x.numerator * (den // x.denominator) for c, x in items}


def int_rows(vectors, ncols: int) -> np.ndarray:
    """Integer rows: row i is int_dict(vectors[i]) written out dense.
    int64 when every entry fits, else Python integers (an object array)."""
    return dense_rows([int_dict(v) for v in vectors], ncols)


def _int_type(top: int) -> np.dtype:
    """The narrowest of int8, int16, int32 and int64 that holds every
    integer of absolute value at most top; object past int64."""
    return next((t for t in _INT_TYPES if top <= np.iinfo(t).max), np.dtype(object))


def _narrowest(X: np.ndarray) -> np.ndarray:
    """Integer array X in the narrowest type that holds its entries
    (_int_type)."""
    top = int(max(X.max(initial=0), -X.min(initial=0)))
    return X.astype(_int_type(top), copy=False)


def _row_space(vectors, ncols: int) -> FastIntRowSpace:
    """The exact row space of rational vectors (see int_rows)."""
    space = FastIntRowSpace(ncols)
    it = iter(vectors)
    while chunk := list(islice(it, 256)):
        space.add_rows(int_rows(chunk, ncols))
    return space


def reversed_kernel(space: FastIntRowSpace, scales=None) -> "Subspace":
    """Canonical form of the x in Q^n with sum_j row[n - 1 - j] x_j = 0 for
    every row of space: space holds the constraints with their entries in
    reversed order.

    In reversed coordinates, with B the rows of the RREF of space, p_k
    their pivots, d_k = B[k, p_k] and L the lcm of the d_k, each free
    position f gives the kernel vector L e_f - sum_k B[k, f] (L/d_k)
    e_{p_k}, with p_k < f at every nonzero term.  Back in the original
    order (position j is n - 1 - j) its leading entry is that L and its
    other entries sit at pivots, where every other such vector is zero: made
    primitive, the vectors already are the canonical rows.  With scales,
    a pair (numerators, denominators) of positive integers, the subspace is
    the kernel's image under x_j -> (numerators[j] / denominators[j]) x_j:
    entry j is multiplied by the integer numerators[j] * D /
    denominators[j], D the lcm of the denominators.  Arithmetic is int64
    when a bound on every entry fits, else Python integers."""
    n = space.ncols
    pivots, B = space.rref()
    r = len(pivots)
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)[::-1]
    lead, at = n - 1 - free, n - 1 - pivots
    d = B[np.arange(r), pivots].tolist()
    L = lcm(*set(d))
    top = L * int(np.abs(B).max(initial=1))
    if scales is None:
        scale = np.ones(n, dtype=np.int64)
    else:
        num, den = (np.asarray(x) for x in scales)
        D = lcm(*set(den.tolist()))
        if int(num.max(initial=1)) * D >= _INT64_LIMIT:
            num, den = num.astype(object), den.astype(object)
        scale = num * (D // den)
        top *= int(scale.max(initial=1))
    dtype = np.int64 if top < _INT64_LIMIT else object
    B, scale = B.astype(dtype, copy=False), scale.astype(dtype, copy=False)
    V = np.empty((len(free), 1 + r), dtype=dtype)
    V[:, 0] = L * scale[lead]
    V[:, 1:] = -B[:, free].T * (np.array([L // x for x in d], dtype=dtype) * scale[at])
    V //= np.gcd.reduce(V, axis=1, keepdims=True)
    K = np.zeros((len(free), n), dtype=_int_type(top))
    K[np.arange(len(free)), lead] = V[:, 0]
    K[:, at] = V[:, 1:]
    return Subspace(n, lead, K)


class Subspace:
    """A subspace of Q^n held as the integer form of its reduced row
    echelon form.

    pivots are the pivot columns, ascending.  rows[k] is the RREF basis
    vector with pivot pivots[k] times a positive integer: primitive,
    positive at its pivot, zero at every other pivot, in the narrowest of
    int8, int16, int32 and int64 that holds every entry (Python integers
    past int64).  That form, its type included, depends on the subspace
    alone, so two Subspace objects are equal iff they are the same
    subspace.  The basis of Fractions (leading entries 1) is made only when
    a caller reads it.  The membership tests load the basis into a
    FastIntRowSpace once, on first use, and keep it.
    """

    __slots__ = ("ambient_dim", "pivots", "rows", "_loaded")

    def __init__(self, ambient_dim: int, pivots, rows):
        self.ambient_dim = ambient_dim
        self.pivots = np.asarray(pivots, dtype=np.intp)
        self.rows = _narrowest(np.asarray(rows))
        # equality and the hash read the arrays: they must not change
        self.pivots.flags.writeable = self.rows.flags.writeable = False
        self._loaded = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        return cls.from_space(_row_space(vectors, ambient_dim))

    @classmethod
    def from_space(cls, space) -> "Subspace":
        """The subspace a FastIntRowSpace or SparseIntRowSpace spans.  The
        sparse rows are written at once in the narrowest type, with no
        int64 copy of the basis."""
        if isinstance(space, SparseIntRowSpace):
            return cls(space.ncols, *space.rref(_int_type(space.max_entry())))
        return cls(space.ncols, *space.rref())

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), np.zeros((0, ambient_dim), dtype=np.int8))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, range(ambient_dim), np.eye(ambient_dim, dtype=np.int8))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def sparse_basis(self) -> list:
        """The canonical basis at its nonzero entries: one list of
        (column, Fraction) pairs per basis vector, columns ascending, the
        entry v of a row with pivot value d being Fraction(v, d).  One
        Fraction is made per distinct pair (v, d)."""
        flat = np.flatnonzero(self.rows)
        r, c = np.divmod(flat, self.ambient_dim)
        vals, cols = self.rows.ravel()[flat].tolist(), c.tolist()
        leads = self.rows[np.arange(self.dim), self.pivots].tolist()
        ends = np.searchsorted(r, np.arange(1, self.dim + 1)).tolist()
        made: dict = {}
        out, i = [], 0
        for d, end in zip(leads, ends):
            row = []
            for j in range(i, end):
                key = (vals[j], d)
                x = made.get(key)
                if x is None:
                    x = made[key] = Fraction(*key)
                row.append((cols[j], x))
            out.append(row)
            i = end
        return out

    @property
    def basis(self) -> tuple:
        """The canonical basis as tuples of Fractions: the RREF rows, with
        leading entries 1."""
        vec, out = [_ZERO] * self.ambient_dim, []
        for row in self.sparse_basis():
            for c, x in row:
                vec[c] = x
            out.append(tuple(vec))
            for c, _ in row:
                vec[c] = _ZERO
        return tuple(out)

    def _key(self):
        rows = tuple(self.rows.ravel().tolist()) if self.rows.dtype == object else self.rows.tobytes()
        return self.ambient_dim, self.pivots.tobytes(), rows

    def __eq__(self, other):
        return isinstance(other, Subspace) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def _space(self) -> FastIntRowSpace:
        return FastIntRowSpace.from_rref(self.pivots, self.rows)

    def _reducer(self) -> FastIntRowSpace:
        """The space of the basis, loaded on the first call and kept, for
        reduce_rows alone: a reduction leaves the span as it is, where
        add_rows (sum) needs a fresh load."""
        if self._loaded is None:
            self._loaded = self._space()
        return self._loaded

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        space = self._space()
        space.add_rows(other.rows)
        return Subspace.from_space(space)

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the rows of RREF[U|U; V|0] with zero left block are the
        canonical rows of the intersection in the right block."""
        self._check_ambient(other)
        n = self.ambient_dim
        U, V = self.rows, other.rows
        space = FastIntRowSpace(2 * n)
        space.add_rows(np.block([[U, U], [V, np.zeros_like(V)]]))
        pivots, rows = space.rref()
        keep = pivots >= n
        return Subspace(n, pivots[keep] - n, rows[keep, n:])

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not self._reducer().reduce_rows(other.rows).any()

    def coordinates(self, vec) -> list[Fraction] | None:
        """Coefficients of vec in the canonical basis, or None when vec is
        not in the subspace.  Read off the RREF: the coefficient of a basis
        vector is the entry of vec at its pivot."""
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(vec)} in ambient dimension {self.ambient_dim}"
            )
        if self._reducer().reduce_rows(int_rows([vec], self.ambient_dim)).any():
            return None
        return [rat(vec[p]) for p in self.pivots.tolist()]

    def contains_vector(self, vec) -> bool:
        return self.coordinates(vec) is not None


def subspace_ops(a: Subspace, b: Subspace, kind: str):
    """Dispatcher mirroring the subspace arithmetic surface: 'sum',
    'intersection' return a Subspace, 'contains' returns bool (b inside a)."""
    if kind == "sum":
        return a.sum(b)
    if kind == "intersection":
        return a.intersection(b)
    if kind == "contains":
        return a.contains(b)
    raise UnknownOperation(f"unknown subspace operation {kind!r}")


class RatMatrix:
    """An exact rational matrix held as sparse rows {col: Fraction}.

    Construction accepts ints, Fractions and 'p/q' strings.
    """

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows: int, ncols: int, rows: list[dict]):
        if nrows < 0 or ncols < 0:
            raise DimensionMismatch("negative matrix dimension")
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows  # list of {col: Fraction}, zero entries absent

    @classmethod
    def from_rows(cls, rows) -> "RatMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        data = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            data.append({j: rat(v) for j, v in enumerate(r) if rat(v) != 0})
        return cls(nrows, ncols, data)

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> "RatMatrix":
        data = [dict() for _ in range(nrows)]
        for i, j, v in entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise DimensionMismatch(f"entry ({i},{j}) outside {nrows}x{ncols}")
            if (w := rat(v)) != 0:
                if j in data[i]:
                    raise DimensionMismatch(f"duplicate entry at ({i},{j})")
                data[i][j] = w
        return cls(nrows, ncols, data)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [{i: Fraction(1)} for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RatMatrix":
        return cls(nrows, ncols, [dict() for _ in range(nrows)])

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i].get(j, Fraction(0))

    def row_dict(self, i: int) -> dict:
        return dict(self._rows[i])

    def iter_rows(self):
        for r in self._rows:
            yield r

    def to_lists(self) -> list[list[Fraction]]:
        return [
            [r.get(j, Fraction(0)) for j in range(self.ncols)] for r in self._rows
        ]

    def transpose(self) -> "RatMatrix":
        data = [dict() for _ in range(self.ncols)]
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                data[j][i] = v
        return RatMatrix(self.ncols, self.nrows, data)

    def matvec(self, vec) -> list[Fraction]:
        if len(vec) != self.ncols:
            raise DimensionMismatch("matvec length mismatch")
        vec = [rat(v) for v in vec]
        return [sum((v * vec[j] for j, v in r.items()), Fraction(0)) for r in self._rows]

    def vecmat(self, vec) -> list[Fraction]:
        if len(vec) != self.nrows:
            raise DimensionMismatch("vecmat length mismatch")
        out = [Fraction(0)] * self.ncols
        for i, r in enumerate(self._rows):
            c = rat(vec[i])
            if c:
                for j, v in r.items():
                    out[j] += c * v
        return out

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matmul shape mismatch")
        data = []
        for r in self._rows:
            acc: dict = {}
            for k, v in r.items():
                for j, w in other._rows[k].items():
                    acc[j] = acc.get(j, Fraction(0)) + v * w
            data.append({j: v for j, v in acc.items() if v != 0})
        return RatMatrix(self.nrows, other.ncols, data)

    def add(self, other: "RatMatrix") -> "RatMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("add shape mismatch")
        data = [dict(r) for r in self._rows]
        for out, r in zip(data, other._rows):
            for j, v in r.items():
                if s := out.get(j, _ZERO) + v:
                    out[j] = s
                else:
                    out.pop(j, None)
        return RatMatrix(self.nrows, self.ncols, data)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix(self.nrows, self.ncols, [{j: c * v for j, v in r.items()} if c else {} for r in self._rows])

    def flatten(self) -> list[Fraction]:
        """Row-major entry list of length nrows * ncols."""
        out = [_ZERO] * (self.nrows * self.ncols)
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                out[i * self.ncols + j] = v
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"RatMatrix({self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return all(not r for r in self._rows)

    def rank(self) -> int:
        return _row_space(self._rows, self.ncols).rank

    def left_kernel_basis(self) -> Subspace:
        """Canonical basis of {v : v . M = 0}; dim = nrows - rank."""
        return self.transpose().right_kernel_basis()

    def right_kernel_basis(self) -> Subspace:
        """Canonical basis of {x : M x = 0}; dim = ncols - rank."""
        n = self.ncols
        return reversed_kernel(_row_space(({n - 1 - j: v for j, v in r.items()} for r in self._rows), n))


def rank(m: RatMatrix) -> int:
    return m.rank()


def left_kernel_basis(m: RatMatrix) -> Subspace:
    return m.left_kernel_basis()


def solve_right(m: RatMatrix, target) -> list[Fraction] | None:
    """One solution x of M x = target, or None: the pivot solution read off
    RREF([M | target]), with the free unknowns zero; deterministic."""
    t = [rat(v) for v in target]
    if len(t) != m.nrows:
        raise DimensionMismatch("target length mismatch")
    n = m.ncols
    space = _row_space(({**r, n: v} for r, v in zip(m.iter_rows(), t)), n + 1)
    pivots, rows = space.rref()
    x = [_ZERO] * n
    for p, row in zip(pivots.tolist(), rows.tolist()):
        if p == n:
            return None
        x[p] = Fraction(row[n], row[p])
    return x
