"""Exact rational linear algebra: matrices, rank, kernels, subspace arithmetic.

Everything here runs on the one exact elimination of the package,
FastIntRowSpace (_fastrank.py): rational rows are scaled to integer rows,
and ranks, memberships, canonical bases, kernels and solutions are read off
its reduced row echelon form, so no rational arithmetic happens during
elimination.  Pivoting is deterministic (first nonzero entry in column
order), hence every derived object is reproducible bit for bit.

Subspaces are stored in reduced row echelon form with leading entries 1, so
equal subspaces compare equal structurally.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm

import numpy as np

from ._fastrank import FastIntRowSpace
from .errors import DimensionMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def int_rows(vectors, ncols: int) -> np.ndarray:
    """Integer rows: row i is vectors[i], a sequence or a {col: value} dict
    of rationals, times a positive rational.  int64 when every entry fits,
    else Python integers (an object array)."""
    rows = []
    for v in vectors:
        items = v.items() if isinstance(v, dict) else enumerate(v)
        items = [(c, x if isinstance(x, int) else rat(x)) for c, x in items]
        items = [(c, x) for c, x in items if x]
        den = lcm(*(x.denominator for _, x in items))
        rows.append(([c for c, _ in items], [x.numerator * (den // x.denominator) for _, x in items]))
    big = any(abs(x) >> 63 for _, vals in rows for x in vals)
    out = np.zeros((len(rows), ncols), dtype=object if big else np.int64)
    for i, (cols, vals) in enumerate(rows):
        out[i, cols] = vals
    return out


def _row_space(vectors, ncols: int) -> FastIntRowSpace:
    """The exact row space of rational vectors (see int_rows)."""
    space = FastIntRowSpace(ncols)
    it = iter(vectors)
    while chunk := list(islice(it, 256)):
        space.add_rows(int_rows(chunk, ncols))
    return space


def _rref_basis(space: FastIntRowSpace, start: int = 0) -> tuple:
    """The RREF rows of space whose pivot is at column start or later, as
    tuples of Fractions over columns start, start + 1, ..."""
    out = []
    pivots, rows = space.rref()
    for p, row in zip(pivots.tolist(), rows.tolist()):
        if p >= start:
            out.append(tuple(Fraction(v, row[p]) if v else _ZERO for v in row[start:]))
    return tuple(out)


def reversed_kernel(space: FastIntRowSpace, scales=None) -> "Subspace":
    """Canonical basis of the x in Q^n with sum_j row[n - 1 - j] x_j = 0 for
    every row of space: space holds the constraints with their entries in
    reversed order.

    In reversed coordinates each free position f gives the kernel vector
    e_f - sum_k (B[k, f] / B[k, p_k]) e_{p_k}, with p_k < f at every nonzero
    term.  Back in the original order (position j is n - 1 - j) its leading
    entry is that 1 and its other entries sit at pivots, where every other
    such vector is zero: the vectors already are the RREF basis.  With
    scales, the basis is that of the kernel's image under
    x_j -> scales[j] * x_j, with leading entries 1."""
    n = space.ncols
    pivots, rows = space.rref()
    pivots = pivots.tolist()
    lead = [rows[k, p] for k, p in enumerate(pivots)]
    columns = rows.T.tolist()
    basis = []
    for f in sorted(set(range(n)) - set(pivots), reverse=True):
        vec = [_ZERO] * n
        vec[n - 1 - f] = _ONE
        for k, b in enumerate(columns[f]):
            if b:
                i, c = n - 1 - pivots[k], Fraction(-b, lead[k])
                vec[i] = c if scales is None else c * scales[i] / scales[n - 1 - f]
        basis.append(tuple(vec))
    return Subspace(n, tuple(basis))


class Subspace:
    """A subspace of Q^n held as a canonical reduced-echelon basis.

    Two Subspace objects are equal iff they are the same subspace: the
    stored basis is the unique RREF basis (leading entries 1, zeros above
    and below pivots, pivot columns increasing).
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: tuple):
        self.ambient_dim = ambient_dim
        self.basis = basis  # tuple of tuples of Fraction, canonical

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
    def from_space(cls, space: FastIntRowSpace) -> "Subspace":
        return cls(space.ncols, _rref_basis(space))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(
            ambient_dim,
            [[1 if i == j else 0 for j in range(ambient_dim)] for i in range(ambient_dim)],
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the rows of RREF[U|U; V|0] with zero left block are the
        canonical basis of the intersection in the right block."""
        self._check_ambient(other)
        n = self.ambient_dim
        rows = [list(v) + list(v) for v in self.basis] + [list(v) + [_ZERO] * n for v in other.basis]
        return Subspace(n, _rref_basis(_row_space(rows, 2 * n), n))

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(v) for v in other.basis)

    def coordinates(self, vec) -> list[Fraction] | None:
        """Coefficients of vec in the canonical basis, or None when vec is
        not in the subspace.  Read off the RREF: the coefficient of a basis
        vector is the entry of vec at its pivot."""
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(vec)} in ambient dimension {self.ambient_dim}"
            )
        rest = [rat(x) for x in vec]
        coords = []
        for b in self.basis:
            c = rest[next(i for i, x in enumerate(b) if x)]
            coords.append(c)
            if c:
                rest = [x - c * y for x, y in zip(rest, b)]
        return None if any(rest) else coords

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
    raise ValueError(f"unknown subspace operation {kind!r}")


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
