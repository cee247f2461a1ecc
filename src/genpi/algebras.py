"""Finite-dimensional associative algebras given by structure constants.

An algebra is a labelled basis b_0..b_{d-1} with a sparse product table
b_i b_j = sum_k c_ijk b_k over exact rationals, plus an optional unit
vector.  Product tables may be given explicitly or as a rule computed on
demand (used by the larger Grassmann algebras, where the dense table would
dominate memory).

Associativity is checked on every basis triple at every dimension, by a
sparse join of the structure constants in chunks of bounded size; unit
axioms are checked on every basis element.

A linear operator on the algebra is a RatMatrix acting on coordinate
columns.  The regular operators L_a: x -> ax and R_a: x -> xa are read off
the product table (left_mult_matrix, right_mult_matrix), those of the basis
elements by basis_operators.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np

from ._fastrank import FastIntRowSpace
from .errors import (
    BadUnit,
    DimensionMismatch,
    NotAssociative,
    NotClosed,
    ParentMismatch,
    UnknownOperation,
    UnsupportedName,
)
from .linalg import RatMatrix, Subspace, int_rows, rat, solve_right

ASSOCIATIVITY_CHUNK = 1 << 20  # join terms held at once by the associativity check
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _join(keys, on):
    """Index pairs (t, u) with keys[t] == on[u], t ascending (keys nonempty)."""
    order = np.argsort(on, kind="stable")
    lo = np.searchsorted(on[order], keys, side="left")
    cnt = np.searchsorted(on[order], keys, side="right") - lo
    ends = np.cumsum(cnt)
    t = np.repeat(np.arange(keys.size), cnt)
    return t, order[np.repeat(lo - ends + cnt, cnt) + np.arange(ends[-1])]


class StructureAlgebra:
    """Associative algebra over Q with a distinguished basis."""

    def __init__(self, dim, labels, products, unit=None, *, validate=True, name=None):
        if dim < 0:
            raise DimensionMismatch("negative dimension")
        if len(labels) != dim:
            raise DimensionMismatch("label count != dim")
        self.dim = dim
        self.labels = list(labels)
        self.name = name
        if callable(products):
            self._rule = products
            self._table: dict = {}
        else:
            self._rule = None
            self._table = {}
            for (i, j), terms in products.items():
                terms = [(k, rat(v)) for k, v in terms]
                if not all(x in range(dim) for x in (i, j, *(k for k, _ in terms))):
                    raise DimensionMismatch(f"structure constant of b{i}*b{j} has an index outside range({dim})")
                if terms := tuple((k, v) for k, v in terms if v):
                    self._table[(i, j)] = terms
        self.unit = tuple(rat(x) for x in unit) if unit is not None else None
        if self.unit is not None and len(self.unit) != dim:
            raise DimensionMismatch("unit vector length != dim")
        if validate:
            self.validate()

    # -- products ----------------------------------------------------------

    def product_basis(self, i: int, j: int):
        """b_i * b_j as a tuple of (k, coeff) pairs."""
        key = (i, j)
        hit = self._table.get(key)
        if hit is None and self._rule is not None:
            hit = tuple((k, rat(v)) for k, v in self._rule(i, j) if rat(v) != 0)
            self._table[key] = hit
        return hit or ()

    def multiply_coords(self, u, v):
        out = [_ZERO] * self.dim
        for i, ci in enumerate(u):
            if ci == 0:
                continue
            for j, cj in enumerate(v):
                if cj == 0:
                    continue
                c = ci * cj
                for k, w in self.product_basis(i, j):
                    out[k] += c * w
        return out

    def iter_nonzero_constants(self):
        for i in range(self.dim):
            for j in range(self.dim):
                for k, v in self.product_basis(i, j):
                    yield i, j, k, v

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> "AlgElement":
        coords = tuple(rat(x) for x in coords)
        if len(coords) != self.dim:
            raise DimensionMismatch("coordinate length != dim")
        return AlgElement(self, coords)

    def basis_element(self, i: int) -> "AlgElement":
        return AlgElement(self, tuple(_ONE if k == i else _ZERO for k in range(self.dim)))

    def basis_elements(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self) -> "AlgElement":
        return AlgElement(self, (_ZERO,) * self.dim)

    def unit_element(self) -> "AlgElement":
        if self.unit is None:
            raise BadUnit(-1)
        return AlgElement(self, self.unit)

    def describe(self, coords) -> str:
        terms = []
        for i, c in enumerate(coords):
            if c == 0:
                continue
            if c == 1:
                terms.append(self.labels[i])
            elif c == -1:
                terms.append("-" + self.labels[i])
            else:
                terms.append(f"{c}*{self.labels[i]}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    # -- validation --------------------------------------------------------

    def validate(self):
        self._check_associative()
        if self.unit is not None:
            for i in range(self.dim):
                e = self._unit_vec(i)
                if self.multiply_coords(self.unit, e) != e or self.multiply_coords(e, self.unit) != e:
                    raise BadUnit(i)
        return self

    def _check_associative(self):
        """NotAssociative at the first basis triple (i, j, k), in
        lexicographic order, where (b_i b_j) b_k != b_i (b_j b_k).

        Exact integer numpy over the nonzero structure constants c_ijm,
        cleared of denominators: (b_i b_j) b_k has the terms c_ijm c_mkn and
        b_i (b_j b_k) the terms c_jkm c_imn, each pair of constants joined on
        the shared index m.  Both sums are collected per (i, j, k, n); int64
        unless the largest possible sum may not fit.  The pairs (i, j) are
        taken in ascending ranges of i that hold at most ASSOCIATIVITY_CHUNK
        terms (or a single i); every term of a triple shares its i, so the
        first failing triple of the first failing range is the first one."""
        consts = list(self.iter_nonzero_constants())
        if not consts:
            return
        d = self.dim
        den = lcm(*(v.denominator for *_, v in consts))
        ints = [v.numerator * (den // v.denominator) for *_, v in consts]
        fits = max(abs(v) for v in ints) ** 2 * 2 * d < 1 << 63
        val = np.array(ints, dtype=np.int64 if fits else object)
        a, b, c = (np.array(col, dtype=np.int64) for col in list(zip(*consts))[:3])
        # terms per i: (i, j, m) meets every (m, k, n), (i, m, n) every (j, k, m)
        per_i = np.bincount(a, np.bincount(a, minlength=d)[c] + np.bincount(c, minlength=d)[b], d).tolist()
        lo = 0
        while lo < d:
            hi, held = lo + 1, per_i[lo]
            while hi < d and held + per_i[hi] <= ASSOCIATIVITY_CHUNK:
                held, hi = held + per_i[hi], hi + 1
            rows = np.flatnonzero((a >= lo) & (a < hi))
            lo = hi
            if not held:
                continue
            # left: t = (i, j, m) meets u = (m, k, n); right: t = (j, k, m) meets u = (i, m, n)
            t, u = _join(c[rows], a)
            t = rows[t]
            left = (((a[t] * d + b[t]) * d + b[u]) * d + c[u], val[t] * val[u])
            t, u = _join(c, b[rows])
            u = rows[u]
            right = (((a[u] * d + a[t]) * d + b[t]) * d + c[u], -val[t] * val[u])
            keys, vals = zip(left, right)
            uniq, inv = np.unique(np.concatenate(keys), return_inverse=True)
            total = np.zeros(uniq.size, dtype=val.dtype)
            np.add.at(total, inv, np.concatenate(vals))
            bad = uniq[total != 0]
            if bad.size:
                t = int(bad.min()) // d
                raise NotAssociative(t // (d * d), t // d % d, t % d)

    # -- regular representations -------------------------------------------

    def left_mult_matrix(self, coords) -> RatMatrix:
        """Matrix of x -> a*x on coordinate columns."""
        return self._mult_matrix(coords, left=True)

    def right_mult_matrix(self, coords) -> RatMatrix:
        """Matrix of x -> x*a on coordinate columns."""
        return self._mult_matrix(coords, left=False)

    def _mult_matrix(self, coords, left):
        """Column j of L_a is a*b_j = sum_i a_i b_i b_j, of R_a b_j*a: entry
        (k, j) sums a_i c_ijk (left) or a_i c_jik over the product table."""
        rows = [{} for _ in range(self.dim)]
        for i, a in enumerate(coords):
            if a:
                for j in range(self.dim):
                    for k, v in self.product_basis(i, j) if left else self.product_basis(j, i):
                        rows[k][j] = rows[k].get(j, _ZERO) + a * v
        return RatMatrix(self.dim, self.dim, [{j: v for j, v in r.items() if v} for r in rows])

    def basis_operators(self) -> list:
        """[(L_i, R_i)]: the matrices of x -> b_i*x and x -> x*b_i."""
        return [(self.left_mult_matrix(e), self.right_mult_matrix(e)) for e in map(self._unit_vec, range(self.dim))]

    def _unit_vec(self, i):
        e = [_ZERO] * self.dim
        e[i] = _ONE
        return e

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        sc = [
            [i, j, k, str(v)]
            for i, j, k, v in self.iter_nonzero_constants()
        ]
        return {
            "dim": self.dim,
            "labels": list(self.labels),
            "unit": [str(x) for x in self.unit] if self.unit is not None else None,
            "sc": sc,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StructureAlgebra":
        dim = data["dim"]
        table: dict = {}
        for row in data["sc"]:
            if len(row) != 4:
                raise DimensionMismatch(f"a structure constant is [i, j, k, value], not {row!r}")
            i, j, k, v = row
            table.setdefault((i, j), []).append((k, rat(v)))
        unit = data.get("unit")
        return cls(dim, data["labels"], table, unit=unit)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "StructureAlgebra":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self):
        nm = self.name or "algebra"
        return f"<{nm}: dim {self.dim}>"


class AlgElement:
    """An element of a StructureAlgebra in basis coordinates."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent: StructureAlgebra, coords: tuple):
        self.parent = parent
        self.coords = coords

    def _same_parent(self, other):
        if self.parent is not other.parent:
            raise ParentMismatch("elements of different algebras")

    def __add__(self, other):
        self._same_parent(other)
        return AlgElement(self.parent, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._same_parent(other)
        return AlgElement(self.parent, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._same_parent(other)
            return AlgElement(self.parent, tuple(self.parent.multiply_coords(self.coords, other.coords)))
        return AlgElement(self.parent, tuple(a * rat(other) for a in self.coords))

    def __rmul__(self, scalar):
        return AlgElement(self.parent, tuple(rat(scalar) * a for a in self.coords))

    def __neg__(self):
        return AlgElement(self.parent, tuple(-a for a in self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, AlgElement)
            and self.parent is other.parent
            and self.coords == other.coords
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"<{self.parent.describe(self.coords)}>"


# -- construction surface ----------------------------------------------------


def construct_algebra(dim, labels, structure_constants, unit=None) -> StructureAlgebra:
    """Build and exhaustively validate an algebra from dense constants
    c[i][j][k] or an iterable of (i, j, k, value) quadruples."""
    table: dict = {}
    if isinstance(structure_constants, (list, tuple)):
        if len(structure_constants) != dim:
            raise DimensionMismatch("structure constants must have shape dim^3")
        for i in range(dim):
            if len(structure_constants[i]) != dim:
                raise DimensionMismatch("structure constants must have shape dim^3")
            for j in range(dim):
                row = structure_constants[i][j]
                if len(row) != dim:
                    raise DimensionMismatch("structure constants must have shape dim^3")
                terms = [(k, rat(v)) for k, v in enumerate(row) if rat(v) != 0]
                if terms:
                    table[(i, j)] = terms
    else:
        for i, j, k, v in structure_constants:
            table.setdefault((i, j), []).append((k, rat(v)))
    return StructureAlgebra(dim, labels, table, unit=unit)


def _matrix_unit_algebra(positions, n, name):
    """Algebra spanned by matrix units e_pq at the given positions."""
    index = {pq: i for i, pq in enumerate(positions)}
    labels = [f"e{p + 1}{q + 1}" for p, q in positions]
    table = {}
    for (a, b), i in index.items():
        for (c, d), j in index.items():
            if b == c:
                k = index.get((a, d))
                if k is None:
                    raise NotClosed(f"matrix-unit set not closed at {(a, b)}x{(c, d)}")
                table[(i, j)] = [(k, _ONE)]
    unit = None
    if all((p, p) in index for p in range(n)):
        u = [_ZERO] * len(positions)
        for p in range(n):
            u[index[(p, p)]] = _ONE
        unit = u
    return StructureAlgebra(len(positions), labels, table, unit=unit, name=name)


def _grassmann_words(m: int, unital: bool):
    """Basis words of the exterior algebra on e_1..e_m: strictly increasing
    index tuples ordered by length, then lexicographically."""
    words = []
    if unital:
        words.append(())
    for size in range(1, m + 1):
        words.extend(combinations(range(1, m + 1), size))
    return words


def _word_mask(word) -> int:
    """Bitmask of an index word: bit i-1 stands for e_i."""
    mask = 0
    for i in word:
        mask |= 1 << (i - 1)
    return mask


def _merge_mask(u: int, v: int):
    """(mask, sign) of the product of two index words given as bitmasks, or
    None if they share an index; the sign is that of the merge permutation."""
    if u & v:
        return None
    sign = 1
    x = u
    while x:
        low = x & -x
        if bin(v & (low - 1)).count("1") % 2:
            sign = -sign
        x ^= low
    return u | v, sign


def _grassmann_label(word: tuple) -> str:
    if not word:
        return "1"
    if len(word) == 1:
        return f"e{word[0]}"
    return "g{" + ",".join(str(i) for i in word) + "}"


def grassmann_algebra(m: int, unital: bool = True) -> StructureAlgebra:
    """Exterior algebra on m anticommuting generators, basis ordered by
    word length then lexicographically; the empty word (unit) first."""
    if m < 0:
        raise UnsupportedName("grassmann truncation level must be >= 0")
    words = _grassmann_words(m, unital)
    masks = [_word_mask(w) for w in words]
    index = {mask: i for i, mask in enumerate(masks)}
    labels = [_grassmann_label(w) for w in words]

    def rule(i, j):
        merged = _merge_mask(masks[i], masks[j])
        if merged is None:
            return ()
        mask, sign = merged
        return ((index[mask], Fraction(sign)),)

    unit = None
    if unital:
        u = [_ZERO] * len(words)
        u[0] = _ONE
        unit = u
    name = f"grassmann_unital({m})" if unital else f"grassmann({m})"
    return StructureAlgebra(len(words), labels, rule, unit=unit, name=name)


_BUILTIN_ARITY = {"ut": 1, "mat": 1, "block_ut": "+", "grassmann": 1, "grassmann_unital": 1,
                  "zero_mult": 1, "diag_d": 0, "sub_c": 0}


def builtin(name: str) -> StructureAlgebra:
    """Named constructors: ut(n), mat(n), block_ut(t1,..,tk), grassmann(M),
    grassmann_unital(M), zero_mult(d), diag_D, sub_C.  Accepts ut(2), ut:2
    and plain names."""
    base, args = _parse_name(name, _BUILTIN_ARITY, "builtin algebra")
    if base == "ut":
        (n,) = args
        if n < 1:
            raise UnsupportedName("ut(n) needs n >= 1")
        positions = [(i, i) for i in range(n)]
        positions += sorted(
            ((i, j) for i in range(n) for j in range(i + 1, n)), key=lambda p: (p[1] - p[0], p[0])
        )
        return _matrix_unit_algebra(positions, n, f"ut({n})")
    if base == "mat":
        (n,) = args
        if n < 1:
            raise UnsupportedName("mat(n) needs n >= 1")
        positions = [(i, j) for i in range(n) for j in range(n)]
        return _matrix_unit_algebra(positions, n, f"mat({n})")
    if base == "block_ut":
        if any(t < 1 for t in args):
            raise UnsupportedName("block_ut needs positive block sizes")
        n = sum(args)
        bounds = []
        start = 0
        for t in args:
            bounds.append((start, start + t))
            start += t
        block_of = {}
        for bi, (lo, hi) in enumerate(bounds):
            for p in range(lo, hi):
                block_of[p] = bi
        positions = [(i, i) for i in range(n)]
        positions += sorted(
            (
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and block_of[i] <= block_of[j]
            )
        )
        label = ",".join(str(t) for t in args)
        return _matrix_unit_algebra(positions, n, f"block_ut({label})")
    if base == "grassmann":
        (m,) = args
        return grassmann_algebra(m, unital=False)
    if base == "grassmann_unital":
        (m,) = args
        return grassmann_algebra(m, unital=True)
    if base == "zero_mult":
        (d,) = args
        if d < 1:
            raise UnsupportedName("zero_mult(d) needs d >= 1")
        return StructureAlgebra(d, [f"z{i + 1}" for i in range(d)], {}, name=f"zero_mult({d})")
    if base == "diag_d":
        table = {(0, 0): [(0, _ONE)], (0, 1): [(1, _ONE)], (1, 0): [(1, _ONE)], (1, 1): [(1, _ONE)]}
        return StructureAlgebra(2, ["1", "e22"], table, unit=[1, 0], name="diag_D")
    if base == "sub_c":
        table = {(0, 0): [(0, _ONE)], (0, 1): [(1, _ONE)], (1, 0): [(1, _ONE)]}
        return StructureAlgebra(2, ["1", "e12"], table, unit=[1, 0], name="sub_C")
    raise UnsupportedName(f"unknown builtin algebra {name!r}")


_NAME = re.compile(r"([^(:]*)(?:\((.*)\)|:(.*))?", re.DOTALL)


def _parse_name(name: str, arity: dict, kind: str):
    """(base, args) of a constructor name written base(a1,..,ak),
    base:a1,..,ak or base, the base lower-cased.  arity[base] is the number
    of integer arguments the base takes, "+" for one or more, or "name" for
    one argument kept as text (it may hold parentheses of its own).  Raises
    UnsupportedName for any other base, argument count or argument."""
    m = _NAME.fullmatch(name.strip())
    base = m[1].strip().lower() if m else None
    if base not in arity:
        raise UnsupportedName(f"unknown {kind} {name!r}")
    text, want = (m[2] if m[2] is not None else m[3] or "").strip(), arity[base]
    if want == "name":
        return base, text
    try:
        args = tuple(int(a) for a in text.split(",")) if text else ()
    except ValueError:
        raise UnsupportedName(f"{kind} {name!r}: arguments must be integers") from None
    if not args if want == "+" else len(args) != want:
        raise UnsupportedName(f"{kind} {name!r}: wrong number of arguments")
    return base, args


def load_algebra(spec: str) -> StructureAlgebra:
    """Resolve a CLI-style algebra reference: builtin name or JSON path."""
    if spec.endswith(".json"):
        return StructureAlgebra.load(spec)
    return builtin(spec)


# -- operations ---------------------------------------------------------------


def generated_ideal(A: StructureAlgebra, gens) -> Subspace:
    """Smallest subspace containing gens closed under one-sided products
    with all basis elements."""
    return operator_closure(A, gens, [op for pair in A.basis_operators() for op in pair])


def operator_closure(A: StructureAlgebra, gens, ops) -> Subspace:
    """Smallest subspace of A containing gens (elements of A or coordinate
    sequences) that every operator of ops maps into itself: each new
    vector of the span is put through every operator, to a fixed point."""
    vectors = []
    for g in gens:
        if isinstance(g, AlgElement):
            if g.parent is not A:
                raise ParentMismatch("generator from a different algebra")
            vectors.append(list(g.coords))
        else:
            vectors.append([rat(x) for x in g])
    space = FastIntRowSpace(A.dim)
    work = [v for v in vectors if space.add_rows(int_rows([v], A.dim))]
    while work:
        v = work.pop()
        for op in ops:
            img = op.matvec(v)
            if space.add_rows(int_rows([img], A.dim)):
                work.append(img)
    return Subspace.from_space(space)


def subspace_product(A: StructureAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """span{ x*y : x in u, y in v } from basis pair products."""
    vb = v.basis
    vecs = [A.multiply_coords(list(x), list(y)) for x in u.basis for y in vb]
    return Subspace.from_vectors(A.dim, vecs)


def center_subspace(A: StructureAlgebra) -> Subspace:
    """{x : xb = bx for all basis b}."""
    rows = [row for L, R in A.basis_operators() for row in L.add(R.scale(-1)).to_lists()]
    return RatMatrix.from_rows(rows).right_kernel_basis() if rows else Subspace.full(A.dim)


def predicates(A: StructureAlgebra, kind: str) -> bool:
    if kind == "non_degenerate":
        rows = [row for pair in A.basis_operators() for m in pair for row in m.to_lists()]
        stacked = RatMatrix.from_rows(rows)
        return stacked.right_kernel_basis().dim == 0
    if kind == "idempotent":
        vecs = []
        for i in range(A.dim):
            for j in range(A.dim):
                row = [_ZERO] * A.dim
                for k, v in A.product_basis(i, j):
                    row[k] = v
                vecs.append(row)
        return Subspace.from_vectors(A.dim, vecs).dim == A.dim
    if kind == "has_unit":
        if A.unit is not None:
            return True
        return _find_unit(A) is not None
    if kind == "split_simple":
        from .structure import jacobson_radical

        if jacobson_radical(A).dim != 0:
            return False
        return center_subspace(A).dim == 1
    raise UnknownOperation(f"unknown predicate {kind!r}")


def _find_unit(A: StructureAlgebra):
    """Solve u*b_i = b_i = b_i*u; returns coords or None."""
    rows = []
    rhs = []
    for i, (L, R) in enumerate(A.basis_operators()):
        e = A._unit_vec(i)
        rows += R.to_lists() + L.to_lists()  # u -> u*b_i, u -> b_i*u
        rhs += e + e
    m = RatMatrix.from_rows(rows)
    return solve_right(m, rhs)


def subalgebra_presentation(A: StructureAlgebra, vectors, labels=None):
    """Present span(vectors) as an abstract algebra; NotClosed if the span
    is not multiplicatively closed.  Returns (algebra, basis_matrix) with
    basis_matrix columns the chosen basis vectors in A coordinates."""
    coords = []
    for v in vectors:
        coords.append(list(v.coords) if isinstance(v, AlgElement) else [rat(x) for x in v])
    span = Subspace.from_vectors(A.dim, coords)
    if span.dim != len(coords):
        raise NotClosed("subalgebra basis vectors are linearly dependent")
    basis_matrix = RatMatrix.from_rows([[coords[i][r] for i in range(len(coords))] for r in range(A.dim)])
    table = {}
    for i, u in enumerate(coords):
        for j, v in enumerate(coords):
            prod = A.multiply_coords(u, v)
            sol = solve_right(basis_matrix, prod)
            if sol is None:
                raise NotClosed(
                    f"product of basis vectors {i} and {j} leaves the span"
                )
            terms = [(k, c) for k, c in enumerate(sol) if c != 0]
            if terms:
                table[(i, j)] = terms
    if labels is None:
        labels = [f"b{i}" for i in range(len(coords))]
    unit = None
    if A.unit is not None:
        sol = solve_right(basis_matrix, list(A.unit))
        if sol is not None:
            unit = sol
    sub = StructureAlgebra(len(coords), labels, table, unit=unit)
    if unit is None:
        u = _find_unit(sub)
        if u is not None:
            sub = StructureAlgebra(len(coords), labels, table, unit=u)
    return sub, basis_matrix


def quotient_algebra(A: StructureAlgebra, ideal: Subspace):
    """(A/ideal, projection, lift): projection maps A coordinates onto the
    complement coordinates (non-pivot columns of the ideal's echelon basis),
    lift sends quotient basis vectors to coset representatives in A."""
    if ideal.ambient_dim != A.dim:
        raise DimensionMismatch("ideal lives in a different ambient space")
    basis, pivots = ideal.basis, ideal.pivots.tolist()
    comp = [i for i in range(A.dim) if i not in pivots]

    def reduce_coords(v):
        v = list(v)
        for vec, p in zip(basis, pivots):
            c = v[p]
            if c != 0:
                for i, x in enumerate(vec):
                    if x != 0:
                        v[i] -= c * x
        return v

    qdim = len(comp)
    labels = [A.labels[c] for c in comp]
    table = {}
    for a, i in enumerate(comp):
        for b, j in enumerate(comp):
            prod = reduce_coords(A.multiply_coords(A._unit_vec(i), A._unit_vec(j)))
            terms = [(q, prod[c]) for q, c in enumerate(comp) if prod[c] != 0]
            if terms:
                table[(a, b)] = terms
    unit = None
    if A.unit is not None:
        red = reduce_coords(list(A.unit))
        unit = [red[c] for c in comp]
    quot = StructureAlgebra(qdim, labels, table, unit=unit)
    proj_entries = []
    for j in range(A.dim):
        red = reduce_coords(A._unit_vec(j))
        for q, c in enumerate(comp):
            if red[c] != 0:
                proj_entries.append((q, j, red[c]))
    proj = RatMatrix.from_entries(qdim, A.dim, proj_entries)
    lift = RatMatrix.from_entries(A.dim, qdim, [(c, q, _ONE) for q, c in enumerate(comp)])
    return quot, proj, lift
