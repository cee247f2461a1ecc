"""Codimension engine for generalized identities.

The degree-n multilinear monomials of an action with s listed coefficient
basis elements are the n! * s^(n+1) words w_{i0} x_{sigma(1)} w_{i1} ...
x_{sigma(n)} w_{in}.  Their evaluations at basis tuples of A form the
evaluation matrix; its rank is the n-th codimension and its left kernel is
the space of multilinear identities of degree n.

One exact integer generator, _iter_rows_int, produces every evaluation
row.  The rows of the identity permutation (master rows) are contractions
of the transfer operators of the coefficient slots against the structure
constants of A in Python integers; every other permutation reuses them by
relabelling tuple positions, a numpy digit permutation of the column
indices.  Each row comes with its positive scale: the integer row has
coprime entries and equals the scale times the exact rational row, so the
rank needs only the integers and the rational matrix and kernel divide the
scale back out.  Ranks, spans and kernels all come from the one exact
elimination, FastIntRowSpace (_fastrank.py).

Consequence spans realize the multilinear degree-n part of the ideal
generated by a set of identities under substitutions, two-sided monomial
multiplication and coefficient multiplication; generating-set verification
compares that span with the identity kernel.  The degree-1 operator
relations of an action (its structural identities) are always counted as
available generators during verification, matching how the source theorems
treat coefficient rewriting as free.  Consequence vectors are built as
integer numpy blocks: the n! variable arrangements of one generator and
block composition share every coefficient-slot table and differ only in a
column-index array, so a chunk of coefficient assignments becomes canonical
rows by table gathers and outer products, in Python integers only where no
int64 bound can be certified.  One driver, _span_stream, feeds such blocks,
deduplicated, to the elimination in batches sized by the byte cap
STREAM_BYTES.

Truncated exterior algebras get a dedicated assembler: columns of the
evaluation matrix fall into orbits of index relabelings that change all
rows by one common sign, so one representative column per orbit preserves
the rank while the truncation dimension stays exponential.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations, product
from math import gcd, lcm, prod

import numpy as np

from ._fastrank import FastIntRowSpace
from .actions import Action, grassmann_action
from .algebras import _grassmann_words, _merge_mask, _word_mask
from .errors import BasisMismatch, BudgetExceeded, InternalError, NotSplit
from .linalg import Subspace, int_rows, reversed_kernel
from .polynomials import (
    GenMonomial,
    _perm_rank,
    basis_size,
    enumerate_basis,
    is_identity,
    multilinearize,
    parse,
    renumber_variables,
    resolved_words,
    variables_of,
    vectorize,
)
from .structure import pi_exponent

_ZERO = Fraction(0)
_ONE = Fraction(1)

_INT64_LIMIT = 1 << 63

DEFAULT_MAX_ROWS = 2_000_000
MAX_DENSE_COLUMNS = 200_000  # width guard for materialized matrices
# cap of one streaming buffer: 4096-row batches up to 3^8 columns still fit
STREAM_BYTES = 1 << 28
CHUNK_BYTES = STREAM_BYTES >> 6  # cap of one consequence chunk before zero rows drop


def row_budget() -> int:
    env = os.environ.get("GENPI_MAX_ROWS")
    return int(env) if env else DEFAULT_MAX_ROWS


def _check_budget(rows: int, cols: int):
    budget = row_budget()
    if rows > budget or cols > MAX_DENSE_COLUMNS:
        raise BudgetExceeded(rows, cols, budget)


def _stream_rows(ncols: int, rows: int) -> int:
    """Rows of a streaming buffer of int64 rows of width ncols: at most
    rows, and within STREAM_BYTES.  Raises BudgetExceeded, before anything
    is allocated, when a single row is over the cap."""
    fit = STREAM_BYTES // (8 * ncols)
    if fit < 1:
        raise BudgetExceeded(1, ncols, fit)
    return min(rows, fit)


# -- evaluation matrix ----------------------------------------------------------


@dataclass
class EvaluationMatrix:
    """Materialized evaluation matrix in deterministic (perm, coeffs) row
    order.

    Column tuple_rank * dim + k holds output coordinate k at the basis tuple
    of that rank.  Each row is stored as its exact rational entries
    {col: Fraction}: the integer row of _iter_rows_int divided by the row's
    positive scale."""

    action: Action
    n: int
    rows: int
    cols: int
    row_data: list  # list of {col: Fraction}

    def row(self, i: int) -> dict:
        return self.row_data[i]


def _int_matrix(M):
    """(integer object array, positive denominator) whose quotient is M."""
    den = 1
    for r in M.iter_rows():
        for v in r.values():
            den = lcm(den, v.denominator)
    out = np.zeros((M.nrows, M.ncols), dtype=object)
    for i, r in enumerate(M.iter_rows()):
        for j, v in r.items():
            out[i, j] = v.numerator * (den // v.denominator)
    return out, den


def _primitive(cols, ints, den):
    """(cols, vals, scale) of the integer row ints = den * row over cols,
    divided by the gcd of its entries, so that vals = scale * row.  vals is
    int64 when every entry fits and an object array of Python ints
    otherwise."""
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    big = any(abs(v) >= _INT64_LIMIT for v in ints)
    vals = np.array(ints, dtype=object if big else np.int64)
    return cols, vals, Fraction(den, g) if g else _ONE


def _master_rows(h: Action, n: int) -> list:
    """(cols, vals, scale) of the identity-permutation monomials
    w_{i0} x_1 w_{i1} ... x_n w_{in}, coefficient tuples in lexicographic
    order.

    The monomial evaluates to D_1(a_1) D_2(a_2) ... D_n(a_n) with
    D_1 = lambda_{i0} rho_{i1} and D_t = rho_{it}.  The partial products
    over all basis prefixes form a (dim^t, dim) tensor, and one more factor
    is one matrix product with the contraction of the structure constants
    against the operator, shared by every coefficient tuple with that
    prefix.  Entries are exact Python ints over a tracked denominator."""
    A = h.A
    dim = A.dim
    consts = list(A.iter_nonzero_constants())
    dc = 1
    for *_, v in consts:
        dc = lcm(dc, v.denominator)
    consts = [(i, j, k, v.numerator * (dc // v.denominator)) for i, j, k, v in consts]
    Ls = [_int_matrix(p.L.matrix) for p in h.pairs]
    Rs = [_int_matrix(p.R.matrix) for p in h.pairs]
    steps = []
    for D, dd in Rs:
        # M[k1, j, k3] = sum_k2 c(k1, k2, k3) D[k2, j]
        M = np.zeros((dim, dim, dim), dtype=object)
        for i, j, k, v in consts:
            M[i, :, k] += v * D[j, :]
        steps.append((M.reshape(dim, dim * dim), dd * dc))
    masters = []

    def extend(depth, T, den):
        if depth == n:
            flat = T.ravel()
            cols = np.flatnonzero(flat)
            masters.append(_primitive(cols, flat[cols].tolist(), den))
            return
        for M, dm in steps:
            extend(depth + 1, (T @ M).reshape(-1, dim), den * dm)

    for (L, dl), (R, dr) in product(Ls, Rs):
        extend(1, (L @ R).T, dl * dr)
    return masters


def _iter_rows_int(h: Action, n: int):
    """Evaluation rows in enumeration order as (cols, vals, scale): the
    integer row vals over the flat columns cols is scale times the exact
    rational evaluation row, with coprime entries and scale > 0."""
    dim = h.A.dim
    masters = _master_rows(h, n)
    split = [(cols // dim, cols % dim) for cols, _, _ in masters]
    digits = np.indices((dim,) * n).reshape(n, -1)
    for perm in permutations(range(n)):
        # x_{perm(1)} ... x_{perm(n)} at assignment u equals the master at
        # (u_{perm(1)}, ..., u_{perm(n)}), so master tuple rank r moves to
        # sum_q digit_q(r) * dim^(n-1-perm(q))
        remap = (dim ** (n - 1 - np.array(perm, dtype=np.int64))) @ digits
        for (_, vals, scale), (tup, out) in zip(masters, split):
            yield remap[tup] * dim + out, vals, scale


def evaluation_matrix(h: Action, n: int) -> EvaluationMatrix:
    """Materialized evaluation matrix (budget-guarded)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    rows = basis_size(n, h.s)
    cols = h.A.dim ** n * h.A.dim
    _check_budget(rows, cols)
    data = [
        {c: Fraction(v) / scale for c, v in zip(cs.tolist(), vals.tolist())}
        for cs, vals, scale in _iter_rows_int(h, n)
    ]
    return EvaluationMatrix(h, n, rows, cols, data)


def _rank_of_row_arrays(rows, ncols: int, batch: int = 4096) -> int:
    """Exact rank of streamed (cols, vals, scale) rows, duplicates skipped,
    through _span_stream in batches of batch rows.  Rows are grouped into
    _Rows blocks of at most CHUNK_BYTES / 16 of dense values, as a whole
    block stays in memory until it is keyed."""

    def blocks():
        size, it = max(1, (CHUNK_BYTES >> 4) // (8 * ncols)), iter(rows)
        while chunk := list(islice(it, size)):
            ptr = np.cumsum([0] + [cols.size for cols, _, _ in chunk])
            cols, vals, _ = zip(*chunk)
            yield _Rows(ptr, np.concatenate(cols), np.concatenate(vals))

    return _span_stream(blocks(), ncols, batch, lambda span: False)[0].rank


def codimension(h: Action, n: int) -> int:
    """Rank of the degree-n evaluation matrix."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    rows = basis_size(n, h.s)
    cols = h.A.dim ** n * h.A.dim
    _check_budget(rows, cols)
    return _rank_of_row_arrays(_iter_rows_int(h, n), cols)


def identity_kernel_basis(h: Action, n: int) -> Subspace:
    """Canonical basis of the multilinear identities of degree n, as
    coefficient vectors over the monomial basis: the left kernel of the
    evaluation matrix, read off the row space of its columns with the row
    order reversed (linalg.reversed_kernel).  That transposed matrix is
    dense, and BudgetExceeded is raised before it is allocated when it is
    over STREAM_BYTES."""
    rows = basis_size(n, h.s)
    cols = h.A.dim ** n * h.A.dim
    _check_budget(rows, cols)
    if 8 * rows * cols > STREAM_BYTES:
        raise BudgetExceeded(rows, cols, STREAM_BYTES // (8 * cols))
    T = np.zeros((cols, rows), dtype=np.int64)
    scales = []
    for cs, vals, scale in _iter_rows_int(h, n):
        if vals.dtype == object:
            T = T.astype(object, copy=False)
        T[cs, rows - 1 - len(scales)] = vals
        scales.append(scale)
    space = FastIntRowSpace(rows)
    space.add_rows(T)
    return reversed_kernel(space, scales)


def identity_kernel_polynomials(h: Action, n: int):
    """Kernel basis rendered as readable monomial combinations."""
    sub = identity_kernel_basis(h, n)
    mons = list(enumerate_basis(n, h.s))
    out = []
    for vec in sub.basis:
        terms = []
        for i, c in enumerate(vec):
            if c != 0:
                terms.append((c, mons[i].label(h)))
        out.append(terms)
    return out


# -- structural identities -------------------------------------------------------


def structural_identities(h: Action):
    """Degree-1 identities of the action (operator relations among the
    composites lambda_i rho_j), as multilinear word polynomials."""
    sub = identity_kernel_basis(h, 1)
    mons = list(enumerate_basis(1, h.s))
    gens = []
    for vec in sub.basis:
        words = {}
        for i, c in enumerate(vec):
            if c != 0:
                m = mons[i]
                words[(-(m.coeffs[0] + 1), 1, -(m.coeffs[1] + 1))] = c
        gens.append(words)
    return gens


# -- consequence spans -----------------------------------------------------------


def _generator_words(g, h: Action):
    """Normalize one generator to (degree, [(coeff, word)]) with variables
    renumbered 1..d; None for generators that vanish in coordinates."""
    if isinstance(g, str):
        g = parse(g)
    if isinstance(g, dict):
        words = dict(g)
    else:
        comps = multilinearize(g)
        if len(comps) != 1:
            raise ValueError("generators must be multilinear (one component)")
        words = resolved_words(comps[0], h)
    s = h.s
    words = {
        w: c
        for w, c in words.items()
        if not any(sym < 0 and -(sym + 1) >= s for sym in w)
    }
    if not words:
        return None
    vars_seen = sorted({sym for w in words for sym in w if sym > 0})
    ren = {v: i + 1 for i, v in enumerate(vars_seen)}
    out = []
    for w, c in words.items():
        got = [sym for sym in w if sym > 0]
        if sorted(got) != vars_seen:
            raise ValueError("generator is not multilinear")
        out.append((c, tuple(ren[sym] if sym > 0 else sym for sym in w)))
    return len(vars_seen), out


def _compositions(total: int, parts: int, minimums):
    """All tuples of the given length with entries >= minimums summing to
    total, in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = minimums[0]
    rest_min = sum(minimums[1:])
    for first in range(lo, total - rest_min + 1):
        for tail in _compositions(total - first, parts - 1, minimums[1:]):
            yield (first,) + tail


def _instance_groups(gens, h: Action, n: int):
    """Substitution skeletons, one group per generator and composition.

    An instance is u0 * g(v_1..v_d) * u1 where the v_i are monomials on
    consecutive nonempty blocks of a variable arrangement and u0, u1 are
    boundary monomials on the rest (possibly variable-free), each an
    alternation of enumerated coefficient positions and variables.  A group
    fixes the generator and the block lengths (a, k_1..k_d, b); its n!
    arrangements share every slot plan and differ only in the variables at
    the positions.  A group is (ns, plans): ns enumerated coefficient
    positions and one plan (coef, positions, slots) per generator term,
    where positions lists the arrangement positions of the term's
    variables in word order and slots the n+1 coefficient slots around
    them, each a tuple of factors: enumerated position p >= 0 or listed
    coefficient k as -(k+1)."""
    if h.W.unit is None:
        raise InternalError("consequence spans need a unital coefficient algebra")
    groups = []
    for g in gens:
        gw = _generator_words(g, h)
        if gw is None or gw[0] > n:
            continue
        d, terms = gw
        for comp in _compositions(n, d + 2, [0] + [1] * d + [0]):
            pieces, cpos, vpos = [], 0, 0
            for length in comp:
                pieces.append([cpos] + [x for t in range(length) for x in (("v", vpos + t), cpos + 1 + t)])
                cpos += length + 1
                vpos += length
            plans = []
            for coef, gword in terms:
                word = pieces[0] + [x for sym in gword for x in (pieces[sym] if sym > 0 else [sym])]
                positions, slots, cur = [], [], []
                for x in word + pieces[-1]:
                    if isinstance(x, tuple):
                        positions.append(x[1])
                        slots.append(tuple(cur))
                        cur = []
                    else:
                        cur.append(x)
                plans.append((Fraction(coef), tuple(positions), tuple(slots) + (tuple(cur),)))
            groups.append((cpos, plans))
    return groups


class _Rows:
    """A block of sparse integer rows: row r holds vals[ptr[r]:ptr[r+1]] at
    the distinct columns cols[ptr[r]:ptr[r+1]] (increasing in consequence
    rows).  vals is int64, or an object array of Python ints when it may
    not fit."""

    def __init__(self, ptr, cols, vals):
        self.ptr, self.cols, self.vals = ptr, cols, vals

    def keys(self) -> list:
        """One key per row, equal exactly for equal rows: bytes for int64
        rows, (column bytes, values) for Python integers."""
        cb = self.cols.tobytes()
        p = (self.ptr * 8).tolist()
        if self.vals.dtype == object:
            vals = self.vals.tolist()
            return [(cb[a:b], tuple(vals[a // 8 : b // 8])) for a, b in zip(p, p[1:])]
        vb = self.vals.tobytes()
        return [cb[a:b] + vb[a:b] for a, b in zip(p, p[1:])]

    def scatter(self, buf, at: int, sel):
        """Write the rows sel (ascending) to buf[at], buf[at + 1], ..."""
        lens = self.ptr[sel + 1] - self.ptr[sel]
        ends = np.cumsum(lens)
        entries = np.repeat(self.ptr[sel] - ends + lens, lens) + np.arange(ends[-1])
        buf[at + np.repeat(np.arange(len(sel)), lens), self.cols[entries]] = self.vals[entries]


class _GroupBlock:
    """Integer tables of one instance group, and the monomial ranks of its
    n! arrangements.

    Each slot gets a table of s^p x s integers: row t is the product in W of
    the slot's factors at the t-th assignment of its p enumerated positions
    (lexicographic, first position most significant).  The table depends
    only on the slot's pattern (its listed coefficients, with a placeholder
    0 for each enumerated position), so it is built once per pattern in the
    dict patterns, which the caller shares between the groups of one
    stream; the group keeps the slot's own positions and digit weights.
    Plans whose variables sit at the same positions form one class: they
    land on the same monomials, so their values add.  Arrangement a sends
    class c to the columns ranks[a, c] * s^(n+1) + m, m the coefficient
    index.  Fraction products of W and rational coefficients are cleared by
    one positive factor per group, which leaves canonical rows unchanged.
    dtype is int64 when a magnitude bound certifies every product below
    2^63, else object."""

    def __init__(self, ns, plans, unit, R, arrangements, patterns):
        self.ns = ns
        s = len(unit)
        tables = {}
        for x in dict.fromkeys(x for _, _, sl in plans for x in sl):
            pattern = tuple(min(f, 0) for f in x)
            if pattern not in patterns:
                patterns[pattern] = self._table(pattern, unit, R)
            pos = np.array([f for f in x if f >= 0], dtype=np.intp)
            tables[x] = (pos, s ** np.arange(pos.size - 1, -1, -1), *patterns[pattern])
        peak = {x: t[4] for x, t in tables.items()}
        classes: dict = {}  # positions -> [(coef, slots, denominator)]
        factor = 1
        for coef, positions, slots in plans:
            if all(peak[x] for x in slots):  # else the term is zero
                den = prod(tables[x][3] for x in slots)
                factor = lcm(factor, den * coef.denominator)
                classes.setdefault(positions, []).append((coef, slots, den))
        self.classes = [
            [(int(coef * factor / den), slots) for coef, slots, den in terms] for terms in classes.values()
        ]
        # all peaks are >= 1, so every partial product of a term is at most
        # the term's bound, and a class sum at most the sum of its bounds
        bound = max(
            (sum(abs(c) * prod(peak[x] for x in slots) for c, slots in terms) for terms in self.classes),
            default=0,
        )
        self.dtype = np.int64 if bound < _INT64_LIMIT else object
        self.tables = {x: (pos, wts, tab.astype(self.dtype)) for x, (pos, wts, tab, _, _) in tables.items()}
        self.nonzero = {x: (tab != 0).any(axis=1) for x, (_, _, tab, _, _) in tables.items()}
        self.ranks = np.array(
            [[_perm_rank([arr[p] for p in positions]) for positions in classes] for arr in arrangements],
            dtype=np.int64,
        ).reshape(len(arrangements), len(classes))

    @staticmethod
    def _table(pattern, unit, R):
        """(integer table, denominator, peak entry) of a slot pattern; R[k]
        is right multiplication by b_k on coordinate rows."""
        T = np.array([unit], dtype=object)
        for x in pattern:  # an enumerated position adds the least significant digit
            T = T @ R[-x - 1] if x < 0 else np.stack([T @ Rk for Rk in R], axis=1).reshape(-1, len(unit))
        den = lcm(*(Fraction(v).denominator for v in T.flat))
        table = np.array([int(v * den) for v in T.flat], dtype=object).reshape(T.shape)
        return table, den, max(abs(v) for v in table.flat)

    def rows(self, digits):
        """Rows of the assignments with these digit rows (N, ns), as
        (indices of the nonzero assignments, their base block V of shape
        (N', classes, s^(n+1)), each V[i] divided by the gcd of its
        entries): up to sign, the row of assignment i in arrangement a is
        V[i] spread over the columns ranks[a, c] * s^(n+1) + m."""
        subs = {slot: digits[:, pos] @ wts for slot, (pos, wts, _) in self.tables.items()}
        live = np.zeros(digits.shape[0], dtype=bool)
        for terms in self.classes:
            for _, slots in terms:
                live |= np.logical_and.reduce([self.nonzero[slot][subs[slot]] for slot in slots])
        live = np.flatnonzero(live)
        N = live.size
        if not N:
            return live, np.zeros((0, len(self.classes), 0), dtype=self.dtype)
        gathered = {slot: self.tables[slot][2][sub[live]] for slot, sub in subs.items()}
        blocks = []
        for terms in self.classes:
            acc = 0
            for coef, slots in terms:
                x = gathered[slots[0]]
                for slot in slots[1:]:
                    x = (x[:, :, None] * gathered[slot][:, None, :]).reshape(N, -1)
                acc = acc + coef * x
            blocks.append(acc)
        V = np.stack(blocks, axis=1)  # (N, classes, s^(n+1))
        g = np.gcd.reduce(np.abs(V.reshape(N, -1)), axis=1)
        keep = np.flatnonzero(g)
        return live[keep], V[keep] // g[keep, None, None]


def _consequence_blocks(gens, h: Action, n: int):
    """Yield the canonical degree-n consequence vectors of the generators,
    sparse over the monomial ranks, as _Rows blocks.

    Every instance u0 * g(v_1..v_d) * u1 (see _instance_groups) has each
    coefficient position running over the listed basis; adjacent
    coefficients merge through the product of W.  Zero vectors are
    skipped, every other one is divided by the gcd of its entries and
    signed to a positive leading entry.  Order: coefficient assignment
    index, then group, then arrangement.  The slot tables of all groups
    come from one dict of patterns built here.  Each chunk of assignment
    indices is computed for all groups at once (_GroupBlock.rows); every
    nonzero entry of a group's base block is sent to its n! arrangements,
    the chunk is sorted by row, then column, and each row is then signed
    by its leading entry; a chunk would hold at most CHUNK_BYTES of values
    if no assignment vanished and all n! rows were dense.  A block is
    int64 unless one of its groups needs Python integers.
    """
    W, s = h.W, h.s
    R = np.zeros((s, s, s), dtype=object)  # R[k][i, j]: b_j in b_i b_k
    for i, k in product(range(s), repeat=2):
        for j, c in W.product_basis(i, k):
            R[k, i, j] = c
    arrangements = list(permutations(range(1, n + 1)))
    nf, S = len(arrangements), s ** (n + 1)
    patterns: dict = {}
    groups = [_GroupBlock(ns, plans, W.unit, R, arrangements, patterns) for ns, plans in _instance_groups(gens, h, n)]
    groups = [g for g in groups if g.classes]  # drop groups whose terms all vanish
    sizes = [s ** g.ns for g in groups]
    width = [8 * g.ranks.size * S for g in groups]
    start = 0
    while start < max(sizes, default=0):
        live = [gi for gi, size in enumerate(sizes) if size > start]
        end = start + max(1, CHUNK_BYTES // sum(width[gi] for gi in live))
        idx = np.arange(start, end, dtype=np.int64)
        keys, cols, vals = [], [], []
        for gi in live:
            g = groups[gi]
            ix = idx[idx < sizes[gi]]
            digits = (ix[:, None] // s ** np.arange(g.ns, dtype=np.int64)) % s
            keep, V = g.rows(digits)
            i, c, m = np.nonzero(V)
            keys.append((ix[keep][i, None] * len(groups) + gi) * nf + np.arange(nf))
            cols.append(g.ranks[:, c].T * S + m[:, None])
            vals.append(np.repeat(V[i, c, m], nf))
        start = end
        rowkey = np.concatenate(keys, axis=None)
        if not rowkey.size:
            continue
        cols = np.concatenate(cols, axis=None)
        order = np.lexsort((cols, rowkey))
        rowkey, vals = rowkey[order], np.concatenate(vals)[order]
        ptr = np.flatnonzero(np.diff(rowkey, prepend=-1, append=rowkey[-1] + 1))
        vals *= np.repeat(np.where(vals[ptr[:-1]] > 0, 1, -1), np.diff(ptr))  # positive leading entries
        yield _Rows(ptr, cols[order], vals)


def _span_stream(blocks, ncols: int, batch: int, stop, target: int | None = None):
    """Span of the deduplicated rows of a _Rows stream, as (span, verdict).

    Rows go in stream order to a FastIntRowSpace (which stops adding at
    rank target, if given) in batches of batch rows, fewer when
    STREAM_BYTES asks; the batch buffer turns to Python integers at the
    first block that holds them.  stop(span) is asked after every full
    batch that added pivots and once at the end; a true answer ends the
    stream and the last answer is the verdict."""
    batch = _stream_rows(ncols, batch)
    space = FastIntRowSpace(ncols, target_rank=target)
    buf = np.zeros((batch, ncols), dtype=np.int64)
    seen: set = set()
    fill = 0
    for block in blocks:
        if block.vals.dtype == object:
            buf = buf.astype(object, copy=False)
        new = [r for r, key in enumerate(block.keys()) if not (key in seen or seen.add(key))]
        new = np.array(new, dtype=np.intp)
        while new.size:
            take, new = new[: batch - fill], new[batch - fill :]
            block.scatter(buf, fill, take)
            fill += take.size
            if fill == batch:
                added = space.add_rows(buf)
                buf[:] = 0
                fill = 0
                if added and stop(space):
                    return space, True
    if fill:
        space.add_rows(buf[:fill])
    return space, stop(space)


def consequences_span(generators, h: Action, n: int) -> Subspace:
    """Canonical basis of the degree-n multilinear consequences of the
    generators (empty generator list gives the zero subspace)."""
    rows = basis_size(n, h.s)
    _check_budget(rows, 1)
    blocks = _consequence_blocks(list(generators), h, n)
    return Subspace.from_space(_span_stream(blocks, rows, 1024, lambda span: False)[0])


def in_consequence_span(poly, generators, h: Action, n: int) -> bool:
    """Membership of one multilinear polynomial in the consequence span,
    decided by streaming the span and reducing the target vector."""
    if isinstance(poly, str):
        poly = parse(poly)
    comps = multilinearize(poly)
    if len(comps) != 1:
        raise ValueError("membership needs a single multilinear component")
    target = vectorize(renumber_variables(comps[0]), h, n)
    if not target:
        return True
    rows = basis_size(n, h.s)
    row = int_rows([target], rows)
    blocks = _consequence_blocks(list(generators), h, n)
    return _span_stream(blocks, rows, 256, lambda span: not span.reduce_rows(row).any())[1]


def _span_reaches(gens, h: Action, n: int, target: int) -> bool:
    """Whether the degree-n consequence span of gens, which must lie in the
    identity kernel, has rank target (streamed with early stop)."""
    blocks = _consequence_blocks(gens, h, n)
    span, _ = _span_stream(blocks, basis_size(n, h.s), 1024, lambda sp: sp.rank >= target, target)
    if span.rank > target:
        raise InternalError("consequence span escaped the identity kernel")
    return span.rank == target


def verify_generating_set(generators, h: Action, n: int, codim_value: int | None = None) -> bool:
    """True iff the consequence span of the generators together with the
    action's structural identities equals the degree-n identity kernel.

    Generators that are not identities fail immediately.  The kernel is
    never materialized: the span is contained in it once every generator is
    an identity, so equality is a rank comparison against
    rows - codimension; pass codim_value to supply a known codimension.
    """
    gens = [parse(g) if isinstance(g, str) else g for g in generators]
    comps = (c for g in gens if not isinstance(g, dict) for c in multilinearize(g))
    if not all(is_identity(c, h)[0] for c in comps if len(variables_of(c)) <= n):
        return False
    rows = basis_size(n, h.s)
    if codim_value is None:
        codim_value = codimension(h, n)
    return _span_reaches(list(gens) + structural_identities(h), h, n, rows - codim_value)


# -- variety containment -----------------------------------------------------------


def _same_coefficient_presentation(hA: Action, hB: Action) -> bool:
    WA, WB = hA.W, hB.W
    if WA.dim != WB.dim or WA.labels != WB.labels:
        return False
    for i in range(WA.dim):
        for j in range(WA.dim):
            if WA.product_basis(i, j) != WB.product_basis(i, j):
                return False
    return True


def variety_contains(hA: Action, hB: Action, n: int) -> bool:
    """Degreewise necessary condition for membership of the second action's
    algebra in the variety of the first: every multilinear identity of the
    first of degree <= n is an identity of the second, decided by
    rank([E_A | E_B]) = rank(E_A) per degree."""
    if not _same_coefficient_presentation(hA, hB):
        raise BasisMismatch(
            "variety comparison needs one shared coefficient presentation"
        )
    for m in range(1, n + 1):
        rows = basis_size(m, hA.s)
        colsA = hA.A.dim ** m * hA.A.dim
        colsB = hB.A.dim ** m * hB.A.dim
        _check_budget(rows, colsA + colsB)
        rank_a = _rank_of_row_arrays(_iter_rows_int(hA, m), colsA)

        def stacked():
            # the two halves of one row are scaled jointly: both are brought
            # to sa.numerator * sb.numerator times the rational row
            for (ca, va, sa), (cb, vb, sb) in zip(_iter_rows_int(hA, m), _iter_rows_int(hB, m)):
                fa = sa.denominator * sb.numerator
                fb = sb.denominator * sa.numerator
                ints = [v * fa for v in va.tolist()] + [v * fb for v in vb.tolist()]
                cols = np.concatenate([ca, cb + colsA])
                yield _primitive(cols, ints, sa.numerator * sb.numerator)

        rank_ab = _rank_of_row_arrays(stacked(), colsA + colsB)
        if rank_ab != rank_a:
            return False
    return True


# -- truncated exterior algebras -----------------------------------------------------


def _grassmann_reduced_rows(k: int, m: int, n: int):
    """Rows of the degree-n evaluation matrix of the k-generator action on
    the m-generator truncation, over one representative column per
    relabeling orbit, as {col: +-1} dicts.  Dropping the orbit mates
    preserves both the rank and the left kernel: they are duplicate columns
    up to one global sign.  Only the index words of W are needed, so the
    truncated action itself is never built."""
    wmask = [_word_mask(w) for w in _grassmann_words(k, True)]
    s = len(wmask)
    rows = basis_size(n, s)
    _check_budget(rows, 1)
    small = list(range(1, k + 1))
    large = m - k
    # representative assignments: small indices to a slot (1..n) or unused
    # (0); large index counts per slot and unused packed in order
    reps = []
    for small_assign in product(range(n + 1), repeat=k):
        for counts in _compositions(large, n + 1, [0] * (n + 1)):
            words = [[] for _ in range(n)]
            for idx, slot in zip(small, small_assign):
                if slot >= 1:
                    words[slot - 1].append(idx)
            nxt = k + 1
            for slot in range(n):
                for _ in range(counts[slot]):
                    words[slot].append(nxt)
                    nxt += 1
            reps.append(tuple(_word_mask(w) for w in words))
    mons = list(enumerate_basis(n, s))
    col_index: dict = {}
    rows_data = [dict() for _ in mons]
    for ci, masks in enumerate(reps):
        for ri, mon in enumerate(mons):
            # product in monomial order: w_{i0} g_{sigma(1)} w_{i1} ...
            factors = [wmask[mon.coeffs[0]]]
            for t in range(n):
                factors += (masks[mon.perm[t] - 1], wmask[mon.coeffs[t + 1]])
            acc, sign = 0, 1
            for f in factors:
                merged = _merge_mask(acc, f)
                if merged is None:
                    break
                acc, sg = merged
                sign *= sg
            else:
                col = col_index.setdefault((ci, acc), len(col_index))
                rows_data[ri][col] = sign
    return rows_data


def _grassmann_matrix(k: int, m: int, n: int) -> np.ndarray:
    """_grassmann_reduced_rows as a dense integer array."""
    rows = _grassmann_reduced_rows(k, m, n)
    M = np.zeros((len(rows), 1 + max((c for r in rows for c in r), default=-1)), dtype=np.int64)
    for i, r in enumerate(rows):
        M[i, list(r)] = list(r.values())
    return M


def _grassmann_reduced_rank(k: int, m: int, n: int) -> int:
    M = _grassmann_matrix(k, m, n)
    space = FastIntRowSpace(M.shape[1])
    space.add_rows(M)
    return space.rank


def _grassmann_kernel(k: int, m: int, n: int) -> Subspace:
    """Left kernel of the orbit-reduced evaluation matrix, the same as that
    of the full one, from the row space of its columns with the row order
    reversed (linalg.reversed_kernel)."""
    M = _grassmann_matrix(k, m, n)
    space = FastIntRowSpace(M.shape[0])
    space.add_rows(M.T[:, ::-1])
    return reversed_kernel(space)


def _grassmann_stabilized(k: int, n: int):
    """(codimension, truncation level) of the k-generator action at degree
    n: the reduced rank at level k + n, which is final.

    Lemma: at every level m >= k + n the orbit-reduced degree-n evaluation
    matrix has the same rank and the same left kernel, and so has the
    evaluation matrix of the infinite exterior algebra.  Proof: substitute
    basis words u_i for the x_i and write u_i = +-a_i b_i, with a_i a word
    in e_1..e_k and b_i a word in the other generators.  The b_i commute
    with every other factor up to signs, so the monomial
    w_0 x_s(1) w_1 ... x_s(n) w_n evaluates to
    eps * (w_0 a_s(1) w_1 ... a_s(n) w_n) * (b_1 ... b_n), where the sign eps
    depends only on the permutation s and on the parities of the factors.
    If two b_i share a letter, every monomial vanishes at that assignment.
    Otherwise replace each odd b_i by e_(k+i) and each even b_i by 1: no
    parity changes, so no sign of any monomial changes, and only the output
    coordinate moves (b_1 ... b_n is one word up to a sign common to the
    column).  So every evaluation column, at any level, is zero or +- a
    column of this parity-class matrix, whose columns assign each of
    e_1..e_k to one slot or none, a parity to each slot and an output
    word; all of them occur from level k + n on.  A matrix keeps its rank
    and left kernel when zero columns, repeats and sign changes of columns
    are added or dropped, and the orbit mates dropped by
    _grassmann_reduced_rows are such repeats."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    return _grassmann_reduced_rank(k, k + n, n), k + n


def grassmann_codim_stabilized(k: int, n: int) -> int:
    """Codimension of the k-generator action on the exterior algebra at
    degree n, computed on the truncation at level k + n, from which on it
    is proved constant (see _grassmann_stabilized)."""
    return _grassmann_stabilized(k, n)[0]


def _grassmann_structural_identities(k: int, m: int):
    """Degree-1 identities of the truncated action."""
    mons = list(enumerate_basis(1, 2 ** k))
    return [
        {(-(mon.coeffs[0] + 1), 1, -(mon.coeffs[1] + 1)): c for mon, c in zip(mons, vec) if c}
        for vec in _grassmann_kernel(k, m, 1).basis
    ]


def _grassmann_is_identity(poly, h: Action, rows_by_degree, k: int, m: int):
    """Identity test against the level-m truncation via the reduced rows:
    the vectorization must combine the reduced evaluation rows to zero.
    Only the coefficient algebra of h is read."""
    comps = multilinearize(poly) if not isinstance(poly, dict) else [poly]
    for comp in comps:
        if isinstance(comp, dict):
            vec = {}
            for w, c in comp.items():
                mon = GenMonomial(1, (1,), (-(w[0] + 1), -(w[2] + 1)))
                vec[mon.rank(h.s)] = c
            d = 1
        else:
            d = len(variables_of(comp))
            if d == 0:
                continue
            vec = vectorize(comp, h, d)
        if d not in rows_by_degree:
            rows_by_degree[d] = _grassmann_reduced_rows(k, m, d)
        rows_data = rows_by_degree[d]
        acc: dict = {}
        for r, c in vec.items():
            for col, v in rows_data[r].items():
                nv = acc.get(col, _ZERO) + c * v
                if nv:
                    acc[col] = nv
                else:
                    acc.pop(col, None)
        if acc:
            return False
    return True


def grassmann_generators(k: int):
    gens = ["[x1,x2,x3]"]
    gens += [f"[e{i},x1,x2]" for i in range(1, k + 1)]
    gens += [f"e{k + 1}*x1", f"x1*e{k + 1}"]
    return gens


def verify_grassmann_generating_set(k: int, n: int, generators=None) -> bool:
    """Generating-set certificate for the k-generator action at degree n,
    with the identity kernels taken at truncation level k + n, where every
    kernel of degree <= n is final (see _grassmann_stabilized)."""
    if generators is None:
        generators = grassmann_generators(k)
    return _verify_grassmann(k, n, list(generators))


def _verify_grassmann(k: int, n: int, generators) -> bool:
    cn, m = _grassmann_stabilized(k, n)
    h = grassmann_action(k, k)  # coefficient structure only; A unused below
    rows_by_degree: dict = {}
    gens = [parse(g) if isinstance(g, str) else g for g in generators]
    comps = (c for g in gens if not isinstance(g, dict) for c in multilinearize(g))
    if not all(_grassmann_is_identity(c, h, rows_by_degree, k, m)
               for c in comps if 0 < len(variables_of(c)) <= n):
        return False
    rows = basis_size(n, h.s)
    return _span_reaches(list(gens) + _grassmann_structural_identities(k, m), h, n, rows - cn)


# -- growth reports ----------------------------------------------------------------


@dataclass
class GrowthReport:
    degrees: list
    values: list          # codimension per degree, None when skipped
    ratios: list          # successive ratios as Fractions (None at gaps)
    roots: list           # n-th roots, floats for display
    exponent: int | None  # block-linking exponent when available
    exponent_note: str | None = None  # why the exponent is unavailable

    def to_dict(self):
        return {
            "degrees": self.degrees,
            "codimensions": self.values,
            "ratios": [None if r is None else [r.numerator, r.denominator] for r in self.ratios],
            "roots": self.roots,
            "exponent": self.exponent,
            "exponent_note": self.exponent_note,
        }


def growth_report(h: Action, n_max: int) -> GrowthReport:
    degrees = list(range(1, n_max + 1))
    values = []
    for n in degrees:
        try:
            values.append(codimension(h, n))
        except BudgetExceeded:
            values.append(None)
    ratios = []
    roots = []
    for i, n in enumerate(degrees):
        v = values[i]
        prev = values[i - 1] if i else None
        if v is None or (i and prev in (None, 0)):
            ratios.append(None)
        elif i:
            ratios.append(Fraction(v, prev))
        else:
            ratios.append(None)
        roots.append(None if v is None else float(v) ** (1.0 / n))
    exponent = note = None
    if h.A.unit is None:
        note = "the algebra has no unit"
    else:
        try:
            exponent = pi_exponent(h.A)
        except NotSplit as exc:
            note = str(exc)
    return GrowthReport(degrees, values, ratios, roots, exponent, note)


# -- preset generating sets ----------------------------------------------------------


PRESET_GENERATORS = {
    "ut2F": ("w1*x1", "x1*w1", "[x1,x2]*[x3,x4]"),
    "ut2D": ("w2*x1", "x1*w2", "[x1,x2]-[x1,x2,w1]"),
    "ut2C": ("w2*x1", "x1*w2", "[x1,x2]*[x3,x4]", "w1*[x1,x2]", "[x1,x2]*w1"),
    "ut2full": ("w3*x1", "x1*w3", "[x1,x2]-[x1,x2,w1]"),
}


def preset_generators(name: str):
    """Published generating sets for the named actions; tail families are
    represented by their first member (w_i with the smallest index acting
    as zero)."""
    if name in PRESET_GENERATORS:
        return list(PRESET_GENERATORS[name])
    low = name.strip().lower()
    if low.startswith("grassmann_ek"):
        args = name[name.index("(") + 1 : -1] if "(" in name else name.split(":", 1)[1]
        return grassmann_generators(int(args.split(",")[0]))
    raise KeyError(f"no published generating set for {name!r}")
