"""S_n-isotypic components of the row space of a stack of tensors.

A degree-n evaluation row is a tensor with n position axes and one output
axis, and S_n acts on it by permuting the position axes.  isotypic_blocks
gives, one partition lambda of n at a time, rows whose rank is the
multiplicity of the simple module of lambda in the module that a set of
such tensors generates; the lemma is in its docstring.  The rows come from
standard tableaux and symmetrizers applied to the tensors as numpy axis
operations, in int64 or, past a magnitude bound, Python integers.

The tensors of a batch are stacked along a last axis, after the n position
axes and the output axis, so that every axis swap and orbit sum moves
whole runs of the batch and numpy's inner loops run over the batch, not
over an axis of length dim.

Two tables depend on the shape alone and are computed once per process
(functools.cache): the standard permutations of a partition, and the
orbits of S_k on the index tuples of k axes of length dim.  The first
holds d_lambda tuples of length n per partition lambda that some call
transformed; the second holds at most 2 dim^k integers per (dim, k), and
dim^k <= dim^n <= MAX_DENSE_COLUMNS / dim by the width guard on the
dim^(n+1) columns that codimension and variety_contains apply before they
get here.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, prod

import numpy as np

_INT64_LIMIT = 1 << 63


def _partitions(n: int, parts: int, top: int | None = None):
    """The partitions of n into at most parts parts (each at most top), as
    tuples of decreasing parts."""
    if n == 0:
        yield ()
    elif parts:
        for k in range(min(n, top or n), 0, -1):
            for rest in _partitions(n - k, parts - 1, k):
                yield (k, *rest)


@cache
def _standard_permutations(shape: tuple) -> tuple:
    """sigma_T' for the standard tableaux T' of the shape, where
    sigma_T' T = T' for the row-reading tableau T (row i holds the next
    shape[i] of the positions 0..n-1): as tuples g with g[i] = sigma_T'(i),
    the entry of T' in the cell where T holds i."""
    cells = [(i, j) for i, k in enumerate(shape) for j in range(k)]
    lengths, at, out = [0] * len(shape), {}, []

    def fill(entry):
        if entry == len(cells):
            out.append(tuple(at[c] for c in cells))
        for i, k in enumerate(shape):
            if lengths[i] < k and (i == 0 or lengths[i - 1] > lengths[i]):
                at[i, lengths[i]] = entry
                lengths[i] += 1
                fill(entry + 1)
                lengths[i] -= 1

    fill(0)
    return tuple(out)


@cache
def _orbits(dim: int, k: int) -> tuple:
    """(order, starts): the dim^k index tuples of k axes of length dim, in
    C order, grouped by the multiset of their indices; order lists the
    tuples orbit by orbit, in increasing order of the sorted tuple read in
    base dim, and starts holds where each orbit begins in order.  Both
    arrays are read-only, as the cache shares them."""
    # the index tuples of the k axes, sorted, read in base dim
    key = dim ** np.arange(k) @ np.sort(np.indices((dim,) * k).reshape(k, -1), axis=0)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    order.flags.writeable = starts.flags.writeable = False
    return order, starts


def _antisymmetrize(X: np.ndarray, columns) -> np.ndarray:
    """X (a stack of tensors with the batch axis last) times the column
    antisymmetrizer b_T, the columns of T given as lists of positions:
    Alt(p_1..p_k) = Alt(p_1..p_(k-1)) (1 - sum_(i<k) (p_i p_k)), and the
    transposition (p q) swaps the axes of positions p and q."""
    for col in columns:
        for k in range(1, len(col)):
            Y = X - np.swapaxes(X, col[0], col[k])
            for p in col[1:k]:
                Y -= np.swapaxes(X, p, col[k])
            X = Y
    return X


def orbit_width(dim: int, shape) -> int:
    """Columns of one tensor of _orbit_sums: a multiset of indices per row
    of T, and the output index."""
    return dim * prod(comb(dim + k - 1, k) for k in shape)


def _orbit_sums(X: np.ndarray, dim: int, shape) -> np.ndarray:
    """Rows of the tensors X (the positions, then the output axis, then the
    batch axis) summed over the orbits of the row group of T on their
    columns (_orbits): the consecutive axes of each row of T become one
    axis over the multisets of their indices.  One row per tensor of the
    batch, in its order."""
    batch = X.shape[-1]
    X = X.reshape(*(dim ** k for k in shape), dim, batch)
    for axis, k in enumerate(shape):
        if k > 1:
            order, starts = _orbits(dim, k)
            X = np.add.reduceat(X.take(order, axis=axis), starts, axis=axis)
    return X.reshape(-1, batch).T


def _specht_blocks(R: np.ndarray, dims, n: int, shape, perms, size: int):
    """Dense blocks of the rows (v sigma) b_T a_T, v over the rows of R and
    sigma over perms, in orbit columns (_orbit_sums).  R is split into
    consecutive tensors of widths dim^(n+1), one per dim in dims, and each
    is transformed on its own.  A block holds at most size rows; its
    entries are int64 when n! times the largest |entry| of its rows of R is
    below 2^63, as no entry is a sum of more than |R_T| |C_T| <= n! terms."""
    ends = np.cumsum([dim ** (n + 1) for dim in dims]).tolist()
    first = np.cumsum((0, *shape[:-1])).tolist()
    columns = [[p + j for p, k in zip(first, shape) if k > j] for j in range(shape[0])]
    for start in range(0, len(R), size):
        V = R[start : start + size]
        if V.dtype != object and factorial(n) * int(np.abs(V).max()) >= _INT64_LIMIT:
            V = V.astype(object)
        step = max(1, size // len(V))
        for i in range(0, len(perms), step):
            halves = []
            for dim, a, b in zip(dims, [0, *ends], ends):
                T = V[:, a:b].T.reshape(*(dim,) * (n + 1), len(V))
                X = np.concatenate([T.transpose(*g, n, n + 1) for g in perms[i : i + step]], axis=-1)
                halves.append(_orbit_sums(_antisymmetrize(X, columns), dim, shape))
            yield np.hstack(halves)


def isotypic_blocks(R: np.ndarray, dims, n: int, size: int):
    """(lambda, d_lambda, ncols, blocks) for the partitions lambda of n with
    at most max(dims) parts, in turn: the rank of the rows of the blocks,
    ncols wide, is the multiplicity m_lambda of the simple module of lambda
    in the module U generated by the rows of R, so
    dim U = sum_lambda d_lambda m_lambda.  The rows of R are tensors side
    by side, one of width dim^(n+1) per dim in dims, and so are the rows
    of the blocks, one of width orbit_width(dim, lambda) per dim; blocks
    hold at most size rows (_specht_blocks).

    Lemma.  Let v.g be the tensor v with its position axes transposed by
    g in S_n: axis i of v.g is axis g(i) of v (numpy's
    v.transpose(*g, n, n + 1), the output axis and then the batch axis
    last).  Then (v.g).h = v.(gh) for the product (gh)(i) = g(h(i)), a
    right action; the rows of the evaluation matrix (codim.py) are the m.g
    for its master rows m, so they span the right
    Q[S_n]-module U generated by the masters, or by any basis of their
    span, such as R.  (The anti-action, transposing by g^-1, gives other
    numbers: 15, 42, 105 for ut2F at n = 4, 5, 6, where c_n is 18, 50, 130.)
    For lambda |- n let T be the row-reading tableau, a_T the sum of its row
    group R_T and b_T the signed sum of its column group C_T.  Then
    e = b_T a_T is a quasi-idempotent (e^2 = (n!/d_lambda) e) and eQ[S_n] is
    the simple right module of lambda, so U is the sum over lambda of
    m_lambda copies of it, m_lambda = dim U.e and
    dim U = sum_lambda d_lambda m_lambda.  U.e is spanned by the v.x for
    the rows v of R and x in the left ideal Q[S_n]e, whose basis is the
    sigma_T' e over the standard tableaux T' with sigma_T' T = T' (the
    standard polytabloids: Sagan, The Symmetric Group, 2nd ed., 2001,
    2.5-2.6).  So m_lambda is the rank of the (v.sigma_T').b_T.a_T.  The
    axes have length dim, and b_T antisymmetrizes the axes of each column
    of T: a column longer than dim gives zero, so only lambda with at most
    dim parts occur (Schur-Weyl).  A sum over the group of positions
    p_1..p_k factors through cosets, Sym_k = Sym_(k-1) (1 + sum_(i<k)
    (p_i p_k)), and with signs so does the signed sum: b_T costs O(n^2)
    axis swaps, not |C_T| (_antisymmetrize).  a_T comes last, so y = w.a_T
    is constant on the orbits of R_T on the columns: y[u] is |Stab(u)|
    times the sum of w over the orbit of u.  Keeping one column per orbit,
    that orbit sum, changes neither the rank nor which combinations of rows
    vanish on the columns of one tensor, and costs one pass per row of T
    where a_T would cost O(n^2) (_orbit_sums).

    Containment.  With two tensors side by side ([X_A | X_B], dims of two
    actions) S_n acts on both at once, and the projection p of U onto the
    A columns is a module map.  Its kernel K is a submodule, and a nonzero
    one has K.e != 0 for some lambda (a simple module eQ[S_n] holds e^2,
    a nonzero multiple of e).  As K.e lies in K and in U.e, p is injective
    iff it is injective on every U.e: iff, for every lambda, the row
    space of the blocks has a pivot only among the columns of the first
    tensor, when a row pivots at its first nonzero column."""
    for shape in _partitions(n, max(dims)):
        perms = _standard_permutations(shape)
        ncols = sum(orbit_width(dim, shape) for dim in dims)
        yield shape, len(perms), ncols, _specht_blocks(R, dims, n, shape, perms, size)
