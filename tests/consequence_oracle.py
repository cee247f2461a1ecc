"""The full-width consequence stream that the quotient spans of
genpi.codim._consequence_blocks replaced, kept as a test oracle: every
degree d spanned in full over all d! * s^(d+1) monomials,

    I_d = span(tau_j E(I_(d-1)), j = 1..d) + S_d C(G_d),

with every extension map, the left ones included, applied to the whole
basis of I_(d-1), and the rows of each degree deduplicated by their
(column, value) pairs."""

from itertools import accumulate, chain

import numpy as np

from genpi._sparserank import SparseIntRowSpace
from genpi.codim import _closure, _extensions, _generator_vectors, _product_tables, _relabellings, _swaps
from genpi.linalg import Subspace
from genpi.polynomials import basis_size, order_ranks


def _spread(rows, maps, news, ncols: int, seen: set):
    """The {column: int} rows through each column map of maps (None for
    the identity) and then each map of order ranks of news, in ncols
    columns, without the rows whose key (their (column, value) pairs in
    column order) is in seen; the keys of the rows kept join it."""
    if not rows:
        return
    S = ncols // len(news[0])
    cols = np.fromiter(chain.from_iterable(rows), dtype=np.intp)
    vals = [x for v in rows for x in v.values()]
    ends = list(accumulate(map(len, rows)))
    for f in maps:
        order, rest = np.divmod(cols if f is None else f.take(cols), S)
        for new in news:
            mapped, a = (new[order] * S + rest).tolist(), 0
            for b in ends:
                key = tuple(sorted(zip(mapped[a:b], vals[a:b])))
                a = b
                if key not in seen:
                    seen.add(key)
                    yield dict(key)


def stream_space(gens, h, n: int) -> SparseIntRowSpace:
    """The span I_n of the degree-n consequences of the generators, built
    in full width degree by degree."""
    tables = _product_tables(h.W)
    by_degree: dict = {}
    for d, vec in _generator_vectors(gens, h):
        if d <= n and vec:
            by_degree.setdefault(d, []).append(vec)
    rows: list = []  # the basis of I_0
    for d in range(1, n + 1):
        ncols, seen = basis_size(d, h.s), set()
        space = SparseIntRowSpace(ncols)
        space.add_rows(_spread(rows, list(_extensions(d, h.s)), _swaps(d), ncols, seen))
        if d in by_degree:
            closure = _closure(by_degree[d], d, ncols, tables)
            space.add_rows(_spread(closure, [None], list(_relabellings(d, order_ranks(d))), ncols, seen))
        rows = space.rows()
    return space


def stream_span(gens, h, n: int) -> Subspace:
    """The canonical Subspace of stream_space."""
    return Subspace.from_space(stream_space(gens, h, n))
