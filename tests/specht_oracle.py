"""The batch-first layout of the Specht transform, kept as a test oracle
for genpi._specht: the tensors of a batch are stacked along a first axis,
and every table is rebuilt on each call.  It yields the same blocks as
_specht_blocks, row for row."""

from math import factorial

import numpy as np

from genpi._specht import _INT64_LIMIT


def antisymmetrize(X: np.ndarray, columns) -> np.ndarray:
    """X (batch axis first) times the column antisymmetrizer b_T, as
    _specht._antisymmetrize: Alt(p_1..p_k) = Alt(p_1..p_(k-1))
    (1 - sum_(i<k) (p_i p_k)) over the columns of T."""
    for col in columns:
        for k in range(1, len(col)):
            Y = X - np.swapaxes(X, col[0] + 1, col[k] + 1)
            for p in col[1:k]:
                Y -= np.swapaxes(X, p + 1, col[k] + 1)
            X = Y
    return X


def orbit_sums(X: np.ndarray, dim: int, shape) -> np.ndarray:
    """Rows of the tensors X (batch axis first, then the positions, then
    the output axis) summed over the orbits of the row group of T on their
    columns, the orbits found afresh from the sorted index tuples."""
    X = X.reshape(len(X), *(dim ** k for k in shape), dim)
    for axis, k in enumerate(shape, 1):
        if k > 1:
            key = dim ** np.arange(k) @ np.sort(np.indices((dim,) * k).reshape(k, -1), axis=0)
            order = np.argsort(key, kind="stable")
            starts = np.flatnonzero(np.diff(key[order], prepend=-1))
            X = np.add.reduceat(X.take(order, axis=axis), starts, axis=axis)
    return X.reshape(len(X), -1)


def specht_blocks(R: np.ndarray, dims, n: int, shape, perms, size: int):
    """The blocks of _specht._specht_blocks, built with the batch axis
    first."""
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
                T = V[:, a:b].reshape(len(V), *(dim,) * (n + 1))
                X = np.concatenate([T.transpose(0, *(g[q] + 1 for q in range(n)), n + 1) for g in perms[i : i + step]])
                halves.append(orbit_sums(antisymmetrize(X, columns), dim, shape))
            yield np.hstack(halves)
