"""The orbit construction of the Grassmann evaluation rows, kept as a test
oracle for the parity-class matrix of genpi.codim: an independent, slow
build of the evaluation matrix of the k-generator action on the
m-generator truncation, at any level m."""

from itertools import product

import numpy as np

from genpi.algebras import _grassmann_words, _merge_mask, _word_mask
from genpi.codim import _span
from genpi.linalg import reversed_kernel
from genpi.polynomials import enumerate_basis


def compositions(total: int, parts: int, minimums):
    """All tuples of the given length with entries >= minimums summing to
    total, in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = minimums[0]
    rest_min = sum(minimums[1:])
    for first in range(lo, total - rest_min + 1):
        for tail in compositions(total - first, parts - 1, minimums[1:]):
            yield (first,) + tail


def orbit_rows(k: int, m: int, n: int):
    """Rows of the degree-n evaluation matrix of the k-generator action on
    the m-generator truncation, over one representative column per
    relabeling orbit, as {col: +-1} dicts.  Dropping the orbit mates
    preserves both the rank and the left kernel: they are duplicate columns
    up to one global sign.  Only the index words of W are needed, so the
    truncated action itself is never built."""
    wmask = [_word_mask(w) for w in _grassmann_words(k, True)]
    s = len(wmask)
    small = list(range(1, k + 1))
    large = m - k
    # representative assignments: small indices to a slot (1..n) or unused
    # (0); large index counts per slot and unused packed in order
    reps = []
    for small_assign in product(range(n + 1), repeat=k):
        for counts in compositions(large, n + 1, [0] * (n + 1)):
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


def orbit_matrix(k: int, m: int, n: int) -> np.ndarray:
    """orbit_rows as a dense integer array."""
    rows = orbit_rows(k, m, n)
    M = np.zeros((len(rows), 1 + max((c for r in rows for c in r), default=-1)), dtype=np.int64)
    for i, r in enumerate(rows):
        M[i, list(r)] = list(r.values())
    return M


def orbit_rank(k: int, m: int, n: int) -> int:
    M = orbit_matrix(k, m, n)
    return _span([M], M.shape[1]).rank


def orbit_kernel(k: int, m: int, n: int):
    """Left kernel of the orbit-reduced evaluation matrix, the same as that
    of the full one (linalg.reversed_kernel of its reversed columns)."""
    M = orbit_matrix(k, m, n)
    return reversed_kernel(_span([M.T[:, ::-1]], M.shape[0]))
