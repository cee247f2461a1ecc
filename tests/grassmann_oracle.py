"""Two test oracles for the parity-class matrix of genpi.codim.

The orbit construction of the Grassmann evaluation rows: an independent,
slow build of the evaluation matrix of the k-generator action on the
m-generator truncation, at any level m.

The all-orders gather builder (parity_class_matrix): the parity-class
matrix written out in full, every variable order by its own sign-table
gathers, with no use of the S_n action on the classes.
"""

from itertools import permutations, product

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


def sign_table(letters: int) -> np.ndarray:
    """sgn[u, v] for the words u and v over the given number of letters, as
    bitmasks (bit i - 1 for e_i): 0 when they share a letter, else the sign
    (-1)^#{a in u, b in v : a > b} that sorts the product uv (int8)."""
    m = np.arange(1 << letters)
    odd = np.zeros(len(m), dtype=np.int8)  # parity of the number of letters
    for a in range(letters):
        odd ^= (m >> a & 1).astype(np.int8)
    swaps = np.zeros((len(m), len(m)), dtype=np.int8)  # parity of the inversions
    for a in range(letters):
        swaps ^= (m >> a & 1).astype(np.int8)[:, None] & odd[m & (1 << a) - 1]
    return np.where(m[:, None] & m, 0, 1 - 2 * swaps).astype(np.int8)


def parity_classes(k: int, n: int):
    """(slots, held) of the parity classes at degree n: each of e_1..e_k
    goes to one slot 1..n or to none, and slot i holds those letters, then
    e_(k+i) when its parity is odd.  Row c of slots holds the masks of the
    n slot words of class c, and held[c] the mask of its letters among
    e_1..e_k."""
    assign = np.array(list(product(range(n + 1), repeat=k)))
    small = ((assign[:, :, None] == np.arange(1, n + 1)) << np.arange(k)[:, None]).sum(axis=1)
    odd = np.array(list(product((0, 1), repeat=n))) << k + np.arange(n)
    return (small[:, None] | odd).reshape(-1, n), np.repeat(small.sum(axis=1), len(odd))


def parity_class_matrix(k: int, n: int) -> np.ndarray:
    """The degree-n parity-class matrix of the k-generator action, all n!
    variable orders gathered at once.  Rows are the monomials in
    enumerate_basis order; columns are the pairs (class, output word), the
    output holding every letter of the class, class by class and outputs
    ascending.  Entry: the sign of the product w_0 u_s(1) w_1 ... u_s(n) w_n
    of the basis words, u_i the word of slot i, taken factor by factor from
    the sign table (sign *= sgn[acc, f]; acc |= f) on all monomials of one
    class at a time."""
    wm = np.array([_word_mask(w) for w in _grassmann_words(k, True)])
    s = len(wm)
    slots, held = parity_classes(k, n)
    outputs = np.arange(1 << k)
    has = outputs & held[:, None] == held[:, None]
    col = np.cumsum(has).reshape(has.shape) - 1  # column of (class, output) where has
    sgn = sign_table(k + n)
    perms = np.array(list(permutations(range(n))))
    rows = len(perms) * s ** (n + 1)
    M = np.zeros((rows, int(has.sum())), dtype=np.int8)
    ones = (1,) * (n + 1)
    for c, U in enumerate(slots):
        # axes: permutation, coefficient slots 0..n
        acc, sign = wm.reshape(1, s, *ones[1:]), 1
        for t in range(n):
            for f in (U[perms[:, t]].reshape(len(perms), *ones),
                      wm.reshape(1, *ones[: t + 1], s, *ones[t + 2 :])):
                sign, acc = sign * sgn[acc, f], acc | f
        out = acc.reshape(rows) & (1 << k) - 1
        M[np.arange(rows), col[c, out]] = sign.reshape(rows)
    return M
