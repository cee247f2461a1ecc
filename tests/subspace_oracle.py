"""The Fraction readers of an RREF that genpi.linalg.Subspace replaced, kept
as test oracles for its integer form: the canonical basis and the
identity kernel, built entry by entry as dense tuples of Fractions from
the integer RREF of a FastIntRowSpace."""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref_basis(space, start: int = 0) -> tuple:
    """The RREF rows of space whose pivot is at column start or later, as
    tuples of Fractions over columns start, start + 1, ..."""
    out = []
    pivots, rows = space.rref()
    for p, row in zip(pivots.tolist(), rows.tolist()):
        if p >= start:
            out.append(tuple(Fraction(v, row[p]) if v else _ZERO for v in row[start:]))
    return tuple(out)


def reversed_kernel(space, scales=None) -> tuple:
    """Canonical basis of the x in Q^n with sum_j row[n - 1 - j] x_j = 0 for
    every row of space, as tuples of Fractions: each free position f of
    the reversed coordinates gives e_f - sum_k (B[k, f] / B[k, p_k])
    e_{p_k}, read back in the original order.  With scales (rationals), the
    basis of the kernel's image under x_j -> scales[j] * x_j, leading
    entries 1."""
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
                i, c = n - 1 - pivots[k], Fraction(-b, int(lead[k]))
                vec[i] = c if scales is None else c * scales[i] / scales[n - 1 - f]
        basis.append(tuple(vec))
    return tuple(basis)
