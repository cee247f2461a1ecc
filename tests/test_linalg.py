"""Exact linear algebra substrate: rank, kernels, canonical subspaces."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genpi import _fastrank
from genpi._fastrank import FastIntRowSpace
from genpi._sparserank import SparseIntRowSpace
from genpi.errors import DimensionMismatch, GenpiError
from genpi.linalg import (
    RatMatrix,
    Subspace,
    _row_space,
    int_rows,
    left_kernel_basis,
    rank,
    reversed_kernel,
    solve_right,
    solve_right_many,
    subspace_ops,
)

import subspace_oracle


def naive_rref(rows):
    """Independent textbook reduced row echelon over Fractions (test oracle)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return [row for row in rows if any(x != 0 for x in row)]


def naive_rank(rows):
    return len(naive_rref(rows))


def test_rank_identity():
    assert rank(RatMatrix.identity(3)) == 3


def test_rank_all_ones():
    assert rank(RatMatrix.from_rows([[1, 1], [1, 1]])) == 1


def test_rank_hand_elimination():
    # rows (1,2),(2,4),(0,1): second is twice the first -> rank 2
    m = RatMatrix.from_rows([[1, 2], [2, 4], [0, 1]])
    assert m.rank() == 2
    assert naive_rank([[1, 2], [2, 4], [0, 1]]) == 2


def test_left_kernel_identity_is_zero():
    assert left_kernel_basis(RatMatrix.identity(3)).dim == 0


def test_left_kernel_zero_matrix_is_full():
    k = left_kernel_basis(RatMatrix.zeros(2, 3))
    assert k == Subspace.full(2)


def test_left_kernel_repeated_row():
    k = left_kernel_basis(RatMatrix.from_rows([[1, 0], [1, 0]]))
    assert k.basis == ((Fraction(1), Fraction(-1)),)


def test_subspace_sum_of_axes():
    e1 = Subspace.from_vectors(3, [[1, 0, 0]])
    e2 = Subspace.from_vectors(3, [[0, 1, 0]])
    s = subspace_ops(e1, e2, "sum")
    assert s == Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])


def test_subspace_intersection():
    a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    assert subspace_ops(a, b, "intersection") == Subspace.from_vectors(3, [[0, 1, 0]])


def test_full_space_contains_everything():
    full = Subspace.full(4)
    rng = random.Random(7)
    vecs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] for _ in range(3)]
    assert subspace_ops(full, Subspace.from_vectors(4, vecs), "contains")


def test_subspace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace.full(2).sum(Subspace.full(3))


def test_rank_equals_transpose_rank_randomized():
    rng = random.Random(20240901)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)]
        m = RatMatrix.from_rows(rows)
        assert m.rank() == m.transpose().rank() == naive_rank(rows)


def test_kernel_dim_plus_rank_is_rows():
    rng = random.Random(99)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        m = RatMatrix.from_rows(rows)
        k = m.left_kernel_basis()
        assert k.dim + m.rank() == nr
        # every kernel vector annihilates the matrix
        for v in k.basis:
            assert all(x == 0 for x in m.vecmat(v))


def test_canonical_form_is_basis_independent():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        s = Subspace.from_vectors(n, vecs)
        # apply a random invertible change of generating set
        mixed = []
        for _ in range(k + 2):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
            mixed.append([sum(c * Fraction(v[j]) for c, v in zip(coeffs, vecs)) for j in range(n)])
        s2 = Subspace.from_vectors(n, mixed)
        assert s.contains(s2)
        if s2.dim == s.dim:
            assert s.basis == s2.basis


def test_modular_law_of_dimensions():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 6)
        a = Subspace.from_vectors(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))])
        b = Subspace.from_vectors(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))])
        assert a.dim + b.dim == a.sum(b).dim + a.intersection(b).dim


def test_solve_right():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    x = solve_right(m, [5, 6])
    assert x is not None
    assert m.matvec(x) == [Fraction(5), Fraction(6)]
    assert solve_right(RatMatrix.from_rows([[1, 0], [2, 0]]), [1, 1]) is None


def test_rref_matches_oracle_randomized():
    rng = random.Random(123)
    for _ in range(20):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        s = Subspace.from_vectors(nc, rows)
        oracle = naive_rref(rows)
        assert [list(b) for b in s.basis] == oracle


# -- the elimination kernel against the naive_rref oracle ------------------------


def naive_kernel(rows, ncols):
    """Canonical basis of {x : rows x = 0}, from naive_rref."""
    rref = naive_rref(rows) if rows else []
    pivots = [next(c for c, x in enumerate(r) if x != 0) for r in rref]
    vectors = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, p in zip(rref, pivots):
            x[p] = -r[f]
        vectors.append(x)
    return naive_rref(vectors)


def _random_rows(rng, nr, nc, big=4):
    """Random rational rows with some dependent rows and columns."""
    rows = [[Fraction(rng.randint(-big, big), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)
             for _ in range(nc)] for _ in range(nr)]
    if nr > 1 and rng.random() < 0.5:
        rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
    if nc > 1 and rng.random() < 0.5:
        for r in rows:
            r[-1] = 3 * r[0] - r[1]
    return rows


def test_kernels_match_oracle_randomized():
    rng = random.Random(604)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_rows(rng, nr, nc)
        m = RatMatrix.from_rows(rows)
        assert [list(b) for b in m.right_kernel_basis().basis] == naive_kernel(rows, nc)
        cols = [list(c) for c in zip(*rows)]
        assert [list(b) for b in left_kernel_basis(m).basis] == naive_kernel(cols, nr)


def test_solve_right_matches_oracle_randomized():
    rng = random.Random(605)
    consistent = inconsistent = 0
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_rows(rng, nr, nc)
        m = RatMatrix.from_rows(rows)
        targets, wants = [], []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:  # a target in the column space
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(nc)]
                target = [sum(c * x for c, x in zip(coeffs, r)) for r in rows]
            else:
                target = [Fraction(rng.randint(-3, 3)) for _ in range(nr)]
            rref = naive_rref([r + [t] for r, t in zip(rows, target)])
            pivots = [next(c for c, x in enumerate(r) if x != 0) for r in rref]
            if nc in pivots:
                inconsistent += 1
                want = None
            else:
                consistent += 1
                want = [Fraction(0)] * nc
                for r, p in zip(rref, pivots):
                    want[p] = r[-1]
            assert solve_right(m, target) == want
            targets.append(target)
            wants.append(want)
        # all the targets against one reduction: each solved as if alone
        assert solve_right_many(m, targets) == wants
    assert consistent and inconsistent


def test_subspace_operations_match_oracle_randomized():
    rng = random.Random(606)
    for _ in range(30):
        n = rng.randint(1, 6)
        u = _random_rows(rng, rng.randint(1, n), n)
        v = _random_rows(rng, rng.randint(1, n), n)
        a, b = Subspace.from_vectors(n, u), Subspace.from_vectors(n, v)
        assert [list(x) for x in a.sum(b).basis] == naive_rref(u + v)
        # Zassenhaus on the oracle: rows of RREF[U|U; V|0] with zero left block
        zass = naive_rref([r + r for r in u] + [r + [Fraction(0)] * n for r in v])
        want = naive_rref([r[n:] for r in zass if not any(r[:n])])
        assert [list(x) for x in a.intersection(b).basis] == want
        assert a.contains(b) is (naive_rank(u + v) == naive_rank(u))


def test_subspace_membership_loads_the_space_once(monkeypatch):
    # contains, coordinates and contains_vector share one FastIntRowSpace
    # per Subspace; sum, which adds rows, loads its own each time
    loads = []
    from_rref = FastIntRowSpace.from_rref.__func__

    def counted(cls, pivots, rows):
        loads.append(len(pivots))
        return from_rref(cls, pivots, rows)

    monkeypatch.setattr(FastIntRowSpace, "from_rref", classmethod(counted))
    rng = random.Random(608)
    for big in (False, True):
        n = 6
        rows = _big_rows(rng, 4, n) if big else _random_rows(rng, 3, n)
        space = _row_space(rows, n)
        a = Subspace.from_space(space)
        basis = subspace_oracle.rref_basis(space)
        other = Subspace.from_vectors(n, _random_rows(rng, 2, n))
        loads.clear()
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in basis]
            vec = [sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(n)]
            assert a.coordinates(vec) == coeffs and a.contains_vector(vec)
            outside = [Fraction(x) for x in vec]
            free = next((j for j in range(n) if j not in a.pivots.tolist()), None)
            if free is not None:
                outside[free] += 1
                assert a.coordinates(outside) is None and not a.contains_vector(outside)
            assert a.contains(other) is (naive_rank(rows + [list(r) for r in other.basis]) == naive_rank(rows))
        assert len(loads) == 1
        assert [list(x) for x in a.sum(other).basis] == naive_rref(rows + [list(r) for r in other.basis])
        assert a.sum(other) == a.sum(other) and len(loads) == 4
        # the kept space still reads the basis alone
        assert a.contains(Subspace.from_vectors(n, basis)) and len(loads) == 4


def test_rank_with_entries_up_to_2_70():
    rng = random.Random(607)
    for _ in range(20):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.choice([0, rng.randint(-3, 3), rng.randint(-2 ** 70, 2 ** 70)]) for _ in range(nc)]
                for _ in range(nr)]
        if nr > 2:
            rows[-1] = [x + 2 ** 69 * y - z for x, y, z in zip(rows[0], rows[1], rows[2])]
        m = RatMatrix.from_rows(rows)
        assert m.rank() == m.transpose().rank() == naive_rank(rows)


def test_basis_grows_without_a_temporary():
    # 512 unit rows of width 4096: the last growth copies the 256-row basis
    # (8 MiB) into a 512-row one (16 MiB); a zero block concatenated on
    # would be 8 MiB more
    rows = np.eye(512, 4096, dtype=np.int64)
    tracemalloc.start()
    try:
        space = FastIntRowSpace(4096)
        space.add_rows(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.rank == 512
    assert peak < 26 * 2 ** 20


@pytest.mark.parametrize("big", [False, True], ids=["int64", "beyond 2^52"])
def test_residual_reduced_against_the_new_rows_only(big):
    # the streamed membership of in_consequence_span: a {column: int} row
    # reduced when the rank was k, reduced again after more rows joined,
    # equals the row reduced against the whole basis (both primitive
    # positive multiples of one remainder), and it is empty iff the row
    # lies in the span
    rng = random.Random(91)
    scale = 2 ** 60 if big else 1
    for _ in range(10):
        nc = rng.randint(4, 12)
        rows = [[rng.randint(-3, 3) * scale for _ in range(nc)] for _ in range(rng.randint(4, 40))]
        target = {c: x for c in range(nc) if (x := rng.randint(-3, 3))}
        space, residual = SparseIntRowSpace(nc), target
        for i in range(0, len(rows), 5):
            space.add_rows({c: x for c, x in enumerate(row) if x} for row in rows[i:i + 5])
            (residual,) = space.reduce_rows([residual])
            assert [residual] == space.reduce_rows([target])
        full = [target.get(c, 0) for c in range(nc)]
        assert bool(residual) == (naive_rank([*rows, full]) > naive_rank(rows))


# -- block insertion: each BLOCK-row group joins the basis at once -----------------


def _rref_of(space):
    """The RREF rows of a FastIntRowSpace as Fractions, in pivot order."""
    pivots, rows = space.rref()
    return [[Fraction(x, int(row[p])) for x in row.tolist()] for p, row in zip(pivots.tolist(), rows)]


def _group_rows(rng, nr, nc):
    """Random sparse integer rows with assorted leading columns; some are
    combinations of two earlier rows of their own 16-row group."""
    rows = []
    for i in range(nr):
        start = i - i % 16
        if i - start >= 2 and rng.random() < 0.3:
            a, b = rng.sample(range(start, i), 2)
            rows.append([rng.randint(-2, 2) * x + rng.randint(1, 2) * y for x, y in zip(rows[a], rows[b])])
        else:
            lead = rng.randrange(nc)
            rows.append([0] * lead + [rng.randint(-5, 5) if rng.random() < 0.4 else 0 for _ in range(nc - lead)])
    return rows


def test_block_insertion_matches_oracle_randomized():
    # whole 16-row groups: the pivots a group adds sit at physical positions
    # both inside r..r+k-1 and past it before the exchange moves them there
    rng = random.Random(1416)
    inside = past = 0
    for _ in range(8):
        nc = rng.randint(17, 64)
        rows = _group_rows(rng, 16 * rng.randint(2, 3), nc)
        space = FastIntRowSpace(nc)
        for i in range(0, len(rows), 16):
            r, layout = space.rank, space._col.copy()
            space.add_rows(np.array(rows[i:i + 16], dtype=np.int64))
            where = np.flatnonzero(np.isin(layout, space.pivots[r:]))
            inside += int((where < space.rank).sum())
            past += int((where >= space.rank).sum())
        assert _rref_of(space) == naive_rref(rows)
    assert inside and past


def test_exchange_carries_the_rows_a_block_misses():
    # the new pivot, column 3, moves to position 1, where the basis row
    # e0 + e1 it misses holds its entry of column 1: that entry moves to
    # position 3 and position 1 is left zero
    rows = [[1, 1, 0, 0, 0], [0, 0, 0, 1, 0]]
    space = FastIntRowSpace(5)
    for row in rows:
        space.add_rows(np.array([row], dtype=np.int64))
    assert _rref_of(space) == naive_rref(rows)


def test_block_insertion_moves_to_python_integers():
    big = 2 ** 27
    # in the group's own elimination: both rows have their pivot in column 0
    rows = [[big + 1, big - 3, 0, 1], [big - 1, big + 5, 1, 0]]
    space = FastIntRowSpace(4)
    space.add_rows(np.array(rows, dtype=np.int64))
    assert space.exact and _rref_of(space) == naive_rref(rows)
    # in the clearing product: the new pivot in column 1 is cleared from the
    # basis row, which is the only row it hits
    rows = [[1, big + 1, 0, 3], [0, big - 1, 5, 7]]
    space = FastIntRowSpace(4)
    space.add_rows(np.array(rows[:1], dtype=np.int64))
    assert not space.exact
    space.add_rows(np.array(rows[1:], dtype=np.int64))
    assert space.exact and _rref_of(space) == naive_rref(rows)


def test_group_size_leaves_the_echelon_unchanged():
    # rows whose rank grows slowly, fed 1, 7, 16 and 33 at a time
    rng = random.Random(1417)
    nc = 40
    base = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(28)]
    rows = []
    for i in range(132):
        picks = [(rng.randint(1, 2), b) for b in rng.sample(base[: min(28, i // 4 + 1)], min(3, i // 4 + 1))]
        rows.append([sum(a * b[j] for a, b in picks) for j in range(nc)])
    results = {}
    for size in (1, 7, 16, 33):
        space, ranks = FastIntRowSpace(nc), {}
        for i in range(0, len(rows), size):
            space.add_rows(np.array(rows[i:i + size], dtype=np.int64))
            ranks[min(i + size, len(rows))] = space.rank
        pivots, echelon = space.rref()
        results[size] = (space.pivots.tolist(), pivots.tolist(), echelon.tolist()), ranks
    (one, ranks_one) = results[1]
    assert ranks_one[len(rows)] == naive_rank(rows) > 20
    for size, (echelon, ranks) in results.items():
        assert echelon == one
        assert all(ranks_one[n] == rank for n, rank in ranks.items())



def _layouts(rows):
    """The integer rows as arrays of every memory layout and dtype a caller
    feeds: C and F order, a transposed view, negative strides (E.T[:, ::-1],
    as _left_kernel feeds), int8, int64 and Python integers."""
    A = np.array(rows, dtype=np.int64)
    return {
        "C order": A,
        "F order": np.asfortranarray(A),
        "transposed view": np.ascontiguousarray(A.T).T,
        "negative stride": np.ascontiguousarray(A[:, ::-1])[:, ::-1],
        "reversed transpose": np.ascontiguousarray(A[:, ::-1].T).T[:, ::-1],
        "int8": A.astype(np.int8),
        "object": A.astype(object),
    }


_small_matrices = st.integers(1, 24).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=1, max_size=40)
)


@given(_small_matrices)
def test_layout_and_dtype_leave_the_echelon_unchanged(rows):
    want = naive_rref(rows)
    for way, X in _layouts(rows).items():
        space = FastIntRowSpace(len(rows[0]))
        space.add_rows(X)
        assert _rref_of(space) == want, way


def test_a_block_of_unit_entries_is_not_made_primitive_whole(monkeypatch):
    # 16 rows of +-1 entries, unit upper triangular in their first 16
    # columns, so 16 pivots of value 1: the a-priori bound (a + top) * top
    # of the clearings runs 1, 2, 6, 42, 1806, 3.3 M past _GROWTH, but no
    # entry of the block grows past 2^14 and no call makes it primitive
    rng = random.Random(1418)
    nc = 40
    rows = [[0] * i + [1] + [rng.choice([-1, 1]) for _ in range(nc - i - 1)] for i in range(16)]
    sizes = []
    primitive = _fastrank._primitive
    monkeypatch.setattr(_fastrank, "_primitive", lambda X: (sizes.append(len(X)), primitive(X))[1])
    space = FastIntRowSpace(nc)
    space.add_rows(np.array(rows, dtype=np.int64))
    assert space.rank == 16 and _rref_of(space) == naive_rref(rows)
    assert all(size == 1 for size in sizes)


@pytest.mark.parametrize("scale", [2 ** 20, 2 ** 26, 2 ** 52], ids=["2^20", "2^26", "2^52"])
def test_entries_near_the_thresholds_stay_exact(scale):
    # entries about _GROWTH, the size at which the float64 bound of a
    # clearing passes 2^52, and _LIMIT itself, some rows combinations of
    # earlier ones
    rng = random.Random(scale % 1019)
    for _ in range(6):
        nc = rng.randint(2, 20)
        rows = []
        for _ in range(rng.randint(2, 36)):
            if len(rows) >= 2 and rng.random() < 0.3:
                a, b = rng.sample(rows, 2)
                rows.append([x - y for x, y in zip(a, b)])
            else:
                rows.append([rng.choice([0, rng.randint(-3, 3), scale + rng.randint(-3, 3),
                                         -scale + rng.randint(-3, 3)]) for _ in range(nc)])
        space = FastIntRowSpace(nc)
        space.add_rows(np.array(rows, dtype=np.int64))
        assert _rref_of(space) == naive_rref(rows)

def test_clearing_a_block_from_the_whole_basis_is_chunked():
    # 1008 basis rows of width 3072 (capacity 1024), every one hit by the 16
    # pivots of the next block: the touched rows at once would be a 16 MiB
    # temporary, and the clearing product another
    nc, r = 3072, 1008
    rows = np.zeros((r, nc), dtype=np.int64)
    rows[:, :r] = np.eye(r, dtype=np.int64)
    rows[:, r:r + 16] = 1
    tracemalloc.start()
    try:
        space = FastIntRowSpace(nc)
        space.add_rows(rows)
        tracemalloc.reset_peak()
        space.add_rows(np.eye(16, nc, r, dtype=np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.rank == r + 16
    assert not space.reduce_rows(np.eye(1, nc, dtype=np.int64)).any()
    assert peak < space._B.nbytes + 8 * 2 ** 20


# -- Subspace's integer form against the Fraction readers it replaced ------------


def _check_form(sub, basis):
    """sub holds the integer form of the canonical basis given as Fraction
    tuples: pivots, primitive rows positive at their pivot and zero at the
    other pivots, in the narrowest integer type; its basis is the given one."""
    pivots = [next(c for c, x in enumerate(v) if x) for v in basis]
    assert sub.pivots.tolist() == pivots and sub.dim == len(basis)
    rows = sub.rows.tolist()
    assert sub.rows.shape == (len(basis), sub.ambient_dim)
    for row, vec, p in zip(rows, basis, pivots):
        assert row[p] > 0 and math.gcd(*row) == 1
        assert [Fraction(x, row[p]) for x in row] == list(vec)
    top = max((abs(x) for row in rows for x in row), default=0)
    want = next((t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max), object)
    assert sub.rows.dtype == np.dtype(want)
    assert sub.basis == basis


def _big_rows(rng, nr, nc):
    """Random integer rows, some entries past 2^63 and some rows dependent."""
    rows = [[rng.choice([0, 0, rng.randint(-5, 5), rng.randint(-2 ** 70, 2 ** 70)]) for _ in range(nc)]
            for _ in range(nr)]
    if nr > 2:
        rows[-1] = [x - 3 * y + 2 ** 66 * z for x, y, z in zip(*rows[:3])]
    return rows


@pytest.mark.parametrize("big", [False, True], ids=["small", "past 2^63"])
def test_subspace_form_matches_fraction_oracle(big):
    rng = random.Random(1501)
    for _ in range(30):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = _big_rows(rng, nr, nc) if big else _random_rows(rng, nr, nc)
        space = _row_space(rows, nc)
        sub = Subspace.from_space(space)
        _check_form(sub, subspace_oracle.rref_basis(space))
        assert sub.basis == tuple(map(tuple, naive_rref(rows)))
        again = Subspace.from_vectors(nc, sub.basis)
        assert again == sub and hash(again) == hash(sub)


def test_subspace_form_past_int64():
    # an RREF entry of 2^64 + 1 keeps the rows as Python integers; a
    # multiple of that space reads the same
    vec = [1, 2 ** 64 + 1, 0]
    sub = Subspace.from_vectors(3, [vec])
    assert sub.rows.dtype == object and sub.rows.tolist() == [vec]
    assert sub == Subspace.from_vectors(3, [[Fraction(x, 7) for x in vec]])
    _check_form(sub, ((Fraction(1), Fraction(2 ** 64 + 1), Fraction(0)),))


def _random_scales(rng, n, big):
    top = 2 ** 70 if big else 6
    return [Fraction(rng.randint(1, top), rng.randint(1, top)) for _ in range(n)]


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("big", [False, True], ids=["small", "past 2^63"])
def test_reversed_kernel_matches_fraction_oracle(scaled, big):
    rng = random.Random(1502 + 2 * big + scaled)
    for _ in range(30):
        nr, nc = rng.randint(1, 7), rng.randint(1, 8)
        rows = _big_rows(rng, nr, nc) if big else _random_rows(rng, nr, nc)
        space = _row_space(rows, nc)
        scales = _random_scales(rng, nc, big) if scaled else None
        parts = None if scales is None else ([x.numerator for x in scales], [x.denominator for x in scales])
        kernel = reversed_kernel(space, parts)
        _check_form(kernel, subspace_oracle.reversed_kernel(space, scales))
        # the kernel of the reversed rows, scaled, from the naive oracle
        want = naive_kernel([r[::-1] for r in naive_rref(rows)], nc)
        if scales is not None:
            want = naive_rref([[x * c for x, c in zip(v, scales)] for v in want])
        assert [list(v) for v in kernel.basis] == want


def test_equal_spaces_are_equal_across_constructors():
    # one kernel as reversed_kernel, from_vectors of its basis, from_space of
    # a mixed generating set, and the sum and intersection that give it back
    rng = random.Random(1503)
    for _ in range(20):
        nr, nc = rng.randint(1, 5), rng.randint(2, 8)
        rows = _random_rows(rng, nr, nc)
        kernel = reversed_kernel(_row_space(rows, nc))
        basis = [list(v) for v in kernel.basis]
        coeffs = [[rng.randint(-2, 2) for _ in basis] for _ in range(len(basis) + 2)]
        mixed = [[sum(c * v[j] for c, v in zip(cs, basis)) for j in range(nc)] for cs in coeffs]
        mixed += [[3 * x for x in v] for v in basis]
        same = [
            Subspace.from_vectors(nc, basis),
            Subspace.from_space(_row_space(mixed[::-1], nc)),
            kernel.sum(Subspace.zero(nc)),
            kernel.intersection(Subspace.full(nc)),
            Subspace.full(nc).intersection(kernel),
        ]
        for sub in same:
            assert sub == kernel and hash(sub) == hash(kernel)
        assert len({kernel, *same}) == 1
        if kernel.dim:
            assert kernel != Subspace.zero(nc) and kernel != Subspace.from_vectors(nc, basis[1:])


def test_empty_cases():
    assert Subspace.from_vectors(0, []) == Subspace.full(0) == Subspace.zero(0)
    assert Subspace.full(0).basis == () and Subspace.full(0).dim == 0
    kernel = RatMatrix.zeros(0, 3).right_kernel_basis()
    assert kernel.dim == 3 and kernel == Subspace.full(3)
    assert RatMatrix.zeros(3, 0).right_kernel_basis() == Subspace.zero(0)
    assert solve_right(RatMatrix.zeros(2, 0), [0, 0]) == []
    assert solve_right(RatMatrix.zeros(2, 0), [1, 0]) is None
    a = Subspace.from_vectors(3, [[1, 2, 3]])
    assert a.sum(Subspace.zero(3)) == a and a.intersection(Subspace.zero(3)) == Subspace.zero(3)
    assert a.contains(Subspace.zero(3)) and not Subspace.zero(3).contains(a)
    assert a.coordinates([2, 4, 6]) == [Fraction(2)] and a.coordinates([0, 0, 1]) is None


def test_space_from_rref_reduces_as_the_eliminated_one():
    rng = random.Random(1504)
    for big in (False, True):
        for _ in range(15):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            rows = _big_rows(rng, nr, nc) if big else _random_rows(rng, nr, nc)
            space = _row_space(rows, nc)
            loaded = FastIntRowSpace.from_rref(*space.rref())
            assert loaded.rank == space.rank
            for got, want in zip(loaded.rref(), space.rref()):
                assert got.tolist() == want.tolist()
            probe = int_rows([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(4)], nc)
            assert loaded.reduce_rows(probe).tolist() == space.reduce_rows(probe).tolist()
            extra = int_rows(_random_rows(rng, 3, nc), nc)
            loaded.add_rows(extra)
            assert loaded.rref()[1].tolist() == _row_space(rows + extra.tolist(), nc).rref()[1].tolist()


def test_rref_rows_are_int64_until_exact():
    space = _row_space([[1, 2, 0], [0, 3, 5]], 3)
    assert not space.exact and space.rref()[1].dtype == np.int64
    space = _row_space([[1, 2 ** 60, 0], [0, 3, 5]], 3)
    assert space.exact and space.rref()[1].dtype == object


def test_a_float_entry_is_a_genpi_error():
    with pytest.raises(GenpiError) as info:
        Subspace.from_vectors(2, [[0.5, 1]])
    assert isinstance(info.value, TypeError)


def test_an_unknown_subspace_operation_is_a_genpi_error():
    with pytest.raises(GenpiError) as info:
        subspace_ops(Subspace.full(2), Subspace.zero(2), "union")
    assert isinstance(info.value, ValueError)
