"""The sparse exact row space against FastIntRowSpace, and the answers of
the consequence engine that runs on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpi._fastrank import FastIntRowSpace
from genpi._sparserank import SparseIntRowSpace
from genpi.actions import grassmann_action, preset_action
from genpi.codim import (
    _generator_vectors,
    consequences_span,
    grassmann_generators,
    in_consequence_span,
    preset_generators,
    verify_generating_set,
    verify_grassmann_generating_set,
)
from genpi.linalg import Subspace


@st.composite
def sparse_feeds(draw):
    """(ncols, groups of integer rows): sparse rows with small, unit and
    beyond-2^63 entries, zero rows, repeats and combinations of earlier
    rows, cut into groups of random sizes."""
    ncols = draw(st.integers(1, 70))
    entry = st.one_of(st.sampled_from([1, -1]), st.integers(-5, 5), st.integers(-2 ** 70, 2 ** 70))
    rows = []
    for _ in range(draw(st.integers(0, 48))):
        kind = draw(st.sampled_from(["sparse", "sparse", "sparse", "zero", "repeat", "combination"]))
        if kind == "zero" or not rows and kind != "sparse":
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-3, 3))
            rows.append([k * x + y for x, y in zip(a, b)])
        else:
            row = [0] * ncols
            for c in draw(st.lists(st.integers(0, ncols - 1), max_size=4)):
                row[c] = draw(entry)
            rows.append(row)
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=5)))
    return ncols, [rows[a:b] for a, b in zip([0, *cuts], [*cuts, len(rows)])]


def _array(rows, ncols):
    big = any(abs(x) >= 1 << 63 for row in rows for x in row)
    return np.array(rows, dtype=object if big else np.int64).reshape(len(rows), ncols)


def _dicts(rows):
    """The rows as {column: int} dicts of their nonzero entries."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


@settings(max_examples=100)
@given(sparse_feeds())
def test_sparse_space_matches_fast_space(feed):
    # dict rows into the sparse space, the same rows as dense blocks into
    # FastIntRowSpace, which is the oracle
    ncols, groups = feed
    sparse, fast = SparseIntRowSpace(ncols), FastIntRowSpace(ncols)
    probe = [[(c * 7 + k) % 5 - 2 for c in range(ncols)] for k in range(3)]
    for rows in groups:
        assert sparse.add_rows(_dicts(rows)) == fast.add_rows(_array(rows, ncols))
        assert sparse.rank == fast.rank
        (ps, rs), (pf, rf) = sparse.rref(), fast.rref()
        assert ps.tolist() == pf.tolist() == sparse.pivots.tolist()
        # the same canonical rows; the number type too, unless the fast
        # space moved to Python integers for its intermediate values
        assert rs.tolist() == rf.tolist()
        assert rs.dtype == rf.dtype or fast.exact
        assert sparse.rows() == _dicts(rf.tolist())
        assert sparse.reduce_rows(_dicts(probe)) == _dicts(fast.reduce_rows(_array(probe, ncols)).tolist())
        assert Subspace.from_space(sparse) == Subspace.from_space(fast)


def test_sparse_subspace_is_written_in_the_narrowest_type():
    space = SparseIntRowSpace(4)
    space.add_rows([{0: 1, 2: 200, 3: 3}, {1: 1, 2: -1}])
    sub = Subspace.from_space(space)
    assert sub.rows.dtype == np.int16
    assert space.rref()[1].dtype == np.int64
    space.add_rows([{2: 2 ** 70, 3: 1}])
    assert space.rref()[1].dtype == object == Subspace.from_space(space).rows.dtype


def test_dict_rows_hold_python_ints():
    # the 2^62 entry scaled by the pivot value 3 would wrap in int64
    space = SparseIntRowSpace(3)
    space.add_rows([{0: 3, 1: 1}])
    (v,) = space.reduce_rows([{0: 1, 1: 2 ** 62, 2: 2}])
    assert v == {1: 3 * 2 ** 62 - 1, 2: 6}


# (verify_generating_set, in_consequence_span of each target of the degree)
# on the preset generating sets; the Grassmann rows verify with
# verify_grassmann_generating_set and test membership on grassmann_action(k, k)
TARGETS = {
    1: ["w1*x1", "x1*w2"],
    2: ["[x1,x2]", "w1*[x1,x2]"],
    3: ["[x1,x2]*x3", "[x1,x2,x3]"],
    4: ["[x1,x2]*[x3,x4]", "[x1,x2]*x3*x4"],
}
ANSWERS = {
    ("ut2F", 1): [True, True, True],
    ("ut2F", 2): [True, False, True],
    ("ut2F", 3): [True, False, False],
    ("ut2F", 4): [True, True, False],
    ("ut2D", 1): [True, False, True],
    ("ut2D", 2): [True, False, True],
    ("ut2D", 3): [True, False, False],
    ("ut2D", 4): [True, True, False],
    ("ut2C", 1): [True, False, True],
    ("ut2C", 2): [True, False, True],
    ("ut2C", 3): [True, False, False],
    ("ut2C", 4): [True, True, False],
    ("ut2full", 1): [True, False, False],
    ("ut2full", 2): [True, False, True],
    ("ut2full", 3): [True, False, False],
    ("ut2full", 4): [True, True, False],
    (1, 4): [True, False, False],  # Grassmann, k = 1
    (2, 3): [True, False, True],  # Grassmann, k = 2
}


def _case_id(case):
    name, n = case
    return f"{name}-{n}" if isinstance(name, str) else f"grassmann{name}-{n}"


@pytest.mark.parametrize("case", list(ANSWERS), ids=_case_id)
def test_consequence_answers_are_unchanged(case):
    name, n = case
    if isinstance(name, int):
        k = name
        h, gens = grassmann_action(k, k), grassmann_generators(k)
        verdict = verify_grassmann_generating_set(k, n)
    else:
        h, gens = preset_action(name), preset_generators(name)
        verdict = verify_generating_set(gens, h, n)
    assert [verdict, *(in_consequence_span(p, gens, h, n) for p in TARGETS[n])] == ANSWERS[case]


@pytest.mark.parametrize("case", [case for case in ANSWERS if case[1] <= 3], ids=_case_id)
def test_membership_matches_the_consequence_span(case):
    # refuted by an evaluation row or streamed, each answer is that of the
    # whole span
    name, n = case
    if isinstance(name, int):
        h, gens = grassmann_action(name, name), grassmann_generators(name)
    else:
        h, gens = preset_action(name), preset_generators(name)
    span = consequences_span(gens, h, n)
    for p in TARGETS[n]:
        vecs = _generator_vectors([p], h)  # empty for a target of tail words alone
        vec = vecs[0][1] if vecs else {}
        assert in_consequence_span(p, gens, h, n) is span.contains_vector(
            [vec.get(i, 0) for i in range(span.ambient_dim)]
        ), p
