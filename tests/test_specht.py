"""The Specht transform of genpi._specht: its cached shape tables against
brute force, its blocks against the batch-first oracle, and its
Python-integer fallback."""

from collections import defaultdict
from itertools import product
from math import factorial, prod

import numpy as np
import pytest
import sympy

from genpi import _specht
from genpi._specht import _orbits, _partitions, _standard_permutations, isotypic_blocks
from genpi.actions import preset_action, shared_family_presentations
from genpi.codim import _chunk_rows, _master_span, codimension, variety_contains
from specht_oracle import specht_blocks
from test_codim import ut2d_in_basis


@pytest.mark.parametrize("dim, k", list(product(range(1, 5), range(1, 5))))
def test_orbits_group_the_tuples_of_one_multiset(dim, k):
    order, starts = _orbits(dim, k)
    tuples = list(product(range(dim), repeat=k))  # C order of k axes of length dim
    groups = [sorted(order[a:b].tolist()) for a, b in zip(starts.tolist(), [*starts[1:].tolist(), len(order)])]
    expected = defaultdict(list)
    for i, t in enumerate(tuples):
        expected[tuple(sorted(t))].append(i)
    assert sorted(order.tolist()) == list(range(dim ** k))
    assert groups == [expected[key] for key in sorted(expected, key=lambda t: t[::-1])]


def hook_length_dimension(shape) -> int:
    conj = [sum(1 for k in shape if k > j) for j in range(shape[0])]
    return factorial(sum(shape)) // prod(k - j + conj[j] - i - 1 for i, k in enumerate(shape) for j in range(k))


@pytest.mark.parametrize("n", range(1, 8))
def test_standard_permutations_are_the_standard_tableaux(n):
    for shape in _partitions(n, n):
        perms = _standard_permutations(shape)
        assert len(set(perms)) == len(perms) == hook_length_dimension(shape), shape
        cells = [(i, j) for i, k in enumerate(shape) for j in range(k)]
        for g in perms:
            assert sorted(g) == list(range(n))
            entry = dict(zip(cells, g))
            assert all(entry[i, j] < entry[i, j + 1] for i, j in cells if (i, j + 1) in entry), (shape, g)
            assert all(entry[i, j] < entry[i + 1, j] for i, j in cells if (i + 1, j) in entry), (shape, g)


def test_cached_tables_are_read_only():
    assert isinstance(_standard_permutations((3, 2)), tuple)
    for table in _orbits(3, 2):
        with pytest.raises(ValueError):
            table[0] = 1


def single_generators(h, n):
    return _master_span((h,), n, h.A.dim ** (n + 1)), (h.A.dim,)


def joint_generators(hA, hB, n):
    return _master_span((hA, hB), n, hA.A.dim ** (n + 1) + hB.A.dim ** (n + 1)), (hA.A.dim, hB.A.dim)


DENSE_UNIMODULAR = sympy.Matrix([[2, 1, 1], [1, 1, 1], [1, 1, 2]])


@pytest.mark.parametrize("case", ["ut2F-6", "ut2full-5", "ut2D-dense-basis-4", "ut2full+ut2D-4"])
def test_blocks_match_batch_first_oracle(case):
    if case == "ut2F-6":
        n, (R, dims) = 6, single_generators(preset_action("ut2F"), 6)
    elif case == "ut2full-5":
        n, (R, dims) = 5, single_generators(preset_action("ut2full"), 5)
    elif case == "ut2D-dense-basis-4":
        n, (R, dims) = 4, single_generators(ut2d_in_basis(DENSE_UNIMODULAR), 4)
    else:
        n, (R, dims) = 4, joint_generators(*shared_family_presentations("ut2full", "ut2D"), 4)
    cols = sum(dim ** (n + 1) for dim in dims)
    for size in (_chunk_rows(cols), 7):  # one batch, and many small ones
        for shape, d, ncols, blocks in isotypic_blocks(R, dims, n, size):
            perms = _standard_permutations(shape)
            assert d == len(perms)
            expected = list(specht_blocks(R, dims, n, shape, perms, size))
            got = list(blocks)
            assert len(got) == len(expected), (shape, size)
            for X, Y in zip(got, expected):
                assert X.shape == (len(X), ncols) and np.array_equal(X, Y), (shape, size)


def test_python_integer_fallback_keeps_the_answers(monkeypatch):
    # the module generators are primitive RREF rows with entries of at most
    # 1 in absolute value here, so a limit of 1 sends every block to Python
    # integers (a limit of 2^10 would reach none below degree 7)
    monkeypatch.setattr(_specht, "_INT64_LIMIT", 1)
    dtypes = set()
    orbit_sums = _specht._orbit_sums

    def spy(X, dim, shape):
        dtypes.add(X.dtype)
        return orbit_sums(X, dim, shape)

    monkeypatch.setattr(_specht, "_orbit_sums", spy)
    ut2F, ut2D = preset_action("ut2F"), preset_action("ut2D")
    assert [codimension(ut2F, n) for n in range(1, 7)] == [2 ** (n - 1) * (n - 2) + 2 for n in range(1, 7)]
    assert [codimension(ut2D, n) for n in range(1, 6)] == [3, 6, 14, 34, 82]
    hA, hB = shared_family_presentations("ut2full", "ut2D")
    assert variety_contains(hA, hB, 4)
    assert not variety_contains(hB, hA, 4)
    assert np.dtype(object) in dtypes
