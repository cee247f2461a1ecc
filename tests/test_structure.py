"""Radical, Wedderburn-Malcev decomposition, blocks, PI exponent."""

import pytest
from fractions import Fraction

from genpi.algebras import StructureAlgebra, builtin, quotient_algebra, subspace_product
from genpi.linalg import Subspace
from genpi.structure import (
    jacobson_radical,
    multiplier_radical_invariance,
    pi_exponent,
    wedderburn_malcev,
)

FIVE = ("ut(2)", "ut(3)", "mat(2)", "grassmann_unital(2)", "block_ut(1,2)")


def test_wm_with_a_large_structure_constant():
    # f1^2 = N f1, f2^2 = f2, unit f1/N + f2: the rational-root search of
    # the block split divides constants near N, so it must not trial-divide
    # up to them
    N = 10 ** 12
    A = StructureAlgebra(2, ["f1", "f2"], {(0, 0): [(0, N)], (1, 1): [(1, 1)]}, unit=[Fraction(1, N), 1])
    wm = wedderburn_malcev(A)
    assert wm.radical.dim == 0
    assert wm.blocks == [Subspace.from_vectors(2, [[0, 1]]), Subspace.from_vectors(2, [[1, 0]])]


def test_radical_ut2():
    assert jacobson_radical(builtin("ut(2)")) == Subspace.from_vectors(3, [[0, 0, 1]])


def test_radical_simple_is_zero():
    assert jacobson_radical(builtin("mat(2)")).dim == 0


def test_radical_grassmann_unital_2():
    J = jacobson_radical(builtin("grassmann_unital(2)"))
    assert J == Subspace.from_vectors(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_radical_of_nilpotent_is_everything():
    assert jacobson_radical(builtin("grassmann(3)")).dim == 7
    assert jacobson_radical(builtin("zero_mult(2)")).dim == 2


def test_radical_of_quotient_is_zero():
    for name in FIVE:
        A = builtin(name)
        J = jacobson_radical(A)
        quot, _, _ = quotient_algebra(A, J)
        assert jacobson_radical(quot).dim == 0, name


def test_wm_ut2():
    A = builtin("ut(2)")
    wm = wedderburn_malcev(A)
    assert wm.semisimple_complement == Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    assert wm.radical.dim == 1
    assert sorted(b.dim for b in wm.blocks) == [1, 1]


def test_wm_block_ut_1_2():
    A = builtin("block_ut(1,2)")
    wm = wedderburn_malcev(A)
    assert wm.radical.dim == 2
    assert sorted(b.dim for b in wm.blocks) == [1, 4]
    assert wm.semisimple_complement.dim == 5


def test_wm_simple():
    wm = wedderburn_malcev(builtin("mat(2)"))
    assert wm.radical.dim == 0
    assert len(wm.blocks) == 1 and wm.blocks[0].dim == 4


def test_wm_complement_is_subalgebra():
    for name in FIVE:
        A = builtin(name)
        wm = wedderburn_malcev(A)
        assert wm.semisimple_complement.dim + wm.radical.dim == A.dim, name
        B = wm.semisimple_complement
        for u in B.basis:
            for v in B.basis:
                assert B.contains_vector(A.multiply_coords(list(u), list(v))), name


def test_wm_blocks_pairwise_annihilate():
    for name in FIVE:
        A = builtin(name)
        wm = wedderburn_malcev(A)
        for i, bi in enumerate(wm.blocks):
            for j, bj in enumerate(wm.blocks):
                prod = subspace_product(A, bi, bj)
                if i == j:
                    assert prod == bi or prod.dim <= bi.dim
                else:
                    assert prod.dim == 0, name


def test_wm_nonunital_partial_semisimple():
    # span{e11, e12} in ut(2): radical e12, complement F e11
    from genpi.algebras import subalgebra_presentation

    A0 = builtin("ut(2)")
    sub, _ = subalgebra_presentation(
        A0, [A0.basis_element(0), A0.basis_element(2)], labels=["e11", "e12"]
    )
    assert sub.unit is None
    wm = wedderburn_malcev(sub)
    assert wm.radical == Subspace.from_vectors(2, [[0, 1]])
    assert wm.semisimple_complement == Subspace.from_vectors(2, [[1, 0]])
    assert len(wm.blocks) == 1


def test_pi_exponent_values():
    assert pi_exponent(builtin("ut(2)")) == 2
    assert pi_exponent(builtin("ut(3)")) == 3
    assert pi_exponent(builtin("mat(2)")) == 4
    assert pi_exponent(builtin("grassmann_unital(2)")) == 1
    assert pi_exponent(builtin("diag_D")) == 1  # F + F: no radical links


def test_pi_exponent_ut_n():
    for n in (2, 3, 4):
        assert pi_exponent(builtin(f"ut({n})")) == n


def test_pi_exponent_block_ut_1_2():
    # blocks F and M_2 linked through the radical: 1 + 4
    assert pi_exponent(builtin("block_ut(1,2)")) == 5


def test_multiplier_radical_invariance():
    for name in FIVE:
        assert multiplier_radical_invariance(builtin(name)), name
    assert multiplier_radical_invariance(builtin("grassmann(3)"))
