"""Multiplier algebra: constraint solving, canonical map, permutability."""

import pytest
from fractions import Fraction

from genpi.algebras import builtin, subalgebra_presentation
from genpi.errors import DimensionMismatch
from genpi.linalg import RatMatrix
from genpi.multipliers import (
    Multiplier,
    inner_ideal_check,
    inner_multiplier_map,
    is_multiplier,
    multiplier_algebra,
    multiplier_violation,
    permutability_check,
)


def strictly_upper_ut3():
    A = builtin("ut(3)")
    vecs = [A.basis_element(A.labels.index(lab)) for lab in ("e12", "e23", "e13")]
    sub, _ = subalgebra_presentation(A, vecs, labels=["e12", "e23", "e13"])
    return sub


def sympy_multiplier_dim(A):
    """Independent oracle: assemble the constraint system symbol by symbol
    and take a sympy nullspace."""
    import sympy

    d = A.dim
    R = sympy.Matrix(d, d, lambda i, j: sympy.Symbol(f"r{i}_{j}"))
    L = sympy.Matrix(d, d, lambda i, j: sympy.Symbol(f"l{i}_{j}"))
    def mult(u, v):
        out = [sympy.Integer(0)] * d
        for i in range(d):
            for j in range(d):
                if u[i] == 0 or v[j] == 0:
                    continue
                for k, c in A.product_basis(i, j):
                    out[k] += u[i] * v[j] * sympy.Rational(c.numerator, c.denominator)
        return sympy.Matrix(d, 1, out)
    eqs = []
    for i in range(d):
        for j in range(d):
            bi = sympy.Matrix(d, 1, lambda r, _: 1 if r == i else 0)
            bj = sympy.Matrix(d, 1, lambda r, _: 1 if r == j else 0)
            prod = mult(bi, bj)
            eqs.extend(list(R * prod - mult(bi, R * bj)))
            eqs.extend(list(L * prod - mult(L * bi, bj)))
            eqs.extend(list(mult(R * bi, bj) - mult(bi, L * bj)))
    unknowns = list(R) + list(L)
    mat = sympy.Matrix([[sympy.diff(e, u) for u in unknowns] for e in eqs])
    return len(mat.nullspace())


def test_inner_pair_is_multiplier():
    A = builtin("ut(2)")
    e12 = A.basis_element(2)
    m = Multiplier.inner(e12)
    assert is_multiplier(A, m.R, m.L)


def test_broken_pair_has_witness():
    A = builtin("ut(2)")
    L = Multiplier.inner(A.basis_element(2)).L
    w = multiplier_violation(A, RatMatrix.identity(3), L)
    assert w == ("R(a)b=aL(b)", 0, 0)


def test_witness_is_the_first_failing_law():
    # (law, i, j): the first basis pair (i, j) in order, and within it the
    # laws in the order right, left, link
    ut2, mat2, grass = builtin("ut(2)"), builtin("mat(2)"), builtin("grassmann_unital(2)")
    e11, e12 = Multiplier.inner(ut2.basis_element(0)), Multiplier.inner(mat2.basis_element(1))
    g1 = Multiplier.inner(grass.basis_element(1))
    cases = [
        (ut2, e11.R, RatMatrix.identity(3), ("R(a)b=aL(b)", 1, 1)),
        (ut2, e11.L, e11.R, ("L(ab)=L(a)b", 0, 2)),
        (mat2, e12.L, e12.R, ("L(ab)=L(a)b", 0, 0)),
        (mat2, RatMatrix.identity(4).scale(2), RatMatrix.identity(4), ("R(a)b=aL(b)", 0, 0)),
        (grass, g1.L, g1.R, ("L(ab)=L(a)b", 0, 2)),
        (grass, g1.R, g1.L, None),
        (grass, RatMatrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, Fraction(1, 2)]]),
         RatMatrix.identity(4), ("R(ab)=aR(b)", 1, 0)),
        (builtin("zero_mult(2)"), RatMatrix.from_rows([[1, 2], [3, 4]]), RatMatrix.zeros(2, 2), None),
    ]
    for A, R, L, want in cases:
        assert multiplier_violation(A, R, L) == want, (A, want)


def test_operators_must_be_d_by_d():
    A = builtin("ut(2)")
    eye, wide = RatMatrix.identity(3), RatMatrix.zeros(3, 4)
    for R, L in ((wide, eye), (eye, wide), (RatMatrix.identity(2), eye)):
        with pytest.raises(DimensionMismatch):
            Multiplier(A, R, L)
        with pytest.raises(DimensionMismatch):
            multiplier_violation(A, R, L)


def test_trivial_algebra_all_pairs_are_multipliers():
    A = builtin("zero_mult(1)")
    R = RatMatrix.from_rows([[5]])
    L = RatMatrix.from_rows([[-7]])
    assert is_multiplier(A, R, L)


def test_multiplier_algebra_of_unital_matches_dim():
    for name in ("ut(2)", "mat(2)", "grassmann_unital(2)"):
        A = builtin(name)
        MA = multiplier_algebra(A)
        assert MA.dim == A.dim, name


def test_multiplier_algebra_zero_mult():
    # every operator pair qualifies: dim = 2 * d^2
    MA = multiplier_algebra(builtin("zero_mult(1)"))
    assert MA.dim == 2
    MA2 = multiplier_algebra(builtin("zero_mult(2)"))
    assert MA2.dim == 8


GOLDEN_STRICTLY_UPPER_UT3_DIM = 7  # frozen from the sympy constraint solve


def test_multiplier_algebra_nilpotent_golden():
    sub = strictly_upper_ut3()
    MA = multiplier_algebra(sub)
    assert MA.dim == GOLDEN_STRICTLY_UPPER_UT3_DIM
    assert sympy_multiplier_dim(sub) == GOLDEN_STRICTLY_UPPER_UT3_DIM


def test_product_closure_and_unit():
    A = builtin("ut(2)")
    MA = multiplier_algebra(A)
    SA = MA.as_structure_algebra()  # validates associativity and unit
    assert SA.dim == 3


def test_canonical_map_unital_bijective():
    for name in ("ut(2)", "grassmann_unital(2)"):
        A = builtin(name)
        matrix, kernel, injective, surjective = inner_multiplier_map(A)
        assert injective and surjective, name


def test_canonical_map_zero_mult_is_zero():
    A = builtin("zero_mult(2)")
    matrix, kernel, injective, surjective = inner_multiplier_map(A)
    assert kernel.dim == 2 and not injective
    assert matrix.is_zero()


def test_canonical_map_is_homomorphism():
    A = builtin("ut(2)")
    MA = multiplier_algebra(A)
    for i in range(A.dim):
        for j in range(A.dim):
            mi = Multiplier.inner(A.basis_element(i))
            mj = Multiplier.inner(A.basis_element(j))
            prod_elt = A.basis_element(i) * A.basis_element(j)
            assert mi.mul(mj) == Multiplier.inner(prod_elt)


def test_inner_ideal():
    for name in ("ut(2)", "zero_mult(2)", "grassmann(3)"):
        ok, witness = inner_ideal_check(builtin(name))
        assert ok, (name, witness)


def test_nontrivial_multipliers_of_nilpotent_grassmann():
    A = builtin("grassmann(3)")
    MA = multiplier_algebra(A)
    assert MA.dim > A.dim  # strictly more multipliers than inner ones


def test_permutability():
    for name in ("ut(2)", "grassmann_unital(2)", "mat(2)"):
        ok, _ = permutability_check(builtin(name))
        assert ok, name
    ok, witness = permutability_check(builtin("zero_mult(2)"))
    assert not ok and witness is not None


def test_multiplier_permutes_with_inner():
    # any multiplier pair permutes with any inner pair
    for name in ("ut(2)", "grassmann(3)", "zero_mult(2)"):
        A = builtin(name)
        MA = multiplier_algebra(A)
        for m in MA.basis:
            for i in range(A.dim):
                mu = Multiplier.inner(A.basis_element(i))
                assert m.R.matmul(mu.L) == mu.L.matmul(m.R), name
                assert mu.R.matmul(m.L) == m.L.matmul(mu.R), name
