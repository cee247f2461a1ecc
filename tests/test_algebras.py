"""Structure-constant algebras: builtins, products, ideals, predicates."""

import random
from fractions import Fraction

import pytest

import genpi.algebras as algebras
from genpi.algebras import (
    StructureAlgebra,
    builtin,
    construct_algebra,
    generated_ideal,
    predicates,
    quotient_algebra,
    subalgebra_presentation,
)
from genpi.errors import (
    BadUnit,
    DimensionMismatch,
    GenpiError,
    NotAssociative,
    NotClosed,
    ParentMismatch,
    UnsupportedName,
)
from genpi.linalg import Subspace
from genpi.multipliers import Multiplier


def element(A, **labels):
    coords = [0] * A.dim
    for lab, c in labels.items():
        coords[A.labels.index(lab.replace("_", "{").replace("__", "}"))] = c
    return A.element(coords)


def basis_by_label(A, label):
    return A.basis_element(A.labels.index(label))


def test_field_as_algebra():
    F = construct_algebra(1, ["1"], [[[1]]], unit=[1])
    one = F.unit_element()
    assert one * one == one


def test_ut2_shape_and_unit():
    A = builtin("ut(2)")
    assert A.dim == 3
    assert A.labels == ["e11", "e22", "e12"]
    assert A.unit is not None
    assert A.unit_element() == basis_by_label(A, "e11") + basis_by_label(A, "e22")


def test_non_associative_rejected():
    # 2-dim algebra with b0 a left unit but b0*b1 chosen to break (b0 b0) b1 = b0 (b0 b1)
    sc = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 0]],
    ]
    sc[0][1] = [1, 1]  # b0*b1 = b0 + b1 -> (b0 b0) b1 = b0+b1 but b0 (b0 b1) = b0 + b0 + b1
    with pytest.raises(NotAssociative) as err:
        construct_algebra(2, ["a", "b"], sc)
    assert len(err.value.witness) == 3


def test_bad_unit_rejected():
    with pytest.raises(BadUnit):
        construct_algebra(1, ["1"], [[[1]]], unit=[2])


def test_matrix_unit_products_ut2():
    A = builtin("ut(2)")
    e11, e22, e12 = A.basis_elements()
    assert e11 * e12 == e12
    assert e22 * e12 == A.zero()
    assert e12 * e22 == e12


def test_grassmann_unital_2():
    A = builtin("grassmann_unital(2)")
    assert A.dim == 4
    assert A.labels == ["1", "e1", "e2", "g{1,2}"]
    one, e1, e2, e12 = A.basis_elements()
    assert e1 * e2 == e12
    assert e2 * e1 == -1 * e12
    assert e1 * e1 == A.zero()
    assert A.unit_element() == one


def test_grassmann_dim_and_sign_conventions():
    for m in (1, 2, 3, 4):
        A = builtin(f"grassmann_unital({m})")
        assert A.dim == 2 ** m
        words = [() if lab == "1" else tuple(int(x) for x in lab.strip("eg{}").split(",")) for lab in A.labels]
        rng = random.Random(m)
        for _ in range(30):
            i, j = rng.randrange(A.dim), rng.randrange(A.dim)
            u, v = words[i], words[j]
            prod = A.product_basis(i, j)
            if set(u) & set(v):
                assert prod == ()
            else:
                inv = sum(1 for x in u for y in v if y < x)
                k = next(idx for idx in prod)[0]
                assert words[k] == tuple(sorted(u + v))
                assert prod[0][1] == (-1) ** inv


def test_zero_mult():
    A = builtin("zero_mult(2)")
    assert A.unit is None
    a, b = A.basis_elements()
    assert (a * b).is_zero()


def test_unsupported_name():
    with pytest.raises(UnsupportedName):
        builtin("frobnicate(3)")


def test_name_parser():
    arity = {"ut": 1, "block_ut": "+", "diag_d": 0, "selfaction": "name"}
    good = {" UT(2) ": ("ut", (2,)), "ut:2": ("ut", (2,)), "block_ut(1, 2)": ("block_ut", (1, 2)),
            "diag_D": ("diag_d", ()), "selfaction(ut(2))": ("selfaction", "ut(2)"),
            "selfaction:ut(2)": ("selfaction", "ut(2)")}
    for name, want in good.items():
        assert algebras._parse_name(name, arity, "test name") == want, name
    for name in ("ut(2,3)", "ut(x)", "ut", "ut()", "ut(2", "ut(2,)", "block_ut()", "diag_D(1)", "frob(1)"):
        with pytest.raises(UnsupportedName):
            algebras._parse_name(name, arity, "test name")


def test_parent_mismatch():
    A, B = builtin("ut(2)"), builtin("ut(2)")
    with pytest.raises(ParentMismatch):
        A.basis_element(0) * B.basis_element(0)


@pytest.mark.parametrize(
    "table",
    [{(0, 0): [(5, 1)]}, {(0, 0): [(-1, 1)]}, {(0, 3): [(0, 1)]}, {(-1, 0): [(0, 1)]}],
    ids=["output 5", "output -1", "key (0,3)", "key (-1,0)"],
)
def test_structure_constant_indices_are_checked(table):
    with pytest.raises(DimensionMismatch):
        StructureAlgebra(2, ["a", "b"], table)


def test_regular_reps_of_unit_are_identity():
    A = builtin("ut(2)")
    m = Multiplier.inner(A.unit_element())
    assert m.R == m.L
    assert m.R == A.left_mult_matrix(A.unit)


def test_regular_reps_e12_table():
    # R_{e12}: e11 -> e11*e12 = e12, e22 -> e22*e12 = 0, e12 -> 0
    A = builtin("ut(2)")
    e12 = basis_by_label(A, "e12")
    m = Multiplier.inner(e12)
    assert A.element(m.R.matvec(A._unit_vec(0))) == e12
    assert all(c == 0 for c in m.R.matvec(A._unit_vec(1)))
    assert all(c == 0 for c in m.R.matvec(A._unit_vec(2)))
    # L_{e12}: e22 -> e12*e22 = e12
    assert A.element(m.L.matvec(A._unit_vec(1))) == e12


def test_regular_reps_of_zero():
    A = builtin("mat(2)")
    assert Multiplier.inner(A.zero()).is_zero()


def test_generated_ideal_ut2():
    A = builtin("ut(2)")
    e11, e22, e12 = A.basis_elements()
    only_e12 = generated_ideal(A, [e12])
    assert only_e12 == Subspace.from_vectors(3, [[0, 0, 1]])
    from_e11 = generated_ideal(A, [e11])
    assert from_e11 == Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 1]])


def test_generated_ideal_simple_algebra():
    A = builtin("mat(2)")
    e12 = A.basis_element(A.labels.index("e12"))
    assert generated_ideal(A, [e12]).dim == 4


def test_generated_ideal_idempotent():
    A = builtin("ut(3)")
    ideal = generated_ideal(A, [A.basis_element(0)])
    again = generated_ideal(A, [A.element(list(v)) for v in ideal.basis])
    assert again == ideal


def test_predicates():
    assert predicates(builtin("ut(2)"), "non_degenerate")
    assert not predicates(builtin("zero_mult(2)"), "non_degenerate")
    assert not predicates(builtin("zero_mult(2)"), "idempotent")
    assert predicates(builtin("mat(2)"), "split_simple")
    assert predicates(builtin("mat(2)"), "idempotent")
    assert not predicates(builtin("ut(2)"), "split_simple")
    assert predicates(builtin("ut(2)"), "has_unit")
    assert not predicates(builtin("grassmann(3)"), "has_unit")


def test_unital_implies_non_degenerate():
    for name in ("ut(2)", "ut(3)", "mat(2)", "grassmann_unital(2)", "block_ut(1,2)"):
        assert predicates(builtin(name), "non_degenerate"), name


def test_block_ut_dims():
    A = builtin("block_ut(1,2)")
    assert A.dim == 7
    assert A.unit is not None
    B = builtin("block_ut(2,2)")
    assert B.dim == 4 + 4 + 4


def test_diag_and_sub_builtin():
    D = builtin("diag_D")
    assert D.dim == 2 and D.unit is not None
    C = builtin("sub_C")
    e12 = C.basis_element(1)
    assert (e12 * e12).is_zero()


def test_json_round_trip(tmp_path):
    A = builtin("ut(2)")
    p = tmp_path / "ut2.json"
    A.save(p)
    B = StructureAlgebra.load(p)
    assert B.dim == A.dim and B.labels == A.labels and B.unit == A.unit
    for i in range(A.dim):
        for j in range(A.dim):
            assert B.product_basis(i, j) == A.product_basis(i, j)


def test_subalgebra_presentation_diag():
    A = builtin("ut(2)")
    sub, basis = subalgebra_presentation(A, [A.unit_element(), basis_by_label(A, "e22")], labels=["1", "e22"])
    assert sub.dim == 2 and sub.unit == (Fraction(1), Fraction(0))
    D = builtin("diag_D")
    for i in range(2):
        for j in range(2):
            assert sub.product_basis(i, j) == D.product_basis(i, j)


def test_subalgebra_not_closed():
    # span{e12, e23} in ut(3) is not closed: e12*e23 = e13 leaves the span
    A = builtin("ut(3)")
    with pytest.raises(NotClosed):
        subalgebra_presentation(A, [basis_by_label(A, "e12"), basis_by_label(A, "e23")])


def test_quotient_algebra_ut2_mod_radical():
    A = builtin("ut(2)")
    J = Subspace.from_vectors(3, [[0, 0, 1]])
    Q, proj, lift = quotient_algebra(A, J)
    assert Q.dim == 2
    assert Q.unit is not None
    # the quotient is commutative semisimple F x F
    for i in range(2):
        for j in range(2):
            assert Q.product_basis(i, j) == Q.product_basis(j, i)


def test_quotient_projection_is_algebra_map():
    A = builtin("ut(3)")
    J = Subspace.from_vectors(6, [list(A.basis_element(i).coords) for i in (3, 4, 5)])
    Q, proj, lift = quotient_algebra(A, J)
    rng = random.Random(11)
    for _ in range(10):
        u = [rng.randint(-2, 2) for _ in range(6)]
        v = [rng.randint(-2, 2) for _ in range(6)]
        pu, pv = proj.matvec(u), proj.matvec(v)
        assert proj.matvec(A.multiply_coords(u, v)) == Q.multiply_coords(pu, pv)


def _triple_product(A, i, j, k, left):
    """(b_i b_j) b_k of A when left, else b_i (b_j b_k), as {index: coeff}."""
    out = {}
    if left:
        for m, v in A.product_basis(i, j):
            for n, w in A.product_basis(m, k):
                out[n] = out.get(n, Fraction(0)) + v * w
    else:
        for m, v in A.product_basis(j, k):
            for n, w in A.product_basis(i, m):
                out[n] = out.get(n, Fraction(0)) + v * w
    return {n: v for n, v in out.items() if v != 0}


def _first_failing_triple(A):
    """The associativity oracle: every basis triple in lexicographic order,
    both bracketings multiplied out in Fractions."""
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                if _triple_product(A, i, j, k, True) != _triple_product(A, i, j, k, False):
                    return (i, j, k)
    return None


@pytest.mark.parametrize("seed", range(12))
def test_associativity_check_reports_first_failing_triple(seed):
    _check_first_failing_triple(seed)


@pytest.mark.parametrize("seed", range(12))
def test_associativity_check_reports_first_failing_triple_in_chunks(monkeypatch, seed):
    monkeypatch.setattr(algebras, "ASSOCIATIVITY_CHUNK", 1)  # one i per chunk of the join
    _check_first_failing_triple(seed)


def _check_first_failing_triple(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 5)
    big = 2 ** 40 if seed % 3 == 0 else 1  # beyond int64 once squared and summed
    table = {}
    for i in range(dim):
        for j in range(dim):
            if rng.random() < 0.4:
                table[(i, j)] = [(rng.randrange(dim), Fraction(rng.randint(-2, 2) * big, rng.randint(1, 3)))]
    A = StructureAlgebra(dim, [f"b{i}" for i in range(dim)], table, validate=False)
    want = _first_failing_triple(A)
    if want is None:
        A.validate()
    else:
        with pytest.raises(NotAssociative) as err:
            A.validate()
        assert err.value.witness == want


def test_associativity_check_accepts_associative_algebras():
    for name in ("ut(3)", "grassmann_unital(4)", "block_ut(1,2)", "zero_mult(3)", "diag_d"):
        builtin(name).validate()


def test_associativity_check_finds_a_late_failure():
    # ut(3) with one product disturbed: the failing triples start late in
    # lexicographic order
    A = builtin("ut(3)")
    table = {}
    for i, j, k, v in A.iter_nonzero_constants():
        table.setdefault((i, j), []).append((k, v))
    last = max(table)
    table[last] = [(k, 2 * v) for k, v in table[last]]
    B = StructureAlgebra(A.dim, A.labels, table, validate=False)
    want = _first_failing_triple(B)
    assert want is not None and want > (1, 0, 0)
    with pytest.raises(NotAssociative) as err:
        B.validate()
    assert err.value.witness == want


def test_associativity_is_checked_on_every_triple_of_a_large_algebra():
    # grassmann_unital(7), dimension 128, with one product doubled: a few
    # dozen of its 2,097,152 basis triples fail
    A = builtin("grassmann_unital(7)")
    i, j = A.labels.index("g{1,2,3}"), A.labels.index("g{4,5,6}")
    table = {}
    for p, q, k, v in A.iter_nonzero_constants():
        table.setdefault((p, q), []).append((k, 2 * v if (p, q) == (i, j) else v))
    B = StructureAlgebra(A.dim, A.labels, table, unit=A.unit, validate=False)
    with pytest.raises(NotAssociative) as err:
        B.validate()
    w = err.value.witness
    assert _triple_product(B, *w, True) != _triple_product(B, *w, False)


def test_associativity_check_in_chunks_keeps_its_verdicts(monkeypatch):
    monkeypatch.setattr(algebras, "ASSOCIATIVITY_CHUNK", 1)
    test_associativity_check_accepts_associative_algebras()
    test_associativity_check_finds_a_late_failure()


def test_an_unknown_predicate_is_a_genpi_error():
    with pytest.raises(GenpiError) as info:
        predicates(builtin("ut(2)"), "commutative")
    assert isinstance(info.value, ValueError)
