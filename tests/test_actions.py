"""Actions, effective images, semidirect products, invariant ideals."""

import pytest
from fractions import Fraction

from genpi.algebras import LinOp, StructureAlgebra, builtin, regular_reps
from genpi.errors import BasisMismatch, NotPermutable, NotSplit, UnitMismatch, UnsupportedName
from genpi.linalg import RatMatrix, Subspace
from genpi.multipliers import Multiplier
from genpi.actions import (
    Action,
    action_from_dict,
    action_from_subalgebra,
    effective_image,
    grassmann_action,
    is_w_simple,
    make_action,
    preset_action,
    semidirect_product,
    semisimple_part_action,
    shared_family_presentations,
    w_ideal_generated,
)
from genpi.structure import jacobson_radical, wedderburn_malcev

PRESETS = ("ut2F", "ut2D", "ut2C", "ut2full")


def test_preset_actions_validate():
    # action_from_subalgebra leaves the pair checks to the associativity of
    # A; run explicitly, they still pass
    for name in PRESETS:
        h = preset_action(name)
        assert h.s == {"ut2F": 1, "ut2D": 2, "ut2C": 2, "ut2full": 3}[name]
        h.validate()
    grassmann_action(1, 4).validate()


def test_subalgebra_unit_checked_at_every_size():
    A = builtin("ut(8)")
    assert A.dim == 36
    e11 = A.basis_element(A.labels.index("e11"))
    with pytest.raises(UnitMismatch):
        action_from_subalgebra(A, [e11], labels=["e11"])


def test_ordinary_scalar_action():
    A = builtin("grassmann_unital(2)")
    h = action_from_subalgebra(A, [A.unit_element()], labels=["1"])
    assert h.s == 1


def test_invalid_permutability_detected():
    # on a trivial-product algebra every pair is a multiplier and the pair
    # (n, p) of square-zero operators is multiplicative over a square-zero
    # W, but n and p do not commute
    A = builtin("zero_mult(2)")
    W = builtin("zero_mult(1)")
    n = LinOp(RatMatrix.from_rows([[0, 1], [0, 0]]))
    p = LinOp(RatMatrix.from_rows([[0, 0], [1, 0]]))
    with pytest.raises(NotPermutable):
        make_action(W, A, [(n, p)])


def test_effective_image_ut2d():
    h = preset_action("ut2D")
    eff = effective_image(h)
    assert eff.image_algebra.dim == 2
    D = builtin("diag_D")
    for i in range(2):
        for j in range(2):
            assert eff.image_algebra.product_basis(i, j) == D.product_basis(i, j)


def test_effective_image_ordinary():
    h = preset_action("ut2F")
    assert effective_image(h).image_algebra.dim == 1


def test_effective_image_grassmann():
    h = grassmann_action(1, 4)
    eff = effective_image(h)
    assert eff.image_algebra.dim == 2


def test_action_round_trips_image_presentation():
    # image of the full action presents the algebra in the acting basis
    # (1, e22, e12); hand multiplication table below
    h = preset_action("ut2full")
    eff = effective_image(h)
    assert eff.image_algebra.dim == 3
    one = Fraction(1)
    expected = {
        (0, 0): ((0, one),), (0, 1): ((1, one),), (0, 2): ((2, one),),
        (1, 0): ((1, one),), (1, 1): ((1, one),), (1, 2): (),
        (2, 0): ((2, one),), (2, 1): ((2, one),), (2, 2): (),
    }
    for (i, j), terms in expected.items():
        assert eff.image_algebra.product_basis(i, j) == terms


def test_radical_is_invariant_for_all_presets():
    for name in PRESETS:
        h = preset_action(name)
        J = jacobson_radical(h.A)
        for m in h.pairs:
            for v in J.basis:
                assert J.contains_vector(m.R.apply(list(v))), name
                assert J.contains_vector(m.L.apply(list(v))), name


def test_blocks_invariant_modulo_radical():
    for name in PRESETS:
        h = preset_action(name)
        wm = wedderburn_malcev(h.A)
        J = wm.radical
        for blk in wm.blocks:
            tgt = blk.sum(J)
            for m in h.pairs:
                for v in blk.basis:
                    assert tgt.contains_vector(m.R.apply(list(v))), name
                    assert tgt.contains_vector(m.L.apply(list(v))), name


def test_semisimple_part_of_ut2c_is_scalar():
    h = preset_action("ut2C")
    ss, holds = semisimple_part_action(h)
    assert holds  # the image radical is inner over the radical of A
    eff = effective_image(ss)
    assert eff.image_algebra.dim == 1
    assert ss.pairs[0] == Multiplier.identity(h.A)
    assert ss.pairs[1].is_zero()


def test_semisimple_part_of_ut2d_unchanged():
    h = preset_action("ut2D")
    ss, _ = semisimple_part_action(h)
    assert ss.pairs == h.pairs


def test_semisimple_part_of_full_is_diagonal():
    h = preset_action("ut2full")
    ss, holds = semisimple_part_action(h)
    assert holds
    assert effective_image(ss).image_algebra.dim == 2
    assert ss.pairs[2].is_zero()


def test_semidirect_ut2d():
    h = preset_action("ut2D")
    sd, maps = semidirect_product(h)
    assert sd.dim == 5
    assert sd.unit is not None
    # unit is (1_W, 0)
    assert list(sd.unit)[:2] == list(effective_image(h).image_algebra.unit)
    assert all(c == 0 for c in list(sd.unit)[2:])
    # pi1 . i1 = id
    assert maps["pi1"].matmul(maps["i1"]) == RatMatrix.identity(2)


def test_semidirect_ordinary_ut2():
    A = builtin("ut(2)")
    h = preset_action("ut2F")
    sd, _ = semidirect_product(h)
    assert sd.dim == 4


def test_semidirect_zero_mult_trivial_action():
    A = builtin("zero_mult(1)")
    F = builtin("ut(1)")  # the field
    pairs = [Multiplier.identity(A)]
    h = make_action(F, A, pairs)
    sd, _ = semidirect_product(h)
    assert sd.dim == 2
    assert sd.unit is not None and sd.unit[0] == 1 and sd.unit[1] == 0


def test_semidirect_embeds_a_as_invariant_ideal():
    for name in PRESETS:
        h = preset_action(name)
        sd, maps = semidirect_product(h)
        k = sd.dim - h.A.dim
        ind = maps["induced_action"]
        emb = Subspace.from_vectors(
            sd.dim, [[1 if r == k + i else 0 for r in range(sd.dim)] for i in range(h.A.dim)]
        )
        gen = w_ideal_generated(ind, [sd.basis_element(k + i) for i in range(h.A.dim)])
        assert emb.contains(gen) and gen.dim == h.A.dim
        # product table inside the embedded copy matches A
        for i in range(h.A.dim):
            for j in range(h.A.dim):
                prod = sd.product_basis(k + i, k + j)
                assert prod == tuple((k + t, c) for t, c in h.A.product_basis(i, j))
        # induced action restricted to the copy matches the original pairs
        for wi in range(h.W.dim):
            for i in range(h.A.dim):
                img = ind.pairs[wi].L.apply(sd._unit_vec(k + i))
                assert img[k:] == list(h.pairs[wi].L.apply(h.A._unit_vec(i)))
                assert all(c == 0 for c in img[:k])


def test_w_ideal_generated():
    h = preset_action("ut2D")
    A = h.A
    assert w_ideal_generated(h, [A.basis_element(2)]) == Subspace.from_vectors(3, [[0, 0, 1]])
    assert w_ideal_generated(h, [A.basis_element(0)]).dim == 2  # e11: span{e11, e12}


def test_is_w_simple():
    M = builtin("mat(2)")
    full = action_from_subalgebra(M, M.basis_elements(), labels=list(M.labels))
    assert is_w_simple(full)
    for name in PRESETS:
        assert not is_w_simple(preset_action(name)), name
    Z = builtin("zero_mult(2)")
    W1 = builtin("ut(1)")
    triv = make_action(W1, Z, [Multiplier.identity(Z)])
    assert not is_w_simple(triv)  # squares to zero


# Q(i), i*i = -1, and Q(i) x Q(i): semisimple but not split over Q
QI = {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)], (1, 1): [(0, -1)]}
QI2 = {**QI, **{(a + 2, b + 2): [(k + 2, c) for k, c in v] for (a, b), v in QI.items()}}


@pytest.mark.parametrize(
    "dim, labels, table, unit, simple",
    [
        (2, ["1", "i"], QI, (1, 0), True),  # a field
        (4, ["1a", "ia", "1b", "ib"], QI2, (1, 0, 1, 0), False),  # (1, 0) spans a proper ideal
    ],
    ids=["Q(i)", "Q(i)xQ(i)"],
)
def test_is_w_simple_non_split(dim, labels, table, unit, simple):
    A = StructureAlgebra(dim, labels, table, unit=unit)
    with pytest.raises(NotSplit):  # so is_w_simple takes the experimental search
        wedderburn_malcev(A)
    assert is_w_simple(action_from_subalgebra(A, A.basis_elements(), labels=labels)) is simple


def test_action_serialization_round_trip(tmp_path):
    h = preset_action("ut2D")
    p = tmp_path / "ut2d.json"
    h.save(p)
    import json

    h2 = action_from_dict(json.loads(p.read_text()))
    assert h2.s == h.s
    assert h2.pairs == [Multiplier(h2.A, m.R, m.L) for m in h.pairs] or all(
        a.R.matrix == b.R.matrix and a.L.matrix == b.L.matrix for a, b in zip(h.pairs, h2.pairs)
    )


def test_shared_family_presentations():
    hA, hB = shared_family_presentations("ut2full", "ut2D")
    assert hA.s == hB.s == 3
    assert hB.pairs[2].is_zero()
    hA, hB = shared_family_presentations("ut2C", "ut2F")
    assert hA.s == hB.s == 2
    with pytest.raises(BasisMismatch):
        shared_family_presentations("ut2C", "ut2D")
    with pytest.raises(BasisMismatch):
        shared_family_presentations("ut2D", "grassmann_Ek(1,3)")


def test_acting_pairs_determined_by_module_action():
    # two validated pair lists inducing the same module action coincide
    h = preset_action("ut2D")
    rebuilt = []
    for m in h.pairs:
        R = RatMatrix.from_rows([[m.R.matrix.entry(i, j) for j in range(3)] for i in range(3)])
        L = RatMatrix.from_rows([[m.L.matrix.entry(i, j) for j in range(3)] for i in range(3)])
        rebuilt.append(Multiplier(h.A, LinOp(R), LinOp(L)))
    h2 = Action(h.W, h.A, rebuilt, kernel_tail=True)
    assert all(a.R.matrix == b.R.matrix and a.L.matrix == b.L.matrix for a, b in zip(h.pairs, h2.pairs))
