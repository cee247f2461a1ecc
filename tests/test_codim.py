"""Evaluation matrices, codimensions, kernels, consequence spans."""

import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product
from math import factorial, gcd

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from genpi.actions import (
    action_from_subalgebra,
    grassmann_action,
    preset_action,
    shared_family_presentations,
)
from genpi import codim
from genpi.actions import make_action
from genpi.algebras import StructureAlgebra, builtin
from genpi.errors import BadDegree, BasisMismatch, BudgetExceeded, GenpiError, NotMultilinear, NotPolynomial
from genpi.linalg import reversed_kernel
from genpi.multipliers import Multiplier
from genpi.codim import (
    _distinct_rows,
    _evaluation_blocks,
    _first_rows,
    _grassmann_block,
    _grassmann_matrix,
    _grassmann_rank,
    _grassmann_stabilized,
    _left_kernel,
    _master_span,
    _masters,
    _ratio_parts,
    _span,
    codimension,
    consequences_span,
    grassmann_codim_stabilized,
    grassmann_generators,
    growth_report,
    identity_kernel_basis,
    identity_kernel_polynomials,
    in_consequence_span,
    preset_generators,
    structural_identities,
    variety_contains,
    verify_generating_set,
    verify_grassmann_generating_set,
)
from genpi.polynomials import GenMonomial, basis_size, enumerate_basis, parse, resolve, symbol_words, vectorize_words
from evaluation_oracle import evaluate
from grassmann_oracle import orbit_kernel, orbit_rank, parity_class_matrix


def sympy_rank(rows_dicts, ncols):
    """Independent oracle for small evaluation matrices."""
    import sympy

    m = sympy.zeros(len(rows_dicts), ncols)
    for i, row in enumerate(rows_dicts):
        for c, v in row.items():
            m[i, c] = sympy.Rational(v.numerator, v.denominator)
    return m.rank()


def evaluation_rows(h, n):
    """The degree-n evaluation rows in enumerate_basis order, as exact
    rational rows {column: Fraction}: the permuted blocks of the master
    rows, each row divided by its scale."""
    M, scales = _masters(h, n)
    rows = []
    for X in _evaluation_blocks(M, h.A.dim, n):
        rows += [{c: Fraction(v) / scale for c, v in enumerate(row) if v} for row, scale in zip(X.tolist(), scales)]
    return rows


def permuted_master_rank(h, n):
    """Rank of the degree-n evaluation matrix fed as the n! permuted blocks
    of the distinct master rows: an oracle independent of the S_n-module
    structure that codimension uses."""
    M, _ = _masters(h, n)
    return _span(_evaluation_blocks(_distinct_rows(M), h.A.dim, n), h.A.dim ** (n + 1)).rank


def ut2d_in_basis(C):
    """ut2D (W spanned by 1 and e22) on ut(2) in the basis f_i = column i of
    the invertible rational sympy matrix C, in (e11, e22, e12) coordinates."""
    inv = C.inv()

    def coords(e):  # (e11, e22, e12) coordinates -> f coordinates
        return tuple(Fraction(int(x.p), int(x.q)) for x in inv * sympy.Matrix(e))

    f = [list(C[:, i]) for i in range(3)]
    table = {}
    for i, j in product(range(3), repeat=2):
        (a0, a1, a2), (b0, b1, b2) = f[i], f[j]
        table[(i, j)] = [(k, c) for k, c in enumerate(coords([a0 * b0, a1 * b1, a0 * b2 + a2 * b1])) if c]
    unit, e22 = coords([1, 1, 0]), coords([0, 1, 0])
    A = StructureAlgebra(3, ["f1", "f2", "f3"], table, unit=unit)
    return action_from_subalgebra(A, [unit, e22], labels=["1", "e22"], kernel_tail=True)


def ut2d_rescaled(c):
    """ut2D (W spanned by 1 and e22) on ut(2) in the basis f1 = e11+e12,
    f2 = e22, f3 = c*e12; f1*f2 = e12 = (1/c) f3."""
    return ut2d_in_basis(sympy.Matrix([[1, 0, 0], [0, 1, 0], [1, 0, Fraction(c)]]))


def direct_row(h, mon, n):
    """Evaluation row of one monomial, multiplied out in A at every basis
    tuple: ((w_{i0} a_1 w_{i1}) a_2 w_{i2}) ... with a_t the value of the
    variable at position t."""
    A = h.A
    row = {}
    for rank, tup in enumerate(product(range(A.dim), repeat=n)):
        acc = h.pairs[mon.coeffs[0]].L.matvec(A._unit_vec(tup[mon.perm[0] - 1]))
        acc = h.pairs[mon.coeffs[1]].R.matvec(acc)
        for t in range(1, n):
            acc = A.multiply_coords(acc, A._unit_vec(tup[mon.perm[t] - 1]))
            acc = h.pairs[mon.coeffs[t + 1]].R.matvec(acc)
        for k, v in enumerate(acc):
            if v != 0:
                row[rank * A.dim + k] = v
    return row


def test_evaluation_rows_match_direct_evaluator():
    cases = [(preset_action(name), 3) for name in ("ut2D", "ut2C", "ut2full")]
    cases.append((ut2d_rescaled(2), 3))  # a rational structure constant
    for h, top in cases:
        for n in range(1, top + 1):
            mons = list(enumerate_basis(n, h.s))
            assert [direct_row(h, mon, n) for mon in mons] == evaluation_rows(h, n), (h, n)
            M, scales = _masters(h, n)
            for row, scale in zip(M.tolist(), scales):
                assert scale > 0 and gcd(*row) in (0, 1)


def test_codimension_invariant_under_change_of_basis():
    for c in (3, Fraction(1, 7)):
        h = ut2d_rescaled(c)
        assert [codimension(h, n) for n in range(1, 5)] == [3, 6, 14, 34], c


def test_ut2f_closed_form():
    # the anti-action (transposing by the inverse permutation) would give
    # 15, 42, 105 at n = 4, 5, 6
    h = preset_action("ut2F")
    for n in range(1, 9):
        assert codimension(h, n) == 2 ** (n - 1) * (n - 2) + 2, n


def test_codimension_matches_permuted_master_rank():
    for name in ("ut2F", "ut2D", "ut2C", "ut2full"):
        h = preset_action(name)
        for n in range(1, 7):
            assert codimension(h, n) == permuted_master_rank(h, n), (name, n)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)), max_size=6),
       st.integers(1, 3))
def test_codimension_in_random_unimodular_bases_matches_sympy(ops, n):
    # the basis: the identity changed by the row operations row i += k * row j
    C = sympy.eye(3)
    for i, j, k in ops:
        if i != j:
            C[i, :] += k * C[j, :]
    h = ut2d_in_basis(C)
    em = evaluation_rows(h, n)
    rows = {i: {c: QQ(v.numerator, v.denominator) for c, v in row.items()}
            for i, row in enumerate(em) if row}
    c = codimension(h, n)
    assert c == DomainMatrix(rows, (len(em), 3 ** (n + 1)), QQ).rank() == [3, 6, 14][n - 1]
    assert c == permuted_master_rank(h, n)
    assert identity_kernel_basis(h, n).dim == len(em) - c


def test_rows_beyond_int64_take_the_exact_path():
    h = ut2d_rescaled(2 ** 70)
    M, _ = _masters(h, 2)
    assert M.dtype == object and max(abs(v) for v in M.flat) >= 2 ** 63
    assert [codimension(h, n) for n in (1, 2, 3, 4)] == [3, 6, 14, 34]
    assert [permuted_master_rank(h, n) for n in (1, 2, 3, 4)] == [3, 6, 14, 34]
    assert identity_kernel_basis(h, 2).dim == 10


def test_membership_survives_fast_path_overflow():
    h = preset_action("ut2D")
    d = "([x1,x2]-[x1,x2,w1])"
    a, b = 2 ** 40 + 1, 2 ** 39 + 3
    gens = [f"{a}*x3*{d} + {b}*{d}*x3", f"{b}*x3*{d} + {a}*{d}*x3"]
    assert verify_generating_set(gens, h, 3)
    assert in_consequence_span("[x1,x2]*x3", gens, h, 3) is False
    # [x1,x2]*x3 is refuted by its evaluation row; the member
    # w1*x3*([x1,x2]-[x1,x2,w1]) streams the 2^40 rows
    assert in_consequence_span("w1*x3*([x1,x2]-[x1,x2,w1])", gens, h, 3) is True


def test_consequence_entries_beyond_int64():
    h = preset_action("ut2F")
    big = f"{2 ** 70 + 1}*[x1,x2]*[x3,x4] + 3*[x1,x3]*[x2,x4]"
    assert verify_generating_set([big], h, 4)
    assert in_consequence_span("[x1,x2]*[x3,x4]", [big], h, 4)
    assert in_consequence_span(big, ["[x1,x2]*[x3,x4]"], h, 4)


def test_matrix_shapes():
    # one row per monomial; dim^n basis tuples times dim outputs as columns
    for name, n, shape in (("ut2F", 1, (1, 9)), ("ut2D", 1, (4, 9)), ("ut2full", 2, (54, 27))):
        h = preset_action(name)
        rows = evaluation_rows(h, n)
        assert (len(rows), h.A.dim ** (n + 1)) == shape
        assert max(c for row in rows for c in row) < shape[1]


def test_codimension_small_values():
    assert codimension(preset_action("ut2F"), 3) == 6
    assert codimension(preset_action("ut2D"), 2) == 6
    assert codimension(preset_action("ut2full"), 1) == 5


def test_codimension_matches_sympy_oracle():
    for name, n in (("ut2D", 1), ("ut2D", 2), ("ut2full", 1), ("ut2C", 2)):
        h = preset_action(name)
        assert codimension(h, n) == sympy_rank(evaluation_rows(h, n), 3 ** (n + 1)), (name, n)


def test_rank_plus_kernel_is_rows():
    for name in ("ut2F", "ut2D", "ut2C", "ut2full"):
        h = preset_action(name)
        for n in (1, 2):
            rows = basis_size(n, h.s)
            assert codimension(h, n) + identity_kernel_basis(h, n).dim == rows


def test_kernel_examples():
    assert identity_kernel_basis(preset_action("ut2D"), 1).dim == 1
    assert identity_kernel_basis(preset_action("ut2F"), 2).dim == 0
    # the sandwiched-generator relation shows up at degree 1
    h = grassmann_action(1, 4)
    kernel = identity_kernel_basis(h, 1)
    vec = [Fraction(0)] * 4
    vec[GenMonomial(1, (1,), (1, 1)).rank(2)] = Fraction(1)  # e1 x1 e1
    from genpi.linalg import Subspace

    assert kernel.contains(Subspace.from_vectors(4, [vec]))


@pytest.mark.parametrize("h,n,nonzero", [
    (preset_action("ut2D"), 4, 34),
    (preset_action("ut2full"), 3, 22),
    (preset_action("ut2C"), 3, 22),
    (ut2d_in_basis(sympy.Matrix([[2, 1, -1], [1, 3, 2], [-1, 1, 1]])), 3, 81),  # a dense basis
], ids=["ut2D", "ut2full", "ut2C", "ut2D dense"])
def test_left_kernel_of_the_nonzero_columns_is_that_of_all(h, n, nonzero):
    # the kernel reads the nonzero columns of E alone: 34 of 243 for ut2D
    # at n = 4, all 81 in the dense basis
    M, scales = _masters(h, n)
    E = np.concatenate(list(_evaluation_blocks(M, h.A.dim, n)))
    parts = [np.tile(x, len(E) // len(M)) for x in _ratio_parts(scales)]
    assert (E != 0).any(axis=0).sum() == nonzero
    full = reversed_kernel(_span([E.T[:, ::-1]], len(E)), parts)
    assert _left_kernel(E, parts) == full == identity_kernel_basis(h, n)


def test_kernel_polynomials_render():
    polys = identity_kernel_polynomials(preset_action("ut2D"), 1)
    assert len(polys) == 1
    labels = {label for _, label in polys[0]}
    assert labels == {"e22*x1", "e22*x1*e22"}


def test_structural_identities_degree1():
    h = preset_action("ut2D")
    gens = structural_identities(h)
    assert len(gens) == 1
    h = preset_action("ut2full")
    assert len(structural_identities(h)) == 4


def test_consequences_span_examples():
    h = preset_action("ut2D")
    span = consequences_span(preset_generators("ut2D"), h, 3)
    assert span.dim == 96 - 14
    assert consequences_span([], h, 2).dim == 0


def test_consequences_sound():
    # every consequence of identities is an identity: span inside kernel
    h = preset_action("ut2D")
    span = consequences_span(preset_generators("ut2D"), h, 2)
    kernel = identity_kernel_basis(h, 2)
    assert kernel.contains(span)


def test_verify_generating_sets_small_degrees():
    for name in ("ut2F", "ut2D", "ut2C", "ut2full"):
        h = preset_action(name)
        for n in (1, 2, 3):
            assert verify_generating_set(preset_generators(name), h, n), (name, n)


def test_verify_rejects_incomplete_set():
    h = preset_action("ut2D")
    assert verify_generating_set(["[x1,x2]*[x3,x4]"], h, 2) is False


def test_verify_rejects_non_identity():
    h = preset_action("ut2D")
    assert verify_generating_set(["[x1,x2]"], h, 2) is False


def test_verify_rejects_non_identity_word_dict():
    # w0*x1*w0 = x1, given as resolved words, is not an identity
    h = preset_action("ut2D")
    for n in (1, 2, 3):
        assert verify_generating_set([{(-1, 1, -1): 1}], h, n) is False, n
        # e22*x1 - e22*x1*e22 = e22*x1*e11 is one
        assert verify_generating_set([*preset_generators("ut2D"), {(-2, 1, -1): 1, (-2, 1, -2): -1}], h, n), n
        # e22*x1 alone is not
        assert verify_generating_set([*preset_generators("ut2D"), {(-2, 1, -1): 1}], h, n) is False, n


def _spellings(gens, h):
    """The generators as written, as resolved-word dicts, and with every
    variable index raised by one."""
    return {
        "strings": list(gens),
        "word dicts": [resolve(symbol_words(parse(g)), h) for g in gens],
        "shifted variables": [re.sub(r"x(\d+)", lambda m: f"x{int(m[1]) + 1}", g) for g in gens],
    }


# verifier of (generators, n), the action that resolves their words, a
# generating set, the set without one generator and a non-identity
VERIFIERS = {
    "ut2D": (lambda gens, n: verify_generating_set(gens, preset_action("ut2D"), n), preset_action("ut2D"),
             preset_generators("ut2D"), ["w2*x1", "x1*w2", "[x1,x2]*[x3,x4]"], "w1*x1"),
    "grassmann k = 1": (lambda gens, n: verify_grassmann_generating_set(1, n, gens), grassmann_action(1, 1),
                        grassmann_generators(1), ["[x1,x2,x3]", "e2*x1", "x1*e2"], "x1*e1"),
}


@pytest.mark.parametrize("spelling", ["strings", "word dicts", "shifted variables"])
@pytest.mark.parametrize("name", list(VERIFIERS))
def test_verifiers_agree_on_every_spelling(name, spelling):
    # one verdict per degree 1..3, whatever the spelling: shifted variables
    # are renumbered, word dicts are checked for being identities
    verify, h, complete, incomplete, bad = VERIFIERS[name]
    verdicts = [
        [verify(_spellings(gens, h)[spelling], n) for n in (1, 2, 3)]
        for gens in (complete, incomplete, [*complete, bad])
    ]
    assert verdicts == [[True] * 3, [True, False, False], [False] * 3]


def test_generator_of_two_components_is_rejected():
    # [x1,x2]*[x1,x2] linearizes to a component of its own
    h = preset_action("ut2F")
    two = "[x1,x2]*[x3,x4] + [x1,x2]*[x1,x2]"
    calls = [
        lambda: verify_generating_set([two], h, 4),
        lambda: consequences_span([two], h, 4),
        lambda: in_consequence_span(two, ["[x1,x2]*[x3,x4]"], h, 4),
        lambda: in_consequence_span("[x1,x2]", ["[x1,x2]*[x3,x4]"], h, 4),  # degree 2, not 4
        lambda: in_consequence_span("[x1,x2]*x3*x4", ["[x1,x2]*[x3,x4]", two], h, 4),
    ]
    for call in calls:
        with pytest.raises(NotMultilinear):
            call()
    assert issubclass(NotMultilinear, GenpiError) and issubclass(NotMultilinear, ValueError)


def test_classical_consequence():
    # the left-normed triple commutator yields the symmetric product pair
    h = preset_action("ut2F")
    assert in_consequence_span(
        "[x1,x2]*[x3,x4]+[x1,x4]*[x3,x2]", ["[x1,x2,x3]"], h, 4
    )


def test_variety_contains_instances():
    hA, hB = shared_family_presentations("ut2full", "ut2D")
    assert variety_contains(hA, hB, 3)
    hA, hB = shared_family_presentations("ut2C", "ut2F")
    assert variety_contains(hA, hB, 3)
    hA, hB = shared_family_presentations("ut2F", "ut2D")
    assert not variety_contains(hA, hB, 3)


def master_span_oracle(hs, n):
    """Integer RREF rows of the span of every degree-n master row of one
    action, or of the joint rows [M_A * f_A | M_B * f_B] of two, f_A and
    f_B the scale factors that put both halves of a row at one rational
    scale, written in Python integers row by row."""
    (M, scales), *rest = [_masters(h, n) for h in hs]
    rows = M.tolist()
    for MB, sB in rest:
        rows = [[x * sa.denominator * sb.numerator for x in a] + [x * sb.denominator * sa.numerator for x in b]
                for a, b, sa, sb in zip(rows, MB.tolist(), scales, sB)]
    return _span([np.array(rows, dtype=object)], len(rows[0])).rref()[1]


SKEW = sympy.Matrix([[1, 0, Fraction(1, 2)], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("name, h, top", [
    *((name, preset_action(name), 7 if name == "ut2F" else 6) for name in ("ut2F", "ut2D", "ut2C", "ut2full")),
    ("ut2D dense", ut2d_in_basis(sympy.Matrix([[2, 1, -1], [1, 3, 2], [-1, 1, 1]])), 5),
    ("ut2D 2^70", ut2d_rescaled(2 ** 70), 5),
])
def test_master_span_matches_the_span_of_all_masters(name, h, top):
    # the lifted span of the distinct coprime rows, row for row the RREF of
    # all s^(n+1) master rows
    for n in range(1, top + 1):
        got = _master_span((h,), n, h.A.dim ** (n + 1))
        assert got.tolist() == master_span_oracle((h,), n).tolist(), (name, n)


def test_joint_master_span_in_int64_and_python_integers(monkeypatch):
    # the dtypes of the lifted rows tell the two paths apart; in the last
    # pair the common denominator 2^70 of the structure constants is a
    # factor past 2^63 on the second half
    seen = []
    lift = codim._lift
    monkeypatch.setattr(codim, "_lift", lambda X, S: (Y := lift(X, S), seen.append(Y.dtype))[0])
    cases = [(*shared_family_presentations(a, b), False)
             for a, b in (("ut2full", "ut2D"), ("ut2full", "ut2F"), ("ut2D", "ut2F"), ("ut2C", "ut2F"))]
    cases.append((ut2d_rescaled(2 ** 70), ut2d_rescaled(Fraction(1, 7)), True))
    for hA, hB, python_integers in cases:
        seen.clear()
        for m in range(1, 5):
            got = _master_span((hA, hB), m, hA.A.dim ** (m + 1) + hB.A.dim ** (m + 1))
            assert got.tolist() == master_span_oracle((hA, hB), m).tolist(), (hA, hB, m)
        assert (np.dtype(object) in seen) == python_integers
    assert max(abs(x) for x in got.flat) >= 2 ** 63


def test_variety_contains_reflexive_and_transitive_instance():
    h = preset_action("ut2D")
    assert variety_contains(h, h, 3)
    hA, hB = shared_family_presentations("ut2full", "ut2D")
    assert variety_contains(hA, hB, 2) and variety_contains(hB, hB, 2)
    assert variety_contains(hA, hB, 2)


def stacked_rank_verdicts(hA, hB, n):
    """Per degree 1..n, whether the sympy rank of the evaluation rows of hA
    stacked beside those of hB equals that of hA's rows alone; the list
    ends at the first degree where it does not."""
    out = []
    for m in range(1, n + 1):
        ea, eb = evaluation_rows(hA, m), evaluation_rows(hB, m)
        ca, cb = hA.A.dim ** (m + 1), hB.A.dim ** (m + 1)
        rows = [ra | {ca + c: v for c, v in rb.items()} for ra, rb in zip(ea, eb)]
        out.append(sympy_rank(rows, ca + cb) == sympy_rank(ea, ca))
        if not out[-1]:
            break
    return out


def test_variety_contains_matches_stacked_rank_oracle():
    # one W presentation, different rational row scales: the two halves of
    # a row must be scaled jointly; 2^70 takes the Python-integer path.  The
    # rescalings only move f3, so their identities are homogeneous and
    # would survive separate scaling; f3 = e11/2 + e12 does not.
    skew = ut2d_in_basis(SKEW)
    pairs = [
        (ut2d_rescaled(3), ut2d_rescaled(Fraction(1, 7))),
        (ut2d_rescaled(2 ** 70), ut2d_rescaled(Fraction(1, 7))),
        (ut2d_rescaled(3), skew),
        shared_family_presentations("ut2F", "ut2D"),
    ]
    verdicts = []
    for hA, hB in pairs:
        want = stacked_rank_verdicts(hA, hB, 3)
        verdicts.append(want)
        for n in range(1, len(want) + 1):
            assert variety_contains(hA, hB, n) == all(want[:n]), n
    assert verdicts[:3] == [[True] * 3] * 3 and not all(verdicts[3])


def test_variety_contains_algebras_of_different_dimensions():
    # the field acted on by itself beside ut2F: [x1, x2] lives in the
    # component of the partition (1, 1), which has more rows than the
    # field has dimensions, so its rows there are zero
    field = action_from_subalgebra(builtin("ut(1)"), [(1,)], labels=["1"], kernel_tail=True)
    ut2f = preset_action("ut2F")
    for hA, hB in ((field, ut2f), (ut2f, field)):
        want = stacked_rank_verdicts(hA, hB, 3)
        assert [variety_contains(hA, hB, n) for n in range(1, len(want) + 1)] == [all(want[:n]) for n in range(1, len(want) + 1)]
    assert not variety_contains(field, ut2f, 2) and variety_contains(ut2f, field, 3)


def test_codimension_memory_bound():
    # ut2F, n = 6: one master row of 3^7 entries; the 720 evaluation rows
    # go to the elimination block by block, never as one dense batch
    h = preset_action("ut2F")
    tracemalloc.start()
    try:
        assert codimension(h, 6) == 130
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_identity_kernel_memory_bound():
    # ut2D, n = 4: 734 kernel vectors of 768 entries, 1,664 of them nonzero
    # (all +-1) besides the leading ones; held as one int8 array, not as
    # tuples of Fractions.  A degree-1 call first does the lazy imports of
    # numpy that the first call makes
    h = preset_action("ut2D")
    identity_kernel_basis(h, 1)
    tracemalloc.start()
    try:
        kernel = identity_kernel_basis(h, 4)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kernel.dim == 734
    assert retained < 2 ** 20


def test_codimension_memory_bound_at_degree_7():
    # 256 master rows of 3^8 entries and 7! = 5,040 variable orders
    h = preset_action("ut2D")
    tracemalloc.start()
    try:
        assert codimension(h, 7) == 450
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


DEGREE_CALLS = {
    "codimension": codimension,
    "identity_kernel_basis": identity_kernel_basis,
    "identity_kernel_polynomials": identity_kernel_polynomials,
    "consequences_span": lambda h, n: consequences_span(["[x1,x2]"], h, n),
    "in_consequence_span": lambda h, n: in_consequence_span("[x1,x2]", ["[x1,x2]"], h, n),
    "verify_generating_set": lambda h, n: verify_generating_set(["[x1,x2]"], h, n),
    "variety_contains": lambda h, n: variety_contains(h, h, n),
    "growth_report": growth_report,
    "grassmann_codim_stabilized": lambda h, n: grassmann_codim_stabilized(1, n),
    "verify_grassmann_generating_set": lambda h, n: verify_grassmann_generating_set(1, n),
}


@pytest.mark.parametrize("name", list(DEGREE_CALLS))
@pytest.mark.parametrize("n", [0, -1])
def test_degree_below_one_is_rejected(name, n):
    with pytest.raises(BadDegree, match=">= 1"):
        DEGREE_CALLS[name](preset_action("ut2D"), n)


@pytest.mark.parametrize("name", list(DEGREE_CALLS))
@pytest.mark.parametrize("n", [2.0, "2", 1.5, True, None])
def test_non_integer_degree_is_rejected(name, n):
    with pytest.raises(BadDegree, match=">= 1"):
        DEGREE_CALLS[name](preset_action("ut2D"), n)


@pytest.mark.parametrize("call", [grassmann_codim_stabilized, verify_grassmann_generating_set])
@pytest.mark.parametrize("k", [1.5, "1", None])
def test_non_integer_grassmann_generator_count_is_rejected(call, k):
    with pytest.raises(BadDegree, match="k >= 0"):
        call(k, 2)


MALFORMED_WORDS = [
    ({(0,): 1}, NotPolynomial),  # 0 is neither a variable nor a coefficient
    ({(0, 1): 1}, NotPolynomial),
    ({(1, "a"): 1}, NotPolynomial),
    ({(1, True): 1}, NotPolynomial),
    ({1: 1}, NotPolynomial),  # a word is a tuple
    ({(1, 2): 0.5}, NotPolynomial),  # a coefficient is an int or a Fraction
    ({(1, 2): "1"}, NotPolynomial),
    ({(): 1}, NotMultilinear),  # a word holds a variable
    ({(-1,): 1}, NotMultilinear),
]


@pytest.mark.parametrize("gen, error", MALFORMED_WORDS)
def test_malformed_word_dicts_are_rejected(gen, error):
    h, gens = preset_action("ut2full"), preset_generators("ut2full")
    for call in (lambda: verify_generating_set([gen], h, 2), lambda: in_consequence_span(gen, gens, h, 1),
                 lambda: in_consequence_span("[x1,x2]", [gen], h, 2), lambda: consequences_span([gen], h, 1)):
        with pytest.raises(error):
            call()


def test_numpy_integers_in_word_dicts_are_accepted():
    """Symbols and coefficients that operator.index takes are integers, as
    degrees are: a dict of numpy integers gives the answers of its ints."""
    h, gens = preset_action("ut2full"), preset_generators("ut2full")
    plain = {(1, 2, -2): 1, (2, 1, -2): -1, (1, 2): 2}
    wide = {tuple(map(np.int64, w)): np.int64(c) for w, c in plain.items()}
    wide[(1, 2)] = np.int32(2)
    for gen in (plain, wide):
        assert verify_generating_set([gen], h, 2) is False
        assert in_consequence_span(gen, gens, h, 2) is in_consequence_span(plain, gens, h, 2)
        assert consequences_span([gen], h, 2) == consequences_span([plain], h, 2)


def test_non_polynomial_generator_is_a_genpi_error():
    with pytest.raises(NotPolynomial) as e:
        verify_generating_set([5], preset_action("ut2D"), 2)
    assert isinstance(e.value, TypeError)


def test_grassmann_rejects_a_negative_generator_count():
    with pytest.raises(BadDegree, match="k >= 0"):
        grassmann_codim_stabilized(-1, 2)


def test_action_whose_masters_all_vanish():
    # the identity acting on a zero-multiplication algebra: from degree 2 on
    # every evaluation row is zero
    Z = builtin("zero_mult(2)")
    h = make_action(builtin("ut(1)"), Z, [Multiplier.identity(Z)])
    assert [codimension(h, n) for n in (1, 2, 3)] == [1, 0, 0]
    assert [permuted_master_rank(h, n) for n in (1, 2, 3)] == [1, 0, 0]
    assert growth_report(h, 3).values == [1, 0, 0]
    assert identity_kernel_basis(h, 2).dim == 2
    assert variety_contains(h, h, 2)


def test_master_span_pieces_within_the_byte_cap(monkeypatch):
    # ranks and containment verdicts do not depend on how the last degree
    # of the masters is cut into pieces; under this cap a piece of 3^4
    # columns holds 2 rows, the lifts of one row of degree 2.  ut2D runs in
    # int64, the 2^70 rescalings in Python integers
    skew = ut2d_in_basis(SKEW)
    actions = [preset_action("ut2D"), ut2d_rescaled(2 ** 70), skew]
    pairs = [(ut2d_rescaled(3), skew), shared_family_presentations("ut2F", "ut2D"),
             (ut2d_rescaled(2 ** 70), ut2d_rescaled(Fraction(1, 7)))]
    want = ([codimension(h, n) for h in actions for n in (1, 2, 3)], [variety_contains(hA, hB, 3) for hA, hB in pairs])
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 256 * 3 ** 4 * 2)
    lifted = []
    lift = codim._lift
    monkeypatch.setattr(codim, "_lift", lambda X, S: (Y := lift(X, S), lifted.append(len(Y)))[0])
    assert codimension(skew, 3) == want[0][8]
    assert len(lifted) > 2 and lifted[1:] == [2] * (len(lifted) - 1)
    got = ([codimension(h, n) for h in actions for n in (1, 2, 3)], [variety_contains(hA, hB, 3) for hA, hB in pairs])
    assert got == want and want[1] == [True, False, True]


def test_codimension_lifts_only_distinct_rows(monkeypatch):
    # ut2full at n = 7 has 3^8 = 6,561 master rows; the lifting passes the
    # 9 rows of degree 1 and 3 lifts of each distinct row of degrees 1..6
    # through _coprime, 189 rows in all
    rows = []
    coprime = codim._coprime
    monkeypatch.setattr(codim, "_coprime", lambda M: (rows.append(len(M)), coprime(M))[1])
    assert codimension(preset_action("ut2full"), 7) == 578
    assert sum(rows) == 189


def test_master_span_memory_bound():
    # grassmann_full(4) at n = 2: 16^3 = 4,096 master rows of 4,096
    # columns, 128 MiB in int64, of which the lifting holds one piece at a
    # time (the chunked build of all of them peaked at 8.0 MiB traced)
    h = preset_action("grassmann_full(4)")
    codimension(h, 1)
    tracemalloc.start()
    try:
        R = _master_span((h,), 2, 16 ** 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(R) == 50 and peak < 7.5 * 2 ** 20


def test_variety_contains_budgets_its_master_rows(monkeypatch):
    # ut2full beside ut2D at n = 3: the budget counts the 3^4 = 81 joint
    # master rows, of which the lifting builds only the distinct ones
    pair = shared_family_presentations("ut2full", "ut2D")
    want = variety_contains(*pair, 3)
    monkeypatch.setenv("GENPI_MAX_ROWS", "100")
    assert variety_contains(*pair, 3) == want
    monkeypatch.setenv("GENPI_MAX_ROWS", "80")
    with pytest.raises(BudgetExceeded) as e:
        variety_contains(*pair, 3)
    assert e.value.rows == 81


def test_variety_contains_needs_shared_coefficients():
    with pytest.raises(BasisMismatch):
        variety_contains(preset_action("ut2full"), preset_action("ut2D"), 2)


def test_grassmann_reduced_matches_brute_force():
    # from k = 3 on, the basis order of W (length, then lexicographic)
    # differs from the numeric order of the word masks: (3) precedes (1,2)
    for k, m, n in ((1, 3, 1), (1, 3, 2), (2, 3, 1), (1, 4, 2), (3, 3, 1), (2, 4, 2)):
        h = grassmann_action(k, m)
        assert codimension(h, n) == orbit_rank(k, m, n), (k, m, n)


def test_grassmann_stabilized_small():
    assert grassmann_codim_stabilized(1, 1) == 3
    assert grassmann_codim_stabilized(2, 1) == 7
    assert grassmann_codim_stabilized(1, 2) == 6


def test_grassmann_values_at_level_k_plus_n():
    # the values the search over levels found (first agreement of two
    # consecutive levels), now taken once at the proved level k + n
    values = {(1, 1): 3, (2, 1): 7, (3, 1): 15, (1, 2): 6, (2, 2): 14, (1, 3): 12, (3, 2): 30, (2, 3): 28}
    for (k, n), want in values.items():
        assert _grassmann_stabilized(k, n) == (want, k + n), (k, n)


def test_grassmann_values_past_the_orbit_rows():
    # past the reach of the orbit-row oracle (tests/grassmann_oracle.py),
    # which took about 50 s at (1, 5) and 119 s at (2, 4); pinned at the
    # ranks of the all-orders matrix
    for (k, n), want in {(1, 4): 24, (1, 5): 48, (2, 4): 56, (3, 3): 60, (1, 6): 96}.items():
        assert grassmann_codim_stabilized(k, n) == want, (k, n)


GRASSMANN_TABLES = (codim._sign_table, codim._parity_classes, codim._class_table)


def test_grassmann_matrix_checks_the_byte_cap(monkeypatch):
    def cap(size):
        # the cached tables are built again, and checked, under the new cap
        monkeypatch.setattr(codim, "STREAM_BYTES", size)
        for table in GRASSMANN_TABLES:
            table.cache_clear()

    checked = []
    check = codim._check_bytes
    monkeypatch.setattr(codim, "_check_bytes", lambda *a: checked.append(a) or check(*a))
    cap(codim.STREAM_BYTES)
    assert grassmann_codim_stabilized(1, 3) == 12
    # (1, 3): the identity block (16 x 40 int8), the parity classes (32
    # classes x 2 outputs x 32 bytes), the sign table (16 x 16 x 3 int8),
    # all 6 orders of images of the 5 distinct rows (6 x 40 x (13 + 5)
    # bytes with their maps and signs) and the class table (6 orders x 32
    # classes x 24 bytes)
    assert sorted(checked) == [(6, 32, 24), (6, 40, 18), (16, 16, 3), (16, 40), (32, 2, 32)]
    # at the cap of the class table, the images come one order at a time
    cap(6 * 32 * 24)
    assert grassmann_codim_stabilized(1, 3) == 12
    cap(6 * 32 * 24 - 1)
    with pytest.raises(BudgetExceeded) as e:
        grassmann_codim_stabilized(1, 3)
    assert (e.value.rows, e.value.cols) == (6, 32)
    # (2, 4): an identity block of 1,024 rows x 576 columns, 576 KiB,
    # refused unallocated
    cap(2 ** 19)
    tracemalloc.start()
    try:
        with pytest.raises(GenpiError) as e:
            grassmann_codim_stabilized(2, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(e.value, BudgetExceeded) and (e.value.rows, e.value.cols) == (1024, 576)
    assert peak < 2 ** 18
    # (1, 8): the block (512 x 2,560 int8), the sign table and the images
    # fit 2 MiB; the class table of 8! orders x 2,304 classes does not,
    # and is refused before the orders are listed
    cap(2 ** 21)
    tracemalloc.start()
    try:
        with pytest.raises(GenpiError) as e:
            grassmann_codim_stabilized(1, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(e.value, BudgetExceeded) and (e.value.rows, e.value.cols) == (40320, 2304)
    assert peak < 2 ** 23
    assert str(e.value) == f"40320 x 2304 x 24 bytes = {40320 * 2304 * 24} bytes exceeds the byte cap STREAM_BYTES = {2 ** 21}"


def test_grassmann_rank_never_holds_the_full_matrix():
    # (2, 4): the full parity-class matrix is 24,576 x 576 int8, 13.5 MiB;
    # the call peaks at 3.8 MiB traced with its tables built afresh
    for table in GRASSMANN_TABLES:
        table.cache_clear()
    tracemalloc.start()
    try:
        assert grassmann_codim_stabilized(2, 4) == 56
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def test_cached_grassmann_tables_are_read_only():
    tables = [codim._sign_table(3), *codim._parity_classes(2, 2), *codim._class_table(2, 2)]
    for table in tables:
        with pytest.raises(ValueError):
            table.flat[0] = 0


GRASSMANN_GRID = [(k, n) for k in range(4) for n in range(1, 6) if (n <= 4 and k + n <= 6) or k == 0]


@pytest.mark.parametrize("k, n", GRASSMANN_GRID)
def test_parity_class_matrix_matches_the_all_orders_builder(k, n):
    # the blocks of the signed column maps, byte for byte; the images of
    # the distinct rows of the identity block, one per distinct nonzero row
    # of the matrix; and their rank against that of every row
    block = _grassmann_block(k, n)
    M = parity_class_matrix(k, n)
    assert np.concatenate(list(_grassmann_matrix(k, n, block))).tobytes() == M.tobytes()
    assert M.dtype == np.int8 and M.shape[0] == basis_size(n, 2 ** k)
    assert len(_first_rows(M)) == factorial(n) * len(_first_rows(block))
    assert _grassmann_rank(k, n, block) == _span([M], M.shape[1]).rank


def test_ordinary_grassmann_codimensions():
    # c_n(E) = 2^(n-1) (Krakowski & Regev, Trans. AMS 181, 1973)
    assert [grassmann_codim_stabilized(0, n) for n in range(1, 8)] == [2 ** (n - 1) for n in range(1, 8)]


def test_ordinary_grassmann_generating_set():
    # [x1,x2,x3] generates the identities of E (Krakowski & Regev)
    for n in range(1, 5):
        assert verify_grassmann_generating_set(0, n, ["[x1,x2,x3]"]), n
    assert not verify_grassmann_generating_set(0, 4, ["[x1,x2]*[x3,x4]"])


def test_grassmann_levels_k_plus_n_and_next_agree():
    # the parity-class lemma through the orbit rows: one more generator
    # changes neither the rank nor the left kernel
    for k, n in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)):
        assert orbit_rank(k, k + n, n) == orbit_rank(k, k + n + 1, n), (k, n)
        assert orbit_kernel(k, k + n, n) == orbit_kernel(k, k + n + 1, n), (k, n)


def test_parity_class_matrix_matches_orbit_oracle():
    # the matrix that is built has the rank and the left kernel of the orbit
    # rows at the proved level and at the next one
    for k, n in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)):
        block = _grassmann_block(k, n)
        M = np.concatenate(list(_grassmann_matrix(k, n, block)))
        assert M.shape[0] == basis_size(n, 2 ** k)
        rank, kernel = _grassmann_rank(k, n, block), _left_kernel(M)
        for m in (k + n, k + n + 1):
            assert orbit_rank(k, m, n) == rank, (k, n, m)
            assert orbit_kernel(k, m, n) == kernel, (k, n, m)


def test_grassmann_monotone_in_truncation():
    for k, n in ((1, 1), (1, 2), (2, 1)):
        values = [orbit_rank(k, m, n) for m in range(max(k, n), 2 * n + k + 2)]
        assert all(a <= b for a, b in zip(values, values[1:])), (k, n, values)


def test_full_action_degree1_growth():
    # the m-generator action at stabilized truncation follows the closed
    # form and grows without bound in the acting part
    values = [grassmann_codim_stabilized(m, 1) for m in (1, 2, 3)]
    assert values == [2 ** (m + 1) - 1 for m in (1, 2, 3)]
    assert values[0] < values[1] < values[2]
    # acting on the truncation of the same level loses exactly the fresh
    # support the independence argument needs, one dimension each time
    literal = [codimension(grassmann_action(m, m, full=True), 1) for m in (1, 2, 3)]
    assert literal == [v - 1 for v in values]
    assert literal[0] < literal[1] < literal[2]


def test_verify_grassmann_generating_set_degree1():
    assert verify_grassmann_generating_set(1, 1)


def test_verify_grassmann_generating_set():
    for k, n in ((2, 1), (1, 2), (1, 3), (2, 3)):
        assert verify_grassmann_generating_set(k, n), (k, n)


def test_verify_grassmann_rejects_non_identity_word_dict():
    # x1*e1, given as resolved words, is not an identity; e1*x1*e1 is one
    for n in (1, 2):
        assert verify_grassmann_generating_set(1, n, grassmann_generators(1) + [{(-1, 1, -2): 1}]) is False, n
        assert verify_grassmann_generating_set(1, n, grassmann_generators(1) + [{(-2, 1, -2): 1}]), n


def test_verify_grassmann_rejects_incomplete_set():
    # leaves out [e1,x1,x2]: a certificate of degree n alone, so it fails
    # at n = 2 and 3 but passes at n = 4.  There the span's own
    # codimension at degree 3 exceeds c_3, and the quotient of degree 4 is
    # s * 4 * c'_3 wide, not s * 4 * c_3
    gens = ["[x1,x2,x3]", "e2*x1", "x1*e2"]
    for n in (2, 3):
        assert not verify_grassmann_generating_set(1, n, gens), n
    assert verify_grassmann_generating_set(1, 4, gens)


def test_growth_report():
    rep = growth_report(preset_action("ut2F"), 4)
    assert rep.values == [1, 2, 6, 18]
    assert rep.exponent == 2
    assert rep.ratios[1] == Fraction(2, 1)
    d = rep.to_dict()
    assert d["codimensions"] == [1, 2, 6, 18]
    assert d["exponent_note"] is None


def test_growth_report_non_split_algebra():
    # Q(i) with i*i = -1, acted on by the field of rationals
    table = {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)], (1, 1): [(0, -1)]}
    A = StructureAlgebra(2, ["1", "i"], table, unit=(1, 0))
    rep = growth_report(action_from_subalgebra(A, [(1, 0)], labels=["1"]), 3)
    assert rep.values == [1, 1, 1]
    assert rep.exponent is None
    assert "not split" in rep.to_dict()["exponent_note"]


def test_grassmann_preset_generators():
    assert preset_generators("grassmann_Ek(2,5)") == grassmann_generators(2)


def test_budget_error(monkeypatch):
    # the kernel builds the 3! * 2^4 evaluation rows; the codimension
    # builds the 2^4 master rows alone
    monkeypatch.setenv("GENPI_MAX_ROWS", "10")
    with pytest.raises(BudgetExceeded) as e:
        identity_kernel_basis(preset_action("ut2D"), 3)
    assert e.value.rows == 96
    with pytest.raises(BudgetExceeded) as e:
        codimension(preset_action("ut2D"), 3)
    assert e.value.rows == 16
    monkeypatch.setenv("GENPI_MAX_ROWS", "16")
    assert codimension(preset_action("ut2D"), 3) == 14


def test_codimension_width_guard():
    # grassmann_full(4) at n = 4: 16^5 master rows, within the row budget,
    # of 16^5 columns each, over the width guard; refused unallocated
    h = preset_action("grassmann_full(4)")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as e:
            codimension(h, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (e.value.rows, e.value.cols) == (16 ** 5, 16 ** 5)
    assert peak < 2 ** 16


def test_codimension_past_the_row_budget():
    # degree 7 of ut2full has 7! * 3^8 = 33,067,440 evaluation rows, over
    # the default row budget; the cocharacter path never builds them, and
    # its 3^8 master rows are within it
    rep = growth_report(preset_action("ut2full"), 7)
    assert rep.values == [5, 10, 22, 50, 114, 258, 578]


def test_evaluation_row_matches_direct_evaluation():
    # entry spot check: row of a monomial equals its evaluation outputs
    h = preset_action("ut2D")
    em = evaluation_rows(h, 2)
    rng = random.Random(8)
    mons = list(enumerate_basis(2, 2))

    for _ in range(12):
        ri = rng.randrange(len(mons))
        mon = mons[ri]
        t1, t2 = rng.randrange(3), rng.randrange(3)
        node = parse(mon.label(h).replace("e22", "w1"))
        val = evaluate(node, h, {1: h.A.basis_element(t1), 2: h.A.basis_element(t2)})
        tuple_rank = t1 * 3 + t2
        got = [em[ri].get(tuple_rank * 3 + k, Fraction(0)) for k in range(3)]
        assert got == list(val.coords)


def test_vectorize_round_trip_with_kernel():
    # a vectorized identity combines evaluation rows to zero
    h = preset_action("ut2D")
    em = evaluation_rows(h, 2)
    vec = vectorize_words(resolve(symbol_words(parse("[x1,x2]-[x1,x2,w1]")), h), h.W, 2)
    acc = {}
    for r, c in vec.items():
        for col, v in em[r].items():
            acc[col] = acc.get(col, Fraction(0)) + c * v
    assert all(v == 0 for v in acc.values())
