"""Parser, commutator expansion, linearization, evaluation, coordinates."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from genpi.actions import grassmann_action, preset_action
from genpi.algebras import builtin
from genpi.errors import BadDegree, GenpiError, NotPolynomial, ParseError, UnknownCoefficient
from genpi.polynomials import (
    Comm,
    GenMonomial,
    Prod,
    Sum,
    Var,
    basis_size,
    enumerate_basis,
    monomial_index,
    multilinear_parts,
    order_ranks,
    parse,
    resolve,
    symbol_words,
    vectorize_words,
)
from evaluation_oracle import evaluate, is_identity


def words_str(words):
    """Stable readable form of a word dict for assertions."""
    out = {}
    for w, c in words.items():
        key = "".join(f"x{s}" if isinstance(s, int) else s for s in w)
        out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def vector(text, h, n):
    """Coordinates of the text over the degree-n monomials of h."""
    return vectorize_words(resolve(symbol_words(parse(text)), h), h.W, n)


def test_parse_commutator_product():
    node = parse("[x1,x2]*[x3,x4]")
    assert isinstance(node, Prod) and all(isinstance(f, Comm) for f in node.factors)


def test_parse_difference_of_commutators():
    node = parse("[x1,x2]-[x1,x2,w1]")
    assert isinstance(node, Sum)


def test_parse_coefficient_monomials():
    assert words_str(symbol_words(parse("w1*x1"))) == {"w1x1": Fraction(1)}
    with pytest.raises(ParseError):
        parse("w1*w2")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse("[x1,x2)")
    assert e.value.position >= 0


def test_parse_rational_scalars_and_unary_minus():
    assert words_str(symbol_words(parse("-1/2*x1x2"))) == {"x1x2": Fraction(-1, 2)}
    assert words_str(symbol_words(parse("x1 - 2*x2x1"))) == {"x1": Fraction(1), "x2x1": Fraction(-2)}


def test_expand_commutator_pair():
    assert words_str(symbol_words(parse("[x1,x2]"))) == {
        "x1x2": Fraction(1),
        "x2x1": Fraction(-1),
    }


def test_expand_left_normed_triple():
    got = words_str(symbol_words(parse("[x1,x2,x3]")))
    assert got == {
        "x1x2x3": Fraction(1),
        "x2x1x3": Fraction(-1),
        "x3x1x2": Fraction(-1),
        "x3x2x1": Fraction(1),
    }


def test_expand_coefficient_commutator():
    assert words_str(symbol_words(parse("[w1,x1]"))) == {
        "w1x1": Fraction(1),
        "x1w1": Fraction(-1),
    }


def test_multilinearize_square():
    comps = multilinear_parts(symbol_words(parse("x1*x1")))
    assert len(comps) == 1
    assert words_str(comps[0]) == {"x1x2": Fraction(1), "x2x1": Fraction(1)}


def test_multilinearize_keeps_multilinear():
    words = symbol_words(parse("[x1,x2]"))
    comps = multilinear_parts(words)
    assert len(comps) == 1
    assert words_str(comps[0]) == words_str(words)


def test_multilinearize_cube():
    comps = multilinear_parts(symbol_words(parse("x1*x1*x1")))
    assert len(comps) == 1
    words = words_str(comps[0])
    assert len(words) == 6 and all(c == 1 for c in words.values())


def test_enumerate_basis_counts():
    assert len(list(enumerate_basis(1, 1))) == 1
    mons = list(enumerate_basis(1, 2))
    assert len(mons) == 4 == basis_size(1, 2)
    assert len(list(enumerate_basis(2, 3))) == 54 == basis_size(2, 3)


def test_enumerate_basis_order_is_rank_order():
    for n, s in ((1, 2), (2, 2), (3, 2), (2, 3)):
        ranks = [m.rank(s) for m in enumerate_basis(n, s)]
        assert ranks == list(range(basis_size(n, s)))


def test_monomial_index_is_order_rank_then_coefficient_digits():
    # (2, 3, 1) is the fourth order of x1..x3; its digits at places 27, 9, 3, 1
    assert order_ranks(3) == {p: r for r, p in enumerate(permutations(range(1, 4)))}
    assert monomial_index((2, 3, 1), (1, 0, 2, 1), 3) == 3 * 3 ** 4 + 1 * 27 + 2 * 3 + 1
    assert GenMonomial(3, (2, 3, 1), (1, 0, 2, 1)).rank(3) == 277


def test_monomial_labels():
    h = preset_action("ut2D")
    m = GenMonomial(1, (1,), (1, 1))
    assert m.label(h) == "e22*x1*e22"


def test_evaluate_commutator_in_ut2():
    h = preset_action("ut2F")
    A = h.A
    e11, e22, e12 = A.basis_elements()
    val = evaluate(parse("[x1,x2]"), h, {1: e11, 2: e12})
    assert val == e12


def test_evaluate_with_left_coefficient():
    h = preset_action("ut2D")
    A = h.A
    e12 = A.basis_element(2)
    assert evaluate(parse("w1*x1"), h, {1: e12}).is_zero()  # e22*e12 = 0


def test_evaluate_grassmann_sandwich():
    h = grassmann_action(1, 3)
    A = h.A
    e2 = A.basis_element(A.labels.index("e2"))
    assert evaluate(parse("e1*x1*e1"), h, {1: e2}).is_zero()


def test_evaluate_tail_coefficient_is_zero():
    h = preset_action("ut2D")
    A = h.A
    assert evaluate(parse("w2*x1"), h, {1: A.unit_element()}).is_zero()
    assert evaluate(parse("e5*x1"), h, {1: A.unit_element()}).is_zero()


def test_evaluate_unassigned_variable():
    h = preset_action("ut2F")
    with pytest.raises(KeyError):
        evaluate(parse("x1*x2"), h, {1: h.A.unit_element()})


def test_unknown_coefficient_without_tail():
    A = builtin("mat(2)")
    from genpi.actions import action_from_subalgebra

    h = action_from_subalgebra(A, A.basis_elements(), labels=list(A.labels))
    with pytest.raises(UnknownCoefficient):
        evaluate(parse("w9*x1"), h, {1: A.unit_element()})


def test_subalgebra_action_evaluates_as_products():
    # w_i x w_j = b_i * a * b_j for subalgebra actions on a unital algebra
    h = preset_action("ut2full")
    A = h.A
    b = [A.unit_element(), A.basis_element(1), A.basis_element(2)]
    rng = random.Random(3)
    for i in range(3):
        for j in range(3):
            node = parse(f"w{i}*x1*w{j}")
            a = A.element([rng.randint(-3, 3) for _ in range(3)])
            assert evaluate(node, h, {1: a}) == b[i] * a * b[j]


def test_is_identity_examples():
    assert is_identity(parse("[x1,x2]*[x3,x4]"), preset_action("ut2F"))[0]
    ok, witness = is_identity(parse("[x1,x2]"), preset_action("ut2full"))
    assert not ok and witness is not None
    assert is_identity(parse("[x1,x2]-[x1,x2,w1]"), preset_action("ut2D"))[0]


def test_is_identity_of_nonmultilinear():
    # x1*x1 is not an identity of ut(2), and multilinearizes first
    ok, _ = is_identity(parse("x1*x1"), preset_action("ut2F"))
    assert not ok


def test_evaluate_is_multilinear():
    h = preset_action("ut2D")
    A = h.A
    rng = random.Random(17)
    node = parse("[x1,x2]-[x1,x2,w1]+w1*x1*x2")
    for _ in range(10):
        a = A.element([rng.randint(-2, 2) for _ in range(3)])
        b = A.element([rng.randint(-2, 2) for _ in range(3)])
        c = A.element([rng.randint(-2, 2) for _ in range(3)])
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = evaluate(node, h, {1: A.element([lam * x + y for x, y in zip(a.coords, b.coords)]), 2: c})
        rhs = lam * evaluate(node, h, {1: a, 2: c}) + evaluate(node, h, {1: b, 2: c})
        assert lhs == rhs


def test_print_parse_round_trip_on_generator_corpus():
    corpus = [
        "w1*x1", "x1*w1", "[x1,x2]*[x3,x4]",
        "w2*x1", "x1*w2", "[x1,x2]-[x1,x2,w1]",
        "w1*[x1,x2]", "[x1,x2]*w1",
        "w3*x1", "x1*w3",
        "[x1,x2,x3]", "[e1,x1,x2]", "[e2,x1,x2]", "e2*x1", "x1*e2",
        "[e1,x1]*[e1,x2]+2*[x1,x2]*e1*e1",
        "-1*x1 + x2", "-1*[x1,x2] + x3",
    ]
    for text in corpus:
        node = parse(text)
        again = parse(str(node))
        assert symbol_words(again) == symbol_words(node), text


def test_vectorize_merges_coefficient_runs():
    h = preset_action("ut2D")
    # w1*w1 merges to w1: w1w1 x1 = w1 x1
    v1 = vector("w1*w1*x1", h, 1)
    v2 = vector("w1*x1", h, 1)
    assert v1 == v2
    # tail monomials vanish in coordinates
    assert vector("w2*x1", h, 1) == {}


def test_vectorize_ranks_match_enumeration():
    h = preset_action("ut2D")
    mons = list(enumerate_basis(1, 2))
    for m in mons:
        v = vector(m.label(None), h, 1)
        assert v == {m.rank(2): Fraction(1)}


def test_vectorize_grassmann_sign():
    h = grassmann_action(2, 3)
    # e2*e1 merges to -g{1,2}: coefficient -1 on the merged slot
    v = vector("e2*e1*x1", h, 1)
    k = h.W.labels.index("g{1,2}")
    expected_rank = GenMonomial(1, (1,), (k, 0)).rank(h.s)
    assert v == {expected_rank: Fraction(-1)}


def test_enumerate_basis_below_degree_one_is_bad_degree():
    with pytest.raises(BadDegree) as info:
        list(enumerate_basis(0, 2))
    assert isinstance(info.value, ValueError)


def test_monomial_with_wrong_slot_count_is_bad_degree():
    with pytest.raises(BadDegree) as info:
        GenMonomial(2, (1, 2), (0,))
    assert isinstance(info.value, ValueError)


def test_non_polynomial_node_is_a_genpi_error():
    with pytest.raises(NotPolynomial) as info:
        symbol_words(5)
    assert isinstance(info.value, GenpiError) and isinstance(info.value, TypeError)
