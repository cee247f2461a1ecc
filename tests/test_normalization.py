"""The one-pass normalization of polynomials (polynomials.symbol_words and
what codim builds on it) against the tree-based one it replaced, kept in
normalization_oracle.py: the same words with the same coefficients, the
same components and errors, and one expansion per node of the tree."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genpi.codim as codim
import genpi.polynomials as polynomials
from genpi.actions import action_from_subalgebra, preset_action
from genpi.algebras import builtin
from genpi.codim import PRESET_GENERATORS, _generator_words, identity_witness, preset_generators
from genpi.errors import GenpiError, ParseError
from genpi.polynomials import Coeff, Comm, Prod, Scalar, Sum, Var, multilinear_parts, parse, resolve, symbol_words, vectorize_words
import normalization_oracle as oracle
from evaluation_oracle import is_identity

ACTIONS = {name: preset_action(name) for name in ("ut2D", "ut2full")}


def plain(words: dict) -> dict:
    """Oracle words over Var/Coeff as words over ints and names."""
    return {tuple(s.index if isinstance(s, Var) else s.name for s in w): c for w, c in words.items()}


def outcome(call, *args):
    """The value of the call, or the type and message of the GenpiError it
    raises."""
    try:
        return call(*args)
    except GenpiError as exc:
        return type(exc), str(exc)


def words_of(gw):
    """(degree, {word: coeff}) of normalized words, None as it is."""
    return None if gw is None else (gw[0], {w: c for c, w in gw[1]})


def oracle_parse(text):
    """The parse tree with the check parse made on the tree expansion."""
    node = polynomials._tree(text)
    if any(c and not any(isinstance(s, Var) for s in w) for w, c in oracle.tree_words(node).items()):
        raise polynomials.ParseError("term without any variable", 0)
    return node


def assert_same_normalization(text):
    new, old = outcome(parse, text), outcome(oracle_parse, text)
    assert new == old, text
    if isinstance(new, tuple):
        return
    node = new
    words = symbol_words(node)
    assert words == plain(oracle.tree_words(node)), text
    assert "/" in text or all(type(c) is int for c in words.values()), text
    assert multilinear_parts(words) == list(map(plain, oracle.multilinear_words(node))), text
    for name, h in ACTIONS.items():
        assert resolve(words, h) == oracle.resolved_words(node, h), (text, name)
        got = outcome(lambda: words_of(_generator_words(text, h)))
        assert got == outcome(lambda: words_of(oracle.generator_words(text, h))), (text, name)


@pytest.mark.parametrize("name", [*PRESET_GENERATORS, "grassmann_Ek(2,4)"])
def test_preset_generators_normalize_as_before(name):
    # the tail generators (w3*x1 of ut2full, ...) vanish in coordinates on
    # both paths
    h = preset_action(name)
    for g in preset_generators(name):
        assert symbol_words(parse(g)) == plain(oracle.tree_words(parse(g))), g
        assert words_of(_generator_words(g, h)) == words_of(oracle.generator_words(g, h)), g


@pytest.mark.parametrize("text", ["0*x1", "x1 - x1 + x2*x3", "0*[x1,x2]", "x1 - x1", "2*(0*x1)*x2",
                                  "0*(x1 + x2)", "[0*x1,x2]", "x1*x1 - x1*x1 + 0*x2"])
def test_zero_terms_normalize_as_before(text):
    assert_same_normalization(text)


def test_zero_terms_keep_their_components():
    # a scalar 0 keeps its words at coefficient 0, so 0*x1 is one component
    # that vanishes, and x1 - x1 has none
    h = ACTIONS["ut2D"]
    assert symbol_words(parse("0*x1")) == {(1,): 0}
    assert multilinear_parts(symbol_words(parse("0*x1"))) == [{(1,): 0}]
    assert _generator_words("0*x1", h) is None
    assert symbol_words(parse("x1 - x1 + x2*x3")) == {(2, 3): 1}
    assert outcome(_generator_words, "x1 - x1", h)[1] == "generator x1 - x1 has 0 multilinear components, not one"


ATOMS = st.sampled_from(["x1", "x2", "x3", "x1", "x2", "x4", "w0", "w1", "w2", "e22", "e12", "w7", "e9"])
SCALARS = st.sampled_from(["", "", "2*", "-1/3*", "3/2*", "0*", "-4*", "5/5*"])


def polys(factors, scalars=SCALARS):
    """Texts of sums of scaled products of the factors."""
    term = st.tuples(scalars, st.lists(factors, min_size=1, max_size=3)).map(lambda t: t[0] + "*".join(t[1]))
    rest = st.lists(st.tuples(st.sampled_from([" + ", " - "]), term), max_size=2)
    return st.tuples(term, rest).map(lambda t: t[0] + "".join(op + u for op, u in t[1]))


FACTORS = st.recursive(
    ATOMS,
    lambda f: st.one_of(
        st.lists(polys(f), min_size=2, max_size=3).map(lambda es: "[" + ",".join(es) + "]"),
        polys(f).map(lambda p: "(" + p + ")"),
    ),
    max_leaves=6,
)


@settings(max_examples=60)
@given(polys(FACTORS))
@example("[x1,x2,x3]*w1 - 1/2*[[x2,e22],x1]")
@example("x1*x1*w1*x2 + [x1,w7]*x1*x2")
@example("-1/3*[x1,x2,w0]*x3 + 3/2*(x3*[x1,x2] - w1*x1*x2*x3)")
def test_drawn_polynomials_normalize_as_before(text):
    assert_same_normalization(text)


@given(polys(FACTORS, st.one_of(SCALARS, st.just("-1*"))))
@example("-1*[x1,x2] + x3")
@example("x3 - (x1 + x2)")
def test_printed_polynomials_parse_back(text):
    # str() prints a form the grammar reads, a first term -1*t included
    try:
        node = parse(text)
    except ParseError:
        return  # a term without a variable
    assert symbol_words(parse(str(node))) == symbol_words(node), str(node)


def count_nodes(node) -> int:
    children = {Scalar: lambda n: (n.body,), Sum: lambda n: n.terms, Prod: lambda n: n.factors,
                Comm: lambda n: n.entries}.get(type(node), lambda n: ())
    return 1 + sum(map(count_nodes, children(node)))


def counted_expansions(monkeypatch) -> list:
    """The nodes expanded from now on, one entry per call."""
    calls, expand = [], polynomials.symbol_words

    def counted(node):
        calls.append(node)
        return expand(node)

    monkeypatch.setattr(polynomials, "symbol_words", counted)
    monkeypatch.setattr(codim, "symbol_words", counted)
    return calls


@pytest.mark.parametrize("text", ["[x1,x2]-[x1,x2,w1]", "[x1,x2]*[x3,x4]", "w1*[x1,x2]", "x1*w3"])
def test_a_generator_is_expanded_once(monkeypatch, text):
    # the tree-based path (normalization_oracle) expanded the tree in parse,
    # in multilinearize and again, rebuilt, in resolved_words
    calls = counted_expansions(monkeypatch)
    _generator_words(text, ACTIONS["ut2full"])
    root = calls[0]
    assert len(calls) == len({id(n) for n in calls}) == count_nodes(root)
    assert str(root) == str(parse(text))


def test_a_witness_expands_its_polynomial_once(monkeypatch):
    node = parse("[x1,x2]*x3 + x1*x1*w1")
    calls = counted_expansions(monkeypatch)
    assert identity_witness(node, ACTIONS["ut2full"]) is not None
    assert calls[0] is node
    assert len(calls) == len({id(n) for n in calls}) == count_nodes(node)


def test_vectorize_keeps_fraction_values():
    h = ACTIONS["ut2full"]
    for text in ("[x1,x2]-[x1,x2,w1]", "2*w1*x1*x2", "1/2*x2*w2*x1"):
        vec = vectorize_words(resolve(symbol_words(parse(text)), h), h.W, 2)
        assert vec and all(type(c) is Fraction for c in vec.values()), text


def test_a_witness_resolves_no_part_without_variables():
    # mat(2) acting on itself has no kernel tail, so w9 does not resolve;
    # the part of w9 alone has no variable and is skipped unresolved
    A = builtin("mat(2)")
    h = action_from_subalgebra(A, A.basis_elements(), labels=list(A.labels))
    node = Sum((parse("[x1,x2]"), Coeff("w9")))
    assert identity_witness(node, h) == is_identity(node, h)[1] is not None
