"""The tree-based normalization that genpi.polynomials.symbol_words
replaced, kept as a test oracle: the polynomial expanded by recursion over
Var/Coeff words in Fractions, commutators rewritten as trees first
(expand_commutators), each multilinear component rebuilt as a tree
(words_to_node) and expanded again, then resolved against the action and
renumbered as codim._generator_words does."""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product

from genpi.errors import NotMultilinear, NotPolynomial
from genpi.polynomials import (
    Coeff,
    Comm,
    Prod,
    Scalar,
    Sum,
    Var,
    parse,
    resolve_coefficient,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _add(out: dict, key, c):
    c = out.get(key, _ZERO) + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def _scale(node, c):
    if c == 1:
        return node
    if isinstance(node, Scalar):
        return _scale(node.body, c * node.value)
    if isinstance(node, Sum):
        return Sum(tuple(_scale(t, c) for t in node.terms))
    return Scalar(c, node)


def expand_commutators(node):
    """Commutator-free tree: [a,b] -> ab - ba, left-normed recursively."""
    if isinstance(node, (Var, Coeff)):
        return node
    if isinstance(node, Scalar):
        return _scale(expand_commutators(node.body), node.value)
    if isinstance(node, Sum):
        return Sum(tuple(expand_commutators(t) for t in node.terms))
    if isinstance(node, Prod):
        return Prod(tuple(expand_commutators(f) for f in node.factors))
    if isinstance(node, Comm):
        acc = expand_commutators(node.entries[0])
        for e in node.entries[1:]:
            ee = expand_commutators(e)
            acc = Sum((Prod((acc, ee)), _scale(Prod((ee, acc)), Fraction(-1))))
        return acc
    raise NotPolynomial(f"not a polynomial node: {node!r}")


def tree_words(node) -> dict:
    """{word: Fraction} with word a tuple of Var/Coeff."""
    if isinstance(node, (Var, Coeff)):
        return {(node,): _ONE}
    if isinstance(node, Scalar):
        return {w: c * node.value for w, c in tree_words(node.body).items()}
    if isinstance(node, Sum):
        out: dict = {}
        for t in node.terms:
            for w, c in tree_words(t).items():
                _add(out, w, c)
        return out
    if isinstance(node, Prod):
        out = {(): _ONE}
        for f in node.factors:
            fw = tree_words(f)
            nxt: dict = {}
            for w1, c1 in out.items():
                for w2, c2 in fw.items():
                    _add(nxt, w1 + w2, c1 * c2)
            out = nxt
        return out
    if isinstance(node, Comm):
        return tree_words(expand_commutators(node))
    raise NotPolynomial(f"not a polynomial node: {node!r}")


def words_to_node(words: dict):
    def key(word):
        return tuple((0, s.index) if isinstance(s, Var) else (1, s.name) for s in word)

    terms = []
    for w, c in sorted(words.items(), key=lambda kv: key(kv[0])):
        if w:
            terms.append(_scale(w[0] if len(w) == 1 else Prod(w), c))
    if not terms:
        return Scalar(_ZERO, Var(1))
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def multilinear_words(node) -> list:
    """The multilinear components of the node as {word: Fraction} dicts,
    before they are rebuilt as trees (multilinearize)."""
    components: dict = {}
    for w, c in tree_words(node).items():
        deg = tuple(sorted(Counter(s.index for s in w if isinstance(s, Var)).items()))
        components.setdefault(deg, {})[w] = c
    out = []
    for deg, part in sorted(components.items()):
        if all(d == 1 for _, d in deg):
            out.append(part)
            continue
        renumber = {key: i + 1 for i, key in enumerate((idx, t) for idx, d in deg for t in range(d))}
        lin: dict = {}
        for w, c in part.items():
            positions: dict = {}
            for p, s in enumerate(w):
                if isinstance(s, Var):
                    positions.setdefault(s.index, []).append(p)
            for combo in product(*(permutations(range(d)) for _, d in deg)):
                neww = list(w)
                for (idx, d), perm in zip(deg, combo):
                    for slot, p in enumerate(positions[idx]):
                        neww[p] = Var(renumber[(idx, perm[slot])])
                _add(lin, tuple(neww), c)
        if lin:
            out.append(lin)
    return out


def multilinearize(node) -> list:
    return [words_to_node(part) for part in multilinear_words(node)]


def resolved_words(node, action) -> dict:
    out: dict = {}
    for w, c in tree_words(node).items():
        key = tuple(s.index if isinstance(s, Var) else -(resolve_coefficient(action, s.name) + 1) for s in w)
        _add(out, key, c)
    return out


def generator_words(g, action):
    """(degree, [(coeff, word)]) of a text or polynomial with one multilinear
    component, renumbered to x1..xd without tail words; None when no word is
    left."""
    if isinstance(g, str):
        g = parse(g)
    comps = multilinearize(g)
    if len(comps) != 1:
        raise NotMultilinear(f"generator {g} has {len(comps)} multilinear components, not one")
    s = action.s
    words = {w: c for w, c in resolved_words(comps[0], action).items()
             if not any(sym < 0 and -(sym + 1) >= s for sym in w)}
    if not words:
        return None
    ren = {v: i + 1 for i, v in enumerate(sorted({sym for w in words for sym in w if sym > 0}))}
    return len(ren), [(c, tuple(ren.get(sym, sym) for sym in w)) for w, c in words.items()]
