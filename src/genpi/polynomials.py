"""Generalized polynomials: variables interleaved with coefficient symbols.

Grammar (whitespace free-form, '*' optional between factors):

    poly     := term (('+'|'-') term)*
    term     := (rational '*')? factor ('*'? factor)*
    factor   := var | coeff | '[' poly (',' poly)+ ']' | '(' poly ')'
    var      := 'x' digits
    coeff    := ('w'|'e') digits
    rational := '-'? digits ('/' digits)?

Commutators are left-normed: [a,b,c] = [[a,b],c].  Coefficient symbols
resolve against an action: 'w<i>' is the i-th listed basis element of the
coefficient algebra, any other token is looked up by label; unresolved
symbols are tail coefficients (index >= listed size) when the action
carries a kernel tail, and monomials containing them vanish identically.

A polynomial is normalized in one pass over its parse tree
(symbol_words): each node expands once to a {word: coefficient} dict,
commutators on the dicts of their entries, with no intermediate tree.  A
word is a tuple of variable indices (int) and coefficient names (str);
coefficients stay Python ints until a non-integral rational scalar makes
them Fractions.  Linearization (multilinear_parts) and coefficient
resolution (resolve) act on that dict; resolved words are tuples mixing
positive ints (variable indices) and negative ints (-(k+1) for
coefficient index k).  Text reaches coordinates one way: parse,
symbol_words, multilinear_parts, resolve, then vectorize_words.  Nothing
turns words back into a tree: the tree is parse's output, and str()
prints it in a form that parse reads back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations, product

from .errors import BadDegree, NotMultilinear, NotPolynomial, ParseError, UnknownCoefficient

_ONE = Fraction(1)


# -- AST -----------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True)
class Coeff:
    name: str  # as written: w1, e2, ...

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Scalar:
    value: Fraction
    body: "Var | Coeff | Prod | Comm"

    def __str__(self):
        v = self.value
        body = _factor_str(self.body)
        return f"{v}*{body}"


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def __str__(self):
        parts = []
        for i, t in enumerate(self.terms):
            if i and isinstance(t, Scalar) and t.value < 0:
                s = str(t.body) if t.value == -1 else str(Scalar(-t.value, t.body))
                parts.append(" - " + s)
            else:
                parts.append(("" if i == 0 else " + ") + str(t))
        return "".join(parts)


@dataclass(frozen=True)
class Prod:
    factors: tuple

    def __str__(self):
        return "*".join(_factor_str(f) for f in self.factors)


@dataclass(frozen=True)
class Comm:
    entries: tuple

    def __str__(self):
        return "[" + ",".join(str(e) for e in self.entries) + "]"


def _factor_str(node):
    if isinstance(node, (Sum, Scalar)):
        return "(" + str(node) + ")"
    return str(node)


# -- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def digits(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        return int(self.text[start : self.pos])

    def poly(self):
        terms = [self.term()]
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                terms.append(self.term())
            elif c == "-":
                self.pos += 1
                t = self.term()
                terms.append(_scale(t, Fraction(-1)))
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self):
        scalar = _ONE
        c = self.peek()
        if c.isdigit() or (c == "-" and self._rational_ahead()):
            scalar = self.rational()
            if self.peek() == "*":
                self.pos += 1
        factors = [self.factor()]
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                factors.append(self.factor())
            elif c in ("x", "w", "e", "[", "("):
                factors.append(self.factor())
            else:
                break
        node = factors[0] if len(factors) == 1 else Prod(tuple(factors))
        return node if scalar == 1 else _scale(node, scalar)

    def _rational_ahead(self):
        return self.pos + 1 < len(self.text) and self.text[self.pos + 1].isdigit()

    def rational(self):
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        num = self.digits()
        den = 1
        if self.peek() == "/":
            self.pos += 1
            den = self.digits()
            if den == 0:
                self.error("zero denominator")
        return Fraction(sign * num, den)

    def factor(self):
        c = self.peek()
        if c == "x":
            self.pos += 1
            return Var(self.digits())
        if c in ("w", "e"):
            self.pos += 1
            tag = c
            return Coeff(f"{tag}{self.digits()}")
        if c == "[":
            self.pos += 1
            entries = [self.poly()]
            while self.peek() == ",":
                self.pos += 1
                entries.append(self.poly())
            self.eat("]")
            if len(entries) < 2:
                self.error("commutator needs at least two entries")
            return Comm(tuple(entries))
        if c == "(":
            self.pos += 1
            inner = self.poly()
            self.eat(")")
            return inner
        self.error("expected a variable, coefficient, commutator or group")


def _scale(node, c: Fraction):
    if c == 1:
        return node
    if isinstance(node, Scalar):
        return _scale(node.body, c * node.value)
    if isinstance(node, Sum):
        return Sum(tuple(_scale(t, c) for t in node.terms))
    return Scalar(c, node)


def _tree(text: str):
    """The parse tree of the text, unchecked."""
    p = _Parser(text)
    node = p.poly()
    p.skip()
    if p.pos != len(text):
        p.error("trailing input")
    return node


def parse_words(text: str):
    """(tree, words): the parse tree of a generalized polynomial and its one
    expansion (symbol_words), checked as parse checks it."""
    node = _tree(text)
    words = symbol_words(node)
    for word, c in words.items():
        if c and not any(isinstance(s, int) for s in word):
            raise ParseError("term without any variable", 0)
    return node, words


def parse(text: str):
    """Parse a generalized polynomial; every additive term must contain a
    variable (coefficient-only terms are not elements of the free algebra)."""
    return parse_words(text)[0]


# -- expansion -------------------------------------------------------------------


def _add(out: dict, key, c):
    """out[key] += c, the key dropped when the sum is zero."""
    c = out.get(key, 0) + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def _times(u: dict, v: dict) -> dict:
    """The product of two word dicts."""
    out: dict = {}
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            _add(out, w1 + w2, c1 * c2)
    return out


def symbol_words(node) -> dict:
    """The expansion of a polynomial to {word: coefficient}: a word is a
    tuple of variable indices (int) and coefficient names as written (str),
    and a coefficient an int until a non-integral scalar makes it a
    Fraction.  Commutators expand on the word dicts of their entries,
    left-normed: [a, b] = ab - ba, [a, b, c] = [[a, b], c].  Sums and
    products drop the words whose coefficient cancels; a scalar 0 keeps
    its words at coefficient 0."""
    if isinstance(node, Var):
        return {(node.index,): 1}
    if isinstance(node, Coeff):
        return {(node.name,): 1}
    if isinstance(node, Scalar):
        v = node.value
        v = v.numerator if v.denominator == 1 else v
        return {w: c * v for w, c in symbol_words(node.body).items()}
    if isinstance(node, Sum):
        out: dict = {}
        for t in node.terms:
            for w, c in symbol_words(t).items():
                _add(out, w, c)
        return out
    if isinstance(node, Prod):
        out = {(): 1}
        for f in node.factors:
            out = _times(out, symbol_words(f))
        return out
    if isinstance(node, Comm):
        acc = symbol_words(node.entries[0])
        for e in node.entries[1:]:
            ee = symbol_words(e)
            acc, ba = _times(acc, ee), _times(ee, acc)
            for w, c in ba.items():
                _add(acc, w, -c)
        return acc
    raise NotPolynomial(f"not a polynomial node: {node!r}")


# -- resolution against an action -------------------------------------------------


def resolve_coefficient(action, name: str) -> int:
    """Index of a coefficient symbol in the listed basis; unlisted symbols
    map to the tail sentinel (listed size) for kernel-tail actions."""
    W = action.W
    if name in W.labels:
        return W.labels.index(name)
    if name.startswith("w") and name[1:].isdigit():
        i = int(name[1:])
        if i < W.dim:
            return i
        if action.kernel_tail:
            return W.dim
        raise UnknownCoefficient(f"coefficient {name} outside the listed basis")
    if action.kernel_tail:
        return W.dim
    raise UnknownCoefficient(f"unknown coefficient label {name!r}")


def resolve(words: dict, action) -> dict:
    """The word dict of symbol_words with each coefficient name replaced by
    -(k+1), k its index (resolve_coefficient); words that become equal
    merge, and those that cancel are dropped."""
    out: dict = {}
    for w, c in words.items():
        _add(out, tuple(s if isinstance(s, int) else -(resolve_coefficient(action, s) + 1) for s in w), c)
    return out


# -- multilinearization -----------------------------------------------------------


def _multidegree(word):
    vs = sorted(s for s in word if isinstance(s, int))
    return tuple((v, vs.count(v)) for v in dict.fromkeys(vs))


def multilinear_parts(words: dict) -> list:
    """The multilinear components of the standard characteristic-zero
    linearization of a word dict (symbol_words), as word dicts: split into
    multihomogeneous parts, replace each variable of degree k by k fresh
    copies and keep the part linear in every copy.  Fresh variables are
    renumbered 1..n by (original index, copy); a part that is multilinear
    already is kept as it is."""
    components: dict = {}
    for w, c in words.items():
        components.setdefault(_multidegree(w), {})[w] = c
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
                if isinstance(s, int):
                    positions.setdefault(s, []).append(p)
            for combo in product(*(permutations(range(d)) for _, d in deg)):
                neww = list(w)
                for (idx, d), perm in zip(deg, combo):
                    for slot, p in enumerate(positions[idx]):
                        neww[p] = renumber[(idx, perm[slot])]
                _add(lin, tuple(neww), c)
        if lin:
            out.append(lin)
    return out


# -- monomial basis of the multilinear space --------------------------------------


@dataclass(frozen=True)
class GenMonomial:
    """w_{i0} x_{sigma(1)} w_{i1} ... x_{sigma(n)} w_{in}."""

    n: int
    perm: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise BadDegree(f"degree {self.n} needs {self.n + 1} coefficient slots, got {len(self.coeffs)}")

    def rank(self, s: int) -> int:
        return monomial_index(self.perm, self.coeffs, s)

    def label(self, action=None):
        parts = []
        labels = action.W.labels if action is not None else None

        def wlab(k):
            return labels[k] if labels is not None and k < len(labels) else f"w{k}"

        if self.coeffs[0] != 0 or self.n == 0:
            parts.append(wlab(self.coeffs[0]))
        for t in range(self.n):
            parts.append(f"x{self.perm[t]}")
            if self.coeffs[t + 1] != 0:
                parts.append(wlab(self.coeffs[t + 1]))
        return "*".join(parts)


def enumerate_basis(n: int, s: int):
    """All n! * s^(n+1) monomials in lexicographic (perm, coeffs) order."""
    if n < 1 or s < 1:
        raise BadDegree(f"need n >= 1 and s >= 1, got n = {n}, s = {s}")
    for perm in order_ranks(n):
        for coeffs in product(range(s), repeat=n + 1):
            yield GenMonomial(n, perm, coeffs)


def monomial_index(order, coeffs, s: int) -> int:
    """Column of w_(c_0) x_order(1) w_(c_1) ... x_order(d) w_(c_d) among the
    degree-d monomials with s listed coefficients, in enumerate_basis order:

        col = r(order) * s^(d+1) + sum_t c_t * s^(d-t),

    r the lexicographic rank of the variable order, the number whose digit
    i, of base d - i, counts the later variables below order[i].  So
    col // s^(d+1) is the order's rank, and digit t of the rest, at place
    s^(d-t), is the coefficient of slot t."""
    d, col = len(order), 0
    for i, v in enumerate(order):
        col = col * (d - i) + sum(u < v for u in order[i + 1 :])
    for c in coeffs:
        col = col * s + c
    return col


@cache
def order_ranks(d: int) -> dict:
    """{variable order: its rank r (monomial_index)}: the orders of x_1..x_d,
    as tuples, in rank order.  Shared: read it, do not change it."""
    return {p: monomial_index(p, (), 1) for p in permutations(range(1, d + 1))}


def basis_size(n: int, s: int) -> int:
    out = s ** (n + 1)
    for k in range(2, n + 1):
        out *= k
    return out


# -- coordinates in the multilinear monomial space ---------------------------------


def word_runs(word):
    """(variable order, coefficient runs) of a resolved word: its variables
    in order, and the runs of coefficient indices before, between and after
    them, as tuples."""
    order, runs = [], [[]]
    for sym in word:
        if sym > 0:
            order.append(sym)
            runs.append([])
        else:
            runs[-1].append(-(sym + 1))
    return tuple(order), tuple(map(tuple, runs))


def vectorize_words(words: dict, W, n: int) -> dict:
    """Coefficient vector of a {word: coefficient} map of resolved words
    (resolve) over the degree-n monomial basis, as a sparse {rank:
    rational} map.  Coefficient runs between variables merge through the
    product of the coefficient algebra W; monomials containing tail
    coefficients vanish in these coordinates."""
    s = W.dim
    if W.unit is None:
        raise UnknownCoefficient("vectorization needs a unital coefficient algebra")
    unit = list(W.unit)
    out: dict = {}
    for word, c in words.items():
        if any(sym < 0 and -(sym + 1) >= s for sym in word):
            continue  # tail monomials are identically zero in these coordinates
        perm, runs = word_runs(word)
        if sorted(perm) != list(range(1, n + 1)):
            raise NotMultilinear(
                f"word is not multilinear of degree {n}: variables {list(perm)}"
            )
        merged = []
        for run in runs:
            vec = unit
            for k in run:
                vec = W.multiply_coords(vec, W._unit_vec(k))
            merged.append([(k, v) for k, v in enumerate(vec) if v != 0])
        total = [((), c)]
        for slot in merged:
            total = [(ks + (k,), cc * v) for ks, cc in total for k, v in slot]
        for ks, cc in total:
            _add(out, monomial_index(perm, ks, s), cc)
    return out
