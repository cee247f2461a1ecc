"""The AlgElement evaluator that genpi.codim.identity_witness replaced, kept
as a test oracle: a polynomial evaluated one word and one basis tuple at a
time, in Fractions, with each coefficient acting through its multiplier
pair.  Its words and components come from the package's normalization
(symbol_words, multilinear_parts, resolve)."""

from itertools import product

from genpi.polynomials import multilinear_parts, resolve, symbol_words


def _eval_word(word, action, assignment):
    """The value of one resolved word at the assignment {variable index:
    AlgElement}: the variables multiplied left to right, the coefficients
    after a variable acting through rho, those before the first through
    lambda; a tail coefficient makes it zero.  KeyError for a variable
    without a value."""
    A, s = action.A, action.s
    if any(sym < 0 and -(sym + 1) >= s for sym in word):
        return A.zero()
    i = next(i for i, sym in enumerate(word) if sym > 0)
    val = assignment[word[i]]
    for sym in word[i + 1 :]:
        if sym > 0:
            val = val * assignment[sym]
        else:
            val = A.element(action.pairs[-(sym + 1)].R.matvec(val.coords))
    for sym in reversed(word[:i]):
        val = A.element(action.pairs[-(sym + 1)].L.matvec(val.coords))
    return val


def evaluate(node, action, assignment):
    """Evaluate at AlgElements of the acted-on algebra; coefficients act
    through the pairs, tail coefficients annihilate their monomial."""
    total = action.A.zero()
    for word, c in resolve(symbol_words(node), action).items():
        total = total + c * _eval_word(word, action, assignment)
    return total


def is_identity(node, action):
    """(bool, witness): vanishes under all substitutions; multilinear
    components are checked on all basis tuples, which suffices in
    characteristic zero.  The witness is (variables, basis labels) at the
    first failing tuple in product order."""
    A = action.A
    for part in multilinear_parts(symbol_words(node)):
        vs = sorted({s for w in part for s in w if isinstance(s, int)})
        if not vs:
            continue
        words = resolve(part, action)
        for tup in product(range(A.dim), repeat=len(vs)):
            assignment = {v: A.basis_element(t) for v, t in zip(vs, tup)}
            total = A.zero()
            for word, c in words.items():
                total = total + c * _eval_word(word, action, assignment)
            if not total.is_zero():
                return False, (vs, tuple(A.labels[t] for t in tup))
    return True, None
