"""Codimension engine for generalized identities.

The degree-n multilinear monomials of an action with s listed coefficient
basis elements are the n! * s^(n+1) words w_{i0} x_{sigma(1)} w_{i1} ...
x_{sigma(n)} w_{in}.  Their evaluations at basis tuples of A form the
evaluation matrix; its rank is the n-th codimension and its left kernel is
the space of multilinear identities of degree n.

The rows of the identity permutation form the master matrix (_masters):
one dense row per coefficient tuple, the contraction of the transfer
operators of the coefficient slots against the structure constants of A,
as coprime integers equal to a positive scale times the exact rational
row, those of degree t lifted from those of degree t - 1 (_lift, where the
lemma is).  A permutation of the variables only permutes tuple positions,
so its block of rows is the master matrix with its tuple axes transposed
(_evaluation_blocks); the kernel reads those blocks and divides the scales
back out.  The rank does not: the rows span a right Q[S_n]-module
generated by the masters, and the codimension is its cocharacter sum
c_n = sum_lambda d_lambda m_lambda over the partitions lambda of n with at
most dim A parts.  One echelon basis of the span of the masters is lifted
from the distinct rows of each degree alone (_master_span); each
multiplicity m_lambda is the rank of that basis under sigma_T' b_T a_T,
one standard tableau T' at a time, in the columns of the row orbits of T
(_specht.py, where the lemma is).  Containment of varieties tests the same
components of two actions side by side.  Ranks, spans and kernels come
from one of two exact eliminations with the same canonical form, chosen by
the source of the rows: the spans of evaluation rows, which are dense,
from the blocked FastIntRowSpace (_fastrank.py), and the consequence
spans, whose rows and bases are sparse, from SparseIntRowSpace
(_sparserank.py).  _span feeds the dense rows, and _Quotient.fill the
consequence rows of each degree; the coefficient closure (_closure) grows
one sparse space pass by pass: multiplying coefficient slot t by a table
M sends each entry with digit a at place s^(d-t) to the columns with
digit k there, scaled by M[a, k], so no dense row is written.

One polynomial is tested on the same rows (_word_rows, the evaluator that
identity_witness and membership share, made per call on the operators
kept in the action's form below): each of its multilinear components is
one combination of permuted master rows, built for the coefficient
fillings of its words alone, and its first nonzero column is the first
basis tuple at which the component does not vanish.

Each action has one integer form, built part by part on first use and
reused by every later call on it, and freed with it (_of_action): its
lambda_w and rho_w, its degree-1 master rows and its contractions with
their denominators and bound (_action_operators), W's product tables and
its structural identities, the arrays read-only.  Nothing of degree n is
kept: every call does its own lifts, ranks, word rows and consequence
spans.

Consequence spans realize the multilinear degree-n part of the ideal
generated by a set of identities under substitutions, two-sided monomial
multiplication and coefficient multiplication.  Generating-set
verification (_verify) takes one path for every action, on an evaluation
source: per degree, integer row blocks with the rank and the left kernel
of the evaluation matrix, and their row scales (the permuted master
blocks, or the exterior algebra's parity-class matrix below).  Every
generator, a polynomial or a resolved-word dict, is renumbered to
x1..xd and vectorized, and must combine the rows of its degree to zero
(_vanishes).  The degree-1 left kernel, the operator relations of the
action (its structural identities), joins the generators, matching how
the source theorems treat coefficient rewriting as free, and the span of
their consequences must reach the rank of the identity kernel.

The span is built degree by degree (Giambruno & Zaicev, Polynomial
Identities and Asymptotic Methods, AMS 2005): the degree-d part I_d is
spanned by the one-variable extensions of I_(d-1), each a column map of
{column: int} rows, and by the generators of degree exactly d closed
under their coefficient fillings and relabellings (_consequence_blocks).
It is held modulo the part known in closed form, as in the linear
algebra of Marinari, Moeller & Mora (AAECC 4, 1993): the left extensions
w x_d I_(d-1), relabelled, fill s * d disjoint blocks of the monomials,
so the quotient V_d of P_d by them is the sum of s * d copies of
P_(d-1) / I_(d-1), and I_d is the preimage of one SparseIntRowSpace Q_d
in V_d (_Quotient): s * d * c'_(d-1) coordinates, c' the span's own
codimension, where P_d has d! * s^(d+1) columns.  A row of P_d is fed
as the sum of the exact normal forms of the tails of its columns,
placed in their blocks; the other extensions are applied only to the
rows that brought a pivot at degree d - 1, and map the rest into the
blocks.  The degrees below n are spanned in full; degree n is fed until
the answer is known, and no dense row is written on the way.

Every consequence of identities of A is an identity of A: the span is
spanned by the instances u0 g(v_1..v_e) u1 of the generators g, and
substitution, multiplication by monomials and by the listed coefficients,
which act through their multiplier pairs as W does, keep an identity one.
So membership (in_consequence_span) answers False before any consequence
row is built when every generator of degree <= n has a zero evaluation row
and the target a nonzero one, which is the certificate; otherwise it
reduces the target's image in V_n against Q_n as Q_n is fed.

The exterior algebra acted on by the words in its first k generators gets
one integer matrix per degree n, over parity-class columns: each of
e_1..e_k goes to a slot or to none, each slot gets a parity, and the output
word is fixed.  Every evaluation column at any truncation level is zero or
+- one of these columns, and all of them occur from level k + n on, so its
rank is the codimension and its left kernel the identities
(_grassmann_stabilized, where the lemma is).  Only the block of the
identity variable order is gathered, from one sign table over the word
masks of the k + n letters, factor by factor for all coefficient tuples of
a chunk of classes at once (_grassmann_block).  S_n acts on the parity
classes, and the block of any other order is the identity block with its
columns permuted and signed (_grassmann_matrix, where that lemma is); the
generator checks and the degree-1 kernel pull those blocks one at a time,
and the rank reads only the images of the identity block's distinct rows,
which are the distinct nonzero rows of the matrix (_grassmann_rank), so
the n! * s^(n+1) rows are never written.  The class permutation, its
signs and the other tables of a shape (k, n) are built once per process,
each checked against STREAM_BYTES before it is made.  k = 0 is the
ordinary exterior algebra, acted on by F alone.
"""

from __future__ import annotations

import operator
import os
import weakref
from dataclasses import dataclass
from functools import cache, partial, wraps
from fractions import Fraction
from itertools import accumulate, chain, islice, permutations, product
from math import factorial, gcd, lcm
from typing import NamedTuple

import numpy as np

from ._fastrank import BLOCK, FastIntRowSpace
from ._sparserank import SparseIntRowSpace, dense_rows
from ._specht import isotypic_blocks, orbit_width
from .actions import Action, grassmann_action
from .algebras import _grassmann_words, _parse_name, _word_mask
from .errors import (
    BadDegree,
    BasisMismatch,
    BudgetExceeded,
    InternalError,
    NotMultilinear,
    NotPolynomial,
    NotSplit,
    UnknownCoefficient,
)
from .linalg import Subspace, _int_type, int_dict, reversed_kernel
from .polynomials import (
    basis_size,
    enumerate_basis,
    multilinear_parts,
    order_ranks,
    parse_words,
    resolve,
    symbol_words,
    vectorize_words,
    word_runs,
)
from .structure import pi_exponent

_ONE = Fraction(1)

_INT64_LIMIT = 1 << 63

DEFAULT_MAX_ROWS = 2_000_000
MAX_DENSE_COLUMNS = 200_000  # width guard of the master rows and of the kernel's matrix
# byte cap of one dense buffer: the transposed matrix of the kernel, 256
# pieces of the last degree of a master span; of each Grassmann table (the
# identity block, the sign table, the parity classes, the class table) and
# 256 chunks of the images of the identity block's rows; and of each table
# of the consequence spans (an extension map, the inverse of the left
# extensions, the temporaries of one pass of a feed, the dense basis that
# consequences_span returns)
STREAM_BYTES = 1 << 28


def row_budget() -> int:
    env = os.environ.get("GENPI_MAX_ROWS")
    return int(env) if env else DEFAULT_MAX_ROWS


def _check_budget(rows: int, cols: int):
    budget = row_budget()
    if rows > budget or cols > MAX_DENSE_COLUMNS:
        raise BudgetExceeded(rows, cols, budget)


def _is_integer(x) -> bool:
    """Whether x is an integer (operator.index takes it) and not a bool."""
    try:
        operator.index(x)
    except TypeError:
        return False
    return not isinstance(x, bool)


def _check_degree(n: int):
    if not _is_integer(n) or n < 1:
        raise BadDegree(f"degree must be an integer >= 1, got {n!r}")


def _check_bytes(rows: int, cols: int, itemsize: int = 1):
    """Raise BudgetExceeded, before an array of rows x cols items of
    itemsize bytes is allocated, when its bytes are over STREAM_BYTES."""
    if rows * cols * itemsize > STREAM_BYTES:
        raise BudgetExceeded(rows, cols, STREAM_BYTES, itemsize)


# -- the integer form of an action ------------------------------------------------

# The integer form of each action, freed with it (an Action hashes by
# identity and is immutable once built): parts made on first use and
# reused by every later call on that action (_of_action).  The parts hold
# data of the action alone, at degree 1 or per coefficient slot: its
# operators and contractions (_action_operators), W's product tables
# (_action_tables) and its structural identities (_structural).  Nothing
# of degree n is kept, no span and no answer.
_FORMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _of_action(build):
    """build(h) as a part of the integer form of the action h: made on the
    first call for h, kept in _FORMS and then returned as it is.  A part
    must not refer to h, which would keep h alive."""

    @wraps(build)
    def part(h: Action):
        parts = _FORMS.get(h)
        if parts is None:
            parts = _FORMS[h] = {}
        if build not in parts:
            parts[build] = build(h)
        return parts[build]

    return part


def _read_only(X: np.ndarray) -> np.ndarray:
    """X, checked against STREAM_BYTES and made read-only, to be kept in
    the form of an action."""
    if X.nbytes > STREAM_BYTES:
        _check_bytes(len(X), X.size // len(X), X.itemsize)
    X.setflags(write=False)
    return X


# -- evaluation rows ------------------------------------------------------------


def _int_matrix(M):
    """(integer object array, positive denominator) whose quotient is M."""
    den = lcm(*(v.denominator for r in M.iter_rows() for v in r.values()))
    out = np.zeros((M.nrows, M.ncols), dtype=object)
    for i, r in enumerate(M.iter_rows()):
        for j, v in r.items():
            out[i, j] = v.numerator * (den // v.denominator)
    return out, den


class _Contractions(NamedTuple):
    """The contractions S = [S_0 | ... | S_(s-1)] of the rho_w of one
    action (_contraction), in int64 when every entry fits, and max |S|."""

    S: np.ndarray
    bound: int


def _contractions(S: np.ndarray) -> _Contractions:
    """S, in int64 when every entry fits, with its bound."""
    bound = int(np.abs(S).max(initial=0))
    return _Contractions(S.astype(np.int64) if bound < _INT64_LIMIT else S, bound)


class _Operators(NamedTuple):
    """The integer operators of one action (_action_operators)."""

    firsts: np.ndarray  # the degree-1 master rows, in Python integers
    lambdas: tuple  # per w, lambda_w in Python integers, over ldens[w]
    rhos: tuple  # per w, rho_w in Python integers, over rdens[w]
    ldens: tuple
    rdens: tuple
    lift: _Contractions
    cdens: tuple  # per w, the denominator of S_w
    consts: tuple  # the integer structure constants of A (_int_constants), over dc
    dc: int
    unit: np.ndarray  # the contraction of the identity, over dc


@_of_action
def _action_operators(h: Action) -> _Operators:
    """The integer operators of h, kept in its form: its lambda_w and
    rho_w, its degree-1 master rows (the transposed lambda_(w_0)
    rho_(w_1), flattened, (w_0, w_1) in order, in Python integers), row
    (w_0, w_1) over ldens[w_0] * rdens[w_1], its contractions
    (_contraction) side by side, S_w over cdens[w], and A's integer
    structure constants with the contraction of the identity."""
    consts, dc = _int_constants(h.A)
    Ls = [_int_matrix(p.L) for p in h.pairs]
    Rs = [_int_matrix(p.R) for p in h.pairs]
    firsts = np.array([(a @ b).T.ravel() for (a, _), (b, _) in product(Ls, Rs)], dtype=object)
    S, bound = _contractions(np.hstack([_contraction(consts, D) for D, _ in Rs]))
    unit = _contraction(consts, np.identity(h.A.dim, dtype=object))
    return _Operators(_read_only(firsts), tuple(_read_only(X) for X, _ in Ls), tuple(_read_only(X) for X, _ in Rs),
                      tuple(d for _, d in Ls), tuple(d for _, d in Rs),
                      _Contractions(_read_only(S), bound), tuple(dd * dc for _, dd in Rs),
                      tuple(consts), dc, _read_only(unit))


def _operators(hs):
    """(firsts, contractions, (dens, cdens)) of actions hs with one
    coefficient presentation: per action, its degree-1 master rows and its
    contractions (_Contractions), from its form (_action_operators).  Each
    w's operators are over one denominator shared by the actions: dens
    holds those of the degree-1 rows and cdens those of the S_w.  One
    action's operators serve as they are kept; those of two are rescaled
    to the common denominators."""
    ops = [_action_operators(h) for h in hs]
    ldens, rdens, cdens = ([lcm(*per_w) for per_w in zip(*(getattr(o, kind) for o in ops))]
                           for kind in ("ldens", "rdens", "cdens"))
    dens = [a * b for a, b in product(ldens, rdens)]
    if len(ops) == 1:
        return [ops[0].firsts], [ops[0].lift], (dens, cdens)
    firsts, lifts = [], []
    for o in ops:
        rows = [(a // x) * (b // y) for (a, x), (b, y) in product(zip(ldens, o.ldens), zip(rdens, o.rdens))]
        firsts.append(o.firsts * np.array(rows, dtype=object)[:, None])
        cols = np.repeat(np.array([c // x for c, x in zip(cdens, o.cdens)], dtype=object), len(o.lift.S) ** 2)
        lifts.append(_contractions(o.lift.S.astype(object) * cols))
    return firsts, lifts, (dens, cdens)


def _lift(X: np.ndarray, C: _Contractions) -> np.ndarray:
    """Phi_w(X[i]) at row i * s + w, for every row i of X and every listed
    coefficient w, given the contractions C (S = [S_0 | ... | S_(s-1)]
    and its bound).

    Lemma: the degree-t master row of (w_0, ..., w_t) is Phi_(w_t) of the
    degree-(t-1) row of (w_0, ..., w_(t-1)), where
    Phi_w(T) = T.reshape(-1, dim) @ S_w, flattened.  Proof: by the law
    R(ab) = aR(b), the monomial evaluates at (a_1, ..., a_t) to the
    left-normed product D_1(a_1) ... D_t(a_t), with
    D_1 = lambda_(w_0) rho_(w_1) and D_u = rho_(w_u); a row of degree t - 1
    holds the coordinates k1 of the product of the first t - 1 factors at
    each prefix, and S_w[k1, j * dim + k3] is the coordinate k3 of
    b_k1 rho_w(b_j).  Phi_w is linear, so a positive multiple of a row
    lifts to a multiple of its lift, and repeated rows to repeated rows.

    In int64 when max |X| * dim * max |S|, a bound on every entry and
    partial sum of the product, is below 2^63, else in Python integers."""
    S = C.S
    dim = len(S)
    s = S.shape[1] // (dim * dim)
    bound = max(1, int(np.abs(X).max(initial=0))) * dim * C.bound
    dtype = np.int64 if bound < _INT64_LIMIT else object
    Y = X.astype(dtype, copy=False).reshape(-1, dim) @ S.astype(dtype, copy=False)
    return Y.reshape(len(X), X.shape[1] // dim, s, dim * dim).swapaxes(1, 2).reshape(len(X) * s, -1)


def _masters(h: Action, n: int):
    """(M, scales) of the s^(n+1) identity-permutation monomials
    w_(i0) x_1 w_(i1) ... x_n w_(in), coefficient tuples in lexicographic
    order, lifted degree by degree (_lift): row i of M, over the evaluation
    columns, is scales[i] > 0 times the exact rational evaluation row, with
    coprime entries (int64 when every entry fits)."""
    (X,), (C,), (dens, ds) = _operators((h,))
    X = X.copy()  # _coprime divides in place, and the form's rows are read-only
    for _ in range(n - 1):
        X, dens = _lift(X, C), [den * d for den in dens for d in ds]
    M, g = _coprime(X)
    return M, [Fraction(den, v) if v else _ONE for den, v in zip(dens, g)]


def _master_span(hs, n: int, width: int) -> np.ndarray:
    """Integer RREF rows of the span of the degree-n master rows of one
    action, hs = (h,), or of the joint rows [M_A | M_B] of two with one
    coefficient presentation, hs = (hA, hB), in width columns.  Only the
    distinct coprime rows of each degree are lifted (_lift, _distinct_rows);
    a joint row half by half, each w's operators over one denominator
    (_operators), so both halves keep one rational scale.  The last degree
    goes to _span in pieces of _chunk_rows(width) rows, or of the s lifts
    of one row where that is more."""
    firsts, Cs, _ = _operators(hs)

    def lift(X, t):  # degree t to degree t + 1, half by half
        if len(hs) == 1:
            return _lift(X, Cs[0])
        cuts = np.cumsum([h.A.dim ** (t + 1) for h in hs])[:-1]
        return np.hstack([_lift(Y, C) for Y, C in zip(np.split(X, cuts, axis=1), Cs)])

    X = np.hstack(firsts)
    for t in range(1, n - 1):
        X = lift(_distinct_rows(X), t)
    X, step = _distinct_rows(X), max(1, _chunk_rows(width) // hs[0].s)
    pieces = (lift(X[i : i + step], n - 1) for i in range(0, len(X), step)) if n > 1 else [X]
    return _span(map(_distinct_rows, pieces), width).rref()[1]


def _int_constants(A):
    """(constants, den): the nonzero structure constants (i, j, k, v) of A
    with integer values v, den times the rational ones."""
    consts = list(A.iter_nonzero_constants())
    den = lcm(*(v.denominator for *_, v in consts))
    return [(i, j, k, v.numerator * (den // v.denominator)) for i, j, k, v in consts], den


def _contraction(consts, D: np.ndarray) -> np.ndarray:
    """The integer operator D contracted against the integer structure
    constants: S[k1, j * dim + k3] = sum_k2 c(k1, k2, k3) D[k2, j], in
    Python integers."""
    dim = len(D)
    S = np.zeros((dim, dim, dim), dtype=object)
    for i, j, k, v in consts:
        S[i, :, k] += v * D[j, :]
    return S.reshape(dim, dim * dim)


def _chunk_rows(width: int) -> int:
    """Rows of a batch of dense rows of the given width: 1/256 of
    STREAM_BYTES (1 MiB), and at least one."""
    return max(1, STREAM_BYTES // (256 * 8 * width))


def _coprime(M: np.ndarray):
    """(M, gcds of its rows): the rows divided in place by their gcd, and
    turned from Python integers to int64 when every quotient fits."""
    g = np.gcd.reduce(M, axis=1)  # nonnegative
    M //= np.where(g == 0, 1, g)[:, None]
    if M.dtype == object and np.abs(M).max(initial=0) < _INT64_LIMIT:
        M = M.astype(np.int64)
    return M, g.tolist()


def _evaluation_blocks(M: np.ndarray, dim: int, n: int):
    """The evaluation rows of the master rows M, one block per permutation
    of the variables in enumeration order.  x_{perm(1)} ... x_{perm(n)} at
    the assignment u equals the master at (u_{perm(1)}, ..., u_{perm(n)}),
    so its block is M with the tuple axes transposed by the inverse of perm
    (tuple axis q of the block is axis perm.index(q) of the master); the
    output axis stays last."""
    return (_permuted(M, dim, n, perm) for perm in permutations(range(n)))


def _permuted(M: np.ndarray, dim: int, n: int, perm) -> np.ndarray:
    """The block of the variable order perm (0-based) of the master rows M
    (see _evaluation_blocks)."""
    T = M.reshape(len(M), *(dim,) * (n + 1))
    return T.transpose(0, *(perm.index(q) + 1 for q in range(n)), n + 1).reshape(len(M), dim ** (n + 1))


def _distinct_rows(X: np.ndarray) -> np.ndarray:
    """The distinct nonzero rows of X, each divided by its gcd (_coprime),
    in order of first occurrence.  A repeated master only repeats rows of
    every permutation block, and a positive multiple of a row lifts to a
    multiple of its lift (_lift), so the ranks need these rows alone."""
    return _first_rows(_coprime(X)[0])


def _first_rows(X: np.ndarray) -> np.ndarray:
    """The distinct nonzero rows of X, in order of first occurrence."""
    keys = map(tuple, X.tolist()) if X.dtype == object else map(bytes, X)
    first: dict = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    X = X[list(first.values())]
    return X[(X != 0).any(axis=1)]


def _groups(blocks):
    """The rows of the integer blocks, in order, as groups of BLOCK rows
    (the last one may be shorter): a block's last rows wait for the next
    block, and only a group that spans two blocks is copied."""
    held, count = [], 0
    for X in blocks:
        if count:
            held.append(X[: BLOCK - count])
            X = X[BLOCK - count :]
            count += len(held[-1])
            if count < BLOCK:
                continue
            yield np.concatenate(held)
        cut = len(X) - len(X) % BLOCK
        yield from (X[i : i + BLOCK] for i in range(0, cut, BLOCK))
        held, count = [X[cut:]], len(X) - cut
    if count:
        yield np.concatenate(held)


def _span(blocks, ncols: int):
    """Row space of the rows of the integer blocks, dense evaluation rows,
    fed in order to one new FastIntRowSpace in whole BLOCK-row groups.
    (The sparse consequence rows go to SparseIntRowSpace through
    _Quotient.fill.)"""
    space = FastIntRowSpace(ncols)
    for X in _groups(blocks):
        space.add_rows(X)
    return space


def codimension(h: Action, n: int) -> int:
    """Rank of the degree-n evaluation matrix, as the cocharacter sum
    sum_lambda d_lambda m_lambda of the S_n-module its rows span, generated
    by the master rows (_specht.isotypic_blocks).  That matrix is never
    built, nor are all the s^(n+1) master rows: the row budget counts them
    and the width guard their columns, and only the distinct rows of each
    degree are lifted (_master_span).  (The echelon bases grow with the
    ranks, which no budget bounds in advance.)"""
    _check_degree(n)
    cols = h.A.dim ** n * h.A.dim
    _check_budget(h.s ** (n + 1), cols)
    R = _master_span((h,), n, cols)
    parts = isotypic_blocks(R, (h.A.dim,), n, _chunk_rows(cols))
    return sum(d * _span(blocks, ncols).rank for _, d, ncols, blocks in parts)


def identity_kernel_basis(h: Action, n: int) -> Subspace:
    """The multilinear identities of degree n, as a Subspace of
    coefficient vectors over the monomial basis in its canonical integer
    form: the left kernel of the evaluation matrix (_left_kernel).  That
    matrix is dense, and BudgetExceeded is raised before it is allocated
    when it is over STREAM_BYTES."""
    _check_degree(n)
    rows = basis_size(n, h.s)
    cols = h.A.dim ** n * h.A.dim
    _check_budget(rows, cols)
    _check_bytes(rows, cols, 8)
    M, scales = _masters(h, n)
    m = len(M)
    E = np.empty((rows, cols), dtype=M.dtype)
    for p, X in enumerate(_evaluation_blocks(M, h.A.dim, n)):
        E[p * m : (p + 1) * m] = X
    return _left_kernel(E, [np.tile(x, rows // m) for x in _ratio_parts(scales)])


def _ratio_parts(scales):
    """(numerators, denominators) of rational scales, as integer arrays."""
    return np.array([x.numerator for x in scales]), np.array([x.denominator for x in scales])


def _left_kernel(E: np.ndarray, scales=None) -> Subspace:
    """The left kernel of the integer matrix E, row i divided by
    numerators[i] / denominators[i] given scales = (numerators,
    denominators): read off the row space of its columns with the row order
    reversed (linalg.reversed_kernel), in integers throughout.  A zero
    column adds nothing to that space, so only the nonzero ones are fed."""
    return reversed_kernel(_span([E.T[(E != 0).any(axis=0), ::-1]], len(E)), scales)


def identity_kernel_polynomials(h: Action, n: int):
    """Kernel basis rendered as readable monomial combinations."""
    sub = identity_kernel_basis(h, n)
    mons = list(enumerate_basis(n, h.s))
    return [[(c, mons[i].label(h)) for i, c in row] for row in sub.sparse_basis()]


# -- structural identities -------------------------------------------------------


def structural_identities(h: Action):
    """Degree-1 identities of the action (operator relations among the
    composites lambda_i rho_j), as multilinear word polynomials: the
    canonical basis of identity_kernel_basis(h, 1), as fresh dicts of the
    words kept in the form of h (_structural)."""
    return [dict(words) for words in _structural(h)]


@_of_action
def _structural(h: Action):
    """The structural identities of h, kept in its form: the canonical
    basis of identity_kernel_basis(h, 1) as the items of resolved-word
    generators (_degree_one_words)."""
    return tuple(tuple(w.items()) for w in _degree_one_words(identity_kernel_basis(h, 1), h.s))


def _degree_one_words(kernel: Subspace, s: int):
    """The canonical basis vectors of a degree-1 kernel, over the
    monomials w_a x_1 w_b of rank a * s + b, as resolved-word generators."""
    return [{(-(r // s + 1), 1, -(r % s + 1)): c for r, c in row} for row in kernel.sparse_basis()]


# -- consequence spans -----------------------------------------------------------


def _generator_words(g, h: Action):
    """Normalize one generator, a text, a polynomial or a resolved-word
    dict, to (degree, ((coeff, word), ...)) with variables renumbered
    1..d; None for generators that vanish in coordinates.  A resolved-word
    dict is checked first (_checked_words).  A text or a polynomial is
    expanded once, straight to words (polynomials.symbol_words), and
    linearized and resolved on that dict; it must have one multilinear
    component.  Coefficients are ints, or Fractions where a scalar is not
    integral."""
    if isinstance(g, dict):
        return _renumbered(_checked_words(g), h.s)
    if isinstance(g, str):
        g, words = parse_words(g)
    else:
        words = symbol_words(g)
    parts = multilinear_parts(words)
    if len(parts) != 1:
        raise NotMultilinear(f"generator {g} has {len(parts)} multilinear components, not one")
    return _renumbered(resolve(parts[0], h), h.s)


def _checked_words(words: dict) -> dict:
    """The resolved-word dict of a generator given as one, after checking
    it and turning its integers into ints: every word a tuple of nonzero
    integer symbols (a variable index > 0, a coefficient -(k + 1) < 0) with
    a coefficient that is an integer or a Fraction, else NotPolynomial, and
    every word with a variable, else NotMultilinear.  An integer is what
    operator.index takes, a bool aside (_is_integer)."""
    out = {}
    for w, c in words.items():
        if type(w) is not tuple or not all(_is_integer(sym) and sym for sym in w):
            raise NotPolynomial(f"a resolved word is a tuple of nonzero integer symbols, not {w!r}")
        if not _is_integer(c) and not isinstance(c, Fraction):
            raise NotPolynomial(f"the coefficient of word {w} is {c!r}, not an integer or a Fraction")
        w = tuple(map(operator.index, w))
        if not any(sym > 0 for sym in w):
            raise NotMultilinear(f"word {w} has no variable")
        out[w] = c if isinstance(c, Fraction) else operator.index(c)
    return out


def _renumbered(words: dict, s: int):
    """(degree, ((coeff, word), ...)) of resolved words without their tail
    words (a coefficient index >= s), variables renumbered 1..d in order;
    None when no word is left.  Every word must hold every variable once."""
    words = {
        w: c
        for w, c in words.items()
        if not any(sym < 0 and -(sym + 1) >= s for sym in w)
    }
    if not words:
        return None
    vars_seen = sorted({sym for w in words for sym in w if sym > 0})
    ren = {v: i + 1 for i, v in enumerate(vars_seen)}
    out = []
    for w, c in words.items():
        got = [sym for sym in w if sym > 0]
        if sorted(got) != vars_seen:
            raise NotMultilinear("generator is not multilinear")
        out.append((c, tuple(ren[sym] if sym > 0 else sym for sym in w)))
    return len(vars_seen), tuple(out)


def _words_vector(gw, h: Action):
    """(degree d, coefficient vector {row: rational} over the degree-d
    monomials) of the words gw of one generator that _generator_words gave;
    None for generators that vanish in coordinates (gw None)."""
    return None if gw is None else (gw[0], vectorize_words({w: c for c, w in gw[1]}, h.W, gw[0]))


def _relabellings(d: int, pis) -> list:
    """The degree-d substitutions x_i -> x_pi[i-1], one per pi, as maps of
    order ranks (d! entries each): the monomial of variable order p, at
    column r(p) * s^(d+1) + c (polynomials.monomial_index), goes to the one
    of order pi(p) with the same coefficients, at new[r(p)] * s^(d+1) + c."""
    ranks = order_ranks(d)
    orders = np.array(list(ranks)) - 1
    return [np.array([ranks[q] for q in map(tuple, np.take(pi, orders).tolist())]) for pi in pis]


def _swaps(d: int) -> list:
    """The swaps tau_j of the labels j and d (j = 1..d), as maps of order
    ranks (_relabellings)."""
    return _relabellings(d, [[d if v == j else j if v == d else v for v in range(1, d + 1)] for j in range(1, d + 1)])


def _adjacent(d: int) -> list:
    """The swaps of the labels i and i + 1 (i = 1..d-1), which generate
    S_d, as maps of order ranks (_relabellings)."""
    return _relabellings(d, [[i + 1 if v == i else i if v == i + 1 else v for v in range(1, d + 1)] for i in range(1, d)])


def _extensions(d: int, s: int):
    """Column maps from degree d - 1 to degree d of the elementary
    extensions, before the swaps tau_j that follow each of them (_swaps):
    for each listed coefficient w, f -> w*x_d*f, f -> f*x_d*w and, for
    every i < d, the substitution x_i -> x_i*w*x_d.  Each one puts x_d at
    place a of the variable order and w at coefficient slot q, the later
    slots moving up by one.  A map is the array of the images of all
    degree-(d-1) columns, made when it is pulled and checked against
    STREAM_BYTES with its temporaries first; the d swaps act on order ranks
    alone, so they are applied when a map is (_Quotient.fill)."""
    _check_bytes(factorial(d - 1), s ** d, 24)
    ranks, S, c = order_ranks(d), s ** (d + 1), np.arange(s ** d)
    sources = list(order_ranks(d - 1))
    for op in (0, d, *range(1, d)):  # w*x_d*f, f*x_d*w, then x_i -> x_i*w*x_d for i = op
        for w in range(s):
            new, coeffs = [], []
            for sigma in sources:
                if op == d:
                    a, q = d - 1, d
                else:
                    a = q = sigma.index(op) + 1 if op else 0
                lo = s ** (d - q)
                new.append(ranks[sigma[:a] + (d,) + sigma[a:]])
                coeffs.append((c // lo * s + w) * lo + c % lo)
            yield (np.array(new)[:, None] * S + np.array(coeffs)).ravel()


def _product_tables(W):
    """(left, right) integer tables of the product of W: left[w][a, k] is
    the coefficient of b_k in b_w b_a and right[w][a, k] that in b_a b_w,
    all multiplied by one positive integer that clears their denominators."""
    s = W.dim
    P = np.zeros((s, s, s), dtype=object)
    for i, j in product(range(s), repeat=2):
        for k, c in W.product_basis(i, j):
            P[i, j, k] = Fraction(c)
    den = lcm(*(Fraction(v).denominator for v in P.flat))
    P = np.array([int(v * den) for v in P.flat], dtype=object).reshape(s, s, s)
    return P, P.transpose(1, 0, 2)


@_of_action
def _action_tables(h: Action):
    """W's product tables (_product_tables), read-only, kept in the form
    of h."""
    return tuple(map(_read_only, _product_tables(h.W)))


def _coefficient_families(d: int, left, right):
    """The 2d + 2 coefficient families at degree d, as (slot of each variable
    order, table): w*f and f*w multiply the first and the last slot, and
    x_i -> w*x_i and x_i -> x_i*w the slot before and after x_i."""
    orders = list(order_ranks(d))
    out = [([0] * len(orders), left), ([d] * len(orders), right)]
    for i in range(1, d + 1):
        out.append(([p.index(i) for p in orders], right))
        out.append(([p.index(i) + 1 for p in orders], left))
    return out


def _closure(vecs, d: int, ncols: int, tables) -> list:
    """The {column: int} basis rows, in pivot order, of the span of every
    coefficient filling of the degree-d vectors vecs ({column: value}
    each), grown in one sparse space: one pass per family of
    _coefficient_families.  A pass multiplies slot t, the family's slot of
    the variable order, of each basis row as it stood before the pass by
    each table M of the family, and feeds all the images in one add_rows.
    At place P = s^(d-t), an entry x at column base + a * P (a the digit
    of slot t) goes to the columns base + k * P with the values x * M[a, k];
    the digits of all the rows' columns are taken at once.  Tables that
    are multiples of the identity, as the unit's is, add nothing and are
    skipped."""
    s = len(tables[0])
    S = s ** (d + 1)
    left, right = ([M for M in T if not (M == M[0, 0] * np.eye(s, dtype=object)).all()] for T in tables)
    space = SparseIntRowSpace(ncols)
    space.add_rows(int_dict(v) for v in vecs)
    for slots, table in _coefficient_families(d, left, right):
        if not table:
            continue
        basis = space.rows()  # the span before the pass, read before add_rows changes it
        cols = np.fromiter(chain.from_iterable(basis), dtype=np.int64)
        place = (s ** (d - np.array(slots)))[cols // S]
        digit = cols // place % s
        entries = zip((cols - digit * place).tolist(), place.tolist(), digit.tolist(),
                      chain.from_iterable(v.values() for v in basis))
        rows = [list(islice(entries, len(v))) for v in basis]
        images = []
        for M in table:
            terms = [[(k, m) for k, m in enumerate(line) if m] for line in M.tolist()]
            for row in rows:
                out: dict = {}
                for base, p, a, x in row:
                    for k, m in terms[a]:
                        out[base + k * p] = out.get(base + k * p, 0) + x * m
                images.append({c: y for c, y in out.items() if y})
        space.add_rows(images)
    return space.rows()


def _left_blocks(d: int) -> np.ndarray:
    """The inverse of the left extensions on the variable orders of degree
    d: row 0 holds, at each order rank, the index j - 1 of the order's
    first variable x_j, and row 1 the rank, among the orders of degree
    d - 1, of its other variables relabelled by tau_j (Lemma 2 of
    _consequence_blocks).  Checked against STREAM_BYTES before it is made."""
    ranks, lower = order_ranks(d), order_ranks(d - 1)
    _check_bytes(len(ranks), 2, 8)
    table = np.empty((2, len(ranks)), dtype=np.intp)
    for p, r in ranks.items():
        table[:, r] = p[0] - 1, lower[tuple(p[0] if v == d else v for v in p[1:])]
    return table


def _combine(offs, forms, vals) -> dict:
    """The sum of the normal forms (den, coordinates, values) shifted by
    offs and times vals, over the common denominator of the forms, as one
    {column: int} row: a nonzero multiple of the image of a row of P_d in
    V_d, given the normal forms of its tails and the offsets of its blocks
    (_Quotient._place); of a row of one column, its normal form alone."""
    if len(forms) == 1:
        (off,), ((_, ks, ys),) = offs, forms
        return {off + k: y for k, y in zip(ks, ys)}
    L = lcm(*[f[0] for f in forms])
    out: dict = {}
    for off, (den, ks, ys), x in zip(offs, forms, vals):
        x *= L // den
        for k, y in zip(ks, ys):
            c = off + k
            z = out.get(c, 0) + x * y
            if z:
                out[c] = z
            else:
                del out[c]
    return out


class _Quotient:
    """The consequence span I_d of degree d, held as its image Q_d in the
    quotient V_d = P_d / L_d (_consequence_blocks, where the lemmas are):
    one SparseIntRowSpace of width dim V_d = s * d * c'_(d-1), c'_e the
    codimension of I_e in the monomial space P_e.  Degree 0 is the space
    P_0 of the s words w_c, where I_0 = 0 and V_0 = P_0.

    Coordinates of V_d: the block of a first variable x_j and a slot-0
    coefficient w starts at ((j - 1) * s + w) * c'_(d-1), and within it
    lie the coordinates of P_(d-1) / I_(d-1).  Once Q_d is complete
    (close), the coordinates of P_d / I_d = V_d / Q_d are the non-pivot
    columns of Q_d in order, and the normal form of a column of P_d is the
    remainder of its image modulo Q_d, zero at every pivot: the unique
    representative there of its class modulo I_d.  It is kept exactly, as
    (den, coordinates, values) with the class the values over den, and
    memoized per column.  The image of a column of P_d is the normal form
    of its tail placed in its block (Lemma 2), so the image of a row is
    the sum of those of its columns times its values, taken over their
    common denominator as one integer row (_combine)."""

    def __init__(self, d: int, s: int, below: "_Quotient | None" = None, generators=()):
        self.d, self.s, self.below = d, s, below
        self.generators = generators  # the closure C(G_d), rows of P_d
        self.width = s * d * below.codim if below is not None else s
        self.space = SparseIntRowSpace(self.width)
        self.kept: list = []  # N_d: the rows of P_d whose images brought a pivot
        self._forms: dict = {}  # column of P_d -> its normal form
        if below is not None:
            self.lead, self.tail = _left_blocks(d)

    def close(self):
        """Fix the coordinates of P_d / I_d, once Q_d is complete, and
        set codim, the codimension c'_d."""
        _check_bytes(self.width, 1, 9)
        free = np.ones(self.width, dtype=bool)
        free[self.space.pivots] = False
        self._index = (np.cumsum(free) - 1).tolist()
        self.codim = self.width - self.space.rank

    def _place(self, cols):
        """(offsets of the blocks in V_d, columns of the tails in
        P_(d-1)) of the columns cols of P_d, an array or one int, as lists
        or ints (Lemma 2)."""
        s, d = self.s, self.d
        order, coef = np.divmod(cols, s ** (d + 1))
        w, rest = np.divmod(coef, s ** d)
        return ((self.lead[order] * s + w) * self.below.codim).tolist(), (self.tail[order] * s ** d + rest).tolist()

    def normal_form(self, c: int):
        """(den, coordinates, values) of column c of P_d: its class modulo
        I_d is the values over den at the coordinates, den > 0 and coprime
        to the values."""
        form = self._forms.get(c)
        if form is None:
            if self.below is None:
                v, den = {c: 1}, 1
            else:
                off, t = self._place(c)
                den, ks, ys = self.below.normal_form(t)
                v = {off + k: y for k, y in zip(ks, ys)}
            r, m = self.space.remainder(v)
            g = gcd(den * m, *r.values())
            form = den * m // g, tuple(self._index[q] for q in r), tuple(y // g for y in r.values())
            self._forms[c] = form
        return form

    def image(self, row: dict) -> dict:
        """A nonzero multiple of the image in V_d of the {column: int} row
        of P_d, as one {column: int} row (_combine)."""
        offs, tails = self._place(np.fromiter(row, dtype=np.intp, count=len(row)))
        return _combine(offs, [self.below.normal_form(t) for t in tails], list(row.values()))

    def _feed(self, rows, f, new, brought, stop):
        """Feed Q_d the images of the {column: int} rows through the column
        map f (an array of the images of all columns, None for the
        identity) and then the map of order ranks new, one row at a time,
        and put each row of P_d whose image brought a pivot in the list
        brought, when it is one.  Returns the indices of those rows in
        rows, or None when stop(self) is true, which is asked after each
        group of BLOCK rows that brought a pivot.  The columns of all the
        rows are placed at once, their int64 temporaries checked against
        STREAM_BYTES first."""
        if not rows:
            return []
        _check_bytes(sum(map(len, rows)), 12, 8)
        S, add = self.s ** (self.d + 1), self.space.add_row
        cols = np.fromiter(chain.from_iterable(rows), dtype=np.intp)
        order, coef = np.divmod(cols if f is None else f.take(cols), S)
        mapped = new[order] * S + coef
        offs, tails = self._place(mapped)
        full = mapped.tolist() if brought is not None else None
        vals = [x for v in rows for x in v.values()]
        memo, form = self.below._forms, self.below.normal_form
        forms = [memo.get(t) or form(t) for t in tails]
        a, grew, out = 0, False, []
        for i, b in enumerate(accumulate(map(len, rows))):
            image = _combine(offs[a:b], forms[a:b], vals[a:b])
            if image and add(image):
                grew = True
                out.append(i)
                if brought is not None:
                    brought.append(dict(zip(full[a:b], vals[a:b])))
            a = b
            if grew and (i % BLOCK == BLOCK - 1 or i == len(rows) - 1):
                if stop is not None and stop(self):
                    return None
                grew = False
        return out

    def fill(self, keep: bool = False, stop=None):
        """Feed Q_d its rows (Lemmas 3 and 4 of _consequence_blocks), and
        with keep put each row of P_d whose image brought a pivot in kept:
        the rows of N_(d-1) through each non-left extension and each swap,
        then the closure C of the generators of degree d, then round by
        round the rows that brought a pivot in the round before through
        each adjacent swap of labels.  The closure's rows are pi(u), u in C
        and pi in S_d, each fed once: a set holds the pairs fed, as
        u * d! + the rank of the order pi(1..d).  stop(self) is asked after
        each group of BLOCK rows that brought a pivot, and the feed ends
        when it is true."""
        d, kept = self.d, self.kept if keep else None
        lifts, self.below.kept = self.below.kept, None
        if lifts:
            swaps = _swaps(d)
            for f in islice(_extensions(d, self.s), self.s, None):
                for new in swaps:
                    if self._feed(lifts, f, new, kept, stop) is None:
                        return
        fact, rows = factorial(d), []
        fed = self._feed(self.generators, None, np.arange(fact), rows, stop)
        if fed is None:
            return
        keys = np.array(fed, dtype=np.int64) * fact
        seen, adjacent = set(range(0, len(self.generators) * fact, fact)), _adjacent(d)
        while rows:
            if keep:
                kept += rows
            made, made_keys = [], []
            for new in adjacent:
                moved = (keys - keys % fact + new[keys % fact]).tolist()
                todo = [i for i, k in enumerate(moved) if k not in seen]
                seen.update(moved)
                fed = self._feed([rows[i] for i in todo], None, new, made, stop)
                if fed is None:
                    return
                made_keys += [moved[todo[i]] for i in fed]
            rows, keys = made, np.array(made_keys, dtype=np.int64)


def _consequence_blocks(vecs, h: Action, n: int):
    """The degree-n consequence span of the generators, given as (degree d,
    coefficient vector over the degree-d monomials) pairs
    (_generator_vectors), as a quotient of degree n (_Quotient) not yet
    fed (Q.fill), with the degrees below n spanned in full.  The spans are
    built degree by degree:

        I_d = span(tau_j E(I_(d-1)), j = 1..d) + S_d C(G_d).

    E runs I_(d-1) through the elementary extensions and tau_j swaps the
    labels j and d (_extensions, _swaps); G_d are the generators of degree
    d, C closes their span under its coefficient fillings (_closure) and
    S_d relabels the closure.  The closure of a span is the sum of the
    closures of its vectors, as every filling is linear, so one closure
    serves all of G_d.  A pass of C adds {M_w(v): v in the span so far, w
    listed} for one family; the unit of W is a combination of the listed
    basis, so that is the span of the images alone, and the families
    commute, so one pass each reaches every filling.

    Lemma 1: I_d is the span of the instances u0 g(v_1..v_e) u1 of the
    generators g of degree e <= d (coefficients at every position running
    over the listed basis).  Proof of the recursion: at e = d the instance
    is a coefficient filling of a relabelled generator, in S_d C(G_d).  If
    e < d, some variable sits in u0 or u1, or in a substituted block v_t of
    length >= 2; relabel the last variable of that block x_d.  If the block
    has another variable, the one x_i just before x_d, delete x_d with the
    coefficient w between them: x_i -> x_i w x_d puts it back.  If x_d is
    the only variable of u0 (u1), delete it with the outer coefficient w:
    w x_d f (f x_d w) puts it back.  Either way what is left is a
    degree-(d-1) instance, since every coefficient filling is one; and E
    maps I_(d-1) into I_d, as each extension takes instances to instances.
    (So the mirror substitution x_i -> x_d w x_i is not needed.)  Every
    I_d is closed under relabelling, as the instances are.

    Lemma 2 (the left blocks): let L_d = sum_(w, j) tau_j(w x_d I_(d-1)),
    the images of the first s extensions.  The s * d maps
    f -> tau_j(w x_d f) send the monomials of P_(d-1) one to one onto the
    monomials of P_d whose first variable is x_j and whose slot-0
    coefficient is w, and these s * d sets partition the monomials of P_d.
    So L_d is the direct sum of its s * d blocks, and
    V_d = P_d / L_d = direct sum over (w, j) of P_(d-1) / I_(d-1), of
    dimension s * d * c'_(d-1), with c'_e = dim P_e - dim I_e.  Proof: the
    monomial w x_j u is the image of tau_j(u) under the map of (w, j), and
    under no other, since the image of f under the map of (w', j') starts
    with w' x_j', and tau_j is an involution.  So the class of w x_j u in
    V_d is the class of its tail tau_j(u) modulo I_(d-1), placed in the
    block of (w, j) (_left_blocks).

    Lemma 3 (the quotient recursion): let E' be the other extensions,
    f -> f x_d w and x_i -> x_i w x_d, and N_(d-1) rows of I_(d-1) whose
    images span Q_(d-1), the image of I_(d-1) in V_(d-1).  Then

        I_d = L_d + span(tau_j E'(N_(d-1)), j = 1..d) + S_d C(G_d).

    Proof: L_d lies in I_d, as E maps I_(d-1) into I_d, and
    I_(d-1) = L_(d-1) + span(N_(d-1)), as L_(d-1) is the kernel of the map
    onto V_(d-1).  So by Lemma 1 it is enough that each tau_j E' maps
    L_(d-1) into L_d.  An element of L_(d-1) is a sum of terms u x_i t,
    with t in I_(d-2) over the variables other than x_i.  f -> f x_d w
    gives u x_i (t x_d w); x_k -> x_k w x_d gives u x_i (w x_d t) for k = i,
    and u x_i t' otherwise, t' the substitution made in t.  Each of
    t x_d w, w x_d t and t' is an extension of t, so it lies in I_(d-1)
    over the variables other than x_i, and the term lies in the block of
    (u, i) of L_d.  tau_j relabels the variables, which maps a block of
    L_d onto a block of L_d, as each I_e is closed under relabelling.

    Lemma 4 (the relabelled closure): Q_d is spanned once the images of
    tau_j E'(N_(d-1)) and of C(G_d) are fed, and then, round by round, the
    rows pi(u) (u in C(G_d), pi in S_d) of the round before whose images
    brought a pivot, each through every adjacent swap of labels sigma,
    unless sigma pi(u) was fed before.  Proof: let
    T = L_d + span(tau_j E'(N_(d-1))).  T is closed under relabelling:
    pi tau_j = tau_(pi j) rho with rho fixing x_d, and rho e(f) = e'(rho f)
    for an extension e of E' and another one e' of E', so rho E'(N_(d-1))
    lies in E'(I_(d-1)), which lies in T by Lemma 3.  Let Z be T plus the
    span of the rows fed after it.  A fed row whose image brought no pivot
    lies in T plus the span of the rows fed before it whose images did,
    and an adjacent swap maps a row whose image did to a fed row.  So every
    adjacent swap maps Z into Z, and Z is closed under S_d, which they
    generate; it holds C(G_d) and lies in I_d, so by Lemma 3 its image is
    Q_d.

    So I_d is the preimage in P_d of Q_d, and its codimension is
    c'_d = dim V_d - rank Q_d.  At each degree below n, N_d is the rows
    whose images brought a pivot to Q_d, rank Q_d of them; the left
    extensions are never applied, and no row of P_d is kept but those and
    the closure.  The d! relabellings of S_d are never made."""
    s = h.s
    if h.W.unit is None:
        raise InternalError("consequence spans need a unital coefficient algebra")
    tables = _action_tables(h)
    by_degree: dict = {}  # degree -> generator vectors
    for d, vec in vecs:
        if d <= n and vec:
            by_degree.setdefault(d, []).append(vec)
    q = _Quotient(0, s)
    q.close()
    for d in range(1, n + 1):
        closure = _closure(by_degree[d], d, basis_size(d, s), tables) if d in by_degree else []
        q = _Quotient(d, s, q, closure)
        if d < n:
            q.fill(keep=True)
            q.close()
    return q


def _generator_vectors(gens, h: Action) -> list:
    """The (degree, vector) pairs of the generators that do not vanish in
    coordinates (_words_vector), each generator normalized once."""
    return [gv for g in gens if (gv := _words_vector(_generator_words(g, h), h)) is not None]


def consequences_span(generators, h: Action, n: int) -> Subspace:
    """Canonical basis of the degree-n multilinear consequences of the
    generators (empty generator list gives the zero subspace).

    I_n is the kernel of the map that sends each monomial c to its normal
    form modulo I_n (_consequence_blocks, _Quotient).  It is read off in
    one sparse space over the c'_n coordinates of P_n / I_n and one tag
    column per monomial, fed the rows (den * form of c | den at the tag
    of c) from the last monomial to the first: a row whose form part
    reduces to zero leaves den e_c less a combination of the tags of later
    monomials whose rows brought pivots, and is not fed.  Made primitive,
    these rows are the canonical basis: the row of c has its first nonzero
    at c, and every other one is zero at c, whose row brought no pivot.
    They are written dense, checked against STREAM_BYTES first."""
    _check_degree(n)
    cols = basis_size(n, h.s)
    _check_budget(cols, 1)
    q = _consequence_blocks(_generator_vectors(generators, h), h, n)
    q.fill()
    q.close()
    space, kernel = SparseIntRowSpace(q.codim + cols), {}
    for c in reversed(range(cols)):
        den, ks, ys = q.normal_form(c)
        (row,) = space.reduce_rows([{**dict(zip(ks, ys)), q.codim + c: den}])
        if min(row) < q.codim:
            space.add_row(row)
        else:
            kernel[c] = {col - q.codim: x for col, x in row.items()}
    rows = [kernel[c] for c in sorted(kernel)]
    dtype = _int_type(max((abs(x) for v in rows for x in v.values()), default=0))
    _check_bytes(len(rows), cols, dtype.itemsize)
    return Subspace(cols, sorted(kernel), dense_rows(rows, cols, dtype))


def in_consequence_span(poly, generators, h: Action, n: int) -> bool:
    """Membership of one multilinear polynomial in the consequence span.

    The target and the generators are normalized once (_generator_words).
    When every generator of degree <= n is an identity of h and the target
    is not, the answer is False, and the target's nonzero evaluation row
    (_word_rows) is the certificate; no consequence row is built.  Lemma:
    every consequence of identities is an identity, as the span is spanned
    by instances u0 g(v_1..v_e) u1 of the generators (_consequence_blocks),
    and substituting, multiplying by monomials and by the listed
    coefficients, which act through their multiplier pairs as W does (the
    action is a homomorphism), keep an identity of A one.  The witness is
    skipped when a degree-n evaluation row is over STREAM_BYTES.  The
    target's coordinates are built only when the witness does not decide:
    a nonzero row already shows them nonzero, the row being a linear image
    of them.  Otherwise the target is a member iff its image in V_n lies in
    Q_n (_consequence_blocks): Q_n is fed, and the image is reduced against
    it after every group that adds pivots, until it reduces to zero or the
    feed is exhausted."""
    _check_degree(n)
    tw = _generator_words(poly, h)
    if tw is None:
        return True
    if h.W.unit is None:  # the coordinates need it, whether the witness decides or not
        raise UnknownCoefficient("vectorization needs a unital coefficient algebra")
    target = cache(lambda: int_dict(_words_vector(tw, h)[1]))
    row = _word_rows(h) if 8 * h.A.dim ** (n + 1) <= STREAM_BYTES else None
    shown = tw[0] == n and row is not None and row(*tw).any()
    if not shown and not target():
        return True
    if tw[0] != n:
        raise NotMultilinear(f"membership at degree {n} needs a target of that degree, not {tw[0]}")
    gws = [gw for g in generators if (gw := _generator_words(g, h)) is not None]
    if shown and not any(row(*gw).any() for gw in gws if gw[0] <= n):
        return False
    q = _consequence_blocks([_words_vector(gw, h) for gw in gws], h, n)
    residual = q.image(target())

    def holds(q):
        # the residual is zero at the pivots it was reduced against, so
        # only the pivots added since are cleared from it
        nonlocal residual
        (residual,) = q.space.reduce_rows([residual])
        return not residual

    if residual:  # else the target lies in L_n, in the span
        q.fill(stop=holds)
    return holds(q)


def _vanishes(vec: dict, blocks, scales=None) -> bool:
    """Whether the coefficient vector vec ({row: rational}) is an identity:
    it combines the rows of the stacked integer blocks, row r divided by
    scales[r] (by 1 without scales), to zero.  The blocks are pulled in
    order, and only up to the one that holds the last row of vec."""
    cs = {r: Fraction(c) if scales is None else c / scales[r] for r, c in vec.items()}
    den = lcm(*(c.denominator for c in cs.values()))
    total, start, last = 0, 0, max(cs, default=-1)
    for X in blocks:
        if start > last:
            break
        idx = [r - start for r in cs if start <= r < start + len(X)]
        total = total + np.array([int(cs[start + i] * den) for i in idx], dtype=object) @ X[idx]
        start += len(X)
    return not np.any(total)


def _verify(gens, h: Action, n: int, evaluation, codim, structural=None) -> bool:
    """Generating-set certificate at degree n on one evaluation source:
    evaluation(d) gives (integer row blocks, row scales or None) of a
    matrix with the rank and the left kernel of the degree-d evaluation
    matrix, and codim() its rank at degree n.  structural, when given, is
    the basis of the degree-1 left kernel as resolved-word generators
    (_degree_one_words); else it is read from evaluation(1).

    A generator of degree 1..n that is not an identity (_vanishes) gives
    False at once.  Otherwise the consequence span I_n of the generators
    and of the structural identities (the degree-1 left kernel) lies in
    the identity kernel, so the two are equal iff I_n has codimension
    codim(), that is, iff its image Q_n in V_n (_consequence_blocks),
    fed with an early stop, reaches the rank dim V_n - codim()."""
    _check_degree(n)
    vecs = _generator_vectors(gens, h)
    for d, vec in vecs:
        if d <= n and not _vanishes(vec, *evaluation(d)):
            return False
    if structural is None:
        blocks, scales = evaluation(1)
        kernel = _left_kernel(np.concatenate(list(blocks)), None if scales is None else _ratio_parts(scales))
        structural = _degree_one_words(kernel, h.s)
    q = _consequence_blocks(vecs + _generator_vectors(structural, h), h, n)
    target = q.width - codim()
    q.fill(stop=lambda q: q.space.rank >= target)
    if q.space.rank > target:
        raise InternalError("consequence span escaped the identity kernel")
    return q.space.rank == target


def verify_generating_set(generators, h: Action, n: int, codim_value: int | None = None) -> bool:
    """True iff the consequence span of the generators together with the
    action's structural identities equals the degree-n identity kernel.

    Every generator, a polynomial or a resolved-word dict, is renumbered to
    variables x1..xd and vectorized; one of degree d <= n that does not
    combine the degree-d evaluation rows to zero is not an identity, and
    the answer is False.  The kernel is never materialized: the span is
    contained in it once every generator is an identity, so equality is a
    rank comparison against rows - codimension (_verify); pass codim_value
    to supply a known codimension.
    """
    masters = cache(partial(_masters, h))  # one master matrix per degree

    def evaluation(d):
        M, scales = masters(d)
        return _evaluation_blocks(M, h.A.dim, d), scales * factorial(d)

    return _verify(generators, h, n, evaluation, lambda: codimension(h, n) if codim_value is None else codim_value,
                   structural_identities(h))


# -- identity test ---------------------------------------------------------------------


def _word_rows(h: Action):
    """The evaluator of normalized words on the master rows of h: a
    function of (d, [(coeff, word)]) (_generator_words) that gives one
    integer row over the dim^(d+1) evaluation columns, a positive multiple
    of the exact evaluation of the sum of the words at every basis tuple.
    Membership and identity_witness make one per call; it reads the
    lambda_w and rho_w kept in the form of h (_action_operators), and its
    caches of slot operators and master factors last for that call.

    Each word adds its master row moved to its variable order (_permuted):
    the row of w_0 x_1 w_1 ... x_d w_d (the lemma of _lift) with the
    composition of the lambda (slot 0) or rho operators of the word's
    coefficient run in each slot, the identity for an empty run, so W's
    unit and product are not used; words that share their slot runs share
    one row.  The sum is in integers, int64 when a magnitude bound fits; a
    row over STREAM_BYTES raises BudgetExceeded before it is allocated."""
    dim, ops = h.A.dim, _action_operators(h)

    def op(k, left):
        return (ops.lambdas[k], ops.ldens[k]) if left else (ops.rhos[k], ops.rdens[k])

    @cache
    def slot(run, left):
        """(integer operator, denominator) of a coefficient slot holding run:
        the product of its lambda (left) or rho operators, the identity for
        an empty run."""
        factors = [op(k, left) for k in (run if left else run[::-1])]
        X, den = factors[0] if factors else (np.identity(dim, dtype=object), 1)
        for D, dd in factors[1:]:
            X, den = X @ D, den * dd
        return X, den

    @cache
    def contraction(run):
        """(contraction, denominator) of the rho operator of a slot holding
        run (_contraction): the kept one for an empty run or a run of one
        coefficient w (S_w)."""
        if not run:
            return ops.unit, ops.dc
        if len(run) == 1:
            k = run[0]
            return ops.lift.S[:, k * dim * dim:(k + 1) * dim * dim], ops.cdens[k]
        D, dd = slot(run, False)
        return _contraction(ops.consts, D), dd * ops.dc

    @cache
    def master(runs):
        """([degree-1 row, contractions], denominator, magnitude bound) of
        the master row of the slot runs, the factors in int64 when the
        bound, which holds for every partial product, is below 2^63."""
        (L, dl), (R, dr) = slot(runs[0], True), slot(runs[1], False)
        first = (L if not runs[1] else R if not runs[0] else L @ R).T.reshape(1, -1)
        factors, den, bound = [first], dl * dr, int(np.abs(first).max(initial=0))
        for S, dd in map(contraction, runs[2:]):
            factors, den, bound = factors + [S], den * dd, bound * dim * int(np.abs(S).max(initial=0))
        return [X.astype(np.int64 if 0 < bound < _INT64_LIMIT else object) for X in factors], den, bound

    def row(d: int, words) -> np.ndarray:
        ncols = dim ** (d + 1)
        _check_bytes(1, ncols, 8)
        # slot runs -> [(numerator, denominator) of the rational weight of
        # the row in lowest terms, and the variable order]
        groups: dict = {}
        for c, w in words:
            order, runs = word_runs(w)
            _, mden, mbound = master(runs)
            if mbound:  # the row is not zero
                qn, qd = (c, mden) if isinstance(c, int) else (c.numerator, c.denominator * mden)
                g = gcd(qn, qd)
                groups.setdefault(runs, []).append((qn // g, qd // g, [v - 1 for v in order]))
        den = lcm(*(qd for g in groups.values() for _, qd, _ in g))
        bound = sum(abs(qn) * (den // qd) * master(runs)[2] for runs, g in groups.items() for qn, qd, _ in g)
        dtype = np.int64 if bound < _INT64_LIMIT else object
        total = np.zeros((1, ncols), dtype=dtype)
        for runs, g in groups.items():
            X, *steps = master(runs)[0]
            for S in steps:
                X = (X.reshape(-1, dim) @ S).reshape(1, -1)
            X = X.astype(dtype, copy=False)
            for qn, qd, perm in g:
                total += qn * (den // qd) * _permuted(X, dim, d, perm)
        return total[0]

    return row


def identity_witness(node, h: Action):
    """None when the polynomial vanishes under every substitution from A,
    else (variables, labels): the basis elements its variables take at the
    first basis tuple, in product order, where its first failing
    multilinear component does not vanish (these decide in characteristic
    zero).  The polynomial is expanded once, straight to words
    (polynomials.symbol_words), with int or, past a non-integral scalar,
    Fraction coefficients; each multilinear part of that dict with a
    variable is resolved, renumbered to x1..xd without tail words
    (_renumbered) and summed on the master rows by the evaluator that
    membership shares (_word_rows).  A row over STREAM_BYTES raises
    BudgetExceeded before it is allocated."""
    row = _word_rows(h)
    for part in multilinear_parts(symbol_words(node)):
        variables = sorted(s for s in next(iter(part)) if isinstance(s, int))  # those of every word
        gw = _renumbered(resolve(part, h), h.s) if variables else None
        if gw is None:
            continue
        nz = np.flatnonzero(row(*gw))
        if nz.size:
            tup = np.unravel_index(int(nz[0]) // h.A.dim, (h.A.dim,) * gw[0])
            return variables, tuple(h.A.labels[int(t)] for t in tup)
    return None


# -- variety containment -----------------------------------------------------------


def _same_coefficient_presentation(hA: Action, hB: Action) -> bool:
    WA, WB = hA.W, hB.W
    return WA.labels == WB.labels and all(
        WA.product_basis(i, j) == WB.product_basis(i, j) for i, j in product(range(WA.dim), repeat=2)
    )


def variety_contains(hA: Action, hB: Action, n: int) -> bool:
    """Degreewise necessary condition for membership of the second action's
    algebra in the variety of the first: every multilinear identity of the
    first of degree <= n is an identity of the second, decided by
    rank([E_A | E_B]) = rank(E_A) per degree, one isotypic component at a
    time (see _specht.isotypic_blocks), on the span of the joint master
    rows (_master_span).  The row budget counts the s^(m+1) joint master
    rows, of which only the distinct ones of each degree are lifted, and the
    width guard their columns."""
    _check_degree(n)
    if not _same_coefficient_presentation(hA, hB):
        raise BasisMismatch(
            "variety comparison needs one shared coefficient presentation"
        )
    dims = (hA.A.dim, hB.A.dim)
    for m in range(1, n + 1):
        cols = hA.A.dim ** (m + 1) + hB.A.dim ** (m + 1)
        _check_budget(hA.s ** (m + 1), cols)
        R = _master_span((hA, hB), m, cols)
        for shape, _, ncols, blocks in isotypic_blocks(R, dims, m, _chunk_rows(cols)):
            if (_span(blocks, ncols).pivots >= orbit_width(dims[0], shape)).any():
                return False
    return True


# -- truncated exterior algebras -----------------------------------------------------


@cache
def _sign_table(letters: int) -> np.ndarray:
    """sgn[u, v] for the words u and v over the given number of letters, as
    bitmasks (bit i - 1 for e_i): 0 when they share a letter, else the sign
    (-1)^#{a in u, b in v : a > b} that sorts the product uv (int8, and
    read-only, as the cache shares it).  It is made in place beside two
    int8 arrays of its size, and those 3 * 4^letters bytes are checked
    against STREAM_BYTES first."""
    _check_bytes(1 << letters, 1 << letters, 3)
    m = np.arange(1 << letters)
    bits = (m >> np.arange(letters)[:, None] & 1).astype(np.int8)  # bits[a, u]: e_(a+1) in u
    odd = np.bitwise_xor.reduce(bits, axis=0)  # parity of the number of letters
    swaps = np.zeros((len(m), len(m)), dtype=np.int8)  # parity of the inversions
    meet = np.zeros_like(swaps)  # whether the words share a letter
    for a, bit in enumerate(bits):
        swaps ^= bit[:, None] & odd[m & (1 << a) - 1]
        meet |= bit[:, None] & bit
    # (1 - 2 * swaps) * (1 - meet)
    swaps *= -2
    swaps += 1
    meet ^= 1
    swaps *= meet
    swaps.flags.writeable = False
    return swaps


@cache
def _parity_classes(k: int, n: int):
    """(slots, col, cls, out) of the parity classes at degree n, read-only,
    as the cache shares them.  A class sends each of e_1..e_k to one slot
    1..n or to none and gives each slot a parity; class a * 2^n + q has the
    slots of e_1..e_k numbered a in product(range(n + 1), repeat=k) and the
    parities numbered q in product((0, 1), repeat=n).  Slot i holds its
    letters, then e_(k+i) when it is odd, and row c of slots holds the
    masks of the n slot words of class c.  col[c, o] is the column of the
    pair (class c, output o), o the mask of the letters among e_1..e_k of
    an output word, for the o that hold every letter of c, class by class
    and o ascending; it is -1 for the other o.  Column j is the pair
    (cls[j], out[j]).  These and their temporaries, under 32 bytes per
    (class, o), are checked against STREAM_BYTES first."""
    _check_bytes((n + 1) ** k << n, 1 << k, 32)
    assign = np.array(list(product(range(n + 1), repeat=k)), dtype=np.int64)
    small = ((assign[:, :, None] == np.arange(1, n + 1)) << np.arange(k)[:, None]).sum(axis=1)
    odd = np.array(list(product((0, 1), repeat=n))) << k + np.arange(n)
    held = np.repeat(small.sum(axis=1), len(odd))  # the letters among e_1..e_k of each class
    has = np.arange(1 << k) & held[:, None] == held[:, None]
    slots, col = (small[:, None] | odd).reshape(-1, n), np.cumsum(has).reshape(has.shape)
    col -= 1
    col[~has] = -1
    cls, out = (x.astype(np.int32) for x in np.nonzero(has))
    for table in (slots, col, cls, out):
        table.flags.writeable = False
    return slots, col, cls, out


@cache
def _class_table(k: int, n: int):
    """(moved, signs) of S_n on the parity classes at degree n (int32 and
    int8, read-only, as the cache shares them): for the orders p in
    permutations(range(n)) order, moved[p, c] is the class c.p whose slot j
    holds the letters among e_1..e_k and the parity of slot p[j] of class c
    (_parity_classes), and signs[p, c] is

        eps_p(c) = (-1)^#{i < j : p[i] > p[j], slots p[i] and p[j] of c odd}.

    These and their temporaries, under 24 bytes per (order, class), are
    checked against STREAM_BYTES before the orders are listed."""
    _check_bytes(factorial(n), (n + 1) ** k << n, 24)
    perms = np.fromiter(chain.from_iterable(permutations(range(n))), np.int8, factorial(n) * n).reshape(-1, n)
    inverse = np.argsort(perms, axis=1).astype(np.int32)
    # the letters of slot a of c (1-based, 0 for none) lie in slot
    # inverse[p][a - 1] + 1 of c.p; the parity of slot a of c (0-based) is
    # that of slot inverse[p][a] of c.p
    to = np.hstack([np.zeros((len(perms), 1), dtype=np.int32), inverse + 1])
    index = np.arange((n + 1) ** k)  # the assignments, digits base n + 1, e_1 first
    a = np.zeros((len(perms), len(index)), dtype=np.int32)
    for e in reversed(range(k)):
        a *= n + 1
        a += to[:, index // (n + 1) ** e % (n + 1)]
    odd = np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1  # odd[q, a]: slot a of q odd
    q = (1 << n - 1 - inverse) @ odd.T.astype(np.int32)
    moved = (a[:, :, None] << n | q[:, None, :]).reshape(len(perms), -1)
    # the inversions of p as pairs of slots (a > b with a placed before b)
    # against the pairs of odd slots: counts below n^2, exact in float32
    inversions = (np.arange(n)[:, None] > np.arange(n)) & (inverse[:, :, None] < inverse[:, None, :])
    pairs = (odd[:, :, None] & odd[:, None, :]).reshape(len(odd), -1)
    flips = inversions.reshape(len(perms), -1).astype(np.float32) @ pairs.T.astype(np.float32)
    np.fmod(flips, 2, out=flips)
    flips *= -2
    flips += 1
    signs = np.tile(flips.astype(np.int8), len(index))
    moved.flags.writeable = signs.flags.writeable = False
    return moved, signs


def _column_maps(k: int, n: int, lo: int, hi: int):
    """(maps, signs) of the orders lo..hi-1 (int64 and int8, one row per
    order): column j of the block of order p is signs[p - lo, j] times
    column maps[p - lo, j] of the identity block (the lemma of
    _grassmann_matrix)."""
    _, col, cls, out = _parity_classes(k, n)
    moved, signs = _class_table(k, n)
    return col[moved[lo:hi, cls], out], signs[lo:hi, cls]


def _check_grassmann_shape(k: int, n: int):
    if not (_is_integer(k) and _is_integer(n)) or k < 0 or n < 1:
        raise BadDegree(f"need integers k >= 0 and n >= 1, got k = {k!r}, n = {n!r}")


def _grassmann_block(k: int, n: int) -> np.ndarray:
    """The block of the identity order of the degree-n parity-class matrix
    of the k-generator action (see _grassmann_stabilized), with int8
    entries 0 and +-1.  Rows are the coefficient tuples (w_0, ..., w_n) in
    product order, the first s^(n+1) monomials of enumerate_basis; columns
    are the pairs (class, output word), the output holding every letter of
    the class (_parity_classes).  Entry: the sign of the product
    w_0 u_1 w_1 ... u_n w_n of the basis words, u_i the word of slot i,
    taken factor by factor from one sign table over the k + n letters
    (sign *= sgn[acc, f]; acc |= f) on all tuples of a chunk of classes at
    once, as many classes as _chunk_rows gives rows of that width.
    BudgetExceeded is raised before the block is allocated when its bytes
    are over STREAM_BYTES.  k = 0 is the exterior algebra acted on by F
    alone (s = 1)."""
    _check_grassmann_shape(k, n)
    # each of e_1..e_k in one of n slots, or in none and then in the output
    # or not; a parity for each slot
    rows, ncols = 1 << k * (n + 1), (n + 2) ** k << n
    _check_bytes(rows, ncols)
    wm = np.array([_word_mask(w) for w in _grassmann_words(k, True)])
    s = len(wm)
    slots, col = _parity_classes(k, n)[:2]
    sgn = _sign_table(k + n)
    B = np.zeros((rows, ncols), dtype=np.int8)
    ones, size = (1,) * (n + 1), _chunk_rows(rows)
    for lo in range(0, len(slots), size):
        U = slots[lo : lo + size]
        # axes: class, coefficient slots 0..n
        acc, sign = wm.reshape(1, s, *ones[1:]), 1
        for t in range(n):
            for f in (U[:, t].reshape(len(U), *ones), wm.reshape(1, *ones[: t + 1], s, *ones[t + 2 :])):
                sign, acc = sign * sgn[acc, f], acc | f
        out = acc.reshape(len(U), rows) & (1 << k) - 1
        B[np.arange(rows), np.take_along_axis(col[lo : lo + len(U)], out, axis=1)] = sign.reshape(len(U), rows)
    return B


def _grassmann_matrix(k: int, n: int, block: np.ndarray):
    """The degree-n parity-class matrix of the k-generator action, given
    its identity block (_grassmann_block), as its n! blocks of rows, one
    variable order p at a time in permutations(range(n)) order (position t
    of order p holds x_(p[t]+1)), each made when it is pulled: the rows of
    the monomials in enumerate_basis order.

    Lemma: column (c, o) of the block of order p is eps_p(c) times column
    (c.p, o) of the identity block (_class_table).  Proof: the monomial of
    order p at the slot words of c multiplies, position by position, the
    same factors as the identity monomial at the slot words of c.p, except
    that the odd large letter at position j is e_(k+p[j]+1) instead of
    e_(k+j+1).  The renaming keeps every letter among e_1..e_k and every
    parity, so one product vanishes iff the other does, and the output
    letters among e_1..e_k are the same.  The sign of a product is
    (-1)^(inversions of its letters read left to right): pairs with a
    letter among e_1..e_k count the same in both, as every large letter
    sorts after those and sits at the same position, and the large letters
    of the identity monomial come in increasing order, while those of
    order p have one inversion for each i < j with p[i] > p[j] and slots
    p[i] and p[j] of c both odd."""
    for p in range(factorial(n)):
        maps, signs = _column_maps(k, n, p, p + 1)
        B = block[:, maps[0]]
        B *= signs[0]
        yield B


def _grassmann_rank(k: int, n: int, block: np.ndarray) -> int:
    """Rank of the degree-n parity-class matrix of the k-generator action,
    given its identity block, from the images of the block's distinct
    rows, which are the distinct nonzero rows of the matrix.

    Lemma: the rows r.T_p, r a distinct nonzero row of the block (_first_rows)
    and p an order, where (r.T_p)[j] = signs[p, j] * r[maps[p, j]]
    (_column_maps), are the distinct nonzero rows of the matrix, each once.
    Proof: the block of order p is the identity block with the one signed
    column map T_p applied to each row (_grassmann_matrix), so a repeated
    or a zero row of the identity block is a repeated or a zero row of
    every block, and T_p is one-to-one.  And a nonzero row of the matrix
    determines its order p.  Its coefficient words share no letter (else
    every product vanishes), so no product vanishes at the classes that
    put no letter of e_1..e_k in a slot.  Let E(S) be its entry at the one
    of those classes whose odd slots are S, with the output holding every
    coefficient letter.  E({a, b}) E({}) / (E({a}) E({b})) is -1 exactly
    when e_(k+a+1) and e_(k+b+1) stand out of order, since each meets the
    same small letters with the other or without it: so the row says
    whether x_(a+1) comes before x_(b+1), for every a and b, which fixes p.
    Hence r.T_p = r'.T_q gives p = q, then r = r'.

    The images are made for a chunk of orders at a time, as many as fit
    1/256 of STREAM_BYTES with their maps (and at least one, checked
    against STREAM_BYTES), signed in place, and go to _span as they are;
    no block and no table of all n! maps is written."""
    D = _first_rows(block)
    ncols = block.shape[1]
    # per order and column: the map (int64) and its int32 gather, the
    # sign, and the images
    itemsize = 13 + len(D)
    step = min(factorial(n), max(1, (STREAM_BYTES >> 8) // (ncols * itemsize)))
    _check_bytes(step, ncols, itemsize)

    def images():
        for lo in range(0, factorial(n), step):
            maps, signs = _column_maps(k, n, lo, lo + step)
            X = D[:, maps]
            X *= signs
            yield X.reshape(-1, ncols)

    return _span(images(), ncols).rank


def _grassmann_stabilized(k: int, n: int):
    """(codimension, truncation level) of the k-generator action at degree
    n: the rank of the parity-class matrix, which is that of the
    evaluation matrix at every level from k + n on.

    Lemma: at every level m >= k + n the degree-n evaluation matrix has the
    rank and the left kernel of the parity-class matrix (_grassmann_matrix),
    and so has the evaluation matrix of the infinite exterior algebra.
    Proof: substitute basis words u_i for the x_i and write u_i = +-a_i b_i,
    with a_i a word in e_1..e_k and b_i a word in the other generators.  The
    b_i commute with every other factor up to signs, so the monomial
    w_0 x_s(1) w_1 ... x_s(n) w_n evaluates to
    eps * (w_0 a_s(1) w_1 ... a_s(n) w_n) * (b_1 ... b_n), where the sign eps
    depends only on the permutation s and on the parities of the factors.
    If two b_i share a letter, every monomial vanishes at that assignment.
    Otherwise replace each odd b_i by e_(k+i) and each even b_i by 1: no
    parity changes, so no sign of any monomial changes, and only the output
    coordinate moves (b_1 ... b_n is one word up to a sign common to the
    column).  So every evaluation column, at any level, is zero or +- a
    column of the parity-class matrix, whose columns assign each of
    e_1..e_k to one slot or none, a parity to each slot and an output
    word; all of them occur from level k + n on.  A matrix keeps its rank
    and left kernel when zero columns, repeats and sign changes of columns
    are added or dropped, so the parity-class matrix stands for the
    evaluation matrix at every level from k + n on.  Only its identity
    block is built (_grassmann_block); S_n acts on the columns of that
    block by signed permutations that give the other blocks
    (_grassmann_matrix), and the rank reads the distinct rows alone
    (_grassmann_rank)."""
    return _grassmann_rank(k, n, _grassmann_block(k, n)), k + n


def grassmann_codim_stabilized(k: int, n: int) -> int:
    """Codimension of the k-generator action on the exterior algebra at
    degree n, computed on the truncation at level k + n, from which on it
    is proved constant (see _grassmann_stabilized).  k = 0 is the ordinary
    exterior algebra, with c_n = 2^(n-1) (Krakowski & Regev, Trans. AMS
    181, 1973)."""
    return _grassmann_stabilized(k, n)[0]


def grassmann_generators(k: int):
    gens = ["[x1,x2,x3]"]
    gens += [f"[e{i},x1,x2]" for i in range(1, k + 1)]
    gens += [f"e{k + 1}*x1", f"x1*e{k + 1}"]
    return gens


def verify_grassmann_generating_set(k: int, n: int, generators=None) -> bool:
    """Generating-set certificate for the k-generator action at degree n,
    with the identity kernels taken at truncation level k + n, where every
    kernel of degree <= n is final (see _grassmann_stabilized): _verify on
    the parity-class matrices, one per degree, each identity block built
    once per call and the other blocks made as they are pulled."""
    _check_grassmann_shape(k, n)
    block = cache(partial(_grassmann_block, k))
    h = grassmann_action(k, k)  # coefficient structure only; A unused below
    gens = grassmann_generators(k) if generators is None else generators
    return _verify(gens, h, n, lambda d: (_grassmann_matrix(k, d, block(d)), None),
                   lambda: _grassmann_rank(k, n, block(n)))


# -- growth reports ----------------------------------------------------------------


@dataclass
class GrowthReport:
    degrees: list
    values: list          # codimension per degree, None when skipped
    ratios: list          # successive ratios as Fractions (None at gaps)
    roots: list           # n-th roots, floats for display
    exponent: int | None  # block-linking exponent when available
    exponent_note: str | None = None  # why the exponent is unavailable

    def to_dict(self):
        return {
            "degrees": self.degrees,
            "codimensions": self.values,
            "ratios": [None if r is None else [r.numerator, r.denominator] for r in self.ratios],
            "roots": self.roots,
            "exponent": self.exponent,
            "exponent_note": self.exponent_note,
        }


def growth_report(h: Action, n_max: int) -> GrowthReport:
    _check_degree(n_max)
    degrees = list(range(1, n_max + 1))
    values = []
    for n in degrees:
        try:
            values.append(codimension(h, n))
        except BudgetExceeded:
            values.append(None)
    ratios = [None] + [None if v is None or not prev else Fraction(v, prev) for prev, v in zip(values, values[1:])]
    roots = [None if v is None else float(v) ** (1.0 / n) for n, v in zip(degrees, values)]
    exponent = note = None
    if h.A.unit is None:
        note = "the algebra has no unit"
    else:
        try:
            exponent = pi_exponent(h.A)
        except NotSplit as exc:
            note = str(exc)
    return GrowthReport(degrees, values, ratios, roots, exponent, note)


# -- preset generating sets ----------------------------------------------------------


PRESET_GENERATORS = {
    "ut2F": ("w1*x1", "x1*w1", "[x1,x2]*[x3,x4]"),
    "ut2D": ("w2*x1", "x1*w2", "[x1,x2]-[x1,x2,w1]"),
    "ut2C": ("w2*x1", "x1*w2", "[x1,x2]*[x3,x4]", "w1*[x1,x2]", "[x1,x2]*w1"),
    "ut2full": ("w3*x1", "x1*w3", "[x1,x2]-[x1,x2,w1]"),
}


def preset_generators(name: str):
    """Published generating sets for the named actions; tail families are
    represented by their first member (w_i with the smallest index acting
    as zero)."""
    if name in PRESET_GENERATORS:
        return list(PRESET_GENERATORS[name])
    _, (k, _) = _parse_name(name, {"grassmann_ek": 2}, "published generating set")
    return grassmann_generators(k)
