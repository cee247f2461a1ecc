"""Codimension engine for generalized identities.

The degree-n multilinear monomials of an action with s listed coefficient
basis elements are the n! * s^(n+1) words w_{i0} x_{sigma(1)} w_{i1} ...
x_{sigma(n)} w_{in}.  Their evaluations at basis tuples of A form the
evaluation matrix; its rank is the n-th codimension and its left kernel is
the space of multilinear identities of degree n.

One exact integer generator, _iter_rows_int, produces every evaluation
row.  The rows of the identity permutation (master rows) are contractions
of the transfer operators of the coefficient slots against the structure
constants of A in Python integers; every other permutation reuses them by
relabelling tuple positions, a numpy digit permutation of the column
indices.  Each row comes with its positive scale: the integer row has
coprime entries and equals the scale times the exact rational row, so the
rank needs only the integers and the rational matrix and kernel divide the
scale back out.  Rows with entries beyond int64 go to the exact integer
elimination instead of the numpy fast path.

Consequence spans realize the multilinear degree-n part of the ideal
generated by a set of identities under substitutions, two-sided monomial
multiplication and coefficient multiplication; generating-set verification
compares that span with the identity kernel.  The degree-1 operator
relations of an action (its structural identities) are always counted as
available generators during verification, matching how the source theorems
treat coefficient rewriting as free.

Truncated exterior algebras get a dedicated assembler: columns of the
evaluation matrix fall into orbits of index relabelings that change all
rows by one common sign, so one representative column per orbit preserves
the rank while the truncation dimension stays exponential.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

import numpy as np

from ._fastrank import FastIntRowSpace, IntOverflow
from .actions import Action, grassmann_action
from .algebras import _grassmann_words, _merge_mask, _word_mask
from .errors import BasisMismatch, BudgetExceeded, InternalError, NotSplit
from .linalg import IntRowEchelon, Subspace, _row_to_int, echelon_from_fraction_rows
from .polynomials import (
    GenMonomial,
    _perm_rank,
    basis_size,
    enumerate_basis,
    is_identity,
    multilinearize,
    parse,
    renumber_variables,
    resolved_words,
    variables_of,
    vectorize,
)
from .structure import pi_exponent

_ZERO = Fraction(0)
_ONE = Fraction(1)

_INT64_LIMIT = 1 << 63

DEFAULT_MAX_ROWS = 2_000_000
MAX_DENSE_COLUMNS = 200_000  # width guard for materialized matrices


def row_budget() -> int:
    env = os.environ.get("GENPI_MAX_ROWS")
    return int(env) if env else DEFAULT_MAX_ROWS


def _check_budget(rows: int, cols: int):
    budget = row_budget()
    if rows > budget or cols > MAX_DENSE_COLUMNS:
        raise BudgetExceeded(rows, cols, budget)


# -- evaluation matrix ----------------------------------------------------------


@dataclass
class EvaluationMatrix:
    """Materialized evaluation matrix in deterministic (perm, coeffs) row
    order.

    Column tuple_rank * dim + k holds output coordinate k at the basis tuple
    of that rank.  Each row is stored as its exact rational entries
    {col: Fraction}: the integer row of _iter_rows_int divided by the row's
    positive scale."""

    action: Action
    n: int
    rows: int
    cols: int
    row_data: list  # list of {col: Fraction}

    def row(self, i: int) -> dict:
        return self.row_data[i]


def _int_matrix(M):
    """(integer object array, positive denominator) whose quotient is M."""
    den = 1
    for r in M.iter_rows():
        for v in r.values():
            den = lcm(den, v.denominator)
    out = np.zeros((M.nrows, M.ncols), dtype=object)
    for i, r in enumerate(M.iter_rows()):
        for j, v in r.items():
            out[i, j] = v.numerator * (den // v.denominator)
    return out, den


def _primitive(cols, ints, den):
    """(cols, vals, scale) of the integer row ints = den * row over cols,
    divided by the gcd of its entries, so that vals = scale * row.  vals is
    int64 when every entry fits and an object array of Python ints
    otherwise."""
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    big = any(abs(v) >= _INT64_LIMIT for v in ints)
    vals = np.array(ints, dtype=object if big else np.int64)
    return cols, vals, Fraction(den, g) if g else _ONE


def _master_rows(h: Action, n: int) -> list:
    """(cols, vals, scale) of the identity-permutation monomials
    w_{i0} x_1 w_{i1} ... x_n w_{in}, coefficient tuples in lexicographic
    order.

    The monomial evaluates to D_1(a_1) D_2(a_2) ... D_n(a_n) with
    D_1 = lambda_{i0} rho_{i1} and D_t = rho_{it}.  The partial products
    over all basis prefixes form a (dim^t, dim) tensor, and one more factor
    is one matrix product with the contraction of the structure constants
    against the operator, shared by every coefficient tuple with that
    prefix.  Entries are exact Python ints over a tracked denominator."""
    A = h.A
    dim = A.dim
    consts = list(A.iter_nonzero_constants())
    dc = 1
    for *_, v in consts:
        dc = lcm(dc, v.denominator)
    consts = [(i, j, k, v.numerator * (dc // v.denominator)) for i, j, k, v in consts]
    Ls = [_int_matrix(p.L.matrix) for p in h.pairs]
    Rs = [_int_matrix(p.R.matrix) for p in h.pairs]
    steps = []
    for D, dd in Rs:
        # M[k1, j, k3] = sum_k2 c(k1, k2, k3) D[k2, j]
        M = np.zeros((dim, dim, dim), dtype=object)
        for i, j, k, v in consts:
            M[i, :, k] += v * D[j, :]
        steps.append((M.reshape(dim, dim * dim), dd * dc))
    masters = []

    def extend(depth, T, den):
        if depth == n:
            flat = T.ravel()
            cols = np.flatnonzero(flat)
            masters.append(_primitive(cols, flat[cols].tolist(), den))
            return
        for M, dm in steps:
            extend(depth + 1, (T @ M).reshape(-1, dim), den * dm)

    for (L, dl), (R, dr) in product(Ls, Rs):
        extend(1, (L @ R).T, dl * dr)
    return masters


def _iter_rows_int(h: Action, n: int):
    """Evaluation rows in enumeration order as (cols, vals, scale): the
    integer row vals over the flat columns cols is scale times the exact
    rational evaluation row, with coprime entries and scale > 0."""
    dim = h.A.dim
    masters = _master_rows(h, n)
    split = [(cols // dim, cols % dim) for cols, _, _ in masters]
    digits = np.indices((dim,) * n).reshape(n, -1)
    for perm in permutations(range(n)):
        # x_{perm(1)} ... x_{perm(n)} at assignment u equals the master at
        # (u_{perm(1)}, ..., u_{perm(n)}), so master tuple rank r moves to
        # sum_q digit_q(r) * dim^(n-1-perm(q))
        remap = (dim ** (n - 1 - np.array(perm, dtype=np.int64))) @ digits
        for (_, vals, scale), (tup, out) in zip(masters, split):
            yield remap[tup] * dim + out, vals, scale


def evaluation_matrix(h: Action, n: int) -> EvaluationMatrix:
    """Materialized evaluation matrix (budget-guarded)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    rows = basis_size(n, h.s)
    cols = h.A.dim ** n * h.A.dim
    _check_budget(rows, cols)
    data = [
        {c: Fraction(v) / scale for c, v in zip(cs.tolist(), vals.tolist())}
        for cs, vals, scale in _iter_rows_int(h, n)
    ]
    return EvaluationMatrix(h, n, rows, cols, data)


def _rank_of_row_arrays(factory, ncols: int, batch: int = 4096) -> int:
    """Exact rank of streamed (cols, vals, scale) rows; duplicate rows are
    skipped.  numpy fast path, with a pure integer rerun when a bound
    cannot be certified or a row does not fit int64.  factory() restarts
    the stream."""
    try:
        space = FastIntRowSpace(ncols)
        seen = set()
        buf = np.zeros((batch, ncols), dtype=np.int64)
        fill = 0
        for cols, vals, _ in factory():
            if vals.dtype != np.int64:
                raise IntOverflow
            key = (cols.tobytes(), vals.tobytes())
            if key in seen:
                continue
            seen.add(key)
            buf[fill, cols] = vals
            fill += 1
            if fill == batch:
                space.add_rows(buf[:fill])
                buf[:] = 0
                fill = 0
        if fill:
            space.add_rows(buf[:fill])
        return space.rank
    except IntOverflow:
        ech = IntRowEchelon()
        for cols, vals, _ in factory():
            ech.add_row(dict(zip(cols.tolist(), vals.tolist())))
        return ech.rank


def codimension(h: Action, n: int) -> int:
    """Rank of the degree-n evaluation matrix."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    rows = basis_size(n, h.s)
    cols = h.A.dim ** n * h.A.dim
    _check_budget(rows, cols)
    return _rank_of_row_arrays(lambda: _iter_rows_int(h, n), cols)


def identity_kernel_basis(h: Action, n: int) -> Subspace:
    """Canonical basis of the multilinear identities of degree n, as
    coefficient vectors over the monomial basis."""
    rows = basis_size(n, h.s)
    cols = h.A.dim ** n * h.A.dim
    _check_budget(rows, cols)
    ech = IntRowEchelon(track_combos=True)
    scales = []
    for cs, vals, scale in _iter_rows_int(h, n):
        ech.add_row(dict(zip(cs.tolist(), vals.tolist())))
        scales.append(scale)
    vectors = []
    for combo in ech.kernel_combos:
        vec = [_ZERO] * rows
        for i, c in combo.items():
            vec[i] = c * scales[i]
        vectors.append(vec)
    return Subspace.from_vectors(rows, vectors)


def identity_kernel_polynomials(h: Action, n: int):
    """Kernel basis rendered as readable monomial combinations."""
    sub = identity_kernel_basis(h, n)
    mons = list(enumerate_basis(n, h.s))
    out = []
    for vec in sub.basis:
        terms = []
        for i, c in enumerate(vec):
            if c != 0:
                terms.append((c, mons[i].label(h)))
        out.append(terms)
    return out


# -- structural identities -------------------------------------------------------


def structural_identities(h: Action):
    """Degree-1 identities of the action (operator relations among the
    composites lambda_i rho_j), as multilinear word polynomials."""
    sub = identity_kernel_basis(h, 1)
    mons = list(enumerate_basis(1, h.s))
    gens = []
    for vec in sub.basis:
        words = {}
        for i, c in enumerate(vec):
            if c != 0:
                m = mons[i]
                words[(-(m.coeffs[0] + 1), 1, -(m.coeffs[1] + 1))] = c
        gens.append(words)
    return gens


# -- consequence spans -----------------------------------------------------------


def _generator_words(g, h: Action):
    """Normalize one generator to (degree, [(coeff, word)]) with variables
    renumbered 1..d; None for generators that vanish in coordinates."""
    if isinstance(g, str):
        g = parse(g)
    if isinstance(g, dict):
        words = dict(g)
    else:
        comps = multilinearize(g)
        if len(comps) != 1:
            raise ValueError("generators must be multilinear (one component)")
        words = resolved_words(comps[0], h)
    s = h.s
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
            raise ValueError("generator is not multilinear")
        out.append((c, tuple(ren[sym] if sym > 0 else sym for sym in w)))
    return len(vars_seen), out


def _compositions(total: int, parts: int, minimums):
    """All tuples of the given length with entries >= minimums summing to
    total, in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = minimums[0]
    rest_min = sum(minimums[1:])
    for first in range(lo, total - rest_min + 1):
        for tail in _compositions(total - first, parts - 1, minimums[1:]):
            yield (first,) + tail


def _instance_structures(gens, h: Action, n: int):
    """Substitution skeletons: for every generator, composition and
    variable arrangement, the per-term splice plans with memoized
    coefficient-slot folding."""
    W = h.W
    s = h.s
    if W.unit is None:
        raise InternalError("consequence spans need a unital coefficient algebra")
    prod_table = {}
    all_int = True
    for i in range(s):
        for j in range(s):
            terms = list(W.product_basis(i, j))
            all_int = all_int and all(v.denominator == 1 for _, v in terms)
            prod_table[(i, j)] = terms
    normalized = []
    for g in gens:
        gw = _generator_words(g, h)
        if gw is not None and gw[0] <= n:
            if all_int and all(c.denominator == 1 for c, _ in gw[1]):
                gw = (gw[0], [(int(c), w) for c, w in gw[1]])
            normalized.append(gw)
    if all_int:
        prod_table = {
            key: [(k, int(v)) for k, v in terms] for key, terms in prod_table.items()
        }
    structures = []
    for d, terms in normalized:
        mins = [0] + [1] * d + [0]
        n_slots = n + d + 2  # enumerated coefficient positions
        for comp in _compositions(n, d + 2, mins):
            a, ks = comp[0], comp[1 : 1 + d]
            for arrangement in permutations(range(1, n + 1)):
                u0_vars = arrangement[:a]
                blocks = []
                pos = a
                for kk in ks:
                    blocks.append(arrangement[pos : pos + kk])
                    pos += kk
                u1_vars = arrangement[pos:]
                piece_u0, cpos = _piece(u0_vars, 0)
                block_pieces = []
                for b in blocks:
                    pb, cpos = _piece(b, cpos)
                    block_pieces.append(pb)
                piece_u1, cpos = _piece(u1_vars, cpos)
                slot_specs: dict = {}
                plans = []
                for coef, gword in terms:
                    word = list(piece_u0)
                    for sym in gword:
                        if sym > 0:
                            word.extend(block_pieces[sym - 1])
                        else:
                            word.append(("k", -(sym + 1)))
                    word.extend(piece_u1)
                    perm = tuple(sym for kind, sym in word if kind == "v")
                    slots = []
                    cur = []
                    for kind, val in word:
                        if kind == "v":
                            slots.append(tuple(cur))
                            cur = []
                        else:
                            cur.append((kind, val))
                    slots.append(tuple(cur))
                    slot_ids = []
                    for slot in slots:
                        sid = slot_specs.setdefault(slot, len(slot_specs))
                        positions = tuple(val for kind, val in slot if kind == "c")
                        slot_ids.append((sid, positions, slot))
                    plans.append((coef, _perm_rank(perm) * s ** (n + 1), slot_ids))
                structures.append((n_slots, plans, {}))
    return structures, prod_table


def _consequence_instances(gens, h: Action, n: int):
    """Yield the degree-n consequence vectors of the generators, sparse
    over monomial ranks.

    Every instance is u0 * g(v_1..v_d) * u1 with the v_i monomial
    substitutions on disjoint nonempty variable blocks, u0/u1 boundary
    monomials on the remaining variables (possibly variable-free), and
    every coefficient slot running over the listed basis; adjacent
    coefficients merge through the coefficient algebra product.  The
    enumeration is deterministic and interleaves coefficient assignments
    across skeletons so that diverse directions appear early.
    """
    W = h.W
    s = h.s
    structures, prod_table = _instance_structures(gens, h, n)
    if not structures:
        return
    max_count = max(s ** ns for ns, _, _ in structures)
    for idx in range(max_count):
        for ns, plans, memo in structures:
            if idx >= s ** ns:
                continue
            assign = []
            rem = idx
            for _ in range(ns):
                assign.append(rem % s)
                rem //= s
            vec: dict = {}
            for coef, base, slot_ids in plans:
                expos = [(0, coef)]  # folding stays in ints when W allows
                for sid, positions, slot in slot_ids:
                    key = (sid,) + tuple(assign[p] for p in positions)
                    folded = memo.get(key)
                    if folded is None:
                        folded = _fold_slot(slot, assign, prod_table, W)
                        memo[key] = folded
                    if not folded:
                        expos = []
                        break
                    expos = [
                        (m * s + k2, c1 * c2)
                        for m, c1 in expos
                        for k2, c2 in folded
                    ]
                for m, c in expos:
                    r = base + m
                    nc = vec.get(r, 0) + c
                    if nc:
                        vec[r] = nc
                    else:
                        vec.pop(r, None)
            if vec:
                yield vec


def _piece(vars_tuple, cpos):
    """Symbolic word of a boundary/substitution monomial: alternating
    enumerated coefficient positions and variables."""
    out = [("c", cpos)]
    cpos += 1
    for v in vars_tuple:
        out.append(("v", v))
        out.append(("c", cpos))
        cpos += 1
    return out, cpos


def _fold_slot(slot, assign, prod_table, W):
    """Product of the coefficient sources of one slot, expanded over the
    listed basis as [(index, coeff)]."""
    terms = None
    for kind, val in slot:
        k = assign[val] if kind == "c" else val
        if terms is None:
            terms = [(k, 1)]
            continue
        nxt: dict = {}
        for k1, c1 in terms:
            for k2, c2 in prod_table[(k1, k)]:
                nc = nxt.get(k2, 0) + c1 * c2
                if nc:
                    nxt[k2] = nc
                else:
                    nxt.pop(k2, None)
        terms = list(nxt.items())
        if not terms:
            return []
    if terms is None:  # empty slot: the unit of W
        return [(k, c) for k, c in enumerate(W.unit) if c != 0]
    return terms


def _canonical_int_vec(vec: dict):
    """Scale a sparse rational vector to coprime integers with positive
    leading entry; hashable canonical key."""
    if not vec:
        return ()
    denom_lcm = 1
    for v in vec.values():
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    items = sorted((k, int(v * denom_lcm)) for k, v in vec.items())
    g = 0
    for _, v in items:
        g = gcd(g, abs(v))
    if g > 1:
        items = [(k, v // g) for k, v in items]
    if items[0][1] < 0:
        items = [(k, -v) for k, v in items]
    return tuple(items)


def _stream_span_rank(vectors, ncols: int, target: int | None, batch: int = 1024):
    """Rank of the span of streamed sparse vectors with deduplication and
    early stop at the target rank."""
    space = FastIntRowSpace(ncols, target_rank=target)
    seen = set()
    buf = np.zeros((batch, ncols), dtype=np.int64)
    fill = 0
    try:
        for vec in vectors:
            key = _canonical_int_vec(vec)
            if not key or key in seen:
                continue
            seen.add(key)
            for c, v in key:
                buf[fill, c] = v
            fill += 1
            if fill == batch:
                space.add_rows(buf[:fill])
                buf[:] = 0
                fill = 0
                if space.saturated:
                    return space.rank
        if fill:
            space.add_rows(buf[:fill])
        return space.rank
    except (IntOverflow, OverflowError):  # OverflowError: entry beyond int64
        stop = None if target is None else (lambda ech: ech.rank >= target)
        return _exact_span(seen, vectors, stop).rank


def _exact_span(seen, vectors, stop) -> IntRowEchelon:
    """Exact continuation of a streamed span after IntOverflow: the rows
    already seen, then the rest of the stream, until stop(echelon) holds
    (stop None reads the whole stream)."""
    ech = IntRowEchelon()
    for key in seen:
        ech.add_row(dict(key))
    if stop is not None and stop(ech):
        return ech
    for vec in vectors:
        if ech.add_row(_row_to_int(vec)) and stop is not None and stop(ech):
            break
    return ech


def consequences_span(generators, h: Action, n: int) -> Subspace:
    """Canonical basis of the degree-n multilinear consequences of the
    generators (empty generator list gives the zero subspace)."""
    rows = basis_size(n, h.s)
    _check_budget(rows, 1)
    ech = IntRowEchelon()
    for vec in _consequence_instances(list(generators), h, n):
        ech.add_row(_row_to_int(vec))
    return Subspace._from_echelon(rows, ech)


def in_consequence_span(poly, generators, h: Action, n: int) -> bool:
    """Membership of one multilinear polynomial in the consequence span,
    decided by streaming the span and reducing the target vector."""
    if isinstance(poly, str):
        poly = parse(poly)
    comps = multilinearize(poly)
    if len(comps) != 1:
        raise ValueError("membership needs a single multilinear component")
    target = vectorize(renumber_variables(comps[0]), h, n)
    if not target:
        return True
    rows = basis_size(n, h.s)
    space = FastIntRowSpace(rows)
    introw = _row_to_int(target)
    tvec = np.zeros((1, rows), dtype=np.int64)
    seen = set()
    buf = np.zeros((256, rows), dtype=np.int64)
    fill = 0

    def member() -> bool:
        red = space.reduce_rows(tvec.copy())
        return not red.any()

    vectors = _consequence_instances(list(generators), h, n)
    try:
        tvec[0, list(introw)] = list(introw.values())
        for vec in vectors:
            key = _canonical_int_vec(vec)
            if not key or key in seen:
                continue
            seen.add(key)
            for c, v in key:
                buf[fill, c] = v
            fill += 1
            if fill == buf.shape[0]:
                added = space.add_rows(buf[:fill])
                buf[:] = 0
                fill = 0
                if added and member():
                    return True
        if fill:
            space.add_rows(buf[:fill])
        return member()
    except (IntOverflow, OverflowError):  # OverflowError: entry beyond int64
        ech = _exact_span(seen, vectors, lambda ech: ech.contains_row(introw))
        return ech.contains_row(introw)


def verify_generating_set(generators, h: Action, n: int, codim_value: int | None = None) -> bool:
    """True iff the consequence span of the generators together with the
    action's structural identities equals the degree-n identity kernel.

    Generators that are not identities fail immediately.  The kernel is
    never materialized: the span is contained in it once every generator is
    an identity, so equality is a rank comparison against
    rows - codimension; pass codim_value to pin a stabilized codimension.
    """
    gens = [parse(g) if isinstance(g, str) else g for g in generators]
    for g in gens:
        if isinstance(g, dict):
            continue
        comps = multilinearize(g)
        for comp in comps:
            if len(variables_of(comp)) <= n:
                ok, _ = is_identity(comp, h)
                if not ok:
                    return False
    rows = basis_size(n, h.s)
    if codim_value is None:
        codim_value = codimension(h, n)
    target = rows - codim_value
    all_gens = list(gens) + structural_identities(h)
    rank = _stream_span_rank(_consequence_instances(all_gens, h, n), rows, target)
    if rank > target:
        raise InternalError("consequence span escaped the identity kernel")
    return rank == target


# -- variety containment -----------------------------------------------------------


def _same_coefficient_presentation(hA: Action, hB: Action) -> bool:
    WA, WB = hA.W, hB.W
    if WA.dim != WB.dim or WA.labels != WB.labels:
        return False
    for i in range(WA.dim):
        for j in range(WA.dim):
            if WA.product_basis(i, j) != WB.product_basis(i, j):
                return False
    return True


def variety_contains(hA: Action, hB: Action, n: int) -> bool:
    """Degreewise necessary condition for membership of the second action's
    algebra in the variety of the first: every multilinear identity of the
    first of degree <= n is an identity of the second, decided by
    rank([E_A | E_B]) = rank(E_A) per degree."""
    if not _same_coefficient_presentation(hA, hB):
        raise BasisMismatch(
            "variety comparison needs one shared coefficient presentation"
        )
    for m in range(1, n + 1):
        rows = basis_size(m, hA.s)
        colsA = hA.A.dim ** m * hA.A.dim
        colsB = hB.A.dim ** m * hB.A.dim
        _check_budget(rows, colsA + colsB)
        rank_a = _rank_of_row_arrays(lambda: _iter_rows_int(hA, m), colsA)

        def stacked():
            # the two halves of one row are scaled jointly: both are brought
            # to sa.numerator * sb.numerator times the rational row
            for (ca, va, sa), (cb, vb, sb) in zip(_iter_rows_int(hA, m), _iter_rows_int(hB, m)):
                fa = sa.denominator * sb.numerator
                fb = sb.denominator * sa.numerator
                ints = [v * fa for v in va.tolist()] + [v * fb for v in vb.tolist()]
                cols = np.concatenate([ca, cb + colsA])
                yield _primitive(cols, ints, sa.numerator * sb.numerator)

        rank_ab = _rank_of_row_arrays(stacked, colsA + colsB)
        if rank_ab != rank_a:
            return False
    return True


# -- truncated exterior algebras -----------------------------------------------------


def _grassmann_reduced_rows(k: int, m: int, n: int):
    """Rows of the degree-n evaluation matrix of the k-generator action on
    the m-generator truncation, over one representative column per
    relabeling orbit, as {col: +-1} dicts.  Dropping the orbit mates
    preserves both the rank and the left kernel: they are duplicate columns
    up to one global sign.  Only the index words of W are needed, so the
    truncated action itself is never built."""
    wmask = [_word_mask(w) for w in _grassmann_words(k, True)]
    s = len(wmask)
    rows = basis_size(n, s)
    _check_budget(rows, 1)
    small = list(range(1, k + 1))
    large = m - k
    # representative assignments: small indices to a slot (1..n) or unused
    # (0); large index counts per slot and unused packed in order
    reps = []
    for small_assign in product(range(n + 1), repeat=k):
        for counts in _compositions(large, n + 1, [0] * (n + 1)):
            words = [[] for _ in range(n)]
            for idx, slot in zip(small, small_assign):
                if slot >= 1:
                    words[slot - 1].append(idx)
            nxt = k + 1
            for slot in range(n):
                for _ in range(counts[slot]):
                    words[slot].append(nxt)
                    nxt += 1
            reps.append(tuple(_word_mask(w) for w in words))
    mons = list(enumerate_basis(n, s))
    col_index: dict = {}
    rows_data = [dict() for _ in mons]
    for ci, masks in enumerate(reps):
        for ri, mon in enumerate(mons):
            # product in monomial order: w_{i0} g_{sigma(1)} w_{i1} ...
            factors = [wmask[mon.coeffs[0]]]
            for t in range(n):
                factors += (masks[mon.perm[t] - 1], wmask[mon.coeffs[t + 1]])
            acc, sign = 0, 1
            for f in factors:
                merged = _merge_mask(acc, f)
                if merged is None:
                    break
                acc, sg = merged
                sign *= sg
            else:
                col = col_index.setdefault((ci, acc), len(col_index))
                rows_data[ri][col] = sign
    return rows_data


def _grassmann_reduced_rank(k: int, m: int, n: int) -> int:
    ech = IntRowEchelon()
    for row in _grassmann_reduced_rows(k, m, n):
        ech.add_row(row)
    return ech.rank


def _grassmann_stabilized(k: int, n: int):
    """(codimension, truncation level) at the first of two consecutive
    levels, from m = 2n + k on, whose reduced ranks agree."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    m = 2 * n + k
    prev = _grassmann_reduced_rank(k, m, n)
    for step in range(8):
        cur = _grassmann_reduced_rank(k, m + 1 + step, n)
        if cur == prev:
            return cur, m + step
        prev = cur
    raise BudgetExceeded(basis_size(n, 2 ** k), 2 ** (m + 8), row_budget())


def grassmann_codim_stabilized(k: int, n: int) -> int:
    """Codimension of the k-generator action on truncations of increasing
    level, returned where two consecutive levels first agree.

    The stop is empirical, not proved: no bound is known here that makes
    two equal consecutive levels final, so the value is a stabilized
    codimension, not a certified one."""
    return _grassmann_stabilized(k, n)[0]


def _grassmann_structural_identities(k: int, m: int):
    """Degree-1 identities of the truncated action, from the left kernel
    of the orbit-reduced evaluation matrix (same kernel as the full one)."""
    ech, scales = echelon_from_fraction_rows(
        _grassmann_reduced_rows(k, m, 1), track_combos=True
    )
    s = 2 ** k
    mons = list(enumerate_basis(1, s))
    gens = []
    for combo in ech.kernel_combos:
        words = {}
        for i, c in combo.items():
            mon = mons[i]
            words[(-(mon.coeffs[0] + 1), 1, -(mon.coeffs[1] + 1))] = c * scales[i]
        if words:
            gens.append(words)
    return gens


def _grassmann_is_identity(poly, h: Action, rows_by_degree, k: int, m: int):
    """Identity test against the level-m truncation via the reduced rows:
    the vectorization must combine the reduced evaluation rows to zero.
    Only the coefficient algebra of h is read."""
    comps = multilinearize(poly) if not isinstance(poly, dict) else [poly]
    for comp in comps:
        if isinstance(comp, dict):
            vec = {}
            for w, c in comp.items():
                mon = GenMonomial(1, (1,), (-(w[0] + 1), -(w[2] + 1)))
                vec[mon.rank(h.s)] = c
            d = 1
        else:
            d = len(variables_of(comp))
            if d == 0:
                continue
            vec = vectorize(comp, h, d)
        if d not in rows_by_degree:
            rows_by_degree[d] = _grassmann_reduced_rows(k, m, d)
        rows_data = rows_by_degree[d]
        acc: dict = {}
        for r, c in vec.items():
            for col, v in rows_data[r].items():
                nv = acc.get(col, _ZERO) + c * v
                if nv:
                    acc[col] = nv
                else:
                    acc.pop(col, None)
        if acc:
            return False
    return True


def grassmann_generators(k: int):
    gens = ["[x1,x2,x3]"]
    gens += [f"[e{i},x1,x2]" for i in range(1, k + 1)]
    gens += [f"e{k + 1}*x1", f"x1*e{k + 1}"]
    return gens


def verify_grassmann_generating_set(k: int, n: int, generators=None) -> bool:
    """Generating-set certificate for the k-generator action at degree n,
    with the identity kernel taken at the stabilized truncation level."""
    if generators is None:
        generators = grassmann_generators(k)
    return _verify_grassmann(k, n, list(generators))


def _verify_grassmann(k: int, n: int, generators) -> bool:
    cn, m = _grassmann_stabilized(k, n)
    h = grassmann_action(k, k)  # coefficient structure only; A unused below
    rows_by_degree: dict = {}
    gens = [parse(g) if isinstance(g, str) else g for g in generators]
    for g in gens:
        if isinstance(g, dict):
            continue
        comps = multilinearize(g)
        for comp in comps:
            if 0 < len(variables_of(comp)) <= n:
                if not _grassmann_is_identity(comp, h, rows_by_degree, k, m):
                    return False
    rows = basis_size(n, h.s)
    target = rows - cn
    all_gens = list(gens) + _grassmann_structural_identities(k, m)
    rank = _stream_span_rank(_consequence_instances(all_gens, h, n), rows, target)
    if rank > target:
        raise InternalError("consequence span escaped the identity kernel")
    return rank == target


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
    degrees = list(range(1, n_max + 1))
    values = []
    for n in degrees:
        try:
            values.append(codimension(h, n))
        except BudgetExceeded:
            values.append(None)
    ratios = []
    roots = []
    for i, n in enumerate(degrees):
        v = values[i]
        prev = values[i - 1] if i else None
        if v is None or (i and prev in (None, 0)):
            ratios.append(None)
        elif i:
            ratios.append(Fraction(v, prev))
        else:
            ratios.append(None)
        roots.append(None if v is None else float(v) ** (1.0 / n))
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
    low = name.strip().lower()
    if low.startswith("grassmann_ek"):
        args = name[name.index("(") + 1 : -1] if "(" in name else name.split(":", 1)[1]
        return grassmann_generators(int(args.split(",")[0]))
    raise KeyError(f"no published generating set for {name!r}")
