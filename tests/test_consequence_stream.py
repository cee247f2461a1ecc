"""Consequence rows against a one-instance-at-a-time oracle, the streaming
driver on Python integers, its byte budget, and the rank paths against
sympy."""

from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

import genpi.codim as codim
from genpi._fastrank import FastIntRowSpace
from genpi.actions import action_from_subalgebra, preset_action
from genpi.algebras import builtin
from genpi.codim import (
    _compositions,
    _consequence_blocks,
    _generator_words,
    _rank_of_row_arrays,
    _Rows,
    _span_stream,
    _stream_rows,
    identity_kernel_basis,
    in_consequence_span,
    preset_generators,
    structural_identities,
    verify_generating_set,
)
from genpi.errors import BudgetExceeded
from genpi.polynomials import GenMonomial


def _num(c):
    """Integral rationals as ints, which multiply much faster."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _canonical(vec):
    den = lcm(*(Fraction(v).denominator for v in vec.values()))
    items = sorted((c, int(v * den)) for c, v in vec.items())
    g = 0
    for _, v in items:
        g = gcd(g, v)
    sign = 1 if items[0][1] > 0 else -1
    return tuple((c, sign * v // g) for c, v in items)


def naive_stream(gens, h, n):
    """Canonical consequence vectors in enumeration order, one instance at a
    time: u0 * g(v_1..v_d) * u1 written out as a word over coefficients and
    variables, each run of adjacent coefficients multiplied out in W (the
    unit for an empty run), the result expanded over the monomial basis and
    scaled to coprime integers with positive leading entry.  Order:
    assignment index, generator, composition, arrangement."""
    W, s = h.W, h.s
    folds = {(): sorted((k, _num(c)) for k, c in enumerate(W.unit) if c)}

    def fold(run):
        """Product in W of the basis elements listed in run, as sorted
        (index, coefficient) pairs."""
        if run not in folds:
            if len(run) == 1:
                folds[run] = [(run[0], 1)]
            else:
                out = {}
                for k1, c1 in fold(run[:-1]):
                    for k2, c2 in W.product_basis(k1, run[-1]):
                        out[k2] = out.get(k2, 0) + c1 * _num(c2)
                folds[run] = sorted((k, c) for k, c in out.items() if c)
        return folds[run]

    skeletons = []
    for g in gens:
        gw = _generator_words(g, h)
        if gw is not None and gw[0] <= n:
            d, terms = gw[0], [(_num(c), w) for c, w in gw[1]]
            for comp in _compositions(n, d + 2, [0] + [1] * d + [0]):
                for arr in permutations(range(1, n + 1)):
                    skeletons.append((n + d + 2, terms, comp, arr))
    out = []
    for idx in range(max((s ** ns for ns, *_ in skeletons), default=0)):
        for ns, terms, comp, arr in skeletons:
            if idx >= s ** ns:
                continue
            # words as in resolved_words: variable i > 0, coefficient k as -(k+1)
            assign = iter([idx // s ** p % s for p in range(ns)])
            variables = iter(arr)
            pieces = []
            for length in comp:
                piece = [-next(assign) - 1]
                for _ in range(length):
                    piece += [next(variables), -next(assign) - 1]
                pieces.append(piece)
            vec = {}
            for coef, gword in terms:
                word = list(pieces[0])
                for sym in gword:
                    word += pieces[sym] if sym > 0 else [sym]
                word += pieces[-1]
                perm, slots, run = [], [], []
                for sym in word:
                    if sym > 0:
                        perm.append(sym)
                        slots.append(fold(tuple(run)))
                        run = []
                    else:
                        run.append(-sym - 1)
                slots.append(fold(tuple(run)))
                if not all(slots):
                    continue
                base = GenMonomial(n, tuple(perm), (0,) * (n + 1)).rank(s)
                acc = [(0, coef)]
                for elem in slots:
                    acc = [(m * s + k, c * v) for m, c in acc for k, v in elem]
                for m, c in acc:
                    vec[base + m] = vec.get(base + m, 0) + c
            vec = {r: c for r, c in vec.items() if c}
            if vec:
                out.append(_canonical(vec))
    return out


def block_stream(gens, h, n):
    out = []
    for b in _consequence_blocks(gens, h, n):
        p, cols, vals = b.ptr.tolist(), b.cols.tolist(), b.vals.tolist()
        out += [tuple(zip(cols[i:j], vals[i:j])) for i, j in zip(p, p[1:])]
    return out


def fractional_w_action():
    """ut(2) acted on by W = span(1, e22/2, e12/3), whose products are not
    integral: (e22/2)^2 = (1/2)(e22/2)."""
    A = builtin("ut(2)")
    half, third = Fraction(1, 2), Fraction(1, 3)
    return action_from_subalgebra(A, [A.unit, (0, half, 0), (0, 0, third)], labels=["1", "u", "v"])


D = "([x1,x2]-[x1,x2,w1])"
STREAM_CASES = {
    "ut2full": ("ut2full", preset_generators("ut2full"), False, 3),
    "ut2full+structural": ("ut2full", preset_generators("ut2full"), True, 3),
    "ut2D": ("ut2D", preset_generators("ut2D"), False, 3),
    "ut2D+structural": ("ut2D", preset_generators("ut2D"), True, 3),
    "rational coefficient": ("ut2D", ["1/2*[x1,x2]*x3", "x1*w2"], False, 3),
    "fractional W": (None, ["[x1,x2]*w1", "1/3*x1*w2*x2 + x2*w1*x1"], True, 2),
    "2^40 coefficients": (
        "ut2D",
        [f"{2 ** 40 + 1}*x3*{D} + {2 ** 39 + 3}*{D}*x3", f"{2 ** 39 + 3}*x3*{D} + {2 ** 40 + 1}*{D}*x3"],
        False,
        3,
    ),
    "2^70 coefficient": ("ut2F", [f"{2 ** 70 + 1}*[x1,x2]*[x3,x4] + 3*[x1,x3]*[x2,x4]"], False, 4),
    "sum at 2^63": ("ut2D", [f"{2 ** 62}*x1*w1*x2 + {2 ** 62}*x1*x2"], False, 2),
}


@pytest.mark.parametrize("name", list(STREAM_CASES))
def test_blocks_match_naive_enumeration(name):
    preset, gens, with_structural, n = STREAM_CASES[name]
    h = preset_action(preset) if preset else fractional_w_action()
    if with_structural:
        gens = list(gens) + structural_identities(h)
    want = naive_stream(gens, h, n)
    assert want and block_stream(gens, h, n) == want


@pytest.mark.parametrize("name", ["ut2full+structural", "2^70 coefficient", "fractional W"])
def test_rows_are_canonical(monkeypatch, name):
    # _Rows.keys() deduplicates by bytes, so equal rows must come out equal:
    # strictly increasing columns, coprime entries, positive leading entry
    made, dens = [], []
    init, table = codim._GroupBlock.__init__, codim._GroupBlock._table

    def record_init(self, *args):
        init(self, *args)
        made.append(self)

    def record_table(*args):
        out = table(*args)
        dens.append(out[1])
        return out

    monkeypatch.setattr(codim._GroupBlock, "__init__", record_init)
    monkeypatch.setattr(codim._GroupBlock, "_table", staticmethod(record_table))
    preset, gens, with_structural, n = STREAM_CASES[name]
    h = preset_action(preset) if preset else fractional_w_action()
    if with_structural:
        gens = list(gens) + structural_identities(h)
    blocks = list(_consequence_blocks(gens, h, n))
    assert blocks
    for b in blocks:
        p, cols, vals = b.ptr.tolist(), b.cols.tolist(), b.vals.tolist()
        for i, j in zip(p, p[1:]):
            assert j > i and all(x < y for x, y in zip(cols[i : j - 1], cols[i + 1 : j]))
            assert gcd(*vals[i:j]) == 1 and vals[i] > 0
    # each case reaches what it is here for
    if name == "ut2full+structural":
        orders = [np.argsort(g.ranks, axis=1) for g in made if g.ranks.shape[1] > 1]
        assert any((order != order[:1]).any() for order in orders)
    elif name == "2^70 coefficient":
        assert any(b.vals.dtype == object for b in blocks)
    else:
        assert max(dens) > 1


def test_blocks_beyond_int64_are_python_ints():
    for name, big in (("2^40 coefficients", False), ("2^70 coefficient", True), ("sum at 2^63", True)):
        preset, gens, _, n = STREAM_CASES[name]
        blocks = list(_consequence_blocks(gens, preset_action(preset), n))
        assert {b.vals.dtype == object for b in blocks} == {big}, name


@pytest.mark.parametrize("name", ["2^40 coefficients", "2^70 coefficient"])
def test_large_coefficients_take_the_exact_path(name):
    preset, gens, _, n = STREAM_CASES[name]
    h = preset_action(preset)
    target = "[x1,x2]*x3" if n == 3 else "[x1,x2]*[x3,x4]"
    assert verify_generating_set(gens, h, n)
    assert in_consequence_span(target, gens, h, n) is (n == 4)


def test_stream_batches_from_byte_cap(monkeypatch):
    # the cap keeps the batches of the streaming callers at the widths in
    # use: 4096 rows for evaluation matrices up to 3^8 columns
    assert _stream_rows(3 ** 8, 4096) == 4096
    assert _stream_rows(3 ** 9, 4096) == codim.STREAM_BYTES // (8 * 3 ** 9) < 4096
    assert _stream_rows(24 * 2 ** 5, 1024) == 1024
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 100)
    assert _stream_rows(30, 1024) == 3
    with pytest.raises(BudgetExceeded):
        _stream_rows(101, 1)
    # consequence streams of ut2D, n = 3 have 6 * 2^4 = 96 columns; their
    # answers do not depend on the batch size
    h = preset_action("ut2D")
    assert verify_generating_set(preset_generators("ut2D"), h, 3)
    assert in_consequence_span("[x1,x2]*x3", preset_generators("ut2D"), h, 3) is False
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 95)
    with pytest.raises(BudgetExceeded):
        verify_generating_set(preset_generators("ut2D"), h, 3)


def test_kernel_extraction_checks_the_byte_cap(monkeypatch):
    # the transposed evaluation matrix of ut2D, n = 4: 3^5 rows of 4! * 2^5
    h = preset_action("ut2D")
    want = identity_kernel_basis(h, 4)
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 3 ** 5 * 768)
    assert identity_kernel_basis(h, 4) == want
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 3 ** 5 * 768 - 1)
    with pytest.raises(BudgetExceeded):
        identity_kernel_basis(h, 4)


# -- rank paths against sympy -----------------------------------------------------


def _matrices(max_entry):
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-max_entry, max_entry))
    return st.integers(1, 7).flatmap(
        lambda cols: st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=9)
    )


def _sympy_rank(rows):
    return sympy.Matrix(rows).rank()


def _as_blocks(rows, size=3):
    """The rows as _Rows blocks of at most size rows each."""
    for start in range(0, len(rows), size):
        ptr, cols, vals = [0], [], []
        for row in rows[start : start + size]:
            nz = [(c, v) for c, v in enumerate(row) if v]
            cols += [c for c, _ in nz]
            vals += [v for _, v in nz]
            ptr.append(len(cols))
        big = any(abs(v) >= 1 << 63 for v in vals)
        yield _Rows(np.array(ptr), np.array(cols, dtype=np.int64),
                    np.array(vals, dtype=object if big else np.int64))


OVERFLOWING = [[2 ** 40 + 1, 2 ** 39 + 3, 5], [2 ** 39 + 7, 2 ** 40 - 3, 11], [3, 2 ** 40 + 9, 2 ** 41 + 1]]


@given(_matrices(2 ** 45))
@example(OVERFLOWING)
def test_rank_paths_match_sympy(rows):
    want = _sympy_rank(rows)
    ncols = len(rows[0])
    arr = np.array(rows, dtype=np.int64)
    space = FastIntRowSpace(ncols)
    space.add_rows(arr[:4])
    space.add_rows(arr[4:])
    assert space.rank == want

    rows_int = ((np.flatnonzero(row), row[np.flatnonzero(row)], 1) for row in arr)
    assert _rank_of_row_arrays(rows_int, ncols, batch=2) == want
    span, _ = _span_stream(_as_blocks(rows), ncols, 2, lambda sp: False)
    assert span.rank == want


@given(_matrices(2 ** 70))
def test_stream_span_beyond_int64_matches_sympy(rows):
    span, _ = _span_stream(_as_blocks(rows), len(rows[0]), 2, lambda sp: False)
    assert span.rank == _sympy_rank(rows)


def test_stream_span_overflow_branch_is_exact():
    span, _ = _span_stream(_as_blocks(OVERFLOWING, 1), 3, 1, lambda sp: False)
    assert span.exact and span.rank == _sympy_rank(OVERFLOWING) == 3
    # membership: the stream stops at the first pivot that brings the target in
    target = np.array(OVERFLOWING[:1])

    def stop(span):
        return not span.reduce_rows(target).any()

    span, verdict = _span_stream(_as_blocks(OVERFLOWING, 1), 3, 1, stop)
    assert verdict and span.rank == 1
