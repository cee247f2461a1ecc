"""Consequence spans against a one-instance-at-a-time oracle and against
the full-width stream they replaced, the rows fed to their quotient spans,
the span feeder on Python integers and its stops, the byte budget, and the
rank paths against sympy."""

import tracemalloc
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

import genpi.codim as codim
from genpi._fastrank import BLOCK, FastIntRowSpace
from genpi._sparserank import SparseIntRowSpace
from genpi.actions import action_from_subalgebra, grassmann_action, preset_action
from genpi.algebras import builtin
from genpi.codim import (
    _consequence_blocks,
    _degree_one_words,
    _extensions,
    _generator_vectors,
    _generator_words,
    _grassmann_block,
    _groups,
    _left_kernel,
    _span,
    _swaps,
    consequences_span,
    grassmann_generators,
    identity_kernel_basis,
    identity_witness,
    in_consequence_span,
    preset_generators,
    structural_identities,
    verify_generating_set,
)
from genpi.errors import BudgetExceeded, NotMultilinear, UnknownCoefficient
from genpi.linalg import Subspace, _row_space
from genpi.polynomials import GenMonomial, basis_size, monomial_index, order_ranks, parse, vectorize_words
from consequence_oracle import stream_span
from grassmann_oracle import compositions
from test_identity_witness import nonunital_action


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
            for comp in compositions(n, d + 2, [0] + [1] * d + [0]):
                for arr in permutations(range(1, n + 1)):
                    skeletons.append((n + d + 2, terms, comp, arr))
    out = []
    for idx in range(max((s ** ns for ns, *_ in skeletons), default=0)):
        for ns, terms, comp, arr in skeletons:
            if idx >= s ** ns:
                continue
            # words as resolve gives them: variable i > 0, coefficient k as -(k+1)
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
    "lifted degree-3 generator": ("ut2D", ["[x1,x2]*x3"], False, 4),
    "grassmann": ("grassmann", grassmann_generators(1), True, 3),
}


def _stream_case(name):
    """(action, generators, degree) of a STREAM_CASES entry."""
    preset, gens, with_structural, n = STREAM_CASES[name]
    if preset == "grassmann":
        return grassmann_action(1, 1), list(gens) + _degree_one_words(_left_kernel(_grassmann_block(1, 1)), 2), n
    h = preset_action(preset) if preset else fractional_w_action()
    return h, list(gens) + (structural_identities(h) if with_structural else []), n


@pytest.mark.parametrize("name", list(STREAM_CASES))
def test_blocks_match_naive_enumeration(name):
    h, gens, n = _stream_case(name)
    want = naive_stream(gens, h, n)
    assert want
    naive = _row_space(map(dict, dict.fromkeys(want)), basis_size(n, h.s))
    assert consequences_span(gens, h, n) == Subspace.from_space(naive)


@pytest.mark.parametrize("preset", ["ut2D", "ut2full"])
@pytest.mark.parametrize("structural", [False, True], ids=["generators", "structural"])
def test_quotient_span_matches_the_full_width_stream(preset, structural):
    h = preset_action(preset)
    gens = preset_generators(preset) + (structural_identities(h) if structural else [])
    assert consequences_span(gens, h, 4) == stream_span(gens, h, 4)


def _fed(name):
    """(Q, rows): the degree-n quotient of a STREAM_CASES entry after its
    whole feed, and copies of the rows fed to its span, in order (the span
    takes its rows over, so they are copied before it reads them)."""
    h, gens, n = _stream_case(name)
    q = _consequence_blocks(_generator_vectors(gens, h), h, n)
    fed, add = [], q.space.add_row

    def recorded(row):
        fed.append(dict(row))
        return add(row)

    q.space.add_row = recorded
    q.fill()
    return q, fed


def _chain(q):
    """The quotient q and those of every degree below it."""
    while q is not None:
        yield q
        q = q.below


def test_blocks_beyond_int64_are_python_ints():
    # the generator's 2^70 + 1 arrives exact in the degree-4 rows: no
    # generator of ut2F has a lower degree, so V_4 is P_4 itself
    q, fed = _fed("2^70 coefficient")
    assert q.width == basis_size(4, 1)
    assert any(abs(x) >= 1 << 63 for v in fed for x in v.values())
    assert any(x % (2 ** 70 + 1) == 0 and x for v in fed for x in v.values())


def test_lifts_only_the_rows_that_added_pivots():
    # ut2full plus its structural identities at degree 3: the full-width
    # stream fed 928 distinct rows of 486 columns.  The quotient is fed
    # only the nonzero images of the 3 * s non-left extensions, each with
    # its 3 swaps, of the 20 rows that brought a pivot at degree 2 (no
    # generator has degree 3): 345 of 540 rows, 90 coordinates wide.  It
    # reaches rank dim V_3 - c_3 = 90 - 22
    q, fed = _fed("ut2full+structural")
    s = 3
    assert q.width == s * 3 * q.below.codim == 90
    assert q.below.space.rank == 20
    assert len(fed) == 345 <= 20 * 3 * s * 3
    assert q.space.rank == 90 - 22
    assert all(v and 0 <= min(v) and max(v) < q.width for v in fed)


@pytest.mark.parametrize("name", ["2^70 coefficient", "ut2full+structural"])
def test_stream_values_are_python_ints(name):
    # numpy scalars would wrap in the in-place products of SparseIntRowSpace:
    # the rows fed, the bases of every degree and the normal forms that
    # make the rows of the degree above hold Python integers only
    q, fed = _fed(name)
    assert fed and all(type(c) is int and type(x) is int for v in fed for c, x in v.items())
    rows = [v for p in _chain(q) for v in p.space.rows()]
    assert rows and all(type(c) is int and type(x) is int for v in rows for c, x in v.items())
    forms = [f for p in _chain(q) for f in p._forms.values()]
    assert forms and all(type(x) is int for den, ks, ys in forms for x in (den, *ks, *ys))


@pytest.mark.parametrize("name", ["2^40 coefficients", "2^70 coefficient"])
def test_large_coefficients_take_the_exact_path(name):
    preset, gens, _, n = STREAM_CASES[name]
    h = preset_action(preset)
    target = "[x1,x2]*x3" if n == 3 else "[x1,x2]*[x3,x4]"
    assert verify_generating_set(gens, h, n)
    assert in_consequence_span(target, gens, h, n) is (n == 4)
    # [x1,x2]*x3 is no identity, so it is refuted before the stream; the
    # relabelled D*x3, a member, needs the 2^40 rows to cancel
    if n == 3:
        assert in_consequence_span("x1*([x2,x3]-[x2,x3,w1])", gens, h, n)


def test_ut2full_certificate_at_degree_5():
    # 87,480 columns: the full-width stream took about 1.1 s and peaked at
    # 70.0 MiB traced (dense row blocks of that width took a minute and
    # 0.9 GB).  In the quotient of 750 coordinates, fed the 18 non-left
    # extensions of the 214 rows that brought a pivot at degree 4, it
    # takes about 0.1 s and peaks at 2.3 MiB traced.  Degree 6, 1,574,640
    # columns, took 31 s and 1.3 GB; its quotient has 2,052 coordinates
    # and it takes about 0.4 s
    h = preset_action("ut2full")
    tracemalloc.start()
    try:
        assert verify_generating_set(preset_generators("ut2full"), h, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert verify_generating_set(preset_generators("ut2full"), h, 6)


def test_membership_writes_no_dense_row_block():
    # the degree-4 span of ut2full has 5,832 columns; dense blocks of
    # 1,024 rows of it and a dense basis of I_3 peaked at 47.5 MiB traced,
    # full-width dict rows at about 3.7 MiB, and the quotient of 264
    # coordinates at about 0.3 MiB.  [x1,x2]*x3*x4, no identity, is
    # refuted by its evaluation row before any consequence row is built;
    # the member ([x1,x2]-[x1,x2,w1])*x4*x3*w2 is reached only near the
    # whole span of rank 5,782, 214 in the quotient
    h = preset_action("ut2full")
    tracemalloc.start()
    try:
        member = in_consequence_span("[x1,x2]*x3*x4", preset_generators("ut2full"), h, 4)
        late = in_consequence_span("([x1,x2]-[x1,x2,w1])*x4*x3*w2", preset_generators("ut2full"), h, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert member is False
    assert late is True
    assert peak < 16 * 2 ** 20


def _streams(monkeypatch):
    """The degrees of the consequence spans started from now on."""
    degrees, blocks = [], codim._consequence_blocks

    def counted(vecs, h, n):
        degrees.append(n)
        return blocks(vecs, h, n)

    monkeypatch.setattr(codim, "_consequence_blocks", counted)
    return degrees


def test_closure_writes_no_dense_block(monkeypatch):
    # the coefficient closure of [x1,x2]*[x3,x4] over ut2full reaches rank
    # 901 of 5,832 columns; its whole basis written dense would take 42 MB
    # (81.7 MiB traced peak), and the closure maps its dict rows slot by
    # slot without writing any dense block.  Under this cap of 64 dense
    # rows every table of the feed still fits.  [x1,x3]*x2*x4 is no
    # identity and is refuted before the closure; the identity
    # ([x1,x2]-[x1,x2,w1])*x3*x4 lies outside the span and is fed it all
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 5832 * 64)
    degrees = _streams(monkeypatch)
    h = preset_action("ut2full")
    tracemalloc.start()
    try:
        member = in_consequence_span("[x1,x3]*x2*x4", ["[x1,x2]*[x3,x4]"], h, 4)
        outside = in_consequence_span("([x1,x2]-[x1,x2,w1])*x3*x4", ["[x1,x2]*[x3,x4]"], h, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert member is False
    assert outside is False
    assert degrees == [4]
    assert peak < 24 * 2 ** 20


@pytest.mark.parametrize("d,s", [(1, 2), (2, 3), (3, 2), (4, 2)])
def test_extension_maps_then_swaps_move_each_monomial(d, s):
    # the monomial of variable order sigma and coefficients cs at degree
    # d - 1, through w*x_d*f, f*x_d*w or x_i -> x_i*w*x_d and then the swap
    # of the labels j and d, written out one monomial at a time
    S, swaps = s ** (d + 1), _swaps(d)
    got = [(tau[f // S] * S + f % S).tolist() for f in _extensions(d, s) for tau in swaps]
    want = []
    for op in (0, d, *range(1, d)):
        for w in range(s):
            for j in range(1, d + 1):
                images = []
                for sigma in order_ranks(d - 1):
                    for cs in product(range(s), repeat=d):
                        a = 0 if op == 0 else d - 1 if op == d else sigma.index(op) + 1
                        q = d if op == d else a
                        order = tuple(j if v == d else d if v == j else v for v in sigma[:a] + (d,) + sigma[a:])
                        images.append(monomial_index(order, cs[:q] + (w,) + cs[q:], s))
                want.append(images)
    assert got == want


def test_extension_maps_are_held_before_their_swaps():
    # the 126 maps of degree 6 over s = 3 with their swaps applied were
    # 87,480 int64 entries each, 85 MiB traced; the 21 maps before the
    # swaps peak at about 15.6 MiB
    tracemalloc.start()
    try:
        maps = list(_extensions(6, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(maps) == 21 and len(_swaps(6)) == 6
    assert peak < 20 * 2 ** 20


def test_relabelling_maps_only_variable_orders():
    # the degree-6 closure of ut2D is relabelled over 92,160 columns: one
    # full-width map per permutation took 531 MB, and the 720 maps of order
    # ranks, 720 entries each, peaked at about 10.5 MiB traced in all.  The
    # walk over the 5 adjacent swaps reaches the target's relabelling
    # (three inversions) at about 4.1 MiB
    h = preset_action("ut2D")
    tracemalloc.start()
    try:
        member = in_consequence_span("[x3,x1]*[x2,x4]*x6*x5", ["[x1,x2]*[x3,x4]*x5*x6"], h, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert member is True
    assert peak < 16 * 2 ** 20


def filling_span(gen, h) -> Subspace:
    """The span of every coefficient filling u0*g(v1 x1 v1', ..., vd xd vd')*u1
    of the generator, each written as a word with a listed coefficient at
    each of its 2d + 2 places and vectorized by vectorize_words."""
    d, terms = _generator_words(gen, h)
    ncols, vectors = basis_size(d, h.s), []
    for u0, *around, u1 in product(range(h.s), repeat=2 * d + 2):
        words = {}
        for c, w in terms:
            word = [-u0 - 1]
            for sym in w:
                word += [-around[2 * sym - 2] - 1, sym, -around[2 * sym - 1] - 1] if sym > 0 else [sym]
            word = tuple(word + [-u1 - 1])
            words[word] = words.get(word, 0) + c
        vec = vectorize_words(words, h.W, d)
        vectors.append([vec.get(col, 0) for col in range(ncols)])
    return Subspace.from_vectors(ncols, vectors)


def _subalgebra_action(*basis):
    """ut(2) acted on by the span of the given elements (over e11, e22, e12)."""
    A = builtin("ut(2)")
    return action_from_subalgebra(A, [A.unit, *basis])


CLOSURE_ACTIONS = {
    "ut2D": lambda: preset_action("ut2D"),
    "ut2C": lambda: preset_action("ut2C"),
    "ut2full": lambda: preset_action("ut2full"),
    # (1, 1+e22): (1+e22)^2 = -2 + 3(1+e22), a table row of two nonzeros
    "1, 1+e22": lambda: _subalgebra_action((1, 2, 0)),
    # (1, 2^40 e22): table entries of 2^40
    "1, 2^40 e22": lambda: _subalgebra_action((0, 2 ** 40, 0)),
    "1, 1+e22, 3e22+5e12": lambda: _subalgebra_action((1, 2, 0), (0, 3, 5)),
}


# the cubic only where s = 2: at s = 3 the oracle's 3^8 fillings take over
# a second
CLOSURE_CASES = [(name, gen) for name in CLOSURE_ACTIONS for gen in ("[x1,x2]", "x1*w1*x2")]
CLOSURE_CASES += [(name, "[x1,x2]*x3") for name in ("ut2D", "ut2C", "1, 1+e22", "1, 2^40 e22")]


@pytest.mark.parametrize("name, gen", CLOSURE_CASES)
def test_closure_spans_every_filling(name, gen):
    h = CLOSURE_ACTIONS[name]()
    ((d, vec),) = _generator_vectors([gen], h)
    ncols = basis_size(d, h.s)
    rows = codim._closure([vec], d, ncols, codim._product_tables(h.W))
    assert rows and all(type(c) is int and type(x) is int for v in rows for c, x in v.items())
    dense = [[v.get(col, 0) for col in range(ncols)] for v in rows]
    assert Subspace.from_vectors(ncols, dense) == filling_span(gen, h)


def test_stream_batches_from_byte_cap(monkeypatch):
    # every table of a certificate and of a membership is checked against
    # the byte cap before it is made: the extension maps, the inverse of
    # the left extensions, the temporaries of each pass of the feed and
    # the witness rows.  Their answers do not depend on the cap as long as
    # the largest table fits ([x1,x2]*x3, no identity, is refuted before
    # any consequence row is built; the member x3*w1*([x1,x2]-[x1,x2,w1])
    # is fed), and one byte under it the certificate is refused
    h, gens = preset_action("ut2D"), preset_generators("ut2D")
    checked, check = [], codim._check_bytes

    def recorded(rows, cols, itemsize=1):
        checked.append(rows * cols * itemsize)
        return check(rows, cols, itemsize)

    monkeypatch.setattr(codim, "_check_bytes", recorded)

    def answers():
        return (verify_generating_set(gens, h, 3), in_consequence_span("[x1,x2]*x3", gens, h, 3),
                in_consequence_span("x3*w1*([x1,x2]-[x1,x2,w1])", gens, h, 3))

    assert answers() == (True, False, True)
    monkeypatch.setattr(codim, "STREAM_BYTES", max(checked))
    assert answers() == (True, False, True)
    monkeypatch.setattr(codim, "STREAM_BYTES", max(checked) - 1)
    with pytest.raises(BudgetExceeded):
        verify_generating_set(gens, h, 3)


# -- membership refuted by an evaluation row ----------------------------------


def test_identity_generators_refute_a_non_identity_target(monkeypatch):
    def no_stream(vecs, h, n):
        raise AssertionError("a consequence row was built")

    monkeypatch.setattr(codim, "_consequence_blocks", no_stream)
    # the bench query: w3*x1 and x1*w3 vanish in coordinates, and
    # [x1,x2]-[x1,x2,w1] is an identity of ut2full; [x1,x2]*x3 is not
    assert in_consequence_span("[x1,x2]*x3", preset_generators("ut2full"), preset_action("ut2full"), 3) is False
    # the structural identity of ut2D as a resolved-word dict of ints
    gens = [{(-2, 1, -1): 1, (-2, 1, -2): -1}, *preset_generators("ut2D")]
    assert in_consequence_span("[x1,x2]*x3", gens, preset_action("ut2D"), 3) is False
    # x1*x2*x3, no identity, is above the degree and generates nothing there
    gens = ["[x1,x2]*[x3,x4]", "x1*x2*x3"]
    assert in_consequence_span("[x1,x2]", gens, preset_action("ut2F"), 2) is False


def test_a_non_identity_generator_streams(monkeypatch):
    # [x1,x2] is no identity of ut2(F), so the targets, no identities
    # either, are decided by the span {[x1,x2]}
    degrees = _streams(monkeypatch)
    h = preset_action("ut2F")
    assert in_consequence_span("x1*x2", ["[x1,x2]"], h, 2) is False
    assert in_consequence_span("[x2,x1]", ["[x1,x2]"], h, 2) is True
    assert degrees == [2, 2]


def test_witness_over_the_byte_cap_streams(monkeypatch):
    # ut2F, n = 3: a witness row has 3^4 = 81 entries and a stream row 6;
    # under a cap of 80 entries the witness is skipped, not raised
    h, gens, target = preset_action("ut2F"), preset_generators("ut2F"), "[x1,x2]*x3"
    degrees = _streams(monkeypatch)
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 80)
    assert in_consequence_span(target, gens, h, 3) is False
    assert degrees == [3]
    with pytest.raises(BudgetExceeded):
        identity_witness(parse(target), h)
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 81)
    assert in_consequence_span(target, gens, h, 3) is False
    assert degrees == [3]


def test_nonunital_coefficients_fail_before_the_witness():
    # x1 is no identity of ut(2) and w0*w0*x1 is one, but the target's
    # vector needs the unit that W = zero_mult(1) lacks
    with pytest.raises(UnknownCoefficient):
        in_consequence_span("x1", ["w0*w0*x1"], nonunital_action(), 1)


def test_a_refuted_target_is_not_vectorized(monkeypatch):
    vectorized = []

    def counted(words, W, n):
        vectorized.append(words)
        return vectorize_words(words, W, n)

    monkeypatch.setattr(codim, "vectorize_words", counted)
    h, gens = preset_action("ut2full"), preset_generators("ut2full")
    assert in_consequence_span("[x1,x2]*x3", gens, h, 3) is False
    assert vectorized == []
    # a target the witness does not decide is vectorized once, then its
    # generators
    assert in_consequence_span("[x1,x2]*x3 - [x1,x2,w1]*x3", gens, h, 3) is True
    assert len(vectorized) == 1 + sum(codim._generator_words(g, h) is not None for g in gens)


def test_membership_keeps_the_answers_of_the_coordinates():
    # w1*w1*x1 - w1*x1 cancels in the coordinates of ut2D (w1 = e22 is
    # idempotent): True at every degree, before any generator is read
    h, two = preset_action("ut2D"), "[x1,x2]*[x3,x4] + [x1,x2]*[x1,x2]"
    for target, n in (("w1*w1*x1 - w1*x1", 1), ("w1*w1*x1 - w1*x1", 3), ("w1*w1*x1*x2*x3 - w1*x1*x2*x3", 3)):
        assert in_consequence_span(target, [two], h, n) is True, (target, n)
    with pytest.raises(NotMultilinear, match="needs a target of that degree, not 1"):
        in_consequence_span("w1*x1", [two], h, 3)
    with pytest.raises(NotMultilinear, match="2 multilinear components"):
        in_consequence_span("[x1,x2]*x3", [two], h, 3)


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
    """The rows as dense blocks of at most size rows each: int64, or Python
    integers when an entry does not fit."""
    for start in range(0, len(rows), size):
        part = rows[start : start + size]
        big = any(abs(v) >= 1 << 63 for row in part for v in row)
        yield np.array(part, dtype=object if big else np.int64)


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

    assert _span(_as_blocks(rows), ncols).rank == want


@given(_matrices(2 ** 70))
def test_stream_span_beyond_int64_matches_sympy(rows):
    assert _span(_as_blocks(rows), len(rows[0])).rank == _sympy_rank(rows)


def test_stream_span_overflow_branch_is_exact():
    span = _span(_as_blocks(OVERFLOWING, 1), 3)
    assert span.exact and span.rank == _sympy_rank(OVERFLOWING) == 3
    # membership: the feed stops after the first group that brings the
    # target in, here a group of copies of the target
    target = np.array(OVERFLOWING[:1])

    def stop(span):
        return not span.reduce_rows(target).any()

    span = _span((np.array([row] * BLOCK) for row in OVERFLOWING), 3, stop=stop)
    assert stop(span) and span.rank == 1


def test_groups_cut_the_rows_of_all_blocks_in_order():
    rows = np.arange(72 * 2).reshape(72, 2)
    blocks = np.split(rows, np.cumsum([5, 20, 0, 7]))  # 5, 20, 0, 7 and 40 rows
    groups = list(_groups(blocks))
    assert [len(X) for X in groups] == [BLOCK] * 4 + [8]
    assert (np.concatenate(groups) == rows).all()


def test_span_stops_pulling_at_the_target():
    pulled = []

    def blocks():
        for i in range(8):
            pulled.append(i)
            yield np.eye(BLOCK, 8 * BLOCK, i * BLOCK, dtype=np.int64)

    # the second group brings the rank past the target; no block after it
    # is pulled
    span = _span(blocks(), 8 * BLOCK, target=BLOCK + 1)
    assert span.rank == 2 * BLOCK and pulled == [0, 1]
