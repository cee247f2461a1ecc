"""The integer form that codim keeps per action (codim._of_action): reusing
it cannot be seen from outside.  Each check runs twice on one action and
once on a fresh one and compares the answers; the kept arrays are
read-only and of degree 1 or per coefficient slot; what a caller gets
back, or passes in and changes later, does not reach the form; calls do
not grow it; and it is freed with its action."""

import gc
import sys
import types
import weakref
from itertools import product

import numpy as np
import pytest

from genpi import codim
from genpi.actions import preset_action
from genpi.codim import (
    codimension,
    identity_kernel_basis,
    identity_witness,
    in_consequence_span,
    preset_generators,
    structural_identities,
    verify_generating_set,
)
from genpi.polynomials import parse

PRESETS = ["ut2F", "ut2D", "ut2C", "ut2full"]
TARGETS = ["[x1,x2]*x3", "x3*w1*([x1,x2]-[x1,x2,w1])", "[x1,x2]*[x3,x1]", "x2*w1*x1"]


def answers(h, name):
    """Every public answer the form serves, on the action h of the preset
    name, each as a fresh value."""
    gens = preset_generators(name)
    return {
        "codimension": [codimension(h, n) for n in (1, 2, 3)],
        "verify": [verify_generating_set(gens, h, n) for n in (1, 2, 3)],
        "verify short": verify_generating_set(gens[:-1], h, 3),
        "member": [in_consequence_span(t, gens, h, 3) for t in TARGETS[:2]],
        "witness": [identity_witness(parse(t), h) for t in TARGETS],
        "structural": structural_identities(h),
    }


def kernel_bytes(h, n):
    sub = identity_kernel_basis(h, n)
    return sub.ambient_dim, sub.pivots.tobytes(), sub.rows.dtype.str, sub.rows.tobytes()


@pytest.mark.parametrize("name", PRESETS)
def test_answers_do_not_depend_on_the_kept_form(name):
    h = preset_action(name)
    first = answers(h, name)
    assert answers(h, name) == first
    assert answers(preset_action(name), name) == first


@pytest.mark.parametrize("name", PRESETS)
def test_identity_kernels_are_the_same_bytes(name):
    h = preset_action(name)
    for n in (1, 2, 3):
        first = kernel_bytes(h, n)
        assert kernel_bytes(h, n) == first
        assert kernel_bytes(preset_action(name), n) == first


def test_kept_arrays_are_read_only_and_of_degree_one(monkeypatch):
    kept, read_only = [], codim._read_only
    monkeypatch.setattr(codim, "_read_only", lambda X: kept.append(read_only(X)) or X)
    name, h = "ut2full", preset_action("ut2full")
    answers(h, name)
    codimension(h, 5)
    assert in_consequence_span("[x1,x2]*x3*x4*x5", preset_generators(name), h, 5) is False
    ops, tables = codim._action_operators(h), codim._action_tables(h)
    for X in (ops.firsts, *ops.lambdas, *ops.rhos, ops.lift.S, ops.unit, *tables):
        assert any(X is Y for Y in kept)
    s, dim = h.s, h.A.dim
    assert len(kept) == 2 * s + 5
    for X in kept:
        assert not X.flags.writeable
        assert X.size <= max(s * s * dim * dim, s * dim ** 3, s ** 3)  # nothing of degree n
        with pytest.raises(ValueError):
            X.flat[0] = X.flat[0]


def test_returned_and_given_generators_do_not_reach_the_form():
    h, gens = preset_action("ut2D"), preset_generators("ut2D")
    ids = structural_identities(h)
    want = [dict(x) for x in ids]
    ids[0].clear()
    ids.append({(-1, 1, -1): 1})
    gens.append("[x1,x2]")
    assert structural_identities(h) == want
    assert preset_generators("ut2D") == list(codim.PRESET_GENERATORS["ut2D"])
    assert verify_generating_set(preset_generators("ut2D"), h, 3) is True
    # a dict generator is read on every call: changed in place into
    # w0*x1*w0 = x1, no identity, it gives the answer of what it now says
    gen = dict(want[0])
    assert verify_generating_set([*preset_generators("ut2D"), gen], h, 3) is True
    gen.clear()
    gen[(-1, 1, -1)] = 1
    assert verify_generating_set([*preset_generators("ut2D"), gen], h, 3) is False
    assert in_consequence_span("[x1,x2]*x3", [*preset_generators("ut2D"), gen], h, 3) is True


def test_every_codimension_call_does_its_rank_work(monkeypatch):
    fed, span = [], codim._span
    monkeypatch.setattr(codim, "_span", lambda *a, **k: (fed.append(1), span(*a, **k))[1])
    h = preset_action("ut2D")
    assert codimension(h, 4) == codimension(h, 4)
    first = len(fed) // 2
    assert first > 0 and len(fed) == 2 * first


def form_bytes(h) -> int:
    """The bytes of what the kept form of h reaches: its arrays, and the
    objects, closures and cache tables under its parts."""
    seen, todo, total = set(), list(codim._FORMS[h].values()), 0
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType)):
            continue
        seen.add(id(x))
        total += x.nbytes if isinstance(x, np.ndarray) else sys.getsizeof(x)
        if isinstance(x, types.FunctionType):  # its closure, not its module
            todo.extend(cell.cell_contents for cell in x.__closure__ or ())
        else:
            todo.extend(gc.get_referents(x))
    return total


def test_many_word_patterns_do_not_grow_the_form():
    """The word evaluator's slot and master tables last for one call: the
    form of an action is the same after one membership or witness call as
    after many with distinct coefficient patterns."""
    h, gens = preset_action("ut2full"), preset_generators("ut2full")
    assert verify_generating_set(gens, h, 3) is True
    assert in_consequence_span("[x1,x2]*x3", gens, h, 3) is False
    identity_witness(parse("[x1,x2]*x3"), h)
    parts, size = set(codim._FORMS[h]), form_bytes(h)
    words = ["w0", "w1", "w2", "w1*w2", "w2*w1", "w1*w1*w2"]
    for a, b, c in product(words, repeat=3):
        text = f"{a}*[x1,x2]*{b}*x3*{c}"
        in_consequence_span(text, gens, h, 3)
        identity_witness(parse(text), h)
    assert set(codim._FORMS[h]) == parts
    assert form_bytes(h) == size


def test_the_form_is_freed_with_its_action():
    h = preset_action("ut2full")
    answers(h, "ut2full")
    ref = weakref.ref(h)
    assert h in codim._FORMS
    del h
    gc.collect()
    assert ref() is None


def test_the_pairs_of_an_action_are_a_tuple():
    h = preset_action("ut2D")
    assert isinstance(h.pairs, tuple)
    with pytest.raises(AttributeError):
        h.pairs.append(h.pairs[0])
    assert np.array_equal(codim._action_operators(h).firsts, codim._action_operators(preset_action("ut2D")).firsts)
