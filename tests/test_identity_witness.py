"""The identity test of poly check (codim.identity_witness) against the
AlgElement evaluator kept as an oracle in evaluation_oracle.py."""

import random
import re
from fractions import Fraction

import pytest

from genpi import codim
from genpi.actions import make_action, preset_action
from genpi.algebras import builtin
from genpi.codim import identity_witness, preset_generators
from genpi.errors import BudgetExceeded
from genpi.multipliers import Multiplier
from genpi.polynomials import Coeff, Sum, parse
from evaluation_oracle import is_identity
from test_codim import ut2d_rescaled


def nonunital_action():
    """W = zero_mult(1), which has no unit, acting on ut(2) through the
    inner pair of e12 (x -> x e12, x -> e12 x); w0 squares to zero, as e12
    does."""
    A = builtin("ut(2)")
    return make_action(builtin("zero_mult(1)"), A, [Multiplier.inner(A.basis_element(2))], kernel_tail=True, name="nonunital")


ACTIONS = ["ut2F", "ut2D", "ut2C", "ut2full", "grassmann_Ek(1,2)", "nonunital"]


def load(name):
    return nonunital_action() if name == "nonunital" else preset_action(name)


def coefficient_names(h):
    """Coefficient symbols that parse: w<i> for the listed basis, the
    labels that read as symbols, and two tail symbols."""
    names = [f"w{i}" for i in range(h.s)] + [x for x in h.W.labels if re.fullmatch(r"[we]\d+", x)]
    return names + [f"w{h.s + 2}", "e9"]


def random_term(rng, h, nvars):
    """A scaled product of variables, coefficients and commutators, with at
    least one variable; a variable may repeat, and the indices need not be
    1..d."""
    names = coefficient_names(h)

    def atom():
        return f"x{rng.randint(1, nvars)}" if rng.random() < 0.7 else rng.choice(names)

    factors = []
    for _ in range(rng.randint(1, 3)):
        r = rng.random()
        factors.append(f"x{rng.randint(1, nvars)}" if r < 0.45 else rng.choice(names) if r < 0.7
                       else f"[{atom()},{atom()}]")
    if not any("x" in f for f in factors):
        factors.insert(rng.randrange(len(factors) + 1), f"x{rng.randint(1, nvars)}")
    return rng.choice(["", "2*", "-1/3*", "5*"]) + "*".join(factors)


def known_identity(rng, name, h):
    """A published generator of the action (w0*w0*x1 or x1*w0*w0 for the
    non-unital one) with its variables renamed injectively."""
    gens = preset_generators(name) if name != "nonunital" else ["w0*w0*x1", "x1*w0*w0"]
    g = rng.choice(gens)
    targets = rng.sample(range(1, 6), 4)
    return re.sub(r"x(\d)", lambda m: f"x{targets[int(m.group(1)) - 1]}", g)


def random_polynomial(rng, name, h):
    """Text of a random polynomial: a renamed known identity, maybe with a
    random term added, or a sum of random terms."""
    if rng.random() < 0.4:
        text = known_identity(rng, name, h)
        return text + " + " + random_term(rng, h, 3) if rng.random() < 0.5 else text
    return " - ".join(random_term(rng, h, 3) for _ in range(rng.randint(1, 3)))


@pytest.mark.parametrize("name", ACTIONS)
def test_identity_witness_matches_the_oracle(name):
    h = load(name)
    rng = random.Random(name)
    failures = 0
    for i in range(55):
        node = parse(random_polynomial(rng, name, h))
        if i % 5 == 0:  # a component without variables
            node = Sum((node, Coeff(rng.choice(coefficient_names(h)))))
        want = is_identity(node, h)
        witness = identity_witness(node, h)
        assert (witness is None, witness) == want, str(node)
        failures += witness is not None
    assert 10 < failures < 50


@pytest.mark.parametrize("text,witness", [
    ("x1*x1", ([1, 2], ("e11", "e11"))),
    ("[x3,x1]", ([1, 3], ("e11", "e12"))),
    ("[x1,x2]*[x3,x4]", None),
    ("x1*w5 + [x2,x1]*[x4,x3]", None),
])
def test_identity_witness_examples(text, witness):
    h = preset_action("ut2F")
    assert identity_witness(parse(text), h) == witness == is_identity(parse(text), h)[1]


def test_identity_witness_beyond_int64():
    # the sum of the rows takes the Python-integer path
    h = preset_action("ut2full")
    big = f"{2 ** 70}*[x1,x2] - {2 ** 70}*x1*x2"
    assert identity_witness(parse(big), h) == is_identity(parse(big), h)[1] == ([1, 2], ("e11", "e11"))
    assert identity_witness(parse(f"{2 ** 70}*([x1,x2]-[x1,x2,w1])"), preset_action("ut2D")) is None


def test_zero_rows_beside_constants_beyond_int64():
    # in the basis f1 = e11 + e12, f2 = e22, f3 = 2^-70 e12 of ut(2),
    # f1 f2 = 2^70 f3; the inner pair of e12 gives w0 x1 w0 = e12 x1 e12 = 0,
    # a zero row whose 2^70 contraction is never cast to int64
    A = ut2d_rescaled(Fraction(1, 2 ** 70)).A
    h = make_action(builtin("zero_mult(1)"), A, [Multiplier.inner(A.element([0, 0, 2 ** 70]))])
    assert identity_witness(parse("w0*x1*w0*x2"), h) is None
    node = parse("w0*x1*w0*x2 + x2*x1")
    assert identity_witness(node, h) == is_identity(node, h)[1] == ([1, 2], ("f1", "f1"))


def test_identity_witness_checks_the_byte_cap(monkeypatch):
    # ut2F, [x1,x2]*[x3,x4]: one master row of 3^5 int64 entries
    h, node = preset_action("ut2F"), parse("[x1,x2]*[x3,x4]")
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 3 ** 5)
    assert identity_witness(node, h) is None
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 3 ** 5 - 1)
    with pytest.raises(BudgetExceeded) as e:
        identity_witness(node, h)
    assert (e.value.rows, e.value.cols) == (1, 3 ** 5)
