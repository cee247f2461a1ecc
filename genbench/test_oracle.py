"""The benchmark's oracles against sympy's exact rank on small cases.

    python3 -m pytest genbench
"""

import os
import random
import sys
from itertools import combinations, permutations, product

import numpy as np
import pytest
import sympy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402


def _low_rank(rng, rows, cols, rank, bound=5):
    a = sympy.Matrix(rows, rank, lambda i, j: rng.randint(-bound, bound))
    b = sympy.Matrix(rank, cols, lambda i, j: rng.randint(-bound, bound))
    return a * b


def test_prime():
    assert sympy.isprime(oracle.P)


@pytest.mark.parametrize("seed", range(6))
def test_rank_mod_p_matches_sympy(seed):
    rng = random.Random(seed)
    m = _low_rank(rng, rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 5))
    ints = np.array(m.tolist(), dtype=np.int64).reshape(m.shape)
    assert oracle.rank_mod_p(ints) == m.rank()
    space = oracle.RowSpaceModP(m.shape[1])
    for row in ints:
        space.add(row)
    assert space.rank == m.rank()


def test_matmul_mod_is_exact():
    rng = random.Random(7)
    a = [[rng.randrange(oracle.P) for _ in range(40)] for _ in range(3)]
    b = [[rng.randrange(oracle.P) for _ in range(5)] for _ in range(40)]
    want = [[sum(a[i][t] * b[t][j] for t in range(40)) % oracle.P for j in range(5)]
            for i in range(3)]
    assert oracle.matmul_mod(a, b).tolist() == want


# -- exact evaluation matrices at basis tuples, built without the oracle -----------

UT2_BASIS = {"1": [[1, 0], [0, 1]], "e11": [[1, 0], [0, 0]],
             "e22": [[0, 0], [0, 1]], "e12": [[0, 1], [0, 0]]}


def _ut2_exact_rank(labels, n):
    mats = [sympy.Matrix(UT2_BASIS[e]) for e in ("e11", "e22", "e12")]
    coeffs = [sympy.Matrix(UT2_BASIS[lab]) for lab in labels]
    rows = []
    for perm in permutations(range(n)):
        for cs in product(range(len(coeffs)), repeat=n + 1):
            row = []
            for tup in product(range(3), repeat=n):
                val = coeffs[cs[0]]
                for t in range(n):
                    val = val * mats[tup[perm[t]]] * coeffs[cs[t + 1]]
                row += [val[0, 0], val[1, 1], val[0, 1]]
            rows.append(row)
    return sympy.Matrix(rows).rank()


@pytest.mark.parametrize("labels,n", [(["1"], 1), (["1"], 2), (["1"], 3), (["1"], 4),
                                      (["1", "e22"], 1), (["1", "e22"], 2),
                                      (["1", "e22", "e12"], 2)])
def test_ut2_evaluator_matches_sympy(labels, n):
    got = oracle.ut2_rank(labels, n, random.Random(n))[0]
    assert got == _ut2_exact_rank(labels, n)
    if labels == ["1"]:
        assert got == 2 ** (n - 1) * (n - 2) + 2


def _exterior_exact_rank(k, m, n):
    words = [w for size in range(m + 1) for w in combinations(range(1, m + 1), size)]
    index = {w: i for i, w in enumerate(words)}

    def mul(u, v):  # dict word -> coefficient
        out = {}
        for a, x in u.items():
            for b, y in v.items():
                if set(a) & set(b):
                    continue
                inv = sum(1 for i in a for j in b if j < i)
                w = tuple(sorted(a + b))
                out[w] = out.get(w, 0) + (-1) ** inv * x * y
        return out

    coeffs = [{w: 1} for w in words if all(g <= k for g in w)]
    rows = []
    for perm in permutations(range(n)):
        for cs in product(range(len(coeffs)), repeat=n + 1):
            row = []
            for tup in product(range(len(words)), repeat=n):
                val = coeffs[cs[0]]
                for t in range(n):
                    val = mul(mul(val, {words[tup[perm[t]]]: 1}), coeffs[cs[t + 1]])
                vec = [0] * len(words)
                for w, c in val.items():
                    vec[index[w]] += c
                row += vec
            rows.append(row)
    return sympy.Matrix(rows).rank()


@pytest.mark.parametrize("k,m,n", [(1, 3, 1), (2, 4, 1), (1, 3, 2)])
def test_exterior_evaluator_matches_sympy(k, m, n):
    alg = oracle.Exterior(m)
    coeffs = np.array([alg.word_vector(w) for w in alg.coefficient_words(k)])
    got = oracle.stable_rank(alg, coeffs, n, random.Random(m))[0]
    assert got == _exterior_exact_rank(k, m, n)


def test_exterior_product_signs():
    alg = oracle.Exterior(3)
    e1, e2, e3 = (alg.word_vector([i]) for i in (1, 2, 3))
    assert (alg.mul(e1, e2) == alg.word_vector([1, 2])).all()
    assert ((alg.mul(e2, e1) + alg.word_vector([1, 2])) % oracle.P == 0).all()
    assert not alg.mul(e1, e1).any()
    rng = random.Random(3)
    x, y, z = oracle.random_points(rng, 3, 1, alg.size)[:, 0]
    assert (alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))).all()
    assert (alg.mul(alg.mul(e1, e2), e3) == alg.word_vector([1, 2, 3])).all()


def test_eval_poly_commutators_and_coefficients():
    alg = oracle.UT2()
    pts = np.array([[oracle.UT2.ELEMENTS[e]] for e in ("e11", "e12", "e22")], dtype=np.int64)
    assert oracle.eval_poly("[x1,x2]*x3", alg, oracle.UT2FULL, pts)[0].tolist() == [0, 1, 0]
    # [x1,x2,x3] is left-normed: [[e11,e12],e22] = [e12,e22] = e12
    assert oracle.eval_poly("[x1,x2,x3]", alg, oracle.UT2FULL, pts)[0].tolist() == [0, 1, 0]
    # w1 is e22 in ut2full; w3 lies past the listed basis and acts as zero
    assert oracle.eval_poly("w1*x3", alg, oracle.UT2FULL, pts)[0].tolist() == [0, 0, 1]
    assert not oracle.eval_poly("w3*x1 - 2*x1*w3", alg, oracle.UT2FULL, pts).any()
    assert oracle.vanishes("[x1,x2]-[x1,x2,w1]", alg, oracle.UT2FULL, random.Random(1))
    assert not oracle.vanishes("[x1,x2]", alg, oracle.UT2FULL, random.Random(1))
