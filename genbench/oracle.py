"""Independent oracles for the genpi benchmark.

Nothing here imports genpi.  A degree-n multilinear monomial
w_{i0} x_{s(1)} w_{i1} ... x_{s(n)} w_{in} is evaluated by multiplying in
the algebra itself -- 2x2 upper-triangular matrices for ut(2), bitmask
products for the exterior algebra -- at seeded random points over F_P.
The rank of those evaluations is the codimension with high probability:
rank_P can only fall short of the rational rank, and points are added one
at a time until two more leave the rank unchanged (a polynomial that
vanishes at a fresh generic point vanishes everywhere).

Run as a script it prints the oracle values of one workload as JSON:

    python3 genbench/oracle.py <workload> <seed> [<generators as JSON>]
"""

from __future__ import annotations

import json
import random
import re
import sys
from itertools import combinations, permutations
from math import factorial

import numpy as np

P = 2**31 - 1  # prime; products of two residues fit in int64


# -- linear algebra over F_P -----------------------------------------------------


def to_residue(x) -> int:
    """Residue of an integer or a Fraction (denominator prime to P)."""
    num = getattr(x, "numerator", x)
    den = getattr(x, "denominator", 1)
    return int(num) * pow(int(den), -1, P) % P


def rank_mod_p(matrix) -> int:
    """Rank over F_P.  Rows below a pivot are updated only where they are
    nonzero in the pivot column, so an echelon input costs next to nothing."""
    A = np.array(matrix, dtype=np.int64) % P
    if A.ndim != 2:
        raise ValueError("need a 2-d matrix")
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, P) % P
        below = r + 1 + np.nonzero(A[r + 1 :, c])[0]
        if below.size:
            A[below] = (A[below] - A[below, c][:, None] * A[r]) % P
        r += 1
    return r


def matmul_mod(A, B) -> np.ndarray:
    """A @ B over F_P without int64 overflow: B is split into 16-bit halves
    so every partial sum stays below 2^63."""
    A = np.asarray(A, dtype=np.int64) % P
    B = np.asarray(B, dtype=np.int64) % P
    if A.shape[1] > 1 << 15:
        raise ValueError("inner dimension too large for the split product")
    hi, lo = B >> 16, B & 0xFFFF
    return ((A @ hi % P) * 65536 + A @ lo) % P


# -- algebras: ut(2) and the exterior algebra -----------------------------------------


class UT2:
    """ut(2) as arrays [..., (a, b, c)] standing for [[a, b], [0, c]]."""

    size = 3
    ELEMENTS = {"1": (1, 0, 1), "e11": (1, 0, 0), "e22": (0, 0, 1), "e12": (0, 1, 0)}

    @staticmethod
    def mul(X, Y):
        a = X[..., 0] * Y[..., 0] % P
        b = (X[..., 0] * Y[..., 1] + X[..., 1] * Y[..., 2]) % P
        c = X[..., 2] * Y[..., 2] % P
        return np.stack(np.broadcast_arrays(a, b, c), axis=-1)

    def coefficient_basis(self, labels):
        return np.array([self.ELEMENTS[lab] for lab in labels], dtype=np.int64)


class Exterior:
    """Unital exterior algebra on m generators; coordinate index = bitmask
    of the generators in the word, sign from sorting the concatenation."""

    def __init__(self, m: int):
        self.size = 1 << m
        a, b = np.meshgrid(np.arange(self.size), np.arange(self.size), indexing="ij")
        a, b = a.ravel(), b.ravel()
        keep = (a & b) == 0
        a, b = a[keep], b[keep]
        popcount = np.array([bin(x).count("1") for x in range(self.size)], dtype=np.int64)
        swaps = np.zeros(a.shape, dtype=np.int64)
        for i in range(m):
            swaps += ((a >> i) & 1) * popcount[b & ((1 << i) - 1)]
        c = a | b
        order = np.argsort(c, kind="stable")
        self._a, self._b = a[order], b[order]
        self._neg = (swaps[order] % 2) == 1
        self._starts = np.searchsorted(c[order], np.arange(self.size))

    def mul(self, X, Y):
        X, Y = np.broadcast_arrays(X, Y)
        T = X[..., self._a] * Y[..., self._b] % P
        T[..., self._neg] = (P - T[..., self._neg]) % P
        return np.add.reduceat(T, self._starts, axis=-1) % P

    def word_vector(self, gens) -> np.ndarray:
        v = np.zeros(self.size, dtype=np.int64)
        mask = 0
        for g in gens:
            mask |= 1 << (g - 1)
        v[mask] = 1
        return v

    def coefficient_words(self, k: int):
        """Words in the first k generators, shortest first, then lex."""
        words = [()]
        for size in range(1, k + 1):
            words.extend(combinations(range(1, k + 1), size))
        return words


# -- evaluation of the monomial basis ----------------------------------------------------


def evaluation_rows(alg, coeffs: np.ndarray, n: int, points: np.ndarray) -> np.ndarray:
    """Values of all n! * s^(n+1) monomials at K points, one row per
    monomial in genpi's monomial order (permutations lex, then the
    coefficient slots as base-s digits, first slot most significant).
    points has shape (n, K, size); the result (rows, K * size)."""
    s = coeffs.shape[0]
    K = points.shape[1]
    perms = np.array(list(permutations(range(n))), dtype=np.intp).reshape(-1, n)
    cur = np.broadcast_to(coeffs[None, :, None, :], (len(perms), s, K, alg.size))
    for t in range(n):
        cur = alg.mul(cur, points[perms[:, t]][:, None])
        cur = alg.mul(cur[:, :, None], coeffs[None, None, :, None, :])
        cur = cur.reshape(len(perms), -1, K, alg.size)
    return cur.reshape(-1, K * alg.size)


def random_points(rng: random.Random, n: int, K: int, size: int) -> np.ndarray:
    return np.array(
        [[[rng.randrange(P) for _ in range(size)] for _ in range(K)] for _ in range(n)],
        dtype=np.int64,
    )


class RowSpaceModP:
    """Span of vectors over F_P kept in reduced echelon form."""

    def __init__(self, length: int):
        self.basis = np.zeros((0, length), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, v) -> bool:
        """Insert one vector; True when the span grew."""
        v = np.asarray(v, dtype=np.int64) % P
        if self.pivots:
            v = (v - (v[self.pivots][:, None] * self.basis % P).sum(axis=0)) % P
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = v * pow(int(v[c]), -1, P) % P
        self.basis = (self.basis - self.basis[:, c][:, None] * v) % P
        self.basis = np.vstack([self.basis, v])
        self.pivots.append(c)
        return True


def stable_rank(alg, coeffs, n: int, rng: random.Random, quiet: int = 2):
    """(rank, evaluation rows): points are added one at a time until
    `quiet` consecutive points leave the rank where it was."""
    space = RowSpaceModP(factorial(n) * coeffs.shape[0] ** (n + 1))
    blocks = []
    still = 0
    while still < quiet:
        block = evaluation_rows(alg, coeffs, n, random_points(rng, n, 1, alg.size))
        blocks.append(block)
        grew = [space.add(v) for v in block.T]
        still = 0 if any(grew) else still + 1
    return space.rank, np.concatenate(blocks, axis=1)


# -- generalized polynomials evaluated directly ------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|x\d+|w\d+|e\d+|[-+*\[\],()])")


def eval_poly(text: str, alg, labels, points: np.ndarray) -> np.ndarray:
    """Value of a generalized polynomial (genpi's syntax: left-normed
    commutators, w<i> the i-th listed coefficient, other symbols looked up
    by label, unlisted coefficients acting as zero) with x<j> set to
    points[j-1], an array of shape (K, size)."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    basis = alg.coefficient_basis(labels)
    zero = np.zeros_like(points[0])
    at = [0]

    def peek():
        return tokens[at[0]] if at[0] < len(tokens) else ""

    def take():
        at[0] += 1
        return tokens[at[0] - 1]

    def poly():
        acc = term()
        while peek() in ("+", "-"):
            sign = take()
            t = term()
            acc = (acc + t) % P if sign == "+" else (acc - t) % P
        return acc

    def term():
        scalar = 1
        if peek() == "-":
            take()
            scalar = P - 1
        if peek().isdigit():
            scalar = scalar * int(take()) % P
            if peek() == "*":
                take()
        acc = factor()
        while peek() in ("*", "[", "(") or peek()[:1] in ("x", "w", "e"):
            if peek() == "*":
                take()
            acc = alg.mul(acc, factor())
        return acc * scalar % P

    def factor():
        tok = take()
        if tok.startswith("x"):
            return points[int(tok[1:]) - 1]
        if tok.startswith("w"):
            i = int(tok[1:])
            return zero + basis[i] if i < len(labels) else zero
        if tok.startswith("e"):
            return zero + basis[labels.index(tok)] if tok in labels else zero
        if tok == "(":
            inner = poly()
            if take() != ")":
                raise ValueError("expected ')'")
            return inner
        if tok == "[":
            acc = poly()
            while peek() == ",":
                take()
                nxt = poly()
                acc = (alg.mul(acc, nxt) - alg.mul(nxt, acc)) % P
            if take() != "]":
                raise ValueError("expected ']'")
            return acc
        raise ValueError(f"unexpected token {tok!r}")

    value = poly()
    if at[0] != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return value


def vanishes(text: str, alg, labels, rng: random.Random, K: int = 8) -> bool:
    nvars = max(int(v) for v in re.findall(r"x(\d+)", text))
    points = random_points(rng, nvars, K, alg.size)
    return not eval_poly(text, alg, labels, points).any()


# -- the benchmark's oracle values ---------------------------------------------------------

UT2F = ["1"]
UT2D = ["1", "e22"]
UT2FULL = ["1", "e22", "e12"]
GRASSMANN_QUERIES = ((2, 1), (1, 2), (1, 3))


def ut2_rank(labels, n: int, rng):
    alg = UT2()
    return stable_rank(alg, alg.coefficient_basis(labels), n, rng)


def grassmann_rank(k: int, n: int, rng) -> int:
    """Rank at truncation level 2n+k+2, above the levels 2n+k and 2n+k+1 at
    which genpi's stopping rule first compares."""
    alg = Exterior(2 * n + k + 2)
    coeffs = np.array([alg.word_vector(w) for w in alg.coefficient_words(k)])
    return stable_rank(alg, coeffs, n, rng)[0]


def oracles(workload: str, seed: int, generators: dict | None = None) -> dict:
    """Oracle values of one workload; verify needs the generating sets the
    program is given, as {"ut2full": [...], "ut2D": [...]}."""
    rng = random.Random(seed)
    if workload == "codim":
        c4, rows4 = ut2_rank(UT2D, 4, rng)
        return {
            "q1_closed_form": 2 ** (6 - 1) * (6 - 2) + 2,
            "q1_rank": ut2_rank(UT2F, 6, rng)[0],
            "q2_rank": ut2_rank(UT2D, 5, rng)[0],
            "q3_codim": c4,
            "q3_eval": rows4.tolist(),
        }
    if workload == "grassmann":
        return {f"q{i + 1}_rank": grassmann_rank(k, n, rng)
                for i, (k, n) in enumerate(GRASSMANN_QUERIES)}
    if workload == "verify":
        alg = UT2()
        witness = np.array([[UT2.ELEMENTS[e]] for e in ("e11", "e12", "e22")], dtype=np.int64)
        target = eval_poly("[x1,x2]*x3", alg, UT2FULL, witness)
        return {
            "ut2full_generators_vanish": all(vanishes(g, alg, UT2FULL, rng)
                                             for g in generators["ut2full"]),
            "ut2D_generators_vanish": all(vanishes(g, alg, UT2D, rng)
                                          for g in generators["ut2D"]),
            "q3_witness_value": target[0].tolist(),
        }
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    gens = json.loads(sys.argv[3]) if len(sys.argv) > 3 else None
    print(json.dumps(oracles(sys.argv[1], int(sys.argv[2]), gens)))
