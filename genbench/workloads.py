"""The benchmark's workloads: their inputs, their three queries, and the
checks every answer must pass against the oracles of oracle.py.

Each workload is asked q1, q2, q3 in this order, once per round:

- codim: evaluation-matrix questions on ut(2).  q1 is codimension(ut2F, 6)
  in the preset basis, where the tuple remap of the row generator
  dominates; q2 is codimension(ut2D, 5) in a dense basis, where the
  Fraction recursion of the master rows dominates; q3 is
  identity_kernel_basis(ut2D, 4), where Subspace.from_vectors dominates.
- grassmann: grassmann_codim_stabilized at (k, n) = (2, 1), (1, 2), (1, 3).
  The first two validate multiplier pairs on truncations of dimension 16
  and 32; the third is above dimension 32 and skips that validation.
- verify: the consequence-span engine.  q1 and q2 verify the published
  generating sets of ut2full (n = 3) and ut2D (n = 4) and stop early once
  the span reaches the target rank; q3 asks for a polynomial that is not
  an identity, so the enumeration runs to exhaustion.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import numpy as np
from genpi.actions import load_action, preset_action
from genpi.codim import (
    codimension,
    grassmann_codim_stabilized,
    identity_kernel_basis,
    in_consequence_span,
    preset_generators,
    verify_generating_set,
)

import oracle

WORKLOADS = ("codim", "grassmann", "verify")

# The dense ut(2) basis of codim q2 comes from this fixed seed, so every run
# times the same action.  Its cost depends strongly on the basis: of basis
# seeds 0-39, 27 stay on the numpy fast path and take 3.5-9.2 s; the other 13
# (seed 0 among them) overflow FastIntRowSpace and rerun everything through
# IntRowEchelon, 130 s for seed 0, longer than a run may last.  Seed 1 is the
# first basis that stays on the fast path.
BASIS_SEED = 1
DENSE_PATH = os.path.join("genbench", "out", "ut2D_dense.json")


# -- the dense basis of ut2D ------------------------------------------------------


def _ut2_product(u, v):
    """Product in ut(2) on coordinates (e11, e22, e12), genpi's basis order."""
    return (u[0] * v[0], u[1] * v[1], u[0] * v[2] + u[2] * v[1])


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _inverse3(m):
    det = _det3(m)
    cof = [[(m[(r + 1) % 3][(c + 1) % 3] * m[(r + 2) % 3][(c + 2) % 3]
             - m[(r + 1) % 3][(c + 2) % 3] * m[(r + 2) % 3][(c + 1) % 3])
            for c in range(3)] for r in range(3)]
    return [[Fraction(cof[c][r], det) for c in range(3)] for r in range(3)]


def _apply(m, v):
    return tuple(sum(m[r][c] * v[c] for c in range(3)) for r in range(3))


def dense_basis(seed: int):
    """(change of basis, structure constants) of ut(2) in a random
    unimodular basis with entries in [-3, 3] and all 27 structure constants
    nonzero.  Column i of the change of basis is f_i in (e11, e22, e12)
    coordinates; consts[i][j] is f_i * f_j in f coordinates."""
    rng = random.Random(seed)
    while True:
        change = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if _det3(change) not in (1, -1):
            continue
        inv = _inverse3(change)
        f = [tuple(change[r][i] for r in range(3)) for i in range(3)]
        consts = [[_apply(inv, _ut2_product(f[i], f[j])) for j in range(3)] for i in range(3)]
        if all(c != 0 for row in consts for prod in row for c in prod):
            return change, inv, consts


def dense_ut2d_action(seed: int) -> dict:
    """ut2D (W spanned by 1 and e22) on ut(2) in the dense basis, as an
    action JSON in genpi's subalgebra mode."""
    _, inv, consts = dense_basis(seed)
    unit = _apply(inv, (1, 1, 0))
    e22 = _apply(inv, (0, 1, 0))
    return {
        "algebra": {
            "dim": 3,
            "labels": ["f1", "f2", "f3"],
            "unit": [str(x) for x in unit],
            "sc": [[i, j, k, str(consts[i][j][k])]
                   for i in range(3) for j in range(3) for k in range(3)],
        },
        "mode": "subalgebra",
        "basis": [[str(x) for x in unit], [str(x) for x in e22]],
        "kernel_tail": True,
    }


def describe_dense_basis(seed: int) -> str:
    change, _, consts = dense_basis(seed)
    largest = max(abs(c) for row in consts for prod in row for c in prod)
    return (f"dense ut2D basis (seed {seed}): f_i = columns of {change}; "
            f"largest |structure constant| {largest}")


def write_dense_action(root: str):
    path = os.path.join(root, DENSE_PATH)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dense_ut2d_action(BASIS_SEED), fh)


# -- inputs and queries ---------------------------------------------------------------


def load(workload: str, root: str) -> dict:
    """The workload's inputs, as a user script would load them."""
    if workload == "codim":
        return {
            "ut2F": preset_action("ut2F"),
            "ut2D": preset_action("ut2D"),
            "ut2D_dense": load_action(os.path.join(root, DENSE_PATH)),
        }
    if workload == "grassmann":
        return {}
    if workload == "verify":
        return {
            "ut2full": preset_action("ut2full"),
            "ut2D": preset_action("ut2D"),
            "gens_ut2full": preset_generators("ut2full"),
            "gens_ut2D": preset_generators("ut2D"),
        }
    raise ValueError(f"unknown workload {workload!r}")


def queries(workload: str, inp: dict):
    """[(name, zero-argument call)] in round order."""
    if workload == "codim":
        return [
            ("q1", lambda: codimension(inp["ut2F"], 6)),
            ("q2", lambda: codimension(inp["ut2D_dense"], 5)),
            ("q3", lambda: identity_kernel_basis(inp["ut2D"], 4)),
        ]
    if workload == "grassmann":
        return [(f"q{i + 1}", lambda k=k, n=n: grassmann_codim_stabilized(k, n))
                for i, (k, n) in enumerate(oracle.GRASSMANN_QUERIES)]
    if workload == "verify":
        full, gens = inp["ut2full"], inp["gens_ut2full"]
        return [
            ("q1", lambda: verify_generating_set(gens, full, 3)),
            ("q2", lambda: verify_generating_set(inp["gens_ut2D"], inp["ut2D"], 4)),
            ("q3", lambda: in_consequence_span("[x1,x2]*x3", gens, full, 3)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- checks -----------------------------------------------------------------------------


class Checker:
    """Compares answers with oracle values computed before the timed loop."""

    def __init__(self, workload: str, inp: dict, orc: dict):
        self.workload = workload
        self.orc = orc
        if workload == "codim":
            # the answer cannot depend on the basis
            self.preset_c5 = codimension(inp["ut2D"], 5)
            self.kernel_eval = np.array(orc["q3_eval"], dtype=np.int64)

    def problems(self, query: str, answer) -> list[str]:
        o = self.orc
        w = self.workload
        if w == "codim" and query == "q1":
            want = {o["q1_closed_form"], o["q1_rank"]}
            return [] if want == {answer} else [f"{answer} vs closed form/evaluator {want}"]
        if w == "codim" and query == "q2":
            want = {self.preset_c5, o["q2_rank"]}
            return [] if want == {answer} else [f"{answer} vs preset/evaluator {want}"]
        if w == "codim" and query == "q3":
            return self._kernel_problems(answer)
        if w == "grassmann":
            want = o[f"{query}_rank"]
            return [] if answer == want else [f"{answer} vs evaluator rank {want}"]
        if w == "verify":
            gens_ok = o["ut2D_generators_vanish" if query == "q2" else "ut2full_generators_vanish"]
            want = query != "q3"
            out = [] if answer is want else [f"{answer} vs expected {want}"]
            if not gens_ok:
                out.append("a published generator does not vanish under the evaluator")
            if query == "q3" and not any(o["q3_witness_value"]):
                out.append("[x1,x2]*x3 vanishes at (e11, e12, e22)")
            return out
        raise ValueError(f"no check for {w} {query}")

    def _kernel_problems(self, sub) -> list[str]:
        rows = 24 * 2 ** 5  # 4! * s^(n+1) monomials for s = 2, n = 4
        out = []
        if sub.ambient_dim != rows:
            return [f"ambient dimension {sub.ambient_dim} vs {rows}"]
        if sub.dim + self.orc["q3_codim"] != rows:
            out.append(f"dim {sub.dim} + c_4 {self.orc['q3_codim']} != {rows}")
        V = np.array([[oracle.to_residue(x) if x else 0 for x in vec]
                      for vec in sub.basis], dtype=np.int64).reshape(-1, rows)
        if oracle.matmul_mod(V, self.kernel_eval).any():
            out.append("a kernel vector does not vanish under the evaluator")
        if oracle.rank_mod_p(V) != sub.dim:
            out.append("kernel basis is dependent modulo P")
        return out
