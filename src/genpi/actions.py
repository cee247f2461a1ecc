"""Coefficient-algebra actions on an algebra through multiplier pairs.

An action of a unital coefficient algebra W on A assigns to each listed
basis element w_i a multiplier pair (rho(w_i), lambda(w_i)) such that the
assignment is an algebra homomorphism into the multiplier algebra (with
the opposite composition in the rho component), the two components
permute, and the unit of W acts as (id, id).  The kernel_tail flag models
a non-finitely-generated W acting through a finite image: basis elements
beyond the listed ones act as zero, so monomials containing them vanish
identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from ._fastrank import FastIntRowSpace
from .algebras import (
    AlgElement,
    StructureAlgebra,
    _grassmann_words,
    _parse_name,
    _word_mask,
    builtin,
    grassmann_algebra,
    load_algebra,
    operator_closure,
    quotient_algebra,
    subalgebra_presentation,
)
from .errors import (
    BasisMismatch,
    DimensionMismatch,
    InternalError,
    NotHomomorphism,
    NotMultiplier,
    NotPermutable,
    NotSplit,
    UnitMismatch,
    UnsupportedName,
)
from .linalg import RatMatrix, Subspace, int_rows, rat, solve_right
from .multipliers import Multiplier, multiplier_violation

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Action:
    """A validated action of W on A given by one multiplier pair per
    listed basis element of W.  An action is immutable once built: its
    pairs are a tuple, and its W, A and pairs are not changed afterwards,
    as the codimension engine keeps an integer form of each action for
    the action's lifetime (codim._of_action)."""

    def __init__(self, W: StructureAlgebra, A: StructureAlgebra, pairs, kernel_tail=False,
                 *, name=None, validate=True):
        if len(pairs) != W.dim:
            raise DimensionMismatch("one operator pair per W basis element required")
        self.W = W
        self.A = A
        self.pairs = tuple(pairs)
        self.kernel_tail = bool(kernel_tail)
        self.name = name
        if validate:
            self.validate()

    @property
    def s(self) -> int:
        """Number of listed coefficient basis elements."""
        return self.W.dim

    def validate(self):
        for i, m in enumerate(self.pairs):
            w = multiplier_violation(self.A, m.R, m.L)
            if w is not None:
                raise NotMultiplier(i, w)
        for i in range(self.W.dim):
            for j in range(self.W.dim):
                prod = _combination(self.A, self.pairs, self.W.product_basis(i, j))
                if self.pairs[i].mul(self.pairs[j]) != prod:
                    raise NotHomomorphism(i, j)
        for i in range(self.W.dim):
            for j in range(self.W.dim):
                if self.pairs[j].R.matmul(self.pairs[i].L) != self.pairs[i].L.matmul(self.pairs[j].R):
                    raise NotPermutable(i, j)
        return self._check_unit()

    def _check_unit(self):
        if self.W.unit is not None:
            if _combination(self.A, self.pairs, enumerate(self.W.unit)) != Multiplier.identity(self.A):
                raise UnitMismatch("unit of W does not act as the identity pair")
        return self

    def __repr__(self):
        nm = self.name or "action"
        return f"<{nm}: W dim {self.W.dim} on A dim {self.A.dim}>"

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "algebra": self.A.name or self.A.to_dict(),
            "W": self.W.name or self.W.to_dict(),
            "mode": "pairs",
            "pairs": [
                {
                    "R": [[str(x) for x in row] for row in m.R.to_lists()],
                    "L": [[str(x) for x in row] for row in m.L.to_lists()],
                }
                for m in self.pairs
            ],
            "kernel_tail": self.kernel_tail,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def _combination(A: StructureAlgebra, pairs, terms) -> Multiplier:
    """The sum of c * pairs[k] over the (k, c) of terms."""
    out = Multiplier.zero(A)
    for k, c in terms:
        if c:
            out = out.add(pairs[k].scale(c))
    return out


def make_action(W, A, pairs, kernel_tail=False, name=None) -> Action:
    """Validate and wrap an explicit pair list as an action."""
    ms = []
    for p in pairs:
        if isinstance(p, Multiplier):
            ms.append(p)
        else:
            R, L = (M if isinstance(M, RatMatrix) else RatMatrix.from_rows(M) for M in p)
            ms.append(Multiplier(A, R, L))
    return Action(W, A, ms, kernel_tail=kernel_tail, name=name)


def action_from_subalgebra(A: StructureAlgebra, basis, labels=None, kernel_tail=False,
                           name=None) -> Action:
    """Action of the abstract algebra on the given closed subalgebra basis
    of A, acting by left and right multiplication.

    Only the unit is checked, at every size: W's unit must act as the
    identity pair.  The other pair checks of Action.validate hold by
    associativity of A alone, which StructureAlgebra has already checked:
    R_v(ab) = a R_v(b), L_v(ab) = L_v(a) b and R_v(a) b = a L_v(b) make each
    (R_v, L_v) a multiplier; v -> (R_v, L_v) is multiplicative because
    R_{uv} = R_v R_u and L_{uv} = L_u L_v; and R_u L_v = L_v R_u is
    (v x) u = v (x u).
    """
    W, _ = subalgebra_presentation(A, basis, labels=labels)
    pairs = [Multiplier.inner(v if isinstance(v, AlgElement) else A.element(v)) for v in basis]
    return Action(W, A, pairs, kernel_tail=kernel_tail, name=name,
                  validate=False)._check_unit()


@dataclass
class EffectiveAction:
    """The image of an action inside the multiplier pair space."""

    effective_basis: list          # indices of W basis elements kept
    image_algebra: StructureAlgebra
    image_pairs: list              # Multiplier per image basis element
    projection: RatMatrix          # W coordinates -> image coordinates


def effective_image(h: Action) -> EffectiveAction:
    """Present the span of the acting pairs as an abstract algebra; the
    basis is the greedy independent subset of nonzero images in listed
    order (so the unit pair stays first for unital W)."""
    d2 = 2 * h.A.dim * h.A.dim
    space = FastIntRowSpace(d2)
    keep = [i for i, m in enumerate(h.pairs) if space.add_rows(int_rows([m.flatten()], d2))]
    basis_matrix = RatMatrix.from_rows(
        [[h.pairs[i].flatten()[r] for i in keep] for r in range(d2)]
    ) if keep else RatMatrix.zeros(d2, 0)
    image_pairs = [h.pairs[i] for i in keep]
    table = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            prod = h.pairs[i].mul(h.pairs[j])
            sol = solve_right(basis_matrix, prod.flatten())
            if sol is None:
                raise InternalError("image of the action is not closed under products")
            terms = [(k, c) for k, c in enumerate(sol) if c != 0]
            if terms:
                table[(a, b)] = terms
    unit = None
    if h.W.unit is not None:
        sol = solve_right(basis_matrix, Multiplier.identity(h.A).flatten())
        if sol is None:
            raise InternalError("identity pair missing from a unital action image")
        unit = sol
    labels = [h.W.labels[i] for i in keep]
    image = StructureAlgebra(len(keep), labels, table, unit=unit,
                             name=f"image({h.name or 'action'})")
    proj_cols = []
    for i in range(h.W.dim):
        sol = solve_right(basis_matrix, h.pairs[i].flatten())
        if sol is None:
            raise InternalError("acting pair escaped its own span")
        proj_cols.append(sol)
    projection = RatMatrix.from_rows(
        [[proj_cols[i][r] for i in range(h.W.dim)] for r in range(len(keep))]
    ) if keep else RatMatrix.zeros(0, h.W.dim)
    return EffectiveAction(keep, image, image_pairs, projection)


def semisimple_part_action(h: Action):
    """Project the acting pairs onto a semisimple complement of the image.

    Returns (action, radical_in_inner_radical): the new action has the same
    W with pairs pushed through the quotient-by-radical projection of the
    image; the flag reports whether the image radical lies inside the inner
    pairs of J(A).
    """
    from .structure import jacobson_radical, wedderburn_malcev

    eff = effective_image(h)
    Wbar = eff.image_algebra
    wm = wedderburn_malcev(Wbar)  # NotSplit propagates
    # projection Wbar -> Wbar with image the complement, kernel the radical
    if wm.section is None:
        pi = RatMatrix.identity(Wbar.dim)
    else:
        _, qproj, _ = quotient_algebra(Wbar, wm.radical)
        pi = wm.section.matmul(qproj)
    new_pairs = []
    for i in range(h.W.dim):
        img = [eff.projection.entry(r, i) for r in range(Wbar.dim)]
        new_pairs.append(_combination(h.A, eff.image_pairs, enumerate(pi.matvec(img))))
    act = Action(h.W, h.A, new_pairs, kernel_tail=h.kernel_tail,
                 name=f"ss({h.name or 'action'})")
    # hypothesis: image radical inside the inner pairs of J(A)
    JA = jacobson_radical(h.A)
    inner = Subspace.from_vectors(
        2 * h.A.dim * h.A.dim, [Multiplier.inner(h.A.element(list(v))).flatten() for v in JA.basis]
    )
    holds = all(
        inner.contains_vector(_combination(h.A, eff.image_pairs, enumerate(v)).flatten()) for v in wm.radical.basis
    )
    return act, holds


def semidirect_product(h: Action):
    """Algebra on image + A with product
    (w1, a1)(w2, a2) = (w1 w2, w1 a2 + a1 w2 + a1 a2).

    Returns (algebra, maps) where maps holds the two embeddings, the
    projection onto the image, and the induced action of W.
    """
    eff = effective_image(h)
    Wb = eff.image_algebra
    k, d = Wb.dim, h.A.dim
    dim = k + d
    labels = [f"W.{lab}" for lab in Wb.labels] + [f"A.{lab}" for lab in h.A.labels]
    table = {}
    for i in range(k):
        for j in range(k):
            terms = [(t, c) for t, c in Wb.product_basis(i, j)]
            if terms:
                table[(i, j)] = terms
    for i in range(k):
        for j in range(d):
            img = eff.image_pairs[i].L.matvec(h.A._unit_vec(j))
            terms = [(k + t, c) for t, c in enumerate(img) if c != 0]
            if terms:
                table[(i, k + j)] = terms
            img = eff.image_pairs[i].R.matvec(h.A._unit_vec(j))
            terms = [(k + t, c) for t, c in enumerate(img) if c != 0]
            if terms:
                table[(k + j, i)] = terms
    for i in range(d):
        for j in range(d):
            terms = [(k + t, c) for t, c in h.A.product_basis(i, j)]
            if terms:
                table[(k + i, k + j)] = terms
    unit = None
    if Wb.unit is not None:
        unit = list(Wb.unit) + [_ZERO] * d
    sd = StructureAlgebra(dim, labels, table, unit=unit,
                          name=f"semidirect({h.name or 'action'})")
    i1 = RatMatrix.from_entries(dim, k, [(i, i, _ONE) for i in range(k)])
    i2 = RatMatrix.from_entries(dim, d, [(k + i, i, _ONE) for i in range(d)])
    pi1 = RatMatrix.from_entries(k, dim, [(i, i, _ONE) for i in range(k)])
    # induced action of the original W on the semidirect product
    ind_pairs = []
    for i in range(h.W.dim):
        img = [eff.projection.entry(r, i) for r in range(k)]
        Rr = [dict() for _ in range(dim)]
        Lr = [dict() for _ in range(dim)]
        Rw = Wb.right_mult_matrix(img)
        Lw = Wb.left_mult_matrix(img)
        for r in range(k):
            for c, v in Rw.row_dict(r).items():
                Rr[r][c] = v
            for c, v in Lw.row_dict(r).items():
                Lr[r][c] = v
        for r in range(d):
            for c, v in h.pairs[i].R.row_dict(r).items():
                Rr[k + r][k + c] = v
            for c, v in h.pairs[i].L.row_dict(r).items():
                Lr[k + r][k + c] = v
        ind_pairs.append(Multiplier(sd, RatMatrix(dim, dim, Rr), RatMatrix(dim, dim, Lr)))
    induced = Action(h.W, sd, ind_pairs, kernel_tail=h.kernel_tail,
                     name=f"induced({h.name or 'action'})")
    maps = {"i1": i1, "i2": i2, "pi1": pi1, "induced_action": induced}
    return sd, maps


def _operators(h: Action) -> list:
    """The regular operators L_i, R_i of the basis of A, then rho and
    lambda of every acting pair."""
    return [op for pair in h.A.basis_operators() for op in pair] + [op for m in h.pairs for op in (m.R, m.L)]


def w_ideal_generated(h: Action, gens) -> Subspace:
    """Closure of the span of gens under products with A basis elements
    and under all acting operators."""
    return operator_closure(h.A, gens, _operators(h))


def is_w_simple(h: Action) -> bool:
    """A squared nonzero and no proper nonzero invariant ideal.

    Split algebras are decided exactly through the structure theory: the
    radical and the block decomposition are invariant ideals, so W-simple
    is equivalent to simple.  Non-split inputs fall back to an invariant
    subspace search from eigenvector candidates (experimental).
    """
    from .structure import jacobson_radical, wedderburn_malcev

    A = h.A
    if A.dim == 0:
        return False
    squares = []
    for i in range(A.dim):
        for j in range(A.dim):
            if A.product_basis(i, j):
                squares.append(1)
    if not squares:
        return False
    try:
        wm = wedderburn_malcev(A)
    except NotSplit:
        return _w_simple_experimental(h)
    if wm.radical.dim > 0:
        return False
    if len(wm.blocks) != 1:
        return False
    # cross-check: every basis vector generates everything
    for i in range(A.dim):
        if w_ideal_generated(h, [A.basis_element(i)]).dim != A.dim:
            raise InternalError("simple algebra with a proper generated ideal")
    return True


def _w_simple_experimental(h: Action) -> bool:
    """Invariant-subspace search via rational eigenvector candidates of the
    enveloping operators; exact when it finds an invariant subspace, else a
    certificate-style check that every basis vector generates everything."""
    from .structure import _min_poly, _rational_roots

    A = h.A
    for op in _operators(h):
        for lam in _rational_roots(_min_poly(op)):
            shifted = op.add(RatMatrix.identity(A.dim).scale(-lam))
            for v in shifted.right_kernel_basis().basis:
                ideal = w_ideal_generated(h, [A.element(list(v))])
                if 0 < ideal.dim < A.dim:
                    return False
    for i in range(A.dim):
        if w_ideal_generated(h, [A.basis_element(i)]).dim != A.dim:
            return False
    return True


# -- presets -------------------------------------------------------------------


# the ut(2) presets: key -> (name, the elements of ut(2) that W lists)
_UT2_PRESETS = {
    "ut2f": ("ut2F", ("1",)),
    "ut2d": ("ut2D", ("1", "e22")),
    "ut2c": ("ut2C", ("1", "e12")),
    "ut2full": ("ut2full", ("1", "e22", "e12")),
}


def grassmann_action(k: int, m: int, full=False, name=None) -> Action:
    """The truncated exterior algebra acted on by the words over its first
    k generators (or by the whole algebra when full)."""
    if m < 0 or (not full and (k < 0 or k > m)):
        raise UnsupportedName("need 0 <= k <= M")
    A = grassmann_algebra(m, unital=True)
    limit = 1 << (m if full else k)
    keep = [i for i, w in enumerate(_grassmann_words(m, True)) if _word_mask(w) < limit]
    basis = [A.basis_element(i) for i in keep]
    labels = [A.labels[i] for i in keep]
    return action_from_subalgebra(A, basis, labels=labels, kernel_tail=True, name=name)


def preset_action(name: str) -> Action:
    """Named actions: ut2F, ut2D, ut2C, ut2full, grassmann_Ek(k,M),
    grassmann_full(M), selfaction(<algebra>)."""
    key = name.strip().lower()
    if key in _UT2_PRESETS:
        preset, listed = _UT2_PRESETS[key]
        A = builtin("ut(2)")
        basis = [A.unit_element() if e == "1" else A.basis_element(A.labels.index(e)) for e in listed]
        return action_from_subalgebra(A, basis, labels=list(listed), kernel_tail=True, name=preset)
    arity = {"grassmann_ek": 2, "grassmann_full": 1, "selfaction": "name"}
    base, args = _parse_name(name, arity, "action preset")
    if base == "grassmann_ek":
        k, m = args
        return grassmann_action(k, m, name=f"grassmann_Ek({k},{m})")
    if base == "grassmann_full":
        (m,) = args
        return grassmann_action(m, m, full=True, name=f"grassmann_full({m})")
    A = load_algebra(args)  # selfaction
    if A.unit is None:
        raise UnsupportedName("selfaction needs a unital algebra")
    return action_from_subalgebra(A, A.basis_elements(), labels=list(A.labels),
                                  name=f"selfaction({A.name})")


def load_action(spec: str) -> Action:
    """Resolve a CLI-style action reference: preset name or JSON path."""
    if spec.endswith(".json"):
        with open(spec) as fh:
            return action_from_dict(json.load(fh))
    return preset_action(spec)


def action_from_dict(data: dict) -> Action:
    A = data["algebra"]
    A = load_algebra(A) if isinstance(A, str) else StructureAlgebra.from_dict(A)
    kernel_tail = bool(data.get("kernel_tail", False))
    mode = data.get("mode", "subalgebra")
    if mode == "subalgebra":
        basis = [[rat(x) for x in row] for row in data["basis"]]
        return action_from_subalgebra(A, [A.element(b) for b in basis], kernel_tail=kernel_tail)
    if mode == "pairs":
        W = data["W"]
        W = load_algebra(W) if isinstance(W, str) else StructureAlgebra.from_dict(W)
        pairs = [Multiplier(A, RatMatrix.from_rows(p["R"]), RatMatrix.from_rows(p["L"])) for p in data["pairs"]]
        return Action(W, A, pairs, kernel_tail=kernel_tail)
    raise UnsupportedName(f"unknown action mode {mode!r}")


# -- shared coefficient presentations for variety comparisons ------------------


def shared_family_presentations(name_a: str, name_b: str):
    """Present two upper-triangular family actions over one coefficient
    algebra so their monomial spaces coincide.  Supported: any pair among
    {ut2full, ut2D, ut2F} (shared W from the full/diagonal subalgebra) and
    {ut2C, ut2F} (shared W from the radical-line subalgebra)."""
    a, b = name_a.strip().lower(), name_b.strip().lower()
    if a not in _UT2_PRESETS or b not in _UT2_PRESETS:
        raise BasisMismatch(f"no shared coefficient presentation for {name_a!r}, {name_b!r}")
    if a == b:
        h = preset_action(name_a)
        return h, h
    pair = {a, b}
    if "ut2c" in pair and pair != {"ut2c", "ut2f"}:
        raise BasisMismatch("the radical-line coefficient algebra maps onto F only")

    # W is that of the preset listing more elements; the other preset's
    # unlisted ones act as zero pairs
    base = preset_action(max(pair, key=lambda k: len(_UT2_PRESETS[k][1])))

    def over(key: str) -> Action:
        listed = _UT2_PRESETS[key][1]
        pairs = [m if e in listed else Multiplier.zero(base.A) for e, m in zip(base.W.labels, base.pairs)]
        return Action(base.W, base.A, pairs, kernel_tail=True, name=f"{key}|W={base.name}")

    return over(a), over(b)
