"""Structure theory: Jacobson radical, Wedderburn-Malcev decomposition,
simple blocks, the block-linking PI exponent, and multiplier invariance.

The radical comes from the trace form of the left regular representation
on the unital hull (valid in characteristic zero) and is verified to be a
nilpotent ideal.  The semisimple complement is built by lifting a linear
section of A -> A/J to an algebra section, correcting one radical layer
J^m/J^(m+1) at a time by solving the linear cocycle equation; each layer
is a square-zero extension step so the bimodule action is well defined.
Blocks split along the primitive idempotents of the center, which must
have rational eigenvalues (split case) or NotSplit is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .algebras import (
    StructureAlgebra,
    center_subspace,
    quotient_algebra,
    subalgebra_presentation,
    subspace_product,
)
from .errors import InternalError, NotSplit
from .linalg import RatMatrix, Subspace, solve_right
from .multipliers import MultiplierAlgebra, multiplier_algebra

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class WMDecomposition:
    radical: Subspace
    semisimple_complement: Subspace
    blocks: list
    section: RatMatrix | None = None  # algebra section A/J -> A (columns)
    quotient: StructureAlgebra | None = None


def _unital_hull(A: StructureAlgebra):
    """F + A with adjoined unit as coordinate 0."""
    d = A.dim
    table = {}
    table[(0, 0)] = [(0, _ONE)]
    for i in range(d):
        table[(0, i + 1)] = [(i + 1, _ONE)]
        table[(i + 1, 0)] = [(i + 1, _ONE)]
    for i in range(d):
        for j in range(d):
            terms = [(k + 1, v) for k, v in A.product_basis(i, j)]
            if terms:
                table[(i + 1, j + 1)] = terms
    labels = ["u"] + list(A.labels)
    unit = [_ONE] + [_ZERO] * d
    return StructureAlgebra(d + 1, labels, table, unit=unit, validate=False)


def jacobson_radical(A: StructureAlgebra) -> Subspace:
    """J(A) = radical of the trace form tr(L_x L_y) on the unital hull,
    intersected back with A; verified nilpotent and a two-sided ideal."""
    if A.dim == 0:
        return Subspace.zero(0)
    hull_needed = A.unit is None
    H = _unital_hull(A) if hull_needed else A
    d = H.dim
    Ls = [L for L, _ in H.basis_operators()]
    gram = []
    for i in range(d):
        row = []
        for j in range(d):
            t = _ZERO
            for r, rr in enumerate(Ls[i].iter_rows()):
                for m, v in rr.items():
                    w = Ls[j].entry(m, r)
                    if w:
                        t += v * w
            row.append(t)
        gram.append(row)
    rad_h = RatMatrix.from_rows(gram).right_kernel_basis()
    if hull_needed:
        # restrict to A: hull vectors with zero unit coordinate
        amb = Subspace.from_vectors(
            d, [[_ONE if r == i + 1 else _ZERO for r in range(d)] for i in range(A.dim)]
        )
        rad_h = rad_h.intersection(amb)
        vecs = [list(v)[1:] for v in rad_h.basis]
        J = Subspace.from_vectors(A.dim, vecs)
    else:
        J = rad_h
    _verify_radical(A, J)
    return J


def _verify_radical(A: StructureAlgebra, J: Subspace):
    power = J
    for _ in range(A.dim + 1):
        if power.dim == 0:
            break
        power = subspace_product(A, power, J)
    else:
        raise InternalError("computed radical is not nilpotent")
    if power.dim != 0:
        raise InternalError("computed radical is not nilpotent")
    basis = J.basis
    for i in range(A.dim):
        e = A._unit_vec(i)
        for v in basis:
            if not J.contains_vector(A.multiply_coords(e, list(v))):
                raise InternalError("computed radical is not a left ideal")
            if not J.contains_vector(A.multiply_coords(list(v), e)):
                raise InternalError("computed radical is not a right ideal")


def _radical_powers(A: StructureAlgebra, J: Subspace):
    powers = [None, J]
    while powers[-1].dim > 0:
        powers.append(subspace_product(A, powers[-1], J))
    return powers  # powers[m] = J^m; last has dim 0


def _mod_layer_coords(layer_basis, next_power: Subspace, vec):
    """Coordinates of vec in the layer spanned by layer_basis modulo
    next_power; the reducer assumes [layer_basis | next_power basis] is
    independent (true for J^m representatives over J^(m+1))."""
    cols = [list(b) for b in layer_basis] + [list(b) for b in next_power.basis]
    m = RatMatrix.from_rows([[c[r] for c in cols] for r in range(len(vec))])
    sol = solve_right(m, vec)
    if sol is None:
        raise InternalError("vector not in radical layer span")
    return sol[: len(layer_basis)]


def wedderburn_malcev(A: StructureAlgebra) -> WMDecomposition:
    """A = B + J with B a maximal semisimple subalgebra (split case)."""
    J = jacobson_radical(A)
    if A.unit is None:
        return _wm_nonunital(A, J)
    quot, proj, lift = quotient_algebra(A, J)
    # s: quotient -> A, columns over quotient basis; starts as linear section
    s_cols = [[lift.entry(r, q) for r in range(A.dim)] for q in range(quot.dim)]
    powers = _radical_powers(A, J)
    nil = len(powers) - 1  # J^nil = 0
    for m in range(1, nil):
        s_cols = _correct_section_layer(A, quot, s_cols, powers[m], powers[m + 1])
    _check_section(A, quot, s_cols)
    B = Subspace.from_vectors(A.dim, s_cols)
    section = RatMatrix.from_rows([[s_cols[q][r] for q in range(quot.dim)] for r in range(A.dim)])
    blocks = _split_blocks(A, quot, s_cols)
    return WMDecomposition(J, B, blocks, section=section, quotient=quot)


def _correct_section_layer(A, quot, s_cols, Jm: Subspace, Jm1: Subspace):
    """One layer step: assuming s is multiplicative modulo J^m, return a
    corrected section multiplicative modulo J^(m+1)."""
    qd = quot.dim
    # independent representatives of J^m over J^(m+1)
    layer = []
    probe = list(Jm1.basis)
    for v in Jm.basis:
        cand = Subspace.from_vectors(A.dim, probe + [list(v)])
        if cand.dim > len(probe):
            layer.append(list(v))
            probe.append(list(v))
    ld = len(layer)
    if ld == 0:
        return s_cols
    # unknowns t[q][l]: correction t(q-th quotient basis vector) in layer coords
    nunk = qd * ld
    rows = []
    rhs = []
    # layer coordinates of s(q) * layer[l2] and layer[l2] * s(q)
    left = [[_mod_layer_coords(layer, Jm1, A.multiply_coords(sq, v)) for v in layer] for sq in s_cols]
    right = [[_mod_layer_coords(layer, Jm1, A.multiply_coords(v, sq)) for v in layer] for sq in s_cols]
    for a in range(qd):
        for b in range(qd):
            sa, sb = s_cols[a], s_cols[b]
            phi = [x - y for x, y in zip(A.multiply_coords(sa, sb), _s_of_product(A, quot, s_cols, a, b))]
            phi_layer = _mod_layer_coords(layer, Jm1, phi)
            # equation: phi + s(a) t(b) + t(a) s(b) - t(ab) == 0 in the layer
            ab = quot.multiply_coords(quot._unit_vec(a), quot._unit_vec(b))
            for lr in range(ld):
                row = [_ZERO] * nunk
                for l2 in range(ld):
                    cc = left[a][l2][lr]
                    if cc:
                        row[b * ld + l2] += cc
                    cc = right[b][l2][lr]
                    if cc:
                        row[a * ld + l2] += cc
                for c, cc in enumerate(ab):
                    if cc:
                        row[c * ld + lr] -= cc
                rows.append(row)
                rhs.append(-phi_layer[lr])
    sol = solve_right(RatMatrix.from_rows(rows), rhs)
    if sol is None:
        raise InternalError("radical layer correction has no solution")
    new_cols = []
    for q in range(qd):
        col = list(s_cols[q])
        for l2 in range(ld):
            c = sol[q * ld + l2]
            if c:
                for r in range(A.dim):
                    col[r] += c * layer[l2][r]
        new_cols.append(col)
    return new_cols


def _s_of_product(A, quot, s_cols, a, b):
    out = [_ZERO] * A.dim
    for c, cc in enumerate(quot.multiply_coords(quot._unit_vec(a), quot._unit_vec(b))):
        if cc:
            for r in range(A.dim):
                out[r] += cc * s_cols[c][r]
    return out


def _check_section(A, quot, s_cols):
    for a in range(quot.dim):
        for b in range(quot.dim):
            lhs = A.multiply_coords(s_cols[a], s_cols[b])
            if lhs != _s_of_product(A, quot, s_cols, a, b):
                raise InternalError("lifted section is not multiplicative")


def _divisors(n: int) -> list:
    """The positive divisors of n >= 1, ascending: each d up to isqrt(n)
    pairs with n // d."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_roots(poly):
    """All rational roots of an integer polynomial (ascending coeffs): the
    candidates p/q, p dividing the constant and q the leading coefficient."""
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    if not poly:
        return []
    shift = 0
    while poly[shift] == 0:
        shift += 1
    roots = [Fraction(0)] * (1 if shift else 0)
    poly = poly[shift:]
    a0, an = abs(poly[0]), abs(poly[-1])
    ps, qs = _divisors(a0), _divisors(an)
    seen = set(roots)
    for p in ps:
        for q in qs:
            for sgn in (1, -1):
                r = Fraction(sgn * p, q)
                if r in seen:
                    continue
                if sum(c * r ** k for k, c in enumerate(poly)) == 0:
                    seen.add(r)
                    roots.append(r)
    return roots


def _min_poly(op: RatMatrix):
    """Monic minimal polynomial coefficients (ascending) via first linear
    dependence among powers, returned as integers."""
    power = RatMatrix.identity(op.nrows)
    rows = [power.flatten()]
    for _ in range(op.nrows):
        power = power.matmul(op)
        rows.append(power.flatten())
        ker = RatMatrix.from_rows(rows).left_kernel_basis()
        if ker.dim > 0:
            combo = list(ker.basis[0])
            denom_lcm = 1
            for v in combo:
                denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
            ints = [int(v * denom_lcm) for v in combo]
            return ints
    raise InternalError("minimal polynomial not found")


def _split_blocks(A, quot, s_cols):
    """Blocks of the complement: split the center of A/J by primitive
    idempotents with rational spectra, then push through the section."""
    if quot.dim == 0:
        return []
    Z = center_subspace(quot)
    Zalg, Zbasis = subalgebra_presentation(quot, [quot.element(list(v)) for v in Z.basis])
    if Zalg.unit is None:
        raise InternalError("center of a unital quotient lost its unit")
    # components as idempotents of the center, starting from 1
    idems = [list(Zalg.unit)]
    for zi in range(Zalg.dim):
        new = []
        for e in idems:
            # multiplication by z restricted to the ideal e*Z
            ideal = [Zalg.multiply_coords(e, Zalg._unit_vec(j)) for j in range(Zalg.dim)]
            sub = Subspace.from_vectors(Zalg.dim, ideal)
            if sub.dim <= 1:
                new.append(e)
                continue
            basis = [list(v) for v in sub.basis]
            bm = RatMatrix.from_rows([[b[r] for b in basis] for r in range(Zalg.dim)])
            op_cols = []
            for b in basis:
                img = Zalg.multiply_coords(Zalg._unit_vec(zi), b)
                sol = solve_right(bm, img)
                if sol is None:
                    raise InternalError("center not closed under itself")
                op_cols.append(sol)
            op = RatMatrix.from_rows([[op_cols[j][r] for j in range(len(basis))] for r in range(len(basis))])
            mp = _min_poly(op)
            roots = _rational_roots(mp)
            if len(roots) != len(mp) - 1:
                raise NotSplit(
                    "center element has an irrational or repeated spectrum; "
                    "the quotient is not split over Q"
                )
            if len(roots) == 1:
                new.append(e)
                continue
            for lam in roots:
                # Lagrange projector Prod_{mu != lam} (op - mu) / (lam - mu), applied to e
                vec = solve_right(bm, e)
                if vec is None:
                    raise InternalError("idempotent left its own ideal")
                for mu in roots:
                    if mu == lam:
                        continue
                    vec = [x - mu * y for x, y in zip(op.matvec(vec), vec)]
                    vec = [x / (lam - mu) for x in vec]
                ecand = [sum(basis[j][r] * vec[j] for j in range(len(basis))) for r in range(Zalg.dim)]
                if any(x != 0 for x in ecand):
                    new.append(ecand)
        idems = new
    # sanity: idempotent, orthogonal, summing to 1
    total = [_ZERO] * Zalg.dim
    for e in idems:
        if Zalg.multiply_coords(e, e) != e:
            raise InternalError("central idempotent lifting failed")
        for r in range(Zalg.dim):
            total[r] += e[r]
    if total != list(Zalg.unit):
        raise InternalError("central idempotents do not sum to 1")
    blocks = []
    for e in idems:
        # e in quotient coordinates
        eq = Zbasis.matvec(e)
        vecs = []
        for j in range(quot.dim):
            v = quot.multiply_coords(eq, quot._unit_vec(j))
            # push through the section to A coordinates
            vecs.append(_apply_section(A, s_cols, v))
        blocks.append(Subspace.from_vectors(A.dim, vecs))
    blocks.sort(key=lambda b: b.basis)
    return blocks


def _apply_section(A, s_cols, qvec):
    out = [_ZERO] * A.dim
    for q, c in enumerate(qvec):
        if c:
            for r in range(A.dim):
                out[r] += c * s_cols[q][r]
    return out


def _wm_nonunital(A: StructureAlgebra, J: Subspace) -> WMDecomposition:
    """Decompose via the unital hull: B = (hull complement) meet A; every
    hull block is either inside A or meets it trivially."""
    from .algebras import _find_unit  # local: avoid import cycle at module load

    H = _unital_hull(A)
    wmh = wedderburn_malcev(H)
    amb = Subspace.from_vectors(
        H.dim, [[_ONE if r == i + 1 else _ZERO for r in range(H.dim)] for i in range(A.dim)]
    )
    Bh = wmh.semisimple_complement.intersection(amb)
    B = Subspace.from_vectors(A.dim, [list(v)[1:] for v in Bh.basis])
    blocks = []
    for blk in wmh.blocks:
        if amb.contains(blk):
            blocks.append(Subspace.from_vectors(A.dim, [list(v)[1:] for v in blk.basis]))
    if sum(b.dim for b in blocks) != B.dim:
        raise InternalError("hull blocks do not assemble the complement")
    return WMDecomposition(J, B, blocks)


def pi_exponent(A: StructureAlgebra) -> int:
    """Largest total dimension of distinct blocks linked by an alternating
    block/radical product chain that stays nonzero."""
    wm = wedderburn_malcev(A)
    J, blocks = wm.radical, wm.blocks
    best = 0

    def extend(used, last_space, total):
        nonlocal best
        best = max(best, total)
        for i, blk in enumerate(blocks):
            if i in used:
                continue
            step = subspace_product(A, subspace_product(A, last_space, J), blk)
            if step.dim > 0:
                extend(used | {i}, step, total + blk.dim)

    for i, blk in enumerate(blocks):
        extend({i}, blk, blk.dim)
    return best


def multiplier_radical_invariance(A: StructureAlgebra, MA: MultiplierAlgebra | None = None) -> bool:
    """R(J), L(J) inside J for every multiplier, and R(B_i), L(B_i) inside
    B_i + J for every block of a split complement."""
    if MA is None:
        MA = multiplier_algebra(A)
    J = jacobson_radical(A)
    basis = J.basis
    for m in MA.basis:
        for v in basis:
            if not J.contains_vector(m.R.matvec(list(v))):
                return False
            if not J.contains_vector(m.L.matvec(list(v))):
                return False
    try:
        wm = wedderburn_malcev(A)
    except NotSplit:
        return True  # block refinement needs a split complement
    for blk in wm.blocks:
        target, basis = blk.sum(J), blk.basis
        for m in MA.basis:
            for v in basis:
                if not target.contains_vector(m.R.matvec(list(v))):
                    return False
                if not target.contains_vector(m.L.matvec(list(v))):
                    return False
    return True
