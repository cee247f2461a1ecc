"""Multiplier algebras: pairs (R, L) of right/left multiplication-like
operators, the canonical embedding of an algebra into its multipliers,
the inner ideal, and permutability.

A multiplier of A is (R, L) with R(ab) = aR(b), L(ab) = L(a)b and
R(a)b = aL(b) for all a, b; the full multiplier algebra is the solution
space of this homogeneous linear system over operator pairs.  The product
composes the R components in the opposite order:
(R1, L1) * (R2, L2) = (R2 R1, L1 L2), with unit (id, id).  R and L are
RatMatrix operators on coordinate columns, d x d for an algebra of
dimension d.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebras import AlgElement, StructureAlgebra
from .errors import DimensionMismatch, InternalError
from .linalg import RatMatrix, Subspace

_ZERO = Fraction(0)

# constraint family tags used in witnesses
RIGHT_LAW = "R(ab)=aR(b)"
LEFT_LAW = "L(ab)=L(a)b"
LINK_LAW = "R(a)b=aL(b)"
LAWS = (RIGHT_LAW, LEFT_LAW, LINK_LAW)


class Multiplier:
    """An operator pair (R, L) on a fixed algebra."""

    __slots__ = ("parent", "R", "L")

    def __init__(self, parent: StructureAlgebra, R: RatMatrix, L: RatMatrix):
        if any((M.nrows, M.ncols) != (parent.dim, parent.dim) for M in (R, L)):
            raise DimensionMismatch("operator size does not match algebra dimension")
        self.parent = parent
        self.R = R
        self.L = L

    @classmethod
    def identity(cls, parent) -> "Multiplier":
        return cls(parent, RatMatrix.identity(parent.dim), RatMatrix.identity(parent.dim))

    @classmethod
    def zero(cls, parent) -> "Multiplier":
        return cls(parent, RatMatrix.zeros(parent.dim, parent.dim), RatMatrix.zeros(parent.dim, parent.dim))

    @classmethod
    def inner(cls, a: AlgElement) -> "Multiplier":
        """(R_a, L_a): right and left multiplication by a."""
        A = a.parent
        return cls(A, A.right_mult_matrix(a.coords), A.left_mult_matrix(a.coords))

    def mul(self, other: "Multiplier") -> "Multiplier":
        """(R1,L1)(R2,L2) = (R2 R1, L1 L2): R composes oppositely."""
        return Multiplier(self.parent, other.R.matmul(self.R), self.L.matmul(other.L))

    def add(self, other: "Multiplier") -> "Multiplier":
        return Multiplier(self.parent, self.R.add(other.R), self.L.add(other.L))

    def scale(self, c) -> "Multiplier":
        return Multiplier(self.parent, self.R.scale(c), self.L.scale(c))

    def flatten(self):
        """Coordinates in operator-pair space: R row-major, then L."""
        return self.R.flatten() + self.L.flatten()

    def is_zero(self):
        return self.R.is_zero() and self.L.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, Multiplier)
            and self.parent is other.parent
            and self.R == other.R
            and self.L == other.L
        )

    def __repr__(self):
        return f"<multiplier pair on dim {self.parent.dim}>"


def multiplier_violation(A: StructureAlgebra, R: RatMatrix, L: RatMatrix):
    """First violated constraint as (law, i, j) in basis-label order, or
    None when (R, L) is a multiplier: the first nonzero entry of the
    constraint matrix times the coordinates of the pair, whose rows run
    over (i, j, law, r) (_constraint_matrix)."""
    d, v = A.dim, Multiplier(A, R, L).flatten()
    for k, row in enumerate(_constraint_matrix(A).iter_rows()):
        if sum(c * v[m] for m, c in row.items()):
            return LAWS[k // d % 3], k // (3 * d * d), k // (3 * d) % d
    return None


def is_multiplier(A: StructureAlgebra, R: RatMatrix, L: RatMatrix) -> bool:
    return multiplier_violation(A, R, L) is None


def _constraint_matrix(A: StructureAlgebra) -> RatMatrix:
    """Homogeneous system whose right kernel is the multiplier pair space.

    Unknowns: R[m,k] at m*d+k, then L[m,k] at d*d + m*d + k.  Row
    ((i * d + j) * 3 + law) * d + r is coordinate r of the law, in LAWS
    order, at the basis pair (b_i, b_j)."""
    d, dd = A.dim, A.dim * A.dim
    ops = A.basis_operators()
    rows = []
    for i, j in product(range(d), repeat=2):
        prod, Li, Rj = A.product_basis(i, j), ops[i][0], ops[j][1]
        laws = ([], [], [])
        for r in range(d):
            Lr, Rr = Li.row_dict(r).items(), Rj.row_dict(r).items()
            # R(b_i b_j) - b_i R(b_j), L(b_i b_j) - L(b_i) b_j, R(b_i) b_j - b_i L(b_j)
            terms = (
                [(r * d + k, c) for k, c in prod] + [(m * d + j, -c) for m, c in Lr],
                [(dd + r * d + k, c) for k, c in prod] + [(dd + m * d + i, -c) for m, c in Rr],
                [(m * d + i, c) for m, c in Rr] + [(dd + m * d + j, -c) for m, c in Lr],
            )
            for out, ts in zip(laws, terms):
                row: dict = {}
                for k, c in ts:
                    row[k] = row.get(k, _ZERO) + c
                out.append({k: v for k, v in row.items() if v != 0})
        rows += laws[0] + laws[1] + laws[2]
    return RatMatrix(3 * d * dd, 2 * dd, rows)


def _unflatten(A: StructureAlgebra, vec) -> Multiplier:
    d = A.dim
    R, L = ([{j: v for j, v in enumerate(vec[h + m * d : h + m * d + d]) if v != 0} for m in range(d)]
            for h in (0, d * d))
    return Multiplier(A, RatMatrix(d, d, R), RatMatrix(d, d, L))


class MultiplierAlgebra:
    """The full multiplier algebra M(A) with a canonical basis.

    The basis is the reduced-echelon basis of the constraint solution space
    in operator-pair coordinates, so it is deterministic; the product table
    is verified to close exactly over the basis.
    """

    def __init__(self, parent: StructureAlgebra):
        self.parent = parent
        sols = _constraint_matrix(parent).right_kernel_basis()
        self.basis = [_unflatten(parent, list(v)) for v in sols.basis]
        self.pair_space = sols  # Subspace of Q^(2 d^2)
        self.unit_coords = self.coordinates(Multiplier.identity(parent))
        if self.unit_coords is None:
            raise InternalError("identity pair is not a multiplier")
        self.product_table = {}
        for i, mi in enumerate(self.basis):
            for j, mj in enumerate(self.basis):
                coords = self.coordinates(mi.mul(mj))
                if coords is None:
                    raise InternalError(
                        f"multiplier product of basis pairs {i},{j} left the solution space"
                    )
                self.product_table[(i, j)] = coords

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, m: Multiplier):
        """Coordinates of a pair in the canonical basis, or None."""
        return self.pair_space.coordinates(m.flatten())

    def contains(self, m: Multiplier) -> bool:
        return self.coordinates(m) is not None

    def as_structure_algebra(self) -> StructureAlgebra:
        table = {}
        for (i, j), coords in self.product_table.items():
            terms = [(k, c) for k, c in enumerate(coords) if c != 0]
            if terms:
                table[(i, j)] = terms
        return StructureAlgebra(
            self.dim,
            [f"m{i}" for i in range(self.dim)],
            table,
            unit=self.unit_coords,
            name=f"M({self.parent.name or 'A'})",
        )


def multiplier_algebra(A: StructureAlgebra) -> MultiplierAlgebra:
    return MultiplierAlgebra(A)


def inner_multiplier_map(A: StructureAlgebra, MA: MultiplierAlgebra | None = None):
    """The canonical map m -> (R_m, L_m) into M(A).

    Returns (matrix, kernel, injective, surjective): matrix columns are the
    images of the basis of A in the canonical M(A) basis, kernel is
    {m : R_m = L_m = 0} as a subspace of A.
    """
    if MA is None:
        MA = multiplier_algebra(A)
    cols = []
    for i in range(A.dim):
        m = Multiplier.inner(A.basis_element(i))
        coords = MA.coordinates(m)
        if coords is None:
            raise InternalError("inner pair is not in the multiplier algebra")
        cols.append(coords)
    matrix = RatMatrix.from_rows(
        [[cols[j][r] for j in range(A.dim)] for r in range(MA.dim)]
    ) if A.dim else RatMatrix.zeros(MA.dim, 0)
    kernel = matrix.right_kernel_basis() if A.dim else Subspace.zero(0)
    rank = matrix.rank()
    return matrix, kernel, kernel.dim == 0, rank == MA.dim


def inner_ideal_check(A: StructureAlgebra, MA: MultiplierAlgebra | None = None):
    """True iff the image of the canonical map is a two-sided ideal of
    M(A); returns (bool, witness) with witness (basis_index, alg_index,
    side) on failure."""
    if MA is None:
        MA = multiplier_algebra(A)
    inners = [Multiplier.inner(A.basis_element(i)) for i in range(A.dim)]
    inner = Subspace.from_vectors(2 * A.dim * A.dim, [m.flatten() for m in inners])
    for bi, psi in enumerate(MA.basis):
        for ai, mu in enumerate(inners):
            for side, prod in (("left", psi.mul(mu)), ("right", mu.mul(psi))):
                if not inner.contains_vector(prod.flatten()):
                    return False, (bi, ai, side)
    return True, None


def permutability_check(A: StructureAlgebra, MA: MultiplierAlgebra | None = None):
    """True iff R' L = L R' for all basis pairs (R,L), (R',L') of M(A);
    witness is the first failing basis index pair."""
    if MA is None:
        MA = multiplier_algebra(A)
    for i, mi in enumerate(MA.basis):
        for j, mj in enumerate(MA.basis):
            if mj.R.matmul(mi.L) != mi.L.matmul(mj.R):
                return False, (i, j)
    return True, None
