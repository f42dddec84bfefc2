"""One-parameter flat families of even Clifford algebras and certification
that the special fibre is a degeneration of a full matrix algebra.

A family is a symmetric matrix over Q[t] (or rational functions regular at
0).  The even-blade basis is a basis in every fibre, so specialisation is
coefficient-wise on the multiplication tensor; the witness for the
degeneration consists of generic nondegeneracy (det 2Q(t) != 0), the special
fibre tensor with its radical report, and a semisimplicity re-validation of
the generic fibre.

The radical of a finite-dimensional unital algebra over Q is computed as the
kernel of the trace form (x, y) -> Tr(L_x L_y) of the regular representation
(valid in characteristic 0), then re-certified by checking that the kernel
is a two-sided ideal and nilpotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .clifford import QuadraticSpace, specialize_space
from .liestructure import AlgebraTensor, theta_tensor
from .linalg import SpanBasis, echelon, nullspace_dense
from .rings import Poly, RatFun, czero, eval_coeff, regular_at, ring_of


class NoWitness(ArithmeticError):
    """The generic fibre is degenerate; no matrix-algebra degeneration."""


@dataclass
class QuadraticFamily:
    """Symmetric form over Q[t] or over rational functions regular at 0."""

    space: QuadraticSpace

    def __post_init__(self):
        for row in self.space.gram:
            for v in row:
                if not regular_at(v, Fraction(0)):
                    raise ValueError("family entries must be regular at t = 0")

    @property
    def m(self) -> int:
        return self.space.m

    @staticmethod
    def diagonal(entries) -> "QuadraticFamily":
        return QuadraticFamily(QuadraticSpace.diagonal(list(entries)))

    def at(self, c) -> QuadraticSpace:
        return specialize_space(self.space, c)


def specialize_tensor(T: AlgebraTensor, c) -> AlgebraTensor:
    c = Fraction(c)
    out = {}
    for key, row in T.c.items():
        newrow = {}
        for k, v in row.items():
            val = eval_coeff(v, c)
            if val != 0:
                newrow[k] = val
        if newrow:
            out[key] = newrow
    return AlgebraTensor(dim=T.dim, identity=T.identity, c=out, basis_masks=T.basis_masks)


@dataclass
class RadicalReport:
    dimension: int
    basis: list  # coordinate vectors over the tensor basis
    nilpotency_index: int  # smallest k with radical^k = 0 (1 when radical = 0)


def jacobson_radical(T: AlgebraTensor) -> RadicalReport:
    """Kernel of the trace form of left multiplication, certified as a
    nilpotent two-sided ideal."""
    if T.ring() != "rational":
        raise ValueError("radical computation requires rational coefficients")
    T.verify_unital()
    d = T.dim
    # left-multiplication operators as sparse rows L[i][k] = {l: c}
    L = [dict() for _ in range(d)]
    for (i, k), row in T.c.items():
        L[i][k] = row
    gram = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            acc = Fraction(0)
            Li, Lj = L[i], L[j]
            for k, row in Li.items():
                for l, v in row.items():
                    w = Lj.get(l, {}).get(k)
                    if w is not None:
                        acc += v * w
            gram[i][j] = acc
            gram[j][i] = acc
    kernel = nullspace_dense(gram, d)
    if not kernel:
        return RadicalReport(dimension=0, basis=[], nilpotency_index=1)
    span = echelon(kernel)
    # two-sided ideal check against every basis element
    unit = [[Fraction(1) if i == j else Fraction(0) for i in range(d)] for j in range(d)]
    for vec in kernel:
        for x in range(d):
            for prod in (T.multiply(vec, unit[x]), T.multiply(unit[x], vec)):
                if not span.contains({k: v for k, v in enumerate(prod) if v != 0}):
                    raise AssertionError("trace-form kernel is not an ideal")
    # nilpotency: powers of the ideal shrink strictly to zero
    current = kernel
    index = 1
    while current:
        nxt = SpanBasis()
        vecs = []
        for a in current:
            for b in kernel:
                p = T.multiply(a, b)
                row = {k: v for k, v in enumerate(p) if v != 0}
                if row and nxt.insert(row):
                    vecs.append(p)
        if len(vecs) >= len(current):
            raise AssertionError("radical is not nilpotent")
        current = vecs
        index += 1
    return RadicalReport(dimension=len(kernel), basis=kernel, nilpotency_index=index)


def _det_fraction_field(rows) -> RatFun:
    """Determinant over Q(t) by Gaussian elimination with division."""
    n = len(rows)
    mat = [[v if isinstance(v, RatFun) else RatFun(v if isinstance(v, Poly) else Poly.const(v), Poly.const(1)) for v in row] for row in rows]
    det = RatFun.const(1)
    sign = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not mat[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return RatFun.const(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            sign = -sign
        pv = mat[col][col]
        det = det * pv
        for r in range(col + 1, n):
            if mat[r][col].is_zero():
                continue
            f = mat[r][col] / pv
            for c2 in range(col, n):
                mat[r][c2] = mat[r][c2] - f * mat[col][c2]
    return det * RatFun.const(sign)


@dataclass
class SpecializationWitness:
    """Data certifying the arc-wise degeneration of a matrix algebra: the
    family is free on the even-blade basis over the local ring at t = 0,
    the generic fibre is nondegenerate (hence a full matrix algebra over the
    algebraic closure), and the special fibre is the recorded tensor."""

    m: int
    det_generic: object  # det(2Q(t)) as an exact parametric value
    special_fiber: AlgebraTensor
    radical: RadicalReport
    generic_check_point: Fraction
    generic_radical_dim: int
    family: QuadraticFamily = field(repr=False, default=None)


def certify_specialization(F: QuadraticFamily) -> SpecializationWitness:
    """Produce the witness, or raise :class:`NoWitness` when det(2Q) == 0.

    The generic-fibre re-validation picks a rational point c where the
    family is regular and det(2Q(c)) != 0 and checks the fibre there is
    semisimple; since the rank of the trace form over Q(t) is at least its
    rank at any regular specialisation, this certifies the generic radical
    vanishes.
    """
    if F.m % 2 == 0:
        raise ValueError("odd m required: the generic even algebra must be a full matrix algebra")
    two_q = [[2 * v for v in row] for row in F.space.gram]
    det = _det_fraction_field(two_q)
    if czero(det):
        raise NoWitness("det 2Q(t) vanishes identically; generic fibre degenerate")
    special = theta_tensor(F.at(0))
    rad = jacobson_radical(special)
    cpoint = None
    for k in range(1, 100):
        c = Fraction(k)
        if all(regular_at(v, c) for row in F.space.gram for v in row) and eval_coeff(
            det, c
        ) != 0:
            cpoint = c
            break
    if cpoint is None:
        raise NoWitness("no regular rational point with nondegenerate fibre found")
    generic_rad = jacobson_radical(theta_tensor(F.at(cpoint)))
    if generic_rad.dimension != 0:
        raise AssertionError("nondegenerate fibre has nonzero radical")
    return SpecializationWitness(
        m=F.m,
        det_generic=det,
        special_fiber=special,
        radical=rad,
        generic_check_point=cpoint,
        generic_radical_dim=generic_rad.dimension,
        family=F,
    )
