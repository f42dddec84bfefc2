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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .clifford import QuadraticSpace, specialize_space
from .liestructure import AlgebraTensor, theta_tensor
from .linalg import SpanBasis, nullspace_dense
from .rings import InvariantViolation, Poly, RatFun, axpy, czero, eval_coeff, regular_at


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


@dataclass
class RadicalReport:
    dimension: int
    basis: list  # coordinate vectors over the tensor basis
    nilpotency_index: int  # smallest k with radical^k = 0 (1 when radical = 0)


def jacobson_radical(T: AlgebraTensor) -> RadicalReport:
    """Kernel of the trace form of left multiplication, certified as a
    nilpotent two-sided ideal.

    The work runs on T's own entries, those over D Q for a tensor of
    ``scale`` D, and the basis is reported over the e_a.  With the
    f_a = lambda_a e_a of :meth:`AlgebraTensor.lambdas` and
    Lambda = diag(lambda_a), gram_T = Lambda^-1 gram_S Lambda^-1 for the
    trace forms over Q and over D Q: gram_S has the pivot columns of
    gram_T, and its kernel vector y of free column fc (y's last nonzero
    entry) maps to gram_T's as x_j = lambda_j y_j / lambda_fc."""
    if not T.is_rational():
        raise ValueError("radical computation requires rational coefficients")
    T.verify_unital()
    d = T.dim
    # the algebra is associative, so L_i L_j = L_(e_i e_j) and
    # Tr(L_i L_j) = sum over k of c[i,j][k] Tr(L_k), Tr(L_k) = sum over l
    # of c[k,l][l]: one pass over the entries for the traces, one for gram
    trace: dict = {}
    for (k, l), row in T.c.items():
        v = row.get(l)
        if v:
            trace[k] = trace.get(k, 0) + v
    gram = [[0] * d for _ in range(d)]
    for (i, j), row in T.c.items():
        gram[i][j] = sum(v * trace[k] for k, v in row.items() if k in trace)
    kernel = nullspace_dense(gram, d)
    if not kernel:
        return RadicalReport(dimension=0, basis=[], nilpotency_index=1)
    # the checks run on T's own entries, with the kernel vectors scaled by
    # the lcm L of their denominators to ints w.  The vector of free column
    # fc (its last nonzero entry) reads 1 there and 0 at the other free
    # columns, so p lies in the span exactly when L p = sum of p[fc] w_fc.
    L = lcm(*(v.denominator for vec in kernel for v in vec))
    sparse = [{k: int(v * L) for k, v in enumerate(vec) if v} for vec in kernel]
    free = [max(w) for w in sparse]
    by_free = dict(zip(free, sparse))

    def in_span(p: dict) -> bool:
        acc: dict = {}
        for k, c in p.items():
            if k in by_free:
                axpy(acc, c, by_free[k])
        return acc == {k: L * c for k, c in p.items()}

    # two-sided ideal check against every basis element
    for w in sparse:
        for x in range(d):
            if not (in_span(T.multiply(w, {x: 1})) and in_span(T.multiply({x: 1}, w))):
                raise InvariantViolation("trace-form kernel is not an ideal")
    # nilpotency: powers of the ideal shrink strictly to zero
    current = sparse
    index = 1
    while current:
        nxt = SpanBasis()
        vecs = []
        for a in current:
            for b in sparse:
                p = T.multiply(a, b)
                if p and nxt.insert(p):
                    vecs.append(p)
        if len(vecs) >= len(current):
            raise InvariantViolation("radical is not nilpotent")
        current = vecs
        index += 1
    basis = kernel
    if T.scale != 1:
        lam = T.lambdas()
        basis = [
            [lam[j] * y / lam[fc] for j, y in enumerate(vec)]
            for fc, vec in zip(free, kernel)
        ]
    return RadicalReport(dimension=len(basis), basis=basis, nilpotency_index=index)


def _integer_row(row) -> tuple:
    """(scale, polys): the row times its scale, over Z[t].  The scale is
    the product of the row's ``RatFun`` denominators times the lcm of the
    coefficient denominators that this product leaves."""
    polys = [v.num if isinstance(v, RatFun) else v if isinstance(v, Poly) else Poly.const(v) for v in row]
    scale = Poly.const(1)
    for i, v in enumerate(row):
        if isinstance(v, RatFun):
            scale = scale * v.den
            polys = [p if j == i else p * v.den for j, p in enumerate(polys)]
    L = lcm(*(c.denominator for p in polys + [scale] for c in p.coeffs))
    return scale * L, [Poly([int(c * L) for c in p.coeffs]) for p in polys]


def _det_fraction_field(rows) -> RatFun:
    """Determinant over Q(t), in lowest terms.

    Each row is cleared to Z[t] (:func:`_integer_row`), and Bareiss'
    fraction-free elimination (Math. Comp. 22, 1968) runs on the result:
    after step k, entry (i, j) is the minor of rows 0..k, i and columns
    0..k, j, so dividing by the previous pivot is exact and the entries stay
    in Z[t] at the degree of a minor."""
    n = len(rows)
    scales, mat = zip(*(_integer_row(row) for row in rows))
    mat = list(mat)
    sign = 1
    prev = Poly.const(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if mat[r][k]), None)
        if pivot is None:
            return RatFun.const(0)
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        p = mat[k][k]
        for i in range(k + 1, n):
            ri, a = mat[i], mat[i][k]
            for j in range(k + 1, n):
                q, r = divmod(p * ri[j] - a * mat[k][j], prev)
                if r:
                    raise InvariantViolation("a Bareiss step did not divide exactly")
                ri[j] = q
        prev = p
    den = Poly.const(sign)
    for s in scales:
        den = den * s
    return RatFun(prev, den).reduced()


@dataclass
class SpecializationWitness:
    """Data certifying the arc-wise degeneration of a matrix algebra: the
    family is free on the even-blade basis over the local ring at t = 0,
    the generic fibre is nondegenerate (hence a full matrix algebra over the
    algebraic closure), and the special fibre is the recorded tensor, on
    the integer form D Q (its ``scale`` is D; the radical basis is over the
    e_a)."""

    m: int
    det_generic: object  # det(2Q(t)) as an exact parametric value
    special_fiber: AlgebraTensor
    radical: RadicalReport
    generic_check_point: Fraction
    generic_radical_dim: int


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
        raise InvariantViolation("nondegenerate fibre has nonzero radical")
    return SpecializationWitness(
        m=F.m,
        det_generic=det,
        special_fiber=special,
        radical=rad,
        generic_check_point=cpoint,
        generic_radical_dim=generic_rad.dimension,
    )
