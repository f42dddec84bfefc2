"""One-parameter flat families of even Clifford algebras and certification
that the special fibre is a degeneration of a full matrix algebra.

A family is a symmetric matrix over Q[t] (or rational functions regular at
0).  The even-blade basis is a basis in every fibre, so specialisation is
coefficient-wise on the multiplication tensor; the witness for the
degeneration consists of generic nondegeneracy (det 2Q(t) != 0), the special
fibre tensor with a basis of its radical and its nilpotency index, and a
check point where 2Q has full rank.

The radical follows from Chevalley's structure theorem (The Algebraic
Theory of Spinors, 1954; Lam, Introduction to Quadratic Forms over Fields,
2005, ch. V).  Let r be the corank of q0 = Q(0), R its radical and qbar the
nondegenerate form on a complement.  Then Cl(q0) = Cl(qbar) (x) Lambda(R)
as Z/2-graded algebras, and the radical of Cl0(q0) is its part of positive
exterior degree: of dimension 2^(m-1) - 2^(m-r-1) and nilpotency index
r + 1 for r < m, and 2^(m-1) - 1 and floor(m/2) + 1 for r = m.  In an
orthogonal basis of a fibre, L_(e_c) moves each even blade e_b to a
multiple of e_(b delta c), so Tr(L_(e_c)) = 0 for c != 0 and the trace form
is diagonal with entries +-2^(m-1) prod_(i in a) q_i: Cl0 is semisimple
exactly when det 2Q != 0, which holds generically by the determinant.

At run time the witness still checks the special fibre's tensor (its unit)
and its radical: the kernel of the trace form (x, y) -> Tr(L_x L_y) of the
regular representation, valid in characteristic 0, is computed and must
have the structure theorem's dimension.  The nilpotency index comes from
the theorem.  The generic fibre is built at no point; 2Q at the check point
must have rank m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .clifford import QuadraticSpace, specialize_space
from .liestructure import AlgebraTensor, theta_tensor
from .linalg import nullspace_dense
from .rings import InvariantViolation, PoleError, Poly, RatFun, czero


class NoWitness(ArithmeticError):
    """The generic fibre is degenerate; no matrix-algebra degeneration."""


@dataclass
class QuadraticFamily:
    """Symmetric form over Q[t] or over rational functions regular at 0.
    Each rational-function entry is kept in lowest terms, reduced once
    here: its poles are then the roots of its denominator.  The regularity
    check builds the special fibre Q(0), kept as ``special``."""

    space: QuadraticSpace

    def __post_init__(self):
        gram = [list(row) for row in self.space.gram]
        for i, row in enumerate(gram):
            for j in range(i, len(row)):
                if isinstance(row[j], RatFun):
                    row[j] = gram[j][i] = row[j].reduced()
        self.space = QuadraticSpace(gram)
        try:
            self.special = self.at(0)
        except PoleError:
            raise ValueError("family entries must be regular at t = 0") from None

    @property
    def m(self) -> int:
        return self.space.m

    @staticmethod
    def diagonal(entries) -> "QuadraticFamily":
        return QuadraticFamily(QuadraticSpace.diagonal(list(entries)))

    def at(self, c) -> QuadraticSpace:
        return specialize_space(self.space, c)


def radical_shape(m: int, corank: int) -> tuple:
    """(dimension, nilpotency index) of the radical of Cl0(q0) for a form
    q0 on Q^m of corank r, by the structure theorem: the radical is the
    part of positive exterior degree of Cl0 of Cl(qbar) (x) Lambda(R), and
    a product of k of its elements has exterior degree at least k, or at
    least 2k when r = m and every element is in Lambda(R)."""
    if corank == m:
        return (1 << (m - 1)) - 1, m // 2 + 1
    return (1 << (m - 1)) - (1 << (m - corank - 1)), corank + 1


def _corank(V: QuadraticSpace) -> int:
    """dim ker Q, on the integer form D Q: a nondegenerate one is found
    modulo a prime, without rational arithmetic."""
    return len(nullspace_dense(V.scaled()[1].gram, V.m))


def jacobson_radical(T: AlgebraTensor) -> list:
    """A basis of the radical of the unital algebra T: the kernel of its
    trace form (x, y) -> Tr(L_x L_y), which is the radical of any
    finite-dimensional associative algebra in characteristic 0.  Beyond the
    unit, nothing is checked here; :func:`certify_specialization` compares
    the dimension of the kernel with the structure theorem's.

    The work runs on T's own entries, those over D Q for a tensor of
    ``scale`` D, and the basis is reported over the e_a.  With the
    f_a = lambda_a e_a of :meth:`AlgebraTensor.lambdas` and
    Lambda = diag(lambda_a), gram_T = Lambda^-1 gram_S Lambda^-1 for the
    trace forms over Q and over D Q: gram_S has the pivot columns of
    gram_T, and its kernel vector y of free column fc (y's last nonzero
    entry) maps to gram_T's as x_j = lambda_j y_j / lambda_fc: a zero stays
    as it is, and each other coordinate is one ``Fraction`` built from the
    integers."""
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
    lam = T.lambdas()
    basis = []
    for vec in kernel:
        fc = max(k for k, y in enumerate(vec) if y)
        lf = lam[fc]
        basis.append(
            [Fraction(lam[j] * y.numerator, lf * y.denominator) if y else y for j, y in enumerate(vec)]
        )
    return basis


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
    the integer form D Q (its ``scale`` is D), with a basis of its radical
    over the e_a and the radical's nilpotency index."""

    m: int
    det_generic: object  # det(2Q(t)) as an exact parametric value
    special_fiber: AlgebraTensor
    radical_basis: list  # coordinate vectors over the e_a
    nilpotency_index: int  # smallest k with radical^k = 0 (1 when radical = 0)
    generic_check_point: int  # the first k = 1, 2, ... with 2Q(k) defined and regular


def certify_specialization(F: QuadraticFamily) -> SpecializationWitness:
    """Produce the witness, or raise :class:`NoWitness` when det(2Q) == 0.

    The special fibre's radical is the kernel of its trace form; its
    dimension must be the structure theorem's for the corank of Q(0),
    which also gives the nilpotency index.  The generic fibre is semisimple
    because det 2Q(t) != 0; as a check, the first integer point c where the
    family is regular and det 2Q(c) != 0 must give a 2Q(c) of full rank.
    """
    if F.m % 2 == 0:
        raise ValueError("odd m required: the generic even algebra must be a full matrix algebra")
    two_q = [[2 * v for v in row] for row in F.space.gram]
    det = _det_fraction_field(two_q)
    if czero(det):
        raise NoWitness("det 2Q(t) vanishes identically; generic fibre degenerate")
    special = theta_tensor(F.special)
    basis = jacobson_radical(special)
    dim, index = radical_shape(F.m, _corank(F.special))
    if len(basis) != dim:
        raise InvariantViolation(
            f"the trace-form kernel has dimension {len(basis)}, the structure theorem {dim}"
        )
    # the poles are the roots of the entries' denominators, in lowest terms
    # since the family was built; a point is bad where an entry has a pole
    # or det 2Q vanishes: at most deg(det numerator) + the sum of the
    # denominators' degrees points, so one more integer point is always a
    # good one
    dens = [v.den for i, row in enumerate(F.space.gram) for v in row[i:] if isinstance(v, RatFun)]
    bad = len(det.num.coeffs) - 1 + sum(len(d.coeffs) - 1 for d in dens)
    for k in range(1, bad + 2):
        if all(d(k) for d in dens) and det.num(k):
            break
    if _corank(F.at(k)):
        raise InvariantViolation(f"2Q({k}) is singular, yet det 2Q({k}) != 0")
    return SpecializationWitness(
        m=F.m,
        det_generic=det,
        special_fiber=special,
        radical_basis=basis,
        nilpotency_index=index,
        generic_check_point=k,
    )
