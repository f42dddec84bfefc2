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

At run time the witness checks the special fibre's tensor (its unit)
and builds the radical from its generators.  Each r in R anticommutes
with every vector, since b(r, v) = 0, so the ideal of Cl(q0) that R
generates is Cl(q0) R, and its even part, the radical of Cl0(q0), is
spanned by the products e_S r of the odd blades e_S with a basis of R.
The span must have the structure theorem's dimension; the nilpotency
index comes from the theorem.  The generic fibre is built at no point;
2Q at the check point must have rank m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm, prod

from .clifford import QuadraticSpace, _blade_times_gen, specialize_space
from .liestructure import AlgebraTensor, even_blade_basis, theta_tensor
from .linalg import SpanBasis, nullspace_dense, rank
from .rings import InvariantViolation, PoleError, Poly, RatFun, axpy, czero


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
    """dim ker Q, for Q over Q: a nondegenerate one is found modulo a
    prime, without rational arithmetic."""
    return V.m - rank((dict(enumerate(row)) for row in V.gram), V.m)


def jacobson_radical(V: QuadraticSpace) -> tuple:
    """(R, basis) for a form V over Q: R a basis of ker V, and a basis of
    the radical of Cl0(V) over the e_a, the span of the Clifford products
    e_S r of every odd blade e_S with every r in R (module docstring).
    Nothing is checked here; :func:`certify_specialization` checks R and
    compares the dimension of the span with the structure theorem's.

    Each r has 1 at its free coordinate f, its last nonzero one, so the
    e_i with i != f and r are a basis of V.  A product of them that holds
    r ends in r up to sign, since r anticommutes with V, and r r = q(r) =
    0: the e_S r with f not in S already span Cl^odd r, and only they are
    formed.  Each takes one generator step per nonzero coordinate of r.
    The basis is the reduced echelon form of the span with the even blades
    taken last to first: each vector ends with 1 at its own blade, where
    the others are 0.  A subspace has one such basis, and it is the one
    :func:`~cliffdegen.linalg.nullspace_dense` gives for any matrix whose
    kernel is the span.  Its entries are ``Fraction``s, zeros included."""
    masks = even_blade_basis(V.m)
    d = len(masks)
    column = {mask: d - 1 - k for k, mask in enumerate(masks)}
    R = nullspace_dense(V.gram, V.m)
    span = SpanBasis()
    for r in R:
        free = 1 << max(j for j, rj in enumerate(r) if rj)
        for S in range(1 << V.m):
            if S.bit_count() % 2 and not S & free:
                product: dict = {}
                for j, rj in enumerate(r, 1):
                    if rj:
                        axpy(product, rj, _blade_times_gen(V, S, j))
                span.insert({column[mask]: v for mask, v in product.items()})
    rows = span.rref()
    basis = []
    for pivot in sorted(rows, reverse=True):
        vec = [Fraction(0)] * d
        for c, v in rows[pivot].items():
            vec[d - 1 - c] = v
        basis.append(vec)
    return R, basis


def _integer_row(row) -> tuple:
    """(dens, L, polys): ``polys`` is the row over Z[t], times the product
    of its ``RatFun`` denominators ``dens`` and of the integer L, the lcm of
    the coefficient denominators that this product leaves."""
    polys = [v.num if isinstance(v, RatFun) else v if isinstance(v, Poly) else Poly.const(v) for v in row]
    dens = []
    for i, v in enumerate(row):
        if isinstance(v, RatFun):
            dens.append(v.den)
            polys = [p if j == i else p * v.den for j, p in enumerate(polys)]
    L = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return dens, L, [Poly([int(c * L) for c in p.coeffs]) for p in polys]


def _det_fraction_field(rows) -> RatFun:
    """Determinant over Q(t), in lowest terms.

    Each row is cleared to Z[t] (:func:`_integer_row`), and Bareiss'
    fraction-free elimination (Math. Comp. 22, 1968) runs on the result:
    after step k, entry (i, j) is the minor of rows 0..k, i and columns
    0..k, j, so dividing by the previous pivot is exact and the entries stay
    in Z[t] at the degree of a minor.

    The last pivot over the product of the rows' scales is the
    determinant.  It is cancelled against one denominator at a time, each a
    small Euclid: a leftover denominator is coprime to the numerator then,
    and stays so as the numerator loses factors, so the product of the
    monic leftovers is the denominator in lowest terms.  The integers L are
    units: they only divide the numerator."""
    n = len(rows)
    dens, units, mat = zip(*(_integer_row(row) for row in rows))
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
    num, den = prev * sign, Poly.const(1)
    for s in chain.from_iterable(dens):
        if s != 1:
            low = RatFun(num, s).reduced()
            num, den = low.num, den * low.den
    return RatFun(num * Fraction(1, prod(units)), den)


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

    The special fibre's radical is the span of Cl^odd ker Q(0)
    (:func:`jacobson_radical`).  Each vector of the kernel basis must have
    Q(0) r = 0, their number must be the corank of Q(0), and the span's
    dimension must be the structure theorem's for that corank, which also
    gives the nilpotency index.  The generic fibre is semisimple because
    det 2Q(t) != 0; as a check, the first integer point c where the family
    is regular and det 2Q(c) != 0 must give a 2Q(c) of full rank.
    """
    if F.m % 2 == 0:
        raise ValueError("odd m required: the generic even algebra must be a full matrix algebra")
    two_q = [[2 * v for v in row] for row in F.space.gram]
    det = _det_fraction_field(two_q)
    if czero(det):
        raise NoWitness("det 2Q(t) vanishes identically; generic fibre degenerate")
    special = theta_tensor(F.special)
    special.verify_unital()
    R, basis = jacobson_radical(F.special)
    # a wrong kernel of the right size can span a radical of the right
    # dimension, so R is checked before the span is
    for r in R:
        if any(sum(g * rj for g, rj in zip(row, r)) for row in F.special.gram):
            raise InvariantViolation(f"Q(0) r != 0 for the kernel vector r = ({', '.join(map(str, r))})")
    corank = _corank(F.special)
    if len(R) != corank:
        raise InvariantViolation(f"ker Q(0) has {len(R)} basis vectors, Q(0) has corank {corank}")
    dim, index = radical_shape(F.m, len(R))
    if len(basis) != dim:
        raise InvariantViolation(
            f"the span of Cl^odd ker Q(0) has dimension {len(basis)}, the structure theorem {dim}"
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
