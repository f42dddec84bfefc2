"""Clifford-Lipschitz monoid, its unit group and spin kernel, and the
infinitesimal (Lie algebra) theory, for arbitrary possibly degenerate forms.

The membership test doubles the space: on V (+) V carry the form q (+) -q,
with two generator systems:

* f_i = (e_i, 0), g_i = (0, e_i): gram matrix diag(Q, -Q); the pair
  x (x) y embeds as (image of x in the f's) * (image of y in the g's);
* delta_i = (e_i, e_i), delta'_i = (e_i, -e_i): two totally isotropic
  families with b(delta_i, delta'_j) = 2 b(e_i, e_j).

Written in canonical blades of the delta/delta' system, the doubled algebra
has the distinguished subspace spanned by the *balanced* blades (equal
delta- and delta'-degree); its dimension is sum_j C(m,j)^2 = C(2m, m).
An element x of the base algebra is Lipschitz when it is homogeneous and
x (x) tau(x) lands in that subspace, i.e. when the unbalanced part of its
image vanishes.  The graded sign convention of the embedding is fixed by
calibration: vectors and the elements lambda + a b must be members, which
pins the blade-wise embedding used here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .clifford import (
    Multivector,
    QuadraticSpace,
    geometric_product,
    is_even,
    is_homogeneous,
    reverse,
)
from .liestructure import even_blade_basis
from .rings import HALF, axpy, czero


class DoubledAlgebra:
    """The Clifford algebra of q (+) -q with its two generator systems and
    the cached blade conversion between them."""

    def __init__(self, V: QuadraticSpace):
        self.base = V
        m = V.m
        zero = [[0] * m for _ in range(m)]
        top = [list(row) + list(zrow) for row, zrow in zip(V.gram, zero)]
        bot = [list(zrow) + [-v for v in row] for zrow, row in zip(zero, V.gram)]
        self.fg_space = QuadraticSpace(top + bot)
        two_q = [[2 * v for v in row] for row in V.gram]
        dd_top = [list(zrow) + list(row) for zrow, row in zip(zero, two_q)]
        dd_bot = [list(row) + list(zrow) for row, zrow in zip(two_q, zero)]
        self.dd_space = QuadraticSpace(dd_top + dd_bot)
        self._delta_images = {}
        for i in range(1, m + 1):
            d = Multivector.basis_vector(i)
            dp = Multivector.basis_vector(m + i)
            self._delta_images[i] = (d + dp).scale(HALF)  # image of f_i
            self._delta_images[m + i] = (d - dp).scale(HALF)  # image of g_i
        self._convert_cache = {0: Multivector.scalar(1)}
        self._unbalanced_cache: dict = {}
        self._verify_isotropic()

    def _verify_isotropic(self):
        """delta and delta' really are isotropic families for q (+) -q,
        computed in the f/g presentation where nothing is built in."""
        m = self.base.m
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                for sgn in (1, -1):
                    di = Multivector.basis_vector(i) + Multivector.basis_vector(m + i).scale(sgn)
                    dj = Multivector.basis_vector(j) + Multivector.basis_vector(m + j).scale(sgn)
                    anti = geometric_product(di, dj, self.fg_space) + geometric_product(
                        dj, di, self.fg_space
                    )
                    if not anti.is_zero():
                        raise AssertionError(
                            f"isotropy fails for the {'delta' if sgn == 1 else 'delta-prime'} family at ({i},{j})"
                        )

    def _convert_blade(self, mask: int) -> Multivector:
        cached = self._convert_cache.get(mask)
        if cached is not None:
            return cached
        top = mask.bit_length()
        rest = mask ^ (1 << (top - 1))
        conv = geometric_product(
            self._convert_blade(rest), self._delta_images[top], self.dd_space
        )
        self._convert_cache[mask] = conv
        return conv

    def _unbalanced_of_blade(self, mask: int) -> dict:
        """Unbalanced (delta-degree != delta'-degree) part of the conversion
        of one f/g blade; this is all the membership test consumes."""
        cached = self._unbalanced_cache.get(mask)
        if cached is not None:
            return cached
        m = self.base.m
        low = (1 << m) - 1
        conv = self._convert_blade(mask)
        unbal = {
            dmask: c
            for dmask, c in conv.terms.items()
            if (dmask & low).bit_count() != (dmask >> m).bit_count()
        }
        self._unbalanced_cache[mask] = unbal
        return unbal

    def unbalanced(self, x: Multivector) -> dict:
        """Unbalanced part, in delta/delta' blades, of an element written in
        the f/g presentation."""
        acc: dict = {}
        for mask, c in x.terms.items():
            axpy(acc, c, self._unbalanced_of_blade(mask))
        return acc


class Cl0Subspace:
    """Balanced-blade subspace of the doubled algebra.

    In delta/delta' blade coordinates the subspace is spanned by distinct
    canonical blades, so the coordinate matrix is already in (maximally)
    row-reduced form: membership is exact coordinate inspection.
    """

    def __init__(self, D: DoubledAlgebra):
        self.doubled = D
        self.m = D.base.m

    @property
    def dimension(self) -> int:
        return comb(2 * self.m, self.m)

    def basis_blades(self):
        m = self.m
        for mask in range(1 << (2 * m)):
            if (mask & ((1 << m) - 1)).bit_count() == (mask >> m).bit_count():
                yield mask

    def contains_fg(self, x: Multivector) -> bool:
        """Membership of an element written in the f/g presentation."""
        return not self.doubled.unbalanced(x)


def doubled_algebra(V: QuadraticSpace) -> DoubledAlgebra:
    """The doubled algebra of V, built on first use and kept on V."""
    if V._doubled is None:
        V._doubled = DoubledAlgebra(V)
    return V._doubled


def embed_pair(x: Multivector, y: Multivector, D: DoubledAlgebra) -> Multivector:
    """Image of x (x) y in the doubled algebra: the f-word of x times the
    g-word of y.  Since every f index precedes every g index, the product of
    the two blades is itself a canonical blade and no sign appears; the
    convention is validated by the calibration facts in the tests."""
    m = D.base.m
    out: dict = {}
    for ma, ca in x.terms.items():
        axpy(out, ca, {ma | (mb << m): cb for mb, cb in y.terms.items()})
    return Multivector(out)


def is_lipschitz(x: Multivector, V: QuadraticSpace) -> bool:
    """Homogeneous and x (x) tau(x) lies in the balanced subspace."""
    if not is_homogeneous(x):
        return False
    D = doubled_algebra(V)
    emb = embed_pair(x, reverse(x, V), D)
    return Cl0Subspace(D).contains_fg(emb)


def norm_scalar(x: Multivector, V: QuadraticSpace):
    """x * tau(x) if it is a scalar multiple of e_0, else None."""
    z = geometric_product(x, reverse(x, V), V)
    if z.is_zero():
        return Fraction(0)
    if set(z.terms) == {0}:
        return z.terms[0]
    return None


def is_glip(x: Multivector, V: QuadraticSpace) -> bool:
    """Lipschitz with invertible scalar norm (the unit group of the monoid)."""
    if not is_lipschitz(x, V):
        return False
    z = norm_scalar(x, V)
    return z is not None and not czero(z)


def is_spin_kernel(x: Multivector, V: QuadraticSpace) -> bool:
    """Even Lipschitz unit of norm exactly one."""
    if not is_glip(x, V) or not is_even(x):
        return False
    return norm_scalar(x, V) == 1


def lipschitz_report(x: Multivector, V: QuadraticSpace) -> dict:
    homog = is_homogeneous(x)
    D = doubled_algebra(V)
    member = homog and Cl0Subspace(D).contains_fg(embed_pair(x, reverse(x, V), D))
    z = norm_scalar(x, V)
    verdict = "none"
    # the zero element is classified "none": it sits in the monoid formally
    # but supports no unit or spin structure
    if member and not x.is_zero():
        verdict = "monoid"
        if z is not None and not czero(z):
            verdict = "group"
            if is_even(x) and z == 1:
                verdict = "spin"
    return {
        "homogeneous": homog,
        "cl0_member": member,
        "norm_scalar": z,
        "verdict": verdict,
    }


def infinitesimal_lipschitz(V: QuadraticSpace) -> dict:
    """Solve, over the dual numbers, for the even directions X such that
    1 + eps X is Lipschitz.

    The epsilon coefficient of (1 + eps X) (x) tau(1 + eps X) is
    X (x) 1 + 1 (x) tau(X), so membership is a rational linear condition on
    X; the solution space is expected to be the filtration-degree-<=2 even
    part (dimension 1 + m(m-1)/2), and cutting with X + tau(X) = 0 is
    expected to leave m(m-1)/2 dimensions for every Q, degenerate or not.
    """
    from .linalg import nullspace_dense

    m = V.m
    D = doubled_algebra(V)
    one = Multivector.scalar(1)
    masks = even_blade_basis(m)
    K = len(masks)
    unbal_cols = []
    tau_rows = []  # expansion of tau(E_k) over the even blade basis
    index = {mask: k for k, mask in enumerate(masks)}
    for mask in masks:
        blade = Multivector({mask: Fraction(1)})
        v = embed_pair(blade, one, D) + embed_pair(one, reverse(blade, V), D)
        unbal_cols.append(D.unbalanced(v))
        trow = [Fraction(0)] * K
        for m2, c in reverse(blade, V).terms.items():
            trow[index[m2]] += c
        tau_rows.append(trow)

    keys = sorted(set().union(*unbal_cols)) if unbal_cols else []
    eq_rows = [[col.get(k, Fraction(0)) for col in unbal_cols] for k in keys]
    solutions = nullspace_dense(eq_rows, K)
    expected_dim = 1 + m * (m - 1) // 2
    # the solution space should be exactly span(e_0, 2-blades)
    low_masks = {mask for mask in masks if mask.bit_count() <= 2}
    inside = all(
        all(vec[k] == 0 for k in range(K) if masks[k] not in low_masks)
        for vec in solutions
    )
    equals = inside and len(solutions) == expected_dim

    # spin cut: X + tau(X) = 0, one equation per even-blade coordinate j
    spin_rows = list(eq_rows)
    for j in range(K):
        row = [Fraction(0)] * K
        for k in range(K):
            row[k] += (1 if k == j else 0) + tau_rows[k][j]
        spin_rows.append(row)
    spin_solutions = nullspace_dense(spin_rows, K)
    return {
        "m": m,
        "solution_dim": len(solutions),
        "expected_dim": expected_dim,
        "equals_even_filtration_le2": equals,
        "spin_dim": len(spin_solutions),
        "expected_spin_dim": m * (m - 1) // 2,
        "solution_basis": [
            {masks[k]: vec[k] for k in range(K) if vec[k] != 0} for vec in solutions
        ],
    }
