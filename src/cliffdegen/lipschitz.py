"""Clifford-Lipschitz monoid, its unit group and spin kernel, and the
infinitesimal (Lie algebra) theory, for arbitrary possibly degenerate forms.

The membership test doubles the space: on V (+) V carry the form q (+) -q,
with two generator systems:

* f_i = (e_i, 0), g_i = (0, e_i): gram matrix diag(Q, -Q); the pair
  x (x) y embeds as (image of x in the f's) * (image of y in the g's);
* delta_i = (e_i, e_i), delta'_i = (e_i, -e_i): two totally isotropic
  families with b(delta_i, delta'_j) = 2 b(e_i, e_j).

Only the delta/delta' space is built: an f/g blade is converted by
multiplying out the images f_i = (delta_i + delta'_i)/2 and
g_i = (delta_i - delta'_i)/2 there.  That both families are isotropic and
that these images satisfy the relations of q (+) -q is certified once, in
the tests (``tests/test_lipschitz.py``, on a generic form of every m <= 6),
not at run time.

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

from .clifford import (
    Multivector,
    QuadraticSpace,
    geometric_product,
    is_even,
    is_homogeneous,
    reverse,
)
from .liestructure import even_blade_basis
from .linalg import nullspace_dense
from .rings import HALF, axpy, czero


class DoubledAlgebra:
    """The Clifford algebra of q (+) -q in the delta/delta' system, the
    images of the f's and g's there, and the cached blade conversion."""

    def __init__(self, V: QuadraticSpace):
        # only m of V is kept: V keeps this algebra (doubled_algebra), and a
        # reference back would make a cycle that only the cyclic garbage
        # collector frees, with both spaces' product caches
        self.m = m = V.m
        # the gram of the delta/delta' system: both families isotropic, and
        # b(delta_i, delta'_j) = 2 b(e_i, e_j) = 4 Q[i][j]
        zero = [0] * m
        two_q = [[2 * v for v in row] for row in V.gram]
        self.dd_space = QuadraticSpace([zero + row for row in two_q] + [row + zero for row in two_q])
        self._delta_images = {}
        for i in range(1, m + 1):
            d = Multivector.basis_vector(i)
            dp = Multivector.basis_vector(m + i)
            self._delta_images[i] = (d + dp).scale(HALF)  # image of f_i
            self._delta_images[m + i] = (d - dp).scale(HALF)  # image of g_i
        self._convert_cache = {0: Multivector.scalar(1)}
        self._unbalanced_cache: dict = {}

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
        m = self.m
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
    m = D.m
    out: dict = {}
    for ma, ca in x.terms.items():
        axpy(out, ca, {ma | (mb << m): cb for mb, cb in y.terms.items()})
    return Multivector(out)


def is_lipschitz(x: Multivector, V: QuadraticSpace) -> bool:
    """Homogeneous and x (x) tau(x) lies in the balanced subspace: its image
    has no unbalanced part."""
    if not is_homogeneous(x):
        return False
    D = doubled_algebra(V)
    return not D.unbalanced(embed_pair(x, reverse(x, V), D))


def norm_scalar(x: Multivector, V: QuadraticSpace):
    """x * tau(x) if it is a scalar multiple of e_0, else None."""
    z = geometric_product(x, reverse(x, V), V)
    if z.is_zero():
        return Fraction(0)
    if set(z.terms) == {0}:
        return z.terms[0]
    return None


def lipschitz_report(x: Multivector, V: QuadraticSpace) -> dict:
    member = is_lipschitz(x, V)
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
        "homogeneous": is_homogeneous(x),
        "cl0_member": member,
        "norm_scalar": z,
        "verdict": verdict,
    }


def infinitesimal_lipschitz(V: QuadraticSpace) -> dict:
    """Solve, to first order in eps (eps^2 = 0), for the even directions X
    such that 1 + eps X is Lipschitz.

    The epsilon coefficient of (1 + eps X) (x) tau(1 + eps X) is
    X (x) 1 + 1 (x) tau(X), so membership is a rational linear condition on
    X; the solution space is expected to be the filtration-degree-<=2 even
    part (dimension 1 + m(m-1)/2), and cutting with X + tau(X) = 0 is
    expected to leave m(m-1)/2 dimensions for every Q, degenerate or not.
    """
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
        "equals_even_filtration_le2": equals,
        "spin_dim": len(spin_solutions),
    }
