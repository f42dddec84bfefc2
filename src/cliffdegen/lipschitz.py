"""Clifford-Lipschitz monoid, its unit group and spin kernel, and the
infinitesimal (Lie algebra) theory, for arbitrary possibly degenerate forms.

An element x of Cl(q) is Lipschitz when it is homogeneous and x (x) tau(x)
is *balanced* in Cl(q (+) -q).  On V (+) V carry the form q (+) -q, with
two generator systems:

* f_i = (e_i, 0), g_i = (0, e_i): gram matrix diag(Q, -Q), with f_a g_b a
  canonical blade;
* delta_i = f_i + g_i, delta'_i = f_i - g_i: two totally isotropic families.

Balanced means: every canonical blade of the delta/delta' system in the
element has equal delta- and delta'-degree.  The test is decided in the
exterior algebra, with no Clifford product, by two classical facts
(C. Chevalley, *The Algebraic Theory of Spinors*, 1954; J. Helmstetter and
A. Micali, *Quadratic Mappings and Clifford Algebras*, Birkhauser 2008):

1. The twisted opposite of Cl(q) is Cl(-q) through e_i -> e_i.  Through
   it tau(e_b) = e_bk ... e_b1 becomes psi(e_b) = (-1)^(k(k-1)/2) g_b for a
   canonical blade of k generators, so x (x) tau(x) is
   sum c_a c_b (-1)^(|b|(|b|-1)/2) f_a g_b: nothing is multiplied in Cl(q).
2. Cl(q (+) -q) is Lambda(V (+) V) with its product deformed by a bilinear
   form beta, beta(w, w) = (q (+) -q)(w); for beta triangular on an ordered
   basis, the canonical blades of that basis are its exterior monomials.
   The triangular forms of the f/g system, diag(beta_Q, -beta_Q), and of
   the delta/delta' system both vanish on two deltas and on two delta's,
   so their difference is an alternating form that pairs only a delta
   with a delta'.  Passing from f/g blades to delta/delta' blades is exp
   of the contraction by it, which keeps (delta-degree - delta'-degree).
   So an element is balanced exactly when its f/g exterior coefficients
   lie in the kernel of the derivation H that is 1 on delta and -1 on
   delta', i.e. swaps f_i and g_i.

The tests compare H, over every f/g monomial for m <= 4, with the
unbalanced part that the explicit delta/delta' product gives
(``tests/test_lipschitz.py``).
"""

from __future__ import annotations

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
from .rings import axpy, czero


class DoubledAlgebra:
    """Lambda(V (+) V) in the monomials f_a ^ g_b, keyed by the mask
    a | b << m, and its swap derivation H (module docstring)."""

    def __init__(self, V: QuadraticSpace):
        self.m = V.m

    def unbalanced(self, terms: dict) -> dict:
        """H of sum c f_a ^ g_b for ``terms`` {a | b << m: c}: empty exactly
        when the element is balanced.  An index in both a and b gives
        nothing (moving it repeats a generator); one in a alone moves to b,
        one in b alone to a, past the f's above it and the g's below it."""
        m = self.m
        low = (1 << m) - 1
        out: dict = {}
        for key, c in terms.items():
            a, b = key & low, key >> m
            moved = a ^ b
            step = {}
            while moved:
                bit = moved & -moved
                moved ^= bit
                odd = ((a & -(bit << 1)).bit_count() + (b & (bit - 1)).bit_count()) & 1
                step[key ^ bit ^ (bit << m)] = -1 if odd else 1
            axpy(out, c, step)
        return out


def doubled_algebra(V: QuadraticSpace) -> DoubledAlgebra:
    """The doubled algebra of V; it holds only m, so it is built on each
    call."""
    return DoubledAlgebra(V)


def _psi_sign(mask: int) -> int:
    """(-1)^(k(k-1)/2) for a blade of k generators: psi(e_b) = sign * g_b."""
    return -1 if mask.bit_count() & 2 else 1


def is_lipschitz(x: Multivector, V: QuadraticSpace) -> bool:
    """Homogeneous, and x (x) tau(x) = sum c_a c_b psi(e_b) f_a g_b is
    balanced: H kills it."""
    if not is_homogeneous(x):
        return False
    D = doubled_algebra(V)
    m = D.m
    pair: dict = {}
    for ma, ca in x.terms.items():
        axpy(pair, ca, {ma | (mb << m): _psi_sign(mb) * cb for mb, cb in x.terms.items()})
    return not D.unbalanced(pair)


def norm_scalar(x: Multivector, V: QuadraticSpace):
    """x * tau(x) if it is a scalar multiple of e_0, else None."""
    z = geometric_product(x, reverse(x, V), V)
    if z.terms.keys() <= {0}:
        return z.terms.get(0, 0)
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
    masks = even_blade_basis(m)
    K = len(masks)
    index = {mask: k for k, mask in enumerate(masks)}
    unbal_cols = []
    # the spin cut X + tau(X) = 0: one equation per even-blade coordinate
    spin_eqs = [[int(j == k) for k in range(K)] for j in range(K)]
    for k, mask in enumerate(masks):
        # X (x) 1 + 1 (x) psi(X) for X = E_k (for E_0 the two keys meet: H
        # kills the scalar either way)
        unbal_cols.append(D.unbalanced({mask: 1, mask << m: _psi_sign(mask)}))
        for m2, c in reverse(Multivector({mask: 1}), V).terms.items():
            spin_eqs[index[m2]][k] += c

    keys = sorted(set().union(*unbal_cols))
    eq_rows = [[col.get(k, 0) for col in unbal_cols] for k in keys]
    solutions = nullspace_dense(eq_rows, K)
    expected_dim = 1 + m * (m - 1) // 2
    # the solution space should be exactly span(e_0, 2-blades)
    low_masks = {mask for mask in masks if mask.bit_count() <= 2}
    inside = all(
        all(vec[k] == 0 for k in range(K) if masks[k] not in low_masks)
        for vec in solutions
    )
    equals = inside and len(solutions) == expected_dim
    spin_solutions = nullspace_dense(eq_rows + spin_eqs, K)
    return {
        "equals_even_filtration_le2": equals,
        "spin_dim": len(spin_solutions),
    }
