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

Both halves of the test run on the integer form, with E the lcm of the
denominators of x's coefficients and (D, D Q) what
:meth:`~cliffdegen.clifford.QuadraticSpace.scaled` gives (D = 1 over Q(t)):

* Membership.  x (x) tau(x) is quadratic in x and H is linear, so E x is
  balanced exactly when x is; E x has ``int`` coefficients over Q and
  ``int``-coefficient ``Poly``s over Q[t], and V enters only through m.
* The norm.  By Chevalley's homogeneity (each contraction of his formula
  spends two generators and takes one entry of Q), the part of
  e_a tau(e_b) on a blade c is homogeneous of degree (|a| + |b| - |c|)/2
  in the entries of Q.  Let M be the top degree of x, and on the space of D^r Q put
  x'_a = E x_a D^(r (M - |a|)/2).  Then the part of x'_a tau(x'_b) on c
  is E^2 D^(r (M - |a|)/2 + r (M - |b|)/2 + r (|a| + |b| - |c|)/2)
  = E^2 D^(r (M - |c|/2)) times that of x_a tau(x_b), whatever a and b
  are.  The exponents are whole for r = 1 when x is homogeneous (|a| has
  the parity of M) and for r = 2 always.  So every blade of x' tau(x') is
  that of x tau(x) times one nonzero integer: the zero test is exact, and
  the scalar is one division by E^2 D^(r M).  Over Q(t) the quotients are
  divided as they stand, so the norm prints as the product gives it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .clifford import (
    Multivector,
    QuadraticSpace,
    filtration_degree,
    geometric_product,
    is_even,
    is_homogeneous,
    reverse,
)
from .liestructure import even_blade_basis
from .linalg import rank
from .rings import Poly, RatFun, axpy, cleared, czero, denominators


class DoubledAlgebra:
    """Lambda(V (+) V) in the monomials f_a ^ g_b, keyed by the mask
    a | b << m, and its swap derivation H (module docstring)."""

    def __init__(self, V: QuadraticSpace):
        self.m = V.m

    def unbalanced(self, terms: dict) -> dict:
        """H of sum c f_a ^ g_b for ``terms`` {a | b << m: c}: empty exactly
        when the element is balanced.  An index in both a and b gives
        nothing (moving it repeats a generator); one in a alone moves to b,
        one in b alone to a, past the f's above it and the g's below it.
        Each image c or -c is added as ``axpy`` would add it, with the same
        sums, zero test and insertion order, and no call per term."""
        m = self.m
        low = (1 << m) - 1
        out: dict = {}
        for key, c in terms.items():
            a, b = key & low, key >> m
            moved = a ^ b
            while moved:
                bit = moved & -moved
                moved ^= bit
                odd = ((a & -(bit << 1)).bit_count() + (b & (bit - 1)).bit_count()) & 1
                k = key ^ bit ^ (bit << m)
                s = out.get(k)
                s = (-c if odd else c) if s is None else (s - c if odd else s + c)
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return out


def doubled_algebra(V: QuadraticSpace) -> DoubledAlgebra:
    """The doubled algebra of V; it holds only m, so it is built on each
    call."""
    return DoubledAlgebra(V)


def _psi_sign(mask: int) -> int:
    """(-1)^(k(k-1)/2) for a blade of k generators: psi(e_b) = sign * g_b."""
    return -1 if mask.bit_count() & 2 else 1


def _denominator_lcm(x: Multivector) -> int:
    """The lcm E of the denominators of x's coefficients: E x has ``int``
    coefficients over Q, and ``int``-coefficient ``Poly``s over Q[t]."""
    return lcm(*(d for c in x.terms.values() for d in denominators(c)))


def is_lipschitz(x: Multivector, V: QuadraticSpace) -> bool:
    """Homogeneous, and x (x) tau(x) = sum c_a c_b psi(e_b) f_a g_b is
    balanced: H kills it.  Tested on E x (module docstring).  Each (a, b)
    is its own key, and a product of two nonzero coefficients is nonzero,
    so the terms are written down as they are."""
    if not is_homogeneous(x):
        return False
    D = doubled_algebra(V)
    E = _denominator_lcm(x)
    terms = [(mask, cleared(c, E)) for mask, c in x.terms.items()]
    signed = [(mb << D.m, _psi_sign(mb) * cb) for mb, cb in terms]
    return not D.unbalanced({ma | kb: ca * cb for ma, ca in terms for kb, cb in signed})


def _divided(v, n: int):
    """v / n for a coefficient v of any ring and an ``int`` n: one
    ``Fraction`` for a rational v, and a ``RatFun``'s numerator divided as
    it stands, so its printed form is the one the product gave."""
    if n == 1:
        return v
    if isinstance(v, RatFun):
        return RatFun(_divided(v.num, n), v.den)
    if isinstance(v, Poly):
        return Poly([Fraction(c, n) for c in v.coeffs])
    return Fraction(v, n)


def norm_scalar(x: Multivector, V: QuadraticSpace):
    """x * tau(x) if it is a scalar multiple of e_0, else None.  Computed
    as x' tau(x') on the space of D^r Q, r = 1 for homogeneous x and 2
    otherwise, and divided once (module docstring): on ``int``s over Q,
    and ``int``-coefficient ``Poly``s over Q[t]."""
    D, S = V.scaled()
    r = 1 if is_homogeneous(x) else 2
    if r == 2 and D != 1:
        S = QuadraticSpace([[D * v for v in row] for row in S.gram])
    M, E = filtration_degree(x), _denominator_lcm(x)
    y = Multivector({a: cleared(c, E * D ** (r * (M - a.bit_count()) // 2)) for a, c in x.terms.items()})
    z = geometric_product(y, reverse(y, S), S)
    if z.terms.keys() <= {0}:
        return _divided(z.terms.get(0, 0), E * E * D ** (r * M))
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
    top = 1 << 2 * m
    cols, spin_cols = [], []
    for mask in masks:
        # the column of X = E_k: H of X (x) 1 + 1 (x) psi(X) (for E_0 the two
        # keys meet: H kills the scalar either way), and for the spin cut
        # X + tau(X) = 0 also its coordinates, keyed past every mask of V (+) V
        col = D.unbalanced({mask: 1, mask << m: _psi_sign(mask)})
        cols.append(col)
        tau = {top | b: c for b, c in reverse(Multivector({mask: 1}), V).terms.items()}
        spin_cols.append(axpy({**col, top | mask: 1}, 1, tau))
    # the solution space is span(e_0, 2-blades) exactly when it and its part
    # in that span, the kernel on the low columns, both have that dimension
    low = [col for mask, col in zip(masks, cols) if mask.bit_count() <= 2]
    return {
        "equals_even_filtration_le2": K - rank(cols, K) == 1 + m * (m - 1) // 2 == len(low) - rank(low, K),
        "spin_dim": K - rank(spin_cols, K),
    }
