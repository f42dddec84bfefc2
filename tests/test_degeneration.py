"""Flat families, specialisation commutation, radicals, and witnesses."""

import random
from fractions import Fraction

import pytest

from cliffdegen.clifford import QuadraticSpace
from cliffdegen.degeneration import (
    NoWitness,
    _det_fraction_field,
    QuadraticFamily,
    certify_specialization,
    jacobson_radical,
)
from cliffdegen.liestructure import AlgebraTensor, even_blade_basis, theta_tensor
from cliffdegen.linalg import echelon
from cliffdegen.rings import InvariantViolation, Poly, RatFun, czero, eval_coeff


def t():
    return Poly.t()


def test_family_requires_regularity_at_zero():
    with pytest.raises(ValueError):
        QuadraticFamily(
            QuadraticSpace.diagonal([RatFun.const(1), RatFun(Poly.const(1), t())])
        )


def test_family_tensor_polynomial_entries():
    F = QuadraticFamily.diagonal([1, 1, t()])
    T = theta_tensor(F.space)
    for row in T.c.values():
        for v in row.values():
            if isinstance(v, Poly):
                assert len(v.coeffs) <= 2


def _specialize_tensor(T, c):
    """Coefficient-wise substitution t = c in every entry, zeros dropped."""
    c = Fraction(c)
    out = {}
    for key, row in T.c.items():
        vals = {k: x for k, v in row.items() if (x := eval_coeff(v, c))}
        if vals:
            out[key] = vals
    return AlgebraTensor(dim=T.dim, identity=T.identity, c=out, basis_masks=T.basis_masks)


def test_constant_family_and_commutation():
    F = QuadraticFamily.diagonal([1, t(), 2])
    T = theta_tensor(F.space)
    for c in (0, 5, Fraction(-3, 2)):
        assert _specialize_tensor(T, c) == theta_tensor(F.at(c))
    Fc = QuadraticFamily.diagonal([1, 2, 3])
    Tc = theta_tensor(Fc.space)
    assert _specialize_tensor(Tc, 7) == Tc


def test_fiber_dimension_is_constant():
    F = QuadraticFamily.diagonal([t(), 1, t()])
    for c in (0, 1, 2):
        assert theta_tensor(F.at(c)).dim == 4 == len(even_blade_basis(3))


def _m2_tensor():
    """M_2 in the unital basis (I, E12, E21, E22), written out by hand."""
    one = Fraction(1)
    c = {}
    for j in range(4):
        c[(0, j)] = {j: one}
        c[(j, 0)] = {j: one}
    c[(1, 2)] = {0: one, 3: -one}  # E12 E21 = I - E22
    c[(1, 3)] = {1: one}
    c[(2, 1)] = {3: one}
    c[(3, 2)] = {2: one}
    c[(3, 3)] = {3: one}
    return AlgebraTensor(dim=4, identity=0, c=c)


def test_radical_of_handwritten_matrix_algebra():
    T = _m2_tensor()
    T.verify_unital()
    assert jacobson_radical(T).dimension == 0


@pytest.mark.parametrize(
    "key, row, side",
    [((0, 2), {2: Fraction(2)}, "left"), ((3, 0), {}, "right"), ((1, 0), {1: 1, 2: 1}, "right")],
    ids=["left-scaled", "right-missing", "right-extra-term"],
)
def test_a_broken_identity_row_is_an_invariant_violation(key, row, side):
    T = _m2_tensor()
    T.c[key] = row
    with pytest.raises(InvariantViolation, match=f"identity fails on the {side} at"):
        T.verify_unital()
    with pytest.raises(InvariantViolation):
        jacobson_radical(T)


def test_radical_examples():
    assert jacobson_radical(theta_tensor(QuadraticSpace.diagonal([1, 1, 1]))).dimension == 0
    rep = jacobson_radical(theta_tensor(QuadraticSpace.diagonal([1, 1, 0])))
    assert rep.dimension == 2
    # the kernel directions are the even blades meeting the null direction:
    # coordinates 2 (e13) and 3 (e23) in the (e0, e12, e13, e23) basis
    assert echelon(rep.basis).dim == 2
    for vec in rep.basis:
        assert vec[0] == 0 and vec[1] == 0
    assert rep.nilpotency_index == 2


def test_radical_of_full_matrix_algebra_via_clifford():
    # Cl^+ of a nondegenerate odd form is a full matrix algebra; m = 3 gives M_2
    T = theta_tensor(QuadraticSpace.diagonal([1, -1, 1]))
    assert jacobson_radical(T).dimension == 0


def test_radical_rejects_parametric_tensor():
    F = QuadraticFamily.diagonal([1, 1, t()])
    with pytest.raises(ValueError):
        jacobson_radical(theta_tensor(F.space))


def test_witness_examples():
    w = certify_specialization(QuadraticFamily.diagonal([1, 1, t()]))
    assert w.det_generic == RatFun(Poly((0, 8)), Poly.const(1))
    assert w.radical.dimension == 2
    assert w.generic_radical_dim == 0

    w2 = certify_specialization(QuadraticFamily.diagonal([1, 1, 1]))
    assert w2.radical.dimension == 0

    w3 = certify_specialization(QuadraticFamily.diagonal([t(), t(), t()]))
    assert w3.radical.dimension == 3


def test_witness_requires_odd_m_and_generic_nondegeneracy():
    with pytest.raises(ValueError):
        certify_specialization(QuadraticFamily.diagonal([1, t()]))
    with pytest.raises(NoWitness):
        certify_specialization(QuadraticFamily.diagonal([t(), t(), Poly()]))


def test_semisimple_iff_nondegenerate_on_random_forms():
    rng = random.Random(41)
    for _ in range(50):
        m = rng.choice([3, 5])
        g = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                v = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                g[i][j] = v
                g[j][i] = v
        V = QuadraticSpace(g)
        twoq = [[2 * v for v in row] for row in V.gram]
        nondeg = echelon(twoq).dim == m
        rad = jacobson_radical(theta_tensor(V)).dimension
        assert (rad == 0) == nondeg


def test_radical_is_ideal_and_nil_by_construction():
    # jacobson_radical raises if the kernel fails the ideal or nil checks;
    # exercise a degenerate case of each parity of corank
    for diag in ([1, 1, 0], [1, 0, 0], [0, 0, 0]):
        rep = jacobson_radical(theta_tensor(QuadraticSpace.diagonal(diag)))
        assert rep.nilpotency_index <= 4


def test_det_fraction_field_matches_sympy_with_row_swaps():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    T = sympy.Symbol("t")

    def sym(v):
        if isinstance(v, RatFun):
            return sym(v.num) / sym(v.den)
        if isinstance(v, Poly):
            terms = (sympy.Rational(c.numerator, c.denominator) * T**i for i, c in enumerate(v.coeffs))
            return sum(terms, sympy.Integer(0))
        return sympy.Rational(v.numerator, v.denominator)

    rng = random.Random(41)

    def poly():
        return Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))])

    def entry():
        kind = rng.random()
        if kind < 0.2:
            return Fraction(0)
        if kind < 0.6:
            return poly()
        return RatFun(poly(), Poly([rng.randint(1, 3), rng.randint(-2, 2)]))

    swaps = {"first": 0, "second": 0}
    for trial in range(90):
        case = trial % 3
        n = rng.randint((2, 3, 1)[case], 4)
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        if case == 0:
            rows[0][0] = Fraction(0)  # the first pivot is zero
        elif case == 1:
            # rows 0 and 1 agree up to a factor on the first two columns, so
            # the second pivot vanishes after the first elimination step
            rows[0][0] = rows[0][0] or poly() + Poly.t()
            f = entry() or Fraction(2)
            rows[1][0], rows[1][1] = f * rows[0][0], f * rows[0][1]
        got = _det_fraction_field(rows)
        assert isinstance(got, RatFun)
        M = DomainMatrix.from_Matrix(sympy.Matrix([[sym(v) for v in row] for row in rows]))
        K = M.domain
        want = sympy.cancel(K.to_sympy(M.to_field().det()))
        # got = num/den is not reduced: compare num with want * den in Q(t)
        assert K.from_sympy(sym(got.num)) == K.from_sympy(want) * K.from_sympy(sym(got.den)), rows
        if want != 0 and case < 2:
            swaps[("first", "second")[case]] += 1
    assert min(swaps.values()) >= 8, swaps
