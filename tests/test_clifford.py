"""Core Clifford arithmetic: anchored examples plus the algebraic laws as
hypothesis properties."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffdegen.clifford import (
    BladeIndexError,
    Multivector,
    QuadraticSpace,
    filtration_degree,
    geometric_product,
    is_even,
    is_odd,
    indices_of,
    reverse,
    specialize_space,
)
from cliffdegen.rings import CoefficientRingMismatch, PoleError, Poly, RatFun, eval_coeff

HALF = Fraction(1, 2)


def gp(x, y, V):
    return geometric_product(x, y, V)


# --- anchored examples -------------------------------------------------


def test_generator_square():
    V = QuadraticSpace([[3]])
    e1 = Multivector.basis_vector(1)
    assert gp(e1, e1, V) == Multivector.scalar(3)


def test_exterior_case_anticommutes():
    V = QuadraticSpace.zero(2)
    e1, e2 = Multivector.basis_vector(1), Multivector.basis_vector(2)
    assert gp(e1, e2, V) == Multivector.blade((1, 2))
    assert gp(e2, e1, V) == Multivector.blade((1, 2), -1)


def test_hyperbolic_idempotent():
    # oracle: two-step rewriting e2 e1 = e0 - e1 e2, so
    # (e1 e2)(e1 e2) = e1 (e0 - e1 e2) e2 = e1 e2 - q(e1) q(e2) e0 = e1 e2
    V = QuadraticSpace([[0, HALF], [HALF, 0]])
    a = gp(Multivector.basis_vector(1), Multivector.basis_vector(2), V)
    assert a == Multivector.blade((1, 2))
    assert gp(a, a, V) == Multivector.blade((1, 2))


def test_reverse_examples():
    V = QuadraticSpace([[0, HALF], [HALF, 0]])
    assert reverse(Multivector.basis_vector(1), V) == Multivector.basis_vector(1)
    assert reverse(Multivector.scalar(1), V) == Multivector.scalar(1)
    # oracle: tau(e12) = e2 e1 = b(1,2) e0 - e1 e2 = e0 - e12
    want = Multivector.scalar(1) - Multivector.blade((1, 2))
    assert reverse(Multivector.blade((1, 2)), V) == want


def test_even_part_and_filtration():
    assert filtration_degree(Multivector.scalar(1)) == 0
    assert filtration_degree(Multivector.zero()) == 0
    # m = 5: even blades number 2^4
    evens = [m for m in range(1 << 5) if bin(m).count("1") % 2 == 0]
    assert len(evens) == 16


def test_specialize_examples():
    t = Poly.t()
    V = QuadraticSpace([[t, 1], [1, t + 1]])
    assert specialize_space(V, 0).gram == ((0, 1), (1, 1))
    assert specialize_space(V, Fraction(1, 2)).gram == ((HALF, 1), (1, Fraction(3, 2)))
    pole = QuadraticSpace.diagonal([t, RatFun(Poly.const(1), Poly((1, -1)))])  # 1/(1-t)
    assert specialize_space(pole, 0).gram == ((0, 0), (0, 1))
    with pytest.raises(PoleError) as err:
        specialize_space(pole, 1)
    assert "(2,2)" in str(err.value)


def test_index_out_of_range_and_ring_mismatch():
    V = QuadraticSpace.zero(2)
    with pytest.raises(BladeIndexError):
        gp(Multivector.blade((3,)), Multivector.scalar(1), V)
    with pytest.raises(CoefficientRingMismatch):
        Multivector({0: 0.5})


# --- hypothesis properties ---------------------------------------------

small_fraction = st.fractions(
    min_value=-3, max_value=3, max_denominator=3
)


@st.composite
def space_and_elements(draw, nelems=2, max_m=4, max_terms=3):
    m = draw(st.integers(min_value=1, max_value=max_m))
    gram = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            v = draw(small_fraction)
            gram[i][j] = v
            gram[j][i] = v
    V = QuadraticSpace(gram)
    elems = []
    for _ in range(nelems):
        nterms = draw(st.integers(min_value=0, max_value=max_terms))
        terms = {}
        for _ in range(nterms):
            mask = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
            terms[mask] = draw(small_fraction)
        elems.append(Multivector(terms))
    return V, elems


@settings(max_examples=60, deadline=None)
@given(space_and_elements(nelems=3))
def test_associativity(data):
    V, (x, y, z) = data
    assert gp(gp(x, y, V), z, V) == gp(x, gp(y, z, V), V)


@settings(max_examples=40, deadline=None)
@given(space_and_elements(nelems=0, max_m=5))
def test_defining_relations(data):
    V, _ = data
    for i in range(1, V.m + 1):
        ei = Multivector.basis_vector(i)
        assert gp(ei, ei, V) == Multivector({0: V.q(i)})
        for j in range(1, V.m + 1):
            if i == j:
                continue
            ej = Multivector.basis_vector(j)
            anti = gp(ei, ej, V) + gp(ej, ei, V)
            assert anti == Multivector({0: V.b(i, j)})


@settings(max_examples=60, deadline=None)
@given(space_and_elements(nelems=2))
def test_filtration_and_parity(data):
    V, (x, y) = data
    p = gp(x, y, V)
    if not p.is_zero():
        assert filtration_degree(p) <= filtration_degree(x) + filtration_degree(y)
    if is_even(x) and is_even(y):
        assert is_even(p)
    if is_odd(x) and is_odd(y):
        assert is_even(p)
    if (is_even(x) and is_odd(y)) or (is_odd(x) and is_even(y)):
        assert is_odd(p)


@settings(max_examples=60, deadline=None)
@given(space_and_elements(nelems=2))
def test_reverse_antiautomorphism(data):
    V, (x, y) = data
    assert reverse(gp(x, y, V), V) == gp(reverse(y, V), reverse(x, V), V)
    assert reverse(reverse(x, V), V) == x
    lo = Multivector({m: c for m, c in x.terms.items() if bin(m).count("1") <= 1})
    assert reverse(lo, V) == lo


def _grade_involution(x):
    """Each blade of cardinality k scaled by (-1)^k."""
    return Multivector({m: (-c if m.bit_count() % 2 else c) for m, c in x.terms.items()})


@settings(max_examples=40, deadline=None)
@given(space_and_elements(nelems=2))
def test_grade_involution_automorphism(data):
    # the product is graded by parity, so the grade involution respects it
    V, (x, y) = data
    assert _grade_involution(gp(x, y, V)) == gp(
        _grade_involution(x), _grade_involution(y), V
    )


def _wedge(mask_a: int, mask_b: int):
    """Independent exterior-product oracle on blades."""
    if mask_a & mask_b:
        return None, 0
    sign = 1
    for i in indices_of(mask_b):
        crossings = bin(mask_a >> i).count("1")
        if crossings % 2:
            sign = -sign
    return mask_a | mask_b, sign


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_exterior_limit(m, data):
    V = QuadraticSpace.zero(m)
    a = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    got = gp(Multivector({a: Fraction(1)}), Multivector({b: Fraction(1)}), V)
    mask, sign = _wedge(a, b)
    want = Multivector.zero() if sign == 0 else Multivector({mask: Fraction(sign)})
    assert got == want


@settings(max_examples=30, deadline=None)
@given(space_and_elements(nelems=0, max_m=4), st.data())
def test_generator_products_bound_filtration(data, rnd):
    V, _ = data
    k = rnd.draw(st.integers(min_value=1, max_value=4))
    x = Multivector.scalar(1)
    for _ in range(k):
        coords = [rnd.draw(small_fraction) for _ in range(V.m)]
        v = Multivector({1 << i: c for i, c in enumerate(coords) if c != 0})
        x = gp(x, v, V)
    assert filtration_degree(x) <= k


def test_parametric_product_stays_polynomial():
    t = Poly.t()
    V = QuadraticSpace.diagonal([Poly.const(1), t])
    e1, e2 = Multivector.basis_vector(1), Multivector.basis_vector(2)
    prod = gp(gp(e1, e2, V), gp(e1, e2, V), V)
    assert prod == Multivector({0: -t})


def _specialize(x, c):
    """Coefficient-wise substitution t = c."""
    return Multivector({m: eval_coeff(v, Fraction(c)) for m, v in x.terms.items()})


def test_specialize_commutes_with_product():
    t = Poly.t()
    V = QuadraticSpace([[Poly.const(1), t], [t, Poly.const(2)]])
    x = Multivector({0b01: t, 0b11: Poly.const(3)})
    y = Multivector({0b10: t + 1, 0: Poly.const(-1)})
    for c in (0, 1, Fraction(5, 2)):
        Vc = specialize_space(V, c)
        lhs = _specialize(gp(x, y, V), c)
        rhs = gp(_specialize(x, c), _specialize(y, c), Vc)
        assert lhs == rhs


def test_scaled_space_is_the_integer_form():
    V = QuadraticSpace([[HALF, Fraction(1, 3)], [Fraction(1, 3), Fraction(-5, 4)]])
    D, S = V.scaled()
    assert D == 12
    assert S.gram == ((6, 4), (4, -15))
    assert all(type(v) is int for row in S.gram for v in row)
    assert S.scaled()[0] == 1
    # products on S have int coefficients and fill S's cache, not V's
    e1, e2 = Multivector.basis_vector(1), Multivector.basis_vector(2)
    gp(e2, e1, S)
    assert S._gen_cache and not V._gen_cache
    assert all(type(c) is int for out in S._gen_cache.values() for c in out.values())
    assert QuadraticSpace.zero(3).scaled()[0] == 1
    # over Q[t], D is the lcm of the denominators of every coefficient
    t = Poly.t()
    P = QuadraticSpace([[Poly([HALF, Fraction(1, 3)]), Fraction(1, 4)], [Fraction(1, 4), t]])
    D, S = P.scaled()
    assert D == 12
    assert S.gram == ((Poly([6, 4]), 3), (3, Poly([0, 12])))
    # an ordinary space: the constructor keeps its ints as it found them
    assert [type(v) for row in S.gram for v in row] == [Poly, int, int, Poly]
    assert QuadraticSpace(S.gram).gram == S.gram
    assert [type(v) for row in QuadraticSpace(S.gram).gram for v in row] == [Poly, int, int, Poly]
    assert all(type(c) is int for v in (S.gram[0][0], S.gram[1][1]) for c in v.coeffs)
    assert S.scaled()[0] == 1
    gp(e2 + e1, e1 + e2, S)
    assert S._gen_cache and not P._gen_cache
    for out in S._gen_cache.values():
        for c in out.values():
            assert type(c) is int or type(c) is Poly and all(type(x) is int for x in c.coeffs)
    W = QuadraticSpace.diagonal([RatFun(Poly.const(1), Poly.t()), 1])
    assert W.scaled() == (1, W) and W.scaled()[1] is W


def test_scaled_space_is_freed_with_its_space_without_the_cycle_collector():
    for gram in ([[HALF, 0], [0, Fraction(2, 3)]], [[Poly([HALF, 1]), 0], [0, Fraction(2, 3)]]):
        V = QuadraticSpace(gram)
        gp(Multivector.basis_vector(2), Multivector.basis_vector(1), V.scaled()[1])
        ref = weakref.ref(V.scaled()[1])
        gc.disable()
        try:
            del V
            assert ref() is None  # no reference cycle keeps S and its cache alive
        finally:
            gc.enable()
