"""The echelon core against sympy as an independent oracle: reduced row
echelon forms, nullspaces and ranks on random rational matrices must
agree exactly."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffdegen.acceptance import _random_unimodular
from cliffdegen.linalg import _P, SpanBasis, echelon, identity_matrix, mat_mul, nullspace_dense

sympy = pytest.importorskip("sympy")

# zeros are drawn often so that rank deficiency and free columns occur
entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=1, max_size=max_rows)), ncols


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_sympy(case):
    rows, ncols = case
    pivots = echelon(rows).rref()
    R, pivot_cols = to_sympy(rows).rref()
    assert sorted(pivots) == list(pivot_cols)
    for i, col in enumerate(pivot_cols):
        want = {j: from_sympy(R[i, j]) for j in range(ncols) if R[i, j] != 0}
        assert pivots[col] == want


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_nullspace_and_rank_match_sympy(case):
    rows, ncols = case
    M = to_sympy(rows)
    want = [[from_sympy(x) for x in vec] for vec in M.nullspace()]
    got = nullspace_dense(rows, ncols)
    assert got == want
    assert all(isinstance(x, Fraction) for vec in got for x in vec)
    assert echelon(rows).dim == M.rank()


def test_random_unimodular_returns_its_inverse():
    rng = random.Random(5)
    for n in (2, 3, 4) * 10:
        g, ginv = _random_unimodular(rng, n)
        assert mat_mul(g, ginv) == identity_matrix(n)


int_entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**30), 10**30))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_nullspace_of_a_square_int_matrix_matches_sympy(rows):
    """Square int matrices take the invertibility test modulo a prime
    first; singular ones still get the exact kernel."""
    n = len(rows)
    want = [[from_sympy(x) for x in vec] for vec in sympy.Matrix(rows).nullspace()]
    got = nullspace_dense(rows, n)
    assert got == want
    assert all(type(x) is Fraction for vec in got for x in vec)


def test_an_int_matrix_singular_only_modulo_the_prime_gets_its_kernel_exactly():
    # invertible over Q with determinant 2 * _P, so singular modulo _P
    assert nullspace_dense([[_P, 0], [0, 2]], 2) == []
    assert nullspace_dense([[_P, _P], [1, 1]], 2) == [[Fraction(-1), Fraction(1)]]


def test_span_basis_keeps_int_rows_exact():
    span = SpanBasis()
    assert span.insert({0: 2, 1: 3})
    assert span.pivots[0] == {0: 1, 1: Fraction(3, 2)}
    assert all(type(v) is Fraction for v in span.pivots[0].values())
    assert span.insert({1: 6, 2: -4}) and not span.insert({0: 4, 1: 12, 2: -4})
    assert span.contains({0: 2, 1: 9, 2: -4})
    rows = span.rref()
    assert all(type(v) is Fraction for row in rows.values() for v in row.values())
    assert rows == {0: {0: 1, 2: 1}, 1: {1: 1, 2: Fraction(-2, 3)}}
