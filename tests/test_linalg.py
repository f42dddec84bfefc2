"""The echelon core against sympy as an independent oracle: reduced row
echelon forms, nullspaces, ranks and linear solves on random rational
matrices must agree exactly."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cliffdegen.acceptance import _inverse_unimodular
from cliffdegen.linalg import echelon, nullspace_dense, solve_augmented

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


@st.composite
def invertible(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(to_sympy(rows).det() != 0)
    return rows


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


@settings(max_examples=100, deadline=None)
@given(invertible(), st.data())
def test_solve_square_matches_sympy(A, data):
    n = len(A)
    b = data.draw(st.lists(entries, min_size=n, max_size=n))
    x = [row[0] for row in solve_augmented([row + [v] for row, v in zip(A, b)], n)]
    want = to_sympy(A).LUsolve(to_sympy([[v] for v in b]))
    assert x == [from_sympy(want[k, 0]) for k in range(n)]


@settings(max_examples=100, deadline=None)
@given(invertible())
def test_inverse_matches_sympy(g):
    inv = to_sympy(g).inv()
    n = len(g)
    assert _inverse_unimodular(g) == [[from_sympy(inv[i, j]) for j in range(n)] for i in range(n)]
