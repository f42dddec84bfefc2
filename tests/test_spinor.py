"""Spinor actions, matrix identifications, weights, restriction, and the
central involution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffdegen import cli, spinor
from cliffdegen.clifford import (
    Multivector,
    QuadraticSpace,
    filtration_degree,
    geometric_product,
    is_even,
)
from cliffdegen.rings import InvariantViolation
from cliffdegen.spinor import (
    UnknownGenerator,
    WittDecomposition,
    cartan_element,
    central_involution_check,
    clifford_action,
    even_algebra_isomorphism_check,
    halfspin_split,
    restrict_even_to_odd,
    spin_weights,
    spinor_matrix,
    verify_action_relations,
)

HALF = Fraction(1, 2)


def test_witt_space_gram():
    W = WittDecomposition(2, odd=True)
    V = W.space()
    assert V.m == 5
    assert V.b(1, 3) == 1 and V.b(2, 4) == 1  # b(n_i, p_i) = 1
    assert V.q(5) == 1  # q(u) = 1
    assert V.b(1, 2) == 0 and V.b(3, 4) == 0 and V.b(1, 5) == 0


def test_action_examples():
    W = WittDecomposition(2, odd=True)
    # n_1 wedges onto the empty monomial
    assert clifford_action(("n", 1), 0, W) == {0b01: 1}
    # p_1 contracts n_1 ^ n_2 to n_2 (Koszul sign +1: position of 1 is first)
    assert clifford_action(("p", 1), 0b11, W) == {0b10: 1}
    # u flips the sign of odd monomials
    assert clifford_action(("u",), 0b01, W) == {0b01: -1}
    with pytest.raises(UnknownGenerator):
        clifford_action(("x", 1), 0, W)
    with pytest.raises(UnknownGenerator):
        clifford_action(("u",), 0, WittDecomposition(2, odd=False))


def test_contraction_verified_against_relation():
    # oracle for the p-action: p_1 n_1 + n_1 p_1 must be the identity
    W = WittDecomposition(2, odd=True)
    for subset in range(4):
        via_pn = clifford_action(("p", 1), subset, W) if subset & 1 else {}
        acc = {}
        for s2, c in clifford_action(("n", 1), subset, W).items():
            for s3, c2 in clifford_action(("p", 1), s2, W).items():
                acc[s3] = acc.get(s3, 0) + c * c2
        for s2, c in clifford_action(("p", 1), subset, W).items():
            for s3, c2 in clifford_action(("n", 1), s2, W).items():
                acc[s3] = acc.get(s3, 0) + c * c2
        assert acc == {subset: 1}


@pytest.mark.parametrize("ell,odd", [(1, True), (1, False), (2, True), (2, False), (3, True), (3, False)])
def test_relations_hold_as_operators(ell, odd):
    assert verify_action_relations(WittDecomposition(ell, odd=odd)) is None


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_isomorphism_checks(ell):
    odd = even_algebra_isomorphism_check(WittDecomposition(ell, odd=True))
    assert odd["bijective"] and odd["operator_rank"] == 4 ** ell
    even = even_algebra_isomorphism_check(WittDecomposition(ell, odd=False))
    assert even["bijective"] and even["operator_rank"] == 2 ** (2 * ell - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_even_block_diagonal_odd_off_diagonal(ell, data):
    W = WittDecomposition(ell, odd=False)
    m = W.m
    dim = 1 << ell
    nterms = data.draw(st.integers(min_value=1, max_value=3))
    parity = data.draw(st.integers(min_value=0, max_value=1))
    masks = [mk for mk in range(1 << m) if bin(mk).count("1") % 2 == parity]
    terms = {}
    for _ in range(nterms):
        terms[data.draw(st.sampled_from(masks))] = data.draw(
            st.fractions(min_value=-2, max_value=2, max_denominator=2)
        )
    mat = spinor_matrix(Multivector(terms), W)
    for r in range(dim):
        for c in range(dim):
            if mat[r][c] == 0:
                continue
            same_block = bin(r).count("1") % 2 == bin(c).count("1") % 2
            assert same_block == (parity == 0)


def test_spin_weights_examples():
    w1 = spin_weights(1)
    assert w1 == {(HALF,): 1, (-HALF,): 1}
    w2 = spin_weights(2)
    assert len(w2) == 4 and all(v == 1 for v in w2.values())
    assert set(w2) == {(a, b) for a in (HALF, -HALF) for b in (HALF, -HALF)}
    w7p, w7m = halfspin_split(7)
    assert sum(w7p.values()) == 64 and sum(w7m.values()) == 64


def test_weights_read_the_sparse_diagonal_and_check_it(monkeypatch):
    # the weights are the diagonals of the dense Cartan matrices
    W = WittDecomposition(4, odd=False)
    mats = [spinor_matrix(cartan_element(i, W), W) for i in range(1, 5)]
    want: dict = {}
    for s in range(16):
        wt = tuple(mat[s][s] for mat in mats)
        want[wt] = want.get(wt, 0) + 1
    assert spin_weights(4) == want
    plus, minus = halfspin_split(4)
    assert {**plus, **minus} == want and sum(plus.values()) == 8
    # an element that moves monomials is refused, and the CLI reports it
    monkeypatch.setattr(spinor, "cartan_element", lambda i, W: W.n(i) + W.p(i))
    for weights in (spin_weights, halfspin_split):
        with pytest.raises(InvariantViolation, match="non-diagonally"):
            weights(3)
    assert cli.main(["spinor", "weights", "--ell", "3", "--type", "D"]) == 2


def test_weights_distinct_and_cartans_in_lie_algebra():
    for ell in (1, 2, 3):
        w = spin_weights(ell)
        assert len(w) == 2 ** ell and all(v == 1 for v in w.values())
        W = WittDecomposition(ell, odd=False)
        for i in range(1, ell + 1):
            h = cartan_element(i, W)
            assert is_even(h) and filtration_degree(h) <= 2


def test_restriction_examples():
    rep = restrict_even_to_odd(2)
    assert rep["plus_matches"] and rep["minus_matches"]
    assert rep["restricted_plus"] == {(HALF,): 1, (-HALF,): 1}
    rep3 = restrict_even_to_odd(3)
    assert rep3["plus_matches"] and rep3["minus_matches"]
    rep4 = restrict_even_to_odd(4)
    assert sum(rep4["restricted_plus"].values()) == 8
    with pytest.raises(ValueError):
        restrict_even_to_odd(1)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_central_involution(ell):
    rep = central_involution_check(ell)
    assert rep["square_is_identity"]
    assert rep["anticommutes_with_vectors"]
    assert rep["acts_by_plus_minus_scalar"]
    assert rep["scalar"] ** 2 == 1


def test_spinor_matrix_multiplicative():
    W = WittDecomposition(2, odd=True)
    V = W.space()
    x = Multivector.blade((1, 4)) + Multivector.scalar(2)
    y = Multivector.blade((2, 3)) - Multivector.basis_vector(5)
    from cliffdegen.linalg import mat_mul

    assert spinor_matrix(geometric_product(x, y, V), W) == mat_mul(
        spinor_matrix(x, W), spinor_matrix(y, W)
    )
