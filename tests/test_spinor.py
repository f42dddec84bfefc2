"""Spinor actions, matrix identifications, weights, restriction, and the
volume element on the half-spin modules."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffdegen import cli, linalg, spinor
from cliffdegen.clifford import (
    BladeIndexError,
    Multivector,
    _check_mask,
    filtration_degree,
    geometric_product,
    indices_of,
    is_even,
    mask_of,
)
from cliffdegen.rings import InvariantViolation, axpy
from cliffdegen.spinor import (
    WittDecomposition,
    _step,
    cartan_element,
    even_algebra_isomorphism_check,
    halfspin_split,
    restrict_even_to_odd,
    spin_weights,
    spinor_matrix,
    verify_action_relations,
)
from cliffdegen.liestructure import even_blade_basis
from cliffdegen.linalg import SpanBasis

HALF = Fraction(1, 2)


# --- references: the word walk and the Fraction weights of the actions as
# they were before each blade took one step per monomial ---


def reference_spinor_columns(x, W):
    """Sparse columns of x on S, each blade acting as the composite of its
    generators' steps, rightmost first, walked anew for every column."""
    words = []
    for mask, coeff in x.terms.items():
        _check_mask(mask, W.m)
        words.append((coeff, indices_of(mask)[::-1]))
    cols = []
    for col in range(1 << W.ell):
        acc: dict = {}
        for coeff, word in words:
            row, sign = col, 1
            for k in word:
                hit = _step(k, row, W)
                if hit is None:
                    break
                row, s = hit
                sign *= s
            else:
                axpy(acc, coeff, {row: sign})
        cols.append(acc)
    return cols


def reference_cartan_weights(ell):
    """The weight of each monomial of S, as ``Fraction``s: the diagonals of
    h_i = (n_i p_i - p_i n_i) / 2 on the word-walk columns."""
    W = WittDecomposition(ell, odd=False)
    V = W.space()
    diagonals = []
    for i in range(1, ell + 1):
        h = (geometric_product(W.n(i), W.p(i), V) - geometric_product(W.p(i), W.n(i), V)).scale(HALF)
        cols = reference_spinor_columns(h, W)
        assert not any(col.keys() - {s} for s, col in enumerate(cols))
        diagonals.append([col.get(s, 0) for s, col in enumerate(cols)])
    return [tuple(diag[s] for diag in diagonals) for s in range(1 << ell)]


@pytest.mark.parametrize("ell,odd", [(ell, odd) for ell in range(5) for odd in (True, False)])
def test_columns_of_every_blade_match_the_word_walk(ell, odd):
    W = WittDecomposition(ell, odd=odd)
    for mask in range(1 << W.m):
        x = Multivector({mask: 1})
        got = spinor.spinor_columns(x, W)
        assert got == reference_spinor_columns(x, W)
        assert all(type(v) is int for col in got for v in col.values())


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 4), st.booleans(), st.data())
def test_columns_of_random_multivectors_match_the_word_walk(ell, odd, data):
    # repeated rows across blades, cancellations and Fraction coefficients
    W = WittDecomposition(ell, odd=odd)
    coeff = st.one_of(st.integers(-2, 2), st.fractions(min_value=-2, max_value=2, max_denominator=3))
    terms = data.draw(st.dictionaries(st.integers(0, (1 << W.m) - 1), coeff, max_size=8))
    x = Multivector(terms)
    assert spinor.spinor_columns(x, W) == reference_spinor_columns(x, W)


@pytest.mark.parametrize("ell", range(9))
def test_halved_doubled_weights_match_the_fraction_reference(ell):
    got = spinor._cartan_weights(ell)
    assert [tuple(Fraction(x, 2) for x in wt) for wt in got] == reference_cartan_weights(ell)
    assert all(type(x) is int for wt in got for x in wt)
    W = WittDecomposition(ell, odd=False)
    for i in range(1, ell + 1):
        assert all(type(c) is int for c in cartan_element(i, W).terms.values())


# --- dense references: the checks as they were before sparse columns ---


def dense_relations(W):
    """x y + y x = b(x,y) id on dense 2^l x 2^l matrices, entry by entry;
    the first failure by pair, then row-major entry."""
    V = W.space()
    m = W.m
    dim = 1 << W.ell
    mats = [spinor_matrix(Multivector.basis_vector(k), W) for k in range(1, m + 1)]
    for a in range(m):
        for b in range(a, m):
            want = V.b(a + 1, b + 1) if a != b else V.q(a + 1)
            for r in range(dim):
                for c in range(dim):
                    lhs = sum(
                        mats[a][r][k] * mats[b][k][c] + mats[b][r][k] * mats[a][k][c]
                        for k in range(dim)
                    )
                    if a == b:
                        lhs /= 2
                    if lhs != (want if r == c else 0):
                        return {
                            "pair": (a + 1, b + 1),
                            "entry": (r, c),
                            "got": lhs,
                            "want": want if r == c else 0,
                        }
    return None


def dense_operator_span(W):
    """(rank of the even blades' operators, block structure kept) from the
    r x c scan of their dense matrices; S+ and S- are numbered within
    themselves in the even case."""
    dim = 1 << W.ell
    pos = {s: i for i, s in enumerate(s for s in range(dim) if s.bit_count() % 2 == 0)}
    neg = {s: i for i, s in enumerate(s for s in range(dim) if s.bit_count() % 2 == 1)}
    half = max(dim // 2, 1)
    span = SpanBasis()
    block_ok = True
    for mask in even_blade_basis(W.m):
        mat = spinor_matrix(Multivector({mask: Fraction(1)}), W)
        vec = {}
        for r in range(dim):
            for c in range(dim):
                v = mat[r][c]
                if v == 0:
                    continue
                rp, cp = r.bit_count() % 2, c.bit_count() % 2
                if W.odd:
                    vec[r * dim + c] = v
                elif rp != cp:
                    block_ok = False
                elif rp == 0:
                    vec[pos[r] * half + pos[c]] = v
                else:
                    vec[half * half + neg[r] * half + neg[c]] = v
        span.insert(vec)
    return span.dim, block_ok


def _koszul_flipped(step):
    """p_i takes its sign from the monomials above i instead of below."""

    def flipped(k, subset, W):
        i = k - W.ell  # p_i is basis vector l + i
        bit = 1 << (i - 1) if 1 <= i <= W.ell else 0
        if subset & bit:
            return subset ^ bit, (-1) ** (subset >> i).bit_count()
        return step(k, subset, W)

    return flipped


def _n_sign_dropped(step):
    """n_i wedges on with sign +1 always."""

    def dropped(k, subset, W):
        out = step(k, subset, W)
        return (out[0], abs(out[1])) if out and k <= W.ell else out

    return dropped


def _u_unsigned(step):
    """u acts as the identity instead of the parity sign."""

    def unsigned(k, subset, W):
        return (subset, 1) if W.odd and k == W.m else step(k, subset, W)

    return unsigned


CASES = [(ell, odd) for ell in (0, 1, 2, 3) for odd in (True, False)]
WRONG_ACTIONS = (
    [(_koszul_flipped, ell, odd) for ell in (2, 3) for odd in (True, False)]
    + [(_n_sign_dropped, ell, odd) for ell in (2, 3) for odd in (True, False)]
    + [(_u_unsigned, ell, True) for ell in (1, 2, 3)]
)


@pytest.mark.parametrize("ell,odd", CASES)
def test_sparse_relations_match_the_dense_reference(ell, odd):
    W = WittDecomposition(ell, odd=odd)
    assert verify_action_relations(W) is None
    assert dense_relations(W) is None


@pytest.mark.parametrize("mutate,ell,odd", WRONG_ACTIONS)
def test_a_wrong_action_fails_both_checks_alike(monkeypatch, mutate, ell, odd):
    monkeypatch.setattr(spinor, "_step", mutate(_step))
    W = WittDecomposition(ell, odd=odd)
    sparse, dense = verify_action_relations(W), dense_relations(W)
    assert dense is not None and sparse == dense
    assert [type(sparse[k]) for k in ("got", "want")] == [type(dense[k]) for k in ("got", "want")]
    report = even_algebra_isomorphism_check(W)
    assert not report["relations_ok"] and not report["bijective"]
    assert report["first_failed_relation"] == dense


def test_the_first_failure_is_the_first_entry_in_row_major_order(monkeypatch):
    # n_1 replaced by A = E_01 + E_13 + E_30, whose square E_03 + E_10 + E_31
    # fails at (0, 3) first by rows and at (1, 0) first by columns
    W = WittDecomposition(2, odd=False)
    real = spinor.spinor_columns
    A = [{3: Fraction(1)}, {0: Fraction(1)}, {}, {1: Fraction(1)}]

    def columns(x, W):
        return [dict(col) for col in A] if x == W.n(1) else real(x, W)

    monkeypatch.setattr(spinor, "spinor_columns", columns)
    failure = verify_action_relations(W)
    assert failure == {"pair": (1, 1), "entry": (0, 3), "got": 1, "want": 0}
    assert dense_relations(W) == failure


@pytest.mark.parametrize("ell", [1, 2])
def test_an_operator_across_the_halves_breaks_the_block_structure(monkeypatch, ell):
    # an odd blade (n_1) among the even ones maps S+ to S-
    W = WittDecomposition(ell, odd=False)
    monkeypatch.setattr(spinor, "even_blade_basis", lambda m: even_blade_basis(m) + (1,))
    rep = even_algebra_isomorphism_check(W)
    assert rep["relations_ok"] and rep["block_structure_ok"] is False
    assert not rep["bijective"]


@pytest.mark.parametrize("ell,odd", CASES)
def test_operator_span_matches_the_dense_reference(ell, odd):
    W = WittDecomposition(ell, odd=odd)
    rep = even_algebra_isomorphism_check(W)
    rank, block_ok = dense_operator_span(W)
    assert rep["operator_rank"] == rank
    assert rep["block_structure_ok"] == (None if odd else block_ok)
    assert rep["bijective"]
    assert rep["target_dim"] == rank == rep["dim_even_algebra"]


def test_even_zero_form_maps_onto_the_scalars():
    # Cl+ of the zero form is Q, and S = S+ is the line of the empty monomial
    rep = even_algebra_isomorphism_check(WittDecomposition(0, odd=False))
    assert rep["bijective"] and rep["relations_ok"] and rep["block_structure_ok"]
    assert rep["operator_rank"] == rep["target_dim"] == rep["dim_even_algebra"] == 1
    odd = even_algebra_isomorphism_check(WittDecomposition(0, odd=True))
    assert odd["bijective"] and odd["target_dim"] == 1


def test_witt_space_gram():
    W = WittDecomposition(2, odd=True)
    V = W.space()
    assert V.m == 5
    assert V.b(1, 3) == 1 and V.b(2, 4) == 1  # b(n_i, p_i) = 1
    assert V.q(5) == 1  # q(u) = 1
    assert V.b(1, 2) == 0 and V.b(3, 4) == 0 and V.b(1, 5) == 0


def test_action_examples():
    W = WittDecomposition(2, odd=True)  # n_1, n_2, p_1, p_2, u = e_1..e_5
    # n_1 wedges onto the empty monomial
    assert _step(1, 0, W) == (0b01, 1)
    # p_1 contracts n_1 ^ n_2 to n_2 (Koszul sign +1: position of 1 is first)
    assert _step(3, 0b11, W) == (0b10, 1)
    # n_2 wedges on past n_1, and p_2 contracts past it (Koszul sign -1)
    assert _step(2, 0b01, W) == (0b11, -1)
    assert _step(4, 0b11, W) == (0b01, -1)
    # n_i kills a monomial holding i, p_i one without it
    assert _step(1, 0b01, W) is None and _step(3, 0b10, W) is None
    # u flips the sign of odd monomials
    assert _step(5, 0b01, W) == (0b01, -1)
    assert _step(5, 0b11, W) == (0b11, 1)
    # a blade index outside 1..m: past the Witt basis, or u at even m
    with pytest.raises(BladeIndexError):
        spinor.spinor_columns(Multivector.basis_vector(6), W)
    with pytest.raises(BladeIndexError):
        spinor.spinor_columns(Multivector.basis_vector(5), WittDecomposition(2, odd=False))


def _apply(k, vec, W):
    """e_k on a sparse spinor element {monomial: coeff}, through the step."""
    out = {}
    for subset, c in vec.items():
        hit = _step(k, subset, W)
        if hit is not None:
            out[hit[0]] = out.get(hit[0], 0) + c * hit[1]
    return out


def test_contraction_verified_against_relation():
    # oracle for the p-action: p_1 n_1 + n_1 p_1 must be the identity
    W = WittDecomposition(2, odd=True)
    n1, p1 = 1, 3
    for subset in range(4):
        acc = _apply(p1, _apply(n1, {subset: 1}, W), W)
        for s, c in _apply(n1, _apply(p1, {subset: 1}, W), W).items():
            acc[s] = acc.get(s, 0) + c
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
    # doubled weights: +-1 stands for +-1/2
    w1 = spin_weights(1)
    assert w1 == {(1,): 1, (-1,): 1}
    w2 = spin_weights(2)
    assert len(w2) == 4 and all(v == 1 for v in w2.values())
    assert set(w2) == {(a, b) for a in (1, -1) for b in (1, -1)}
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
    assert rep["restricted_plus"] == {(1,): 1, (-1,): 1}  # doubled: +-1/2
    assert rep["spin_target"] == spin_weights(1)
    rep3 = restrict_even_to_odd(3)
    assert rep3["plus_matches"] and rep3["minus_matches"]
    rep4 = restrict_even_to_odd(4)
    assert sum(rep4["restricted_plus"].values()) == 8
    with pytest.raises(ValueError):
        restrict_even_to_odd(1)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_central_involution(ell):
    # w, the product over i of (n_i + p_i)(n_i - p_i), is an orthogonal
    # volume element of the even split form: w^2 = 1, w anticommutes with
    # every vector, and w acts as c on S+ and as -c on S-
    W = WittDecomposition(ell, odd=False)
    V = W.space()
    w = Multivector.scalar(1)
    for i in range(1, ell + 1):
        w = geometric_product(w, geometric_product(W.n(i) + W.p(i), W.n(i) - W.p(i), V), V)
    assert geometric_product(w, w, V) == Multivector.scalar(1)
    for k in range(1, W.m + 1):
        e = Multivector.basis_vector(k)
        assert (geometric_product(w, e, V) + geometric_product(e, w, V)).is_zero()
    cols = spinor.spinor_columns(w, W)
    c = cols[0][0]
    assert c * c == 1
    assert cols == [{s: c if s.bit_count() % 2 == 0 else -c} for s in range(1 << ell)]


def test_spinor_matrix_multiplicative():
    W = WittDecomposition(2, odd=True)
    V = W.space()
    x = Multivector({mask_of((1, 4)): 1}) + Multivector.scalar(2)
    y = Multivector({mask_of((2, 3)): 1}) - Multivector.basis_vector(5)
    from cliffdegen.linalg import mat_mul

    assert spinor_matrix(geometric_product(x, y, V), W) == mat_mul(
        spinor_matrix(x, W), spinor_matrix(y, W)
    )


def test_an_operator_rank_short_modulo_the_prime_is_recomputed_over_q(monkeypatch):
    """The identity blade listed twice makes two leading columns collide,
    so the operators are not in echelon form.  With every step's sign
    scaled by 3 (the relations then fail, and their check is skipped) each
    blade of degree 2 or more acts by a multiple of 3, so with the prime
    patched to 3 the rank modulo it is 1, and the report must still give
    the rank over Q, from the pass over Q that follows."""
    W = WittDecomposition(2, odd=False)
    want = even_algebra_isomorphism_check(W)
    assert want["operator_rank"] == want["target_dim"] == 8
    monkeypatch.setattr(spinor, "verify_action_relations", lambda W: None)
    monkeypatch.setattr(spinor, "_step", lambda k, c, W: (hit[0], 3 * hit[1]) if (hit := _step(k, c, W)) else None)
    monkeypatch.setattr(spinor, "even_blade_basis", lambda m: even_blade_basis(m) + (0,))
    monkeypatch.setattr(linalg, "_P", 3)
    primes = []

    class Counted(SpanBasis):
        def __init__(self, p=None):
            primes.append(p)
            super().__init__(p)

    monkeypatch.setattr(linalg, "SpanBasis", Counted)
    report = even_algebra_isomorphism_check(W)
    assert report["operator_rank"] == 8 and primes == [3, None]
    assert report["dim_even_algebra"] == 9 and not report["bijective"]
