"""Matrix-tuple local models: the word-span closure behind generation,
cyclic vectors and S-equivalence, trace fingerprints, centralizers, and the
spinor image."""

import random
from fractions import Fraction

import pytest

from cliffdegen.clifford import Multivector, mask_of
from cliffdegen.linalg import identity_matrix, mat_mul, mat_sub
from cliffdegen.localmodels import (
    MatrixTuple,
    NotInLieSpan,
    centralizer_dim,
    generates_full_algebra,
    is_cyclic_vector,
    s_equivalent,
    spin_image_tuple,
    trace_fingerprint,
    word_span,
)

NIL_PAIR = MatrixTuple.of([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
SL2 = ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]])


def test_generation_examples():
    assert generates_full_algebra(NIL_PAIR)
    assert not generates_full_algebra(MatrixTuple.of([identity_matrix(2)] * 2))
    assert not generates_full_algebra(
        MatrixTuple.of([[[1, 0], [0, 2]], [[3, 0], [0, 4]]])
    )


def test_cyclic_examples():
    assert is_cyclic_vector(NIL_PAIR, [1, 0])
    assert not is_cyclic_vector(NIL_PAIR, [0, 0])
    assert not is_cyclic_vector(
        MatrixTuple.of([[[1, 0], [0, 2]], [[3, 0], [0, 4]]]), [1, 0]
    )
    with pytest.raises(ValueError):
        is_cyclic_vector(NIL_PAIR, [1, 0, 0])


def test_generation_implies_random_nonzero_vectors_cyclic():
    rng = random.Random(3)
    assert generates_full_algebra(NIL_PAIR)
    for _ in range(20):
        v = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        if any(v):
            assert is_cyclic_vector(NIL_PAIR, v)


def test_fingerprint_contents():
    f = trace_fingerprint(MatrixTuple.of([[[1, 0], [0, 2]]]), 2)
    assert f.traces[()] == 2
    assert f.traces[(1,)] == 3
    assert f.traces[(1, 1)] == 5
    assert f.length_bound == 2


def test_fingerprint_walks_past_the_recursion_limit():
    # g = 1 admits L far above the interpreter's recursion limit
    f = trace_fingerprint(MatrixTuple.of([[[1]]]), 2000)
    assert f.traces == {(1,) * k: 1 for k in range(2001)}


def test_sequiv_examples():
    a = MatrixTuple.of([[[1, 0], [0, 2]], [[0, 0], [0, 0]]])
    b = MatrixTuple.of([[[2, 0], [0, 1]], [[0, 0], [0, 0]]])
    assert s_equivalent(a, b)
    c1 = MatrixTuple.of([[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    c2 = MatrixTuple.of([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert s_equivalent(c1, c2)
    with pytest.raises(ValueError):
        s_equivalent(a, MatrixTuple.of([[[1]]]))


def test_sequiv_separates_simple_from_split():
    # a generating (hence simple) tuple cannot match a block-diagonal one
    split = MatrixTuple.of([[[0, 0], [0, 0]], [[1, 0], [0, 1]]])
    assert not s_equivalent(NIL_PAIR, split)
    diag_split = MatrixTuple.of([[[1, 0], [0, -1]], [[0, 0], [0, 0]]])
    assert not s_equivalent(NIL_PAIR, diag_split)


def test_conjugation_invariance_random():
    rng = random.Random(19)
    for n in (2, 3):
        base = MatrixTuple.of(
            [
                [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
                for _ in range(2)
            ]
        )
        for _ in range(10):
            g = identity_matrix(n)
            for _ in range(2 * n):
                i, j = rng.sample(range(n), 2)
                e = identity_matrix(n)
                e[i][j] = Fraction(rng.randint(-2, 2))
                g = mat_mul(g, e)
            # invert by augmenting
            aug = [list(row) + list(identity_matrix(n)[k]) for k, row in enumerate(g)]
            for col in range(n):
                piv = next(r for r in range(col, n) if aug[r][col] != 0)
                aug[col], aug[piv] = aug[piv], aug[col]
                inv = Fraction(1, aug[col][col])
                aug[col] = [v * inv for v in aug[col]]
                for r in range(n):
                    if r != col and aug[r][col] != 0:
                        f = aug[r][col]
                        aug[r] = [v - f * p for v, p in zip(aug[r], aug[col])]
            ginv = [row[n:] for row in aug]
            conj = MatrixTuple.of([mat_mul(g, mat_mul(m, ginv)) for m in base.X])
            assert s_equivalent(base, conj)


def test_centralizer_examples():
    assert centralizer_dim(NIL_PAIR, list(SL2)) == 0
    zero = MatrixTuple.of([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert centralizer_dim(zero, list(SL2)) == 3
    h_only = MatrixTuple.of([[[1, 0], [0, -1]], [[0, 0], [0, 0]]])
    assert centralizer_dim(h_only, list(SL2)) == 1
    outside = MatrixTuple.of([identity_matrix(2)])
    with pytest.raises(ValueError):
        centralizer_dim(outside, list(SL2))


def test_spin_image_examples():
    img0 = spin_image_tuple([[0, 0, 0]], 1, odd=True)
    assert all(v == 0 for m in img0.X for row in m for v in row)
    # basis order on the spin module: empty monomial first, so the Cartan
    # class of the first bivector pair acts as diag(-1/2, +1/2)
    h1 = spin_image_tuple([[1, 0, 0]], 1, odd=True).X[0]
    assert h1 == ((Fraction(-1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    pair = spin_image_tuple([[1, 0, 0], [0, 1, 1]], 1, odd=True)
    assert generates_full_algebra(pair)


def test_spin_image_validates_the_vector_length():
    with pytest.raises(NotInLieSpan):
        spin_image_tuple([[1, 0]], 1, odd=True)
    with pytest.raises(NotInLieSpan):
        spin_image_tuple([[1, 0, 0, 0]], 1, odd=True)


def test_spin_image_respects_brackets_exactly():
    from cliffdegen.clifford import geometric_product
    from cliffdegen.liestructure import lie_pairs
    from cliffdegen.spinor import WittDecomposition

    rng = random.Random(29)
    for ell, odd in ((1, True), (2, True), (2, False)):
        W = WittDecomposition(ell, odd=odd)
        V = W.space()
        pairs = lie_pairs(W.m)
        u = [Fraction(rng.randint(-2, 2)) for _ in pairs]
        v = [Fraction(rng.randint(-2, 2)) for _ in pairs]
        img = spin_image_tuple([u, v], ell, odd=odd)
        x, y = img.X
        lhs = mat_sub(mat_mul(x, y), mat_mul(y, x))
        xu = Multivector({})
        xv = Multivector({})
        for c, p in zip(u, pairs):
            xu = xu + Multivector({mask_of(p): c})
        for c, p in zip(v, pairs):
            xv = xv + Multivector({mask_of(p): c})
        com = geometric_product(xu, xv, V) - geometric_product(xv, xu, V)
        rhs = spin_image_tuple([[com.coefficient(p) for p in pairs]], ell, odd=odd)
        assert lhs == [list(row) for row in rhs.X[0]]


def test_word_span_stabilises_within_bound():
    rng = random.Random(57)
    for n in (2, 3):
        gens = [
            [[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
            for _ in range(2)
        ]
        # word_span raises if the closure runs past n^2 rounds (the number of
        # entries), since every round before it stops grows the span
        basis = word_span(gens, [identity_matrix(n)])
        assert 1 <= len(basis) <= n * n
        assert word_span(gens, [identity_matrix(n)], 0) == [identity_matrix(n)]


def test_word_span_rounds_cap_word_length():
    # X shifts e_1 -> e_2 -> e_3: after k rounds e_1 reaches e_(k+1)
    X = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    e1 = [[Fraction(1)], [Fraction(0)], [Fraction(0)]]
    assert [len(word_span([X], [e1], k)) for k in range(4)] == [1, 2, 3, 3]
    assert len(word_span([X], [identity_matrix(3)])) == 3


def test_empty_tuple_is_rejected():
    with pytest.raises(ValueError):
        MatrixTuple.of([[]])
    with pytest.raises(ValueError):
        MatrixTuple.of([])


def _conjugated(mats, rng):
    """mats conjugated by a product of elementary matrices I + c e_ij."""
    n = len(mats[0])
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        E, Einv = identity_matrix(n), identity_matrix(n)
        E[i][j], Einv[i][j] = Fraction(c), Fraction(-c)
        mats = [mat_mul(E, mat_mul(m, Einv)) for m in mats]
    return mats


def test_sequiv_agrees_with_the_fingerprint_at_every_length():
    """The closure on X (+) Y capped at L rounds gives the same verdict as
    comparing the traces of all words of length <= L, also at truncated L
    where the verdict flips (transposes differ first on long words)."""
    rng = random.Random(71)
    seen = set()

    def traces(T, L):  # trace_fingerprint(T, L).traces, from one enumeration
        return {w: t for w, t in fingerprints[T.X].items() if len(w) <= L}

    for n in (1, 2, 3):
        for g in (1, 2, 3):
            top = max(L for L in range(n * n + 1) if g**L <= 512)
            for _ in range(3):
                first = [
                    [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
                    for _ in range(g)
                ]
                shifted = [[list(r) for r in m] for m in first]
                shifted[-1][0][0] += 1
                pairs = {
                    "conjugated": _conjugated(first, rng),
                    "trace-shifted": _conjugated(shifted, rng),
                    "transposed": [[list(r) for r in zip(*m)] for m in first],
                }
                T1 = MatrixTuple.of(first)
                fingerprints = {T1.X: trace_fingerprint(T1, top).traces}
                for kind, second in pairs.items():
                    T2 = MatrixTuple.of(second)
                    fingerprints[T2.X] = trace_fingerprint(T2, top).traces
                    for L in range(top + 1):
                        want = traces(T1, L) == traces(T2, L)
                        assert s_equivalent(T1, T2, L) is want, (kind, first, L)
                        if L:
                            seen.add((kind, want))
    assert seen == {
        ("conjugated", True),
        ("trace-shifted", False),
        ("transposed", True),
        ("transposed", False),
    }
