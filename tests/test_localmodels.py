"""Matrix-tuple local models: the word-span closure behind generation,
cyclic vectors and S-equivalence, trace fingerprints, centralizers, and the
spinor image."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cliffdegen import linalg, localmodels
from cliffdegen.acceptance import _random_unimodular
from cliffdegen.clifford import Multivector, mask_of
from cliffdegen.linalg import SpanBasis, flatten, identity_matrix, mat_mul, mat_sub, nullspace_dense
from cliffdegen.localmodels import (
    MODULI,
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


# --- the closure modulo a prime against the closure over Q ---------------


def reference_word_span(gens, start, rounds=None) -> list:
    """The closure over Q that word_span ran before it worked modulo a
    prime: the reference for every verdict below."""
    span = SpanBasis()
    basis = [m for m in start if span.insert(flatten(m))]
    ambient = len(start[0]) * len(start[0][0])
    frontier, done = basis, 0
    while frontier and span.dim < ambient and (rounds is None or done < rounds):
        done += 1
        products = (mat_mul(x, m) for x in gens for m in frontier)
        frontier = [p for p in products if span.insert(flatten(p))]
        basis = basis + frontier
    return basis


def reference_simple(T: MatrixTuple) -> bool:
    return len(reference_word_span(T.X, [identity_matrix(T.n)])) == T.n * T.n


def reference_cyclic(T: MatrixTuple, v) -> bool:
    return len(reference_word_span(T.X, [[[x] for x in v]])) == T.n


def reference_sequiv(T1: MatrixTuple, T2: MatrixTuple, L: int) -> bool:
    n = T1.n
    z = [0] * n
    gens = [[list(r) + z for r in x] + [z + list(r) for r in y] for x, y in zip(T1.X, T2.X)]
    basis = reference_word_span(gens, [identity_matrix(2 * n)], L)
    return all(sum(w[i][i] - w[n + i][n + i] for i in range(n)) == 0 for w in basis)


DERANDOMIZED = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = ("generic", "reducible", "conjugate", "fraction")


@st.composite
def local_models(draw):
    """(kind, first tuple, second tuple, vector, L) with n, g <= 3; the
    single-tuple tests take the second.

    generic: integer entries; reducible: upper triangular; conjugate: the
    second tuple conjugated by a random unimodular matrix; fraction: entries
    with denominators up to 4.  The second tuple is the first, possibly
    changed in one entry (which for a reducible tuple keeps its traces when
    the entry lies above the diagonal), and conjugated.  The vector is the
    first column of the conjugator half of the time: for a reducible tuple,
    it spans an invariant line."""
    kind = draw(st.sampled_from(KINDS))
    n, g = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if kind == "fraction":
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    else:
        entry = st.integers(-3, 3)
    first = [
        [[draw(entry) if kind != "reducible" or j >= i else 0 for j in range(n)] for i in range(n)]
        for _ in range(g)
    ]
    second = [[list(row) for row in m] for m in first]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "reducible":
            i = min(i, j)
        second[-1][i][j] += draw(st.sampled_from((-1, 1, Fraction(1, 2))))
    P = identity_matrix(n)
    if kind == "conjugate" and n > 1:
        P, Pinv = _random_unimodular(draw(st.randoms(use_true_random=False)), n)
        second = [mat_mul(P, mat_mul(m, Pinv)) for m in second]
    if draw(st.booleans()):
        vector = [row[0] for row in P]
    else:
        vector = [draw(entry) for _ in range(n)]
    L = draw(st.sampled_from((0, 1, n * n, 2 * n * n + 3)))
    return kind, MatrixTuple.of(first), MatrixTuple.of(second), vector, L


@DERANDOMIZED
@given(local_models())
def test_simple_and_cyclic_verdicts_equal_the_rational_closure(model):
    kind, _, T, v, _ = model
    assert generates_full_algebra(T) is reference_simple(T), kind
    assert is_cyclic_vector(T, v) is reference_cyclic(T, v), kind


@DERANDOMIZED
@given(local_models())
def test_sequiv_verdict_equals_the_rational_closure(model):
    kind, T1, T2, _, L = model
    assert s_equivalent(T1, T2, L) is reference_sequiv(T1, T2, L), kind


@DERANDOMIZED
@given(local_models())
def test_a_modulus_of_3_leaves_every_simple_and_cyclic_verdict_right(model):
    """Modulo 3 many spans fall short; the closure over Q must then decide."""
    kind, _, T, v, _ = model
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localmodels, "_P", 3)
        mp.setattr(linalg, "_P", 3)
        assert generates_full_algebra(T) is reference_simple(T), kind
        assert is_cyclic_vector(T, v) is reference_cyclic(T, v), kind


def test_a_tuple_that_falls_short_modulo_the_prime_still_generates():
    # diag(0, 3) vanishes modulo 3, so modulo 3 only the words in the swap
    # remain: I and the swap; over Q the pair generates M_2
    T = MatrixTuple.of([[[0, 0], [0, 3]], [[0, 1], [1, 0]]])
    assert len(word_span(T.X, [identity_matrix(2)], p=3)) == 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localmodels, "_P", 3)
        assert generates_full_algebra(T)
        assert is_cyclic_vector(T, [1, 0])


def test_word_span_modulo_a_prime_keeps_ints_below_the_prime():
    # the denominators are cleared per generator: 4Y = [[2, -4], [0, -3]]
    Y = [[Fraction(1, 2), -1], [0, Fraction(-3, 4)]]
    assert word_span([Y], [identity_matrix(2)], p=7) == [identity_matrix(2), [[2, 3], [0, 4]]]
    X = [[0, 0, 0], [5, 0, 0], [0, 5, 0]]
    assert word_span([X], [identity_matrix(3)], p=7)[2] == [[0, 0, 0], [0, 0, 0], [25 % 7, 0, 0]]
    span = SpanBasis(7)
    assert span.insert({0: 2, 1: -4, 3: -3}) and span.pivots[0] == {0: 1, 1: 5, 3: 2}
    assert span.contains({0: 9, 1: 3, 3: 4}) and not span.insert({0: -5, 1: 3, 3: -3})


def test_a_trace_difference_of_the_first_modulus_is_seen():
    """tr X - tr Y = 2^61 - 1 vanishes modulo the smallest listed prime; the
    bound 2 (nM)^L picks a larger one."""
    first, second = MatrixTuple.of([[[(1 << 61) - 1]]]), MatrixTuple.of([[[0]]])
    assert not s_equivalent(first, second)
    assert not s_equivalent(first, second, 1)
    assert s_equivalent(first, second, 0)
    # cleared by 4 the entry is 2^61 - 1 again: the bound must see the
    # cleared entry, not (2^61 - 1) / 4
    quarter = MatrixTuple.of([[[Fraction((1 << 61) - 1, 4)]]])
    assert not s_equivalent(quarter, second)


def test_a_bound_above_every_modulus_runs_over_q():
    # 2 (nM)^L' with M = 2^4500 exceeds the largest listed prime
    big = 1 << 4500
    assert 2 * big > MODULI[-1]
    T1, T2 = MatrixTuple.of([[[big]]]), MatrixTuple.of([[[big]]])
    assert s_equivalent(T1, T2)
    assert not s_equivalent(T1, MatrixTuple.of([[[big + MODULI[-1]]]]))


def test_every_modulus_is_prime():
    sympy = pytest.importorskip("sympy")
    assert list(MODULI) == sorted(MODULI)
    assert all(sympy.isprime(p) for p in MODULI)


# --- the centralizer by ranks against the kernel of its old system -------


def reference_centralizer_dim(T: MatrixTuple, h) -> int:
    """centralizer_dim before it counted by ranks: the kernel of the
    g n^2 x d system sum_k y_k [h_k, X_i] = 0 over Q.  It counts
    coefficient vectors y, so it agrees with the dimension in span(h) only
    for independent h_k."""
    n, d = T.n, len(h)
    rows = []
    for x in T.X:
        comms = [mat_mul(hk, x) for hk in h]
        comms2 = [mat_mul(x, hk) for hk in h]
        for i in range(n):
            for j in range(n):
                rows.append([comms[k][i][j] - comms2[k][i][j] for k in range(d)])
    return len(nullspace_dense(rows, d))


@st.composite
def centralizer_models(draw):
    """(kind, tuple, h) with n, g <= 3 and h independent: the elementary
    matrices of gl_n, of its upper triangular part or of its diagonal, sl_2,
    or random matrices (integer or with denominators up to 4) kept while
    they stay independent; the tuple is drawn in span(h)."""
    kind = draw(st.sampled_from(("gl", "upper", "diagonal", "sl2", "random", "fraction")))
    n, g = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = [(i, j) for i in range(n) for j in range(n) if kind == "gl" or i == j or kind == "upper" and i < j]
    h = [[[int((r, c) == cell) for c in range(n)] for r in range(n)] for cell in cells]
    if kind == "sl2":
        n, h = 2, [list(m) for m in SL2]
    elif kind in ("random", "fraction"):
        entry = st.integers(-3, 3) if kind == "random" else st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
        span, h = SpanBasis(), []
        for _ in range(draw(st.integers(1, n * n))):
            m = [[draw(entry) for _ in range(n)] for _ in range(n)]
            if span.insert(flatten(m)):
                h.append(m)
        if not h:
            h = [identity_matrix(n)]
    X = []
    for _ in range(g):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(h), max_size=len(h)))
        X.append([[sum(a * m[r][c] for a, m in zip(coeffs, h)) for c in range(n)] for r in range(n)])
    return kind, MatrixTuple.of(X), h


@DERANDOMIZED
@given(centralizer_models())
def test_the_centralizer_equals_the_kernel_reference_for_independent_h(model):
    kind, T, h = model
    assert centralizer_dim(T, h) == reference_centralizer_dim(T, h), kind


@DERANDOMIZED
@given(centralizer_models())
def test_a_modulus_of_3_leaves_every_centralizer_right(model):
    """Modulo 3 the rank of the commutator images often falls short; the
    rank over Q must then decide."""
    kind, T, h = model
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_P", 3)
        assert centralizer_dim(T, h) == reference_centralizer_dim(T, h), kind


def test_a_centralizer_of_exactly_the_scalars_runs_no_pass_over_q(monkeypatch):
    """gl_3 holds the scalars, which commute with every tuple, so the images
    of its elementary matrices span at most 8 dimensions.  An irreducible
    pair reaches that bound modulo the prime: the rank is certified there,
    and no rank is recomputed over Q."""
    gl3 = [[[int((r, c) == (i, j)) for c in range(3)] for r in range(3)] for i in range(3) for j in range(3)]
    shifts = MatrixTuple.of([[[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 0], [1, 0, 0], [0, 1, 0]]])
    primes = []

    class Counted(SpanBasis):
        def __init__(self, p=None):
            primes.append(p)
            super().__init__(p)

    monkeypatch.setattr(linalg, "SpanBasis", Counted)
    assert centralizer_dim(shifts, gl3) == 1
    assert primes == [linalg._P]
    # a commuting pair has more than the scalars: its rank is still right,
    # from the pass over Q
    diagonal = MatrixTuple.of([[[1, 0, 0], [0, 2, 0], [0, 0, 3]], identity_matrix(3)])
    assert centralizer_dim(diagonal, gl3) == 3 and primes[1:] == [linalg._P, None]
