"""Basis-change invariance: one relation per command, on random forms.

A change of basis P gives an algebra isomorphism Cl(Q) -> Cl(W), with
Q = P^T W P, by e_i -> sum_k P_ki f_k.  With W diagonal and P unit upper
triangular with entries in Z/2, Q is a dense form whose answers must be
those of the transported element over the diagonal W, where the product has
no off-diagonal term.  So the easy monomial case is an oracle for the dense
one (metamorphic testing: Chen, Cheung and Yiu, HKUST-CS98-01, 1998).
The matrix-tuple local models have their own change of basis: conjugating
a tuple by an invertible G, and relabelling its generators, keeps every
verdict of ``localmodel``.

Each relation is a derandomized hypothesis test, as in
``test_hostile_input.py``.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from cliffdegen import cli, jsonio
from cliffdegen.acceptance import _random_unimodular
from cliffdegen.clifford import Multivector, QuadraticSpace, geometric_product, indices_of
from cliffdegen.liestructure import theta_tensor
from cliffdegen.linalg import mat_mul
from cliffdegen.lipschitz import lipschitz_report
from cliffdegen.localmodels import (
    MatrixTuple,
    centralizer_dim,
    generates_full_algebra,
    is_cyclic_vector,
    s_equivalent,
)
from cliffdegen.rings import Poly, RatFun, axpy
from test_liestructure import lambdas

DERANDOMIZED = settings(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

halves = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
diagonal_entries = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def unit_upper(draw, m):
    """P with ones on the diagonal and entries in Z/2 above it."""
    return [[1 if i == j else draw(halves) if i < j else 0 for j in range(m)] for i in range(m)]


def pullback(P, W):
    """P^T W P, for W a list of rows over any ring."""
    m = len(P)
    return [
        [sum(P[k][i] * W[k][l] * P[l][j] for k in range(m) for l in range(m) if W[k][l]) for j in range(m)]
        for i in range(m)
    ]


def diag(entries):
    m = len(entries)
    return [[entries[i] if i == j else 0 for j in range(m)] for i in range(m)]


@st.composite
def transports(draw):
    """(Q, W, P) for m = 2..4: W diagonal, P unit upper triangular,
    Q = P^T W P."""
    m = draw(st.integers(2, 4))
    W = diag(draw(st.lists(diagonal_entries, min_size=m, max_size=m)))
    P = draw(unit_upper(m))
    return QuadraticSpace(pullback(P, W)), QuadraticSpace(W), P


def transporter(P, W: QuadraticSpace):
    """x in Cl(P^T W P) -> its image in Cl(W); each blade's image is the
    product of its generators' images, built once."""
    m = len(P)
    images = {0: Multivector.scalar(1)}

    def blade(mask):
        if mask not in images:  # the image of the top generator e_(t+1) last
            t = mask.bit_length() - 1
            gen = Multivector({1 << k: P[k][t] for k in range(m)})
            images[mask] = geometric_product(blade(mask ^ (1 << t)), gen, W)
        return images[mask]

    def image(x: Multivector) -> Multivector:
        out: dict = {}
        for mask, c in x.terms.items():
            axpy(out, c, blade(mask).terms)
        return Multivector(out)

    return image


@st.composite
def lipschitz_cases(draw):
    """(Q, W, P, x): x in Cl(Q) a product of one to three random vectors (a
    Lipschitz element), or a random homogeneous element (rarely one)."""
    Q, W, P = draw(transports())
    m = Q.m
    if draw(st.booleans()):
        x = Multivector.scalar(1)
        for _ in range(draw(st.integers(1, 3))):
            v = draw(st.lists(halves, min_size=m, max_size=m))
            x = geometric_product(x, Multivector({1 << k: c for k, c in enumerate(v)}), Q)
    else:
        parity = draw(st.integers(0, 1))
        masks = [mask for mask in range(1 << m) if mask.bit_count() % 2 == parity]
        chosen = draw(st.lists(st.sampled_from(masks), min_size=2, max_size=6, unique=True))
        x = Multivector({mask: draw(halves.filter(bool)) for mask in chosen})
    return Q, W, P, x


@settings(DERANDOMIZED, max_examples=180)
@given(lipschitz_cases())
def test_lipschitz_verdict_and_norm_survive_the_transport(case):
    Q, W, P, x = case
    got, want = lipschitz_report(x, Q), lipschitz_report(transporter(P, W)(x), W)
    assert (got["verdict"], got["norm_scalar"]) == (want["verdict"], want["norm_scalar"]), (Q.gram, x)


@settings(DERANDOMIZED, max_examples=40)
@given(transports())
def test_theta_tensor_is_the_transported_product(transport):
    """Entry k of e_i e_j in the tensor of Q, taken over Q, is the
    coefficient of the image of e_k in the product of the images of e_i and
    e_j in Cl(W)."""
    Q, W, P = transport
    T = theta_tensor(Q)
    lam = lambdas(T)
    image = transporter(P, W)
    blades = [image(Multivector({mask: 1})) for mask in T.basis_masks]
    for i in range(T.dim):
        for j in range(T.dim):
            want = geometric_product(blades[i], blades[j], W)
            got: dict = {}
            for k, v in T.entry(i, j).items():
                axpy(got, Fraction(v * lam[k], lam[i] * lam[j]), blades[k].terms)
            assert Multivector(got) == want, (Q.gram, indices_of(T.basis_masks[i]), indices_of(T.basis_masks[j]))


t = Poly.t()
regular_entries = st.sampled_from(
    [
        Poly.const(1),
        Poly.const(-2),
        t,
        2 * t * t,
        t + 1,
        Poly.const(Fraction(1, 2)) - t,
        RatFun(Poly.const(1), t + 1),
        RatFun(t, 2 * t + 1),
    ]
)
POLE = RatFun(Poly.const(1), t)  # a pole at 0: an input error


@st.composite
def families(draw, m):
    """A symmetric Q(t) with zeros on and off the diagonal, so that the
    elimination must swap rows, and now and then a pole at 0 or a
    degenerate generic fibre."""
    Q = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            zero = draw(st.integers(0, 2)) == 0 if i == j else draw(st.booleans())
            Q[i][j] = Q[j][i] = 0 if zero else draw(regular_entries)
    if draw(st.integers(0, 9)) == 1:
        Q[0][0] = POLE
    return Q


@st.composite
def unimodular(draw, m):
    """A permutation of the rows of a unit upper triangular matrix with
    entries in Z/2: det P = +-1, so det 2 P^T Q P = det 2Q, and the
    permutation moves Q's zero diagonal entries, so the two eliminations
    swap rows at different steps."""
    perm = draw(st.permutations(range(m)))
    U = draw(unit_upper(m))
    return [U[perm[i]] for i in range(m)]


def analyze(space):
    text = json.dumps(jsonio.encode_space(space))
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(sys, "stdin", io.StringIO(text)))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        code = cli.main(["degenerate", "analyze", "--input", "-"])
    if code != 0:
        return code, None
    p = json.loads(out.getvalue())["payload"]
    return code, (p["radical_dim"], p["radical_nilpotency_index"], p["det"])


@settings(DERANDOMIZED, max_examples=40)
@given(st.sampled_from([3, 5]).flatmap(lambda m: st.tuples(families(m), unimodular(m))))
def test_degenerate_analyze_survives_a_unimodular_change_of_basis(case):
    Q, P = case
    want = analyze(QuadraticSpace(Q))
    assert analyze(QuadraticSpace(pullback(P, Q))) == want, (Q, P)


# -- localmodel: conjugation and relabelling of the generators ----------------

small = st.integers(-2, 2)


@st.composite
def matrix_tuples(draw, n, g):
    """g integer n x n matrices; now and then all upper triangular, a
    reducible tuple whose verdicts differ from a generic one's."""
    upper = draw(st.booleans())
    return [[[draw(small) if i <= j or not upper else 0 for j in range(n)] for i in range(n)] for _ in range(g)]


@st.composite
def relabellings(draw, g):
    """(seed of a unimodular conjugator, permutation of the g generators)."""
    return draw(st.integers(0, 2**16)), draw(st.permutations(range(g)))


def conjugator(seed: int, n: int):
    """``acceptance._random_unimodular``'s (G, G^-1) from ``seed``, and the
    map X -> G X G^-1 on matrices."""
    G, Ginv = _random_unimodular(random.Random(seed), n)
    return G, lambda x: mat_mul(G, mat_mul(x, Ginv))


def relabelled(X, seed: int, perm):
    """The tuple X conjugated by the unimodular matrix of ``seed``, and X
    with its generators permuted."""
    _, conj = conjugator(seed, len(X[0]))
    return MatrixTuple.of([conj(x) for x in X]), MatrixTuple.of([X[i] for i in perm])


sizes = st.tuples(st.integers(2, 3), st.integers(1, 3))


@settings(DERANDOMIZED, max_examples=30)
@given(sizes.flatmap(lambda s: st.tuples(matrix_tuples(*s), st.lists(small, min_size=s[0], max_size=s[0]), relabellings(s[1]))))
def test_localmodel_simple_survives_conjugation_and_relabelling(case):
    """Full generation, and v cyclic for X, hold exactly when G v is cyclic
    for G X G^-1, and when v is cyclic for X with its generators permuted."""
    X, v, (seed, perm) = case
    T = MatrixTuple.of(X)
    want = (generates_full_algebra(T), is_cyclic_vector(T, v))
    G, _ = conjugator(seed, T.n)
    C, P = relabelled(X, seed, perm)
    Gv = [sum(G[i][k] * v[k] for k in range(T.n)) for i in range(T.n)]
    assert (generates_full_algebra(C), is_cyclic_vector(C, Gv)) == want, (X, v, seed)
    assert (generates_full_algebra(P), is_cyclic_vector(P, v)) == want, (X, v, perm)


@st.composite
def sequiv_pairs(draw):
    """(X, Y, relabelling): Y is X itself, X's diagonal part (the same
    semisimplification when X is upper triangular), X with one entry moved,
    or an unrelated tuple."""
    n, g = draw(st.integers(2, 3)), draw(st.integers(2, 3))  # one generator has no relabelling
    X = draw(matrix_tuples(n, g))
    kind = draw(st.sampled_from(["same", "diagonal", "moved", "other"]))
    if kind == "same":
        Y = X
    elif kind == "diagonal":
        Y = [[[x[i][j] if i == j else 0 for j in range(n)] for i in range(n)] for x in X]
    elif kind == "moved":
        Y = [[list(row) for row in x] for x in X]
        a, i, j = draw(st.integers(0, g - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        Y[a][i][j] += draw(st.sampled_from([-1, 1]))
    else:
        Y = draw(matrix_tuples(n, g))
    return X, Y, draw(relabellings(g)), draw(st.integers(0, 2**16))


@settings(DERANDOMIZED, max_examples=30)
@given(sequiv_pairs())
def test_localmodel_sequiv_survives_conjugation_relabelling_and_swap(case):
    """S-equivalence is symmetric, and survives conjugating each tuple by
    its own unimodular matrix and permuting the generators of both alike."""
    X, Y, (seed, perm), other_seed = case
    T1, T2 = MatrixTuple.of(X), MatrixTuple.of(Y)
    want = s_equivalent(T1, T2)
    C1, P1 = relabelled(X, seed, perm)
    C2, P2 = relabelled(Y, other_seed, perm)
    assert s_equivalent(T2, T1) == want, (X, Y)
    assert s_equivalent(C1, C2) == want, (X, Y, seed, other_seed)
    assert s_equivalent(P1, P2) == want, (X, Y, perm)


@st.composite
def centralizer_cases(draw):
    """(h, X, relabelling): h the elementary matrices E_ij of gl_n, of its
    upper triangular part or of its diagonal, and X a tuple in span(h)."""
    n, g = draw(sizes)
    # the centralizers in the smaller spans vary most: draw them twice as often
    shape = draw(st.sampled_from(["gl", "upper", "diagonal", "upper", "diagonal"]))
    cells = [(i, j) for i in range(n) for j in range(n) if shape == "gl" or i == j or shape == "upper" and i < j]
    h = [[[int((r, c) == cell) for c in range(n)] for r in range(n)] for cell in cells]
    X = []
    for _ in range(g):
        coeffs = [draw(small) for _ in cells]
        X.append([[sum(a * m[r][c] for a, m in zip(coeffs, h)) for c in range(n)] for r in range(n)])
    return h, X, draw(relabellings(g))


@settings(DERANDOMIZED, max_examples=30)
@given(centralizer_cases(), st.data())
def test_localmodel_centralizer_survives_conjugation_and_relabelling(case, data):
    """The centralizer of X in span(h) has the dimension of the one of
    G X G^-1 in span(G h G^-1), of X with its generators permuted in
    span(h) listed backwards, and of X in the same span listed with a
    repeat of an element of h or an integer combination of them appended."""
    h, X, (seed, perm) = case
    want = centralizer_dim(MatrixTuple.of(X), h)
    _, conj = conjugator(seed, len(h[0]))
    C, P = relabelled(X, seed, perm)
    assert centralizer_dim(C, [conj(m) for m in h]) == want, (X, h, seed)
    assert centralizer_dim(P, h[::-1]) == want, (X, h, perm)
    n = len(h[0])
    repeat = data.draw(st.sampled_from(h))
    coeffs = data.draw(st.lists(small, min_size=len(h), max_size=len(h)))
    combo = [[sum(a * m[r][c] for a, m in zip(coeffs, h)) for c in range(n)] for r in range(n)]
    assert centralizer_dim(MatrixTuple.of(X), h + [repeat]) == want, (X, h, repeat)
    assert centralizer_dim(MatrixTuple.of(X), h + [combo, repeat]) == want, (X, h, coeffs)
