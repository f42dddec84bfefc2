"""Matrix-tuple local models: algebra generation, cyclic vectors and
S-equivalence through one word-span closure (:func:`word_span`), trace
fingerprints, adjoint centralizers, and the spinor image of tuples from the
even Lie algebra.

Tuples are considered up to simultaneous conjugation.  In characteristic 0
the closed orbits (semisimplifications) are separated by traces of words in
the generators (Procesi).  The default word-length bound is
:func:`word_length_bound`, n^2, for the library and the CLI alike; it is
conservative and recorded in the fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import Multivector, mask_of
from .liestructure import lie_pairs
from .linalg import SpanBasis, flatten, identity_matrix, mat_mul, mat_trace, nullspace_dense
from .rings import HALF, InvariantViolation, as_rational
from .spinor import WittDecomposition, spinor_matrix


@dataclass
class MatrixTuple:
    g: int
    n: int
    X: tuple  # g matrices, each n x n of rationals (ints stay ints)

    @staticmethod
    def of(mats) -> "MatrixTuple":
        mats = tuple(tuple(tuple(map(as_rational, row)) for row in m) for m in mats)
        if not mats or not mats[0]:
            raise ValueError("empty tuple or 0 x 0 matrices")
        n = len(mats[0])
        for m in mats:
            if len(m) != n or any(len(r) != n for r in m):
                raise ValueError("matrices must share a square shape")
        return MatrixTuple(g=len(mats), n=n, X=mats)


def word_span(gens, start, rounds=None) -> list:
    """Basis of the span of the products w s, for s in ``start`` and w a word
    in ``gens`` of length <= ``rounds`` (any length when None).

    Round k multiplies the products kept in round k - 1 on the left by every
    generator and keeps a product only if it enlarges the span, so after k
    rounds the kept products span exactly the words of length <= k.  The
    closure ends when a round keeps nothing or the span is the whole space.
    """
    span = SpanBasis()
    basis = [m for m in start if span.insert(flatten(m))]
    ambient = len(start[0]) * len(start[0][0])
    frontier, done = basis, 0
    while frontier and span.dim < ambient and (rounds is None or done < rounds):
        done += 1
        if done > ambient:
            raise InvariantViolation(f"span growth failed to stabilise within {ambient} rounds")
        products = (mat_mul(x, m) for x in gens for m in frontier)
        frontier = [p for p in products if span.insert(flatten(p))]
        basis = basis + frontier
    return basis


def generates_full_algebra(T: MatrixTuple) -> bool:
    """The words in X_1..X_g span all n x n matrices; by Burnside this is
    equivalent to simplicity of the natural module."""
    return len(word_span(T.X, [identity_matrix(T.n)])) == T.n * T.n


def is_cyclic_vector(T: MatrixTuple, v) -> bool:
    """The words in X_1..X_g applied to v span the column space."""
    v = [as_rational(x) for x in v]
    if len(v) != T.n:
        raise ValueError(f"vector length {len(v)} != n = {T.n}")
    return len(word_span(T.X, [[[x] for x in v]])) == T.n


@dataclass
class TraceFingerprint:
    g: int
    n: int
    length_bound: int
    traces: dict  # word tuple over 1..g -> its trace; includes the empty word


def trace_fingerprint(T: MatrixTuple, L: int) -> TraceFingerprint:
    """Traces of all words of length <= L, computed along the word tree
    with running products.  The tree is walked with an explicit stack, so L
    is not bounded by the recursion limit."""
    traces = {(): T.n}
    stack = [((), identity_matrix(T.n))]
    while stack:
        word, prod = stack.pop()
        if len(word) == L:
            continue
        for a in range(1, T.g + 1):
            nxt = mat_mul(prod, T.X[a - 1])
            w = word + (a,)
            traces[w] = mat_trace(nxt)
            stack.append((w, nxt))
    return TraceFingerprint(g=T.g, n=T.n, length_bound=L, traces=traces)


def word_length_bound(n: int) -> int:
    """The default word-length bound for n x n tuples, n^2: traces of
    words of length <= n^2 generate the invariants of simultaneous
    conjugation (Razmyslov), so they separate semisimplifications."""
    return n * n


def s_equivalent(T1: MatrixTuple, T2: MatrixTuple, L: int = None) -> bool:
    """Equal traces on every word of length <= L (default
    :func:`word_length_bound`), the characteristic-0 test for equal
    semisimplifications.

    Traces are linear, so it suffices that tr X - tr Y vanishes on a basis
    of the span of the words in the block-diagonal generators X_i (+) Y_i:
    at most 2n^2 words instead of the sum of g^k over k <= L.
    """
    if (T1.g, T1.n) != (T2.g, T2.n):
        raise ValueError("tuples must share (g, n)")
    n = T1.n
    z = [0] * n
    gens = [[list(r) + z for r in x] + [z + list(r) for r in y] for x, y in zip(T1.X, T2.X)]
    basis = word_span(gens, [identity_matrix(2 * n)], word_length_bound(n) if L is None else L)
    return all(sum(w[i][i] - w[n + i][n + i] for i in range(n)) == 0 for w in basis)


def centralizer_dim(T: MatrixTuple, h_basis) -> int:
    """Dimension of {Y in span(h) : [Y, X_i] = 0 for all i}.

    The tuple must lie inside span(h); vanishing dimension is the freeness
    proxy for centerless h.
    """
    h = [[[as_rational(v) for v in row] for row in m] for m in h_basis]
    n = T.n
    if any(len(m) != n or any(len(r) != n for r in m) for m in h):
        raise ValueError(f"h must hold {n} x {n} matrices")
    span = SpanBasis()
    for m in h:
        span.insert(flatten(m))
    for x in T.X:
        if not span.contains(flatten(x)):
            raise ValueError("tuple element outside span(h)")
    d = len(h)
    rows = []
    for x in T.X:
        # [sum_k y_k h_k, x] = 0: one equation per matrix entry
        comms = [mat_mul(hk, x) for hk in h]
        comms2 = [mat_mul(x, hk) for hk in h]
        for i in range(n):
            for j in range(n):
                rows.append(
                    [comms[k][i][j] - comms2[k][i][j] for k in range(d)]
                )
    return len(nullspace_dense(rows, d))


class NotInLieSpan(ValueError):
    pass


def spin_image_tuple(elements, ell: int, odd: bool) -> MatrixTuple:
    """Spinor image of a tuple of even-Lie-algebra classes for the split
    form of Witt index ell (odd flag selects so(2l+1) vs so(2l)).

    Each element is a coefficient vector over the bivector pairs
    (lexicographic (i,j), i<j, for the Witt-ordered basis).  The class is
    lifted to its unique anti-automorphism-odd representative (subtracting
    half the trace-of-form scalar), whose spinor matrix represents it;
    operator brackets of images equal images of Lie brackets on the nose.
    """
    W = WittDecomposition(ell, odd=odd)
    V = W.space()
    m = V.m
    pairs = lie_pairs(m)
    dim = 1 << ell
    mats = []
    for el in elements:
        el = list(el)
        if len(el) != len(pairs):
            raise NotInLieSpan(f"coefficient vector length {len(el)} != {len(pairs)}")
        coeffs = {p: as_rational(c) for p, c in zip(pairs, el)}
        # one Multivector of the pair blades (it drops the zero ones)
        x = Multivector({mask_of(p): c for p, c in coeffs.items()})
        shift = HALF * sum(c * V.b(i, j) for (i, j), c in coeffs.items())
        mat = spinor_matrix(x, W)
        for r in range(dim):
            mat[r][r] -= shift
        mats.append(tuple(tuple(row) for row in mat))
    return MatrixTuple(g=len(mats), n=dim, X=tuple(mats))
