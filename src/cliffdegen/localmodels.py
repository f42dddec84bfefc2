"""Matrix-tuple local models: algebra generation, cyclic vectors, trace
fingerprints for S-equivalence, adjoint centralizers, and the spinor image
of tuples from the even Lie algebra.

Tuples are considered up to simultaneous conjugation.  In characteristic 0
the closed orbits (semisimplifications) are separated by traces of words in
the generators; the default word-length bound n^2 is conservative and
recorded in the fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import Multivector, filtration_degree, is_even
from .liestructure import lie_pairs
from .linalg import SpanBasis, flatten, identity_matrix, mat_mul, mat_trace, nullspace_dense
from .rings import HALF
from .spinor import WittDecomposition, spinor_matrix


@dataclass
class MatrixTuple:
    g: int
    n: int
    X: tuple  # g matrices, each n x n of Fractions

    @staticmethod
    def of(mats) -> "MatrixTuple":
        mats = tuple(
            tuple(tuple(Fraction(v) for v in row) for row in m) for m in mats
        )
        if not mats:
            raise ValueError("empty tuple")
        n = len(mats[0])
        for m in mats:
            if len(m) != n or any(len(r) != n for r in m):
                raise ValueError("matrices must share a square shape")
        return MatrixTuple(g=len(mats), n=n, X=mats)

    def as_lists(self):
        return [[list(row) for row in m] for m in self.X]


def generates_full_algebra(T: MatrixTuple) -> bool:
    """Word-span growth from {Id, X_1..X_g}, closed under left
    multiplication by the generators; full means dimension n^2, which by
    Burnside is equivalent to simplicity of the natural module."""
    n = T.n
    span = SpanBasis()
    frontier = []
    for m in [identity_matrix(n)] + T.as_lists():
        if span.insert(flatten(m)):
            frontier.append(m)
    rounds = 0
    while frontier and span.dim < n * n:
        rounds += 1
        if rounds > n * n:
            raise AssertionError("span growth failed to stabilise within n^2 rounds")
        new = []
        for x in T.as_lists():
            for m in frontier:
                prod = mat_mul(x, m)
                if span.insert(flatten(prod)):
                    new.append(prod)
        frontier = new
    return span.dim == n * n


def is_cyclic_vector(T: MatrixTuple, v) -> bool:
    """Word-span applied to v exhausts the column space."""
    v = [Fraction(x) for x in v]
    if len(v) != T.n:
        raise ValueError(f"vector length {len(v)} != n = {T.n}")
    span = SpanBasis()
    frontier = []
    if span.insert({i: x for i, x in enumerate(v) if x != 0}):
        frontier.append(v)
    while frontier and span.dim < T.n:
        new = []
        for x in T.as_lists():
            for w in frontier:
                img = [
                    sum((x[i][j] * w[j] for j in range(T.n) if w[j] != 0), Fraction(0))
                    for i in range(T.n)
                ]
                if span.insert({i: c for i, c in enumerate(img) if c != 0}):
                    new.append(img)
        frontier = new
    return span.dim == T.n


@dataclass
class TraceFingerprint:
    g: int
    n: int
    length_bound: int
    traces: dict  # word tuple over 1..g -> Fraction; includes the empty word


def trace_fingerprint(T: MatrixTuple, L: int = None) -> TraceFingerprint:
    """Traces of all words of length <= L (default n^2), computed along the
    word tree with running products."""
    if L is None:
        L = T.n * T.n
    traces = {(): Fraction(T.n)}
    mats = T.as_lists()

    def descend(word, prod, depth):
        for a in range(1, T.g + 1):
            nxt = mat_mul(prod, mats[a - 1])
            w = word + (a,)
            traces[w] = mat_trace(nxt)
            if depth + 1 < L:
                descend(w, nxt, depth + 1)

    if L > 0:
        descend((), identity_matrix(T.n), 0)
    return TraceFingerprint(g=T.g, n=T.n, length_bound=L, traces=traces)


def s_equivalent(T1: MatrixTuple, T2: MatrixTuple, L: int = None) -> bool:
    """Equal semisimplifications, detected by exact equality of trace
    fingerprints at word length n^2 (characteristic-0 criterion)."""
    if (T1.g, T1.n) != (T2.g, T2.n):
        raise ValueError("tuples must share (g, n)")
    f1 = trace_fingerprint(T1, L)
    f2 = trace_fingerprint(T2, L)
    return f1.traces == f2.traces


def centralizer_dim(T: MatrixTuple, h_basis) -> int:
    """Dimension of {Y in span(h) : [Y, X_i] = 0 for all i}.

    The tuple must lie inside span(h); vanishing dimension is the freeness
    proxy for centerless h.
    """
    h = [[[Fraction(v) for v in row] for row in m] for m in h_basis]
    n = T.n
    span = SpanBasis()
    for m in h:
        span.insert(flatten(m))
    for x in T.as_lists():
        if not span.contains(flatten(x)):
            raise ValueError("tuple element outside span(h)")
    d = len(h)
    rows = []
    for x in T.as_lists():
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


def spin_image_tuple(elements, ell: int, odd: bool = True) -> MatrixTuple:
    """Spinor image of a tuple of even-Lie-algebra classes for the split
    form of Witt index ell (odd flag selects so(2l+1) vs so(2l)).

    Each element is either a coefficient vector over the bivector pairs
    (lexicographic (i,j), i<j, for the Witt-ordered basis) or a Multivector
    lying in the even filtration-degree-<=2 part.  The class is lifted to
    its unique anti-automorphism-odd representative (subtracting half the
    trace-of-form scalar), whose spinor matrix represents it; operator
    brackets of images equal images of Lie brackets on the nose.
    """
    W = WittDecomposition(ell, odd=odd)
    V = W.space()
    m = V.m
    pairs = lie_pairs(m)
    dim = 1 << ell
    mats = []
    for el in elements:
        if isinstance(el, Multivector):
            if not is_even(el) or filtration_degree(el) > 2:
                raise NotInLieSpan("element outside the even degree-<=2 span")
            coeffs = {p: el.coefficient(p) for p in pairs}
        else:
            el = list(el)
            if len(el) != len(pairs):
                raise NotInLieSpan(
                    f"coefficient vector length {len(el)} != {len(pairs)}"
                )
            coeffs = {p: Fraction(c) for p, c in zip(pairs, el)}
        mv = Multivector()
        scalar_shift = Fraction(0)
        for (i, j), c in coeffs.items():
            if c == 0:
                continue
            mv = mv + Multivector.blade((i, j), c)
            scalar_shift += c * V.b(i, j)
        mat = spinor_matrix(mv, W)
        shift = scalar_shift * HALF
        for r in range(dim):
            mat[r][r] -= shift
        mats.append(tuple(tuple(row) for row in mat))
    return MatrixTuple(g=len(mats), n=dim, X=tuple(mats))
