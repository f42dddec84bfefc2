"""Matrix-tuple local models: algebra generation, cyclic vectors and
S-equivalence through one word-span closure (:func:`word_span`), trace
fingerprints, adjoint centralizers, and the spinor image of tuples from the
even Lie algebra.

Tuples are considered up to simultaneous conjugation.  In characteristic 0
the closed orbits (semisimplifications) are separated by traces of words in
the generators (Procesi).  The default word-length bound is
:func:`word_length_bound`, n^2, for the library and the CLI alike; it is
conservative and recorded in the fingerprint.

The closures run on ``int``s modulo a prime and stay exact.  A rank modulo
a prime that reaches the dimension of the whole space is the rank over Q;
generation and cyclic vectors fall back to the closure over Q only when it
does not.  S-equivalence works modulo a prime above a proven bound on the
trace differences, so its verdict modulo p is the verdict over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from .clifford import Multivector, mask_of
from .liestructure import lie_pairs
from .linalg import _P, SpanBasis, flatten, identity_matrix, mat_mul, mat_sub, mat_trace, rank
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


def _integral(m) -> list:
    """m times the lcm of the denominators of its entries: an ``int``
    matrix spanning the same line."""
    d = lcm(*(v.denominator for row in m for v in row))
    return [[v.numerator * (d // v.denominator) for v in row] for row in m]


def iter_word_span(gens, start, rounds=None, p=None):
    """Yield a basis of the span of the products w s, for s in ``start`` and
    w a word in ``gens`` of length <= ``rounds`` (any length when None), one
    kept product at a time, so a caller may stop at the first it rejects.

    Round k multiplies the products kept in round k - 1 on the left by every
    generator and keeps a product only if it enlarges the span, so after k
    rounds the kept products span exactly the words of length <= k.  The
    closure ends when a round keeps nothing or the span is the whole space.

    With a prime ``p`` the span is over Z/p: each generator and each start
    matrix is first scaled by the lcm of its denominators (a word then only
    gains a nonzero factor) and every kept product is an ``int`` matrix with
    entries in [0, p).  Products independent modulo p are independent over
    Q; a smaller span modulo p says nothing over Q.
    """
    if p is not None:
        gens = [_integral(x) for x in gens]
        start = [_integral(m) for m in start]
    span = SpanBasis(p)
    ambient = len(start[0]) * len(start[0][0])
    candidates, done = start, 0
    while True:
        frontier = []
        for m in candidates:
            if span.insert(flatten(m)):
                # a kept product is multiplied again: reduce its entries
                m = m if p is None else [[v % p for v in row] for row in m]
                frontier.append(m)
                yield m
        if not frontier or span.dim == ambient or (rounds is not None and done >= rounds):
            return
        done += 1
        if done > ambient:
            raise InvariantViolation(f"span growth failed to stabilise within {ambient} rounds")
        candidates = (mat_mul(x, m) for x, m in product(gens, frontier))


def word_span(gens, start, rounds=None, p=None) -> list:
    """The basis :func:`iter_word_span` yields, as a list."""
    return list(iter_word_span(gens, start, rounds, p))


def _spans_everything(gens, start, full: int) -> bool:
    """The words in gens applied to start span a space of dimension full.
    The closure modulo ``_P`` decides it when it reaches full (rank modulo a
    prime is at most the rank over Q); otherwise the rational closure does."""
    return len(word_span(gens, start, p=_P)) == full or len(word_span(gens, start)) == full


def generates_full_algebra(T: MatrixTuple) -> bool:
    """The words in X_1..X_g span all n x n matrices; by Burnside this is
    equivalent to simplicity of the natural module."""
    return _spans_everything(T.X, [identity_matrix(T.n)], T.n * T.n)


def is_cyclic_vector(T: MatrixTuple, v) -> bool:
    """The words in X_1..X_g applied to v span the column space."""
    v = [as_rational(x) for x in v]
    if len(v) != T.n:
        raise ValueError(f"vector length {len(v)} != n = {T.n}")
    return _spans_everything(T.X, [[[x] for x in v]], T.n)


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


# Mersenne primes 2^e - 1, smallest first: s_equivalent works modulo the
# first that exceeds its bound on the trace differences
MODULI = tuple((1 << e) - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423))


def s_equivalent(T1: MatrixTuple, T2: MatrixTuple, L: int = None) -> bool:
    """Equal traces on every word of length <= L (default
    :func:`word_length_bound`), the characteristic-0 test for equal
    semisimplifications.

    Traces are linear, so it suffices that f = tr X - tr Y vanishes on a
    basis of the span of the words in the block-diagonal generators
    X_i (+) Y_i: at most 2n^2 words instead of the sum of g^k over k <= L.
    The closure runs modulo a prime p chosen so that its verdict is exact
    both ways, and stops at the first kept word with f nonzero modulo p.

    Proof.  Scale X_i and Y_i together by the lcm d_i of their denominators;
    a word only gains the nonzero factor of its d_i, so neither the span nor
    the vanishing of f moves.  The cleared entries are integers of absolute
    value at most M, so a word of length k has |f(w)| <= 2 (nM)^k, each of
    its n diagonal entries being a sum of n^(k-1) products of k entries.
    The spans V_k of the words of length <= k lie in the 2n^2-dimensional
    block-diagonal matrices and grow strictly until they stop, so
    V_L = V_L' with L' = min(L, 2n^2 - 1).  Take p in ``MODULI`` with
    p > 2 max(nM, 1)^L'.  The closure modulo p with L' rounds keeps words
    of length <= L' that span every word of length <= L' modulo p.  If f
    vanishes modulo p on the kept words, it vanishes modulo p on all those
    words, and as |f(w)| < p it vanishes on them over Z, hence on V_L'
    = V_L.  If f is nonzero modulo p on a kept word, it is nonzero over Z
    on that word, of length <= L.  (The empty word has f = 0 whatever the
    bound.)  When no listed prime exceeds the bound, the same closure runs
    over Q.  A negative L checks the empty word alone, as L = 0 does.
    """
    if (T1.g, T1.n) != (T2.g, T2.n):
        raise ValueError("tuples must share (g, n)")
    n = T1.n
    L = word_length_bound(n) if L is None else L
    z = [0] * n
    gens = [_integral([list(r) + z for r in x] + [z + list(r) for r in y]) for x, y in zip(T1.X, T2.X)]
    rounds = max(min(L, 2 * n * n - 1), 0)
    M = max(abs(v) for x in gens for row in x for v in row)
    bound = 2 * max(n * M, 1) ** rounds
    p = next((q for q in MODULI if q > bound), None)

    def differs(w):
        f = sum(w[i][i] - w[n + i][n + i] for i in range(n))
        return f % p if p else f

    return not any(map(differs, iter_word_span(gens, [identity_matrix(2 * n)], rounds, p)))


def centralizer_dim(T: MatrixTuple, h_basis) -> int:
    """Dimension of {Y in span(h) : [Y, X_i] = 0 for all i}, the kernel of
    Y -> ([Y, X_i])_i on span(h): rank(h) less the rank of the images of
    the h_k, which may be dependent.

    The tuple must lie inside span(h); vanishing dimension is the freeness
    proxy for centerless h."""
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
    # entry (r, c) of [h_k, X_i] is coordinate (i, r * n + c) of h_k's image
    images = []
    for hk in h:
        comms = (mat_sub(mat_mul(hk, x), mat_mul(x, hk)) for x in T.X)
        images.append({(i, c): v for i, comm in enumerate(comms) for c, v in flatten(comm).items()})
    # span is over Q: its dimension is rank(h), and bounds rank(images)
    return span.dim - rank(images, span.dim)


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
