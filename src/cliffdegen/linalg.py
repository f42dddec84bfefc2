"""Exact linear algebra over the rationals: one sparse echelon core
(:class:`SpanBasis`, whose one elimination loop runs over Q or modulo a
prime) behind spans, ranks (each first tried as a set already in echelon
form, then modulo a prime: :func:`rank` alone decides when a result
modulo a prime is certified) and nullspaces, found over Q, and small
dense matrix helpers used by the local-model routines."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from .rings import axpy


class SpanBasis:
    """Incrementally row-reduced basis of a subspace of a (possibly huge)
    coordinate space.  Rows are sparse dicts column -> coefficient; every
    stored row has coefficient 1 at its pivot, which is its minimal column.

    With ``p = None`` the coefficients are rationals (an ``int`` or a
    ``Fraction``).  With a prime ``p`` the span is over Z/p: an inserted
    ``int`` vector is read modulo p and every stored coefficient is an
    ``int`` in [0, p).  Vectors of integers independent modulo p are
    independent over Q, since rank modulo p is at most the rank over Q."""

    def __init__(self, p: int = None):
        self.p = p
        self.pivots: dict = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Residue of vec modulo the current span (vec is not mutated).  No
        pivot column is left in it, so a zero residue is always recognised."""
        p, pivots = self.p, self.pivots
        # over Z/p entries are left unreduced until read: at a pivot, and at the end
        out = {c: v for c, v in vec.items() if v}
        while True:
            # a row reaches only past its own pivot, so eliminating the
            # smallest pivot column present never brings back a smaller one
            col = min((c for c in out if c in pivots), default=None)
            if col is None:
                # drops what cancelled, and reads the entries modulo p
                return {c: r for c, v in out.items() if (r := v if p is None else v % p)}
            f = -out[col] if p is None else -out[col] % p
            if f:
                for c, v in pivots[col].items():
                    out[c] = out.get(c, 0) + f * v
            del out[col]

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> bool:
        """Add vec to the span. Returns True if the dimension grew."""
        res = self.reduce(vec)
        if not res:
            return False
        col = min(res)
        lead = res[col]
        if self.p is None:
            inv = Fraction(lead.denominator, lead.numerator)  # a Fraction
            self.pivots[col] = {c: v * inv for c, v in res.items()}
        else:
            inv = pow(lead, -1, self.p)
            self.pivots[col] = {c: v * inv % self.p for c, v in res.items()}
        return True

    def rref(self) -> dict:
        """Back-substitute in place until every row is zero at the other
        pivots: the rows are then the reduced row echelon form, which is
        unique for the span.  Returns the rows by pivot column.  Over Q
        only."""
        for col in sorted(self.pivots, reverse=True):
            row = self.pivots[col]
            # rows of larger pivots are already reduced, so eliminating one
            # pivot column leaves the others in this row untouched
            for c in [c for c in row if c != col and c in self.pivots]:
                axpy(row, -row[c], self.pivots[c])
        return self.pivots


def echelon(rows) -> SpanBasis:
    """Span of dense rows of rationals."""
    span = SpanBasis()
    for r in rows:
        span.insert(dict(enumerate(r)))  # reduce drops the zeros
    return span


# the prime of the modular ranks (see rank)
_P = (1 << 61) - 1


def _grows_modulo_p(vectors):
    """Whether each vector in turn, cleared of denominators (which moves no
    span), grows the span modulo ``_P`` of those before it."""
    span = SpanBasis(_P)
    for vec in vectors:
        d = lcm(*(v.denominator for v in vec.values()))
        yield span.insert({c: v.numerator * (d // v.denominator) for c, v in vec.items()})


def _in_echelon_form(vectors) -> bool:
    """Whether every vector is nonzero and no two share their minimal
    nonzero column: sorted by that column they are then in row echelon
    form, hence independent.  One pass over the entries."""
    leads = set()
    for vec in vectors:
        lead = min((c for c, v in vec.items() if v), default=None)
        if lead is None or lead in leads:
            return False
        leads.add(lead)
    return True


def rank(vectors, full: int) -> int:
    """Rank over Q of sparse rational vectors (dicts column -> value), of
    which at most ``full`` are independent: the one rule behind every
    dimension the library reports.  Vectors in echelon form (nonzero, with
    pairwise distinct minimal nonzero columns) are independent, and their
    number is the rank.  Otherwise: clearing the denominators of a vector
    moves no span, and a relation over Q, cleared to coprime integers,
    holds modulo any prime, so the rank modulo ``_P`` is at most the rank
    over Q, itself at most min(len(vectors), full).  Reaching that bound,
    it is the rank over Q; a lower one is recomputed over Q."""
    vectors = list(vectors)
    if _in_echelon_form(vectors):
        return len(vectors)
    r = sum(_grows_modulo_p(vectors))
    if r < min(len(vectors), full):
        span = SpanBasis()
        r = sum(span.insert(vec) for vec in vectors)  # each True grows the span
    return r


def nullspace_dense(rows: list, ncols: int) -> list:
    """Basis of {x : A x = 0} for A given as dense rows of rationals: one
    vector per free column of the reduced row echelon form of A, over Q.
    Kernel vectors hold ``Fraction``s."""
    pivots = echelon(rows).rref()
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for col, row in pivots.items():
            vec[col] = -row.get(fc, Fraction(0))
        basis.append(vec)
    return basis


# --- small dense matrix helpers (lists of lists of rationals) ---


def mat_mul(a, b):
    n, k, m2 = len(a), len(b), len(b[0])
    out = [[0] * m2 for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for kk in range(k):
            v = ai[kk]
            if v == 0:
                continue
            bk = b[kk]
            for j in range(m2):
                if bk[j] != 0:
                    oi[j] += v * bk[j]
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def flatten(a) -> dict:
    """Entry (i, j) of a matrix with n columns as coordinate i * n + j, zeros
    included: SpanBasis drops them."""
    return dict(enumerate(chain.from_iterable(a)))
