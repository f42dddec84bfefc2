"""Exact linear algebra over the rationals: one sparse echelon core
(:class:`SpanBasis`) behind spans, ranks and nullspaces, and small dense
matrix helpers used by the local-model routines."""

from __future__ import annotations

from fractions import Fraction

from .rings import axpy


class SpanBasis:
    """Incrementally row-reduced basis of a subspace of a (possibly huge)
    coordinate space.  Rows are sparse dicts column -> rational (an ``int``
    or a ``Fraction``); every stored row has coefficient 1 at its pivot,
    which is its minimal column."""

    def __init__(self):
        self.pivots: dict = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Residue of vec modulo the current span (vec is not mutated).  No
        pivot column is left in it, so a zero residue is always recognised."""
        out = {c: v for c, v in vec.items() if v != 0}
        while True:
            # a row reaches only past its own pivot, so eliminating the
            # smallest pivot column present never brings back a smaller one
            col = min((c for c in out if c in self.pivots), default=None)
            if col is None:
                return out
            axpy(out, -out[col], self.pivots[col])

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> bool:
        """Add vec to the span. Returns True if the dimension grew."""
        res = self.reduce(vec)
        if not res:
            return False
        col = min(res)
        lead = res[col]  # an int or a Fraction: its inverse is a Fraction
        inv = Fraction(lead.denominator, lead.numerator)
        self.pivots[col] = {c: v * inv for c, v in res.items()}
        return True

    def rref(self) -> dict:
        """Back-substitute in place until every row is zero at the other
        pivots: the rows are then the reduced row echelon form, which is
        unique for the span.  Returns the rows by pivot column."""
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
        span.insert({j: v for j, v in enumerate(r) if v != 0})
    return span


# a prime for the invertibility test of integer matrices
_P = (1 << 61) - 1


def _invertible_mod_p(rows: list) -> bool:
    """True when the square integer matrix is invertible modulo ``_P``:
    then its determinant is a nonzero integer, and it is invertible over Q.
    False says nothing over Q."""
    mat = [[v % _P for v in row] for row in rows]
    n = len(mat)
    for k in range(n):
        pivot = next((r for r in range(k, n) if mat[r][k]), None)
        if pivot is None:
            return False
        mat[k], mat[pivot] = mat[pivot], mat[k]
        rk = mat[k]
        inv = pow(rk[k], -1, _P)
        for r in range(k + 1, n):
            f = mat[r][k] * inv % _P
            if f:
                mat[r] = [(a - f * b) % _P for a, b in zip(mat[r], rk)]
    return True


def nullspace_dense(rows: list, ncols: int) -> list:
    """Basis of {x : A x = 0} for A given as dense rows of rationals: one
    vector per free column of the reduced row echelon form of A.  A square
    ``int`` matrix invertible modulo a prime has none, found without
    rational arithmetic.  Kernel vectors hold ``Fraction``s."""
    if len(rows) == ncols and all(type(v) is int for row in rows for v in row):
        if _invertible_mod_p(rows):
            return []
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
    n = len(a[0])
    return {i * n + j: v for i, row in enumerate(a) for j, v in enumerate(row) if v != 0}
