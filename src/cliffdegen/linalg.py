"""Exact linear algebra over the rationals: one sparse echelon core
(:class:`SpanBasis`) behind spans, ranks, nullspaces and linear solves, and
small dense matrix helpers used by the local-model routines."""

from __future__ import annotations

from fractions import Fraction

from .rings import axpy


class SpanBasis:
    """Incrementally row-reduced basis of a subspace of a (possibly huge)
    coordinate space.  Rows are sparse dicts column -> Fraction; every stored
    row has coefficient 1 at its pivot, which is its minimal column."""

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
        inv = 1 / res[col]
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
        span.insert({j: Fraction(v) for j, v in enumerate(r) if v != 0})
    return span


def nullspace_dense(rows: list, ncols: int) -> list:
    """Basis of {x : A x = 0} for A given as dense rows of Fractions: one
    vector per free column of the reduced row echelon form of A."""
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


def rank_dense(rows: list, ncols: int) -> int:
    return echelon(rows).dim


def solve_augmented(rows: list, n: int) -> list:
    """Rows of X with A X = B, for augmented dense rows [A | B] whose left
    n x n block A is invertible."""
    pivots = echelon(rows).rref()
    if any(k not in pivots for k in range(n)):
        raise ZeroDivisionError("singular system")
    width = len(rows[0])
    return [[pivots[k].get(j, Fraction(0)) for j in range(n, width)] for k in range(n)]


# --- small dense matrix helpers (lists of lists of Fractions) ---


def mat_mul(a, b):
    n, k, m2 = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m2 for _ in range(n)]
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
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def flatten(a) -> dict:
    n = len(a[0])
    return {i * n + j: v for i, row in enumerate(a) for j, v in enumerate(row) if v != 0}
