"""Exact reference arithmetic for checking cliffdegen's answers.

Nothing here imports cliffdegen: every expected answer the benchmark
compares against is either known by construction or computed with these
helpers over ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction


def _eliminate(rows):
    """Row-echelon form by Gaussian elimination; returns (echelon rows, sign
    of the row permutation)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    sign = 1
    top = 0
    for col in range(ncols):
        pivot = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != top:
            mat[top], mat[pivot] = mat[pivot], mat[top]
            sign = -sign
        for r in range(top + 1, len(mat)):
            f = mat[r][col] / mat[top][col]
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[top])]
        top += 1
    return mat[:top], sign


def rank(rows) -> int:
    return len(_eliminate(rows)[0])


def det(rows) -> Fraction:
    """Determinant of a square matrix of rationals."""
    echelon, sign = _eliminate(rows)
    if len(echelon) < len(rows):
        return Fraction(0)
    out = Fraction(sign)
    for i, row in enumerate(echelon):
        out *= row[i]
    return out


def coeff_value(obj, c: Fraction) -> Fraction:
    """Value at t = c of a coefficient in cliffdegen's JSON encoding: a
    rational string, a polynomial as ascending coefficient strings, or a
    rational function {"num": [...], "den": [...]}."""
    if isinstance(obj, (str, int)):
        return Fraction(obj)
    if isinstance(obj, list):
        acc = Fraction(0)
        for a in reversed(obj):
            acc = acc * c + Fraction(a)
        return acc
    if isinstance(obj, dict) and set(obj) == {"num", "den"}:
        return coeff_value(obj["num"], c) / coeff_value(obj["den"], c)
    raise ValueError(f"not a coefficient encoding: {obj!r}")


def regular_at(obj, c: Fraction) -> bool:
    return not isinstance(obj, dict) or coeff_value(obj["den"], c) != 0


# ---------------------------------------------------------------------------
# Clifford algebra of a diagonal form, on sparse {blade bitmask: Fraction}


def _blade_sign(a: int, b: int) -> int:
    """Sign of reordering e_A e_B into ascending order: one factor -1 for
    each pair (i in A, j in B) with i > j."""
    swaps = 0
    a >>= 1
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def diag_mul(x: dict, y: dict, qs) -> dict:
    """Product in the Clifford algebra of the diagonal form q(e_i) = qs[i-1]."""
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            c = ca * cb * _blade_sign(a, b)
            common = a & b
            i = 0
            while common:
                if common & 1:
                    c *= qs[i]
                common >>= 1
                i += 1
            if c:
                s = out.get(a ^ b, 0) + c
                if s:
                    out[a ^ b] = s
                else:
                    out.pop(a ^ b)
    return out


def diag_reverse(x: dict) -> dict:
    """Principal anti-automorphism for a diagonal form: a k-blade picks up
    the sign (-1)^(k(k-1)/2)."""
    out = {}
    for mask, c in x.items():
        k = mask.bit_count()
        out[mask] = -c if (k * (k - 1) // 2) % 2 else c
    return out


# ---------------------------------------------------------------------------
# small dense matrices


def mat_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def identity(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def unimodular_pair(rng, n: int):
    """A random integer matrix P of determinant 1 and its exact inverse,
    built from elementary row operations."""
    p, pinv = identity(n), identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        # P <- E P with E = I + f e_ij; P^-1 <- P^-1 E^-1
        p[i] = [a + f * b for a, b in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= f * row[i]
    return p, pinv
