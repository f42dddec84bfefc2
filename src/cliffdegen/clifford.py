"""Clifford algebra of an arbitrary symmetric form on a free module of rank m.

Basis blades are subsets of {1..m} stored as bitmasks (bit i-1 set means the
generator e_i occurs); the empty set is the identity e_0.  The canonical blade
for a subset is the geometric product of its generators in ascending order.
Multivectors are sparse maps blade -> nonzero coefficient; two multivectors
are equal iff their term maps are equal.

The convention throughout: q(x) = x^T Q x and b(x, y) = q(x+y) - q(x) - q(y)
= 2 x^T Q y, so b(e_i, e_i) = 2 q(e_i).  Degenerate Q is a first-class
citizen; nothing below assumes invertibility.

A :class:`QuadraticSpace` keeps ``int`` entries as ``int``s and every
product starts from the literal 1, so a form over Z computes on ``int``s;
:meth:`QuadraticSpace.scaled` gives such a form, D Q, as a plain space.

The product rewrites words using exactly the two relations
    e_i^2 = q(e_i) e_0,
    e_i e_j + e_j e_i = b(e_i, e_j) e_0,
i.e. for i > j:  e_i e_j = b(e_i, e_j) e_0 - e_j e_i.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rings import (
    PoleError,
    Poly,
    RatFun,
    as_coeff,
    axpy,
    czero,
    eval_coeff,
    regular_at,
)


class BladeIndexError(IndexError):
    """A blade references a generator index outside 1..m."""


class QuadraticSpace:
    """Symmetric m x m matrix Q over an exact coefficient ring, with
    q(x) = x^T Q x.  Entries are kept as :func:`~cliffdegen.rings.as_coeff`
    gives them, so ``int``s stay ``int``s.  Immutable after construction
    (the product cache is filled lazily but is append-only)."""

    def __init__(self, gram):
        rows = [tuple(as_coeff(v) for v in row) for row in gram]
        m = len(rows)
        if any(len(r) != m for r in rows):
            raise ValueError("gram matrix must be square")
        for i in range(m):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"gram matrix not symmetric at ({i},{j})")
        self.m = m
        self.gram = tuple(rows)
        self._gen_cache: dict = {}
        self._doubled = None  # lipschitz.DoubledAlgebra, built on first use

    @staticmethod
    def diagonal(qs) -> "QuadraticSpace":
        qs = [as_coeff(v) for v in qs]
        m = len(qs)
        return QuadraticSpace(
            [[qs[i] if i == j else 0 for j in range(m)] for i in range(m)]
        )

    @staticmethod
    def zero(m: int) -> "QuadraticSpace":
        return QuadraticSpace([[0] * m for _ in range(m)])

    def q(self, i: int):
        """q(e_i), 1-based."""
        return self.gram[i - 1][i - 1]

    def b(self, i: int, j: int):
        """b(e_i, e_j) = 2 Q[i][j], 1-based."""
        return 2 * self.gram[i - 1][j - 1]

    def scaled(self) -> tuple:
        """``(D, S)`` for a Q over Q or Q[t]: D is the lcm of the
        denominators of every coefficient of every entry, and S the space of
        D Q, whose product coefficients are ``int``s, or ``Poly``s with
        ``int`` coefficients.  A coefficient of a product of k generators
        that lies on a blade of cardinality c is homogeneous of degree
        (k - c)/2 in Q, so it is D^((k - c)/2) times the one over Q.
        S is an ordinary space: its ``int`` entries stay ``int``s.  A space
        with a ``RatFun`` entry gives ``(1, self)``.  Built on each call:
        every caller asks once per space."""
        if any(isinstance(v, RatFun) for row in self.gram for v in row):
            return 1, self
        D = lcm(
            *(c.denominator for row in self.gram for v in row
              for c in (v.coeffs if isinstance(v, Poly) else (v,)))
        )

        def times_d(v):  # D v, with int coefficients
            if isinstance(v, Poly):
                return Poly([int(c * D) for c in v.coeffs])
            return int(v * D)

        return D, QuadraticSpace([[times_d(v) for v in row] for row in self.gram])

    def __eq__(self, other):
        return isinstance(other, QuadraticSpace) and self.gram == other.gram

    def __hash__(self):
        return hash((self.m,))

    def __repr__(self):
        return f"QuadraticSpace(m={self.m})"


def _check_mask(mask: int, m: int):
    if mask < 0 or mask >> m:
        raise BladeIndexError(f"blade {bin(mask)} exceeds dimension m={m}")


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        if i < 1:
            raise BladeIndexError(f"blade index {i} < 1")
        bit = 1 << (i - 1)
        if mask & bit:
            raise BladeIndexError(f"repeated blade index {i}")
        mask |= bit
    return mask


def indices_of(mask: int) -> tuple:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class Multivector:
    """Sparse multivector; terms map blade bitmask -> nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mask, c in terms.items():
                c = as_coeff(c) if not hasattr(c, "is_zero") else c
                if not czero(c):
                    clean[mask] = c
        self.terms = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Multivector":
        return Multivector()

    @staticmethod
    def scalar(c) -> "Multivector":
        return Multivector({0: as_coeff(c)})

    @staticmethod
    def basis_vector(i: int) -> "Multivector":
        return Multivector({1 << (i - 1): Fraction(1)})

    @staticmethod
    def blade(indices, c=1) -> "Multivector":
        return Multivector({mask_of(indices): as_coeff(c)})

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(axpy(dict(self.terms), 1, other.terms))

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(axpy(dict(self.terms), -1, other.terms))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Multivector":
        c = as_coeff(c)
        if czero(c):
            return Multivector()
        return Multivector({m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.keys()))

    def coefficient(self, indices):
        return self.terms.get(mask_of(indices), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "Multivector(0)"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            idx = "".join(str(i) for i in indices_of(mask)) or "0"
            parts.append(f"({self.terms[mask]})*e{idx}")
        return "Multivector(" + " + ".join(parts) + ")"


def _blade_times_gen(space: QuadraticSpace, mask: int, j: int) -> dict:
    """Expansion of (canonical blade) * e_j as {blade: coeff}.

    Rewrites by pulling e_j leftward through larger generators, using
    e_t e_j = b(t,j) e_0 - e_j e_t for t > j and e_j^2 = q(j) e_0.
    """
    key = (mask, j)
    cached = space._gen_cache.get(key)
    if cached is not None:
        return cached
    jbit = 1 << (j - 1)
    if mask == 0:
        out = {jbit: 1}
    else:
        t = mask.bit_length()  # largest 1-based index in the blade
        tbit = 1 << (t - 1)
        rest = mask ^ tbit
        if t < j:
            out = {mask | jbit: 1}
        elif t == j:
            qj = space.q(j)
            out = {} if czero(qj) else {rest: qj}
        else:
            btj = space.b(t, j)
            out = {} if czero(btj) else {rest: btj}
            # the blades of rest * e_j only involve indices < t, so appending
            # e_t keeps them canonical
            inner = _blade_times_gen(space, rest, j)
            axpy(out, -1, {m2 | tbit: c for m2, c in inner.items()})
    space._gen_cache[key] = out
    return out


def _terms_times_gen(space: QuadraticSpace, terms: dict, j: int) -> dict:
    out: dict = {}
    for mask, c in terms.items():
        axpy(out, c, _blade_times_gen(space, mask, j))
    return out


def blade_row(space: QuadraticSpace, ma: int) -> list:
    """``row[b]`` = the terms of (blade ma) * (blade b), for every blade b.

    Masks run in increasing order, so b minus its top generator e_t is a
    smaller mask whose product is already known, and ma * b is that product
    times e_t: one generator step per blade."""
    _check_mask(ma, space.m)
    row = [{ma: 1}]
    for b in range(1, 1 << space.m):
        t = b.bit_length()
        row.append(_terms_times_gen(space, row[b ^ (1 << (t - 1))], t))
    return row


def geometric_product(x: Multivector, y: Multivector, space: QuadraticSpace) -> Multivector:
    """Associative unital product determined by the rewriting relations."""
    for ma in x.terms:
        _check_mask(ma, space.m)
    out: dict = {}
    for mb, cb in y.terms.items():
        _check_mask(mb, space.m)
        terms = x.terms
        for j in indices_of(mb):
            terms = _terms_times_gen(space, terms, j)
        axpy(out, cb, terms)
    return Multivector(out)


def reverse(x: Multivector, space: QuadraticSpace) -> Multivector:
    """Principal anti-automorphism: fixes vectors, reverses products.

    Each blade's generator word is reversed and re-canonicalised through the
    product, so non-diagonal forms pick up the correct lower-degree terms.
    """
    out: dict = {}
    for mask, c in x.terms.items():
        _check_mask(mask, space.m)
        terms = {0: 1}
        for j in reversed(indices_of(mask)):
            terms = _terms_times_gen(space, terms, j)
        axpy(out, c, terms)
    return Multivector(out)


def filtration_degree(x: Multivector) -> int:
    """Max blade cardinality; 0 for the zero element."""
    if not x.terms:
        return 0
    return max(m.bit_count() for m in x.terms)


def is_even(x: Multivector) -> bool:
    return all(m.bit_count() % 2 == 0 for m in x.terms)


def is_odd(x: Multivector) -> bool:
    return all(m.bit_count() % 2 == 1 for m in x.terms)


def is_homogeneous(x: Multivector) -> bool:
    return is_even(x) or is_odd(x)


def specialize_space(space: QuadraticSpace, c) -> QuadraticSpace:
    c = Fraction(c) if not isinstance(c, Fraction) else c
    rows = []
    for i, row in enumerate(space.gram):
        vals = []
        for j, v in enumerate(row):
            if not regular_at(v, c):
                raise PoleError(f"pole at t = {c} in gram entry ({i + 1},{j + 1})")
            vals.append(eval_coeff(v, c))
        rows.append(vals)
    return QuadraticSpace(rows)
