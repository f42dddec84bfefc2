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

The product is determined by the two relations
    e_i^2 = q(e_i) e_0,   e_i e_j + e_j e_i = b(e_i, e_j) e_0,
and takes one generator at a time by Chevalley's formula for Cl(q) as the
exterior algebra with a deformed product (The Algebraic Theory of Spinors,
1954; Helmstetter and Micali, Quadratic Mappings and Clifford Algebras,
2008).  With beta(e_t, e_j) = b(e_t, e_j) for t > j, q(e_j) for t = j and 0
for t < j,
    e_a e_j = e_a ^ e_j + e_a _| beta(., e_j),
where the contraction drops each t in a with the sign (-1)^#{s in a: s > t}:
at most |a| + 1 terms, on distinct blades.  A step depends only on (a, j),
so a caller that takes many steps on one space shares one table of steps
between them: a dict, empty when the caller makes it, that the walk of
:func:`_step_walk` fills as it reads, ``steps[j][a]`` holding the step of
(a, j).  A table belongs to its call; the space keeps none.
"""

from __future__ import annotations

from math import lcm

from .rings import (
    PoleError,
    RatFun,
    as_coeff,
    as_rational,
    axpy,
    cleared,
    czero,
    denominators,
    eval_coeff,
)


class BladeIndexError(IndexError):
    """A blade references a generator index outside 1..m."""


class QuadraticSpace:
    """Symmetric m x m matrix Q over an exact coefficient ring, with
    q(x) = x^T Q x.  Entries are kept as :func:`~cliffdegen.rings.as_coeff`
    gives them, so ``int``s stay ``int``s.  Immutable: a space holds ``m``
    and ``gram`` and nothing else."""

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
        S is an ordinary space: its ``int`` entries stay ``int``s, made
        with no ``Fraction``.  A space with a ``RatFun`` entry gives
        ``(1, self)``.  Built on each call: every caller asks once per
        space."""
        if any(isinstance(v, RatFun) for row in self.gram for v in row):
            return 1, self
        D = lcm(*(d for row in self.gram for v in row for d in denominators(v)))
        return D, QuadraticSpace([[cleared(v, D) for v in row] for row in self.gram])

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
                c = as_coeff(c)
                if not czero(c):
                    clean[mask] = c
        self.terms = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def scalar(c) -> "Multivector":
        return Multivector({0: as_coeff(c)})

    @staticmethod
    def basis_vector(i: int) -> "Multivector":
        return Multivector({1 << (i - 1): 1})

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(axpy(dict(self.terms), 1, other.terms))

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(axpy(dict(self.terms), -1, other.terms))

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.terms == other.terms

    def coefficient(self, indices):
        return self.terms.get(mask_of(indices), 0)

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
    """(canonical blade e_a) * e_j as {blade: coeff}, by the contraction
    formula of the module docstring; e_j joins e_a, or squares to q(j)."""
    gram = space.gram  # beta reads the lower triangle, Q[t][j] with t > j
    out = {}
    sign = 1
    high = mask >> j  # bit k stands for e_(j+k+1)
    while high:
        k = high.bit_length()
        high ^= 1 << (k - 1)
        c = gram[j + k - 1][j - 1]
        if c:
            c = 2 * c
            out[mask ^ (1 << (j + k - 1))] = c if sign > 0 else -c
        sign = -sign
    jbit = 1 << (j - 1)
    if not mask & jbit:
        out[mask | jbit] = sign
    else:
        qj = gram[j - 1][j - 1]
        if qj:
            out[mask ^ jbit] = qj if sign > 0 else -qj
    return out


def _step_walk(space: QuadraticSpace, steps: dict, terms: dict, path) -> list:
    """``out[0]`` is ``terms``, and ``out[k]`` for the k-th pair (i, j) of
    ``path`` is out[i] times e_j, with i < k.  Each term's step is read from
    the table ``steps`` of ``space`` (module docstring), computed by
    :func:`_blade_times_gen` the first time it is read, and added as
    ``axpy`` would add it: the same sums, zero test and insertion order,
    with no call per term once the step is in the table."""
    out = [terms]
    for i, j in path:
        step = steps.get(j)
        if step is None:
            step = steps[j] = {}
        acc: dict = {}
        for mask, c in out[i].items():
            pairs = step.get(mask)
            if pairs is None:
                pairs = step[mask] = tuple(_blade_times_gen(space, mask, j).items())
            for k, v in pairs:
                s = acc.get(k)
                s = c * v if s is None else s + c * v
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        out.append(acc)
    return out


def _terms_times_word(space: QuadraticSpace, steps: dict, terms: dict, word) -> dict:
    """terms times the generators e_j of ``word``, one at a time from the
    left, each step read from the table ``steps``; any indices 1..m in any
    order, repeats and the empty word too."""
    return _step_walk(space, steps, terms, enumerate(word))[-1]


def blade_row(space: QuadraticSpace, steps: dict, ma: int) -> list:
    """``row[b]`` = the terms of (blade ma) * (blade b), for every blade b,
    each step read from the table ``steps``.

    Masks run in increasing order, and blade 2^(t-1) + i with i < 2^(t-1)
    is blade i times e_t, whose product is already known: one generator
    step per blade, taken in the one walk of :func:`_step_walk`."""
    m = space.m
    _check_mask(ma, m)
    return _step_walk(space, steps, {ma: 1}, ((i, t) for t in range(1, m + 1) for i in range(1 << (t - 1))))


def geometric_product(x: Multivector, y: Multivector, space: QuadraticSpace) -> Multivector:
    """Associative unital product determined by the rewriting relations."""
    for ma in x.terms:
        _check_mask(ma, space.m)
    steps: dict = {}
    out: dict = {}
    for mb, cb in y.terms.items():
        _check_mask(mb, space.m)
        axpy(out, cb, _terms_times_word(space, steps, x.terms, indices_of(mb)))
    return Multivector(out)


def reverse(x: Multivector, space: QuadraticSpace) -> Multivector:
    """Principal anti-automorphism: fixes vectors, reverses products.

    Each blade's generator word is reversed and re-canonicalised through the
    product, so non-diagonal forms pick up the correct lower-degree terms.
    """
    steps: dict = {}
    out: dict = {}
    for mask, c in x.terms.items():
        _check_mask(mask, space.m)
        axpy(out, c, _terms_times_word(space, steps, {0: 1}, reversed(indices_of(mask))))
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
    c = as_rational(c)
    rows = []
    for i, row in enumerate(space.gram):
        vals = []
        for j, v in enumerate(row):
            try:
                vals.append(eval_coeff(v, c))
            except PoleError:
                raise PoleError(f"pole at t = {c} in gram entry ({i + 1},{j + 1})") from None
        rows.append(vals)
    return QuadraticSpace(rows)
