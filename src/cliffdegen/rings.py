"""Exact coefficient rings: rationals, polynomials in t and rational
functions in t.

Everything here is exact; no floats are accepted anywhere.  Arithmetic is
value-driven: a rational (an ``int`` or a ``Fraction``) coerces into either
of the other rings and a ``Poly`` coerces into ``RatFun``, so the rings form
the chain Q in Q[t] in Q(t).  An ``int`` stays an ``int`` (in
:func:`as_coeff`, and as a coefficient of a ``Poly``), so a form over Z
computes on ``int``s.  A value of any other type raises
:class:`CoefficientRingMismatch`.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


HALF = Fraction(1, 2)


class CoefficientRingMismatch(TypeError):
    """Raised for a value that is not an exact coefficient."""


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a pole."""


class InvariantViolation(AssertionError):
    """An internal invariant of a computation failed: the inputs were
    accepted, yet a certificate did not check.  An ``AssertionError``, so
    callers that catch assertions keep working."""


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):  # int included
        return Fraction(x)
    raise CoefficientRingMismatch(f"not an exact rational: {x!r}")


def _pc(x):
    """A polynomial coefficient: an ``int`` stays an ``int``, so that
    polynomials over Z compute on ``int``s; other rationals become
    ``Fraction``s."""
    return x if type(x) is int else _fr(x)


class _Ring:
    """Subtraction as addition of the negative, for the rings below: each
    defines ``_coerce`` (``None`` for a value it does not take), ``__add__``
    and ``__neg__``."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)


class Poly(_Ring):
    """Dense univariate polynomial in t over the rationals.

    Coefficients are stored by ascending degree with no trailing zeros, so
    equality of values is equality of representations.  A coefficient is an
    ``int`` or a ``Fraction``; the two compare, hash and print alike.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_pc(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def t() -> "Poly":
        return Poly((0, 1))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, c) -> Fraction:
        c = _fr(c)
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = acc * c + a
        return acc

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (Fraction, Rational)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (o.coeffs[i] if i < len(o.coeffs) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (Fraction, Rational)):
                return NotImplemented
            s = _pc(other)  # a scalar scales coefficient by coefficient
            return Poly([c * s for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """(q, r) with self = q other + r and r of lower degree than
        other.  A quotient coefficient that divides exactly over the ints
        stays an ``int``, so an exact division over Z[t] stays on ints."""
        if not isinstance(other, Poly):
            return NotImplemented
        if not other.coeffs:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        n, lead = len(div) - 1, div[-1]
        q = [0] * max(len(rem) - n, 0)
        for k in reversed(range(len(q))):
            a = rem[k + n]
            if not a:
                continue
            if type(a) is int and type(lead) is int and not a % lead:
                a //= lead
            else:
                a = Fraction(a) / lead
            q[k] = a
            for i, b in enumerate(div):
                rem[k + i] -= a * b
        return Poly(q), Poly(rem[:n])

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (Fraction, Rational)):
            return self.coeffs == Poly.const(other).coeffs
        if isinstance(other, RatFun):
            return other == self
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else Fraction(0))
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return "Poly(" + " + ".join(parts) + ")"


class RatFun(_Ring):
    """Quotient of two polynomials in t, with exact pole detection.

    Arithmetic does not reduce; :meth:`reduced` gives lowest terms, which
    the hash reads.  Equality is cross-multiplication.  Evaluation at a
    point where the denominator vanishes goes through lowest terms before
    deciding whether the point is a pole.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = den if isinstance(den, Poly) else Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun(Poly.const(c), Poly.const(1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_regular_at(self, c) -> bool:
        return self.den(c) != 0 or self.reduced().den(c) != 0

    def __call__(self, c) -> Fraction:
        num, d = self.num, self.den(c)
        if d == 0:  # cancel the common factors; c may still be a pole
            r = self.reduced()
            num, d = r.num, r.den(c)
            if d == 0:
                raise PoleError(f"pole at t = {c}")
        return num(c) / d

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, Poly):
            return RatFun(other, Poly.const(1))
        if isinstance(other, (Fraction, Rational)):
            return RatFun.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def reduced(self) -> "RatFun":
        """The same value in lowest terms: numerator and denominator share
        no factor, and the denominator is monic."""
        a, b = self.num, self.den
        while b:  # Euclid: a ends as a gcd of num and den
            a, b = b, divmod(a, b)[1]
        num, den = divmod(self.num, a)[0], divmod(self.den, a)[0]
        s = Fraction(1) / den.coeffs[-1]
        return RatFun(num * s, den * s)

    def __hash__(self):
        # equal values have one lowest-terms form; a polynomial hashes as
        # the Poly (and a constant as the rational) that it equals
        r = self.reduced()
        if r.den.coeffs == (1,):
            return hash(r.num)
        return hash((r.num.coeffs, r.den.coeffs))

    def __repr__(self):
        return f"RatFun({self.num!r} / {self.den!r})"


def czero(v) -> bool:
    """Exact zero test across all supported coefficient types (each ring
    value is false exactly when it is zero)."""
    return not v


def axpy(acc: dict, c, terms: dict) -> dict:
    """acc += c * terms for sparse maps key -> coefficient, in place; keys
    whose coefficient becomes zero are dropped.  Returns acc."""
    for k, v in terms.items():
        s = acc.get(k)
        s = c * v if s is None else s + c * v
        if czero(s):
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


def as_coeff(x):
    """Normalise a raw input (int/Fraction/str 'p/q'/ring value) to a ring
    value.  An ``int`` stays an ``int``, so that a form over Z computes on
    ``int``s; other rationals become ``Fraction``s."""
    if type(x) is int or isinstance(x, (Poly, RatFun, Fraction)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x)
    raise CoefficientRingMismatch(f"not an exact coefficient: {x!r}")


def eval_coeff(v, c: Fraction) -> Fraction:
    """Specialise a coefficient at t = c. Rationals pass through."""
    if isinstance(v, (Poly, RatFun)):
        return v(c)
    return _fr(v)


def regular_at(v, c: Fraction) -> bool:
    if isinstance(v, RatFun):
        return v.is_regular_at(c)
    return True
