"""Exact coefficient rings: rationals, polynomials in t and rational
functions in t.

Everything here is exact; no floats are accepted anywhere.  Arithmetic is
value-driven: a rational (an ``int`` or a ``Fraction``) coerces into either
of the other rings and a ``Poly`` coerces into ``RatFun``, so the rings form
the chain Q in Q[t] in Q(t).  One number rule holds: an ``int`` stays an
``int`` (:func:`as_rational` is the one normaliser), and a ``Fraction`` is
made only by a division or a non-integral input.  A value of any other
type, a string included, raises :class:`CoefficientRingMismatch`: text is
parsed only by ``jsonio.decode_rational``, which refuses exponent notation
and over-long integers before it expands them.
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


def as_rational(x):
    """An exact rational as this module keeps it: an ``int`` or a
    ``Fraction`` as it is, any other rational (a ``bool``, say) as a
    ``Fraction``.  Anything else is refused."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise CoefficientRingMismatch(f"not an exact rational: {x!r}")


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
    ``int`` or a ``Fraction``; the two compare and print alike.  A ``Poly``
    has no hash: nothing keys a dict or a set by a ring value.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def t() -> "Poly":
        return Poly((0, 1))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, c):
        """The value at t = c: an ``int`` at an ``int`` point over Z."""
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * c + a
        return acc

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, Rational):
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
            if not isinstance(other, Rational):
                return NotImplemented
            s = as_rational(other)  # a scalar scales coefficient by coefficient
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
                a = Fraction(a, lead)
            q[k] = a
            for i, b in enumerate(div):
                rem[k + i] -= a * b
        return Poly(q), Poly(rem[:n])

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, Rational):
            return self.coeffs == Poly.const(other).coeffs
        if isinstance(other, RatFun):
            return other == self
        return NotImplemented

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

    Arithmetic does not reduce; :meth:`reduced` gives lowest terms.
    Equality is cross-multiplication, and there is no hash.  Evaluation at a
    point where the denominator vanishes goes through lowest terms before
    deciding whether the point is a pole.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = den if isinstance(den, Poly) else Poly.const(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun(Poly.const(c), Poly.const(1))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __call__(self, c):
        num, d = self.num, self.den(c)
        if d == 0:  # cancel the common factors; c may still be a pole
            r = self.reduced()
            num, d = r.num, r.den(c)
            if d == 0:
                raise PoleError(f"pole at t = {c}")
        return Fraction(num(c), d)

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, Poly):
            return RatFun(other, Poly.const(1))
        if isinstance(other, Rational):
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
        s = Fraction(1, den.coeffs[-1])
        return RatFun(num * s, den * s)

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
    """Normalise a value (a rational or a ring value) to a ring value: a
    ``Poly`` or a ``RatFun`` as it is, a rational by :func:`as_rational`.
    A string is refused (the module docstring says where text is
    parsed)."""
    if isinstance(x, (Poly, RatFun)):
        return x
    return as_rational(x)


def eval_coeff(v, c):
    """Specialise a coefficient at t = c. Rationals pass through."""
    if isinstance(v, (Poly, RatFun)):
        return v(c)
    return v
