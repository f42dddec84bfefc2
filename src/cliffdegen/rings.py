"""Exact coefficient rings: rationals, polynomials in t, rational functions
in t, and dual numbers (square-zero epsilon over the rationals).

Everything here is exact; no floats are accepted anywhere.  Arithmetic is
value-driven: a plain ``Fraction`` coerces into any of the other rings, a
``Poly`` coerces into ``RatFun``, and ``Dual`` mixes only with rationals.
Mixing a parametric value with a dual number raises
:class:`CoefficientRingMismatch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


HALF = Fraction(1, 2)


class CoefficientRingMismatch(TypeError):
    """Raised when values from incompatible coefficient rings are combined."""


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a pole."""


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):  # int included
        return Fraction(x)
    raise CoefficientRingMismatch(f"not an exact rational: {x!r}")


class Poly:
    """Dense univariate polynomial in t over the rationals.

    Coefficients are stored by ascending degree with no trailing zeros, so
    equality of values is equality of representations.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_fr(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly((_fr(c),))

    @staticmethod
    def t() -> "Poly":
        return Poly((0, 1))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (Fraction, Rational)):
            d = _fr(other)
            if d == 0:
                raise ZeroDivisionError("polynomial division by zero scalar")
            return Poly([c / d for c in self.coeffs])
        if isinstance(other, Poly):
            return RatFun(self, other)
        return NotImplemented

    def divide_out_root(self, c) -> "Poly":
        """Exact synthetic division by (t - c); requires self(c) == 0."""
        c = _fr(c)
        if self(c) != 0:
            raise ValueError("not a root; division would not be exact")
        out = []
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = acc * c + a
            out.append(acc)
        # the last accumulator is the (zero) remainder
        out.pop()
        return Poly(list(reversed(out)))

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


class RatFun:
    """Quotient of two polynomials in t, with exact pole detection.

    No gcd normalisation is performed; equality is cross-multiplication.
    Evaluation at a point cancels (t - c) factors exactly before deciding
    whether the point is a pole.
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

    def _reduced_at(self, c):
        """Cancel common (t - c) factors; return (num, den) with one of them
        nonvanishing at c."""
        num, den = self.num, self.den
        while not num.is_zero() and num(c) == 0 and den(c) == 0:
            num = num.divide_out_root(c)
            den = den.divide_out_root(c)
        return num, den

    def is_regular_at(self, c) -> bool:
        num, den = self._reduced_at(c)
        if num.is_zero():
            return True
        return den(c) != 0

    def __call__(self, c) -> Fraction:
        num, den = self._reduced_at(c)
        if num.is_zero():
            return Fraction(0)
        d = den(c)
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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        # hash-compatible with == only for canonical constants; RatFun values
        # are not used as dict keys in the library
        return 0

    def __repr__(self):
        return f"RatFun({self.num!r} / {self.den!r})"


@dataclass(frozen=True)
class Dual:
    """Dual number a + b*eps with eps^2 = 0, over the rationals."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b=0) -> "Dual":
        return Dual(_fr(a), _fr(b))

    @staticmethod
    def eps() -> "Dual":
        return Dual(Fraction(0), Fraction(1))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        if isinstance(other, (Fraction, Rational)):
            return Dual(_fr(other), Fraction(0))
        if isinstance(other, (Poly, RatFun)):
            raise CoefficientRingMismatch("cannot mix dual numbers with t-parametric values")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.a == 0:
            raise ZeroDivisionError("dual number with nilpotent (or zero) divisor")
        inv = Dual(1 / o.a, -o.b / (o.a * o.a))
        return self * inv

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b


# ---------------------------------------------------------------------------
# ring descriptors

RATIONAL = "rational"
POLY_T = "poly_t"
RATFUN_T = "ratfun_t"
DUAL = "dual"

_ORDER = {RATIONAL: 0, POLY_T: 1, RATFUN_T: 2, DUAL: 3}


def ring_of(value) -> str:
    if isinstance(value, (Fraction, Rational)):
        return RATIONAL
    if isinstance(value, Poly):
        return POLY_T
    if isinstance(value, RatFun):
        return RATFUN_T
    if isinstance(value, Dual):
        return DUAL
    raise CoefficientRingMismatch(f"unsupported coefficient: {value!r}")


def join_rings(r1: str, r2: str) -> str:
    """Smallest common ring, or raise. Rationals embed everywhere; the
    t-parametric tower and dual numbers do not mix."""
    if r1 == r2:
        return r1
    lo, hi = sorted((r1, r2), key=_ORDER.get)
    if lo == RATIONAL:
        return hi
    if {lo, hi} == {POLY_T, RATFUN_T}:
        return RATFUN_T
    raise CoefficientRingMismatch(f"incompatible coefficient rings: {r1}, {r2}")


def czero(v) -> bool:
    """Exact zero test across all supported coefficient types."""
    if isinstance(v, (Poly, RatFun, Dual)):
        return v.is_zero()
    return v == 0


def axpy(acc: dict, c, terms: dict) -> dict:
    """acc += c * terms for sparse maps key -> coefficient, in place; keys
    whose coefficient becomes zero are dropped.  Returns acc."""
    for k, v in terms.items():
        s = acc.get(k, 0) + c * v
        if czero(s):
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


def as_coeff(x):
    """Normalise a raw input (int/Fraction/str 'p/q'/ring value) to a ring value."""
    if isinstance(x, (Poly, RatFun, Dual, Fraction)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x)
    raise CoefficientRingMismatch(f"not an exact coefficient: {x!r}")


def eval_coeff(v, c: Fraction) -> Fraction:
    """Specialise a coefficient at t = c. Rationals pass through; dual
    numbers are not specialisable."""
    if isinstance(v, Poly):
        return v(c)
    if isinstance(v, RatFun):
        return v(c)
    if isinstance(v, Dual):
        raise CoefficientRingMismatch("dual numbers have no t to specialise")
    return _fr(v)


def regular_at(v, c: Fraction) -> bool:
    if isinstance(v, RatFun):
        return v.is_regular_at(c)
    if isinstance(v, Dual):
        return False
    return True
