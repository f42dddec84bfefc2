from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffdegen.rings import (
    CoefficientRingMismatch,
    InvariantViolation,
    PoleError,
    Poly,
    RatFun,
    as_coeff,
    axpy,
    czero,
    regular_at,
)


def test_poly_basics():
    t = Poly.t()
    p = (t + 1) * (t - 1)
    assert p == Poly((-1, 0, 1))
    assert p(2) == Fraction(3)
    assert Poly((0, 0)).is_zero()
    assert Poly.const(Fraction(1, 2)) + Fraction(1, 2) == Poly.const(1)


def test_ratfun_regularity_with_cancellation():
    t = Poly.t()
    r = RatFun(t, t)  # == 1 away from 0, and regular there after cancellation
    assert r.is_regular_at(0)
    assert r(0) == 1
    pole = RatFun(Poly.const(1), t)
    assert not pole.is_regular_at(0)
    with pytest.raises(PoleError):
        pole(0)
    # t/(1+t) is regular at 0 with value 0
    ok = RatFun(t, t + 1)
    assert ok.is_regular_at(0)
    assert ok(0) == 0
    # repeated roots: t^2/t vanishes at 0, and t/t^2 has a pole there
    zero = RatFun(t * t, t)
    assert zero.is_regular_at(0)
    assert zero(0) == 0
    pole2 = RatFun(t, t * t)
    assert not pole2.is_regular_at(0)
    with pytest.raises(PoleError):
        pole2(0)


_SMALL_POLY = st.lists(st.integers(min_value=-3, max_value=3), max_size=4).map(Poly)


@settings(max_examples=200, deadline=None)
@given(
    _SMALL_POLY,
    _SMALL_POLY.filter(bool),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.integers(min_value=0, max_value=3),
)
def test_evaluation_through_a_common_factor(p, q, c, k):
    # p r / q r with r = (t - c)^k has the value of p / q in lowest terms
    r = Poly.const(1)
    for _ in range(k):
        r = r * (Poly.t() - c)
    f = RatFun(p * r, q * r)
    low = RatFun(p, q).reduced()
    regular = low.den(c) != 0
    assert f.is_regular_at(c) == regular
    if regular:
        assert f(c) == low.num(c) / low.den(c)
    else:
        with pytest.raises(PoleError):
            f(c)


def test_ratfun_equality_cross_multiplies():
    t = Poly.t()
    assert RatFun(t * 2, Poly.const(2)) == RatFun(t, Poly.const(1))
    assert RatFun(t, t) == RatFun(Poly.const(1), Poly.const(1))


def test_ring_mixing_rules():
    # a value coerces up the chain Q in Q[t] in Q(t)
    t = Poly.t()
    assert type(t + Fraction(1, 2)) is Poly and type(t + 1) is Poly
    assert type(RatFun(Poly.const(1), t) + t) is RatFun
    assert type(Fraction(1, 2) * RatFun.const(1)) is RatFun
    # a float is no exact coefficient, in any ring
    with pytest.raises(CoefficientRingMismatch):
        as_coeff(0.5)
    with pytest.raises(CoefficientRingMismatch):
        Poly((1, 0.5))


def test_as_coeff_keeps_ints_and_regularity():
    # an int stays an int; a bool or a string becomes a Fraction
    assert [type(as_coeff(v)) for v in (3, True, "3", "1/2", Fraction(3))] == [int] + [Fraction] * 4
    assert as_coeff(True) == 1 and as_coeff("1/2") == Fraction(1, 2)
    assert [type(as_coeff(v)) for v in (Poly.t(), RatFun.const(1))] == [Poly, RatFun]
    assert regular_at(Poly.t(), Fraction(0))
    assert not regular_at(RatFun(Poly.const(1), Poly.t()), Fraction(0))


def test_axpy_writes_new_keys_and_prunes_zeros():
    t = RatFun(Poly.t(), Poly((1, 1)))
    acc = {"a": Fraction(1)}
    assert axpy(acc, 2, {"a": Fraction(-1, 2), "b": t}) == {"b": 2 * t}
    assert repr(acc["b"]) == repr(2 * t)  # a new key holds c * v as computed
    assert axpy({"x": Fraction(1)}, 0, {"y": Fraction(1)}) == {"x": Fraction(1)}


def test_invariant_violation_is_an_assertion_error():
    with pytest.raises(AssertionError):
        raise InvariantViolation("boom")


def _ring_values():
    """(zero, nonzero values) of each coefficient type."""
    t = Poly.t()
    return [
        (0, [1, -3]),
        (Fraction(0), [Fraction(1, 2), Fraction(-7, 3)]),
        (Poly(), [t, Poly.const(Fraction(1, 2)), t * t - 1]),
        (RatFun(Poly(), t), [RatFun(t, t + 1), RatFun.const(2)]),
    ]


def test_czero_is_true_exactly_on_zero():
    for zero, values in _ring_values():
        assert czero(zero)
        assert czero(zero * 3) and czero(zero - zero)
        assert not any(czero(v) for v in values)
    # a rational function is zero when its numerator is, whatever its denominator
    assert czero(RatFun(Poly(), Poly.t() * Poly.t() + 1))
    assert not czero(RatFun(Poly.t(), Poly.t()))


def test_subtraction_works_in_both_directions():
    for zero, values in _ring_values():
        for a in values:
            for b in values:
                assert (a - b) + b == a
                assert (a - b) == -(b - a)
            assert czero(a - a)
            assert a - zero == a and zero - a == -a
            # with a plain rational on either side
            assert (a - 2) + 2 == a and (2 - a) + a == 2
            assert (a - Fraction(1, 3)) == -(Fraction(1, 3) - a)
    t = Poly.t()
    assert 1 - t == Poly((1, -1)) and t - 1 == Poly((-1, 1))
    assert 1 - RatFun(t, t + 1) == RatFun(Poly.const(1), t + 1)
    assert t - RatFun(t, Poly.const(1)) == 0 and RatFun(t, Poly.const(1)) - t == 0


def test_poly_divmod():
    t = Poly.t()
    p = (2 * t + 3) * (t * t - 5) + 7
    q, r = divmod(p, 2 * t + 3)
    assert (q, r) == (t * t - 5, Poly.const(7))
    # an exact division over Z[t] stays on ints
    assert all(type(c) is int for c in q.coeffs + r.coeffs)
    q, r = divmod(t * t + 1, 2 * t)
    assert (q, r) == (Poly.const(Fraction(1, 2)) * t, Poly.const(1))
    assert divmod(Poly.const(3), t) == (Poly(), Poly.const(3))
    with pytest.raises(ZeroDivisionError):
        divmod(t, Poly())


def test_ratfun_reduced_is_lowest_terms_with_a_monic_denominator():
    t = Poly.t()
    r = RatFun((t - 1) * (t + 2) * 3, (t - 1) * (2 * t + 4) * (t + 5))
    low = r.reduced()
    assert (low.num, low.den) == (Poly.const(Fraction(3, 2)), t + 5)
    assert low == r
    assert RatFun(Poly(), t * t + 1).reduced().den == Poly.const(1)
    assert RatFun(t * 4, Poly.const(2)).reduced().num == 2 * t


def test_ratfun_hash_agrees_with_equality():
    t = Poly.t()
    assert RatFun(t, t) == 1 and hash(RatFun(t, t)) == hash(1) == hash(RatFun.const(1))
    assert hash(RatFun(t * 2, Poly.const(2))) == hash(t)
    a = RatFun(t + 1, t * t - 1)
    b = RatFun(Poly.const(3), 3 * t - 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, RatFun(Poly.const(1), t - 1)}) == 1
    assert hash(RatFun(t, t + 1)) != hash(RatFun(t, t + 2))

