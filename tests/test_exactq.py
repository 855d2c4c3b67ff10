"""Unit and property tests for the exact arithmetic layer."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadwalk.exactq import (
    SQRT2,
    Polynomial,
    QuadExt,
    RationalFunction,
    poly_discriminant,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_resultant,
)

F = Fraction


def P(*coeffs, var="t"):
    return Polynomial(coeffs, var=var)


# ---------------------------------------------------------------- polynomials


def test_polynomial_canonical_zero_trim():
    p = P(1, 2, 0, 0)
    assert p.degree == 1
    assert p.coeffs == (F(1), F(2))
    z = P(0, 0)
    assert z.is_zero and z.degree == -1 and z.coeffs == ()


def test_constant_polynomial_hashes_like_its_scalar():
    # A constant compares equal to its scalar, so sets and dicts must
    # treat the two as one key.
    for p, c in ((P(5), 5), (P(), 0), (P(F(1, 2)), F(1, 2)), (P(0, 0), 0)):
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1
    assert hash(P(1, 2)) == hash(((1, 2), "t"))


def test_polynomial_eval_horner():
    r3 = P(1, -3, 4)  # 4t^2 - 3t + 1
    assert poly_eval(r3, F(-1, 2)) == F(7, 2)
    assert r3(0) == 1
    assert r3(F(1, 2)) == F(1, 2)
    assert poly_eval(Polynomial.zero(), F(5)) == 0


def test_polynomial_arithmetic():
    p = P(1, 1)
    q = P(-1, 1)
    assert p * q == P(-1, 0, 1)
    assert p + q == P(0, 2)
    assert p - p == Polynomial.zero()
    assert (p * q).derivative() == P(0, 2)
    assert P(1, 2, 3) * 0 == Polynomial.zero()
    assert 2 * p == P(2, 2)


def test_polynomial_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        P(1, 1, var="t") * P(1, 1, var="z")


def test_divmod_known_quotient():
    # (4t^2 - t) / (-2t): quotient -2t + 1/2, remainder 0
    quot, rem = poly_divmod(P(0, -1, 4), P(0, -2))
    assert quot == P(F(1, 2), -2)
    assert rem.is_zero


def test_divmod_with_remainder():
    p = P(1, 0, 0, 1)  # t^3 + 1
    q = P(1, 1)        # t + 1
    quot, rem = poly_divmod(p, q)
    assert quot * q + rem == p
    assert rem.is_zero  # t^3 + 1 = (t + 1)(t^2 - t + 1)
    quot2, rem2 = poly_divmod(P(2, 0, 1), P(0, 1))
    assert quot2 == P(0, 1) and rem2 == P(2)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(P(1, 1), Polynomial.zero())


def test_gcd_monic():
    p = P(-1, 0, 1)   # (t-1)(t+1)
    q = P(1, -2, 1)   # (t-1)^2
    assert poly_gcd(p, q) == P(-1, 1)
    assert poly_gcd(p, Polynomial.zero()) == p.monic()
    assert poly_gcd(Polynomial.zero(), Polynomial.zero()).is_zero


def test_resultant_frozen_values():
    assert poly_resultant(P(1, -1), P(0, -1, 4)) == 3
    assert poly_resultant(P(-1, 1), P(1, 1)) == 2
    assert poly_resultant(P(-1, 0, 1), P(-1, 1)) == 0
    # constants: empty Sylvester matrix
    assert poly_resultant(P(5), P(7)) == 1
    assert poly_resultant(P(3), P(0, 1, 1)) == 9


def test_resultant_swap_symmetry():
    p = P(1, -1)
    q = P(0, -1, 4)
    assert poly_resultant(q, p) == (-1) ** (p.degree * q.degree) * poly_resultant(p, q)


def test_discriminant_frozen_values():
    assert poly_discriminant(P(-1, 0, 1)) == 4        # t^2 - 1
    assert poly_discriminant(P(0, -1, 4)) == 1        # 4t^2 - t
    assert poly_discriminant(P(0, 0, 1)) == 0         # t^2, double root
    assert poly_discriminant(P(3, 2)) == 1            # linear
    with pytest.raises(ValueError):
        poly_discriminant(P(4))


def test_content_primitive():
    p = P(F(2, 3), F(4, 3))
    assert p.primitive_part() == P(1, 2)
    q = P(F(-2), F(-4))
    assert q.primitive_part() == P(-1, -2)  # sign of lc preserved


def test_polynomial_str():
    assert str(P(1, -3, 4)) == "4t^2 - 3t + 1"
    assert str(P(1, -4, 8, -8)) == "-8t^3 + 8t^2 - 4t + 1"
    assert str(Polynomial((0, 0, 1), var="z")) == "z^2"
    assert str(P(F(1, 2), -2)) == "-2t + 1/2"
    assert str(Polynomial.zero()) == "0"


# ------------------------------------------------------------------- QuadExt


def test_quadext_frozen_values():
    a = QuadExt(2, 1)
    b = QuadExt(2, -1)
    assert a * a == QuadExt(6, 4)
    assert a * b == 2
    assert a + b == 4
    assert a.norm() == 2
    assert a.inverse() == QuadExt(1, F(-1, 2))
    assert a * a.inverse() == 1
    assert SQRT2 * SQRT2 == 2


def test_quadext_pow():
    a = QuadExt(2, 1)
    assert a ** 0 == 1
    assert a ** 3 == a * a * a
    assert a ** -2 == (a * a).inverse()
    assert SQRT2 ** 2 == 2


def test_quadext_order_is_exact():
    assert SQRT2 > F(7, 5)
    assert SQRT2 < F(3, 2)
    assert SQRT2 > F(141421356237, 100000000000)
    assert SQRT2 < F(141421356238, 100000000000)
    assert QuadExt(-3, 2) < 0          # 2*sqrt2 = sqrt8 < 3
    assert QuadExt(-1, 1) > 0
    assert abs(QuadExt(-3, 2)) == QuadExt(3, -2)


def test_quadext_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 1) / QuadExt(0, 0)


def test_poly_eval_quadext_argument():
    # 1 - 2t at t = -1/2 lands back in the rationals
    p = P(1, -2)
    v = poly_eval(p, QuadExt(F(-1, 2)))
    assert v == QuadExt(2, 0)
    assert v.b == 0


def test_divmod_more_frozen_cases():
    quot, rem = poly_divmod(P(0, -1, 4), P(0, -1, 4))
    assert quot == P(1) and rem.is_zero
    quot, rem = poly_divmod(P(1, 1), P(0, 1))
    assert quot == P(1) and rem == P(1)


def test_quadext_str():
    assert str(QuadExt(2, 1)) == "2 + √2"
    assert str(QuadExt(2, -1)) == "2 - √2"
    assert str(QuadExt(0, F(1, 2))) == "1/2√2"
    assert str(QuadExt(F(3, 4))) == "3/4"


# --------------------------------------------------------- rational functions


def Z(*coeffs):
    return Polynomial(coeffs, var="z")


def test_ratfunc_reduction_examples():
    r = RationalFunction(Z(0, 0, 1), Z(0, 1))
    assert r.num == Z(0, 1) and r.den == Z(1)
    r2 = RationalFunction(P(-1, 0, 1), P(-1, 1))  # (t-1)(t+1)/(t-1)
    assert r2.num == P(1, 1) and r2.den == P(1)


def test_ratfunc_canonical_sign_and_content():
    # z(1-2z^2) / (1-z^2) is coprime; canonical form flips both signs so
    # the denominator leading coefficient is positive.
    r = RationalFunction(Z(0, 1, 0, -2), Z(1, 0, -1))
    assert r.num == Z(0, -1, 0, 2)
    assert r.den == Z(-1, 0, 1)
    assert r == RationalFunction(Z(0, -1, 0, 2), Z(-1, 0, 1))
    # scaling both parts by any rational leaves the canonical form alone
    assert r == RationalFunction(Z(0, F(1, 3), 0, F(-2, 3)), Z(F(1, 3), 0, F(-1, 3)))


def test_ratfunc_zero():
    r = RationalFunction(Z(), Z(0, 0, 5))
    assert r.is_zero
    assert r.num == Z() and r.den == Z(1)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Z(1), Z())
    with pytest.raises(ZeroDivisionError):
        RationalFunction.from_coprime(Z(1), Z())
    with pytest.raises(ValueError):
        RationalFunction.from_coprime(Z(1), P(1))


def test_ratfunc_series_geometric():
    geom = RationalFunction(Z(1), Z(1, -1))
    assert geom.series_coefficients(5) == [1, 1, 1, 1, 1, 1]
    r = RationalFunction(Z(0, -1, 0, 2), Z(-1, 0, 1))
    assert r.series_coefficients(7) == [0, 1, 0, -1, 0, -1, 0, -1]
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Z(1), Z(0, 1)).series_coefficients(3)


# ------------------------------------------------------------ property tests


def test_rational_arithmetic_matches_cross_multiplication():
    rng = random.Random(20260823)
    for _ in range(1000):
        a, c = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        b, d = rng.randint(1, 10**6), rng.randint(1, 10**6)
        x, y = F(a, b), F(c, d)
        assert x + y == F(a * d + c * b, b * d)
        assert x * y == F(a * c, b * d)
        assert x - y == F(a * d - c * b, b * d)
        if c:
            assert x / y == F(a * d, b * c)


coeff_st = st.fractions(min_value=-50, max_value=50, max_denominator=8)
poly_st = st.lists(coeff_st, min_size=0, max_size=6).map(Polynomial)
nonzero_poly_st = poly_st.filter(lambda p: not p.is_zero)
quad_st = st.builds(QuadExt, coeff_st, coeff_st)


@settings(max_examples=200, deadline=None)
@given(poly_st, nonzero_poly_st)
def test_divmod_reconstruction_property(p, q):
    quot, rem = poly_divmod(p, q)
    assert quot * q + rem == p
    assert rem.degree < q.degree


@settings(max_examples=150, deadline=None)
@given(nonzero_poly_st, nonzero_poly_st)
def test_resultant_zero_iff_common_factor(p, q):
    shared = poly_gcd(p, q).degree > 0
    assert (poly_resultant(p, q) == 0) == shared


@settings(max_examples=200, deadline=None)
@given(quad_st, quad_st, quad_st)
def test_quadext_ring_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x.norm() != 0:
        assert x * x.inverse() == 1


@settings(max_examples=150, deadline=None)
@given(poly_st, nonzero_poly_st, nonzero_poly_st)
def test_ratfunc_normalization_invariant_under_common_factor(num, den, h):
    assert RationalFunction(num * h, den * h) == RationalFunction(num, den)


@settings(max_examples=100, deadline=None)
@given(poly_st, nonzero_poly_st, st.fractions().filter(bool))
def test_ratfunc_from_coprime_matches_the_gcd_constructor(num, den, scale):
    # A lowest-terms pair under any rational scale: from_coprime must
    # reach the constructor's canonical form without the gcd.
    r = RationalFunction(num, den)
    s = RationalFunction.from_coprime(r.num * scale, r.den * scale)
    assert (s.num, s.den) == (r.num, r.den)


@settings(max_examples=100, deadline=None)
@given(poly_st, nonzero_poly_st.filter(lambda p: p[0] != 0))
def test_series_consistent_with_product(num, den):
    r = RationalFunction(num, den)
    cs = r.series_coefficients(10)
    # den * series must reproduce num through degree 10
    for m in range(11):
        conv = sum(r.den[k] * cs[m - k] for k in range(0, m + 1))
        assert conv == r.num[m]


# ------------------------------------------------- integer coefficients


int_poly_st = st.lists(st.integers(-9, 9), max_size=5).map(Polynomial)
mixed_poly_st = st.one_of(poly_st, int_poly_st)


def _stored_exactly(values) -> bool:
    # An integral coefficient is an int, anything else a reduced Fraction
    # with denominator > 1; never a float, never a Fraction n/1.
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for c in values
    )


@settings(max_examples=200, deadline=None)
@given(mixed_poly_st, mixed_poly_st,
       mixed_poly_st.filter(lambda p: not p.is_zero))
def test_coefficients_are_ints_or_proper_fractions(p, q, d):
    quot, rem = poly_divmod(p, d)
    results = [p + q, p - q, p * q, quot, rem, p.derivative(),
               p.monic(), p.primitive_part()]
    for r in results:
        assert _stored_exactly(r.coeffs), r
    if d[0] != 0:
        assert _stored_exactly(RationalFunction(p, d).series_coefficients(6))


def test_floats_rejected_and_int_division_exact():
    with pytest.raises(TypeError):
        P(1, 0.5)
    assert P(1, 2).monic().coeffs == (F(1, 2), 1)
    assert poly_divmod(P(1, 0, 3), P(0, 2)) == (P(0, F(3, 2)), P(1))
    assert type(poly_discriminant(P(1, 0, 3))) is Fraction


def _ref_divmod(a: list, b: list) -> tuple[list, list]:
    # Schoolbook long division over Q on trimmed Fraction lists.
    a = list(a)
    quot = [F(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        quot[shift] = c
        for i, x in enumerate(b):
            a[shift + i] -= c * x
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def _ref_gcd(a: list, b: list) -> list:
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _fractions(p: Polynomial) -> list:
    return [F(c) for c in p.coeffs]


@settings(max_examples=150, deadline=None)
@given(int_poly_st, int_poly_st.filter(lambda p: not p.is_zero),
       int_poly_st.filter(lambda p: not p.is_zero))
def test_gcd_and_canonical_form_match_euclid_over_q(a, b, h):
    num, den = a * h, b * h
    g = _ref_gcd(_fractions(num), _fractions(den))
    assert poly_gcd(num, den) == Polynomial(g)
    # Reference canonical form: divide out the gcd, then scale the pair to
    # coprime integers with a positive denominator leading coefficient.
    top = _ref_divmod(_fractions(num), g)[0] if num else []
    bottom = _ref_divmod(_fractions(den), g)[0]
    scale = lcm(*(c.denominator for c in top + bottom))
    ints = [int(c * scale) for c in top + bottom]
    scale = F(scale, gcd(*ints))
    if bottom[-1] < 0:
        scale = -scale
    r = RationalFunction(num, den)
    if num.is_zero:
        assert (r.num, r.den) == (Polynomial.zero(), Polynomial.one())
    else:
        assert r.num == Polynomial([c * scale for c in top])
        assert r.den == Polynomial([c * scale for c in bottom])
    assert _stored_exactly(r.num.coeffs + r.den.coeffs)
