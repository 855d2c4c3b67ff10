"""Tests for the generating functions and exact probability formulas."""

from __future__ import annotations

import importlib
import tracemalloc
from fractions import Fraction

import pytest

from hadwalk import exactq
from hadwalk.errors import ConsistencyError
from hadwalk.exactq import Polynomial, QuadExt, RationalFunction
from hadwalk.residue_engine import MAX_ROW
from hadwalk.walk_core import (
    A,
    B,
    RFamily,
    _f1,
    _in_z_squared,
    absorption_denominator,
    gf,
    gf_coefficients,
    gf_denominator,
    gf_via_recurrence,
    h_quotient,
    p_closed,
    p_exact,
    r_poly,
    row_common_denominator,
    row_table,
    watrous_step,
)
from reference_values import ROW_DENOMINATORS, ROW_NUMERATORS, table_fraction

F = Fraction


def T(*coeffs):
    return Polynomial(coeffs, var="t")


def Z(*coeffs):
    return Polynomial(coeffs, var="z")


# ------------------------------------------------------------------ r family


def test_r_family_frozen_values():
    assert r_poly(0).is_zero
    assert r_poly(1) == T(1)
    assert r_poly(2) == T(1, -2)
    assert r_poly(3) == T(1, -3, 4)
    assert r_poly(4) == T(1, -4, 8, -8)
    assert r_poly(5) == T(1, -5, 13, -20, 16)


def test_r_family_degree_and_leading_coefficient():
    for k in range(1, 26):
        rk = r_poly(k)
        assert rk.degree == k - 1
        assert rk.leading_coefficient == (-2) ** (k - 1)
        assert rk[0] == 1
        if k >= 2:
            assert rk.derivative()[0] == -k


def test_r_family_recurrence_holds():
    step = T(1, -2)
    t = T(0, 1)
    for k in range(0, 20):
        assert r_poly(k + 2) == step * r_poly(k + 1) + t * r_poly(k)


def test_r_family_rejects_negative_index():
    with pytest.raises(ValueError):
        r_poly(-1)
    with pytest.raises(ValueError):
        RFamily().r(3, -1)


def test_r_family_returns_members_in_the_order_asked():
    assert RFamily().r(5, 2, 5) == (r_poly(5), r_poly(2), r_poly(5))


def test_r_family_is_self_inversive():
    # The lemma on RFamily: every root of r_k lies on |t| = 1/2, so with
    # d = k - 1 the coefficients obey a_(d-i) = (-1)^d 2^(d-2i) a_i.
    ks = range(1, MAX_ROW + 1)
    for k, rk in zip(ks, RFamily().r(*ks)):
        d = k - 1
        a = rk.coeffs
        assert len(a) == k, k
        for i in range(k):
            assert a[d - i] * 4**i == (-2) ** d * a[i], (k, i)


def test_gf_denominator_frozen_values():
    assert gf_denominator(2) == (1,)
    assert gf_denominator(3) == (1, -1)
    assert gf_denominator(4) == (1, -2, 2)
    assert gf_denominator(5) == (1, -3, 5, -4)
    for n in range(3, 25):
        dn = gf_denominator(n)
        assert len(dn) - 1 == n - 2
        assert dn[-1] == -((-2) ** (n - 3))


def test_absorption_denominator_basic_shape():
    assert absorption_denominator(2) == (0, -2)
    for n in range(2, 25):
        d = absorption_denominator(n)
        assert len(d) - 1 == n - 1
        assert d[0] == 0  # simple root at t = 0
        assert d[-1] == (-2) ** (n - 1)


# ------------------------------------------------------- generating functions


def test_gf_frozen_examples():
    assert gf(1, 2) == RationalFunction(Z(0, 1), Z(1))
    assert gf(2, 3) == RationalFunction(Z(0, 0, 1), Z(-1, 0, 1))
    assert gf(3, 4) == RationalFunction(Z(0, 0, 0, 1), Z(1, 0, -2, 0, 2))
    assert gf(4, 4).is_zero
    assert gf(1, 3) == RationalFunction(Z(0, -1, 0, 2), Z(-1, 0, 1))


def test_gf_series_starts_at_z_j():
    for n in range(2, 8):
        for j in range(1, n):
            series = gf(j, n).series_coefficients(j + 1)
            assert all(c == 0 for c in series[:j])
            assert abs(series[j]) == 1


def test_gf_via_recurrence_frozen_examples():
    assert gf_via_recurrence(1, 2) == RationalFunction(Z(0, 1), Z(1))
    assert gf_via_recurrence(1, 3) == RationalFunction(Z(0, -1, 0, 2), Z(-1, 0, 1))
    assert gf_via_recurrence(2, 4) == RationalFunction(
        Z(0, 0, -1, 0, 2), Z(1, 0, -2, 0, 2)
    )


def test_gf_equals_gf_via_recurrence():
    for n in range(2, 21):
        for j in range(1, n):
            assert gf(j, n) == gf_via_recurrence(j, n), (j, n)


def test_gf_is_the_gcd_constructors_lowest_terms():
    # gf skips the gcd because its pair is coprime (lemma on RFamily);
    # the gcd constructor, given the same pair, must agree on every cell.
    for n in range(2, 31):
        c_in_z = _in_z_squared(gf_denominator(n), 0, 1)
        for j in range(1, n + 1):
            sign = 1 if j % 2 else -1
            num = _in_z_squared(r_poly(n - j).coeffs, j, sign)
            assert gf(j, n) == RationalFunction(num, c_in_z), (j, n)


def test_gf_takes_no_gcd_and_the_recurrence_construction_does(monkeypatch):
    def refuse(p, q):
        raise AssertionError("gcd taken")

    monkeypatch.setattr(exactq, "_primitive_gcd", refuse)
    for n in range(2, 9):
        for j in range(1, n + 1):
            gf(j, n)
    gf_via_recurrence.cache_clear()
    _f1.cache_clear()
    with pytest.raises(AssertionError, match="gcd taken"):
        gf_via_recurrence(2, 5)


def test_recurrence_takes_one_gcd_per_cell(monkeypatch):
    # Each cell multiplies out one numerator/denominator pair from the
    # cached entries and reduces it once: rows 2..12 hold 66 cells.
    calls = []
    gcd = exactq._primitive_gcd

    def counting(p, q):
        calls.append(1)
        return gcd(p, q)

    monkeypatch.setattr(exactq, "_primitive_gcd", counting)
    gf_via_recurrence.cache_clear()
    _f1.cache_clear()
    for n in range(2, 13):
        for j in range(1, n):
            gf_via_recurrence(j, n)
    assert len(calls) == 66


def test_recurrence_caches_hold_a_sweep_and_stay_bounded():
    # verify's recurrence-built-gf sweep (rows <= 12) builds each cell
    # once; a longer sweep leaves both caches at their bound.
    _f1.cache_clear()
    gf_via_recurrence.cache_clear()
    for n in range(2, 13):
        for j in range(1, n):
            gf_via_recurrence(j, n)
    assert gf_via_recurrence.cache_info().misses == 66
    assert _f1.cache_info().misses == 11
    for n in range(13, 18):
        for j in range(1, n):
            gf_via_recurrence(j, n)
    for cache in (_f1, gf_via_recurrence):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    assert gf_via_recurrence.cache_info().misses == 136


def test_gf_row_shares_canonical_denominator():
    for n in range(2, 11):
        dens = {gf(j, n).den for j in range(1, n)}
        assert len(dens) == 1, n


def test_gf_grouping_identity():
    # f_j = z f_{j+1} + sum_{k=2..j} (-1)^k z^k f_{j+2-k} + (-1)^(j-1) z^j.
    # The cells of a row share one canonical denominator D, so over D the
    # identity is one of numerators:
    # N_j = z N_{j+1} + sum (-1)^k z^k N_{j+2-k} + (-1)^(j-1) z^j D.
    for n in range(3, 11):
        den = gf(1, n).den
        num = {j: gf(j, n).num for j in range(1, n)}
        for j in range(1, n - 1):
            rhs = Z(0, 1) * num[j + 1]
            for k in range(2, j + 1):
                rhs = rhs + Polynomial.monomial(k, (-1) ** k, "z") * num[j + 2 - k]
            rhs = rhs + Polynomial.monomial(j, (-1) ** (j - 1), "z") * den
            assert num[j] == rhs, (j, n)


def test_gf_validates_range():
    with pytest.raises(ValueError):
        gf(0, 5)
    with pytest.raises(ValueError):
        gf(6, 5)
    with pytest.raises(ValueError):
        gf(1, 1)
    with pytest.raises(ValueError):
        gf_via_recurrence(5, 5)


def test_gf_coefficients_frozen_examples():
    assert gf_coefficients(1, 2, 5) == [1, 0, 0, 0, 0]
    assert gf_coefficients(1, 3, 7) == [1, 0, -1, 0, -1, 0, -1]
    # f_2^(3) = z^2/(z^2 - 1) = -z^2 (1 + z^2 + ...): every odd path to
    # the left barrier from site 2 of 3 carries one LL block.
    assert gf_coefficients(2, 3, 4) == [0, -1, 0, -1]


def test_gf_coefficients_parity_and_support():
    for n in range(2, 8):
        for j in range(1, n):
            cs = gf_coefficients(j, n, 16)
            for m, c in enumerate(cs, start=1):
                if m < j or (m - j) % 2 == 1:
                    assert c == 0, (j, n, m)


# ------------------------------------------------------------- probabilities


def test_p_exact_frozen_values():
    assert p_exact(1, 2) == F(1, 2)
    assert p_exact(2, 3) == F(1, 3)
    assert p_exact(3, 6) == F(21, 58)
    assert p_exact(0, 7) == 1
    assert p_exact(7, 7) == 0


def test_p_exact_matches_the_polynomial_formula():
    # Reference: the residue formula with r_poly evaluated at t = -1/2,
    # p = (1/2) r_{n-j} (r_j - r_{j-1}) / (r_n - r_{n-1}); p_0 = 1.
    r = [r_poly(k)(F(-1, 2)) for k in range(61)]
    for n in range(2, 61):
        assert p_exact(0, n) == 1
        for j in range(1, n + 1):
            expect = r[n - j] * (r[j] - r[j - 1]) / (r[n] - r[n - 1]) / 2
            assert p_exact(j, n) == expect, (j, n)


def test_p_exact_memory_is_linear_in_n():
    # The s_k values of row 20,000 take about 44 MB together; the five
    # the formula reads take about 22 kB.
    tracemalloc.start()
    try:
        p_exact(10_000, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_p_closed_frozen_values():
    assert p_closed(1, 4) == F(7, 10)
    assert p_closed(4, 5) == F(5, 17)
    for n in range(2, 12):
        assert p_closed(n, n) == 0
    with pytest.raises(ValueError):
        p_closed(0, 4)


@pytest.mark.parametrize("module, route", [("rfamily", "p_exact"),
                                           ("walk_core", "p_closed")])
def test_exact_routes_refuse_a_value_outside_the_unit_interval(
    monkeypatch, module, route
):
    # Each exact route checks its own value's range, so no caller
    # re-checks it: with every quotient shifted up by one, both refuse.
    module = importlib.import_module(f"hadwalk.{module}")
    monkeypatch.setattr(module, "Fraction", lambda *args: F(*args) + 1)
    with pytest.raises(ConsistencyError, match=rf"^{route}\(1, 2\) = .* "
                       r"outside \[0, 1\]$"):
        getattr(module, route)(1, 2)


def test_closed_form_powers_stay_integral():
    # Q(sqrt 2) components are stored as ints when integral, so powers
    # of A never build a Fraction; p_closed still returns a Fraction,
    # also at j = n, where the rational part is the int 0.
    power = A ** 40
    assert type(power.a) is int and type(power.b) is int
    for n in range(2, 13):
        for j in range(1, n + 1):
            assert type(p_closed(j, n)) is F, (j, n)


def test_reference_table_rows():
    for n in range(2, 10):
        assert row_table(n) == [table_fraction(j, n) for j in range(1, n)]


def test_row_table_frozen_examples():
    assert row_table(2) == [F(1, 2)]
    assert row_table(4) == [F(7, 10), F(2, 5), F(3, 10)]
    assert row_table(9) == [
        F(408, 577), F(239, 577), F(210, 577), F(205, 577),
        F(204, 577), F(203, 577), F(198, 577), F(169, 577),
    ]


def test_row_table_validates_the_row():
    for row in (row_table, row_common_denominator):
        with pytest.raises(ValueError, match="^need n >= 2, got n=1$"):
            row(1)


def test_row_common_denominator_matches_reference_presentation():
    for n in range(2, 10):
        den, nums = row_common_denominator(n)
        assert den == ROW_DENOMINATORS[n]
        assert nums == ROW_NUMERATORS[n]


def test_formula_cross_equality():
    for n in range(2, 21):
        for j in range(1, n + 1):
            assert p_exact(j, n) == p_closed(j, n), (j, n)


def test_watrous_recurrence():
    for n in range(3, 31):
        assert p_exact(1, n) == watrous_step(p_exact(1, n - 1)), n


def test_row_linear_recurrence():
    for n in range(4, 31):
        row = [p_exact(j, n) for j in range(0, n + 1)]
        for j in range(1, n - 2):
            assert row[j] - 7 * row[j + 1] + 7 * row[j + 2] - row[j + 3] == 0, (j, n)


def test_outer_entries_sum_to_one():
    for n in range(2, 31):
        assert p_exact(1, n) + p_exact(n - 1, n) == 1, n


def test_first_entry_doubling():
    for n in range(3, 31):
        assert 2 * p_exact(1, n) == p_exact(2, n) + 1, n


def test_r_values_at_minus_half_in_closed_form():
    # r_k(-1/2) = (A^k - B^k) sqrt2 / 2^(k+1) and
    # (r_k - r_{k-1})(-1/2) = (A^(k-1) + B^(k-1)) / 2^k; both sides are
    # rational, so the comparison is exact.
    for k in range(1, 20):
        rk = QuadExt(r_poly(k)(F(-1, 2)))
        assert rk == (A ** k - B ** k) * QuadExt(0, F(1, 2 ** (k + 1))), k
        diff = QuadExt((r_poly(k) - r_poly(k - 1))(F(-1, 2)))
        assert diff == (A ** (k - 1) + B ** (k - 1)) / 2 ** k, k


def test_first_column_approaches_sqrt2_over_2():
    # Exact sandwich: with rho = 3 - 2 sqrt2 = B/A,
    # (sqrt2/2) rho^(n-1) < sqrt2/2 - p_1^(n) < sqrt2 rho^(n-1).
    half_sqrt2 = QuadExt(0, F(1, 2))
    sqrt2 = QuadExt(0, 1)
    rho = QuadExt(3, -2)
    assert rho == B / A
    for n in range(2, 31):
        err = half_sqrt2 - QuadExt(p_exact(1, n))
        assert err > 0
        assert err < sqrt2 * rho ** (n - 1)
        assert err > half_sqrt2 * rho ** (n - 1)


# ----------------------------------------------------------------- quotients


def test_h_quotient_frozen_values():
    for n in range(2, 9):
        assert h_quotient(1, n) == T(-1)
        if n >= 2:
            assert h_quotient(2, n) == T(1)
    assert h_quotient(3, 6) == T(-1, 1)
    assert h_quotient(3, 6) == h_quotient(3, 9)


def test_h_quotient_depends_only_on_j():
    for j in range(1, 11):
        quotients = {h_quotient(j, n) for n in range(max(j, 2), 16)}
        assert len(quotients) == 1, j


def test_h_quotient_closed_form_and_recurrence():
    # Q_j = (-1)^j (r_j + 2t r_{j-1}), hence
    # Q_{j+2} = -(1-2t) Q_{j+1} + t Q_j.
    two_t = T(0, 2)
    for j in range(1, 11):
        n = j + 5
        expect = (r_poly(j) + two_t * r_poly(j - 1))
        if j % 2 == 1:
            expect = -expect
        assert h_quotient(j, n) == expect, j
    step = T(-1, 2)  # -(1 - 2t)
    t = T(0, 1)
    for j in range(1, 9):
        assert h_quotient(j + 2, j + 7) == (
            step * h_quotient(j + 1, j + 7) + t * h_quotient(j, j + 7)
        ), j


def test_absorption_denominator_squarefree():
    # verify's witness (gcd(d, d') is a constant) against its reference
    # (disc(d) != 0): they agree on rows 2..30 and both flag a square.
    from hadwalk.exactq import poly_discriminant, poly_gcd

    def squarefree(d):
        return poly_gcd(d, d.derivative()).degree == 0, poly_discriminant(d) != 0

    for n in range(2, 31):
        assert squarefree(T(*absorption_denominator(n))) == (True, True), n
    d = T(*absorption_denominator(7)) * T(1, -3) * T(1, -3)
    assert squarefree(d) == (False, False)
