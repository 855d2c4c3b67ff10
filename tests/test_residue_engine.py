"""Tests for the certified contour-integration pipeline."""

from __future__ import annotations

import cmath
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from hadwalk import residue_engine
from hadwalk.errors import (
    START_BITS,
    ConsistencyError,
    PrecisionError,
    PrecisionEscalation,
)
from hadwalk.exactq import Polynomial, poly_gcd
from hadwalk.residue_engine import (
    MAX_ROW,
    Integrand,
    RootSet,
    _abs_up,
    _div,
    _horner,
    _mul,
    _numerators_at,
    _product,
    _r_at,
    _row_bound,
    _value_on_disk,
    build_integrand,
    certified_poles,
    classify_roots,
    denominator_bound,
    denominator_bounds,
    find_roots,
    integrate_exact,
    integrate_row,
    residue_sum,
    row_starts,
)
from hadwalk.walk_core import (
    A,
    B,
    absorption_denominator,
    gf_denominator,
    p_exact,
    r_poly,
)

F = Fraction


def T(*coeffs):
    return Polynomial(coeffs, var="t")


def ints(p: Polynomial) -> tuple[int, ...]:
    """p as the engine takes a polynomial: its integer coefficients, low
    degree first (Polynomial stores an integral coefficient as an int)."""
    return p.coeffs


def one_plus_2t():
    return T(1, 2)


def ring(p: tuple[int, ...]) -> list[complex]:
    """A start that knows nothing of p: deg p points spread on |t| = 1."""
    deg = len(p) - 1
    return [cmath.rect(1, 2 * cmath.pi * k / deg + 0.7) for k in range(deg)]


def d_start(n: int):
    return row_starts(n)[0]


def c_start(n: int):
    return row_starts(n)[1]


def numerator(j, n):
    """b_j = t^(j-1) r_{n-j}^2 of the integrand, multiplied out."""
    r = r_poly(n - j)
    return Polynomial.monomial(j - 1, var="t") * r * r


def exact(x, bits):
    """The Gaussian fixed-point pair x at `bits` bits as exact (re, im)."""
    unit = 1 << bits
    return F(x[0], unit), F(x[1], unit)


def gap2(u, v):
    """Squared distance between two exact (re, im) pairs."""
    return (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2


def near(rs, x, target, radius):
    """Whether the approximation x of rs lies within radius of target."""
    return gap2(exact(x, rs.precision_bits), target) <= radius ** 2


# --------------------------------------------------------------- integrand


def test_build_integrand_frozen_smallest():
    # j=1, n=2: b = r_1^2 = 1, c = D_2 = 1, d = r_2 - r_1 = -2t.
    ig = build_integrand(1, 2)
    assert numerator(1, 2) == T(1)
    assert ig.c == (1,)
    assert ig.d == (0, -2)
    assert (ig.j, ig.n) == (1, 2)


def test_build_integrand_structure():
    ig = build_integrand(2, 5)
    assert ig.c == gf_denominator(5)
    assert ig.d == absorption_denominator(5)
    # c and d follow (j, n) on every construction, and stay put.
    assert Integrand(j=2, n=5) == ig
    assert ig._replace(n=6) == build_integrand(2, 6)
    with pytest.raises(AttributeError):
        ig.d = ig.c


def test_build_integrand_validation():
    with pytest.raises(ValueError):
        build_integrand(1, 1)
    with pytest.raises(ValueError):
        build_integrand(0, 4)
    with pytest.raises(ValueError):
        build_integrand(4, 4)
    for build in (lambda: build_integrand(75, MAX_ROW + 1),
                  lambda: integrate_row(MAX_ROW + 1)):
        with pytest.raises(PrecisionError, match=f"up to n = {MAX_ROW}"):
            build()


# -------------------------------------------------------- denominator bound


def test_denominator_bound_frozen():
    # j=1, n=2: d = -2t, so N = 2 d(-1/2) = 2 and m = 1: delta = 2.
    db = denominator_bound(build_integrand(1, 2))
    assert (db.N, db.power, db.delta) == (2, 0, 2)

    # n=3: d = r_3 - r_2 = 4t^2 - t, so N = 4 d(-1/2) = 6.  j=1 has
    # m = 2 and delta = 12, a multiple of the true denominator 3; j=2
    # has m = 1 and delta = 6.
    db = denominator_bound(build_integrand(1, 3))
    assert (db.N, db.power, db.delta) == (6, 1, 12)
    db = denominator_bound(build_integrand(2, 3))
    assert (db.N, db.power, db.delta) == (6, 0, 6)


def test_denominator_bound_clears_the_true_denominator():
    for n in [*range(2, 61), 80, 100, 126, 127, MAX_ROW]:
        for j, db in enumerate(denominator_bounds(n), start=1):
            assert (db.delta * p_exact(j, n)).denominator == 1, (j, n)


def test_row_bounds_equal_the_cell_bounds():
    for n in range(2, 17):
        want = [denominator_bound(build_integrand(j, n)) for j in range(1, n)]
        assert denominator_bounds(n) == want, n


def _casoratian_partner(top):
    """q_0..q_top: the r recurrence from q_0 = 1, q_1 = 0."""
    q = [T(1), T(0)]
    for _ in range(top - 1):
        q.append(T(1, -2) * q[-1] + T(0, 1) * q[-2])
    return q


def test_casoratian_of_the_r_recurrence():
    # Step 1 of the proof on DenominatorBound: r_k q_{k-1} - r_{k-1} q_k
    # = (-t)^(k-1).
    q = _casoratian_partner(40)
    for k in range(1, 41):
        want = Polynomial.monomial(k - 1, var="t") * (-1) ** (k - 1)
        assert r_poly(k) * q[k - 1] - r_poly(k - 1) * q[k] == want, k


def test_outside_factor_proof_inputs():
    # Step 3 of the proof on build_integrand: c(0) = 1 and c shares no
    # root with r_{n-1}, so every root of c is a pole of f_1.
    for n in range(2, 61):
        c = gf_denominator(n)
        assert c[0] == 1, n
        assert poly_gcd(T(*c), r_poly(n - 1)).degree == 0, n


def test_inside_factor_proof_identities():
    # Steps 2 and 3 of the proof for d on build_integrand, coefficient by
    # coefficient: (4t)^(k-1) r_k(1/(4t)) = (-2)^(k-1) r_k(t) and
    # (4t)^(n-1) c(1/(4t)) = (-2)^(n-1) d(t), on every row the route runs.
    for n in range(1, MAX_ROW + 1):
        pairs = [(r_poly(n), r_poly(n))]
        if n >= 2:
            pairs.append((T(*gf_denominator(n)), T(*absorption_denominator(n))))
        for p, q in pairs:
            for i in range(n):
                assert (p[i] * 4 ** (n - 1 - i)
                        == (-2) ** (n - 1) * q[n - 1 - i]), (n, i)


def test_d_starts_with_minus_t():
    # The hypothesis d_0 = 0, d_1 = -1 holds on every row the route runs.
    for n in range(3, MAX_ROW + 1):
        d = absorption_denominator(n)
        assert (d[0], d[1]) == (0, -1), n


def test_quarter_scaled_r_has_integer_coefficients_and_unit_lead():
    # Step 5 of the proof: 2^(k-1) r_k(s/4) lies in Z[s] and has leading
    # coefficient (-1)^(k-1).
    for k in range(1, 61):
        scaled = [F(a * 2 ** (k - 1), 4**i)
                  for i, a in enumerate(r_poly(k).coeffs)]
        assert all(a.denominator == 1 for a in scaled), k
        assert scaled[-1] == (-1) ** (k - 1), k


def _series_coefficient(num, den, k):
    """Coefficient k of the power series num/den, den[0] != 0."""
    out = []
    for i in range(k + 1):
        acc = F(num[i]) if i < len(num) else F(0)
        for step in range(1, min(i, len(den) - 1) + 1):
            acc -= den[step] * out[i - step]
        out.append(acc / den[0])
    return out[k]


def test_the_bound_residues_at_zero_half_and_infinity():
    # Steps 2-5 of the proof, computed exactly: with
    # Phi = b Q / ((1 + 2t)(-t)^(n-1) d), the residues at 0 and at
    # infinity are integers, delta clears the one at -1/2, and together
    # with b(0)/(c(0) d'(0)) they give p = (-1)^j S.
    q = _casoratian_partner(14)
    half = F(-1, 2)
    for n in range(3, 15):
        d = T(*absorption_denominator(n))
        Q = q[n - 1] - q[n]
        sign = (-1) ** (n - 1)
        # Phi = num / (t^n low) = num / full.
        low = one_plus_2t() * T(*d.coeffs[1:]) * sign
        full = Polynomial.monomial(n, var="t") * low
        for j in range(1, n):
            delta = denominator_bound(build_integrand(j, n)).delta
            num = numerator(j, n) * Q
            res_0 = _series_coefficient(num.coeffs, low.coeffs, n - 1)
            res_half = num(half) / (
                2 * (-half) ** (n - 1) * d(half))
            k = 1 - full.degree + num.degree
            res_inf = -_series_coefficient(
                num.coeffs[::-1], full.coeffs[::-1], k) if k >= 0 else 0
            assert res_0.denominator == 1, (j, n)
            assert F(res_inf).denominator == 1, (j, n)
            assert (res_half * delta).denominator == 1, (j, n)
            at_zero = -1 if j == 1 else 0
            s_sum = at_zero - res_0 - res_half - res_inf
            assert (-1) ** j * s_sum == p_exact(j, n), (j, n)


def test_denominator_bound_degenerate_pole_configurations():
    # d(-1/2) = 0: -1/2 is the one root that c and d could share, and
    # the closed form rules it out (N = (A^(n-1) + B^(n-1))/2).
    with pytest.raises(ConsistencyError, match="-1/2"):
        _row_bound((0, -1, -2))
    # Every d of the family starts -t; anything else is a bug.
    with pytest.raises(ConsistencyError):
        _row_bound((0, 1, 1))


def test_row_bound_is_half_the_closed_form_denominator():
    # N = 2^(n-1) d(-1/2) = (A^(n-1) + B^(n-1))/2, so N != 0 on every
    # row the route runs, as the proof on DenominatorBound says.
    for n in range(2, MAX_ROW + 1):
        assert 2 * _row_bound(absorption_denominator(n)) == (
            A ** (n - 1) + B ** (n - 1)), n


def test_a_repeated_root_never_certifies(monkeypatch):
    # The root certificate is what proves d squarefree: deg p disjoint
    # disks that each hold a root cannot cover a double root.
    with pytest.raises(PrecisionEscalation, match="overlap"):
        find_roots((1, -2, 1), 128, ring((1, -2, 1)))
    # So a ladder on such a p ends with PrecisionError.  A 256-bit
    # ceiling keeps it short (each climb to 8,192 bits takes seconds).
    monkeypatch.setattr(residue_engine, "MAX_BITS", 256)
    for p in ((1, -2, 1), (0, 1, -2, 1)):
        with pytest.raises(PrecisionError, match="root disks overlap"):
            certified_poles(p, ring(p))


# ------------------------------------------------------ fixed-point kernel


def _dyadic_points(bits: int, count: int, seed: int) -> list[tuple[int, int]]:
    """Random Gaussian fixed-point points at `bits` bits: half inside the
    unit disk, half outside it with modulus below 3."""
    rng = random.Random(seed)
    unit = 1 << bits
    out = []
    while len(out) < count:
        inside = len(out) % 2 == 0
        span = unit if inside else 3 * unit
        x = (rng.randrange(-span, span), rng.randrange(-span, span))
        m = x[0] * x[0] + x[1] * x[1]
        lo, hi = (0, unit * unit) if inside else (unit * unit, 9 * unit * unit)
        if lo <= m < hi and m != unit * unit:
            out.append(x)
    return out


_KERNEL_POLYS = {
    "d12": T(*absorption_denominator(12)),
    "c9": T(*gf_denominator(9)),
    "huge": T(-2, 0, 1) * T(-3, 1) * 10 ** 400,
}


@pytest.mark.parametrize("bits", [16, 128, 1024])
def test_fixed_point_products_and_quotients(bits):
    # Each floored product or quotient errs by less than sqrt(2) ulps, and
    # _product's bound covers computed operands with their own errors.
    ulp2 = F(1, 1 << bits) ** 2
    rng = random.Random(bits)
    points = _dyadic_points(bits, 40, bits)
    for u, v in zip(points, points[1:]):
        (a, b), (c, d) = exact(u, bits), exact(v, bits)
        prod = (a * c - b * d, a * d + b * c)
        assert gap2(exact(_mul(u, v, bits), bits), prod) < 2 * ulp2
        n = c * c + d * d
        quo = ((a * c + b * d) / n, (b * c - a * d) / n)
        assert gap2(exact(_div(u, v, bits), bits), quo) < 2 * ulp2
        eu, ev = rng.randrange(1, 2 ** 20), rng.randrange(1, 2 ** 20)
        shifted_u = (u[0] + eu * 3 // 5, u[1] - eu * 4 // 5)
        shifted_v = (v[0] - ev, v[1])
        got, err = _product(shifted_u, eu, shifted_v, ev, bits)
        assert gap2(exact(got, bits), prod) <= err * err * ulp2


@pytest.mark.parametrize("bits", [16, 128, 1024])
@pytest.mark.parametrize("name", list(_KERNEL_POLYS))
def test_horner_value_within_its_bound(bits, name):
    # The absolute bound holds inside and outside the unit disk, and for
    # coefficients far beyond the double range.
    poly = _KERNEL_POLYS[name]
    coeffs = ints(poly)
    ulp2 = F(1, 1 << bits) ** 2
    for x in _dyadic_points(bits, 12, len(coeffs) + bits):
        value, err = _horner(coeffs, x, bits)
        want = _exact_at(poly, exact(x, bits))
        assert gap2(exact(value, bits), want) <= err * err * ulp2, (name, x)


@pytest.mark.parametrize("name", list(_KERNEL_POLYS))
def test_value_on_disk_covers_the_disk(name):
    # Points y on the rim |y - x| = rho: q(y) lies within the stated
    # error of the value computed at x.  On the disks of radius 1/4 some
    # rim point lies beyond the first-order part of the bound,
    # e + rho (|q'(x)| + e'), so the rho^2 tail is what covers it.
    poly = _KERNEL_POLYS[name]
    coeffs = ints(poly)
    deriv = ints(poly.derivative())
    bits = 128
    ulp2 = F(1, 1 << bits) ** 2
    for log_rho in (30, 2):
        rho = 1 << (bits - log_rho)
        beyond_first_order = False
        for x in _dyadic_points(bits, 6, 7):
            value, err = _value_on_disk(coeffs, x, rho, bits)
            _, e = _horner(coeffs, x, bits)
            slope, e_slope = _horner(deriv, x, bits)
            first = e + -(-rho * (_abs_up(slope) + e_slope) >> bits)
            point = exact(x, bits)
            for dre, dim in ((1, 0), (-1, 0), (0, 1), (F(3, 5), F(-4, 5))):
                y = (point[0] + F(dre) / 2**log_rho,
                     point[1] + F(dim) / 2**log_rho)
                gap = gap2(exact(value, bits), _exact_at(poly, y))
                assert gap <= err * err * ulp2, (log_rho, x)
                beyond_first_order |= gap > first * first * ulp2
        assert beyond_first_order or log_rho != 2


# ------------------------------------------------------------- root finding


def test_find_roots_frozen_small():
    rs = find_roots((0, -2), 128, ring((0, -2)))  # -2t
    assert rs.precision_bits == 128
    assert len(rs.approximations) == 1
    assert near(rs, rs.approximations[0], (0, 0), rs.error_radius)
    assert rs.error_radius < F(1, 10 ** 25)

    rs = find_roots((0, -1, 4), 128, ring((0, -1, 4)))  # t(4t - 1)
    got = sorted(rs.approximations)
    assert near(rs, got[0], (0, 0), rs.error_radius)
    assert near(rs, got[1], (F(1, 4), 0), rs.error_radius)

    rs = find_roots((1, -1), 128, ring((1, -1)))  # 1 - t
    assert near(rs, rs.approximations[0], (1, 0), rs.error_radius)


def test_find_roots_certificate_means_disjoint_disks():
    rs = find_roots(gf_denominator(5), 128, c_start(5))
    assert len(rs.approximations) == 3
    for i in range(3):
        for k in range(i + 1, 3):
            gap = gap2(exact(rs.approximations[i], 128),
                       exact(rs.approximations[k], 128))
            assert gap > (2 * rs.error_radius) ** 2


def test_find_roots_refinement_is_consistent():
    p = absorption_denominator(7)
    coarse = find_roots(p, 128, d_start(7))
    fine = find_roots(p, 512, d_start(7))
    assert fine.error_radius < coarse.error_radius
    def key(rs):
        return lambda x: tuple(round(float(v), 6)
                               for v in exact(x, rs.precision_bits))

    for a, b in zip(
        sorted(coarse.approximations, key=key(coarse)),
        sorted(fine.approximations, key=key(fine)),
    ):
        assert near(coarse, a, exact(b, 512), 2 * coarse.error_radius)


def test_find_roots_cached_per_precision():
    p = absorption_denominator(6)
    assert find_roots(p, 128, d_start(6)) is find_roots(p, 128, d_start(6))
    # The memo keys on the precision after the double floor and on the
    # start as a tuple, so a call that passes the row's points as a list,
    # or asks for fewer bits than the floor, gets back the very set that
    # an equivalent call certified, the ladder's first rung among them.
    memo = residue_engine._find_roots
    memo.cache_clear()
    ig = build_integrand(3, 7)
    assert integrate_exact(ig) == p_exact(3, 7)
    before = memo.cache_info()
    start = d_start(7)
    rs = find_roots(ig.d, 128, start)
    assert find_roots(ig.d, 128, list(start)) is rs
    low = find_roots(ig.d, 16, start)
    assert low.precision_bits == residue_engine._DOUBLE_BITS
    assert find_roots(ig.d, residue_engine._DOUBLE_BITS, start) is low
    after = memo.cache_info()
    assert (after.hits, after.misses) == (before.hits + 3, before.misses + 1)


def test_ladder_runs_one_cold_start_for_d(monkeypatch):
    # (1, 30) climbs from 128 to 256 bits on d.  Only the first rung
    # starts from the row's points; the 256-bit rung refines the 128-bit
    # set, and c's roots are never found.
    calls = []
    real = residue_engine.find_roots

    def spy(p, precision_bits, start):
        calls.append((p, precision_bits, start))
        return real(p, precision_bits, start)

    monkeypatch.setattr(residue_engine, "find_roots", spy)
    residue_engine._find_roots.cache_clear()
    ig = build_integrand(1, 30)
    assert integrate_exact(ig) == p_exact(1, 30)
    assert [(p, bits) for p, bits, _ in calls] == [(ig.d, 128), (ig.d, 256)]
    assert calls[0][2] == d_start(30)
    assert isinstance(calls[1][2], RootSet)
    assert calls[1][2].precision_bits == 128
    # A second run of the same ladder is served from the memo.
    misses = residue_engine._find_roots.cache_info().misses
    assert integrate_exact(ig) == p_exact(1, 30)
    assert residue_engine._find_roots.cache_info().misses == misses


def test_find_roots_warm_start_at_the_precision_is_returned():
    p = absorption_denominator(6)
    rs = find_roots(p, 128, d_start(6))
    assert find_roots(p, 128, rs) is rs
    assert find_roots(p, 16, rs) is rs
    fine = find_roots(p, 256, rs)
    assert fine.precision_bits == 256
    assert fine.error_radius < rs.error_radius
    with pytest.raises(ValueError):
        find_roots(absorption_denominator(7), 256, rs)


def test_find_roots_under_concurrent_callers():
    # More threads than cores, with a short switch interval: callers
    # racing on a key may each compute it, but every set they get back
    # for one (p, bits) is the same, and the memo stays bounded.
    residue_engine._find_roots.cache_clear()
    polys = [(absorption_denominator(n), d_start(n)) for n in (3, 4, 5, 6)]
    seen: dict[tuple[int, int], list] = {}
    lock = threading.Lock()

    def work():
        for _ in range(3):
            for k, (p, start) in enumerate(polys):
                for bits in (128, 256):
                    rs = find_roots(p, bits, start)
                    with lock:
                        seen.setdefault((k, bits), []).append(rs)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert sorted(len(v) for v in seen.values()) == [6 * 3] * 8
    for got in seen.values():
        assert all(rs == got[0] for rs in got)
    assert residue_engine._find_roots.cache_info().currsize <= 256


def _one_true_root_per_disk(p: tuple[int, ...], rs) -> None:
    """Each certified disk holds exactly one root of mpmath.polyroots
    computed at twice the certifying precision, and no root is missed."""
    bits = rs.precision_bits
    with mpmath.workprec(2 * bits):
        true = mpmath.polyroots(
            list(reversed(p)), maxsteps=400, extraprec=64
        )
        radius = mpmath.mpf((rs.radius, -bits))
        points = [mpmath.mpc(mpmath.mpf((x, -bits)), mpmath.mpf((y, -bits)))
                  for x, y in rs.approximations]
        hits = [
            [k for k, z in enumerate(true) if abs(z - x) <= radius]
            for x in points
        ]
    assert all(len(h) == 1 for h in hits)
    assert sorted(h[0] for h in hits) == list(range(len(true)))


def _bad_starts(p: tuple[int, ...]) -> dict[str, list]:
    deg = len(p) - 1
    lead = abs(p[-1])
    cauchy = 1 + max(abs(c) for c in p[:-1]) / lead
    far = 10 ** 6 * float(cauchy)
    return {
        "all equal": [complex(0.3, 0.1)] * deg,
        "all zero": [0j] * deg,
        "far outside": [far * cmath.exp(1j * cmath.pi * (2 * k + 1) / deg)
                        for k in range(deg)],
    }


@pytest.mark.parametrize("p", [
    absorption_denominator(7),
    gf_denominator(8),
    ints(T(-2, 0, 1) * T(-3, 1)),
], ids=["d7", "c8", "cubic"])
def test_find_roots_is_sound_from_bad_starts(p):
    # A start can cost sweeps or force an escalation, but whatever
    # certifies is right.
    for name, start in _bad_starts(p).items():
        try:
            rs = find_roots(p, 128, start)
        except PrecisionEscalation:
            continue
        _one_true_root_per_disk(p, rs)


def test_find_roots_coefficients_beyond_the_double_range():
    # Fixed-point Horner never converts a coefficient to a double.
    p = ints(T(-2, 0, 1) * T(-3, 1) * 10 ** 400)
    assert max(abs(c) for c in p) > 10 ** 308
    rs = find_roots(p, 128, ring(p))
    _one_true_root_per_disk(p, rs)


def test_find_roots_rejects_a_malformed_start():
    p = absorption_denominator(6)
    start = d_start(6)
    for bad in (start[:-1], start + (0j,), (),
                start[:-1] + (complex("nan"),),
                start[:-1] + (complex(0, float("inf")),)):
        with pytest.raises(ValueError, match="start"):
            find_roots(p, 128, bad)
        with pytest.raises(ValueError, match="start"):
            certified_poles(p, bad)


def test_find_roots_validation():
    with pytest.raises(ValueError):
        find_roots((3,), 128, ())
    # Truncating 1/2 to 0 would certify the root 0 of t.
    with pytest.raises(ValueError, match="integer coefficients"):
        find_roots((F(1, 2), 1), 128, [0.3])
    # A Polynomial is not a coefficient sequence (indexing it past its
    # degree gives 0 forever), so it is refused, not iterated.
    with pytest.raises(ValueError, match="integer coefficients"):
        find_roots(T(1, 1), 128, [0.3])
    # A trailing zero would overstate the degree.
    with pytest.raises(ValueError, match="nonzero"):
        find_roots((1, -1, 0), 128, [0.9, 0.1])


# ----------------------------------------------------------- classification


def test_classify_frozen():
    rs = find_roots((0, -1, 4), 128, ring((0, -1, 4)))
    inside, outside = classify_roots(rs)
    assert len(inside) == 2 and not outside

    rs = find_roots((1, -1), 128, ring((1, -1)))
    inside, outside = classify_roots(rs)
    assert not inside and len(outside) == 1


def test_classify_every_row_splits_cleanly():
    # row_starts gives each factor one point per root, and from them both
    # factors certify and classify at the first rung.
    for n in range(2, 41):
        d, c = absorption_denominator(n), gf_denominator(n)
        assert (len(d_start(n)), len(c_start(n))) == (len(d) - 1, len(c) - 1)
        inside, outside = classify_roots(find_roots(d, START_BITS, d_start(n)))
        assert len(inside) == n - 1 and not outside
        if len(c) > 1:
            inside, outside = classify_roots(
                find_roots(c, START_BITS, c_start(n))
            )
            assert not inside and len(outside) == n - 2


def test_certified_poles_escalates_transparently():
    # Degree-1 input certifies at the first rung.
    rs, inside, outside = certified_poles((1, -1), ring((1, -1)))
    assert rs.precision_bits == 128
    assert not inside and len(outside) == 1
    with pytest.raises(ValueError):
        certified_poles((5,), ())


def test_certified_poles_reports_exhaustion():
    # Roots exactly on the contour never classify, at any precision.
    with pytest.raises(PrecisionError, match="degree-2 polynomial"):
        certified_poles((-1, 0, 4), ring((-1, 0, 4)), 4096)


def test_classify_root_on_contour_escalates():
    rs = find_roots((-1, 0, 4), 128, ring((-1, 0, 4)))  # roots at +-1/2
    with pytest.raises(PrecisionEscalation):
        classify_roots(rs)


# -------------------------------------------------------------- residue sum


def test_residue_sum_frozen():
    # j=1, n=3: residues of (1-2t)^2 / ((1-t) t(4t-1)) at t=0 and t=1/4
    # are -1 and 1/3.
    ig = build_integrand(1, 3)
    (re, im), err = residue_sum(ints(numerator(1, 3)), ig.c, ig.d,
                                find_roots(ig.d, 128, d_start(3)))
    assert err < F(1, 10 ** 25)
    assert abs(re + F(2, 3)) <= err
    assert abs(im) <= err


def test_residue_closure_over_the_whole_plane():
    # For N / ((1+2t)(r_n - r_{n-1})) the denominator degree exceeds the
    # numerator degree by 2, so the residues over all poles sum to zero.
    lin = ints(one_plus_2t())
    lin_roots = find_roots(lin, 128, ring(lin))
    for n in range(2, 13):
        d = absorption_denominator(n)
        d_roots = find_roots(d, 128, d_start(n))
        for j in sorted({1, n // 2, n - 1}):
            num = ints(r_poly(n - j) * (r_poly(j) - r_poly(j - 1)))
            s1, e1 = residue_sum(num, lin, d, d_roots)
            s2, e2 = residue_sum(num, d, lin, lin_roots)
            assert gap2(s1, (-s2[0], -s2[1])) <= (e1 + e2) ** 2


def test_residue_at_minus_half_recovers_the_evaluated_formula():
    # The pole at t = -1/2 alone carries p_exact.
    lin = ints(one_plus_2t())
    lin_roots = find_roots(lin, 128, ring(lin))
    for j, n in [(1, 2), (1, 3), (2, 5), (4, 9), (3, 11)]:
        num = ints(r_poly(n - j) * (r_poly(j) - r_poly(j - 1)))
        (re, _), err = residue_sum(num, absorption_denominator(n), lin,
                                   lin_roots)
        assert abs(re - p_exact(j, n)) <= err


# ------------------------------------------------------------- exact output


def test_integrate_exact_matches_evaluated_formula_small():
    for n in range(2, 10):
        for j in range(1, n):
            assert integrate_exact(build_integrand(j, n)) == p_exact(j, n)


def test_integrate_exact_frozen():
    assert integrate_exact(build_integrand(1, 2)) == F(1, 2)
    assert integrate_exact(build_integrand(1, 3)) == F(2, 3)
    assert integrate_exact(build_integrand(2, 3)) == F(1, 3)


def test_outside_factor_is_never_root_found(monkeypatch):
    # The roots of c lie outside the contour by proof (build_integrand),
    # so neither engine entry point finds them; d climbs to the rung the
    # cell needs.  (1, 30) needs 256 bits.  (15, 30), (1, 13) and (2, 20)
    # certify at the rung integrate_row(n, [j]) uses, since a single cell
    # takes its numerator from the same recurrence.
    calls: list[tuple[tuple[int, ...], int]] = []
    real = residue_engine.find_roots

    def spy(p, precision_bits, start):
        calls.append((p, precision_bits))
        return real(p, precision_bits, start)

    monkeypatch.setattr(residue_engine, "find_roots", spy)
    for j, n, d_bits in [(15, 30, 128), (1, 30, 256), (1, 13, 128),
                         (2, 20, 128)]:
        ig = build_integrand(j, n)
        calls.clear()
        assert integrate_exact(ig) == p_exact(j, n)
        assert integrate_row(n, [j]) == [p_exact(j, n)]
        assert [p for p, _ in calls if p != ig.d] == [], (j, n)
        assert max(bits for _, bits in calls) == d_bits, (j, n)


def test_inside_factor_disks_wider_than_half_escalate(monkeypatch):
    # d's roots are not classified, so the one hypothesis left for the
    # Taylor bound of _numerators_at, disks of radius below 1/2, is
    # checked on every rung: a 128-bit set widened to 1/2 climbs a rung.
    real = residue_engine.find_roots

    def widened(p, precision_bits, start):
        rs = real(p, precision_bits, start)
        if rs.precision_bits > 128:
            return rs
        return rs._replace(radius=1 << (rs.precision_bits - 1))

    monkeypatch.setattr(residue_engine, "find_roots", widened)
    assert integrate_exact(build_integrand(15, 30)) == p_exact(15, 30)
    monkeypatch.setattr(residue_engine, "MAX_BITS", 128)
    with pytest.raises(PrecisionError, match="root disks too wide"):
        integrate_exact(build_integrand(15, 30))


def test_residue_sum_refuses_disks_wider_than_half():
    # The disk lemma behind every value on a disk needs a radius below 1,
    # and the weights, which residue_sum shares with the engine, refuse a
    # set widened to 1/2, so no bound on such disks is returned.
    ig = build_integrand(1, 3)
    rs = find_roots(ig.d, 128, d_start(3))
    wide = rs._replace(radius=1 << (rs.precision_bits - 1))
    with pytest.raises(PrecisionEscalation, match="root disks too wide"):
        residue_sum(ints(numerator(1, 3)), ig.c, ig.d, wide)
    assert residue_sum(ints(numerator(1, 3)), ig.c, ig.d, rs)[1] < F(1, 10 ** 25)


def _highest_rung(monkeypatch, run):
    """run()'s value and the most bits it asked find_roots for."""
    asked = []
    real = residue_engine.find_roots

    def spy(p, precision_bits, start):
        asked.append(precision_bits)
        return real(p, precision_bits, start)

    with monkeypatch.context() as patch:
        patch.setattr(residue_engine, "find_roots", spy)
        return run(), max(asked)


def test_disk_lemma_weights_save_a_rung(monkeypatch):
    # With the weights bounded by the Taylor lemma at x, every cell of
    # row 29 certifies at 128 bits and every cell of row 57 by 256,
    # where the mean-value bound over the disk left some a rung higher.
    for n, bits in ((29, 128), (57, 256)):
        row, top = _highest_rung(monkeypatch, lambda: integrate_row(n))
        assert row == [p_exact(j, n) for j in range(1, n)], n
        assert top == bits, n


def test_centre_cell_of_row_150_certifies_at_512_bits(monkeypatch):
    # Its 337-bit delta needs an error below 2^-339: the weights' term
    # reaches 2^-423 at 512 bits, so the ladder stops there.
    value, top = _highest_rung(
        monkeypatch, lambda: integrate_exact(build_integrand(75, 150)))
    assert value == p_exact(75, 150)
    assert top == 512


def test_integrate_exact_stable_under_start_precision():
    # Every bound is an exact integer at any precision, so a 16-bit start
    # is sound and gives the same answer.
    for j, n in [(1, 2), (1, 5), (3, 8)]:
        ig = build_integrand(j, n)
        want = integrate_exact(ig)
        assert integrate_exact(ig, start_bits=512) == want
        assert integrate_exact(ig, start_bits=16) == want
        assert integrate_row(n, [j], start_bits=16) == [want]


def test_integrate_exact_reports_exhaustion(monkeypatch):
    # delta (88 bits at (20, 40), 107 at (1, 40)) needs more bits than a
    # 64-bit ceiling allows, so the route fails before it finds a single
    # root.  The message gives delta's size, never delta itself.
    monkeypatch.setattr(residue_engine, "MAX_BITS", 64)
    calls = []
    real = residue_engine.find_roots

    def spy(p, precision_bits, start):
        calls.append(precision_bits)
        return real(p, precision_bits, start)

    monkeypatch.setattr(residue_engine, "find_roots", spy)
    for run, bits in ((lambda: integrate_exact(build_integrand(20, 40)), 88),
                      (lambda: integrate_row(40, [1, 20]), 107)):
        with pytest.raises(PrecisionError, match=f"{bits}-bit delta") as info:
            run()
        assert "delta needs more than 64 bits" in str(info.value)
        assert len(str(info.value)) < 200
    assert calls == []


@pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(-1, 2)])
def test_a_certified_value_outside_the_unit_interval_raises(monkeypatch, bad):
    # A probability outside [0, 1] can only be the engine's fault.  Both
    # entry points refuse it, naming the cell and not the value.
    monkeypatch.setattr(residue_engine, "_round_cell", lambda *args: bad)
    message = r"^contour value at j=1, n=3 outside \[0, 1\]$"
    with pytest.raises(ConsistencyError, match=message):
        integrate_exact(build_integrand(1, 3))
    with pytest.raises(ConsistencyError, match=message):
        integrate_row(3)


def test_integrate_exact_certifies_at_n_50():
    # delta has 110 bits at (25, 50), far inside MAX_BITS, so the route
    # certifies there.
    assert integrate_exact(build_integrand(25, 50)) == p_exact(25, 50)


# ------------------------------------------------------------ row engine


def _exact_at(p: Polynomial, x: tuple[F, F]) -> tuple[F, F]:
    # Horner in exact complex rationals, (re, im) pairs.
    re, im = F(0), F(0)
    for a in reversed(p.coeffs):
        re, im = re * x[0] - im * x[1] + a, re * x[1] + im * x[0]
    return re, im


def _within(got, want: tuple[F, F], bound: int, bits: int = 128) -> bool:
    # got and bound are in units of 2^-bits.
    return gap2(exact(got, bits), want) <= F(bound, 1 << bits) ** 2


def _points_near_roots(n: int) -> list[tuple[int, int]]:
    # Roots of d cut to 60 fractional bits: exact inputs with full-length
    # products at 128 bits, so the recurrence really rounds.
    cut = 128 - 60
    roots = find_roots(absorption_denominator(n), 128, d_start(n))
    return [(x >> cut << cut, y >> cut << cut) for x, y in roots.approximations]


@pytest.mark.parametrize("n", [3, 8, 14])
def test_recurrence_values_within_their_rounding_bounds(n):
    js = list(range(1, n))
    for x in _points_near_roots(n):
        point = exact(x, 128)
        r, dr, er, edr = _r_at(x, n - 1, 128)
        for k in range(1, n):
            assert _within(r[k], _exact_at(r_poly(k), point), er[k]), (n, k)
            assert _within(dr[k], _exact_at(r_poly(k).derivative(), point),
                           edr[k]), (n, k)
        for j, (value, err) in zip(js, _numerators_at(x, 0, n, js, 128)):
            assert _within(value, _exact_at(numerator(j, n), point), err), \
                (n, j)


@pytest.mark.parametrize("n", [4, 9, 14])
def test_recurrence_values_cover_the_root_disk(n):
    # Points y on the rim |y - x| = rho: b_j(y) lies within the stated
    # error of the value computed at x.
    js = list(range(1, n))
    bs = [numerator(j, n) for j in js]
    rho = 1 << (128 - 40)  # 2^-40
    for x in _points_near_roots(n):
        values = _numerators_at(x, rho, n, js, 128)
        for dre, dim in ((1, 0), (-1, 0), (0, 1), (F(3, 5), F(-4, 5))):
            point = exact(x, 128)
            y = (point[0] + F(dre) / 2**40, point[1] + F(dim) / 2**40)
            for j, b, (value, err) in zip(js, bs, values):
                assert _within(value, _exact_at(b, y), err), (n, j)


def test_integrate_row_equals_the_evaluated_formula():
    for n in range(2, 13):
        assert integrate_row(n) == [p_exact(j, n) for j in range(1, n)], n
    assert integrate_row(9, [7, 2]) == [p_exact(7, 9), p_exact(2, 9)]
    assert integrate_row(9, []) == []
    with pytest.raises(ValueError):
        integrate_row(1)
    with pytest.raises(ValueError):
        integrate_row(5, [2, 5])


def test_weights_once_per_root_and_rung(monkeypatch):
    # The weights depend on the row only: one per root of d at each rung
    # the ladder runs, however many cells the row asks for.
    n = 30
    d = absorption_denominator(n)
    for js in ([1], [3, 4, 5, 6], None):
        precisions = []
        real = residue_engine._weight

        def spy(cc, dc, x, rho, bits):
            precisions.append(bits)
            return real(cc, dc, x, rho, bits)

        monkeypatch.setattr(residue_engine, "_weight", spy)
        integrate_row(n, js)
        monkeypatch.undo()
        rungs = sorted(set(precisions))
        assert precisions == [bits for bits in rungs for _ in range(len(d) - 1)]
    # The full row of 30 runs two rungs: the count is per rung, not per
    # cell.
    assert rungs == [128, 256]


def test_row_cells_equal_single_cell_integration():
    # A cell gives the same rational alone and inside its row.
    n = 16
    row = integrate_row(n, start_bits=256)
    for j in (1, 5, 8, 15):
        assert row[j - 1] == integrate_exact(build_integrand(j, n)), j
