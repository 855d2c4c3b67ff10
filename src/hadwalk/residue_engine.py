"""Contour-integral pipeline: certified numeric residues rounded to an
exact rational.

The probability p_j^(n) equals a scale factor times the sum of residues
of b/(c d) over the roots of d, all of which lie inside the contour
|t| = 1/2 while the roots of c stay outside.  The sum is approximated
in arbitrary-precision floating point with a fully propagated error
bound, multiplied by an integer delta known to clear the denominator
of the exact value, and rounded to the nearest integer.  If the
certified error and the rounding distance both stay below 1/4, the
rounded value is provably exact.

Everything numeric lives behind escalation: any failed bound raises an
internal signal, the working precision doubles, and the computation
reruns (warm-started) until it certifies or hits the ceiling.

Roots are found the way MPSolve finds them (Bini 1996; Bini and Robol
2014): cheap starting points first, a certificate afterwards.  A cold
start is an Aberth run in double precision from Newton-polygon radii,
stopped at the double noise floor; Aberth sweeps at doubling precision
then refine it up to the rung's precision.  The certificate (disks of
radius deg |p/p'|, pairwise disjoint) is computed at that precision
from the final approximations alone, so the starting points decide how
long a run takes, never whether its answer is right.  The outside
factor c is classified once, before the ladder, since the residue sum
only evaluates c at the roots of d.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

import mpmath
from mpmath import mpc, mpf, workprec

from .errors import (
    ConsistencyError,
    DegenerateIntegrandError,
    PrecisionError,
    PrecisionEscalation,
)
from .exactq import (
    Polynomial,
    Rational,
    poly_discriminant,
    poly_gcd,
    poly_resultant,
)
from .walk_core import _validate, absorption_denominator, gf_denominator, r_poly

START_BITS = 128
MAX_BITS = 8192

_T = TypeVar("_T")


def _escalate(rung: Callable[[int], _T], what: str, start_bits: int) -> _T:
    """rung(bits) at the first precision that certifies.

    The one precision ladder of the package: bits starts at start_bits
    and doubles each time the rung raises the escalation signal.  Past
    MAX_BITS the computation fails with PrecisionError, whose message
    names what could not be certified and why the last rung failed.
    """
    bits = start_bits
    reason = "start precision above the ceiling"
    while bits <= MAX_BITS:
        try:
            return rung(bits)
        except PrecisionEscalation as exc:
            reason = str(exc)
            bits *= 2
    raise PrecisionError(
        f"could not certify {what} within {MAX_BITS} bits ({reason})"
    )


@dataclass(frozen=True)
class Integrand:
    """The rational integrand scale * b / (c d) on the circle |t| = radius.

    b, c, d carry integer coefficients exactly as constructed from the
    r family; no content is split off, since the denominator bound needs
    only integer coefficients.
    """

    b: Polynomial
    c: Polynomial
    d: Polynomial
    scale: Rational
    radius: Rational


@dataclass(frozen=True)
class RootSet:
    """All complex roots of one squarefree polynomial.

    Each disk |x - approximations[i]| <= error_radius contains exactly
    one true root, and the disks are pairwise disjoint, so the
    approximations are a faithful combinatorial copy of the root set.
    """

    approximations: tuple[mpc, ...]
    error_radius: mpf
    precision_bits: int


@dataclass(frozen=True)
class DenominatorBound:
    """Integer delta with delta * (integral value) guaranteed integral.

    The bound is built after the substitution t = s/4.  B, C and D are
    b, c and d evaluated at t = s/4, each multiplied by the least power
    of two, 2^e_b, 2^e_c and 2^e_d, that makes its coefficients
    integers; deg D = m.  Then

        delta = m2 * 2^max(0, e) * |rho| * |lead|^(deg B + 1)

    with m2 the denominator of the scale, e = e_b - e_c - e_d + 2,
    rho = Res(C, D) and lead = lc(D).

    Proof, for c and d coprime (rho != 0) and d squarefree; the integral
    is scale times the sum of b(a)/(c(a) d'(a)) over the roots a of d.

    1. Each root a of d gives the root x = 4a of D, and D'(s) =
       2^e_d d'(s/4) / 4, so b(a)/(c(a) d'(a)) = 2^-e B(x)/(C(x) D'(x)).
    2. The adjugate of the Sylvester matrix gives U, V in Z[s] with
       deg U < m and U C + V D = rho (for constant C, U = C^(m-1) and
       V = 0).  At a root of D this reads 1/C(x) = U(x)/rho.
    3. Let h = B U in Z[s].  Pseudo-division gives Q, r in Z[s] with
       lead^k h = Q D + r, deg r < m and k = max(0, deg h - m + 1);
       since deg U < m, k <= deg B.  So h(x) = r(x)/lead^k at the roots.
    4. D is squarefree, so partial fractions give r/D = sum over the
       roots x of r(x)/(D'(x)(s - x)).  Comparing the coefficients of
       1/s at infinity (Euler-Jacobi): sum r(x)/D'(x) = r_(m-1)/lead.

    Together: the sum is 2^-e r_(m-1) / (rho lead^(k+1)), with r_(m-1)
    an integer and k + 1 <= deg B + 1, so delta clears it; m2 clears
    the scale.  No discriminant enters the bound, and only the scale,
    e, rho and lead are needed, never U or r themselves.
    """

    rho: int
    lead: int
    e: int
    delta: int

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ConsistencyError(f"denominator bound {self.delta} < 1")


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ConsistencyError(f"{what} is not an integer: {x}")
    return int(x)


def build_integrand(j: int, n: int) -> Integrand:
    """Contour form of p_j^(n):

        p_j^(n) = ((-1)^j / 2 pi i) * integral over |t| = 1/2 of
                  t^(j-1) r_{n-j}^2 / ((r_n + 2t r_{n-1})(r_n - r_{n-1})) dt.

    The two denominator factors must not share a root, and the inside
    factor must be squarefree; both hold throughout the family, and a
    violation would be cancelled and flagged rather than integrated.
    """
    _validate(j, n, 1, n - 1)
    b = Polynomial.monomial(j - 1, var="t") * r_poly(n - j) ** 2
    c = gf_denominator(n)
    d = absorption_denominator(n)
    if poly_gcd(c, d).degree > 0:
        # Cannot happen for this family; cancel and continue so the
        # bound below stays meaningful, but treat it as an anomaly.
        warnings.warn(f"shared factor between denominator parts at n={n}")
        g = poly_gcd(c, d).primitive_part()
        c = c // g
        d = d // g
    scale = Fraction(-1) if j % 2 else Fraction(1)
    return Integrand(b=b, c=c, d=d, scale=scale, radius=Fraction(1, 2))


def _quarter_scaled(p: Polynomial) -> tuple[Polynomial, int]:
    """(2^e p(s/4), e) for the least e that leaves integer coefficients.

    The coefficient a_k becomes a_k 2^(e - 2k), an integer exactly when
    e >= 2k - v_2(a_k).
    """
    ints = [int(a) for a in p.coeffs]
    e = max(
        (2 * k - ((a & -a).bit_length() - 1) for k, a in enumerate(ints) if a),
        default=0,
    )
    scaled = [
        a << (e - 2 * k) if e >= 2 * k else a >> (2 * k - e)
        for k, a in enumerate(ints)
    ]
    return Polynomial(scaled, var=p.var), e


def denominator_bound(ig: Integrand) -> DenominatorBound:
    """Exact integer multiplier that clears the integral's denominator:
    one resultant after t = s/4 (the proof is on DenominatorBound)."""
    for name, p in (("b", ig.b), ("c", ig.c), ("d", ig.d)):
        for coeff in p.coeffs:
            if coeff.denominator != 1:
                raise ConsistencyError(f"integrand part {name} not integral")
    B, e_b = _quarter_scaled(ig.b)
    C, e_c = _quarter_scaled(ig.c)
    D, e_d = _quarter_scaled(ig.d)
    rho = _as_int(poly_resultant(C, D), "resultant(C, D)")
    if rho == 0:
        raise DegenerateIntegrandError("c and d share a root")
    if poly_discriminant(ig.d) == 0:
        raise DegenerateIntegrandError("d has a repeated root")
    e = e_b - e_c - e_d + 2
    lead = int(D.leading_coefficient)
    delta = (ig.scale.denominator * 2 ** max(0, e) * abs(rho)
             * abs(lead) ** (B.degree + 1))
    return DenominatorBound(rho=rho, lead=lead, e=e, delta=delta)


def _int_coeffs(p: Polynomial) -> list[int]:
    if any(c.denominator != 1 for c in p.coeffs):
        raise ValueError("root finding and residues need integer coefficients")
    return [int(c) for c in p.coeffs]


def _coeffs_mpf(p: Polynomial) -> list[mpf]:
    # Integer coefficients below the working mantissa convert exactly.
    return [mpf(c) for c in _int_coeffs(p)]


def _eval_with_bound(coeffs: Sequence, x) -> tuple[mpc, mpf]:
    """Horner value and a bound on its rounding error at current prec."""
    acc = mpc(0)
    mag = mpf(0)
    ax = abs(x)
    for c in reversed(coeffs):
        acc = acc * x + c
        mag = mag * ax + abs(c)
    unit = mpf(2) ** (4 - mpmath.mp.prec)
    return acc, mag * len(coeffs) * unit


def _disk_variation_bound(coeffs: Sequence, x, rho: mpf) -> mpf:
    """Bound on |q(y) - q(x)| over the disk |y - x| <= rho.

    Mean value bound: rho * sup |q'| on the disk, with the sup bounded
    by sum k|a_k| (|x| + rho)**(k-1).  Loose by at most a degree
    factor, which is irrelevant against 2^-prec scales.
    """
    reach = abs(x) + rho
    total = mpf(0)
    power = mpf(1)
    for k in range(1, len(coeffs)):
        total += k * abs(coeffs[k]) * power
        power *= reach
    return rho * total * (1 + mpf(2) ** (8 - mpmath.mp.prec) * len(coeffs))


_EPS = sys.float_info.epsilon
# A guard only: on the r family up to degree 80 the double run freezes
# every point in fewer than 30 sweeps.
_DOUBLE_SWEEPS = 500
# Bits credited to a double start: multiprecision refinement of one
# begins at START_BITS.
_DOUBLE_BITS = START_BITS // 2


def _double_start(ints: Sequence[int]) -> list[complex]:
    """Starting points on the circles of the Newton polygon.

    The upper convex hull of the points (k, log|a_k|) splits the roots
    into groups of known size with known typical modulus: an edge from
    i to k stands for k - i roots near the circle of radius
    (|a_i|/|a_k|)^(1/(k-i)) (Bini 1996).  Vanishing coefficients
    a_0 .. a_(h-1) stand for h roots at zero.  Logarithms of Python
    ints never overflow; radii beyond the double range are clamped,
    which only slows the run.
    """
    deg = len(ints) - 1
    logs = [math.log(abs(c)) if c else -math.inf for c in ints]
    hull: list[int] = []
    for k in range(deg + 1):
        if not ints[k]:
            continue
        while len(hull) >= 2 and (
            (logs[hull[-1]] - logs[hull[-2]]) * (k - hull[-2])
            <= (logs[k] - logs[hull[-2]]) * (hull[-1] - hull[-2])
        ):
            hull.pop()
        hull.append(k)
    out = [0j] * hull[0]
    for i, k in zip(hull, hull[1:]):
        m = k - i
        radius = math.exp(max(-700.0, min(700.0, (logs[i] - logs[k]) / m)))
        for q in range(m):
            theta = 2 * math.pi * (q / m + len(out) / deg) + 0.7
            out.append(cmath.rect(radius, theta))
    return out


def _horner_double(
    a: Sequence[float], x: complex
) -> tuple[complex, complex, float]:
    """p(x), p'(x) and sum |a_k| |x|^k in doubles."""
    v = dv = 0j
    mag = 0.0
    ax = abs(x)
    for c in reversed(a):
        dv = dv * x + v
        v = v * x + c
        mag = mag * ax + abs(c)
    return v, dv, mag


def _log_derivative_double(a, rev, x: complex) -> complex | None:
    """p'(x)/p(x) in doubles, or None when p(x) is at the noise floor.

    Outside the unit disk the reversed polynomial q is evaluated at
    y = 1/x, so no power of x overflows: p(x) = x^deg q(y) gives
    p'(x)/p(x) = (deg - y q'(y)/q(y)) / x.
    """
    deg = len(a) - 1
    inside = abs(x) <= 1
    y = x if inside else 1 / x
    v, dv, mag = _horner_double(a if inside else rev, y)
    if abs(v) <= 4 * deg * _EPS * mag:
        return None
    return dv / v if inside else (deg - y * dv / v) / x


def _aberth_double(ints: Sequence[int]) -> tuple[list[complex], int]:
    """Aberth iteration in double precision from Newton-polygon starts.

    Coefficients are scaled by a power of two first, so any integer
    polynomial converts without overflow.  Each approximation freezes
    once |p(x)| is within a few ulps of sum |a_k| |x|^k, the point past
    which a double evaluation carries no direction; the run ends when
    every approximation is frozen.  Returns (roots, sweeps).
    """
    scale = 2 ** max(abs(c) for c in ints).bit_length()
    a = [c / scale for c in ints]
    rev = a[::-1]
    roots = _double_start(ints)
    live = set(range(len(roots)))
    sweeps = 0
    while live and sweeps < _DOUBLE_SWEEPS:
        sweeps += 1
        for i in sorted(live):
            x = roots[i]
            w = _log_derivative_double(a, rev, x)
            if w is None:
                live.discard(i)
                continue
            for k, z in enumerate(roots):
                if k != i and z != x:
                    w -= 1 / (x - z)
            step = 1 / w if w else 0j
            if cmath.isfinite(step):
                roots[i] = x - step
    return roots, sweeps


def _aberth(coeffs: Sequence, initial: Sequence) -> list[mpc]:
    deg = len(coeffs) - 1
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    roots = [mpc(x) for x in initial]
    tol = mpf(2) ** (12 - mpmath.mp.prec)
    for _ in range(60 + mpmath.mp.prec // 2):
        moved = mpf(0)
        for i in range(deg):
            x = roots[i]
            pv, pe = _eval_with_bound(coeffs, x)
            if abs(pv) <= 2 * pe:
                # At the evaluation noise floor; the value carries no
                # directional information, so refinement stops here.
                continue
            dv, _ = _eval_with_bound(deriv, x)
            if dv == 0:
                roots[i] = x + tol * (1 + abs(x))
                moved = mpf(1)
                continue
            newton = pv / dv
            repel = mpc(0)
            for k in range(deg):
                if k != i:
                    diff = x - roots[k]
                    if diff == 0:
                        diff = tol * (1 + abs(x))
                    repel += 1 / diff
            denom = 1 - newton * repel
            delta = newton if denom == 0 else newton / denom
            roots[i] = x - delta
            moved = max(moved, abs(delta) / (1 + abs(x)))
        if moved < tol:
            break
    return roots


class _RootCache:
    """Certified root sets keyed by polynomial, then by precision.

    At most `size` polynomials are kept, the least recently used going
    first; every read and write happens under a lock.  A stored RootSet
    is never replaced, so repeated calls return the same object.
    """

    def __init__(self, size: int) -> None:
        self._size = size
        self._sets: OrderedDict[Polynomial, dict[int, RootSet]] = OrderedDict()
        self._lock = threading.Lock()

    def lookup(
        self, p: Polynomial, bits: int
    ) -> tuple[RootSet | None, RootSet | None]:
        """(the set at exactly bits, the most precise set below bits);
        either may be None."""
        with self._lock:
            by_bits = self._sets.get(p)
            if by_bits is None:
                return None, None
            self._sets.move_to_end(p)
            lower = [b for b in by_bits if b < bits]
            warm = by_bits[max(lower)] if lower else None
            return by_bits.get(bits), warm

    def store(self, p: Polynomial, rs: RootSet) -> RootSet:
        with self._lock:
            by_bits = self._sets.setdefault(p, {})
            self._sets.move_to_end(p)
            while len(self._sets) > self._size:
                self._sets.popitem(last=False)
            return by_bits.setdefault(rs.precision_bits, rs)


_ROOT_CACHE = _RootCache(256)


def find_roots(
    p: Polynomial,
    precision_bits: int,
    initial: Sequence | None = None,
) -> RootSet:
    """All complex roots of squarefree p with a certified error radius.

    Starts from `initial`, else from the most precise cached set for p,
    else from a double-precision Aberth run (Newton-polygon starts,
    stopped at the double noise floor), then refines by Aberth sweeps
    at doubling precisions up to precision_bits.  Certification is a
    posteriori and ignores where the approximations came from: the
    disk of radius deg * |p(x)/p'(x)| around any point contains a root,
    so taking the worst such radius and checking the disks are pairwise
    disjoint pins exactly one root per disk.  A poor start can
    therefore only cost sweeps or an escalation, never a wrong
    certificate.  Failure to certify raises the precision-escalation
    signal.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    cached, warm = _ROOT_CACHE.lookup(p, precision_bits)
    if cached is not None:
        return cached
    known_bits = _DOUBLE_BITS
    if initial is None or len(initial) != p.degree:
        if warm is not None:
            initial, known_bits = warm.approximations, warm.precision_bits
        else:
            initial = _aberth_double(_int_coeffs(p))[0]
    # Near simple roots an Aberth sweep triples the correct bits, so
    # refining through doubling precisions spends about two sweeps per
    # rung and only the last rung's at the full precision.
    rungs = [precision_bits]
    while rungs[-1] // 2 > known_bits:
        rungs.append(rungs[-1] // 2)
    roots = initial
    for bits in reversed(rungs):
        with workprec(bits):
            roots = _aberth(_coeffs_mpf(p), roots)
    with workprec(precision_bits):
        coeffs = _coeffs_mpf(p)
        deriv = [k * c for k, c in enumerate(coeffs)][1:]
        deg = p.degree
        radii = []
        for x in roots:
            pv, pe = _eval_with_bound(coeffs, x)
            dv, de = _eval_with_bound(deriv, x)
            dlo = abs(dv) - de
            if dlo <= 0:
                raise PrecisionEscalation(
                    f"derivative bound collapsed at {precision_bits} bits"
                )
            radii.append(deg * (abs(pv) + pe) / dlo)
        error_radius = max(radii) * (1 + mpf(2) ** -16)
        for i in range(deg):
            for k in range(i + 1, deg):
                if abs(roots[i] - roots[k]) <= 2 * error_radius:
                    raise PrecisionEscalation(
                        f"root disks overlap at {precision_bits} bits"
                    )
        out = RootSet(
            approximations=tuple(roots),
            error_radius=error_radius,
            precision_bits=precision_bits,
        )
    return _ROOT_CACHE.store(p, out)


def classify_roots(
    roots: RootSet, radius: Rational
) -> tuple[tuple[mpc, ...], tuple[mpc, ...]]:
    """Partition into (inside, outside) of the circle |t| = radius.

    Valid for the true roots because each whole disk must clear the
    contour; a disk touching it raises the escalation signal.
    """
    with workprec(roots.precision_bits):
        r = mpf(radius.numerator) / radius.denominator
        slack = roots.error_radius + mpf(2) ** (4 - roots.precision_bits)
        inside = []
        outside = []
        for x in roots.approximations:
            if abs(x) + slack < r:
                inside.append(x)
            elif abs(x) - slack > r:
                outside.append(x)
            else:
                raise PrecisionEscalation(
                    f"root disk touches the contour at {roots.precision_bits} bits"
                )
    return tuple(inside), tuple(outside)


def _poles_at(
    p: Polynomial, radius: Rational, bits: int
) -> tuple[RootSet, tuple[mpc, ...], tuple[mpc, ...]]:
    roots = find_roots(p, bits)
    return (roots, *classify_roots(roots, radius))


def certified_poles(
    p: Polynomial, radius: Rational, start_bits: int = START_BITS
) -> tuple[RootSet, tuple[mpc, ...], tuple[mpc, ...]]:
    """(roots, inside, outside): the roots of squarefree p, found and
    classified against |t| = radius at the same rung of the ladder."""
    return _escalate(
        lambda bits: _poles_at(p, radius, bits),
        f"the roots of a degree-{p.degree} polynomial",
        start_bits,
    )


def residue_sum(
    b: Polynomial,
    c: Polynomial,
    d: Polynomial,
    d_roots: RootSet,
) -> tuple[mpc, mpf]:
    """Sum of b(x)/(c(x) d'(x)) over the roots of d, with a certified
    error bound covering both root uncertainty and rounding.

    Returns (value, error_bound).  The true sum is real for every
    integrand in this package, so an imaginary part above the bound is
    impossible and triggers escalation.
    """
    with workprec(d_roots.precision_bits):
        bc = _coeffs_mpf(b)
        cc = _coeffs_mpf(c)
        dp = d.derivative()
        dc = _coeffs_mpf(dp)
        rho = d_roots.error_radius
        total = mpc(0)
        err = mpf(0)
        tiny = mpf(2) ** (6 - d_roots.precision_bits)
        for x in d_roots.approximations:
            bv, be0 = _eval_with_bound(bc, x)
            cv, ce0 = _eval_with_bound(cc, x)
            dv, de0 = _eval_with_bound(dc, x)
            be = be0 + _disk_variation_bound(bc, x, rho)
            ce = ce0 + _disk_variation_bound(cc, x, rho)
            de = de0 + _disk_variation_bound(dc, x, rho)
            bm, cm, dm = abs(bv), abs(cv), abs(dv)
            c_low = cm - ce
            d_low = dm - de
            if c_low <= 0 or d_low <= 0:
                raise PrecisionEscalation(
                    f"denominator lower bound collapsed at "
                    f"{d_roots.precision_bits} bits"
                )
            term = bv / (cv * dv)
            num_err = be * cm * dm + bm * (cm * de + ce * dm + ce * de)
            err += num_err / (c_low * d_low * cm * dm) + abs(term) * tiny
            total += term
        err = err * (1 + mpf(2) ** -16) + tiny
        if abs(total.imag) > err:
            raise PrecisionEscalation(
                f"imaginary residue beyond certified error at "
                f"{d_roots.precision_bits} bits"
            )
    return total, err


def _mpf_to_fraction(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    # The mantissa may be a gmpy2 integer depending on the mpmath
    # backend; force plain ints so Fraction arithmetic stays pure.
    man = int(man)
    exp = int(exp)
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise ConsistencyError(f"non-finite numeric value {x}")
    value = Fraction(man) * (
        Fraction(2) ** exp if exp >= 0 else Fraction(1, 2 ** -exp)
    )
    return -value if sign else value


def integrate_exact(ig: Integrand, start_bits: int = START_BITS) -> Rational:
    """Exact value of the contour integral, via certified rounding.

    First certifies, on its own ladder from start_bits, that every
    c-root disk lies strictly outside the contour.  Then runs the
    integral's ladder from start_bits.  Success requires, at one rung:
    all d-root disks certified strictly inside the contour,
    delta * |scale| * error < 1/4, and the scaled sum within 1/4 of an
    integer.  The returned rational is then exact, not approximate.
    """
    db = denominator_bound(ig)
    quarter = Fraction(1, 4)
    # c is only classified, never integrated over (residue_sum reads its
    # coefficients at the roots of d), so one certified rung suffices.
    if ig.c.degree >= 1 and certified_poles(ig.c, ig.radius, start_bits)[1]:
        raise ConsistencyError(
            f"a pole of the outside factor sits inside |t|={ig.radius}"
        )

    def rung(bits: int) -> Rational:
        # The certified error never drops below 2^(6-bits), so a rung
        # with delta >= 2^(bits-8) cannot succeed; skip the numeric work.
        if bits > 8 and db.delta >> (bits - 8):
            raise PrecisionEscalation(f"delta needs more than {bits} bits")
        d_roots, _, outside = _poles_at(ig.d, ig.radius, bits)
        if outside:
            raise ConsistencyError(
                f"a pole of the inside factor sits outside |t|={ig.radius}"
            )
        total, err = residue_sum(ig.b, ig.c, ig.d, d_roots)
        if db.delta * abs(ig.scale) * _mpf_to_fraction(err) >= quarter:
            raise PrecisionEscalation(f"certified error too large at {bits} bits")
        scaled = db.delta * ig.scale * _mpf_to_fraction(total.real)
        nearest = round(scaled)
        if abs(scaled - nearest) >= quarter:
            raise PrecisionEscalation(
                f"scaled value not near an integer at {bits} bits"
            )
        return Fraction(nearest, db.delta)

    return _escalate(
        rung,
        f"the integral for a {db.delta.bit_length()}-bit delta",
        start_bits,
    )
