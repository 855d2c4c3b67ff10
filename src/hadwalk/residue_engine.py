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

A row is the unit of work.  The cells of row n share c = r_n + 2t r_{n-1}
and d = r_n - r_{n-1}; only the numerator b_j = t^(j-1) r_{n-j}^2 depends
on j.  So the roots of d, the classification of c, the row part of the
denominator bound and, at each precision, the weights
w(x) = 1/(c(x) d'(x)) are computed once per row; one pass of the r
recurrence at a root gives b_j there for every j, and each cell is one
weighted sum (`integrate_row`).  `integrate_exact` runs the same engine
on a single cell, with its numerator evaluated by Horner's rule.

Everything numeric lives behind escalation: any failed bound raises an
internal signal, the working precision doubles, and the computation
reruns (warm-started) until it certifies or hits the ceiling.  A cell
waits for a rung that its delta allows and is done at the first rung
where it certifies; the ladder climbs while any cell is pending.  A
delta that no rung up to MAX_BITS could clear fails at once, before any
root is found.

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
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

import mpmath
from mpmath import mpc, mpf, workprec

from .errors import (
    MAX_BITS,
    START_BITS,
    ConsistencyError,
    DegenerateIntegrandError,
    PrecisionError,
    PrecisionEscalation,
)
from .exactq import Polynomial, Rational, poly_resultant
from .walk_core import _validate, absorption_denominator, gf_denominator, r_poly

_T = TypeVar("_T")


def _exhausted(what: str, reason: str) -> PrecisionError:
    return PrecisionError(
        f"could not certify {what} within {MAX_BITS} bits ({reason})"
    )


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
    raise _exhausted(what, reason)


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


_CONTOUR = Fraction(1, 2)


def _sign(j: int) -> Fraction:
    return Fraction(-1) if j % 2 else Fraction(1)


def build_integrand(j: int, n: int) -> Integrand:
    """Contour form of p_j^(n):

        p_j^(n) = ((-1)^j / 2 pi i) * integral over |t| = 1/2 of
                  t^(j-1) r_{n-j}^2 / ((r_n + 2t r_{n-1})(r_n - r_{n-1})) dt.

    The two denominator factors never share a root and the inside factor
    is squarefree; denominator_bound checks both and raises
    DegenerateIntegrandError on a violation.
    """
    _validate(j, n, 1, n - 1)
    return Integrand(
        b=Polynomial.monomial(j - 1, var="t") * r_poly(n - j) ** 2,
        c=gf_denominator(n),
        d=absorption_denominator(n),
        scale=_sign(j),
        radius=_CONTOUR,
    )


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


# 2^61 - 1, then two spare primes, for the squarefree certificate.
_SQUAREFREE_PRIMES = (2**61 - 1, 2**31 - 1, 998_244_353)


def _trim_mod(v: Sequence[int], p: int) -> list[int]:
    out = [a % p for a in v]
    while out and not out[-1]:
        out.pop()
    return out


def _gcd_degree_mod(a: Sequence[int], b: Sequence[int], p: int) -> int:
    """Degree of gcd(a mod p, b mod p) over F_p, for prime p and
    coefficient lists from the constant term up (-1 if both vanish)."""
    a, b = _trim_mod(a, p), _trim_mod(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, coeff in enumerate(b):
                a[shift + i] = (a[shift + i] - q * coeff) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _squarefree(ints: Sequence[int]) -> bool:
    """Whether the integer polynomial d = sum ints[k] t^k is squarefree.

    Modular certificate: let p be a prime above deg d that does not
    divide lc d.  Reduction mod p then keeps the degrees of d and d'
    (the leading coefficient of d' is deg d * lc d), so the Sylvester
    determinant reduces to Res(d mod p, d' mod p), which is nonzero
    exactly when gcd(d mod p, d' mod p) = 1.  A unit gcd therefore
    proves Res(d, d') != 0, that is disc(d) != 0.  Only when every prime
    fails, because it divides disc(d) or d has a repeated root, is
    Res(d, d') computed exactly.
    """
    if len(ints) <= 2:
        return True
    deriv = [k * a for k, a in enumerate(ints)][1:]
    for p in _SQUAREFREE_PRIMES:
        usable = ints[-1] % p and len(ints) <= p
        if usable and _gcd_degree_mod(ints, deriv, p) == 0:
            return True
    return poly_resultant(Polynomial(ints), Polynomial(deriv)) != 0


def _row_bound(c: Polynomial, d: Polynomial) -> tuple[int, int, int]:
    """(rho, lead, e_c + e_d): the part of the bound that a row's cells
    share.  Raises DegenerateIntegrandError unless c and d are coprime
    and d is squarefree, the hypotheses of the proof on DenominatorBound.
    """
    C, e_c = _quarter_scaled(c)
    D, e_d = _quarter_scaled(d)
    rho = _as_int(poly_resultant(C, D), "resultant(C, D)")
    if rho == 0:
        raise DegenerateIntegrandError("c and d share a root")
    if not _squarefree([int(a) for a in d.coeffs]):
        raise DegenerateIntegrandError("d has a repeated root")
    return rho, int(D.leading_coefficient), e_c + e_d


def _cell_bound(
    e_b: int, deg_b: int, scale: Rational, row: tuple[int, int, int]
) -> DenominatorBound:
    rho, lead, e_cd = row
    e = e_b - e_cd + 2
    delta = (scale.denominator * 2 ** max(0, e) * abs(rho)
             * abs(lead) ** (deg_b + 1))
    return DenominatorBound(rho=rho, lead=lead, e=e, delta=delta)


def denominator_bound(ig: Integrand) -> DenominatorBound:
    """Exact integer multiplier that clears the integral's denominator:
    one resultant after t = s/4 (the proof is on DenominatorBound)."""
    for name, p in (("b", ig.b), ("c", ig.c), ("d", ig.d)):
        for coeff in p.coeffs:
            if coeff.denominator != 1:
                raise ConsistencyError(f"integrand part {name} not integral")
    B, e_b = _quarter_scaled(ig.b)
    return _cell_bound(e_b, B.degree, ig.scale, _row_bound(ig.c, ig.d))


def _row(
    n: int, js: Sequence[int] | None
) -> tuple[list[int], Polynomial, Polynomial, list[DenominatorBound]]:
    """(js, c, d, bounds) for the cells (j, n), j in js (default
    1..n-1), with the row part of the bounds computed once.

    No b_j is built.  With m = n - j and (R_m, e_m) the quarter-scaled
    r_m, 2^e b_j(s/4) = 2^(e - 2(j-1) - 2 e_m) s^(j-1) R_m(s)^2.  As e_m
    is least, R_m has an odd coefficient, and so has R_m^2, since
    F_2[s] has no zero divisors.  So e_b = 2(j-1) + 2 e_m and
    deg B = j - 1 + 2 deg r_m, as _quarter_scaled(b_j) would give.
    """
    _validate(1, n, 1, n - 1)
    js = list(range(1, n) if js is None else js)
    for j in js:
        _validate(j, n, 1, n - 1)
    c, d = gf_denominator(n), absorption_denominator(n)
    if not js:
        return js, c, d, []
    row = _row_bound(c, d)
    bounds = []
    for j in js:
        R_m, e_m = _quarter_scaled(r_poly(n - j))
        bounds.append(_cell_bound(
            2 * (j - 1) + 2 * e_m, j - 1 + 2 * R_m.degree, _sign(j), row
        ))
    return js, c, d, bounds


def denominator_bounds(n: int) -> list[DenominatorBound]:
    """denominator_bound of every interior cell (j, n), j = 1..n-1, with
    the row part computed once."""
    return _row(n, None)[3]


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


def _unit() -> mpf:
    """mu = 2^(2 - prec): bounds the error of one complex + or * at the
    working precision, relative to |u| + |v| or |u||v| (mpmath rounds
    each real part once, so mu holds with room)."""
    return mpmath.ldexp(1, 2 - mpmath.mp.prec)


def _value_on_disk(coeffs: Sequence, x, rho: mpf) -> tuple[mpc, mpf]:
    """q(x) by Horner, and a bound on its distance from q(y) for every
    y with |y - x| <= rho (rounding plus variation over the disk)."""
    v, e = _eval_with_bound(coeffs, x)
    return v, e + _disk_variation_bound(coeffs, x, rho)


def _weight(cc: Sequence, dc: Sequence, x, rho: mpf) -> tuple[mpc, mpf]:
    """w = 1/(c(x) d'(x)) at an approximation x of a root a of d, with
    |a - x| <= rho, and a bound e_w on |w - 1/(c(a) d'(a))|.

    With |c(a) - c(x)| <= e_c, |d'(a) - d'(x)| <= e_d and the lower
    bounds c_low = |c(x)| - e_c, d_low = |d'(x)| - e_d, the exact
    difference of the reciprocals is at most
    (|c| e_d + e_c |d'| + e_c e_d) / (c_low d_low |c| |d'|); the product
    and the reciprocal add at most 3 mu |w| of rounding.
    """
    cv, ce = _value_on_disk(cc, x, rho)
    dv, de = _value_on_disk(dc, x, rho)
    cm, dm = abs(cv), abs(dv)
    c_low = cm - ce
    d_low = dm - de
    if c_low <= 0 or d_low <= 0:
        raise PrecisionEscalation(
            f"denominator lower bound collapsed at {mpmath.mp.prec} bits"
        )
    w = 1 / (cv * dv)
    spread = (cm * de + ce * dm + ce * de) / (c_low * d_low * cm * dm)
    return w, spread + 3 * _unit() * abs(w)


def _weights(
    c: Polynomial, d: Polynomial, d_roots: RootSet
) -> list[tuple[mpc, mpf]]:
    """_weight at every approximation of d_roots, at the current precision."""
    cc = _coeffs_mpf(c)
    dc = _coeffs_mpf(d.derivative())
    rho = d_roots.error_radius
    return [_weight(cc, dc, x, rho) for x in d_roots.approximations]


def _values_on_disks(b: Polynomial, d_roots: RootSet) -> list[tuple[mpc, mpf]]:
    """_value_on_disk of b at every approximation of d_roots."""
    bc = _coeffs_mpf(b)
    rho = d_roots.error_radius
    return [_value_on_disk(bc, x, rho) for x in d_roots.approximations]


def _weighted_sum(
    values: Sequence[tuple[mpc, mpf]], weights: Sequence[tuple[mpc, mpf]]
) -> tuple[mpc, mpf]:
    """(sum of b(x) w(x) over the roots x, certified error bound).

    values and weights pair each approximation x of a root a with
    (b(x), e_b) and (w(x), e_w), their errors bounding the distance to
    b(a) and w(a).  Then |b(x) w(x) - b(a) w(a)| <= e_b (|w| + e_w) +
    |b| e_w, the product rounds by at most mu |term|, and summing m
    terms adds at most 2 (m - 1) mu sum |term| (Higham 2002, ch. 4).
    The bound itself is a sum of non-negative terms, so its own
    rounding is covered by the factor 1 + 2^-16 at 64 bits or more.
    The true sum is real for every integrand in this package, so an
    imaginary part beyond the bound raises the escalation signal.
    """
    total = mpc(0)
    err = mpf(0)
    mass = mpf(0)
    for (bv, be), (w, we) in zip(values, weights):
        term = bv * w
        err += be * (abs(w) + we) + abs(bv) * we
        mass += abs(term)
        total += term
    err += 2 * (len(weights) + 1) * _unit() * mass
    err = err * (1 + mpf(2) ** -16) + mpf(2) ** (6 - mpmath.mp.prec)
    if abs(total.imag) > err:
        raise PrecisionEscalation(
            f"imaginary residue beyond certified error at "
            f"{mpmath.mp.prec} bits"
        )
    return total, err


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
        return _weighted_sum(
            _values_on_disks(b, d_roots), _weights(c, d, d_roots)
        )


def _slp_error(ops: int, magnitude: mpf) -> mpf:
    """((1 + mu)^ops - 1) * magnitude <= 2 ops mu magnitude, valid while
    ops mu <= 1: the rounding lemma's bound (see integrate_row)."""
    return 2 * ops * _unit() * magnitude


def _r_at(x: mpc, top: int) -> tuple[list[mpc], list[mpc]]:
    """r_k(x) and r_k'(x) for k = 0..top, by the forward recurrence
    r_{k+2} = (1 - 2x) r_{k+1} + x r_k (Clenshaw 1955) and its
    derivative r'_{k+2} = (1 - 2x) r'_{k+1} - 2 r_{k+1} + x r'_k + r_k.
    Their rounding errors are at most _slp_error(3(k - 1), R_k(|x|))
    and _slp_error(5(k - 1), R_k'(|x|)) (see integrate_row)."""
    a = 1 - 2 * x
    r = [mpc(0), mpc(1)]
    dr = [mpc(0), mpc(0)]
    for _ in range(top - 1):
        dr.append(a * dr[-1] - 2 * r[-1] + x * dr[-2] + r[-2])
        r.append(a * r[-1] + x * r[-2])
    return r, dr


def _majorant(z: mpf, top: int) -> tuple[list[mpf], list[mpf]]:
    """R_k(z) and R_k'(z) for k = 0..top, where R_0 = 0, R_1 = 1 and
    R_{k+2} = (1 + 2z) R_{k+1} + z R_k majorizes r_k coefficient by
    coefficient (see integrate_row)."""
    a = 1 + 2 * z
    R = [mpf(0), mpf(1)]
    dR = [mpf(0), mpf(0)]
    for _ in range(top - 1):
        dR.append(a * dR[-1] + 2 * R[-1] + z * dR[-2] + R[-2])
        R.append(a * R[-1] + z * R[-2])
    return R, dR


def _numerators_at(
    x: mpc, rho: mpf, n: int, js: Sequence[int]
) -> list[tuple[mpc, mpf]]:
    """(b_j(x), e_j) for each j in js, where b_j = t^(j-1) r_{n-j}^2 and
    e_j bounds |b_j(x) computed - b_j(y)| for every |y - x| <= rho < 1.

    One pass of the r recurrence at x serves every j.  Beside it, the
    majorant R and its derivative at |x| bound the rounding of b_j and
    b_j', and R at |x| + 1 bounds the Taylor tail of b_j over the disk
    (proof on integrate_row).
    """
    top = n - min(js)
    z = abs(x)
    r, dr = _r_at(x, top)
    R, dR = _majorant(z, top)
    far, _ = _majorant(z + 1, top)
    powers, z_powers, far_powers = [mpc(1)], [mpf(1)], [mpf(1)]
    for _ in range(max(js) - 1):
        powers.append(powers[-1] * x)
        z_powers.append(z_powers[-1] * z)
        far_powers.append(far_powers[-1] * (z + 1))
    out = []
    for j in js:
        m = n - j
        square = r[m] * r[m]
        square_major = R[m] * R[m]
        slope = 2 * powers[j - 1] * (r[m] * dr[m])
        slope_major = 2 * z_powers[j - 1] * R[m] * dR[m]
        if j > 1:
            slope += (j - 1) * powers[j - 2] * square
            slope_major += (j - 1) * z_powers[j - 2] * square_major
        rounding = _slp_error(max(j - 2, 0) + 6 * (m - 1) + 2,
                              z_powers[j - 1] * square_major)
        slope_bound = abs(slope) + _slp_error(j + 8 * m + 1, slope_major)
        tail = far_powers[j - 1] * far[m] * far[m]
        out.append((powers[j - 1] * square,
                    rounding + rho * slope_bound + rho * rho * tail))
    return out


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


# Below this precision the bounds' own rounding is not covered by the
# 1 + 2^-16 factor in _weighted_sum, so integration rungs start here.
_MIN_INTEGRATION_BITS = 64

# Numerator values of the cells `live` (indices into the engine's cell
# list) at every approximation of d's roots: one list per cell, one
# (value, error) pair per root.
_Numerators = Callable[[RootSet, list[int]], list[list[tuple[mpc, mpf]]]]


def _round_cell(
    total: mpc, err: mpf, scale: Rational, delta: int, bits: int
) -> Rational:
    quarter = Fraction(1, 4)
    if delta * abs(scale) * _mpf_to_fraction(err) >= quarter:
        raise PrecisionEscalation(f"certified error too large at {bits} bits")
    scaled = delta * scale * _mpf_to_fraction(total.real)
    nearest = round(scaled)
    if abs(scaled - nearest) >= quarter:
        raise PrecisionEscalation(
            f"scaled value not near an integer at {bits} bits"
        )
    return Fraction(nearest, delta)


def _integrate(
    c: Polynomial,
    d: Polynomial,
    radius: Rational,
    cells: Sequence[tuple[Rational, int]],
    numerators: _Numerators,
    start_bits: int,
) -> list[Rational]:
    """The contour route's one engine: the integrals scale * sum of
    b/(c d') over the roots of d, one per cell (scale, delta), each
    cell's b given by numerators.

    Fails fast when some delta needs more than MAX_BITS, then certifies
    once that every c-root disk lies outside |t| = radius.  Each rung
    finds d's roots and the weights once; every pending cell whose delta
    the rung allows is one weighted sum of its numerators, and is done
    once delta * |scale| * error < 1/4 and the scaled sum lies within
    1/4 of an integer: that integer over delta is then exact.
    """
    if not cells:
        return []
    widest = max(delta.bit_length() for _, delta in cells)
    what = f"the integral for a {widest}-bit delta"
    if widest > MAX_BITS - 8:
        raise _exhausted(what, f"delta needs more than {MAX_BITS} bits")
    # c is only classified, never integrated over (the weights read its
    # coefficients at the roots of d), so one certified rung suffices.
    if c.degree >= 1 and certified_poles(c, radius, start_bits)[1]:
        raise ConsistencyError(
            f"a pole of the outside factor sits inside |t|={radius}"
        )
    done: dict[int, Rational] = {}

    def rung(bits: int) -> list[Rational]:
        if bits < _MIN_INTEGRATION_BITS:
            raise PrecisionEscalation(
                f"integration needs at least {_MIN_INTEGRATION_BITS} bits"
            )
        # The certified error never drops below 2^(6-bits), so a cell
        # with delta >= 2^(bits-8) cannot certify here: it waits.
        waiting = PrecisionEscalation(f"delta needs more than {bits} bits")
        live = [k for k, (_, delta) in enumerate(cells)
                if k not in done and not delta >> (bits - 8)]
        if not live:
            raise waiting
        d_roots, _, outside = _poles_at(d, radius, bits)
        if outside:
            raise ConsistencyError(
                f"a pole of the inside factor sits outside |t|={radius}"
            )
        failure = waiting
        with workprec(bits):
            weights = _weights(c, d, d_roots)
            for k, values in zip(live, numerators(d_roots, live)):
                try:
                    total, err = _weighted_sum(values, weights)
                    done[k] = _round_cell(total, err, *cells[k], bits)
                except PrecisionEscalation as exc:
                    failure = exc
        if len(done) < len(cells):
            raise failure
        return [done[k] for k in range(len(cells))]

    return _escalate(rung, what, start_bits)


def integrate_exact(ig: Integrand, start_bits: int = START_BITS) -> Rational:
    """Exact value of the contour integral, via certified rounding.

    One cell through the engine of integrate_row, with b evaluated by
    Horner's rule at each root of d.  The returned rational is exact,
    not approximate.
    """
    return _integrate(
        ig.c,
        ig.d,
        ig.radius,
        [(ig.scale, denominator_bound(ig).delta)],
        lambda d_roots, live: [_values_on_disks(ig.b, d_roots)],
        start_bits,
    )[0]


def integrate_row(
    n: int, js: Sequence[int] | None = None, start_bits: int = START_BITS
) -> list[Rational]:
    """Exact p_j^(n) for each j in js (default every interior cell
    1..n-1), in that order, by the contour route.

    The row's work is done once: c, d, the row part of the bound and
    c's classification; at each rung, d's roots and their weights
    w(x) = 1/(c(x) d'(x)).  At each root x one pass of the recurrence
    gives r_0(x)..r_n(x) and so b_j(x) = x^(j-1) r_{n-j}(x)^2 for every
    j, and each cell is one weighted sum.

    The bound on b_j.  Let x approximate a root a of d with
    |a - x| <= rho, let z = |x|, and let mu bound the error of one
    complex + or * (see _unit).  Write m = n - j.

    1. Majorant.  R_0 = 0, R_1 = 1, R_{k+2} = (1 + 2z) R_{k+1} + z R_k
       has non-negative coefficients, and |[t^i] r_k| <= [t^i] R_k for
       every i and k: by induction, [t^i] r_{k+2} is
       [t^i] r_{k+1} - 2 [t^(i-1)] r_{k+1} + [t^(i-1)] r_k, whose
       modulus is at most [t^i] R_{k+2}.  Products and derivatives keep
       the relation (|sum u_i v_(k-i)| <= sum U_i V_(k-i)), so
       B_j(z) = z^(j-1) R_m(z)^2 majorizes b_j, and every derivative
       of B_j majorizes the same derivative of b_j, coefficient by
       coefficient; R_k' follows the differentiated recurrence.
    2. Rounding: the straight-line-program lemma (Higham 2002, ch. 3).
       Let a program of complex + and * run on exactly represented
       inputs, each operation adding an error at most mu times the same
       operation applied to the moduli of its operands.  Give each
       input the count N = 0, u + v the count max(N_u, N_v) + 1 and
       u * v the count N_u + N_v + 1.  Then each computed value lies
       within ((1 + mu)^N - 1) V <= 2 N mu V (for N mu <= 1) of its
       exact value, where V is the same program run on the moduli of
       the inputs.  Induction: with relative errors eps_u, eps_v on the
       operands, |u~ v~ - u v| <= ((1 + eps_u)(1 + eps_v) - 1) U V, and
       the product's own rounding adds mu (1 + eps_u)(1 + eps_v) U V,
       which gives (1 + mu)^(N_u + N_v + 1) - 1; a sum is the same with
       U + V in place of U V.  The bound grows with N, so any upper
       bound on the count will do.  Here 1 - 2x has N = 1 and modulus
       at most 1 + 2z; r_k has N = 3(k - 1) and r_k', summed left to
       right (doubling is exact), N = 5(k - 1); x^k by repeated
       products has N = k - 1; b_j = x^(j-1) (r_m r_m) has
       N = max(j - 2, 0) + 6(m - 1) + 2, and
       b_j' = 2 x^(j-1) (r_m r_m') + (j - 1) x^(j-2) (r_m r_m) at most
       j + 8m + 1.  Their absolute-value programs are R_k(z), R_k'(z),
       B_j(z) and B_j'(z).
    3. Variation.  For |y - x| <= rho, Taylor's formula at x gives
       b_j(y) - b_j(x) = b_j'(x) (y - x) + sum over i >= 2 of
       b_j^(i)(x) (y - x)^i / i!, with |b_j^(i)(x)| <= B_j^(i)(z) by 1.
       Since rho < 1 (every root disk lies inside |t| = 1/2), the tail
       is at most rho^2 times the Taylor series of B_j at z evaluated
       one unit away, whose terms are all non-negative: at most
       rho^2 B_j(z + 1).

    So |computed b_j(x) - b_j(a)| <= 2 N mu B_j(z)
    + rho (|computed b_j'(x)| + 2 N' mu B_j'(z)) + rho^2 B_j(z + 1).
    The majorants are sums and products of non-negative numbers, so
    their own rounding, and that of z = |x|, is a relative error that
    the factor 1 + 2^-16 of _weighted_sum covers at 64 bits or more for
    n < 2^40.
    """
    js, c, d, bounds = _row(n, js)
    cells = [(_sign(j), db.delta) for j, db in zip(js, bounds)]

    def numerators(
        d_roots: RootSet, live: list[int]
    ) -> list[list[tuple[mpc, mpf]]]:
        cells = [js[k] for k in live]
        per_root = [_numerators_at(x, d_roots.error_radius, n, cells)
                    for x in d_roots.approximations]
        return [list(values) for values in zip(*per_root)]

    return _integrate(c, d, _CONTOUR, cells, numerators, start_bits)
