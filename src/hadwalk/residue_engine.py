"""Contour-integral pipeline: certified numeric residues rounded to an
exact rational.

The probability p_j^(n) equals (-1)^j times the sum of residues of
b/(c d) over the roots of d, all of which lie inside the contour
|t| = 1/2 while the roots of c stay outside.  The sum is approximated
in _Gaussian fixed point with a fully propagated error bound,
multiplied by an integer delta known to clear the denominator of the
exact value, and rounded to the nearest integer.  If the certified
error and the rounding distance both stay below 1/4, the rounded value
is provably exact.

Arithmetic.  At a rung of F bits a complex value is a pair of Python
ints (X, Y) standing for (X + iY) 2^-F, and an error bound is a
non-negative int E standing for E 2^-F (E ulps).  The fixed-point
lemma (Higham 2002, ch. 3, in its absolute form):

  * a sum of two values is exact;
  * a product u v is computed as the exact integer product shifted
    right by F bits, and a quotient u / v as the exact quotient times
    2^F floored; each component then errs by less than one ulp, so the
    result errs by less than sqrt(2) < 2 ulps in modulus;
  * if computed u, v lie within e_u, e_v of exact values, the computed
    product lies within |u| e_v + e_u |v| + e_u e_v + 2 ulps of the
    exact product.

Bounds are built from integers only (moduli by isqrt, rounded up or
down as the bound needs, divisions by ceiling), so a bound has no
rounding error of its own at any F, and the final value X 2^-F is the
exact rational Fraction(X, 2^F).  Every kernel takes F as an argument;
nothing reads a process-wide precision.  Because the error of a
product does not scale with the size of its operands, Horner's rule on
integer coefficients errs by less than 2 sum_(i<deg) |x|^i ulps however
large the coefficients are.

A row is the unit of work.  The cells of row n share c = r_n + 2t r_{n-1}
and d = r_n - r_{n-1}; only the numerator b_j = t^(j-1) r_{n-j}^2 depends
on j.  So the roots of d, the classification of c, the row part of the
denominator bound and, at each precision, the weights
w(x) = 1/(c(x) d'(x)) are computed once per row; one pass of the r
recurrence at a root gives b_j there for every j, and each cell is one
weighted sum (`integrate_row`).  `integrate_exact` runs the same engine,
numerators included, on a single cell.

Everything numeric lives behind escalation: any failed bound raises an
internal signal, the working precision doubles, and the computation
reruns until it certifies or hits the ceiling, root finding starting
from the set of roots that the previous rung certified.  A cell
waits for a rung that its delta allows and is done at the first rung
where it certifies; the ladder climbs while any cell is pending.  A
delta that no rung up to MAX_BITS could clear fails at once, before any
root is found, and a row above MAX_ROW before any polynomial is built.
The bound itself is read off d's coefficients, 2^(n-j-1) times
2^(n-1) d(-1/2), about 2.8n bits at most (proof on DenominatorBound).

Roots are found the way MPSolve finds them (Bini 1996; Bini and Robol
2014): cheap starting points first, a certificate afterwards.  A cold
start is an Aberth run in double precision from Newton-polygon radii,
stopped at the double noise floor; Aberth sweeps at doubling precision
then refine it up to the rung's precision.  The certificate (disks of
radius deg |p/p'|, pairwise disjoint) is computed at that precision
from the final approximations alone, so the starting points decide how
long a run takes, never whether its answer is right.  The certificate
also proves the polynomial squarefree (deg p disjoint disks that each
hold a root are deg p distinct roots), the one hypothesis of the
denominator bound not read off d's coefficients, and the ladder rounds
a cell only at a rung where d's roots are certified.  find_roots is
memoised, so a ladder that runs again for the same polynomial gets its
certified sets back without a sweep.  The outside factor c is
classified once, before the ladder, since the residue sum only
evaluates c at the roots of d.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

from .errors import (
    MAX_BITS,
    START_BITS,
    ConsistencyError,
    PrecisionError,
    PrecisionEscalation,
)
from .exactq import Polynomial, Rational
from .walk_core import _validate, absorption_denominator, gf_denominator

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


# The largest row the contour route runs.  Root finding, not delta, sets
# it: a cell of row 150 takes 13-17 s cold.  Rows above it fail before
# any polynomial is built.
MAX_ROW = 150


def _factors(n: int) -> tuple[Polynomial, Polynomial]:
    """(c, d) of row n, once n is known to lie within MAX_ROW."""
    if n > MAX_ROW:
        raise PrecisionError(
            f"the contour route runs rows up to n = {MAX_ROW}, got n = {n}"
        )
    return gf_denominator(n), absorption_denominator(n)


@dataclass(frozen=True)
class Integrand:
    """The integrand (-1)^j b / (c d) of p_j^(n) on the circle |t| = 1/2,
    with b = t^(j-1) r_{n-j}^2, c = r_n + 2t r_{n-1} and d = r_n - r_{n-1}.

    Constructed from (j, n) alone, 1 <= j < n <= MAX_ROW; c and d are
    derived once, at construction, with integer coefficients exactly as
    the r family gives them.  b is never multiplied out: the engine
    evaluates it at the roots of d by the r recurrence.
    """

    j: int
    n: int
    c: Polynomial = field(init=False)
    d: Polynomial = field(init=False)

    def __post_init__(self) -> None:
        _validate(self.j, self.n, 1, self.n - 1)
        c, d = _factors(self.n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class RootSet:
    """All complex roots of one polynomial p, which the set proves
    squarefree.

    Each approximation is a _Gaussian fixed-point pair (X, Y) standing
    for (X + iY) 2^-precision_bits, and radius is in the same units.
    Each disk |x - approximations[i]| <= error_radius contains a root of
    p, and the deg p disks are pairwise disjoint, so p has deg p
    distinct roots, one in each disk: the roots are simple, and the
    approximations are a faithful combinatorial copy of the root set.
    """

    approximations: tuple[tuple[int, int], ...]
    radius: int
    precision_bits: int

    @property
    def error_radius(self) -> Fraction:
        """The disks' radius as an exact rational."""
        return Fraction(self.radius, 1 << self.precision_bits)


@dataclass(frozen=True)
class DenominatorBound:
    """Integer delta = 2^power |N| with delta * (integral value)
    guaranteed integral, for the cell (j, n): N = 2^(n-1) d(-1/2), the
    row's part, and power = m - 1 with m = n - j.

    Write S for the sum of b(a)/(c(a) d'(a)) over the roots a of d, so
    the integral is (-1)^j S.  Hypotheses:

    * d_0 = 0 and d_1 = -1 for n >= 3, so that d = t e with e(0) = -1,
      and N != 0: checked by _row_bound.
    * d is squarefree: certified, not assumed.  The route rounds a cell
      only at a rung where find_roots has certified d's roots, and
      deg d pairwise disjoint disks that each hold a root are deg d
      distinct roots.
    * N != 0 is also proven.  At t = -1/2 the r recurrence is
      r_{k+2} = 2 r_{k+1} - r_k / 2, with characteristic roots A/2 and
      B/2 (A, B = 2 +- sqrt2), so r_k(-1/2) = ((A/2)^k - (B/2)^k)/sqrt2;
      as A/2 - 1 = 1/sqrt2 = 1 - B/2, N = (A^(n-1) + B^(n-1))/2, the
      rational part of (2 + sqrt2)^(n-1), an integer >= 2.

    Proof, for n >= 3:

    1. Casoratian.  Let q_0 = 1, q_1 = 0 and q_{k+2} = (1 - 2t) q_{k+1}
       + t q_k.  W_k = r_k q_{k-1} - r_{k-1} q_k has W_1 = 1 and
       W_{k+1} = -t W_k, so W_n = (-t)^(n-1).  At a root a of d,
       r_n(a) = r_{n-1}(a) = R, so c(a) = (1 + 2a) R and
       R Q(a) = (-a)^(n-1) with Q = q_{n-1} - q_n.  For a != 0 this
       gives R != 0, and N != 0 gives 1 + 2a != 0; with c(0) = 1, c and
       d share no root, and 1/c(a) = Q(a) / ((1 + 2a)(-a)^(n-1)).
    2. Residues.  Phi = b Q / ((1 + 2t)(-t)^(n-1) d) has a simple pole
       at each nonzero root a of d, with residue b(a)/(c(a) d'(a)); its
       other poles are 0, -1/2 and infinity.  The residues of a
       rational function sum to zero, so S = b(0)/(c(0) d'(0)) -
       Res_0 Phi - Res_(-1/2) Phi - Res_inf Phi.  The first term is -1
       for j = 1 and 0 otherwise (r_k(0) = 1 for k >= 1).
    3. At 0.  Phi = +-b Q / (t^n (1 + 2t) e), and (1 + 2t) e has
       constant term -1, so its inverse is a power series over Z and
       Res_0 Phi is an integer.
    4. At -1/2.  The pole is simple since N != 0, and
       Res_(-1/2) Phi = b(-1/2) Q(-1/2) 2^(2n-3) / N.  An integer
       polynomial of degree k takes a value in 2^-k Z at -1/2, and
       deg r_m = m - 1, deg Q = n - 1, so b(-1/2) Q(-1/2) lies in
       2^-(j-1+2(m-1)+(n-1)) Z and the residue in Z / (2^(m-1) N).
    5. At infinity.  Put t = s/4.  R_k(s) = 2^(k-1) r_k(s/4) and
       Y_k(s) = 2^k q_k(s/4) obey X_{k+2} = (2 - s) X_{k+1} + s X_k
       from integer starts, so they lie in Z[s], and lc R_k =
       (-1)^(k-1).  Counting the powers of two, Phi(s/4) = 4 Psi(s)
       with Psi = s^(j-1) R_m^2 (2 Y_{n-1} - Y_n) / ((2 + s)(-s)^(n-1)
       D) and D = R_n - 2 R_{n-1} = 2^(n-1) d(s/4).  2 + s, -s and D
       have leading coefficients +-1, so Psi expands at infinity in
       powers of 1/s with integer coefficients, and Res_inf Phi =
       Res_inf Psi (dt = ds/4) is an integer.

    So S lies in Z / (2^(m-1) N), and delta clears (-1)^j S.  For n = 2,
    d = -2t has the one root 0, S = b(0)/(c(0) d'(0)) = -1/2 and
    delta = |N| = 2.  Neither N nor the proof uses the residue route:
    N is read off d's coefficients, so the agreement of the two routes
    stays a check.
    """

    N: int
    power: int

    @property
    def delta(self) -> int:
        return abs(self.N) << self.power


def build_integrand(j: int, n: int) -> Integrand:
    """Contour form of p_j^(n):

        p_j^(n) = ((-1)^j / 2 pi i) * integral over |t| = 1/2 of
                  t^(j-1) r_{n-j}^2 / ((r_n + 2t r_{n-1})(r_n - r_{n-1})) dt.

    The two denominator factors never share a root (step 1 of the proof
    on DenominatorBound, from N != 0), and the inside factor is
    squarefree: the root certificate of d proves it on every rung that
    rounds a cell.
    """
    return Integrand(j, n)


def _row_bound(d: Polynomial) -> int:
    """N = 2^(n-1) d(-1/2) for d of degree n - 1: the part of the bound
    that a row's cells share.  Checks the coefficient hypotheses of the
    proof on DenominatorBound, d_0 = 0 and d_1 = -1 (n >= 3) and N != 0,
    and raises ConsistencyError on a violation: each contradicts the
    r family (N = (A^(n-1) + B^(n-1))/2 >= 2).
    """
    ints = _int_coeffs(d)
    if len(ints) > 2 and ints[:2] != [0, -1]:
        raise ConsistencyError(f"d does not start -t: {ints[:2]}")
    top = len(ints) - 1
    N = sum((-a if i % 2 else a) << (top - i) for i, a in enumerate(ints))
    if N == 0:
        raise ConsistencyError("d vanishes at t = -1/2")
    return N


def denominator_bound(ig: Integrand) -> DenominatorBound:
    """Exact integer multiplier that clears the integral's denominator,
    2^(n-j-1) |2^(n-1) d(-1/2)| (the proof is on DenominatorBound)."""
    return DenominatorBound(N=_row_bound(ig.d), power=ig.n - ig.j - 1)


def _row(
    n: int, js: Sequence[int] | None
) -> tuple[list[int], Polynomial, Polynomial, list[DenominatorBound]]:
    """(js, c, d, bounds) for the cells (j, n), j in js (default
    1..n-1), with the row part of the bounds computed once."""
    _validate(1, n, 1, n - 1)
    js = list(range(1, n) if js is None else js)
    for j in js:
        _validate(j, n, 1, n - 1)
    c, d = _factors(n)
    N = _row_bound(d)
    return js, c, d, [DenominatorBound(N=N, power=n - j - 1) for j in js]


def denominator_bounds(n: int) -> list[DenominatorBound]:
    """denominator_bound of every interior cell (j, n), j = 1..n-1, with
    the row part computed once."""
    return _row(n, None)[3]


def _int_coeffs(p: Polynomial) -> list[int]:
    if any(c.denominator != 1 for c in p.coeffs):
        raise ValueError("root finding and residues need integer coefficients")
    return [int(c) for c in p.coeffs]


# A Gaussian fixed-point value at F bits: (X, Y) for (X + iY) 2^-F.
_Gauss = tuple[int, int]


def _ceil_shift(a: int, F: int) -> int:
    """ceil(a / 2^F)."""
    return -(-a >> F)


def _abs_up(u: _Gauss) -> int:
    """The least integer >= |X + iY|."""
    n = u[0] * u[0] + u[1] * u[1]
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def _abs_down(u: _Gauss) -> int:
    """The greatest integer <= |X + iY|."""
    return math.isqrt(u[0] * u[0] + u[1] * u[1])


def _mul(u: _Gauss, v: _Gauss, F: int) -> _Gauss:
    """u v floored to F bits (error < sqrt 2 ulps).  Three integer
    products: re = c(a + b) - b(c + d), im = c(a + b) + a(d - c)."""
    a, b = u
    c, d = v
    k = c * (a + b)
    return (k - b * (c + d)) >> F, (k + a * (d - c)) >> F


def _div(u: _Gauss, v: _Gauss, F: int) -> _Gauss:
    """u / v floored to F bits (error < sqrt 2 ulps); v != 0."""
    a, b = u
    c, d = v
    n = c * c + d * d
    return ((a * c + b * d) << F) // n, ((b * c - a * d) << F) // n


def _product(
    u: _Gauss, eu: int, v: _Gauss, ev: int, F: int
) -> tuple[_Gauss, int]:
    """(fl(u v), E): the product of two computed values with error
    bounds eu and ev, and E >= its distance from the exact product,
    |u| ev + eu |v| + eu ev plus the rounding."""
    return _mul(u, v, F), _ceil_shift(
        _abs_up(u) * ev + eu * _abs_up(v) + eu * ev, F) + 2


def _fixed(z: complex, F: int) -> _Gauss:
    """A double (or complex) floored to F bits."""
    def part(v: float) -> int:
        num, den = v.as_integer_ratio()
        return (num << F) // den
    z = complex(z)
    return part(z.real), part(z.imag)


def _horner(coeffs: Sequence[int], x: _Gauss, F: int) -> tuple[_Gauss, int]:
    """(q(x), E): q with integer coefficients by Horner's rule at F
    bits, and E >= |computed - q(x)| in ulps.

    Each step multiplies by x (rounding < 2 ulps) and adds a coefficient
    exactly, so E_k = ceil(E_(k-1) |x|) + 2, and E < 2 sum_(i<deg) |x|^i
    whatever the size of the coefficients.
    """
    X, Y = x
    z = _abs_up(x)
    s, t = X + Y, Y - X
    re, im, err = coeffs[-1] << F, 0, 0
    for a in reversed(coeffs[:-1]):
        k = X * (re + im)
        re, im = ((k - im * s) >> F) + (a << F), (k + re * t) >> F
        err = -(-err * z >> F) + 2
    return (re, im), err


def _disk_variation(coeffs: Sequence[int], z: int, rho: int, F: int) -> int:
    """Bound on |q(y) - q(x)| over |y - x| <= rho, for |x| <= z (ulps).

    Mean value bound: rho * sup |q'| on the disk, with the sup bounded
    by sum k |a_k| (z + rho)^(k-1), each step rounded upward.
    """
    reach = z + rho
    total = 0
    for k in range(len(coeffs) - 1, 0, -1):
        total = _ceil_shift(total * reach, F) + (k * abs(coeffs[k]) << F)
    return _ceil_shift(rho * total, F)


def _value_on_disk(
    coeffs: Sequence[int], x: _Gauss, rho: int, F: int
) -> tuple[_Gauss, int]:
    """q(x) by Horner, and a bound on its distance from q(y) for every
    y with |y - x| <= rho (rounding plus variation over the disk)."""
    v, e = _horner(coeffs, x, F)
    return v, e + _disk_variation(coeffs, _abs_up(x), rho, F)


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


def _aberth(
    coeffs: Sequence[int], roots: list[_Gauss], F: int
) -> list[_Gauss]:
    """Aberth sweeps at F bits until every step is below 2^(12-F)
    (1 + |x|) or p(x) is at its evaluation noise floor."""
    deg = len(coeffs) - 1
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    one, two_f = 1 << F, 2 * F
    for _ in range(60 + F // 2):
        moved = False
        for i in range(deg):
            x = roots[i]
            tol = (one + _abs_up(x)) << 12 >> F
            pv, pe = _horner(coeffs, x, F)
            if pv[0] * pv[0] + pv[1] * pv[1] <= 4 * pe * pe:
                # At the evaluation noise floor; the value carries no
                # directional information, so refinement stops here.
                continue
            dv, _ = _horner(deriv, x, F)
            if dv == (0, 0):
                roots[i] = (x[0] + tol, x[1])
                moved = True
                continue
            newton = _div(pv, dv, F)
            rr = ri = 0
            for k in range(deg):
                if k != i:
                    dx, dy = x[0] - roots[k][0], x[1] - roots[k][1]
                    if not (dx or dy):
                        dx = tol
                    n2 = dx * dx + dy * dy
                    rr += (dx << two_f) // n2
                    ri += (-dy << two_f) // n2
            nr, ni = _mul(newton, (rr, ri), F)
            denom = (one - nr, -ni)
            delta = newton if denom == (0, 0) else _div(newton, denom, F)
            roots[i] = (x[0] - delta[0], x[1] - delta[1])
            if delta[0] * delta[0] + delta[1] * delta[1] >= tol * tol:
                moved = True
        if not moved:
            break
    return roots


def find_roots(
    p: Polynomial, precision_bits: int, warm: RootSet | None = None
) -> RootSet:
    """All complex roots of p with a certified error radius; a set that
    certifies proves p squarefree (RootSet).

    precision_bits is raised to _DOUBLE_BITS when lower; that is the
    precision of the set returned.  The start is `warm`, a set certified
    for p at a lower rung, which the two ladders (certified_poles and
    the rung of _integrate) carry from one rung to the next and which is
    returned unchanged once it has the precision; without one, it is a
    double-precision Aberth run (_aberth_double, Newton-polygon starts,
    stopped at the double noise floor).  Aberth sweeps at doubling
    precisions then refine up to precision_bits.  Results are memoised
    (functools.lru_cache, 256 entries) on (p, raised precision, warm),
    so calls that differ only in how they pass those, or in a precision
    below the floor, share one entry and get back the same set.
    Certification is a posteriori and ignores where the approximations
    came from: the disk of radius deg * |p(x)/p'(x)| around any point
    contains a root, so taking the worst such radius (|p| bounded above
    and |p'| below, both with their Horner error) and checking the disks
    are pairwise disjoint pins exactly one root per disk.  A poor start
    can therefore only cost sweeps or an escalation, never a wrong
    certificate, and a repeated root never certifies.  Failure to
    certify raises the precision-escalation signal.
    """
    # Fewer bits than a double start carries would only round away what
    # the start knows, and integers of a word or two cost no less.
    return _find_roots(p, max(precision_bits, _DOUBLE_BITS), warm)


@functools.lru_cache(maxsize=256)
def _find_roots(
    p: Polynomial, precision_bits: int, warm: RootSet | None
) -> RootSet:
    """find_roots at a precision already raised to the floor."""
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    if warm is not None and len(warm.approximations) != p.degree:
        raise ValueError("a warm start needs one point per root")
    if warm is not None and warm.precision_bits >= precision_bits:
        return warm
    ints = _int_coeffs(p)
    known_bits = _DOUBLE_BITS if warm is None else warm.precision_bits
    # Near simple roots an Aberth sweep triples the correct bits, so
    # refining through doubling precisions spends about two sweeps per
    # rung and only the last rung's at the full precision.
    rungs = [precision_bits]
    while rungs[-1] // 2 > known_bits:
        rungs.append(rungs[-1] // 2)
    if warm is None:
        at = rungs[-1]
        roots = [_fixed(z, at) for z in _aberth_double(ints)[0]]
    else:
        at, roots = known_bits, list(warm.approximations)
    for bits in reversed(rungs):
        up = bits - at
        roots = _aberth(ints, [(x << up, y << up) for x, y in roots], bits)
        at = bits
    F = precision_bits
    deriv = [k * a for k, a in enumerate(ints)][1:]
    deg = p.degree
    radius = 0
    for x in roots:
        pv, pe = _horner(ints, x, F)
        dv, de = _horner(deriv, x, F)
        dlo = _abs_down(dv) - de
        if dlo <= 0:
            raise PrecisionEscalation(
                f"derivative bound collapsed at {precision_bits} bits"
            )
        radius = max(radius, -(-(deg * (_abs_up(pv) + pe) << F) // dlo))
    reach = 4 * radius * radius
    for i in range(deg):
        X, Y = roots[i]
        for k in range(i + 1, deg):
            dx, dy = X - roots[k][0], Y - roots[k][1]
            if dx * dx + dy * dy <= reach:
                raise PrecisionEscalation(
                    f"root disks overlap at {precision_bits} bits"
                )
    return RootSet(
        approximations=tuple(roots), radius=radius, precision_bits=F
    )


def classify_roots(
    roots: RootSet,
) -> tuple[tuple[_Gauss, ...], tuple[_Gauss, ...]]:
    """Partition into (inside, outside) of the contour |t| = 1/2.

    Valid for the true roots because each whole disk must clear the
    contour, which is decided exactly: |x| + rho < 1/2 and
    |x| - rho > 1/2 compare squares of integers.  A disk touching the
    contour raises the escalation signal.
    """
    half = 1 << (roots.precision_bits - 1)
    rho = roots.radius
    inner, outer = (half - rho) ** 2, (half + rho) ** 2
    inside = []
    outside = []
    for x in roots.approximations:
        m = x[0] * x[0] + x[1] * x[1]
        if rho < half and m < inner:
            inside.append(x)
        elif m > outer:
            outside.append(x)
        else:
            raise PrecisionEscalation(
                f"root disk touches the contour at {roots.precision_bits} bits"
            )
    return tuple(inside), tuple(outside)


def certified_poles(
    p: Polynomial, start_bits: int = START_BITS
) -> tuple[RootSet, tuple[_Gauss, ...], tuple[_Gauss, ...]]:
    """(roots, inside, outside): the roots of p, certified (which proves
    p squarefree) and classified against |t| = 1/2 at the same rung of
    the ladder, each rung warm-started from the last set it certified.
    A p with a repeated root never certifies, so it ends the ladder with
    PrecisionError."""
    warm = None

    def rung(bits: int):
        nonlocal warm
        warm = find_roots(p, bits, warm)
        return (warm, *classify_roots(warm))

    return _escalate(
        rung, f"the roots of a degree-{p.degree} polynomial", start_bits
    )


def _weight(
    cc: Sequence[int], dc: Sequence[int], x: _Gauss, rho: int, F: int
) -> tuple[_Gauss, int]:
    """w = 1/(c(x) d'(x)) at an approximation x of a root a of d, with
    |a - x| <= rho, and a bound e_w on |w - 1/(c(a) d'(a))| (ulps).

    With |c(a) - c(x)| <= e_c, |d'(a) - d'(x)| <= e_d and the lower
    bounds c_low = |c(x)| - e_c, d_low = |d'(x)| - e_d, the exact
    difference of the reciprocals is at most
    (|c| e_d + e_c |d'| + e_c e_d) / (c_low d_low |c| |d'|).  The
    product c(x) d'(x) is exact and w its floored reciprocal, one
    rounding of < 2 ulps.
    """
    cv, ce = _value_on_disk(cc, x, rho, F)
    dv, de = _value_on_disk(dc, x, rho, F)
    c_abs, d_abs = _abs_down(cv), _abs_down(dv)
    c_low, d_low = c_abs - ce, d_abs - de
    if c_low <= 0 or d_low <= 0:
        raise PrecisionEscalation(
            f"denominator lower bound collapsed at {F} bits"
        )
    (a, b), (c, d) = cv, dv
    pr, pi = a * c - b * d, a * d + b * c
    n = pr * pr + pi * pi
    three_f = 3 * F
    w = ((pr << three_f) // n, (-pi << three_f) // n)
    num = _abs_up(cv) * de + ce * _abs_up(dv) + ce * de
    den = c_abs * d_abs * c_low * d_low
    return w, -(-(num << three_f) // den) + 2


def _weights(
    c: Polynomial, d: Polynomial, d_roots: RootSet
) -> list[tuple[_Gauss, int]]:
    """_weight at every approximation of d_roots, at its precision."""
    cc = _int_coeffs(c)
    dc = _int_coeffs(d.derivative())
    F = d_roots.precision_bits
    return [_weight(cc, dc, x, d_roots.radius, F)
            for x in d_roots.approximations]


# The certified error of a weighted sum is at least this many ulps, so a
# cell whose delta is 2^(F - 8) or more cannot certify at F bits: the
# engine lets such a cell wait, and fails fast when delta needs more
# than MAX_BITS - 8 bits, without finding a root.
_ERROR_FLOOR = 64


def _weighted_sum(
    values: Sequence[tuple[_Gauss, int]],
    weights: Sequence[tuple[_Gauss, int]],
    F: int,
) -> tuple[_Gauss, int]:
    """(sum of b(x) w(x) over the roots x, certified error bound), at F
    bits.

    values and weights pair each approximation x of a root a with
    (b(x), e_b) and (w(x), e_w), their errors bounding the distance to
    b(a) and w(a).  Then |b(x) w(x) - b(a) w(a)| <= e_b (|w| + e_w) +
    |b| e_w, each product rounds by < 2 ulps and the sum is exact; the
    bound adds _ERROR_FLOOR.  The true sum is real for every integrand
    in this package, so an imaginary part beyond the bound raises the
    escalation signal.
    """
    re = im = spread = 0
    for (bv, be), (w, we) in zip(values, weights):
        term = _mul(bv, w, F)
        re += term[0]
        im += term[1]
        spread += be * (_abs_up(w) + we) + _abs_up(bv) * we
    err = _ceil_shift(spread, F) + 2 * len(weights) + _ERROR_FLOOR
    if abs(im) > err:
        raise PrecisionEscalation(
            f"imaginary residue beyond certified error at {F} bits"
        )
    return (re, im), err


def residue_sum(
    b: Polynomial,
    c: Polynomial,
    d: Polynomial,
    d_roots: RootSet,
) -> tuple[tuple[Rational, Rational], Rational]:
    """Sum of b(x)/(c(x) d'(x)) over the roots of d, for integer
    polynomials b, c and d, with a certified error bound covering both
    root uncertainty and rounding.  b is evaluated by Horner's rule on
    each root disk; the contour route itself takes its numerators from
    the r recurrence instead (integrate_row).

    Returns ((real, imaginary), error_bound), all exact rationals.  The
    true sum is real for every integrand in this package, so an
    imaginary part above the bound is impossible and triggers
    escalation.
    """
    F = d_roots.precision_bits
    bc = _int_coeffs(b)
    values = [_value_on_disk(bc, x, d_roots.radius, F)
              for x in d_roots.approximations]
    (re, im), err = _weighted_sum(values, _weights(c, d, d_roots), F)
    unit = 1 << F
    return (Fraction(re, unit), Fraction(im, unit)), Fraction(err, unit)


def _r_at(
    x: _Gauss, top: int, F: int
) -> tuple[list[_Gauss], list[_Gauss], list[int], list[int]]:
    """(r, r', E, E'): r_k(x) and r_k'(x) for k = 0..top at F bits, by
    the forward recurrence r_{k+2} = (1 - 2x) r_{k+1} + x r_k (Clenshaw
    1955) and its derivative r'_{k+2} = (1 - 2x) r'_{k+1} - 2 r_{k+1} +
    x r'_k + r_k, with bounds E_k, E'_k (ulps) on their errors.

    1 - 2x is exact and each step rounds two products, so with
    A >= |1 - 2x| and Z >= |x|: E_{k+2} = ceil(A E_{k+1} + Z E_k) + 4
    and E'_{k+2} = ceil(A E'_{k+1} + Z E'_k) + 2 E_{k+1} + E_k + 4.
    """
    one = 1 << F
    a = (one - 2 * x[0], -2 * x[1])
    A, Z = _abs_up(a), _abs_up(x)
    r = [(0, 0), (one, 0)]
    dr = [(0, 0), (0, 0)]
    er, edr = [0, 0], [0, 0]
    for _ in range(top - 1):
        u, v = _mul(a, dr[-1], F), _mul(x, dr[-2], F)
        dr.append((u[0] + v[0] - 2 * r[-1][0] + r[-2][0],
                   u[1] + v[1] - 2 * r[-1][1] + r[-2][1]))
        u, v = _mul(a, r[-1], F), _mul(x, r[-2], F)
        r.append((u[0] + v[0], u[1] + v[1]))
        edr.append(_ceil_shift(A * edr[-1] + Z * edr[-2], F)
                   + 2 * er[-1] + er[-2] + 4)
        er.append(_ceil_shift(A * er[-1] + Z * er[-2], F) + 4)
    return r, dr, er, edr


def _majorant(z: int, top: int, F: int) -> list[int]:
    """R_k(z) (ulps, rounded upward) for k = 0..top, where R_0 = 0,
    R_1 = 1 and R_{k+2} = (1 + 2z) R_{k+1} + z R_k majorizes r_k
    coefficient by coefficient (see integrate_row)."""
    a = (1 << F) + 2 * z
    R = [0, 1 << F]
    for _ in range(top - 1):
        R.append(_ceil_shift(a * R[-1] + z * R[-2], F))
    return R


def _numerators_at(
    x: _Gauss, rho: int, n: int, js: Sequence[int], F: int
) -> list[tuple[_Gauss, int]]:
    """(b_j(x), e_j) for each j in js, where b_j = t^(j-1) r_{n-j}^2 and
    e_j bounds |b_j(x) computed - b_j(y)| for every |y - x| <= rho
    (ulps at F bits, rho < 2^F).

    One pass of the r recurrence at x serves every j.  Beside it, the
    rounding bounds of r_k and r_k' carry through the products that
    make b_j and b_j', and the majorant R at |x| + 1 bounds the Taylor
    tail of b_j over the disk (proof on integrate_row).
    """
    top = n - min(js)
    one = 1 << F
    z = _abs_up(x)
    r, dr, er, edr = _r_at(x, top, F)
    far = _majorant(z + one, top, F)
    powers, power_errs, far_powers = [(one, 0)], [0], [one]
    for _ in range(max(js) - 1):
        powers.append(_mul(powers[-1], x, F))
        power_errs.append(_ceil_shift(power_errs[-1] * z, F) + 2)
        far_powers.append(_ceil_shift(far_powers[-1] * (z + one), F))
    out = []
    for j in js:
        m = n - j
        power, e_power = powers[j - 1], power_errs[j - 1]
        square, e_square = _product(r[m], er[m], r[m], er[m], F)
        value, e_value = _product(power, e_power, square, e_square, F)
        rdr, e_rdr = _product(r[m], er[m], dr[m], edr[m], F)
        half, e_half = _product(power, e_power, rdr, e_rdr, F)
        slope = (2 * half[0], 2 * half[1])
        e_slope = 2 * e_half
        if j > 1:
            low, e_low = _product(powers[j - 2], power_errs[j - 2],
                                  square, e_square, F)
            slope = (slope[0] + (j - 1) * low[0], slope[1] + (j - 1) * low[1])
            e_slope += (j - 1) * e_low
        variation = _ceil_shift(rho * (_abs_up(slope) + e_slope), F)
        tail = _ceil_shift(rho * rho * far_powers[j - 1] * far[m] * far[m],
                           4 * F)
        out.append((value, e_value + variation + tail))
    return out


def _round_cell(
    total: _Gauss, err: int, sign: int, delta: int, F: int
) -> Rational:
    quarter = Fraction(1, 4)
    unit = 1 << F
    if delta * Fraction(err, unit) >= quarter:
        raise PrecisionEscalation(f"certified error too large at {F} bits")
    scaled = delta * sign * Fraction(total[0], unit)
    nearest = round(scaled)
    if abs(scaled - nearest) >= quarter:
        raise PrecisionEscalation(
            f"scaled value not near an integer at {F} bits"
        )
    return Fraction(nearest, delta)


def _integrate(
    n: int,
    c: Polynomial,
    d: Polynomial,
    cells: Sequence[tuple[int, int]],
    start_bits: int,
) -> list[Rational]:
    """The contour route's one engine: p_j^(n) = (-1)^j times the sum of
    b_j/(c d') over the roots of d, one per cell (j, delta) of row n,
    with c and d the row's factors.

    Fails fast when some delta needs more than MAX_BITS, then certifies
    once that every c-root disk lies outside |t| = 1/2.  Each rung
    certifies d's roots and finds the weights once, before it rounds any
    cell, so every delta it uses rests on proven hypotheses (d
    squarefree among them) and a repeated root of d ends the ladder with
    PrecisionError.  At each root one pass of the r recurrence gives b_j
    for every pending cell whose delta the rung allows (_numerators_at),
    and each such cell is one weighted sum.  A
    cell is done once delta * error < 1/4 and the scaled sum lies within
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
    if c.degree >= 1 and certified_poles(c, start_bits)[1]:
        raise ConsistencyError(
            "a pole of the outside factor sits inside |t|=1/2"
        )
    done: dict[int, Rational] = {}
    # The last certified set of d's roots, the next rung's warm start.
    d_roots: RootSet | None = None

    def rung(bits: int) -> list[Rational]:
        nonlocal d_roots
        # The certified error never drops below _ERROR_FLOOR ulps, so a
        # cell with delta >= 2^(bits-8) cannot certify here: it waits.
        waiting = PrecisionEscalation(f"delta needs more than {bits} bits")
        live = [k for k, (_, delta) in enumerate(cells)
                if k not in done and not delta >> (bits - 8)]
        if not live:
            raise waiting
        # This certificate proves d squarefree, the one hypothesis of
        # delta that _row_bound does not check, so it must come before
        # any cell is rounded.
        d_roots = find_roots(d, bits, d_roots)
        if classify_roots(d_roots)[1]:
            raise ConsistencyError(
                "a pole of the inside factor sits outside |t|=1/2"
            )
        failure = waiting
        # The roots' precision, which is at least the rung's.
        F = d_roots.precision_bits
        weights = _weights(c, d, d_roots)
        js = [cells[k][0] for k in live]
        per_root = [_numerators_at(x, d_roots.radius, n, js, F)
                    for x in d_roots.approximations]
        for k, values in zip(live, zip(*per_root)):
            j, delta = cells[k]
            try:
                total, err = _weighted_sum(values, weights, F)
                done[k] = _round_cell(total, err, (-1) ** j, delta, F)
            except PrecisionEscalation as exc:
                failure = exc
        if len(done) < len(cells):
            raise failure
        return [done[k] for k in range(len(cells))]

    return _escalate(rung, what, start_bits)


def integrate_exact(ig: Integrand, start_bits: int = START_BITS) -> Rational:
    """Exact value of the contour integral, via certified rounding.

    The one cell (ig.j, ig.n) through the engine of integrate_row.  The
    returned rational is exact, not approximate.
    """
    cell = (ig.j, denominator_bound(ig).delta)
    return _integrate(ig.n, ig.c, ig.d, [cell], start_bits)[0]


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

    The bound on b_j, in the absolute model of the module docstring.
    Let x approximate a root a of d with |a - x| <= rho, let z >= |x|,
    and write m = n - j.

    1. Majorant.  R_0 = 0, R_1 = 1, R_{k+2} = (1 + 2z) R_{k+1} + z R_k
       has non-negative coefficients, and |[t^i] r_k| <= [t^i] R_k for
       every i and k: by induction, [t^i] r_{k+2} is
       [t^i] r_{k+1} - 2 [t^(i-1)] r_{k+1} + [t^(i-1)] r_k, whose
       modulus is at most [t^i] R_{k+2}.  Products and derivatives keep
       the relation (|sum u_i v_(k-i)| <= sum U_i V_(k-i)), so
       B_j(z) = z^(j-1) R_m(z)^2 majorizes b_j, and every derivative
       of B_j majorizes the same derivative of b_j, coefficient by
       coefficient.
    2. Rounding.  Every value is computed from exact inputs by sums,
       which are exact, and products, which round by < 2 ulps.  A
       product of computed u, v with errors e_u, e_v is within
       |u| e_v + e_u |v| + e_u e_v + 2 ulps of the exact product
       (_product), and _r_at carries E_k and E'_k through the
       recurrence the same way.  So b_j(x) = x^(j-1) (r_m r_m) and
       b_j'(x) = 2 x^(j-1) (r_m r_m') + (j - 1) x^(j-2) (r_m r_m) are
       computed with error bounds that use the computed moduli alone;
       every bound is an integer rounded upward, so no bound has a
       rounding error of its own.
    3. Variation.  For |y - x| <= rho, Taylor's formula at x gives
       b_j(y) - b_j(x) = b_j'(x) (y - x) + sum over i >= 2 of
       b_j^(i)(x) (y - x)^i / i!, with |b_j^(i)(x)| <= B_j^(i)(z) by 1.
       Since rho < 1 (every root disk lies inside |t| = 1/2), the tail
       is at most rho^2 times the Taylor series of B_j at z evaluated
       one unit away, whose terms are all non-negative: at most
       rho^2 B_j(z + 1).

    So |computed b_j(x) - b_j(y)| <= e(b_j) + rho (|computed b_j'(x)|
    + e(b_j')) + rho^2 B_j(z + 1), with e the rounding bounds of 2.
    """
    js, c, d, bounds = _row(n, js)
    cells = [(j, db.delta) for j, db in zip(js, bounds)]
    return _integrate(n, c, d, cells, start_bits)
