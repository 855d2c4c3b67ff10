"""Contour-integral pipeline: certified numeric residues rounded to an
exact rational.

The probability p_j^(n) equals (-1)^j times the sum of residues of
b/(c d) over the roots of d, all of which lie inside the contour
|t| = 1/2 while the roots of c lie outside it (proofs on
build_integrand).  The sum only evaluates c at the roots of d, so c's
roots are never computed, and d's are found but never classified.  The
sum is approximated in _Gaussian fixed point with a fully propagated
error bound, multiplied by an integer delta known to clear the
denominator of the exact value, and rounded to the nearest integer.  If
the certified error and the rounding distance both stay below 1/4, the
rounded value is provably exact.

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

One lemma bounds every value over a root disk.  If a root lies within
rho < 1 of its approximation x and q has a coefficientwise majorant Q,
then q at the root lies within rho |q'(x)| + rho^2 Q(|x| + 1) of q(x)
(Taylor at x; the disk lemma, step 3 of the proof on integrate_row).
_value_on_disk applies it to c and d' in the weights 1/(c d') and to a
general numerator, with Q = sum |a_k| t^k; _numerators_at applies it
to b_j, with the majorant that the r recurrence gives.

A row is the unit of work.  The cells of row n share c = r_n + 2t r_{n-1}
and d = r_n - r_{n-1}; only the numerator b_j = t^(j-1) r_{n-j}^2 depends
on j.  So the roots of d, the row part of the denominator bound and,
at each precision, the weights w(x) = 1/(c(x) d'(x)) are computed once
per row; one pass of the r recurrence at a root gives b_j there for
every j, and each cell is one weighted sum (`integrate_row`).
`integrate_exact` runs the same engine, numerators included, on a
single cell.

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
2014): starting points first, a certificate afterwards.  Every caller
passes its start.  For the row factors it is explicit: by the lemma on
walk_core.RFamily the roots of r_(n-1) lie on |t| = 1/2 in closed
form, and row_starts scales them just inside the circle for d (with 0)
and just outside it for c.  Fixed-point Aberth sweeps at doubling
precision refine a start up to the rung's precision.  The certificate
(disks of radius deg |p/p'|, pairwise disjoint) is computed at that
precision on p's exact integer coefficients from the final
approximations alone, so the start decides how long a run takes, never
whether its answer is right.  The certificate also proves the
polynomial squarefree (deg p disjoint disks that each hold a root are
deg p distinct roots), the one hypothesis of the denominator bound not
read off d's coefficients, and the ladder rounds a cell only at a rung
where d's roots are certified.  find_roots is memoised, so a ladder
that runs again for the same polynomial and start gets its certified
sets back without a sweep.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, TypeVar

from .cells import _validate
from .errors import (
    MAX_BITS,
    START_BITS,
    ConsistencyError,
    PrecisionError,
    PrecisionEscalation,
)
from .rfamily import absorption_denominator, gf_denominator

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
# it.  With the weights bounded by the derivative at each root's
# approximation (_value_on_disk), the centre cell of row 150 certifies
# at 512 bits and takes 1.3-2.5 s cold (median 1.7 s in twelve runs on
# a 2-vCPU VM); (1, 150) still climbs to 1,024 bits, where its numerator
# bound binds, and takes 4.0-6.4 s.  Rows above it fail before any
# polynomial is built.
MAX_ROW = 150


def require_row(n: int) -> None:
    """Refuse a row above MAX_ROW with the route's one-line
    PrecisionError."""
    if n > MAX_ROW:
        raise PrecisionError(
            f"the contour route runs rows up to n = {MAX_ROW}, got n = {n}"
        )


# A polynomial as its integer coefficients, low degree first, with a
# nonzero last coefficient.
_Coeffs = tuple[int, ...]


def _factors(n: int) -> tuple[_Coeffs, _Coeffs]:
    """(c, d) of row n, once n is known to lie within MAX_ROW."""
    require_row(n)
    return gf_denominator(n), absorption_denominator(n)


class _IntegrandFields(NamedTuple):
    j: int
    n: int
    c: _Coeffs
    d: _Coeffs


class Integrand(_IntegrandFields):
    """The integrand (-1)^j b / (c d) of p_j^(n) on the circle |t| = 1/2,
    with b = t^(j-1) r_{n-j}^2, c = r_n + 2t r_{n-1} and d = r_n - r_{n-1}.

    Constructed from (j, n) alone, 1 <= j < n <= MAX_ROW; c and d are
    derived once, at construction, as integer coefficient tuples, low
    degree first, exactly as the r family gives them.  b is never
    multiplied out: the engine evaluates it at the roots of d by the r
    recurrence.
    """

    __slots__ = ()

    def __new__(cls, j: int, n: int) -> Integrand:
        _validate(j, n, 1, n - 1)
        return super().__new__(cls, j, n, *_factors(n))

    @classmethod
    def _make(cls, fields) -> Integrand:
        # _replace: a new (j, n) derives its own c and d.
        j, n, _, _ = fields
        return cls(j, n)


class RootSet(NamedTuple):
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


class DenominatorBound(NamedTuple):
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

    Every root of c lies outside the contour, |t| > 1/2, and every root
    of d inside it, |t| < 1/2.  So the contour encloses the poles of d
    alone, the route never finds c's roots, and it never classifies d's.
    Proof for c, for n >= 3 (c = 1 for n = 2):

    1. f_1^(n)(z) = z r_{n-1}(z^2) / c(z^2) generates the signed path
       counts c_m, and the walk is absorbed on the left at step m with
       amplitude c_m 2^(-m/2).  By unitarity the absorbed mass
       sum_(m<=M) c_m^2 2^(-m) (the identity of the absorbed-mass-series
       check) is at most 1 for every M.  So g(w) = f_1(w / sqrt2) has
       square-summable coefficients, sum |g_m|^2 = s^2 <= 1.
    2. By Cauchy-Schwarz, |g(w)| <= s / sqrt(1 - |w|^2) on |w| < 1.  A
       pole of g at w_0 with |w_0| < 1 contradicts this outright, and
       one with |w_0| = 1 makes |g(r w_0)| grow at least like
       (1 - r)^(-1) as r -> 1, faster than the bound's (1 - r)^(-1/2).
       So the rational function g has no pole in |w| <= 1.
    3. c(0) = 1, and gcd(c, r_{n-1}) = gcd(r_n, r_{n-1}) = 1: by the
       Casoratian (step 1 on DenominatorBound) a common root a has
       (-a)^(n-1) = 0, yet r_k(0) = 1 for k >= 1.  So at a root tau of
       c, w = sqrt(2 tau) != 0 makes the numerator w r_{n-1}(tau) / sqrt2
       nonzero and the denominator c(tau) zero: w is a pole of g, so
       |w| > 1 by 2, that is |tau| > 1/2.

    Proof for d (d = -2t for n = 2, whose one root is 0):

    1. Let s_k = (4t)^(k-1) r_k(1/(4t)).  Then s_0 = 0, s_1 = 1 and
       s_(k+2) = (4t - 2) s_(k+1) + 4t s_k, multiplying the r recurrence
       at 1/(4t) by (4t)^(k+1).
    2. (-2)^(k-1) r_k(t) obeys the same recurrence from the same starts,
       so s_k = (-2)^(k-1) r_k(t).
    3. Hence (4t)^(n-1) c(1/(4t)) = s_n + 2 s_(n-1) = (-2)^(n-1) d(t).
    4. So a root a != 0 of d makes tau = 1/(4a) a root of c, and
       |a| = 1/(4 |tau|) < 1/2 since |tau| > 1/2.  The roots of d are 0
       and 1/(4 tau), one for each root tau of c.

    `hadwalk roots` and verify's pole-classification check classify the
    roots of both factors with certified disks, an independent run-time
    witness.
    """
    return Integrand(j, n)


def _row_bound(d: _Coeffs) -> int:
    """N = 2^(n-1) d(-1/2) for d of degree n - 1: the part of the bound
    that a row's cells share.  Checks the coefficient hypotheses of the
    proof on DenominatorBound, d_0 = 0 and d_1 = -1 (n >= 3) and N != 0,
    and raises ConsistencyError on a violation: each contradicts the
    r family (N = (A^(n-1) + B^(n-1))/2 >= 2).
    """
    if len(d) > 2 and d[:2] != (0, -1):
        raise ConsistencyError(f"d does not start -t: {d[:2]}")
    top = len(d) - 1
    N = sum((-a if i % 2 else a) << (top - i) for i, a in enumerate(d))
    if N == 0:
        raise ConsistencyError("d vanishes at t = -1/2")
    return N


def denominator_bound(ig: Integrand) -> DenominatorBound:
    """Exact integer multiplier that clears the integral's denominator,
    2^(n-j-1) |2^(n-1) d(-1/2)| (the proof is on DenominatorBound)."""
    return DenominatorBound(N=_row_bound(ig.d), power=ig.n - ig.j - 1)


def _row(
    n: int, js: Sequence[int] | None
) -> tuple[list[int], _Coeffs, _Coeffs, list[DenominatorBound]]:
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


def _check_coefficients(p: _Coeffs) -> None:
    """The engine's one check of a polynomial that a caller passes in
    (find_roots, certified_poles, residue_sum): a tuple of ints, low
    degree first, whose last coefficient is not zero.  The fixed-point
    kernels would truncate a rational coefficient, and a trailing zero
    would overstate the degree, so either raises ValueError, as does any
    other type of p."""
    if not (isinstance(p, tuple) and all(isinstance(a, int) for a in p)):
        raise ValueError(
            "root finding and residues need a tuple of integer coefficients")
    if p and not p[-1]:
        raise ValueError("a coefficient tuple ends in a nonzero coefficient")


def _derivative(p: Sequence[int]) -> list[int]:
    """The coefficients of p', low degree first."""
    return [k * a for k, a in enumerate(p)][1:]


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


def _value_on_disk(
    coeffs: Sequence[int], x: _Gauss, rho: int, F: int
) -> tuple[_Gauss, int]:
    """q(x) by Horner, and a bound on its distance from q(y) for every
    y with |y - x| <= rho < 2^F (ulps at F bits).

    The disk lemma (step 3 of the proof on integrate_row) with q's
    coefficientwise majorant Q = sum |a_k| t^k: the rounding e of q(x),
    plus rho (|q'(x)| + e') with q'(x) by Horner on the derivative's
    coefficients, plus rho^2 Q(|x| + 1), summed upward.
    """
    v, e = _horner(coeffs, x, F)
    deriv = _derivative(coeffs) or [0]
    slope, e_slope = _horner(deriv, x, F)
    reach = _abs_up(x) + (1 << F)
    far = 0
    for a in reversed(coeffs):
        far = _ceil_shift(far * reach, F) + (abs(a) << F)
    variation = _ceil_shift(rho * (_abs_up(slope) + e_slope), F)
    return v, e + variation + _ceil_shift(rho * rho * far, 2 * F)


# Bits credited to a start of complex doubles: multiprecision refinement
# of one begins at START_BITS.
_DOUBLE_BITS = START_BITS // 2
# The factor that puts d's start just inside the circle |t| = 1/2 and, as
# its inverse, c's start just outside it.
_INSIDE = 0.999


def row_starts(n: int) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """(d's start, c's start) for row n: one point per root of each
    factor, for find_roots and certified_poles.

    By the lemma on walk_core.RFamily the n - 2 roots of r_{n-1} are
    (s^2 +- i sqrt(1 - s^4))/2 with s^2 = sin^2(pi m/(n-1)), all on
    |t| = 1/2.  d = r_n - r_{n-1} has the root 0 and its other roots
    inside the circle, c = r_n + 2t r_{n-1} its roots outside it (proofs
    on build_integrand), so d starts from 0 and those points scaled just
    inside, c from the same points scaled just outside.  A start only
    sets how long Aberth runs: the certificate never depends on it.
    """
    k = n - 1
    points = [0.5 + 0j] if k % 2 == 0 else []  # m = k/2
    for m in range(1, (k + 1) // 2):
        s2 = math.sin(math.pi * m / k) ** 2
        y = math.sqrt(1 - s2 * s2) / 2
        points += [complex(s2 / 2, y), complex(s2 / 2, -y)]
    inside = tuple(_INSIDE * z for z in points)
    return (0j, *inside), tuple(z / _INSIDE for z in points)


def _aberth(
    coeffs: Sequence[int], roots: list[_Gauss], F: int
) -> list[_Gauss]:
    """Aberth sweeps at F bits until every step is below 2^(12-F)
    (1 + |x|) or p(x) is at its evaluation noise floor."""
    deg = len(coeffs) - 1
    deriv = _derivative(coeffs)
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
    p: _Coeffs, precision_bits: int, start: RootSet | Sequence[complex]
) -> RootSet:
    """All complex roots of p, given by its integer coefficient tuple,
    low degree first, with a certified error radius; a set that
    certifies proves p squarefree (RootSet).

    precision_bits is raised to _DOUBLE_BITS when lower; that is the
    precision of the set returned.  The start is either a set certified
    for p at a lower rung, which the two ladders (certified_poles and
    the rung of _integrate) carry from one rung to the next and which is
    returned unchanged once it has the precision, or one complex point
    per root (row_starts gives a row's), credited with _DOUBLE_BITS.
    Aberth sweeps at doubling precisions refine it up to precision_bits.
    Results are memoised (functools.lru_cache, 256 entries) on
    (p, raised precision, start), so calls that differ only in a
    precision below the floor, or in passing equal points as a list or
    a tuple, share one entry and get back the same set.  Certification
    is a posteriori and ignores where the approximations came from: the
    disk of radius deg * |p(x)/p'(x)| around any point contains a root,
    so taking the worst such radius (|p| bounded above and |p'| below,
    both with their Horner error) and checking the disks are pairwise
    disjoint pins exactly one root per disk.  A poor start can therefore
    only cost sweeps or an escalation, never a wrong certificate, and a
    repeated root never certifies.  Failure to certify raises the
    precision-escalation signal; a start with the wrong number of
    points, a point that is not finite, or coefficients that
    _check_coefficients refuses raise ValueError.
    """
    _check_coefficients(p)
    if not isinstance(start, RootSet):
        start = tuple(map(complex, start))
        if not all(math.isfinite(z.real) and math.isfinite(z.imag)
                   for z in start):
            raise ValueError("a start needs finite points")
    # Fewer bits than a start of doubles carries would only round away what
    # the start knows, and integers of a word or two cost no less.
    return _find_roots(p, max(precision_bits, _DOUBLE_BITS), start)


@functools.lru_cache(maxsize=256)
def _find_roots(
    p: _Coeffs, precision_bits: int, start: RootSet | tuple[complex, ...]
) -> RootSet:
    """find_roots on checked coefficients, at a precision already raised
    to the floor."""
    deg = len(p) - 1
    if deg < 1:
        raise ValueError("root finding needs degree >= 1")
    warm = isinstance(start, RootSet)
    points = start.approximations if warm else start
    if len(points) != deg:
        raise ValueError("a start needs one point per root")
    if warm and start.precision_bits >= precision_bits:
        return start
    at = start.precision_bits if warm else _DOUBLE_BITS
    roots = list(points) if warm else [_fixed(z, at) for z in points]
    # Near simple roots an Aberth sweep triples the correct bits, so
    # refining through doubling precisions spends about two sweeps per
    # rung and only the last rung's at the full precision.
    rungs = [precision_bits]
    while rungs[-1] // 2 > at:
        rungs.append(rungs[-1] // 2)
    for bits in reversed(rungs):
        up = bits - at
        roots = _aberth(p, [(x << up, y << up) for x, y in roots], bits)
        at = bits
    F = precision_bits
    deriv = _derivative(p)
    radius = 0
    for x in roots:
        pv, pe = _horner(p, x, F)
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
    p: _Coeffs,
    start: Sequence[complex],
    start_bits: int = START_BITS,
) -> tuple[RootSet, tuple[_Gauss, ...], tuple[_Gauss, ...]]:
    """(roots, inside, outside): the roots of p, given by its integer
    coefficients as for find_roots, certified (which proves p
    squarefree) and classified against |t| = 1/2 at the same rung of
    the ladder.  The first rung refines start, one point per root; each
    later rung starts from the last set certified.  A p with a repeated
    root never certifies, so it ends the ladder with PrecisionError."""
    _check_coefficients(p)
    warm: RootSet | Sequence[complex] = start

    def rung(bits: int):
        nonlocal warm
        warm = find_roots(p, bits, warm)
        return (warm, *classify_roots(warm))

    return _escalate(
        rung, f"the roots of a degree-{len(p) - 1} polynomial", start_bits
    )


def row_poles(
    n: int, start_bits: int = START_BITS
) -> tuple[tuple[_Coeffs, tuple], tuple[_Coeffs, tuple | None]]:
    """((d, poles of d), (c, poles of c)) for row n, each factor as its
    integer coefficient tuple: each factor's roots certified and
    classified by certified_poles from its row_starts(n) point, first d,
    then c.  c is the constant 1 at n = 2 and has no poles (None).  Rows
    above MAX_ROW fail before any coefficient is computed."""
    c, d = _factors(n)
    d_start, c_start = row_starts(n)
    d_poles = certified_poles(d, d_start, start_bits)
    c_poles = certified_poles(c, c_start, start_bits) if len(c) > 1 else None
    return (d, d_poles), (c, c_poles)


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
    c: _Coeffs, d: _Coeffs, d_roots: RootSet
) -> list[tuple[_Gauss, int]]:
    """_weight at every approximation of d_roots, at its precision.

    The disk lemma behind _value_on_disk and _numerators_at needs disks
    of radius below 1, so a set whose radius is 1/2 or more raises the
    escalation signal here, and no value bounded on its disks is used.
    """
    F = d_roots.precision_bits
    if d_roots.radius >= 1 << (F - 1):
        raise PrecisionEscalation(f"root disks too wide at {F} bits")
    dc = _derivative(d)
    return [_weight(c, dc, x, d_roots.radius, F)
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
    b: _Coeffs,
    c: _Coeffs,
    d: _Coeffs,
    d_roots: RootSet,
) -> tuple[tuple[Fraction, Fraction], Fraction]:
    """Sum of b(x)/(c(x) d'(x)) over the roots of d, for polynomials b,
    c and d given by their integer coefficient tuples, low degree first,
    with a certified error bound covering both root
    uncertainty and rounding.  b is evaluated by Horner's rule on
    each root disk; the contour route itself takes its numerators from
    the r recurrence instead (integrate_row).

    Returns ((real, imaginary), error_bound), all exact rationals.  The
    true sum is real for every integrand in this package, so an
    imaginary part above the bound is impossible and triggers
    escalation.
    """
    for p in (b, c, d):
        _check_coefficients(p)
    F = d_roots.precision_bits
    values = [_value_on_disk(b, x, d_roots.radius, F)
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
    make b_j and b_j', and the disk lemma (step 3 of the proof on
    integrate_row) bounds the variation over the disk with B_j, the
    majorant of b_j built from R at |x| + 1.
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
) -> Fraction:
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
    c: _Coeffs,
    d: _Coeffs,
    cells: Sequence[tuple[int, int]],
    start_bits: int,
) -> list[Fraction]:
    """The contour route's one engine: p_j^(n) = (-1)^j times the sum of
    b_j/(c d') over the roots of d, one per cell (j, delta) of row n,
    with c and d the row's factors.

    Fails fast when some delta needs more than MAX_BITS.  c enters only
    through its coefficients in the weights 1/(c d'); its roots lie
    outside the contour and d's inside it by the proofs on
    build_integrand, so c's roots are not found and d's not classified.
    Each rung certifies d's roots and finds the weights once, before it
    rounds any cell, so every delta it uses rests on proven hypotheses
    (d squarefree among them) and a repeated root of d ends the ladder
    with PrecisionError.  At each root one pass of the r
    recurrence gives b_j for every pending cell whose delta the rung
    allows (_numerators_at), and each such cell is one weighted sum.  A
    cell is done once delta * error < 1/4 and the scaled sum lies within
    1/4 of an integer: that integer over delta is then exact.
    """
    if not cells:
        return []
    widest = max(delta.bit_length() for _, delta in cells)
    what = f"the integral for a {widest}-bit delta"
    if widest > MAX_BITS - 8:
        raise _exhausted(what, f"delta needs more than {MAX_BITS} bits")
    done: dict[int, Fraction] = {}
    # The next rung's start: the lemma's points, then the last certified
    # set of d's roots.
    d_roots: RootSet | Sequence[complex] = row_starts(n)[0]

    def rung(bits: int) -> list[Fraction]:
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
        # The roots' precision, which is at least the rung's.
        F = d_roots.precision_bits
        # d's roots lie inside |t| < 1/2 by the proof on build_integrand,
        # so they are not classified.  _weights checks the disk radius
        # that the disk lemma of _numerators_at needs too, so it runs
        # first.
        failure = waiting
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


def integrate_exact(ig: Integrand, start_bits: int = START_BITS) -> Fraction:
    """Exact value of the contour integral, via certified rounding.

    The one cell (ig.j, ig.n) through the engine of integrate_row.  The
    returned rational is exact, not approximate.
    """
    cell = (ig.j, denominator_bound(ig).delta)
    return _integrate(ig.n, ig.c, ig.d, [cell], start_bits)[0]


def integrate_row(
    n: int, js: Sequence[int] | None = None, start_bits: int = START_BITS
) -> list[Fraction]:
    """Exact p_j^(n) for each j in js (default every interior cell
    1..n-1), in that order, by the contour route.

    The row's work is done once: c, d and the row part of the bound;
    at each rung, d's roots and their weights
    w(x) = 1/(c(x) d'(x)).  At each root x one pass of the recurrence
    gives r_0(x)..r_n(x) and so b_j(x) = x^(j-1) r_{n-j}(x)^2 for every
    j, and each cell is one weighted sum.

    The bound on b_j, and the disk lemma behind every value on a root
    disk, in the absolute model of the module docstring.
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
    3. The disk lemma.  Let q be any polynomial with a coefficientwise
       majorant Q, |[t^i] q| <= [t^i] Q for every i, and let rho < 1.
       For |y - x| <= rho, Taylor's formula at x gives
       q(y) - q(x) = q'(x) (y - x) + sum over i >= 2 of
       q^(i)(x) (y - x)^i / i!, and |q^(i)(x)| <= Q^(i)(z) since
       derivatives keep the relation.  As rho < 1, the tail is at most
       rho^2 times the Taylor series of Q at z evaluated one unit away,
       whose terms are all non-negative: at most rho^2 Q(z + 1).  So
       |q(y) - q(x)| <= rho |q'(x)| + rho^2 Q(z + 1).  Every q has the
       majorant sum |a_k| t^k (_value_on_disk, for c, d' and a general
       numerator); b_j has B_j by 1 (_numerators_at).  The route uses
       their bounds only on disks that _weights has checked to be of
       radius below 1/2.

    So |computed b_j(x) - b_j(y)| <= e(b_j) + rho (|computed b_j'(x)|
    + e(b_j')) + rho^2 B_j(z + 1), with e the rounding bounds of 2, and
    |computed q(x) - q(y)| <= e(q) + rho (|computed q'(x)| + e(q')) +
    rho^2 Q(z + 1) for every q, with the rounding bound of Horner's rule.
    """
    js, c, d, bounds = _row(n, js)
    cells = [(j, db.delta) for j, db in zip(js, bounds)]
    return _integrate(n, c, d, cells, start_bits)
