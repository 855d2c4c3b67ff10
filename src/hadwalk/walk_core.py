"""Generating functions and exact absorption probabilities.

The object of study is the Hadamard walk on sites 0..n with absorbing
barriers at both ends, started at site j in the rightward coin state.
This module provides the polynomial family r_k underlying all closed
forms, the signed path-count generating functions f_j^(n), and the
Q(sqrt 2) closed form (p_closed).  The integer side of the family, the
row's two factors and the evaluated residue formula live in rfamily,
which the residue and contour routes load without this module; they are
re-exported here (p_exact, gf_denominator, absorption_denominator).

Conventions fixed here once and used everywhere:
  * p_0^(n) = 1 and p_n^(n) = 0 (absorption at the left barrier is
    certain when starting on it, impossible when starting on the right
    one); the closed formula itself does not apply at j = 0.
  * f_n^(n) is the zero function.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .cells import _validate
from .errors import ConsistencyError
from .exactq import SQRT2, Polynomial, QuadExt, Rational, RationalFunction
# Re-exported: the same objects as in rfamily.
from .rfamily import absorption_denominator, gf_denominator  # noqa: F401
from .rfamily import outside_factor, p_exact, r_coefficients

# Fundamental units of the closed form: A = 2 + sqrt2, B = 2 - sqrt2.
A = QuadExt(2, 1)
B = QuadExt(2, -1)

class RFamily:
    """The polynomial family r_k in the variable t:

        r_0 = 0, r_1 = 1, r_{k+2} = (1 - 2t) r_{k+1} + t r_k.

    r_k has degree k - 1, r_k(0) = 1 for k >= 1, and leading
    coefficient (-2)^(k-1).  Nothing is cached: each call runs the
    recurrence once, keeping two members.

    Lemma: for k >= 2 the k - 1 roots of r_k are simple and lie on
    |t| = 1/2 (r_k is the Chebyshev U_(k-1) in disguise; Mason and
    Handscomb, Chebyshev Polynomials, 2003).  Proof:

    1. Let l1, l2 be the roots of l^2 - (1 - 2t) l - t, so l1 + l2 =
       1 - 2t and l1 l2 = -t.  Where l1 != l2, r_k = (l1^k - l2^k) /
       (l1 - l2) (both sides obey the recurrence from r_0, r_1).  Where
       l1 = l2, that is 1 + 4t^2 = 0, r_k = k l1^(k-1) with
       l1 = (1 - 2t)/2 != 0, so such t is no root.  Since r_k(0) = 1,
       a root has t != 0, so l1 l2 != 0.
    2. So r_k(t) = 0 exactly when rho = l1/l2 is a k-th root of unity
       other than 1, rho = e^(2 pi i m/k) with 1 <= m <= k - 1.  Then
       (l1 + l2)^2 / (l1 l2) = rho + 2 + 1/rho = 4 cos^2(pi m/k), that
       is (1 - 2t)^2 = -4t cos^2(pi m/k), or
       4t^2 - 4 sin^2(pi m/k) t + 1 = 0.  Conversely a root t of that
       quadratic has t != 0 and rho + 1/rho = 2 cos(2 pi m/k), so rho
       is e^(2 pi i m/k) or its inverse; rho != 1 gives l1 != l2, and
       l1^k = l2^k gives r_k(t) = 0.
    3. The quadratic has real coefficients, discriminant
       16 (sin^4 - 1) <= 0 and root product 1/4: its roots are a
       conjugate pair on |t| = 1/2, or t = 1/2 twice when m = k/2.
       Their real part sin^2(pi m/k)/2 is distinct for distinct
       m <= k/2, and m and k - m give the same quadratic.  So
       m = 1..floor(k/2) give k - 1 distinct roots of r_k, all on
       |t| = 1/2; deg r_k = k - 1, so they are all its roots and each
       is simple.

    On |t| = 1/2, 1/(4t) is the conjugate of t, so the real r_k is
    self-inversive: with d = k - 1 its coefficients obey
    a_(d-i) = (-1)^d 2^(d-2i) a_i, which is (4t)^d r_k(1/(4t)) =
    (-2)^d r_k(t), step 2 of the proof for d on
    residue_engine.build_integrand.

    What gf takes from the lemma: z^j r_(n-j)(z^2) and c(z^2), with
    c = r_n + 2t r_(n-1), are coprime.  c(0) = 1, so z does not divide
    c(z^2); a common root w != 0 would make w^2 a root of both
    r_(n-j), on |t| = 1/2, and c, whose roots lie in |t| > 1/2 (proof
    for c on residue_engine.build_integrand).  So gf's pair is in
    lowest terms with no gcd.
    """

    # Stateless class, not a function: the benchmark traces RFamily.r by name.
    def r(self, *ks: int) -> tuple[Polynomial, ...]:
        """(r_k for k in ks), in the order asked, from one pass of the
        recurrence on int coefficient lists (rfamily.r_coefficients)."""
        return tuple(Polynomial(r, var="t") for r in r_coefficients(*ks))


def r_poly(k: int) -> Polynomial:
    """The k-th member of the r family."""
    return RFamily().r(k)[0]


def gf(j: int, n: int) -> RationalFunction:
    """Signed path-count generating function f_j^(n), canonical in z.

    f_j^(n)(z) = Σ_m (signed count of length-m first-exit paths to the
    left barrier) z^m.  Built from the closed form
        (-1)^(j-1) z^j r_{n-j}(z^2) / (r_n(z^2) + 2 z^2 r_{n-1}(z^2)).
    The alternating factor makes the series match the path sign
    convention (each LL block contributes -1); without it the even-j
    rows would come out negated, as the recurrence construction and the
    enumeration oracle both confirm.
    """
    _validate(j, n, 1, n)
    if j == n:
        return RationalFunction.zero("z")
    sign = 1 if j % 2 else -1
    r_top, r_n, r_m = r_coefficients(n - j, n, n - 1)
    # Coprime by the lemma on RFamily, so no gcd is taken.
    return RationalFunction.from_coprime(
        _in_z_squared(r_top, j, sign),
        _in_z_squared(outside_factor(r_n, r_m), 0, 1))


def _in_z_squared(coeffs: Sequence[int], shift: int, sign: int) -> Polynomial:
    """sign z^shift p(z^2) for p with the given coefficients in t, low
    degree first: the coefficient of t^k becomes that of z^(2k + shift)."""
    out = [0] * (shift + 2 * len(coeffs))
    out[shift::2] = [sign * a for a in coeffs]
    return Polynomial(out, var="z")


_Z = Polynomial((0, 1), var="z")

# Entries kept by each of the two recurrence caches below: every cell of
# the rows up to 16 (120 cells), so a sweep over rows in order rebuilds
# nothing, while a long process holds a bounded number of functions.
_RECURRENCE_CACHE = 128


@lru_cache(maxsize=_RECURRENCE_CACHE)
def _f1(n: int) -> RationalFunction:
    if n == 2:
        return RationalFunction(_Z, Polynomial.one("z"))
    prev = _f1(n - 1)
    p, q = prev.num, prev.den
    # z (1 - 2z p/q) / (1 - z p/q) with q cleared from both parts.
    return RationalFunction(_Z * (q - 2 * _Z * p), q - _Z * p)


@lru_cache(maxsize=_RECURRENCE_CACHE)
def gf_via_recurrence(j: int, n: int) -> RationalFunction:
    """f_j^(n) built purely from the two classical recurrences.

    f_1^(2) = z,
    f_1^(n) = z (1 - 2z f_1^(n-1)) / (1 - z f_1^(n-1)),
    f_j^(n) = f_{j-1}^(n-1) (f_1^(n) - 2z)   for j >= 2.

    Each cell is one numerator and denominator pair, multiplied out from
    the cached previous entries, and one gcd reduces it to canonical
    form.  Shares no code with gf, which is the point: equality of the
    two constructions is a cross-check of both.
    """
    _validate(j, n, 1, n - 1)
    if j == 1:
        return _f1(n)
    prev, f1 = gf_via_recurrence(j - 1, n - 1), _f1(n)
    return RationalFunction(prev.num * (f1.num - 2 * _Z * f1.den),
                            prev.den * f1.den)


def gf_coefficients(j: int, n: int, m_max: int) -> list[int]:
    """Signed path counts c_1 .. c_{m_max} for absorption at the left
    barrier: the power-series coefficients of f_j^(n).

    The coefficients are provably integers (the canonical denominator
    has constant term +-1); a non-integer would mean a broken
    expansion, not a rounding question, so it raises.
    """
    _validate(j, n, 1, n - 1)
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    series = gf(j, n).series_coefficients(m_max)
    if series[0] != 0:
        raise ConsistencyError("generating function has a constant term")
    out: list[int] = []
    for m, c in enumerate(series[1:], start=1):
        if c.denominator != 1:
            raise ConsistencyError(
                f"non-integer path count {c} at length {m} for j={j}, n={n}"
            )
        out.append(int(c))
    return out


def p_closed(j: int, n: int) -> Rational:
    """Left-barrier absorption probability by the closed form

        p_j^(n) = (sqrt2 / 4) (A^(n-j) - B^(n-j)) (A^(j-1) + B^(j-1))
                  / (A^(n-1) + B^(n-1)),

    A = 2 + sqrt2, B = 2 - sqrt2, computed in Q(sqrt 2).  The radical
    part must cancel exactly; the rational part is the answer.  Not
    defined at j = 0 (use p_exact, which hard-codes that convention).
    """
    _validate(j, n, 1, n)
    val = (SQRT2 * Fraction(1, 4)
           * (A ** (n - j) - B ** (n - j))
           * (A ** (j - 1) + B ** (j - 1))
           / (A ** (n - 1) + B ** (n - 1)))
    if val.b != 0:
        raise ConsistencyError(
            f"closed form left a radical residue at j={j}, n={n}: {val}"
        )
    # An integral part is stored as an int (0 at j = n).
    p = Fraction(val.a)
    if not 0 <= p <= 1:
        raise ConsistencyError(f"p_closed({j}, {n}) = {p} outside [0, 1]")
    return p


def h_quotient(j: int, n: int) -> Polynomial:
    """Exact quotient H_j / (r_n - r_{n-1}) where

        H_j = t^(j-1)(1 + 2t) r_{n-j} + (-1)^j (r_j - r_{j-1})(r_n + 2t r_{n-1}).

    The division leaves no remainder and the quotient does not depend
    on n, only on j; both facts are enforced here (the first) and by
    the property suite (the second).
    """
    _validate(j, n, 1, n)
    ks = (n - j, j, j - 1, n, n - 1)
    return _h_quotient(j, n, dict(zip(ks, RFamily().r(*ks))))


def _h_quotient(j: int, n: int, r) -> Polynomial:
    """h_quotient(j, n) with r_k read from r[k], so that one pass of the
    r family serves many cells."""
    h = Polynomial([0] * (j - 1) + [1, 2], var="t") * r[n - j]  # t^(j-1)(1 + 2t)
    tail = (r[j] - r[j - 1]) * (r[n] + Polynomial((0, 2), var="t") * r[n - 1])
    h = h + tail if j % 2 == 0 else h - tail
    quot, rem = divmod(h, r[n] - r[n - 1])
    if not rem.is_zero:
        raise ConsistencyError(
            f"H_{j} not divisible by r_{n} - r_{n - 1}; remainder {rem}"
        )
    return quot


def row_table(n: int) -> list[Rational]:
    """[p_1^(n), ..., p_{n-1}^(n)] by p_exact, each entry cross-checked
    against p_closed.  Disagreement raises instead of returning."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    row: list[Rational] = []
    for j in range(1, n):
        pe = p_exact(j, n)
        pc = p_closed(j, n)
        if pe != pc:
            raise ConsistencyError(
                f"method disagreement at j={j}, n={n}: {pe} vs {pc}"
            )
        row.append(pe)
    return row


def row_common_denominator(n: int) -> tuple[int, list[int]]:
    """(L, numerators) presenting row n over one shared denominator L,
    the LCM of the reduced denominators.  Matches the unreduced
    presentation style of the reference table (e.g. 4/10 in row 4)."""
    row = row_table(n)
    shared = lcm(*(p.denominator for p in row))
    return shared, [int(p * shared) for p in row]


def watrous_step(p: Rational) -> Rational:
    """One step of the first-column recurrence
    p_1^(n) = (1 + 2 p_1^(n-1)) / (2 + 2 p_1^(n-1))."""
    return (1 + 2 * p) / (2 + 2 * p)

