"""Generating functions and exact absorption probabilities.

The object of study is the Hadamard walk on sites 0..n with absorbing
barriers at both ends, started at site j in the rightward coin state.
This module provides the polynomial family r_k underlying all closed
forms, the signed path-count generating functions f_j^(n), and three of
the four probability pipelines: the evaluated residue formula (p_exact),
the Q(sqrt 2) closed form (p_closed), and the shared structural pieces
used by the numeric contour route in residue_engine.

Conventions fixed here once and used everywhere:
  * p_0^(n) = 1 and p_n^(n) = 0 (absorption at the left barrier is
    certain when starting on it, impossible when starting on the right
    one); the closed formula itself does not apply at j = 0.
  * f_n^(n) is the zero function.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import ConsistencyError
from .exactq import SQRT2, Polynomial, QuadExt, Rational, RationalFunction

# Fundamental units of the closed form: A = 2 + sqrt2, B = 2 - sqrt2.
A = QuadExt(2, 1)
B = QuadExt(2, -1)

METHODS = ("closed", "residue", "numeric", "simulate")


@dataclass(frozen=True)
class AbsorptionResult:
    """Absorption probabilities for one (j, n) as computed by one method.

    For the exact methods (closed, residue, numeric) the two sides sum
    to exactly 1.  For simulate, p_left and p_right are certified lower
    bounds and may sum to less than 1 by the unabsorbed residual.
    """

    p_left: Rational
    p_right: Rational
    method: str

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not (0 <= self.p_left <= 1 and 0 <= self.p_right <= 1):
            raise ConsistencyError(
                f"probabilities outside [0, 1]: {self.p_left}, {self.p_right}"
            )
        total = self.p_left + self.p_right
        if self.method == "simulate":
            if total > 1:
                raise ConsistencyError(f"lower bounds sum above 1: {total}")
        elif total != 1:
            raise ConsistencyError(
                f"exact method {self.method}: p_left + p_right = {total} != 1"
            )


class RFamily:
    """Append-only cache of the polynomial family r_k in the variable t.

    r_0 = 0, r_1 = 1, r_{k+2} = (1 - 2t) r_{k+1} + t r_k.  The cache
    only ever grows, entries are immutable, and extension happens under
    a lock, so concurrent readers always see a consistent prefix.
    """

    def __init__(self) -> None:
        one = Polynomial.one("t")
        self._cache: list[Polynomial] = [Polynomial.zero("t"), one]
        self._step = Polynomial((1, -2), var="t")  # 1 - 2t
        self._t = Polynomial.variable("t")
        self._lock = threading.Lock()

    def r(self, k: int) -> Polynomial:
        if k < 0:
            raise ValueError(f"r_k needs k >= 0, got {k}")
        if k >= len(self._cache):
            with self._lock:
                while len(self._cache) <= k:
                    nxt = (self._step * self._cache[-1]
                           + self._t * self._cache[-2])
                    self._cache.append(nxt)
        return self._cache[k]

    __getitem__ = r


_FAMILY = RFamily()


def r_poly(k: int) -> Polynomial:
    """The k-th member of the r family, from the shared cache."""
    return _FAMILY.r(k)


def gf_denominator(n: int) -> Polynomial:
    """r_n + 2t r_{n-1}: common denominator (in t) of the row's
    generating functions."""
    two_t = Polynomial((0, 2), var="t")
    return r_poly(n) + two_t * r_poly(n - 1)


def absorption_denominator(n: int) -> Polynomial:
    """r_n - r_{n-1}: its value at t = -1/2 is the denominator scale of
    the row's absorption probabilities, and its roots are the poles
    picked up by the contour route."""
    return r_poly(n) - r_poly(n - 1)


def _validate(j: int, n: int, j_low: int, j_high: int) -> None:
    """The package's one range check for a cell (j, n): n >= 2 and
    j_low <= j <= j_high, the bounds being those of the caller's route."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if not j_low <= j <= j_high:
        raise ValueError(f"start site j={j} outside {j_low}..{j_high} for n={n}")


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
    z_sq = Polynomial.monomial(2, var="z")
    num = r_poly(n - j).compose(z_sq) * Polynomial.monomial(j, var="z")
    if j % 2 == 0:
        num = -num
    den = gf_denominator(n).compose(z_sq)
    return RationalFunction(num, den)


_Z_RF = RationalFunction(Polynomial.variable("z"), Polynomial.one("z"))

# Entries kept by each of the two recurrence caches below: every cell of
# the rows up to 16 (120 cells), so a sweep over rows in order rebuilds
# nothing, while a long process holds a bounded number of functions.
_RECURRENCE_CACHE = 128


@lru_cache(maxsize=_RECURRENCE_CACHE)
def _f1(n: int) -> RationalFunction:
    if n == 2:
        return _Z_RF
    prev = _f1(n - 1)
    return _Z_RF * (1 - 2 * _Z_RF * prev) / (1 - _Z_RF * prev)


@lru_cache(maxsize=_RECURRENCE_CACHE)
def gf_via_recurrence(j: int, n: int) -> RationalFunction:
    """f_j^(n) built purely from the two classical recurrences.

    f_1^(2) = z,
    f_1^(n) = z (1 - 2z f_1^(n-1)) / (1 - z f_1^(n-1)),
    f_j^(n) = f_{j-1}^(n-1) (f_1^(n) - 2z)   for j >= 2.

    Shares no code with gf, which is the point: equality of the two
    constructions is a cross-check of both.
    """
    _validate(j, n, 1, n - 1)
    if j == 1:
        return _f1(n)
    return gf_via_recurrence(j - 1, n - 1) * (_f1(n) - 2 * _Z_RF)


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


def p_exact(j: int, n: int) -> Rational:
    """Left-barrier absorption probability, by the evaluated residue
    formula

        p_j^(n) = (1/2) r_{n-j}(r_j - r_{j-1}) / (r_n - r_{n-1})

    with every polynomial evaluated at t = -1/2.  Only those values are
    needed, so no polynomial is built: the integers s_k = 2^k r_k(-1/2)
    obey s_0 = 0, s_1 = 2, s_{k+2} = 4 s_{k+1} - 2 s_k, and the formula
    becomes s_{n-j} (s_j - 2 s_{j-1}) / (2 (s_n - 2 s_{n-1})).  One
    pass keeps only those five values, so memory is O(n) bits.  Exact
    rational; j = 0 returns the convention value 1.
    """
    _validate(j, n, 0, n)
    if j == 0:
        return Fraction(1)
    wanted = {j - 1, j, n - j, n - 1, n}
    s = {}
    s_k, s_next = 0, 2
    for k in range(n + 1):
        if k in wanted:
            s[k] = s_k
        s_k, s_next = s_next, 4 * s_next - 2 * s_k
    den = 2 * (s[n] - 2 * s[n - 1])
    if den == 0:
        raise ConsistencyError(f"absorption denominator vanished at n={n}")
    p = Fraction(s[n - j] * (s[j] - 2 * s[j - 1]), den)
    if not 0 <= p <= 1:
        raise ConsistencyError(f"p_exact({j}, {n}) = {p} outside [0, 1]")
    return p


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
    if val.radical_part != 0:
        raise ConsistencyError(
            f"closed form left a radical residue at j={j}, n={n}: {val}"
        )
    p = val.rational_part
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
    t_pow = Polynomial.monomial(j - 1, var="t")
    one_plus_2t = Polynomial((1, 2), var="t")
    h = t_pow * one_plus_2t * r_poly(n - j)
    tail = (r_poly(j) - r_poly(j - 1)) * gf_denominator(n)
    h = h + tail if j % 2 == 0 else h - tail
    quot, rem = divmod(h, absorption_denominator(n))
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


def absorption(j: int, n: int, method: str = "residue") -> AbsorptionResult:
    """AbsorptionResult for the two pipelines local to this module.

    The numeric contour method lives in residue_engine and the
    simulator in simulator; the cli composes all four.
    """
    if method == "residue":
        p = p_exact(j, n)
    elif method == "closed":
        p = p_closed(j, n)
    else:
        raise ValueError(f"method {method!r} is not computed by this module")
    return AbsorptionResult(p_left=p, p_right=1 - p, method=method)
