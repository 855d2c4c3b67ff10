"""Exact oracle for the benchmark's answer checks.

Independent of the package under test: it imports nothing from
``hadwalk``.  It evaluates the residue formula

    p_j^(n) = (1/2) r_{n-j} (r_j - r_{j-1}) / (r_n - r_{n-1})   at t = -1/2

through the scalar integer recurrence s_k = 2^k r_k(-1/2),

    s_0 = 0,  s_1 = 2,  s_{k+2} = 4 s_{k+1} - 2 s_k,

so that p_j^(n) = s_{n-j} (s_j - 2 s_{j-1}) / (2 (s_n - 2 s_{n-1})).
"""

from __future__ import annotations

from fractions import Fraction

# Reduced p_1^(n) for n = 2..9, as published in the reference table.
REFERENCE_FIRST_COLUMN = (
    Fraction(1, 2), Fraction(2, 3), Fraction(7, 10), Fraction(12, 17),
    Fraction(41, 58), Fraction(70, 99), Fraction(239, 338), Fraction(408, 577),
)

DECIMAL_DIGITS = 30


class Oracle:
    """p_j^(n) for every 0 <= j <= n <= n_max, from one table of s_k."""

    def __init__(self, n_max: int) -> None:
        s = [0, 2]
        while len(s) <= n_max:
            s.append(4 * s[-1] - 2 * s[-2])
        self._s = s

    def p(self, j: int, n: int) -> Fraction:
        if j == 0:
            return Fraction(1)
        s = self._s
        return Fraction(s[n - j] * (s[j] - 2 * s[j - 1]), 2 * (s[n] - 2 * s[n - 1]))


def self_test() -> None:
    """Raise unless the oracle reproduces the reference first column and
    the boundary conventions p_0 = 1, p_n = 0."""
    oracle = Oracle(9)
    got = tuple(oracle.p(1, n) for n in range(2, 10))
    if got != REFERENCE_FIRST_COLUMN:
        raise AssertionError(f"oracle first column {got}")
    if oracle.p(0, 9) != 1 or oracle.p(9, 9) != 0:
        raise AssertionError("oracle boundary conventions")


def pair(x: Fraction) -> dict:
    """The CLI's JSON encoding of a rational."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def decimal_error(text: str, x: Fraction) -> str | None:
    """None if ``text`` is x correctly rounded to 30 significant digits,
    else a short reason.  Checks the digit count and that the decimal
    lies within half a unit in the last place of x."""
    if x == 0:
        return None if text == "0" else f"decimal {text!r} for 0"
    digits = text.lstrip("-").replace(".", "").lstrip("0")
    if len(digits) != DECIMAL_DIGITS:
        return f"decimal {text!r} has {len(digits)} significant digits"
    value = Fraction(text)
    # Exponent of the leading digit of |x|.
    lead = len(str(abs(x.numerator) // abs(x.denominator))) - 1
    if abs(x) < 1:
        lead = -1
        while abs(x) * Fraction(10) ** (-lead) < 1:
            lead -= 1
    half_ulp = Fraction(10) ** (lead - DECIMAL_DIGITS + 1) / 2
    if abs(value - x) > half_ulp:
        return f"decimal {text!r} is not {x} rounded"
    return None
