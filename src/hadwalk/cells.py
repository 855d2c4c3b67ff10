"""What every route shares about a cell, and nothing that needs a
polynomial.

A cell is a start site j and a right barrier n.  This module holds the
names of the four pipelines (``METHODS``), the package's one range check
of a cell (``_validate``) and the correctly rounded decimal rendering of
a rational (``_quotient``, ``significant``) that the CLI and the
verification suite print.  It holds no result type: each route
certifies the value it returns (``p_exact`` and ``p_closed`` refuse one
outside [0, 1], the contour engine refuses a certified cell outside it,
and ``SimulationReport`` checks its bounds), so the CLI prints the
routes' values as they come.  It imports no other route, so a process
that runs one pipeline loads only that pipeline on top of it: the
simulator, in particular, needs neither the exact polynomial layer nor
the generating functions.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

METHODS = ("closed", "residue", "numeric", "simulate")


def _validate(j: int, n: int, j_low: int, j_high: int) -> None:
    """The package's one range check for a cell (j, n): n >= 2 and
    j_low <= j <= j_high, the bounds being those of the caller's route."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if not j_low <= j <= j_high:
        raise ValueError(f"start site j={j} outside {j_low}..{j_high} for n={n}")


def _quotient(x: Fraction, ctx: decimal.Context) -> decimal.Decimal:
    """x rounded by ctx (correctly, in its rounding mode)."""
    return ctx.divide(decimal.Decimal(x.numerator),
                      decimal.Decimal(x.denominator))


def significant(x: Fraction, k: int) -> str:
    """x rounded half up to k >= 1 significant digits, laid out as
    mpmath.nstr(x, k) lays it out: fixed point while the leading digit's
    exponent e satisfies min(-(k // 3), -5) < e < k, else d.ddde±N;
    trailing zeros cut but ".0" kept, and 0 prints as "0.0"."""
    if x == 0:
        return "0.0"
    ctx = decimal.Context(prec=k, rounding=decimal.ROUND_HALF_UP)
    d = _quotient(abs(x), ctx)
    e = d.adjusted()
    digits = "".join(map(str, d.as_tuple().digits)).rstrip("0")
    sign = "-" if x < 0 else ""
    if not min(-(k // 3), -5) < e < k:
        return f"{sign}{digits[0]}.{digits[1:] or '0'}e{e:+d}"
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{digits}"
    whole = digits[:e + 1].ljust(e + 1, "0")
    return f"{sign}{whole}.{digits[e + 1:] or '0'}"
