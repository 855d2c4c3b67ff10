"""What every route shares about a cell, and nothing that needs a
polynomial.

A cell is a start site j and a right barrier n.  This module holds the
names of the four pipelines (``METHODS``), the package's one range check
of a cell (``_validate``), the result type that the exact routes and the
simulator's lower bounds share (``AbsorptionResult``), and the correctly
rounded decimal rendering of a rational (``_quotient``, ``significant``)
that the CLI and the verification suite print.  It imports no other
route, so a process that runs one pipeline loads only that pipeline on
top of it: the simulator, in particular, needs neither the exact
polynomial layer nor the generating functions.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from typing import NamedTuple

from .errors import ConsistencyError

METHODS = ("closed", "residue", "numeric", "simulate")


def _validate(j: int, n: int, j_low: int, j_high: int) -> None:
    """The package's one range check for a cell (j, n): n >= 2 and
    j_low <= j <= j_high, the bounds being those of the caller's route."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if not j_low <= j <= j_high:
        raise ValueError(f"start site j={j} outside {j_low}..{j_high} for n={n}")


class _AbsorptionFields(NamedTuple):
    p_left: Fraction
    p_right: Fraction
    method: str


class AbsorptionResult(_AbsorptionFields):
    """Absorption probabilities for one (j, n) as computed by one method.

    For the exact methods (closed, residue, numeric) the two sides sum
    to exactly 1.  For simulate, p_left and p_right are certified lower
    bounds and may sum to less than 1 by the unabsorbed residual.  The
    checks run on every construction, ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> AbsorptionResult:
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, fields) -> AbsorptionResult:
        return cls(*fields)


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
