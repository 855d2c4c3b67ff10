"""Exceptions shared across the package.

Each public exception has one CLI exit code, on a single
"error: <category>: <reason>" line: ConsistencyError exits 1,
PrecisionError and StepBudgetExceeded exit 3.  PrecisionEscalation is
internal and never leaves the package.
"""

from __future__ import annotations


class ConsistencyError(Exception):
    """Two routes that must agree exactly produced different values.

    Raised when an internal cross-check fails, e.g. a closed form whose
    radical part should cancel does not, or an exact division leaves a
    remainder.  This always indicates a bug, never a tolerance issue.
    """


# The contour route's precision ladder starts at START_BITS and doubles up
# to MAX_BITS.  The two live beside the error that ends the ladder, so the
# CLI checks --precision-bits without importing the route.
START_BITS = 128
MAX_BITS = 8192


class PrecisionError(Exception):
    """A certified numeric computation could not reach its target even at
    the maximum allowed working precision."""


class PrecisionEscalation(Exception):
    """Internal signal: the current working precision is insufficient.

    The precision ladder of residue_engine catches this and retries at
    double the precision; past the ceiling it becomes
    :class:`PrecisionError`, so no pipeline lets it escape.
    """


class StepBudgetExceeded(Exception):
    """A simulation hit its step budget before reaching the requested
    residual mass.  Carries the partial report in ``report``."""

    def __init__(self, message: str, report: object) -> None:
        super().__init__(message)
        self.report = report

    def __reduce__(self):
        # args holds the message alone, so the default reduction would
        # rebuild the exception without its report (pickle, copy).
        return type(self), (str(self), self.report)
