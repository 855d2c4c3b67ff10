"""Exact absorption probabilities for the two-barrier Hadamard walk.

Four independent pipelines compute the left-barrier absorption
probability p_j^(n) of the Hadamard walk started at site j between
absorbing barriers at 0 and n:

  * ``p_closed``       -- closed form in the quadratic field Q(sqrt 2);
  * ``p_exact``        -- the residue formula evaluated at t = -1/2;
  * ``integrate_exact``-- certified numeric contour integration rounded
                          to a provably exact rational;
  * ``simulate``       -- step-by-step amplitude evolution in fixed
                          point with a proven error bound, yielding
                          certified lower bounds and a residual.

Everything downstream of the integer walk rules is exact rational or
Q(sqrt 2) arithmetic, except in two certified layers.  The contour layer
starts root finding from points in doubles, then computes in Gaussian
fixed point, and the simulator in real fixed point; both carry integer
error bounds, and neither lets an approximation reach a returned value:
the contour value is rounded to a provably exact rational, and the
simulator's bounds are exact rationals widened by its error bound.
"""

import importlib

# Each public name and the submodule that defines it.  A name is imported
# on first access (PEP 562), so ``import hadwalk`` loads no pipeline.
_SOURCES = {
    "cells": ("METHODS",),
    "errors": (
        "ConsistencyError",
        "PrecisionError",
        "StepBudgetExceeded",
    ),
    "exactq": (
        "Polynomial",
        "QuadExt",
        "Rational",
        "RationalFunction",
        "SQRT2",
        "poly_discriminant",
        "poly_resultant",
    ),
    "residue_engine": (
        "DenominatorBound",
        "Integrand",
        "RootSet",
        "build_integrand",
        "denominator_bound",
        "denominator_bounds",
        "find_roots",
        "integrate_exact",
        "integrate_row",
        "row_starts",
    ),
    "rfamily": ("absorption_denominator", "gf_denominator", "p_exact"),
    "simulator": (
        "AmplitudeState",
        "SimulationReport",
        "enumerate_paths",
        "enumerate_paths_right",
        "initial_state",
        "simulate",
        "step",
    ),
    "verification": ("CheckResult", "SUITES", "run_suite"),
    "walk_core": (
        "A",
        "B",
        "gf",
        "gf_coefficients",
        "gf_via_recurrence",
        "h_quotient",
        "p_closed",
        "r_poly",
        "row_common_denominator",
        "row_table",
        "watrous_step",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "0.1.0"

__all__ = [*sorted(_MODULE_OF), "__version__"]
