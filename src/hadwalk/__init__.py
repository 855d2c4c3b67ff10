"""Exact absorption probabilities for the two-barrier Hadamard walk.

Four independent pipelines compute the left-barrier absorption
probability p_j^(n) of the Hadamard walk started at site j between
absorbing barriers at 0 and n:

  * ``p_closed``       -- closed form in the quadratic field Q(sqrt 2);
  * ``p_exact``        -- the residue formula evaluated at t = -1/2;
  * ``integrate_exact``-- certified numeric contour integration rounded
                          to a provably exact rational;
  * ``simulate``       -- step-by-step amplitude evolution in exact
                          dyadic arithmetic, yielding certified bounds.

Everything downstream of the integer walk rules is exact rational or
Q(sqrt 2) arithmetic; floating point appears only inside the certified
root-finding layer and never reaches a returned probability.
"""

from .errors import (
    ConsistencyError,
    DegenerateIntegrandError,
    PrecisionError,
    StepBudgetExceeded,
)
from .exactq import (
    Polynomial,
    QuadExt,
    Rational,
    RationalFunction,
    SQRT2,
    poly_discriminant,
    poly_gcd,
    poly_resultant,
)
from .residue_engine import (
    DenominatorBound,
    Integrand,
    RootSet,
    build_integrand,
    classify_roots,
    denominator_bound,
    denominator_bounds,
    find_roots,
    integrate_exact,
    integrate_row,
    residue_sum,
)
from .simulator import (
    AmplitudeState,
    SimulationReport,
    enumerate_paths,
    enumerate_paths_right,
    initial_state,
    simulate,
    step,
)
from .verification import CheckResult, SUITES, run_suite
from .walk_core import (
    A,
    B,
    AbsorptionResult,
    METHODS,
    absorption,
    absorption_denominator,
    gf,
    gf_coefficients,
    gf_denominator,
    gf_via_recurrence,
    h_quotient,
    p_closed,
    p_exact,
    r_poly,
    row_common_denominator,
    row_table,
    watrous_step,
)

__version__ = "0.1.0"

__all__ = [
    "A",
    "AbsorptionResult",
    "AmplitudeState",
    "B",
    "CheckResult",
    "ConsistencyError",
    "DegenerateIntegrandError",
    "DenominatorBound",
    "Integrand",
    "METHODS",
    "Polynomial",
    "PrecisionError",
    "QuadExt",
    "Rational",
    "RationalFunction",
    "RootSet",
    "SQRT2",
    "SUITES",
    "SimulationReport",
    "StepBudgetExceeded",
    "absorption",
    "absorption_denominator",
    "build_integrand",
    "classify_roots",
    "denominator_bound",
    "denominator_bounds",
    "enumerate_paths",
    "enumerate_paths_right",
    "find_roots",
    "gf",
    "gf_coefficients",
    "gf_denominator",
    "gf_via_recurrence",
    "h_quotient",
    "initial_state",
    "integrate_exact",
    "integrate_row",
    "p_closed",
    "p_exact",
    "poly_discriminant",
    "poly_gcd",
    "poly_resultant",
    "r_poly",
    "residue_sum",
    "row_common_denominator",
    "row_table",
    "run_suite",
    "simulate",
    "step",
    "watrous_step",
    "__version__",
]
