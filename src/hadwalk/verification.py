"""Named self-checks over every identity the package claims.

Each check covers one identity or cross-method equivalence, runs it over
an explicit range, and reports a single pass/fail result naming the
first violation if there is one.  Checks are grouped into suites; the
command-line `verify` subcommand runs a suite and turns any failure
into exit code 1.

All comparisons are exact (Fraction or Q(sqrt 2)) except the pole
classification, which relies on the certified root disks of
residue_engine, and the two limit checks, which compare against
sqrt 2 / 2 and sqrt 2 / 4 exactly in Q(sqrt 2) rather than through
floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .cells import significant
from .errors import PrecisionError
from .exactq import Polynomial, QuadExt, Rational, poly_gcd
from .residue_engine import (
    denominator_bounds,
    integrate_row,
    require_row,
    row_poles,
)
from .simulator import enumerate_paths, initial_state, simulate_row, step
from .walk_core import (
    RFamily,
    _h_quotient,
    absorption_denominator,
    gf,
    gf_coefficients,
    gf_via_recurrence,
    p_closed,
    p_exact,
    watrous_step,
)

F = Fraction

# Reduced p_1 numerators for n = 2..9; the rows of the reference table
# share the matching denominators 2, 3, 10, 17, 58, 99, 338, 577.
FIRST_COLUMN_NUMERATORS = (1, 2, 7, 12, 41, 70, 239, 408)

SQRT2_OVER_2 = QuadExt(0, F(1, 2))
SQRT2_OVER_4 = QuadExt(0, F(1, 4))
RHO = QuadExt(3, -2)  # 3 - 2 sqrt2, the per-step convergence ratio


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _ok(name: str, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=True, detail=detail)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=False, detail=detail)


# ------------------------------------------------------------- identities


def check_watrous_recurrence(n_max: int) -> CheckResult:
    """p_1^(n) = (1 + 2 p_1^(n-1)) / (2 + 2 p_1^(n-1)) for 3 <= n <= n_max."""
    name = "watrous-recurrence"
    for n in range(3, n_max + 1):
        if p_exact(1, n) != watrous_step(p_exact(1, n - 1)):
            return _fail(name, f"first-column recurrence broken at n={n}")
    return _ok(name, f"n = 3..{n_max}")


def check_row_recurrence(n_max: int) -> CheckResult:
    """p_j - 7 p_{j+1} + 7 p_{j+2} - p_{j+3} = 0 along every row,
    including the p_n = 0 convention cell."""
    name = "row-recurrence"
    cells = 0
    for n in range(4, n_max + 1):
        for j in range(1, n - 2):
            combo = (p_exact(j, n) - 7 * p_exact(j + 1, n)
                     + 7 * p_exact(j + 2, n) - p_exact(j + 3, n))
            cells += 1
            if combo != 0:
                return _fail(name, f"row recurrence broken at j={j}, n={n}")
    return _ok(name, f"n = 4..{n_max}, {cells} windows")


def check_outer_pair_sum(n_max: int) -> CheckResult:
    """p_1^(n) + p_{n-1}^(n) = 1."""
    name = "outer-pair-sum"
    for n in range(2, n_max + 1):
        if p_exact(1, n) + p_exact(n - 1, n) != 1:
            return _fail(name, f"outer pair does not sum to 1 at n={n}")
    return _ok(name, f"n = 2..{n_max}")


def check_first_two_entries(n_max: int) -> CheckResult:
    """2 p_1^(n) = p_2^(n) + 1 (with the p_2^(2) = 0 convention)."""
    name = "first-two-entries"
    for n in range(2, n_max + 1):
        if 2 * p_exact(1, n) != p_exact(2, n) + 1:
            return _fail(name, f"first/second relation broken at n={n}")
    return _ok(name, f"n = 2..{n_max}")


def check_boundary_conventions(n_max: int) -> CheckResult:
    """p_0^(n) = 1 and p_n^(n) = 0."""
    name = "boundary-conventions"
    for n in range(2, n_max + 1):
        if p_exact(0, n) != 1:
            return _fail(name, f"p_0 != 1 at n={n}")
        if p_exact(n, n) != 0:
            return _fail(name, f"p_n != 0 at n={n}")
    return _ok(name, f"n = 2..{n_max}")


def check_convergence_sandwich(n_max: int) -> CheckResult:
    """(sqrt2/2) rho^(n-1) < sqrt2/2 - p_1^(n) < sqrt2 rho^(n-1) with
    rho = 3 - 2 sqrt2, compared exactly in Q(sqrt 2)."""
    name = "convergence-sandwich"
    for n in range(2, n_max + 1):
        gap = SQRT2_OVER_2 - p_exact(1, n)
        power = RHO ** (n - 1)
        if not SQRT2_OVER_2 * power < gap < 2 * SQRT2_OVER_2 * power:
            return _fail(name, f"sandwich violated at n={n}")
    return _ok(name, f"n = 2..{n_max}")


# ------------------------------------------------------- method agreement


def check_method_agreement(n_max: int) -> CheckResult:
    """Closed form, evaluated residue formula, and certified contour
    integration agree exactly on every interior cell."""
    name = "method-agreement"
    cells = 0
    for n in range(2, n_max + 1):
        for j, contour in enumerate(integrate_row(n), start=1):
            pe = p_exact(j, n)
            if p_closed(j, n) != pe:
                return _fail(name, f"closed form differs at j={j}, n={n}")
            if contour != pe:
                return _fail(name, f"contour value differs at j={j}, n={n}")
            cells += 1
    return _ok(name, f"n = 2..{n_max}, {cells} cells, three methods")


# ----------------------------------------------------------------- oracles


def check_series_vs_paths(n_max: int) -> CheckResult:
    """Series coefficients of f_j^(n) equal signed path tallies from the
    explicit walk, for n <= 6 and lengths up to 16 (exhaustive
    enumeration caps the range)."""
    name = "series-vs-paths"
    hi = min(n_max, 6)
    m_max = 16
    for n in range(2, hi + 1):
        for j in range(1, n):
            if gf_coefficients(j, n, m_max) != list(
                enumerate_paths(j, n, m_max).counts
            ):
                return _fail(name, f"series vs path tally differ at j={j}, n={n}")
    return _ok(name, f"n = 2..{hi}, lengths <= {m_max}")


def check_recurrence_built_gf(n_max: int) -> CheckResult:
    """The closed-form generating functions equal the ones rebuilt from
    the two-step recurrence system (range capped at 12 for cost: on a
    2-vCPU machine rows 2..12 take about 0.025 s, rows 13 and 14 would
    add about 0.016 s)."""
    name = "recurrence-built-gf"
    hi = min(n_max, 12)
    for n in range(2, hi + 1):
        for j in range(1, n):
            if gf(j, n) != gf_via_recurrence(j, n):
                return _fail(name, f"recurrence mismatch at j={j}, n={n}")
    return _ok(name, f"n = 2..{hi}")


def check_absorbed_mass_series(n_max: int) -> CheckResult:
    """Left-absorbed mass after m steps equals sum over k <= m of
    c_k^2 2^(-k) for the series coefficients c_k."""
    name = "absorbed-mass-series"
    hi = min(n_max, 6)
    m_max = 12
    for n in range(2, hi + 1):
        for j in range(1, n):
            coeffs = gf_coefficients(j, n, m_max)
            state = initial_state(j, n)
            for _ in range(m_max):
                state = step(state, n)
            expect = sum(
                F(c * c, 2 ** k) for k, c in enumerate(coeffs, start=1)
            )
            if state.absorbed_left != expect:
                return _fail(name, f"absorbed mass mismatch at j={j}, n={n}")
    return _ok(name, f"n = 2..{hi}, {m_max} steps")


# Largest row the bracketing check simulates.  The cap is for cost: at
# 1e-10 on a 2-vCPU machine rows 2..12 take about 36 ms in all (one run
# of the transposed walk a row, 5,723 steps), while rows 13 and 14 would
# add about 36 ms more, since a row's run takes about n^3 steps of O(n)
# work each.
SIMULATOR_BRACKETING_MAX_N = 12


def check_simulator_bracketing(n_max: int, tail_eps: Rational) -> CheckResult:
    """simulate_row() returns, for every cell of the rows up to
    SIMULATOR_BRACKETING_MAX_N, lower bounds that bracket the exact
    value within the requested tail: one run of the transposed walk
    serves each row."""
    name = "simulator-bracketing"
    hi = min(n_max, SIMULATOR_BRACKETING_MAX_N)
    for n in range(2, hi + 1):
        for j, rep in enumerate(simulate_row(n, tail_eps), start=1):
            p = p_exact(j, n)
            if not rep.p_left_lower <= p <= rep.p_left_lower + rep.residual:
                return _fail(name, f"bracket misses exact value at j={j}, n={n}")
            if rep.residual > tail_eps:
                return _fail(name, f"tail above eps at j={j}, n={n}")
    return _ok(name, f"n = 2..{hi}, tail <= {tail_eps}")


# ------------------------------------------------------------------ limits


# sqrt 2 to 200 bits: float() would cancel catastrophically for tiny
# a + b sqrt2 gaps.
_SQRT2_200 = Fraction(math.isqrt(2 << 400), 1 << 200)


def _approx(q: QuadExt) -> str:
    return significant(q.a + q.b * _SQRT2_200, 4)


def check_first_column_limit(n_max: int) -> CheckResult:
    """|p_1^(40) - sqrt2/2| < 10^-20, compared exactly in Q(sqrt 2)."""
    name = "first-column-limit"
    gap = abs(QuadExt(p_exact(1, 40)) - SQRT2_OVER_2)
    if not gap < F(1, 10 ** 20):
        return _fail(name, f"first-column gap {_approx(gap)} at n=40")
    return _ok(name, f"gap {_approx(gap)} < 1e-20 at n=40")


def check_center_column_limit(n_max: int) -> CheckResult:
    """|p_20^(40) - sqrt2/4| < 10^-8, compared exactly in Q(sqrt 2)."""
    name = "center-column-limit"
    gap = abs(QuadExt(p_exact(20, 40)) - SQRT2_OVER_4)
    if not gap < F(1, 10 ** 8):
        return _fail(name, f"center gap {_approx(gap)} at n=40")
    return _ok(name, f"gap {_approx(gap)} < 1e-8 at n=40")


# --------------------------------------------------------------- structure


def check_pole_classification(n_max: int) -> CheckResult:
    """Certified disks put every root of r_n - r_{n-1} strictly inside
    |t| = 1/2 and every root of r_n + 2t r_{n-1} strictly outside.

    The contour route proves the second fact (build_integrand) and never
    finds c's roots, so this check is its independent run-time witness,
    on every row that verify runs."""
    name = "pole-classification"
    for n in range(2, n_max + 1):
        try:
            (_, (_, inside, outside)), (_, c_poles) = row_poles(n)
        except PrecisionError as exc:
            return _fail(name, f"certification failed at n={n}: {exc}")
        if len(inside) != n - 1 or outside:
            return _fail(name, f"inside factor misplaced root at n={n}")
        # c is the constant 1 at n = 2, with no roots to place.
        _, inside, outside = c_poles or (None, (), ())
        if inside or len(outside) != n - 2:
            return _fail(name, f"outside factor misplaced root at n={n}")
    return _ok(name, f"n = 2..{n_max}, certified disks")


def check_quotient_structure(n_max: int) -> CheckResult:
    """The combination t^(j-1)(1+2t) r_{n-j} +- (r_j - r_{j-1})(r_n + 2t r_{n-1})
    is divisible by r_n - r_{n-1}, and the quotient depends only on j."""
    name = "quotient-structure"
    r = RFamily().r(*range(n_max + 1))
    for j in range(1, min(n_max, 11)):
        baseline = _h_quotient(j, j + 1, r)
        for n in range(j + 2, n_max + 1):
            if _h_quotient(j, n, r) != baseline:
                return _fail(name, f"quotient depends on n at j={j}, n={n}")
    return _ok(name, f"j = 1..{min(n_max, 11) - 1}, n <= {n_max}")


def check_squarefree_denominators(n_max: int) -> CheckResult:
    """gcd(d, d') is a constant for d = r_n - r_{n-1}, exactly: the
    independent reference for the squarefreeness that the contour
    route's root certificate proves on each row it runs.

    poly_gcd runs the primitive remainder sequence over Z on d's integer
    coefficients, with no root and no float.  By Gauss's lemma the gcd
    of two primitive polynomials in Z[t] is their gcd in Q[t] up to a
    unit, and a gcd over Q is one over C, so it has positive degree
    exactly when d has a repeated root, that is when disc(d) = 0."""
    name = "squarefree-denominators"
    for n in range(2, n_max + 1):
        d = Polynomial(absorption_denominator(n), var="t")
        if poly_gcd(d, d.derivative()).degree > 0:
            return _fail(name, f"repeated pole at n={n}")
    return _ok(name, f"n = 2..{n_max}")


def check_denominator_bound_integrality(n_max: int) -> CheckResult:
    """delta * p is an integer for every interior cell; the detail sets
    the largest delta against the largest true denominator."""
    name = "denominator-bound-integrality"
    delta_bits = den_bits = 0
    for n in range(2, n_max + 1):
        for j, db in enumerate(denominator_bounds(n), start=1):
            delta = db.delta
            p = p_exact(j, n)
            if (delta * p).denominator != 1:
                return _fail(name, f"delta misses denominator at j={j}, n={n}")
            delta_bits = max(delta_bits, delta.bit_length())
            den_bits = max(den_bits, p.denominator.bit_length())
    return _ok(
        name,
        f"n = 2..{n_max}, delta <= {delta_bits} bits, "
        f"denominators <= {den_bits} bits",
    )


def check_first_column_numerators(n_max: int) -> CheckResult:
    """Reduced numerators of p_1^(n), n = 2..9: 1, 2, 7, 12, 41, 70, 239, 408."""
    name = "first-column-numerators"
    got = tuple(p_exact(1, n).numerator for n in range(2, 10))
    if got != FIRST_COLUMN_NUMERATORS:
        return _fail(name, f"numerators {got}")
    return _ok(name, "n = 2..9 numerators match")


# ------------------------------------------------------------------ suites

# A check takes n_max; check_simulator_bracketing also takes the tail.
Check = Callable[..., CheckResult]

SUITES: dict[str, tuple[Check, ...]] = {
    "identities": (
        check_watrous_recurrence,
        check_row_recurrence,
        check_outer_pair_sum,
        check_first_two_entries,
        check_boundary_conventions,
        check_convergence_sandwich,
    ),
    "methods": (check_method_agreement,),
    "oracles": (
        check_series_vs_paths,
        check_recurrence_built_gf,
        check_absorbed_mass_series,
        check_simulator_bracketing,
    ),
    "limits": (check_first_column_limit, check_center_column_limit),
    "structure": (
        check_pole_classification,
        check_quotient_structure,
        check_squarefree_denominators,
        check_denominator_bound_integrality,
        check_first_column_numerators,
    ),
}
SUITES["all"] = tuple(c for suite in
                      ("identities", "methods", "oracles", "limits", "structure")
                      for c in SUITES[suite])
# The suites that run the contour route (method-agreement,
# pole-classification, denominator-bound-integrality), which refuses
# rows above MAX_ROW: run_suite refuses their n_max before any check.
_CONTOUR_SUITES = ("all", "methods", "structure")


def run_suite(
    suite: str,
    n_max: int = 9,
    tail_eps: Rational = F(1, 10 ** 10),
) -> list[CheckResult]:
    """Run every check in the suite; results keep registry order.
    tail_eps reaches check_simulator_bracketing alone.  A suite that
    runs the contour route refuses an n_max above MAX_ROW at once with
    the route's PrecisionError."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    if not 0 < tail_eps < 1:
        raise ValueError(f"tail_eps must lie in (0, 1), got {tail_eps}")
    if suite in _CONTOUR_SUITES:
        require_row(n_max)
    return [check(n_max, tail_eps) if check is check_simulator_bracketing
            else check(n_max) for check in SUITES[suite]]
