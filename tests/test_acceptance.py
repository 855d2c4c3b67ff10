"""Acceptance gate: the nine headline guarantees, one test per criterion.

Each test prints a single pass/fail line (bypassing capture) so a plain
pytest run shows the acceptance story at a glance.  Budgeted criteria
measure wall time inside the test and fail if they blow the budget.
"""

from __future__ import annotations

import time
from fractions import Fraction

import mpmath
import pytest

from hadwalk.exactq import QuadExt
from hadwalk.residue_engine import (
    build_integrand,
    denominator_bounds,
    integrate_exact,
    integrate_row,
)
from hadwalk.simulator import (
    enumerate_paths,
    initial_state,
    interior_mass,
    simulate,
    step,
)
from hadwalk.verification import (
    FIRST_COLUMN_NUMERATORS,
    check_pole_classification,
    run_suite,
)
from hadwalk.walk_core import (
    gf,
    gf_coefficients,
    gf_via_recurrence,
    h_quotient,
    p_closed,
    p_exact,
    r_poly,
    row_common_denominator,
)
from hadwalk.exactq import poly_discriminant
from reference_values import ROW_DENOMINATORS, ROW_NUMERATORS, table_fraction

F = Fraction


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_reference_table_reproduction(capsys):
    """All 44 row entries for n = 2..9 (36 interior cells plus the
    8 certain-absorption entries at j = 0), by all three exact methods,
    in reduced and shared-denominator form.  Budget: 10 s."""
    t0 = time.perf_counter()
    failures: list[str] = []
    entries = 0
    for n in range(2, 10):
        if p_exact(0, n) != 1:
            failures.append(f"j=0 convention broken at n={n}")
        entries += 1
        for j in range(1, n):
            want = table_fraction(j, n)
            entries += 1
            for label, got in (
                ("closed", p_closed(j, n)),
                ("exact", p_exact(j, n)),
                ("contour", integrate_exact(build_integrand(j, n))),
            ):
                if got != want:
                    failures.append(f"{label} differs at j={j}, n={n}")
        shared, nums = row_common_denominator(n)
        if shared != ROW_DENOMINATORS[n] or nums != list(ROW_NUMERATORS[n]):
            failures.append(f"unreduced row {n} differs")
    elapsed = time.perf_counter() - t0
    ok = not failures and entries == 44 and elapsed < 10
    _report(capsys, 1, ok,
            f"{entries} table entries, 3 methods, {elapsed:.2f}s (budget 10s)")
    assert not failures, failures
    assert entries == 44
    assert elapsed < 10


def test_criterion_2_cross_method_equality_to_n20(capsys):
    """p_closed = p_exact = integrate_exact exactly for all
    1 <= j < n <= 20.  Budget: 5 min."""
    t0 = time.perf_counter()
    failures: list[str] = []
    cells = 0
    for n in range(2, 21):
        for j, contour in enumerate(integrate_row(n), start=1):
            pe = p_exact(j, n)
            if p_closed(j, n) != pe:
                failures.append(f"closed vs exact at j={j}, n={n}")
            if contour != pe:
                failures.append(f"contour vs exact at j={j}, n={n}")
            cells += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and cells == 190 and elapsed < 300
    _report(capsys, 2, ok,
            f"{cells} cells to n=20, {elapsed:.2f}s (budget 300s)")
    assert not failures, failures
    assert cells == 190
    assert elapsed < 300


def test_criterion_3_simulator_bracketing_and_conservation(capsys):
    """simulate(j, n, 1e-10) brackets the exact value for all
    1 <= j < n <= 9, and interior + absorbed mass is exactly 1 after
    every step."""
    eps = F(1, 10 ** 10)
    failures: list[str] = []
    for n in range(2, 10):
        for j in range(1, n):
            rep = simulate(j, n, eps)
            p = p_exact(j, n)
            if not rep.p_left_lower <= p <= rep.p_left_lower + rep.residual:
                failures.append(f"bracket misses at j={j}, n={n}")
            if rep.residual > eps:
                failures.append(f"tail above eps at j={j}, n={n}")
            state = initial_state(j, n)
            for _ in range(40):
                state = step(state, n)  # raises on any conservation break
                total = (state.absorbed_left + state.absorbed_right
                         + interior_mass(state))
                if total != 1:
                    failures.append(f"mass leak at j={j}, n={n}")
                    break
    ok = not failures
    _report(capsys, 3, ok,
            "36 cells bracketed at 1e-10; conservation exact each step")
    assert not failures, failures


def test_criterion_4_oracle_equivalence(capsys):
    """Series coefficients match exhaustive signed path enumeration
    (n <= 6, lengths <= 16); closed-form generating functions match the
    recurrence build (n <= 10); absorbed mass matches the squared
    coefficient sums."""
    failures: list[str] = []
    for n in range(2, 7):
        for j in range(1, n):
            if gf_coefficients(j, n, 16) != list(enumerate_paths(j, n, 16).counts):
                failures.append(f"series vs paths at j={j}, n={n}")
    for n in range(2, 11):
        for j in range(1, n):
            if gf(j, n) != gf_via_recurrence(j, n):
                failures.append(f"gf vs recurrence at j={j}, n={n}")
    for n in range(2, 7):
        for j in range(1, n):
            coeffs = gf_coefficients(j, n, 12)
            state = initial_state(j, n)
            for _ in range(12):
                state = step(state, n)
            want = sum(F(c * c, 2 ** k) for k, c in enumerate(coeffs, start=1))
            if state.absorbed_left != want:
                failures.append(f"absorbed mass at j={j}, n={n}")
    ok = not failures
    _report(capsys, 4, ok,
            "paths vs series (n<=6, m<=16); recurrence gf (n<=10); mass sums")
    assert not failures, failures


def test_criterion_5_identity_suite_to_n30(capsys):
    """Watrous recurrence, row recurrence, outer pair sum, first/second
    relation, and boundary conventions, exact for n <= 30."""
    results = run_suite("identities", 30)
    bad = [r for r in results if not r.passed]
    ok = not bad
    _report(capsys, 5, ok,
            "identity suite exact to n=30" if ok else bad[0].detail)
    assert not bad, [(r.name, r.detail) for r in bad]


def test_criterion_6_limit_checks(capsys):
    """|p_1^(40) - sqrt2/2| < 1e-20 and |p_20^(40) - sqrt2/4| < 1e-8,
    in 200-bit arithmetic and again exactly in Q(sqrt 2)."""
    p_first = p_exact(1, 40)
    p_center = p_exact(20, 40)
    with mpmath.workprec(200):
        gap_first = abs(
            mpmath.mpf(p_first.numerator) / p_first.denominator
            - mpmath.sqrt(2) / 2
        )
        gap_center = abs(
            mpmath.mpf(p_center.numerator) / p_center.denominator
            - mpmath.sqrt(2) / 4
        )
        ok_numeric = gap_first < mpmath.mpf(10) ** -20 and \
            gap_center < mpmath.mpf(10) ** -8
    exact_first = abs(QuadExt(p_first) - QuadExt(0, F(1, 2))) < F(1, 10 ** 20)
    exact_center = abs(QuadExt(p_center) - QuadExt(0, F(1, 4))) < F(1, 10 ** 8)
    ok = ok_numeric and exact_first and exact_center
    _report(capsys, 6, ok,
            "n=40 limits: first column within 1e-20, center within 1e-8")
    assert ok_numeric
    assert exact_first and exact_center


def test_criterion_7_pole_structure_and_divisibility(capsys):
    """Certified pole classification to n = 20; exact divisibility and
    n-independence of the quotient for j <= 10, n <= 15; squarefree
    absorption denominators to n = 30."""
    failures: list[str] = []
    roots = check_pole_classification(20)
    if not roots.passed:
        failures.append(roots.detail)
    for j in range(1, 11):
        baseline = h_quotient(j, j + 1)  # raises unless division is exact
        for n in range(j + 2, 16):
            if h_quotient(j, n) != baseline:
                failures.append(f"quotient depends on n at j={j}, n={n}")
    for n in range(2, 31):
        if poly_discriminant(r_poly(n) - r_poly(n - 1)) == 0:
            failures.append(f"repeated absorption pole at n={n}")
    ok = not failures
    _report(capsys, 7, ok,
            "poles certified to n=20; quotients n-independent; "
            "denominators squarefree to n=30")
    assert not failures, failures


def test_criterion_8_integer_sequence_check(capsys):
    """Reduced numerators of p_1^(n), n = 2..9: 1, 2, 7, 12, 41, 70,
    239, 408."""
    got = tuple(p_exact(1, n).numerator for n in range(2, 10))
    ok = got == FIRST_COLUMN_NUMERATORS
    _report(capsys, 8, ok, f"first-column numerators {got}")
    assert got == FIRST_COLUMN_NUMERATORS


def test_criterion_9_denominator_bound_soundness(capsys):
    """delta * p is an integer on every criterion-2 cell, and doubling
    the starting precision returns identical rationals."""
    failures: list[str] = []
    for n in range(2, 21):
        cells = zip(denominator_bounds(n), integrate_row(n, start_bits=256))
        for j, (db, contour) in enumerate(cells, start=1):
            p = p_exact(j, n)
            if (db.delta * p).denominator != 1:
                failures.append(f"delta misses denominator at j={j}, n={n}")
            if contour != p:
                failures.append(f"doubled precision differs at j={j}, n={n}")
    ok = not failures
    _report(capsys, 9, ok,
            "delta clears every denominator; doubled precision stable")
    assert not failures, failures
