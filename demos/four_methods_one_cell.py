"""
One probability, four independent computations
==============================================

Take the walk on sites 0..5 started at j = 2.  The left-absorption
probability is 7/17, and this script derives it four ways that share
no code path for the final value:

1. closed form in Q(sqrt 2),
2. the residue formula evaluated at t = -1/2,
3. a certified numeric contour integral rounded to an exact rational,
4. step-by-step amplitude simulation with certified bounds.
"""

from fractions import Fraction

from hadwalk import (
    Polynomial,
    build_integrand,
    denominator_bound,
    find_roots,
    integrate_exact,
    p_closed,
    p_exact,
    row_starts,
    simulate,
)

J, N = 2, 5

# --- 1. Closed form.  A = 2 + sqrt2 and B = 2 - sqrt2 combine so that
# every sqrt2 cancels; the arithmetic never leaves Q(sqrt 2).
closed = p_closed(J, N)
print(f"closed form:        {closed}")

# --- 2. Residue formula.  The polynomial family r_k (r_0 = 0, r_1 = 1,
# r_{k+2} = (1-2t) r_{k+1} + t r_k), evaluated at t = -1/2, gives
# p = (1/2) r_{n-j} (r_j - r_{j-1}) / (r_n - r_{n-1}).
evaluated = p_exact(J, N)
print(f"residue formula:    {evaluated}")

# --- 3. Contour integral.  The same probability is (-1)^j times an
# integral of t^(j-1) r_{n-j}^2 / ((r_n + 2t r_{n-1})(r_n - r_{n-1}))
# around |t| = 1/2; its poles inside the contour are the roots of
# r_n - r_{n-1}.  At each pole the engine evaluates the numerator by the
# r recurrence, sums the residues in certified fixed point, multiplies
# by an integer delta = 2^(n-j-1) |2^(n-1) (r_n - r_{n-1})(-1/2)|, read
# off the coefficients of r_n - r_{n-1}, and rounds -- provably landing
# on the exact rational.
ig = build_integrand(J, N)
bound = denominator_bound(ig)
print(f"denominator bound:  delta = {bound.delta} "
      f"(2^{bound.power} times |2^{N - 1} d(-1/2)| = {abs(bound.N)})")
# The poles start from the roots of r_(n-1), which lie on |t| = 1/2 in
# closed form, scaled just inside the contour.
roots = find_roots(ig.d, 128, row_starts(N)[0])
d = Polynomial(ig.d, var="t")  # ig.d holds its integer coefficients
print(f"poles inside:       {len(roots.approximations)} roots of {d}, "
      f"each pinned within {float(roots.error_radius):.1e}")
contour = integrate_exact(ig)
print(f"contour integral:   {contour}")

# --- 4. Simulation.  Fixed-point integer amplitudes, rounded once per
# pair of steps; the mass absorbed at the barriers accumulates as exact
# dyadic rationals, lowered by the proven rounding error, so after enough
# steps the truth is bracketed to any requested tail.
report = simulate(J, N, Fraction(1, 10 ** 12))
print(f"simulation:         p_left >= {report.p_left_lower} "
      f"after {report.steps_run} steps")
print(f"                    unabsorbed residual <= {report.residual}")

assert closed == evaluated == contour == Fraction(7, 17)
assert report.p_left_lower <= closed <= report.p_left_lower + report.residual
print()
print("all four pipelines agree: p = 7/17")
