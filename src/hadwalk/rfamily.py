"""The integer side of the r family: what the residue and contour routes
need of it, with no polynomial type.

The family r_k in t is

    r_0 = 0, r_1 = 1, r_{k+2} = (1 - 2t) r_{k+1} + t r_k,

and the lemma on walk_core.RFamily puts the roots of each r_k (k >= 2)
on |t| = 1/2.  This module holds the one coefficient recurrence of the
package (``r_coefficients``, integer lists low degree first, which
walk_core.RFamily wraps into polynomials), the two factors of row n as
integer coefficient tuples, low degree first (``gf_denominator``,
``absorption_denominator``), and the evaluated residue formula
(``p_exact``), which needs four values of the family at t = -1/2.

It imports neither the exact polynomial layer nor walk_core, so the
residue route and the contour route load neither.  It is kept out of
cells, which the simulator route loads.
"""

from __future__ import annotations

from fractions import Fraction

from .cells import _validate
from .errors import ConsistencyError


def r_coefficients(*ks: int) -> tuple[list[int], ...]:
    """(coefficients of r_k for k in ks), low degree first, in the order
    asked, from one pass of the recurrence that keeps two members."""
    if min(ks) < 0:
        raise ValueError(f"r_k needs k >= 0, got {min(ks)}")
    found = {}
    r_k, r_next = [], [1]
    for k in range(max(ks) + 1):
        if k in ks:
            found[k] = r_k
        # r_{k+2}[i] = r_{k+1}[i] - 2 r_{k+1}[i-1] + r_k[i-1]
        r_k, r_next = r_next, [a - 2 * b + c for a, b, c in zip(
            r_next + [0], [0] + r_next, [0] + r_k + [0])]
    return tuple(found[k] for k in ks)


def outside_factor(r_n: list[int], r_m: list[int]) -> tuple[int, ...]:
    """r_n + 2t r_{n-1} from the coefficients of r_n and r_{n-1}, with
    no trailing zero (the t^(n-1) terms cancel)."""
    c = [a + 2 * b for a, b in zip(r_n, [0] + r_m)]
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def gf_denominator(n: int) -> tuple[int, ...]:
    """r_n + 2t r_{n-1}: common denominator (in t) of the row's
    generating functions, as integer coefficients low degree first."""
    return outside_factor(*r_coefficients(n, n - 1))


def absorption_denominator(n: int) -> tuple[int, ...]:
    """r_n - r_{n-1}, as integer coefficients low degree first: its
    value at t = -1/2 is the denominator scale of the row's absorption
    probabilities, and its roots are the poles picked up by the contour
    route.  Its leading coefficient is that of r_n, (-2)^(n-1)."""
    r_n, r_m = r_coefficients(n, n - 1)
    return tuple(a - b for a, b in zip(r_n, r_m + [0]))


def p_exact(j: int, n: int) -> Fraction:
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
