"""Brute-force oracles: exact amplitude evolution and signed path counts.

The state update follows the coined-walk rules: from (s, R) the particle
moves to (s+1, R) and to (s-1, L), each with amplitude factor +1/sqrt2;
from (s, L) it moves to (s+1, R) with +1/sqrt2 and to (s-1, L) with
-1/sqrt2.  Amplitude arriving at a barrier is measured there and then,
so each absorbed path contributes its squared amplitude exactly once, at
its arrival step.

All amplitudes are integers under a global (1/sqrt2)^step scale, so every
probability mass is an integer numerator over 2^step: the walk state holds
only integers and no ``Fraction`` is built inside the step loop.  Each
step doubles the absorbed numerators and adds the squared barrier hits,
and conservation is the integer identity
``left_num + right_num + sum(a^2) == 2^step``.  This keeps the evolution
exact and makes the simulator a true oracle for the series coefficients
of the generating functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Mapping

from .errors import ConsistencyError, StepBudgetExceeded
from .exactq import Rational
from .walk_core import _validate

LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class AmplitudeState:
    """Walk state after ``step`` steps on sites 0..n.

    ``right[s]`` and ``left[s]`` (s = 0..n) are the integer numerators of
    the amplitudes at (s, R) and (s, L); the true amplitude is
    numerator * (1/sqrt2)**step.  Only interior sites 1..n-1 are ever
    non-zero.  ``left_num``/``right_num`` are the numerators, over
    2**step, of the probability mass measured at the barriers so far.
    """

    n: int
    step: int
    right: tuple[int, ...]
    left: tuple[int, ...]
    left_num: int
    right_num: int

    @property
    def amps(self) -> Mapping[tuple[int, str], int]:
        """The non-zero numerators keyed by (site, "L"/"R")."""
        out = {}
        for site in range(self.n + 1):
            if self.left[site]:
                out[(site, LEFT)] = self.left[site]
            if self.right[site]:
                out[(site, RIGHT)] = self.right[site]
        return out

    @property
    def absorbed_left(self) -> Rational:
        return Fraction(self.left_num, 1 << self.step)

    @property
    def absorbed_right(self) -> Rational:
        return Fraction(self.right_num, 1 << self.step)


def initial_state(j: int, n: int) -> AmplitudeState:
    """|j, R> with nothing absorbed; requires an interior start site."""
    _validate(j, n, 1, n - 1)
    right = [0] * (n + 1)
    right[j] = 1
    return AmplitudeState(
        n=n,
        step=0,
        right=tuple(right),
        left=(0,) * (n + 1),
        left_num=0,
        right_num=0,
    )


def _interior_num(state: AmplitudeState) -> int:
    """Numerator over 2**step of the mass still inside the barriers."""
    right, left = state.right, state.left
    return sum(map(mul, right, right)) + sum(map(mul, left, left))


def interior_mass(state: AmplitudeState) -> Rational:
    """Probability mass still inside the barriers, exactly."""
    return Fraction(_interior_num(state), 1 << state.step)


def check_conservation(state: AmplitudeState) -> None:
    """Raise unless absorbed + interior mass is exactly 1, checked as
    the integer identity left_num + right_num + sum(a^2) == 2**step."""
    total = state.left_num + state.right_num + _interior_num(state)
    if total != 1 << state.step:
        raise ConsistencyError(
            f"mass {Fraction(total, 1 << state.step)} != 1 at step "
            f"{state.step} (n={state.n})"
        )


def step(state: AmplitudeState, n: int) -> AmplitudeState:
    """One unitary step plus barrier measurement; exact.

    right'[s+1] = R[s] + L[s] and left'[s-1] = R[s] - L[s] for the
    interior sites s; right'[n] and left'[0] are the barrier hits, which
    are measured and leave the barrier slots at 0.  Nothing reaches
    (0, R) or (n, L), since a barrier is only entered moving towards it.
    """
    if n != state.n:
        raise ValueError(f"state is for n={state.n}, not n={n}")
    right, left = state.right[1:n], state.left[1:n]
    up = list(map(add, right, left))
    down = list(map(sub, right, left))
    right_hit = up.pop()
    left_hit = down[0]
    down[0] = 0
    out = AmplitudeState(
        n=n,
        step=state.step + 1,
        right=(0, 0, *up, 0),
        left=(*down, 0, 0),
        left_num=2 * state.left_num + left_hit * left_hit,
        right_num=2 * state.right_num + right_hit * right_hit,
    )
    check_conservation(out)
    return out


@dataclass(frozen=True)
class SimulationReport:
    """Certified truncation of the infinite absorption sums.

    The exact left probability lies in
    [p_left_lower, p_left_lower + residual], and similarly on the
    right; the three fields always sum to exactly 1.
    """

    p_left_lower: Rational
    p_right_lower: Rational
    residual: Rational
    steps_run: int

    def __post_init__(self) -> None:
        if self.residual < 0:
            raise ConsistencyError(f"negative residual {self.residual}")
        total = self.p_left_lower + self.p_right_lower + self.residual
        if total != 1:
            raise ConsistencyError(f"report mass {total} != 1")


def simulate(
    j: int,
    n: int,
    tail_eps: Rational,
    max_steps: int = 10_000,
) -> SimulationReport:
    """Run the walk until interior mass drops below tail_eps.

    tail_eps is a hard bound, not a heuristic: the returned report
    brackets the true probabilities.  If max_steps is reached first,
    StepBudgetExceeded carries the partial report.
    """
    tail_eps = Fraction(tail_eps)
    if tail_eps <= 0:
        raise ValueError(f"tail_eps must be > 0, got {tail_eps}")
    eps_num, eps_den = tail_eps.numerator, tail_eps.denominator
    state = initial_state(j, n)
    while True:
        # step() has checked conservation, so the unabsorbed numerator
        # is the interior mass; compare it with tail_eps in integers.
        total = 1 << state.step
        rest = total - state.left_num - state.right_num
        if rest * eps_den < eps_num * total:
            return _report(state, rest)
        if state.step >= max_steps:
            report = _report(state, rest)
            raise StepBudgetExceeded(
                f"residual {float(report.residual):.3e} still above "
                f"tail_eps after {state.step} steps",
                report,
            )
        state = step(state, n)


def _report(state: AmplitudeState, rest: int) -> SimulationReport:
    return SimulationReport(
        p_left_lower=state.absorbed_left,
        p_right_lower=state.absorbed_right,
        residual=Fraction(rest, 1 << state.step),
        steps_run=state.step,
    )


@dataclass(frozen=True)
class SignedPathTally:
    """counts[m-1] = sum of path signs over length-m absorbed paths."""

    counts: tuple[int, ...]


_ENUMERATION_GUARD = 24


def _tally(j: int, n: int, m_max: int, absorb_site: int) -> SignedPathTally:
    _validate(j, n, 1, n - 1)
    if not 1 <= m_max <= _ENUMERATION_GUARD:
        raise ValueError(
            f"m_max={m_max} outside 1..{_ENUMERATION_GUARD} (2^m enumeration)"
        )
    counts = [0] * m_max

    # Depth-first over move words; sign flips on every L directly after
    # an L, so overlapping LL pairs each count (LLL carries sign +1).
    def go(pos: int, steps: int, sign: int, last_was_l: bool) -> None:
        if steps == m_max:
            return
        lsign = -sign if last_was_l else sign
        lpos = pos - 1
        if lpos == 0:
            if absorb_site == 0:
                counts[steps] += lsign
        else:
            go(lpos, steps + 1, lsign, True)
        rpos = pos + 1
        if rpos == n:
            if absorb_site == n:
                counts[steps] += sign
        else:
            go(rpos, steps + 1, sign, False)

    go(j, 0, 1, False)
    return SignedPathTally(counts=tuple(counts))


def enumerate_paths(j: int, n: int, m_max: int) -> SignedPathTally:
    """Signed counts of first-exit paths from j to the left barrier.

    counts[m-1] sums sigma(P) = (-1)**(number of LL blocks, overlaps
    counted) over all L/R words of length m that start at j, stay
    strictly inside (0, n) before the last move, and land on 0.
    """
    return _tally(j, n, m_max, absorb_site=0)


def enumerate_paths_right(j: int, n: int, m_max: int) -> SignedPathTally:
    """Same tally for paths absorbed at the right barrier."""
    return _tally(j, n, m_max, absorb_site=n)
