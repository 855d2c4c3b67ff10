"""Brute-force oracles: exact amplitude evolution and signed path counts.

The state update follows the coined-walk rules: from (s, R) the particle
moves to (s+1, R) and to (s-1, L), each with amplitude factor +1/sqrt2;
from (s, L) it moves to (s+1, R) with +1/sqrt2 and to (s-1, L) with
-1/sqrt2.  Amplitude arriving at a barrier is measured there and then,
so each absorbed path contributes its squared amplitude exactly once, at
its arrival step.

All amplitudes are integers under a global (1/sqrt2)^step scale, which
keeps the evolution exact and makes the simulator a true oracle for the
series coefficients of the generating functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import ConsistencyError, StepBudgetExceeded
from .exactq import Rational
from .walk_core import _validate

LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class AmplitudeState:
    """Walk state after ``step`` steps on sites 0..n.

    ``amps`` maps (site, direction) to the integer numerator of the
    amplitude; the true amplitude is numerator * (1/sqrt2)**step.  Only
    interior sites 1..n-1 appear.  ``absorbed_left``/``absorbed_right``
    hold the probability mass measured at the barriers so far.
    """

    n: int
    step: int
    amps: Mapping[tuple[int, str], int]
    absorbed_left: Rational
    absorbed_right: Rational


def initial_state(j: int, n: int) -> AmplitudeState:
    """|j, R> with nothing absorbed; requires an interior start site."""
    _validate(j, n, 1, n - 1)
    return AmplitudeState(
        n=n,
        step=0,
        amps={(j, RIGHT): 1},
        absorbed_left=Fraction(0),
        absorbed_right=Fraction(0),
    )


def interior_mass(state: AmplitudeState) -> Rational:
    """Probability mass still inside the barriers, exactly."""
    scale = Fraction(1, 2 ** state.step)
    return sum((a * a * scale for a in state.amps.values()), Fraction(0))


def check_conservation(state: AmplitudeState) -> None:
    """Raise unless absorbed + interior mass is exactly 1."""
    total = state.absorbed_left + state.absorbed_right + interior_mass(state)
    if total != 1:
        raise ConsistencyError(
            f"mass {total} != 1 at step {state.step} (n={state.n})"
        )


def step(state: AmplitudeState, n: int) -> AmplitudeState:
    """One unitary step plus barrier measurement; exact."""
    if n != state.n:
        raise ValueError(f"state is for n={state.n}, not n={n}")
    new: dict[tuple[int, str], int] = {}

    def add(site: int, direction: str, value: int) -> None:
        if value:
            key = (site, direction)
            new[key] = new.get(key, 0) + value

    for (site, direction), a in state.amps.items():
        if direction == RIGHT:
            add(site + 1, RIGHT, a)
            add(site - 1, LEFT, a)
        else:
            add(site + 1, RIGHT, a)
            add(site - 1, LEFT, -a)
    # Opposite contributions may cancel exactly; drop dead entries so
    # equal states compare equal.
    new = {key: val for key, val in new.items() if val}

    new_step = state.step + 1
    scale = Fraction(1, 2 ** new_step)
    absorbed_left = state.absorbed_left
    absorbed_right = state.absorbed_right
    left_hit = new.pop((0, LEFT), 0)
    if left_hit:
        absorbed_left += left_hit * left_hit * scale
    right_hit = new.pop((n, RIGHT), 0)
    if right_hit:
        absorbed_right += right_hit * right_hit * scale
    # A barrier can only be reached in the direction pointing at it.
    if (0, RIGHT) in new or (n, LEFT) in new:
        raise ConsistencyError("amplitude reached a barrier moving inward")

    out = AmplitudeState(
        n=n,
        step=new_step,
        amps=new,
        absorbed_left=absorbed_left,
        absorbed_right=absorbed_right,
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
    state = initial_state(j, n)
    residual = interior_mass(state)
    while residual >= tail_eps:
        if state.step >= max_steps:
            raise StepBudgetExceeded(
                f"residual {float(residual):.3e} still above tail_eps after "
                f"{state.step} steps",
                SimulationReport(
                    p_left_lower=state.absorbed_left,
                    p_right_lower=state.absorbed_right,
                    residual=residual,
                    steps_run=state.step,
                ),
            )
        state = step(state, n)
        # step() has checked conservation, so this is the interior mass.
        residual = 1 - state.absorbed_left - state.absorbed_right
    return SimulationReport(
        p_left_lower=state.absorbed_left,
        p_right_lower=state.absorbed_right,
        residual=residual,
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
