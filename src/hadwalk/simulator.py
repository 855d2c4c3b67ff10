"""Brute-force oracles: exact amplitude evolution, a certified
fixed-point simulator, and signed path counts.

The state update follows the coined-walk rules: from (s, R) the particle
moves to (s+1, R) and to (s-1, L), each with amplitude factor +1/sqrt2;
from (s, L) it moves to (s+1, R) with +1/sqrt2 and to (s-1, L) with
-1/sqrt2.  Amplitude arriving at a barrier is measured there and then,
so each absorbed path contributes its squared amplitude exactly once, at
its arrival step.  Both steppers below apply this rule without the
1/sqrt2 factor, as integer sums and differences: the exact stepper on
every interior slot (`_move`), the simulator on the live parity class
only (`_move_live`, below).  The exact stepper keeps the full-width move
because it is the oracle that the tests compare `simulate` against.

Exact stepper (`step`).  All amplitudes are integers under a global
(1/sqrt2)^step scale, so every probability mass is an integer numerator
over 2^step: the walk state holds only integers and no ``Fraction`` is
built inside the step loop.  Each step doubles the absorbed numerators
and adds the squared barrier hits, and conservation is the integer
identity ``left_num + right_num + sum(a^2) == 2^step``.  This keeps the
evolution exact and makes the stepper a true oracle for the series
coefficients of the generating functions.  Its numerators grow by half a
bit a step, so step k costs O(n k) bit operations.

Fixed-point simulator (`simulate`).  A bracket needs no exact state, so
`simulate` keeps the interior amplitudes as ints A at F fractional bits,
standing for A 2^-F.  A pair of steps applies the move twice and then
shifts every amplitude right by one bit (`_halve`), which is the exact
(1/sqrt2)^2 scale followed by a floor; nothing else is rounded.

Live parity class.  Every move changes the site by +-1, so after k steps
all amplitude sits on the sites s with s - j - k even, and the other
class is identically zero.  `simulate` holds only the live class, the
odd sites 1, 3, ... or the even sites 2, 4, ... up to n - 1, which is
about n - 1 slots for both directions together, and each step maps one
class to the other.  Only the odd class holds site 1, so only it feeds
the left barrier; the right barrier is fed by the class that holds site
n - 1.  A dropped slot is an exact zero, which every move and floor
keeps, so the state, the hits and every output are those of a
full-width loop.

The bracket is certified by the absolute-error lemma of residue_engine
(Higham 2002, ch. 3), here with e counted in half-ulps (units of
2^-(F+1)):

  * the interior map of one step, the unitary move followed by dropping
    the two barrier slots, is a contraction, so an error already in the
    state never grows;
  * the floor of v/2 errs by 0 or 1/2 ulp in each of the 2(n-1)
    interior slots, so one shift moves the state by at most
    c = ceil(sqrt(2(n-1))) half-ulps in the 2-norm, and after r shifts
    the computed state lies within e = r c of the exact one.  Only the
    live slots are floored, and the zero slots of the other class floor
    exactly, so c counted over all 2(n-1) slots is loose but valid; it
    is kept, since a smaller c would change F, the widening and so the
    output;
  * a barrier hit is the barrier slot after one or two unitary moves of
    the state, a linear functional of norm 1, so the computed hit h~
    lies within e of the exact hit h, and for any integer x >= |h~|,
    h^2 >= h~^2 - e (2x + e) (when |h~| < e the right side is negative);
  * each hit therefore adds max(0, h~^2 - e (2x + e)) to a lower bound on
    the mass absorbed on its side.  With lower bounds L and R, the exact
    p_left is at most the absorbed left mass plus the interior mass,
    which is 1 minus the absorbed right mass, so at most 1 - R; hence
    residual = 1 - L - R brackets both sides, and it is never below the
    exact interior mass, so `simulate` never stops before the exact
    stepper would.

Masses are integers in units of 2^-(2F+2), one half-ulp squared: the
interior is 4 sum(A^2) at a pair boundary, 2 sum(U^2) after the pair's
first move and sum(V^2) after its second, and a hit's mass h^2 carries
the same factor, 2 after the first move and 1 after the second.  Both
steps of a pair check ``left + right + interior + drift == 2^(2F+2)`` in
integers on the moved state, before any floor, as the exact stepper
checks its identity.  The floor then changes the interior mass by the
exact integer sum(V^2) - 4 sum((V >> 1)^2), and ``drift`` adds it up
from the parities alone: 4 floor(v/2)^2 is v^2 for even v and (v - 1)^2
for odd v, so each odd amplitude loses 2v - 1.  The next move's measured
sum then checks the floor as well as the move, so the identity fails if
a move loses or creates mass or if a floor is not the floor of v/2.  The
widening w = e (2x + e) is added up apart from the hits, so the identity
involves computed masses only.

F is chosen once from (n, tail_eps, max_steps).  Within max_steps every
hit has e <= e_max = max_steps c and x <= 2^(F+1) + e_max + 1 half-ulps,
so with e_max < 2^F each of the 2 max_steps hits widens the bracket by
less than e_max 2^(F+3) units, in all by less than
4 max_steps e_max 2^-F, and F makes that at most tail_eps / 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import add, mul, sub
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .cells import _validate
from .errors import ConsistencyError, StepBudgetExceeded

if TYPE_CHECKING:
    from .exactq import Rational

LEFT = "L"
RIGHT = "R"


class AmplitudeState(NamedTuple):
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


def _move(right, left) -> tuple[list[int], list[int], int, int]:
    """One step without the 1/sqrt2 factor on the interior slots
    (sites 1..n-1): (right', left', left_hit, right_hit).

    right'[s+1] = R[s] + L[s] and left'[s-1] = R[s] - L[s] for the
    interior sites s; right'[n] and left'[0] are the barrier hits, which
    are measured and leave the barrier slots at 0.  Nothing reaches
    (0, R) or (n, L), since a barrier is only entered moving towards it.
    """
    up = list(map(add, right, left))
    down = list(map(sub, right, left))
    right_hit = up.pop()
    up.insert(0, 0)
    left_hit = down.pop(0)
    down.append(0)
    return up, down, left_hit, right_hit


def step(state: AmplitudeState, n: int) -> AmplitudeState:
    """One unitary step plus barrier measurement; exact."""
    if n != state.n:
        raise ValueError(f"state is for n={state.n}, not n={n}")
    right, left, left_hit, right_hit = _move(state.right[1:n],
                                             state.left[1:n])
    out = AmplitudeState(
        n=n,
        step=state.step + 1,
        right=(0, *right, 0),
        left=(0, *left, 0),
        left_num=2 * state.left_num + left_hit * left_hit,
        right_num=2 * state.right_num + right_hit * right_hit,
    )
    check_conservation(out)
    return out


class _ReportFields(NamedTuple):
    p_left_lower: Rational
    p_right_lower: Rational
    residual: Rational
    steps_run: int


class SimulationReport(_ReportFields):
    """Certified truncation of the infinite absorption sums.

    The exact left probability lies in
    [p_left_lower, p_left_lower + residual], and similarly on the
    right; the three fields always sum to exactly 1, which every
    construction (``_replace`` included) checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SimulationReport:
        self = super().__new__(cls, *args, **kwargs)
        if self.residual < 0:
            raise ConsistencyError(f"negative residual {self.residual}")
        total = self.p_left_lower + self.p_right_lower + self.residual
        if total != 1:
            raise ConsistencyError(f"report mass {total} != 1")
        return self

    @classmethod
    def _make(cls, fields) -> SimulationReport:
        return cls(*fields)


# Step budget of `simulate`.  A step costs O(n) operations on the n - 1
# live slots, ints of about F bits: some 16 us at n = 46 on a 2-vCPU
# machine (Python 3.11), and a cell needs about n^3 steps.  The centre
# cell of row 46 certifies at 1e-10 in 95,673 steps (1.5 s), and those
# of rows 47 and 48 exit at the budget after about 1.6 s.
MAX_STEPS = 100_000


def simulate(
    j: int,
    n: int,
    tail_eps: Rational,
    max_steps: int = MAX_STEPS,
) -> SimulationReport:
    """Run the walk until the certified residual drops below tail_eps.

    tail_eps is a hard bound, not a heuristic: the returned report
    brackets the true probabilities (proof in the module docstring).  If
    max_steps is reached first, StepBudgetExceeded carries the partial
    report, which brackets them too.
    """
    tail_eps = Fraction(tail_eps)
    if tail_eps <= 0:
        raise ValueError(f"tail_eps must be > 0, got {tail_eps}")
    _validate(j, n, 1, n - 1)
    e_max = max_steps * _round_error(n)
    scaled = 8 * max_steps * e_max * tail_eps.denominator
    frac_bits = max(scaled.bit_length() - tail_eps.numerator.bit_length() + 1,
                    e_max.bit_length() + 1)
    return _simulate(j, n, tail_eps, max_steps, frac_bits)


def _round_error(n: int) -> int:
    """ceil(sqrt(2(n-1))): half-ulps one shift adds to the state error."""
    return isqrt(2 * (n - 1) - 1) + 1


def _widening(mass: int, hit: int, e: int) -> int:
    """min(mass, e (2x + e)) with x = ceil(sqrt(mass)) >= |h~|, for the
    mass hit^2 or 2 hit^2 of a hit != 0: x = |hit| when mass = hit^2,
    which saves an isqrt."""
    x = abs(hit)
    if mass != x * x:
        x = isqrt(mass - 1) + 1
    return min(mass, e * (2 * x + e))


def _move_live(right, left, odd: bool, holds_last: bool
               ) -> tuple[list[int], list[int], int, int]:
    """`_move` on the live class: (right', left', left_hit, right_hit).

    right and left hold the sites of one parity, 1, 3, ... (odd) or
    2, 4, ... (even), up to n - 1; the result holds the other class.
    Only the odd class holds site 1 and feeds the left barrier, and only
    the class that holds site n - 1 (holds_last) feeds the right one.
    """
    up = list(map(add, right, left))
    down = list(map(sub, right, left))
    left_hit = down.pop(0) if odd else 0
    if holds_last:
        right_hit = up.pop()
    else:
        right_hit = 0
        down.append(0)
    if not odd:
        up.insert(0, 0)
    return up, down, left_hit, right_hit


def _halve(values: list[int]) -> list[int]:
    """The floor of v/2 of each amplitude: the one rounding `simulate`
    makes, after the second move of a pair."""
    return [v >> 1 for v in values]


def _simulate(
    j: int, n: int, tail_eps: Fraction, max_steps: int, frac_bits: int
) -> SimulationReport:
    """simulate() at a given number of fractional bits."""
    total = 1 << (2 * frac_bits + 2)
    # For an integer rest, rest < stop iff rest / total < tail_eps.
    stop = -(-tail_eps.numerator * total // tail_eps.denominator)
    c = _round_error(n)
    odd = j & 1 == 1
    last_odd = n & 1 == 0  # the parity of site n - 1
    right = [0] * (n // 2 if odd else (n - 1) // 2)
    right[(j - 1) // 2] = 1 << frac_bits
    left = [0] * len(right)
    # Computed absorbed masses, their widening, and the floors' drift.
    left_mass = right_mass = left_wide = right_wide = drift = 0
    steps = 0
    while True:
        lower_left = left_mass - left_wide
        lower_right = right_mass - right_wide
        rest = total - lower_left - lower_right
        if rest < stop:
            return _report(lower_left, lower_right, rest, total, steps)
        if steps >= max_steps:
            report = _report(lower_left, lower_right, rest, total, steps)
            raise StepBudgetExceeded(
                f"residual {float(report.residual):.3e} still above "
                f"tail_eps after {steps} steps",
                report,
            )
        right, left, left_hit, right_hit = _move_live(
            right, left, odd, odd == last_odd)
        odd = not odd
        steps += 1
        # Masses carry a scale of 2 after a pair's first move, 1 after
        # its second.
        scale = 1 + (steps & 1)
        hit_left, hit_right = scale * left_hit**2, scale * right_hit**2
        state = right + left
        interior = scale * sum(map(mul, state, state))
        left_mass += hit_left
        right_mass += hit_right
        # Error of the state the hits came from: c per shift before them.
        e = (steps - 1) // 2 * c
        if e:
            if hit_left:
                left_wide += _widening(hit_left, left_hit, e)
            if hit_right:
                right_wide += _widening(hit_right, right_hit, e)
        if left_mass + right_mass + interior + drift != total:
            raise ConsistencyError(
                f"fixed-point mass identity broken at step {steps} "
                f"(j={j}, n={n}, F={frac_bits})"
            )
        if not steps & 1:
            # v^2 - 4 floor(v/2)^2 is 0 for even v and 2v - 1 for odd v.
            odd_values = [v for v in state if v & 1]
            drift += 2 * sum(odd_values) - len(odd_values)
            right, left = _halve(right), _halve(left)


def _report(lower_left: int, lower_right: int, rest: int, total: int,
            steps: int) -> SimulationReport:
    return SimulationReport(
        p_left_lower=Fraction(lower_left, total),
        p_right_lower=Fraction(lower_right, total),
        residual=Fraction(rest, total),
        steps_run=steps,
    )


class SignedPathTally(NamedTuple):
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
