"""Brute-force oracles: exact amplitude evolution, a certified
fixed-point simulator, and signed path counts.

The state update follows the coined-walk rules: from (s, R) the particle
moves to (s+1, R) and to (s-1, L), each with amplitude factor +1/sqrt2;
from (s, L) it moves to (s+1, R) with +1/sqrt2 and to (s-1, L) with
-1/sqrt2.  Amplitude arriving at a barrier is measured there and then,
so each absorbed path contributes its squared amplitude exactly once, at
its arrival step.  Both steppers below apply this rule without the
1/sqrt2 factor, as integer sums and differences: the exact stepper
forwards on every interior slot (`_move`), the simulator transposed on
the live parity class only (`_move_transposed`, below).  The exact
stepper keeps the forward full-width move because it is the oracle that
the tests compare `simulate` against.

Exact stepper (`step`).  All amplitudes are integers under a global
(1/sqrt2)^step scale, so every probability mass is an integer numerator
over 2^step: the walk state holds only integers and no ``Fraction`` is
built inside the step loop.  Each step doubles the absorbed numerators
and adds the squared barrier hits, and conservation is the integer
identity ``left_num + right_num + sum(a^2) == 2^step``.  This keeps the
evolution exact and makes the stepper a true oracle for the series
coefficients of the generating functions.  Its numerators grow by half a
bit a step, so step k costs O(n k) bit operations.

Transposed walk.  Write U for the move on all slots of sites 0..n,
without the 1/sqrt2 factor (so U/sqrt2 is orthogonal), and P for the
projection that drops the four barrier slots.  The walk from |j, R>
then hits the barriers at step k with the amplitudes
e_(0,L)^T U (PU)^(k-1) e_(j,R) and e_(n,R)^T U (PU)^(k-1) e_(j,R),
up to the scale.  The simulator runs the transpose, as the adjoint view
of the absorbing walk suggests (Ambainis, Bach, Nayak, Vishwanath and
Watrous, STOC 2001):

    v_1 = P U^T e_(0,L) = e_(1,R) - e_(1,L),    v_(k+1) = P U^T v_k,

where U^T maps (R, L) to R'[s] = R[s+1] + L[s-1] and
L'[s] = R[s+1] - L[s-1].

  * Left hits.  P is symmetric and (PU)^T = U^T P, so
    a_k(j) = e_(0,L)^T U (PU)^(k-1) e_(j,R) = v_k[(j, R)].
  * Right hits.  Let T act as (Tv)_R(s) = v_L(n-s) and
    (Tv)_L(s) = -v_R(n-s).  Then T P U^T = -P U^T T, and
    T v_1 = -(e_(n-1,R) + e_(n-1,L)) = -P U^T e_(n,R), minus the right
    barrier's first vector.  So T v_k = (-1)^k (P U^T)^(k-1) P U^T e_(n,R),
    and the right hit from |j, R> at step k is (-1)^k v_k[(n - j, L)].

So one vector holds, at step k, both barrier hits of every start site
of the row.  `simulate_row` reads all n - 1 cells from one run, and
`simulate` reads one.  Each cell keeps the sums of its own two sides'
squared hits and stops, with its own report, at the first step where
its own certified residual is below the tail; the vector runs until the
last requested cell stops.
The tests check both hit formulas in exact integers against `_move` and
`step`, for every start site of rows 2..9 over 30 steps.

Fixed-point simulator (`simulate`, `simulate_row`).  A bracket needs no
exact state, so the simulator keeps v as ints A at F fractional bits,
standing for A 2^-F, and starts from v_1 at 2^F.  A pair of steps
applies the move twice and then shifts every amplitude right by one bit
(`_halve`), which is the exact (1/sqrt2)^2 scale followed by a floor;
nothing else is rounded.

Live parity class.  Every move changes the site by +-1, so v_k sits on
the sites s with s - k even, and the other class is identically zero.
The simulator holds only the live class, the odd sites 1, 3, ... or the
even sites 2, 4, ... up to n - 1, which is about n - 1 slots for both
directions together, and each step maps one class to the other.  Only
the odd class holds site 1, so only it loses R[1] to the barrier slots
of site 0; the class that holds site n - 1 loses L[n - 1] to those of
site n.  A dropped slot is an exact zero, which every move and floor
keeps, so the state, the hits and every output are those of a
full-width loop.

The bracket is certified by the absolute-error lemma of residue_engine
(Higham 2002, ch. 3), here with e counted in half-ulps (units of
2^-(F+1)):

  * the map of one step, P U^T P / sqrt2, is an orthogonal map followed
    by dropping the barrier slots, so it contracts like P U P, and an
    error already in the state never grows;
  * the floor of v/2 errs by 0 or 1/2 ulp in each of the 2(n-1)
    interior slots, so one shift moves the state by at most
    c = ceil(sqrt(2(n-1))) half-ulps in the 2-norm, and after r shifts
    the computed state lies within e = r c of the exact one.  Only the
    live slots are floored, and the zero slots of the other class floor
    exactly, so c counted over all 2(n-1) slots is loose but valid; it
    is kept, since a smaller c would change F, the widening and so the
    output;
  * a hit at step k is a coordinate of v_k, a linear functional of
    norm 1, and v_k is the move of a state after floor((k-1)/2) shifts,
    so the computed hit h~ lies within e = floor((k-1)/2) c of the
    exact hit h.  In half-ulps |h~| is x = sqrt(s h~^2), where s is the
    mass scale below (1 or 2), and, with no clip at 0,
    h^2 >= (x - e)^2 - 2 e^2 = s h~^2 - e (2x + e).

A cell side (the left hits of j, or its right hits) sits on one parity
class, so it is read at every other step, with one scale s.  Read at K
steps, with computed hits h~_i, errors e_i <= E (E is the e of its last
read: (K - 1) c) and S = sum s h~_i^2, an exact integer:

  * summing the per-hit bound, sum h_i^2 >= S - 2E sum x_i - K E^2;
  * by Cauchy-Schwarz, sum x_i <= sqrt(K S) <= isqrt(K S) + 1;
  * so sum h_i^2 >= S - 2E (isqrt(K S) + 1) - K E^2, and >= 0 (a
    zero hit adds nothing to S; counting it in K, as here, only loosens
    the bound).

That is the side's certified lower bound on the mass it has absorbed
(`_certified`).  The walk only adds up S per side; a bound never exceeds
its S, so a cell whose two sums stay at most `need` (total less the
tail) cannot stop, and both bounds are certified only at the steps where
the sums exceed it, and at the budget.  A side's bound is its own S, K
and E alone, so a one-cell run and a row run report the same.  Between
two nonzero hits on a cell's sides its bound can only fall (K and E
grow, S stays), so checking at the steps with such a hit finds the first
step whose certified residual is below the tail.  With lower bounds L
and R, the exact p_left is at most the absorbed left mass plus the
interior mass, which is 1 minus the absorbed right mass, so at most
1 - R; hence residual = 1 - L - R brackets both sides, and it is never
below the exact interior mass, so the simulator never stops a cell
before the exact stepper would.

Masses are integers in units of 2^-(2F+2), one half-ulp squared: the
state's mass is 4 sum(A^2) at a pair boundary, 2 sum(U^2) after the
pair's first move and sum(V^2) after its second, and a hit's mass h^2
carries the same factor, 2 after the first move and 1 after the second.
Every step checks ``lost + interior + drift == 2^(2F+2)`` in integers
on the moved state, before any floor, as the exact stepper checks its
identity.  U^T sends R[1] and L[n-1] to two barrier slots each, which P
drops, so a move adds 2 scale (R[1]^2 + L[n-1]^2) to ``lost``, at the
scale of the moved state.  The floor then changes the mass by the exact
integer sum(V^2) - 4 sum((V >> 1)^2), and ``drift`` adds it up from the
parities alone: 4 floor(v/2)^2 is v^2 for even v and (v - 1)^2 for odd
v, so each odd amplitude loses 2v - 1.  The next move's measured sum
then checks the floor as well as the move, so the identity fails if a
move loses or creates mass or if a floor is not the floor of v/2.  The
hits are coordinates of the checked state, and their sums are kept per
cell side, apart from the identity.

F is chosen once from (n, tail_eps, max_steps).  Within max_steps a side
has K <= max_steps reads and E <= e_max = max_steps c, with e_max < 2^F.
Its exact hits carry at most 2^(2F+2) units, so by Minkowski
sqrt(S) <= 2^(F+1) + sqrt(K) E, and its widening
2E (isqrt(K S) + 1) + K E^2 is at most
2^(F+2) E sqrt(K) + 3 K E^2 + 2E <= K e_max (2^(F+2) + 3 e_max + 2),
less than max_steps e_max 2^(F+3) units: the bound that each of a
side's max_steps hits, widened one by one, had to stay under.  So a
cell's widening is in all less than 4 max_steps e_max 2^-F, and F makes
that at most tail_eps / 2.
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
    right.  The three fields are nonnegative and sum to exactly 1, so
    each lies in [0, 1] and the two bounds sum to at most 1; every
    construction (``_replace`` included) checks both.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SimulationReport:
        self = super().__new__(cls, *args, **kwargs)
        if self.residual < 0:
            raise ConsistencyError(f"negative residual {self.residual}")
        low = min(self.p_left_lower, self.p_right_lower)
        if low < 0:
            raise ConsistencyError(f"negative lower bound {low}")
        total = self.p_left_lower + self.p_right_lower + self.residual
        if total != 1:
            raise ConsistencyError(f"report mass {total} != 1")
        return self

    @classmethod
    def _make(cls, fields) -> SimulationReport:
        return cls(*fields)


# Step budget of one run of the transposed walk, for one cell or a
# row.  A step costs O(n) operations on the n - 1 live slots, ints of
# about F bits: some 12 us at n = 46 for one cell on a 2-vCPU machine
# (Python 3.11), and a cell needs about n^3 steps.  The centre cell of
# row 46 certifies at 1e-10 in 95,675 steps (1.2 s), and those of rows
# 47 and 48 exit at the budget after about 1.1-1.2 s.
MAX_STEPS = 100_000


def simulate(j: int, n: int, tail_eps: Rational,
             max_steps: int = MAX_STEPS) -> SimulationReport:
    """Run the walk until the certified residual drops below tail_eps.

    tail_eps is a hard bound, not a heuristic: the returned report
    brackets the true probabilities (proof in the module docstring).  If
    max_steps is reached first, StepBudgetExceeded carries the partial
    report, which brackets them too.  The run is that of
    `simulate_row`, read at the one cell j.
    """
    _validate(j, n, 1, n - 1)
    return _run((j,), n, tail_eps, max_steps)[0]


def simulate_row(n: int, tail_eps: Rational,
                 max_steps: int = MAX_STEPS) -> list[SimulationReport]:
    """The reports of simulate(j, n, tail_eps, max_steps) for
    j = 1..n-1, from one run of the transposed walk.

    Each report is the one the one-cell call returns.  If max_steps is
    reached before every cell has stopped, StepBudgetExceeded carries
    the partial report of the lowest j still running.
    """
    _validate(1, n, 1, n - 1)
    return _run(range(1, n), n, tail_eps, max_steps)


def _run(cells, n: int, tail_eps: Rational,
         max_steps: int) -> list[SimulationReport]:
    """`_walk` at the F that the module docstring derives from
    (n, tail_eps, max_steps)."""
    tail_eps = Fraction(tail_eps)
    if tail_eps <= 0:
        raise ValueError(f"tail_eps must be > 0, got {tail_eps}")
    e_max = max_steps * _round_error(n)
    scaled = 8 * max_steps * e_max * tail_eps.denominator
    frac_bits = max(scaled.bit_length() - tail_eps.numerator.bit_length() + 1,
                    e_max.bit_length() + 1)
    return _walk(cells, n, tail_eps, max_steps, frac_bits)


def _round_error(n: int) -> int:
    """ceil(sqrt(2(n-1))): half-ulps one shift adds to the state error."""
    return isqrt(2 * (n - 1) - 1) + 1


def _move_transposed(right, left, odd: bool, holds_last: bool
                     ) -> tuple[list[int], list[int], int]:
    """P U^T on the live class without the 1/sqrt2 factor:
    (right', left', dropped), with right'[s] = R[s+1] + L[s-1] and
    left'[s] = R[s+1] - L[s-1] on the other class.

    right and left hold the sites of one parity, 1, 3, ... (odd) or
    2, 4, ... (even), up to n - 1 (holds_last when the class holds
    n - 1), and are consumed.  U^T sends R[1] to both slots of site 0
    and L[n-1] to both of site n, which P drops;
    dropped = R[1]^2 + L[n-1]^2.
    """
    dropped = 0
    if odd:
        r = right.pop(0)
        dropped = r * r
    else:  # L[0] = 0 feeds site 1
        left.insert(0, 0)
    if holds_last:
        v = left.pop()
        dropped += v * v
    up = list(map(add, right, left))
    down = list(map(sub, right, left))
    if not holds_last:  # site n - 1 takes L[n-2], and R[n] = 0
        up.append(left[-1])
        down.append(-left[-1])
    return up, down, dropped


def _halve(values: list[int]) -> list[int]:
    """The floor of v/2 of each amplitude: the one rounding the
    simulator makes, after the second move of a pair."""
    return [v >> 1 for v in values]


def _taps(cells, n: int) -> tuple[list, list]:
    """For the live class of each parity: the hits of the given start
    sites read there, as (slot of right + left, index into the hit
    sums), v_k[(j, R)] at 2j and v_k[(n - j, L)] at 2j + 1."""
    size = ((n - 1) // 2, n // 2)  # slots per direction, by parity
    taps = ([], [])
    for j in cells:
        taps[j & 1].append(((j - 1) // 2, 2 * j))
        p = (n - j) & 1
        taps[p].append((size[p] + (n - j - 1) // 2, 2 * j + 1))
    return taps


def _simulate(j: int, n: int, tail_eps: Fraction, max_steps: int,
              frac_bits: int) -> SimulationReport:
    """simulate() at a given number of fractional bits."""
    return _walk((j,), n, tail_eps, max_steps, frac_bits)[0]


def _walk(cells, n: int, tail_eps: Fraction, max_steps: int,
          frac_bits: int) -> list[SimulationReport]:
    """The transposed walk at frac_bits fractional bits: the report of
    each start site in cells (ascending), each cut at the first step
    where its own certified residual is below tail_eps.

    Each step only adds the squared hits, at the step's scale, to the
    sums of their cell sides.  A side's bound is certified from its sum
    (`_certified`) only when its cell can stop, that is when the cell's
    two sums exceed what a stop needs, or at the budget.
    """
    total = 1 << (2 * frac_bits + 2)
    # For an integer rest, rest < stop iff rest / total < tail_eps, and a
    # cell's rest is total less its two lower bounds.
    stop = -(-tail_eps.numerator * total // tail_eps.denominator)
    need = total - stop
    c = _round_error(n)
    last = (n - 1) & 1  # the parity of site n - 1
    reports = {}
    sums = [0] * (2 * n)  # S of the left and of the right side of j
    active = list(cells)
    taps = _taps(active, n)
    # v_1 = P U^T e_(0,L) = e_(1,R) - e_(1,L), at F bits.
    right = [1 << frac_bits] + [0] * (n // 2 - 1)
    left = [-v for v in right]
    state = right + left
    steps = lost = drift = 0
    stopping = need < 0
    while True:
        if stopping:
            stopping = False
            for j in active:
                if sums[2 * j] + sums[2 * j + 1] > need:
                    bounds = _bounds(sums, j, n, steps, c)
                    if sum(bounds) > need:
                        reports[j] = _report(bounds, total, steps)
            active = [j for j in active if j not in reports]
            if not active:
                return [reports[j] for j in cells]
            taps = _taps(active, n)
        if steps >= max_steps:
            report = _report(_bounds(sums, active[0], n, steps, c), total,
                             steps)
            raise StepBudgetExceeded(
                f"residual {float(report.residual):.3e} still above "
                f"tail_eps after {steps} steps", report)
        if steps:
            odd = steps & 1 == 1
            if not odd:
                # v^2 - 4 floor(v/2)^2 is 0 for even v and 2v - 1 for
                # odd v.
                odd_values = [v for v in state if v & 1]
                drift += 2 * sum(odd_values) - len(odd_values)
                right, left = _halve(right), _halve(left)
            right, left, dropped = _move_transposed(right, left, odd,
                                                    odd == last)
            state = right + left
            # The dropped slots' mass at the scale of the moved state.
            lost += (2 if odd else 4) * dropped
        steps += 1
        # Masses carry a scale of 2 after a pair's first move, 1 after
        # its second.
        scale = 1 + (steps & 1)
        if lost + scale * sum(map(mul, state, state)) + drift != total:
            raise ConsistencyError(f"fixed-point mass identity broken at "
                                   f"step {steps} (n={n}, F={frac_bits})")
        for slot, at in taps[steps & 1]:
            hit = state[slot]
            if hit:
                sums[at] += scale * hit * hit
                if sums[at] + sums[at ^ 1] > need:
                    stopping = True


def _certified(mass: int, reads: int, c: int) -> int:
    """Lower bound on the exact mass absorbed on one side, from the sum
    of its computed squared hits over its first reads reads (module
    docstring); e = (reads - 1) c bounds the error of every one."""
    if not mass:
        return 0
    e = (reads - 1) * c
    return max(mass - 2 * e * (isqrt(reads * mass) + 1) - reads * e * e, 0)


def _bounds(sums: list[int], j: int, n: int, steps: int,
            c: int) -> tuple[int, int]:
    """The certified left and right lower bounds of j after steps steps.
    A side of a site of parity p is read at the steps k = p (mod 2)."""
    return (_certified(sums[2 * j], (steps + (j & 1)) // 2, c),
            _certified(sums[2 * j + 1], (steps + ((n - j) & 1)) // 2, c))


def _report(bounds: tuple[int, int], total: int,
            steps: int) -> SimulationReport:
    left, right = bounds
    return SimulationReport(Fraction(left, total), Fraction(right, total),
                            Fraction(total - left - right, total), steps)


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
