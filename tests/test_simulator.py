"""Tests for the exact stepper, the fixed-point simulator and the path
enumeration oracle."""

from __future__ import annotations

import copy
import hashlib
import pickle
import random
from fractions import Fraction

import pytest

from hadwalk import simulator
from hadwalk.errors import ConsistencyError, StepBudgetExceeded
from hadwalk.simulator import (
    AmplitudeState,
    SignedPathTally,
    SimulationReport,
    _simulate,
    check_conservation,
    enumerate_paths,
    enumerate_paths_right,
    initial_state,
    interior_mass,
    simulate,
    step,
)
from hadwalk.walk_core import gf_coefficients, p_exact

F = Fraction


# ----------------------------------------------------------------- stepping


def test_single_step_n2():
    s = step(initial_state(1, 2), 2)
    assert s.absorbed_left == F(1, 2)
    assert s.absorbed_right == F(1, 2)
    assert not s.amps
    assert s.step == 1


def test_single_step_n3():
    s = step(initial_state(1, 3), 3)
    assert s.absorbed_left == F(1, 2)
    assert s.absorbed_right == 0
    assert dict(s.amps) == {(2, "R"): 1}


def test_empty_interior_is_fixed_point():
    s = step(initial_state(1, 2), 2)
    s2 = step(s, 2)
    assert not s2.amps
    assert s2.absorbed_left == s.absorbed_left
    assert s2.absorbed_right == s.absorbed_right
    assert s2.step == s.step + 1


def test_step_rejects_wrong_n():
    with pytest.raises(ValueError):
        step(initial_state(1, 3), 4)


def test_destructive_interference_cancels_amplitude():
    # From |2, R> at n = 4: after two steps each barrier has taken 1/4
    # (the LL branch arrives at 0 with numerator -1), and at step three
    # the two site-2 amplitudes feed (1, L) with opposite signs, so it
    # vanishes while (3, R) doubles.
    s2 = step(step(initial_state(2, 4), 4), 4)
    assert s2.absorbed_left == F(1, 4)
    assert s2.absorbed_right == F(1, 4)
    assert dict(s2.amps) == {(2, "L"): 1, (2, "R"): 1}
    s3 = step(s2, 4)
    assert dict(s3.amps) == {(3, "R"): 2}
    assert s3.absorbed_left == F(1, 4)


def test_conservation_on_random_triples():
    rng = random.Random(84068)
    for _ in range(100):
        n = rng.randint(2, 10)
        j = rng.randint(1, n - 1)
        steps = rng.randint(0, 40)
        s = initial_state(j, n)
        check_conservation(s)
        for _ in range(steps):
            s = step(s, n)
            check_conservation(s)
        assert (
            s.absorbed_left + s.absorbed_right + interior_mass(s) == 1
        )


def _reference_step(amps, absorbed_left, absorbed_right, n, new_step):
    """The coined-walk rule on a dict keyed by (site, "L"/"R") with
    Fraction masses: a layout-independent reference for step()."""
    new = {}
    for (site, direction), a in amps.items():
        for key, value in (((site + 1, "R"), a),
                           ((site - 1, "L"), a if direction == "R" else -a)):
            new[key] = new.get(key, 0) + value
    new = {key: val for key, val in new.items() if val}
    scale = F(1, 2**new_step)
    absorbed_left += new.pop((0, "L"), 0) ** 2 * scale
    absorbed_right += new.pop((n, "R"), 0) ** 2 * scale
    return new, absorbed_left, absorbed_right


def test_step_matches_reference_stepper():
    for n in range(2, 9):
        for j in range(1, n):
            s = initial_state(j, n)
            amps, left, right = {(j, "R"): 1}, F(0), F(0)
            for k in range(1, 201):
                s = step(s, n)
                amps, left, right = _reference_step(amps, left, right, n, k)
                assert s.step == k
                assert s.amps == amps, (j, n, k)
                assert (s.absorbed_left, s.absorbed_right) == (left, right)
                assert interior_mass(s) == sum(
                    (F(a * a, 2**k) for a in amps.values()), F(0))


def test_conservation_failure_is_detected():
    s = initial_state(3, 7)
    for _ in range(9):
        s = step(s, 7)
    check_conservation(s)
    site = next(i for i, a in enumerate(s.right) if a)
    for delta in (1, -1):
        right = list(s.right)
        right[site] += delta
        with pytest.raises(ConsistencyError):
            check_conservation(s._replace(right=tuple(right)))
        with pytest.raises(ConsistencyError):
            check_conservation(s._replace(left_num=s.left_num + delta))


# ---------------------------------------------------------------- simulate


def test_simulate_n2_terminates_exactly():
    rep = simulate(1, 2, F(1, 10**12))
    assert rep.p_left_lower == F(1, 2)
    assert rep.p_right_lower == F(1, 2)
    assert rep.residual == 0
    assert rep.steps_run == 1


def test_simulate_brackets_known_values():
    for j, n, expect in [(1, 3, F(2, 3)), (2, 3, F(1, 3))]:
        rep = simulate(j, n, F(1, 10**12))
        assert rep.p_left_lower <= expect <= rep.p_left_lower + rep.residual
        assert rep.residual < F(1, 10**12)


def test_simulate_brackets_p_exact_sample():
    for j, n in [(1, 5), (3, 6), (4, 9)]:
        rep = simulate(j, n, F(1, 10**10))
        p = p_exact(j, n)
        assert rep.p_left_lower <= p <= rep.p_left_lower + rep.residual
        q = 1 - p
        assert rep.p_right_lower <= q <= rep.p_right_lower + rep.residual


def test_simulate_certifies_row_20():
    # Row 20 needs about 7,700 steps at 1e-10, inside the default budget.
    eps = F(1, 10**10)
    rep = simulate(10, 20, eps)
    p = p_exact(10, 20)
    assert rep.p_left_lower <= p <= rep.p_left_lower + rep.residual
    assert rep.residual < eps


def _brackets(rep, p):
    return (rep.p_left_lower <= p <= rep.p_left_lower + rep.residual
            and rep.p_right_lower <= 1 - p <= rep.p_right_lower + rep.residual)


def test_simulate_brackets_every_cell_to_n16_and_centres_to_n30():
    eps = F(1, 10**10)
    cells = [(j, n) for n in range(2, 17) for j in range(1, n)]
    cells += [(n // 2, n) for n in range(17, 31)]
    for j, n in cells:
        rep = simulate(j, n, eps)
        assert _brackets(rep, p_exact(j, n)), (j, n)
        assert rep.residual < eps, (j, n)


def test_simulate_stops_where_the_exact_stepper_does():
    # The residual is never below the exact interior mass, so the run
    # cannot stop early, and at the default precision it does not stop
    # late either: the step counts match the exact stepper's.
    for j, n, steps in [(3, 10, 907), (7, 14, 2597), (11, 22, 10289)]:
        assert simulate(j, n, F(1, 10**10)).steps_run == steps
    eps = F(1, 10**10)
    for n in range(2, 8):
        for j in range(1, n):
            s = initial_state(j, n)
            while interior_mass(s) >= eps:
                s = step(s, n)
            assert simulate(j, n, eps).steps_run == s.step, (j, n)


def test_coarse_precision_keeps_the_bracket():
    # At 10 fractional bits the rounding error is large, and the widening
    # it earns keeps the residual above the tail, so nearly every run
    # ends at the budget; final or partial, each report must bracket.
    for n in range(2, 13):
        for j in range(1, n):
            try:
                rep = _simulate(j, n, F(1, 1000), 1000, 10)
            except StepBudgetExceeded as exc:
                rep = exc.report
            assert _brackets(rep, p_exact(j, n)), (j, n)
            assert rep.p_left_lower >= 0 and rep.p_right_lower >= 0


def test_simulation_report_checks_every_construction():
    rep = SimulationReport(p_left_lower=F(1, 2), p_right_lower=F(1, 4),
                           residual=F(1, 4), steps_run=3)
    assert rep == SimulationReport(F(1, 2), F(1, 4), F(1, 4), 3)
    with pytest.raises(AttributeError):
        rep.residual = F(0)
    for bad in ({"residual": F(-1, 4), "p_left_lower": F(1)},
                {"residual": F(1, 8)},
                {"p_left_lower": F(-1, 4), "p_right_lower": F(1)}):
        with pytest.raises(ConsistencyError):
            rep._replace(**bad)
        with pytest.raises(ConsistencyError):
            SimulationReport(**{**rep._asdict(), **bad})


def test_budget_error_survives_pickle_and_copy():
    # The partial report crosses a process boundary with the message.
    with pytest.raises(StepBudgetExceeded) as info:
        simulate(6, 12, F(1, 10**10), max_steps=10)
    exc = info.value
    assert exc.report.steps_run == 10
    for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc),
                  copy.deepcopy(exc)):
        assert type(clone) is StepBudgetExceeded
        assert str(clone) == str(exc)
        assert clone.report == exc.report


def test_simulate_budget_error_carries_partial_report():
    with pytest.raises(StepBudgetExceeded) as exc:
        simulate(1, 9, F(1, 10**10), max_steps=10)
    rep = exc.value.report
    assert rep.steps_run == 10
    assert rep.p_left_lower + rep.p_right_lower + rep.residual == 1
    assert str(exc.value) == (
        "residual 3.154e-01 still above tail_eps after 10 steps")
    assert rep == SimulationReport(
        p_left_lower=F(391691965555096314165633347,
                       618970019642690137449562112),
        p_right_lower=F(16018267109856453169512423,
                        309485009821345068724781056),
        residual=F(195241519867880916944903919,
                   618970019642690137449562112),
        steps_run=10)


def test_simulate_reports_are_pinned():
    # Every field of two reports, down to the last bit: the stepping
    # layout may change, the fixed-point arithmetic may not.
    assert simulate(7, 14, F(1, 10**10)) == SimulationReport(
        p_left_lower=F(63077365538113154430946262911434264361552999,
                       178405961588244985132285746181186892047843328),
        p_right_lower=F(57664298016189877929613148331896648670939463,
                        89202980794122492566142873090593446023921664),
        residual=F(17752074842113186605959330344411403,
                   178405961588244985132285746181186892047843328),
        steps_run=2597)
    assert simulate(3, 10, F(1, 10**10)) == SimulationReport(
        p_left_lower=F(32466262548776631611428381192301947435748261,
                       89202980794122492566142873090593446023921664),
        p_right_lower=F(28368359118411014838022466120807469218941505,
                        44601490397061246283071436545296723011960832),
        residual=F(8523831278669559656676560150290393,
                   89202980794122492566142873090593446023921664),
        steps_run=907)


def test_simulate_reports_of_rows_2_to_12_are_pinned():
    # One digest over the final or partial report of every cell of rows
    # 2..12 at the default precision and at two coarse ones, where the
    # floors and the widening decide most of the result.
    digest = hashlib.sha256()
    for run in (lambda j, n: simulate(j, n, F(1, 10**10)),
                lambda j, n: _simulate(j, n, F(1, 1000), 1000, 10),
                lambda j, n: _simulate(j, n, F(1, 7), 3, 5)):
        for n in range(2, 13):
            for j in range(1, n):
                try:
                    rep = run(j, n)
                except StepBudgetExceeded as exc:
                    rep = exc.report
                digest.update(repr(rep).encode())
    assert digest.hexdigest() == (
        "a6d0b1ff37f1535bce141173152673c549ac3211b1cdb0b9d3e417828088ead7")


def test_fixed_point_identity_catches_a_faulty_move(monkeypatch):
    # Call 5 is the first move of the third pair, call 6 its second: the
    # identity is checked on the moved state, before the pair's floor.
    move = simulator._move_live
    for faulty_call in (5, 6):
        calls = []

        def faulty(*args):
            right, left, left_hit, right_hit = move(*args)
            calls.append(None)
            if len(calls) == faulty_call:
                right[0] += 1  # changes the interior mass by 2v + 1, never 0
            return right, left, left_hit, right_hit

        monkeypatch.setattr(simulator, "_move_live", faulty)
        with pytest.raises(ConsistencyError,
                           match=f"fixed-point mass identity broken at step "
                                 f"{faulty_call} "):
            simulate(3, 7, F(1, 10**10))


def test_fixed_point_identity_catches_a_faulty_floor(monkeypatch):
    # Each pair floors its right list, then its left one, so call 5 is
    # the right list of the third pair, after step 6; step 7 measures it.
    halve = simulator._halve
    calls = []

    def faulty(values):
        calls.append(None)
        return values if len(calls) == 5 else halve(values)

    monkeypatch.setattr(simulator, "_halve", faulty)
    with pytest.raises(ConsistencyError,
                       match="fixed-point mass identity broken at step 7"):
        simulate(3, 7, F(1, 10**10))


def test_simulate_validates_input():
    with pytest.raises(ValueError):
        simulate(0, 3, F(1, 100))
    with pytest.raises(ValueError):
        simulate(3, 3, F(1, 100))
    with pytest.raises(ValueError):
        simulate(1, 3, F(0))


def test_partial_absorption_matches_hand_sums():
    # p_1^(3): absorbed mass arrives as 1/2, 1/8, 1/32, ... at odd steps
    s = initial_state(1, 3)
    seen = []
    for _ in range(6):
        s = step(s, 3)
        seen.append(s.absorbed_left)
    assert seen[0] == F(1, 2)
    assert seen[2] == F(5, 8)
    assert seen[4] == F(21, 32)


# -------------------------------------------------------- path enumeration


def test_enumerate_paths_frozen_examples():
    assert enumerate_paths(1, 3, 1).counts == (1,)
    assert enumerate_paths(1, 3, 3).counts == (1, 0, -1)
    # LLL from site 3: two overlapping LL blocks, sign +1
    assert enumerate_paths(3, 5, 3).counts[2] == 1


def test_enumerate_paths_guard():
    with pytest.raises(ValueError):
        enumerate_paths(1, 3, 25)
    with pytest.raises(ValueError):
        enumerate_paths(1, 3, 0)
    with pytest.raises(ValueError):
        enumerate_paths(0, 3, 4)


def test_enumeration_matches_series_coefficients():
    for n in range(2, 7):
        for j in range(1, n):
            assert (
                list(enumerate_paths(j, n, 14).counts)
                == gf_coefficients(j, n, 14)
            ), (j, n)


def test_right_tally_squares_give_right_absorption():
    # The right tally drives absorbed_right exactly as the left one
    # drives absorbed_left.
    for n in range(2, 6):
        for j in range(1, n):
            counts = enumerate_paths_right(j, n, 12).counts
            s = initial_state(j, n)
            for _ in range(12):
                s = step(s, n)
            expect = sum(
                F(c * c, 2**m) for m, c in enumerate(counts, start=1)
            )
            assert s.absorbed_right == expect, (j, n)


def test_outer_column_complement_sign_rule():
    # For the outer columns the first move is forced (a path from 1
    # absorbed on the right must open with R, its complement from n-1
    # must open with L), which pins the sign relation per length:
    # tally_left(n-1)[m] = (-1)^(m-1) * tally_right(1)[m].
    for n in range(2, 6):
        left = enumerate_paths(n - 1, n, 12).counts
        right = enumerate_paths_right(1, n, 12).counts
        for m in range(1, 13):
            assert left[m - 1] == (-1) ** (m - 1) * right[m - 1], (n, m)


def test_interior_columns_admit_no_global_sign_rule():
    # From site 2 of 4 the length-4 left paths LRLL and RLLL carry
    # opposite signs and cancel, while their complements both carry +1:
    # no per-row global sign can relate the two tallies for interior j.
    assert enumerate_paths(2, 4, 4).counts[3] == 0
    assert enumerate_paths_right(2, 4, 4).counts[3] == 2


def test_absorbed_mass_equals_squared_path_sums():
    for n in range(2, 6):
        for j in range(1, n):
            counts = enumerate_paths(j, n, 14).counts
            s = initial_state(j, n)
            for _ in range(14):
                s = step(s, n)
            expect = sum(
                F(c * c, 2**m) for m, c in enumerate(counts, start=1)
            )
            assert s.absorbed_left == expect, (j, n)


def test_signed_path_tally_is_plain_data():
    tally = SignedPathTally(counts=(1, 0, -1))
    assert tally.counts == (1, 0, -1)
