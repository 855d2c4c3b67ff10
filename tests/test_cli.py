"""End-to-end tests for the command-line front end (in-process)."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadwalk
from hadwalk import (
    cli,
    errors,
    residue_engine,
    simulator,
    verification,
    walk_core,
)
from hadwalk.cells import METHODS
from hadwalk.cli import (
    CommandConfig,
    _floor_log10,
    canonical_json,
    decimal_expansion,
    parse_argv,
    run,
    significant,
)
from hadwalk.errors import StepBudgetExceeded
from hadwalk.exactq import Polynomial
from hadwalk.simulator import SimulationReport
from hadwalk.verification import CheckResult
from hadwalk.walk_core import (
    absorption_denominator,
    gf,
    gf_denominator,
    p_exact,
)

F = Fraction


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- plumbing


def test_decimal_expansion_frozen():
    assert decimal_expansion(F(7, 10)) == "0.700000000000000000000000000000"
    assert decimal_expansion(F(2, 3)) == "0.666666666666666666666666666667"
    assert decimal_expansion(F(1)) == "1.00000000000000000000000000000"
    assert decimal_expansion(F(0)) == "0"
    assert decimal_expansion(F(1, 2 ** 34)) == "5.82076609134674072265625000000E-11"


def _nstr(x: Fraction, k: int) -> str:
    # The oracle: mpmath's layout of x, exact for a dyadic x, which is
    # an mpf at a precision of its numerator's length.
    with mpmath.workprec(max(53, x.numerator.bit_length() + 8)):
        return mpmath.nstr(mpmath.mpf(x.numerator) / x.denominator, k)


def test_significant_matches_mpmath_nstr():
    cases = [
        (F(1, 8), 2), (F(-1, 8), 2), (F(99999, 10000), 4), (F(0), 3),
        (F(1), 1), (F(10), 1), (F(100), 3), (F(10 ** 25), 20),
        (F(1, 2 ** 20), 5), (F(-3, 2 ** 70), 1), (F(12345), 4),
    ]
    rng = random.Random(5)
    for _ in range(3000):
        bits = rng.randint(16, 1024)
        num = rng.getrandbits(rng.randint(1, bits + 40)) or 1
        cases.append((F(rng.choice((1, -1)) * num, 1 << bits),
                      rng.randint(1, 20)))
    for x, k in cases:
        assert significant(x, k) == _nstr(x, k), (x, k)
    # A tie rounds up, and a carry adds a digit.
    assert significant(F(1, 8), 2) == "0.13"
    assert significant(F(99999, 10000), 4) == "10.0"
    assert significant(F(0), 3) == "0.0"


def test_floor_log10_is_exact():
    rng = random.Random(6)
    xs = [F(10) ** e for e in range(-30, 31)]
    xs += [F(10) ** e + d for e in (-8, 0, 8)
           for d in (F(1, 2 ** 90), -F(1, 2 ** 90))]
    xs += [F(rng.getrandbits(200) or 1, 1 << rng.randint(1, 400))
           for _ in range(500)]
    for x in xs:
        e = _floor_log10(x)
        assert F(10) ** e <= x < F(10) ** (e + 1), x


def test_canonical_json_round_trips():
    s = canonical_json({"b": 1, "a": {"y": "2", "x": [3, "4"]}})
    assert s == '{"a":{"x":[3,"4"],"y":"2"},"b":1}'
    assert canonical_json(json.loads(s)) == s


def test_command_config_validation():
    with pytest.raises(ValueError):
        CommandConfig(subcommand="prob", n=1, j=0)
    with pytest.raises(ValueError):
        CommandConfig(subcommand="prob", n=5, j=6)
    with pytest.raises(ValueError):
        CommandConfig(subcommand="prob", n=5, j=0, method="simulate")
    with pytest.raises(ValueError):
        CommandConfig(subcommand="table", n_max=1)
    with pytest.raises(ValueError):
        CommandConfig(subcommand="roots", n=4, precision_bits=8)
    with pytest.raises(ValueError):
        CommandConfig(subcommand="prob", n=3, j=1, tail_eps=F(2))
    # The evaluated formula covers both boundary conventions.
    assert CommandConfig(subcommand="prob", n=5, j=0).j == 0
    assert CommandConfig(subcommand="prob", n=5, j=5).j == 5
    # Immutable, and checked on every construction.
    cfg = CommandConfig(subcommand="prob", n=5, j=5)
    with pytest.raises(AttributeError):
        cfg.j = 6
    with pytest.raises(ValueError):
        cfg._replace(method="numeric")


def test_parse_argv_builds_config():
    cfg = parse_argv(["prob", "--n", "6", "--j", "2", "--method", "numeric",
                      "--format", "json", "--precision-bits", "256"])
    assert cfg == CommandConfig(subcommand="prob", n=6, j=2, method="numeric",
                                format="json", precision_bits=256)


@pytest.mark.parametrize("argv,required,fmt", [
    (["prob", "--n", "6", "--j", "2"], {"n": 6, "j": 2}, "frac"),
    (["table"], {}, "frac"),
    (["gf", "--n", "6", "--j", "2"], {"n": 6, "j": 2}, "text"),
    (["verify"], {}, "text"),
    (["roots", "--n", "6"], {"n": 6}, "text"),
])
def test_absent_options_keep_the_config_defaults(argv, required, fmt):
    # Only --format has a default on the command line, since it differs
    # by subcommand; every other default is CommandConfig's.
    assert parse_argv(argv) == CommandConfig(argv[0], **required, format=fmt)


# -------------------------------------------------------------------- prob


def test_prob_closed_frac(capsys):
    code, out, err = invoke(capsys, "prob", "--n", "4", "--j", "1",
                            "--method", "closed", "--format", "frac")
    assert (code, out, err) == (0, "7/10\n", "")


def test_prob_out_of_range_is_usage_error(capsys):
    code, out, err = invoke(capsys, "prob", "--n", "99", "--j", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: usage:") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["frac", "text", "csv", "json"])
def test_prob_prints_every_digit_of_a_large_cell(capsys, fmt):
    # p_6000^(12000) has about 6,400 digits, past the 4,300 at which
    # Python 3.11 refuses an int <-> str conversion by default; the
    # limit is back in place once the command returns.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, err = invoke(capsys, "prob", "--n", "12000", "--j", "6000",
                            "--format", fmt)
    assert (code, err, limit()) == (0, "", before)
    if fmt == "json":
        num, den = (json.loads(out)["p"][k] for k in ("num", "den"))
    elif fmt == "csv":
        num, den = out.splitlines()[1].split(",")[2:4]
    elif fmt == "text":
        num, den = out.splitlines()[1].split()[2].split("/")
    else:
        num, den = out.strip().split("/")
    # Decimal parses without the digit limit.
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == p_exact(6000, 12000)


def test_prob_boundary_conventions(capsys):
    code, out, _ = invoke(capsys, "prob", "--n", "7", "--j", "0")
    assert (code, out) == (0, "1\n")
    code, out, _ = invoke(capsys, "prob", "--n", "7", "--j", "7")
    assert (code, out) == (0, "0\n")


def test_prob_dec(capsys):
    code, out, _ = invoke(capsys, "prob", "--n", "4", "--j", "1",
                          "--format", "dec")
    assert code == 0
    assert out == "≈ 0.700000000000000000000000000000\n"


def test_prob_text(capsys):
    code, out, _ = invoke(capsys, "prob", "--n", "4", "--j", "1",
                          "--format", "text")
    assert code == 0
    assert "p_left  = 7/10" in out and "p_right = 3/10" in out


def test_prob_csv(capsys):
    code, out, _ = invoke(capsys, "prob", "--n", "4", "--j", "2",
                          "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "n,j,p_num,p_den,q_num,q_den,method",
        "4,2,2,5,3,5,residue",
    ]


def test_prob_json_shape_and_round_trip(capsys):
    code, out, _ = invoke(capsys, "prob", "--n", "4", "--j", "1",
                          "--format", "json")
    assert code == 0
    text = out.strip()
    obj = json.loads(text)
    assert obj["n"] == 4 and obj["j"] == 1 and obj["method"] == "residue"
    assert obj["p"] == {"num": "7", "den": "10"}
    assert obj["q"] == {"num": "3", "den": "10"}
    assert obj["decimal"] == "0.700000000000000000000000000000"
    assert canonical_json(obj) == text


def test_prob_simulate_reports_certified_bounds(capsys):
    code, out, _ = invoke(capsys, "prob", "--n", "3", "--j", "1",
                          "--method", "simulate", "--format", "json",
                          "--tail-eps", "1/1000")
    assert code == 0
    obj = json.loads(out)
    lo = F(int(obj["p"]["num"]), int(obj["p"]["den"]))
    res = F(int(obj["residual"]["num"]), int(obj["residual"]["den"]))
    assert lo <= F(2, 3) <= lo + res
    assert res <= F(1, 1000)
    assert obj["steps"] >= 1


def test_prob_simulate_certifies_row_22_within_the_default_budget(capsys):
    # The centre of row 22 needs 10,289 steps at the default tail, past
    # the exact stepper's old 10,000-step budget.
    code, out, err = invoke(capsys, "prob", "--n", "22", "--j", "11",
                            "--method", "simulate", "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    lo = F(int(obj["p"]["num"]), int(obj["p"]["den"]))
    res = F(int(obj["residual"]["num"]), int(obj["residual"]["den"]))
    assert lo <= p_exact(11, 22) <= lo + res
    assert res < F(1, 10 ** 10)
    assert obj["steps"] == 10_289


def test_prob_all_agreement(capsys):
    code, out, err = invoke(capsys, "prob", "--n", "5", "--j", "2",
                            "--method", "all")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "closed 7/17"
    assert lines[1] == "residue 7/17"
    assert lines[2] == "numeric 7/17"
    assert lines[3].startswith("simulate ")


def test_prob_numeric_json_is_the_exact_cell_to_n16(capsys):
    # The contour route's printed cell, byte for byte, is the one built
    # from p_exact: root finding may change, the rational may not.
    for n in range(2, 17):
        for j in range(1, n):
            code, out, err = invoke(capsys, "prob", "--n", str(n), "--j",
                                    str(j), "--method", "numeric",
                                    "--format", "json")
            p = p_exact(j, n)
            expected = canonical_json({
                "n": n, "j": j,
                "p": {"num": str(p.numerator), "den": str(p.denominator)},
                "q": {"num": str(p.denominator - p.numerator),
                      "den": str(p.denominator)},
                "decimal": decimal_expansion(p),
                "method": "numeric",
            })
            assert (code, err, out) == (0, "", expected + "\n"), (j, n)


def test_prob_all_detects_method_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(walk_core, "p_closed", lambda j, n: F(1, 3))
    code, out, err = invoke(capsys, "prob", "--n", "4", "--j", "1",
                            "--method", "all")
    assert code == 1
    assert len(out.splitlines()) == 4  # one value per method, then the verdict
    assert err.startswith("error: verification: exact methods disagree")


def test_prob_all_detects_bracket_miss(capsys, monkeypatch):
    def lying_simulate(j, n, tail_eps, max_steps=10_000):
        return SimulationReport(
            p_left_lower=F(9, 10), p_right_lower=F(1, 20),
            residual=F(1, 20), steps_run=1,
        )

    monkeypatch.setattr(simulator, "simulate", lying_simulate)
    code, _, err = invoke(capsys, "prob", "--n", "4", "--j", "1",
                          "--method", "all")
    assert code == 1
    assert "simulate interval misses" in err


def test_prob_step_budget_maps_to_precision_exit(capsys, monkeypatch):
    def exhausted(j, n, tail_eps, max_steps=10_000):
        raise StepBudgetExceeded("residual still above tail_eps", report=None)

    monkeypatch.setattr(simulator, "simulate", exhausted)
    code, _, err = invoke(capsys, "prob", "--n", "4", "--j", "1",
                          "--method", "simulate")
    assert code == 3
    assert err.startswith("error: precision:")


def test_prob_numeric_exhaustion_is_one_short_line(capsys, monkeypatch):
    # Under a 64-bit ceiling the 88-bit denominator bound of (20, 40)
    # cannot certify; the error names delta's size, not its digits.
    monkeypatch.setattr(residue_engine, "MAX_BITS", 64)
    code, out, err = invoke(capsys, "prob", "--n", "40", "--j", "20",
                            "--method", "numeric")
    assert (code, out) == (3, "")
    assert err.startswith("error: precision:") and err.count("\n") == 1
    assert "88-bit delta" in err
    assert len(err) < 200


def test_prob_numeric_value_outside_the_unit_interval_exits_one(
    capsys, monkeypatch
):
    # The contour engine checks its own value's range.
    monkeypatch.setattr(residue_engine, "_round_cell", lambda *args: F(3, 2))
    code, out, err = invoke(capsys, "prob", "--n", "3", "--j", "1",
                            "--method", "numeric")
    assert (code, out) == (1, "")
    assert err == ("error: verification: contour value at j=1, n=3 "
                   "outside [0, 1]\n")


def test_prob_numeric_above_the_row_ceiling_fails_before_any_work(
    capsys, monkeypatch
):
    # Rows above MAX_ROW exit 3 on one line before a polynomial is built
    # or a root is found.
    def refuse(*args, **kwargs):
        raise AssertionError("work started above the row ceiling")

    monkeypatch.setattr(residue_engine, "gf_denominator", refuse)
    monkeypatch.setattr(residue_engine, "find_roots", refuse)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "prob", "--n", "151", "--j", "75",
                            "--method", "numeric")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == ("error: precision: the contour route runs rows up to "
                   "n = 150, got n = 151\n")


def test_roots_above_the_row_ceiling_fails_before_any_work(
    capsys, monkeypatch
):
    # roots runs the contour route's root finder, so it shares its row
    # ceiling and fails as prob does, before a polynomial is built.
    def refuse(*args, **kwargs):
        raise AssertionError("work started above the row ceiling")

    monkeypatch.setattr(residue_engine, "gf_denominator", refuse)
    monkeypatch.setattr(residue_engine, "find_roots", refuse)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "roots", "--n", "151")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == ("error: precision: the contour route runs rows up to "
                   "n = 150, got n = 151\n")


# ------------------------------------------------------------------- table


def test_table_reduced_frozen(capsys):
    code, out, _ = invoke(capsys, "table", "--n-max", "4")
    assert code == 0
    assert out.splitlines() == [
        "n=2  1/2",
        "n=3  2/3  1/3",
        "n=4  7/10  2/5  3/10",
    ]


def test_table_common_denominator_matches_reference(capsys):
    code, out, _ = invoke(capsys, "table", "--n-max", "9",
                          "--common-denominator")
    assert code == 0
    rows = [line.split()[1:] for line in out.splitlines()]
    assert rows[2] == ["7/10", "4/10", "3/10"]
    assert rows[4] == ["41/58", "24/58", "21/58", "20/58", "17/58"]
    assert rows[7] == ["408/577", "239/577", "210/577", "205/577",
                       "204/577", "203/577", "198/577", "169/577"]


def test_table_json_keeps_the_common_denominator(capsys):
    _, out, _ = invoke(capsys, "table", "--n-max", "4", "--format", "json",
                       "--common-denominator")
    cell = json.loads(out)[4]
    assert (cell["n"], cell["j"]) == (4, 2)
    assert cell["p"] == {"num": "4", "den": "10"}
    assert cell["q"] == {"num": "6", "den": "10"}
    assert cell["decimal"] == decimal_expansion(F(2, 5))


def test_table_csv_deterministic_order(capsys):
    code, out, _ = invoke(capsys, "table", "--n-max", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,j,p_num,p_den,q_num,q_den,method"
    pairs = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert pairs == sorted(pairs)
    assert "4,1,7,10,3,10,residue" in lines


def test_table_csv_honors_common_denominator(capsys):
    _, out, _ = invoke(capsys, "table", "--n-max", "4", "--format", "csv",
                       "--common-denominator")
    assert "4,2,4,10,6,10,residue" in out.splitlines()


def test_table_json_round_trip_and_cells(capsys):
    code, out, _ = invoke(capsys, "table", "--n-max", "5", "--format", "json")
    text = out.strip()
    cells = json.loads(text)
    assert code == 0
    assert canonical_json(cells) == text
    assert len(cells) == 1 + 2 + 3 + 4
    assert cells[3] == {
        "n": 4, "j": 1, "p": {"num": "7", "den": "10"},
        "q": {"num": "3", "den": "10"},
        "decimal": "0.700000000000000000000000000000",
        "method": "residue",
    }


def test_table_dec_marks_approximations(capsys):
    _, out, _ = invoke(capsys, "table", "--n-max", "3", "--format", "dec")
    assert "≈0.666666666666666666666666666667" in out


# ---------------------------------------------------------------------- gf


def test_gf_text_matches_reference_display(capsys):
    code, out, _ = invoke(capsys, "gf", "--n", "5", "--j", "4")
    assert code == 0
    assert out == "f_4^(5)(z) = z^4 / (4z^6 - 5z^4 + 3z^2 - 1)\n"


def test_gf_equals_factored_reference_product():
    left = Polynomial((-1, -1, 1, 2), var="z")   # 2z^3 + z^2 - z - 1
    right = Polynomial((1, -1, -1, 2), var="z")  # 2z^3 - z^2 - z + 1
    num = Polynomial.monomial(4, var="z")
    from hadwalk.exactq import RationalFunction

    assert gf(4, 5) == RationalFunction(num, left * right)


def test_gf_json(capsys):
    code, out, _ = invoke(capsys, "gf", "--n", "5", "--j", "4",
                          "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["num"] == ["0", "0", "0", "0", "1"]
    assert obj["den"] == ["-1", "0", "3", "0", "-5", "0", "4"]
    assert obj["var"] == "z"


def test_gf_zero_at_right_barrier(capsys):
    code, out, _ = invoke(capsys, "gf", "--n", "5", "--j", "5")
    assert (code, out) == (0, "f_5^(5)(z) = 0\n")


# SHA-256 of the text then the JSON output of `gf` for every cell
# j = 1..n of rows 2..16, row by row, then for the cell (1, 200).  It was
# taken from a general polynomial composition t -> z^2, so the
# coefficient spreading in gf must reproduce those bytes.
_GF_OUTPUT_SHA256 = (
    "0cdbfd001130b22d386993887c75bcf0e8015605c85e171c14736369d1ba7062")


def test_gf_output_is_pinned(capsys):
    digest = hashlib.sha256()
    cells = [(j, n) for n in range(2, 17) for j in range(1, n + 1)]
    for j, n in [*cells, (1, 200)]:
        for fmt in ("text", "json"):
            code, out, err = invoke(capsys, "gf", "--n", str(n), "--j", str(j),
                                    "--format", fmt)
            assert (code, err) == (0, ""), (j, n, fmt)
            digest.update(out.encode())
    assert digest.hexdigest() == _GF_OUTPUT_SHA256


# SHA-256 of `gf --n 200 --j 100` text then JSON, computed when gf still
# reduced its pair by the gcd, which it no longer calls.
_GF_CENTRE_200_SHA256 = (
    "793551d9beb1166fac3d0aaa4f0e27959ab837e3533a9e151292fec0d4a92231")


def test_gf_centre_of_row_200_is_pinned(capsys):
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        code, out, err = invoke(capsys, "gf", "--n", "200", "--j", "100",
                                "--format", fmt)
        assert (code, err) == (0, ""), fmt
        digest.update(out.encode())
    assert digest.hexdigest() == _GF_CENTRE_200_SHA256


# ------------------------------------------------------------------ verify


def test_verify_all_passes(capsys):
    code, out, err = invoke(capsys, "verify", "--n-max", "5")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 19
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "18/18 checks passed (suite all, n <= 5)"


def test_verify_json(capsys):
    code, out, _ = invoke(capsys, "verify", "--n-max", "4",
                          "--suite", "identities", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["suite"] == "identities" and obj["n_max"] == 4
    assert [r["name"] for r in obj["results"]] == [
        "watrous-recurrence", "row-recurrence", "outer-pair-sum",
        "first-two-entries", "boundary-conventions", "convergence-sandwich",
    ]
    assert canonical_json(obj) == out.strip()


def test_verify_failure_exits_one_and_names_the_identity(capsys, monkeypatch):
    def rigged(suite, n_max, tail_eps):
        return [CheckResult(name="row-recurrence", passed=False,
                            detail="broken at n=6")]

    monkeypatch.setattr(verification, "run_suite", rigged)
    code, out, err = invoke(capsys, "verify")
    assert code == 1
    assert "FAIL row-recurrence: broken at n=6" in out
    assert err == "error: verification: row-recurrence: broken at n=6\n"


def test_verify_refuses_rows_above_the_ceiling_before_any_check(
    capsys, monkeypatch
):
    # A suite with a contour check could only end in exit 3 at row 151,
    # after every row below it: it now exits 3 at once, on one line.
    # Suites without one keep any --n-max.
    def refuse(*args, **kwargs):
        raise AssertionError("a check ran above the row ceiling")

    with monkeypatch.context() as patch:
        patch.setattr(verification, "p_exact", refuse)
        patch.setattr(verification, "integrate_row", refuse)
        patch.setattr(verification, "row_poles", refuse)
        for suite in ("all", "methods", "structure"):
            start = time.perf_counter()
            code, out, err = invoke(capsys, "verify", "--suite", suite,
                                    "--n-max", "151")
            assert time.perf_counter() - start < 1
            assert (code, out) == (3, "")
            assert err == ("error: precision: the contour route runs rows "
                           "up to n = 150, got n = 151\n")
    code, out, err = invoke(capsys, "verify", "--suite", "identities",
                            "--n-max", "151")
    assert (code, err) == (0, "")
    assert out.endswith("6/6 checks passed (suite identities, n <= 151)\n")


def test_suite_choices_are_the_registry():
    assert cli.SUITE_NAMES == tuple(sorted(verification.SUITES))


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = invoke(capsys, "verify", "--suite", "bogus")
    assert code == 2 and err.startswith("error: usage:")


# ------------------------------------------------------------------- roots


def test_roots_text_classification_counts(capsys):
    code, out, _ = invoke(capsys, "roots", "--n", "5")
    assert code == 0
    assert out.count("  inside") == 4
    assert out.count("  outside") == 3
    assert "inside-factor: 16t^4 - 12t^3 + 5t^2 - t" in out


def test_roots_low_start_precision_climbs_the_ladder(capsys):
    # At 16 bits the root disks touch the contour; classification must
    # escalate along with root finding instead of failing.
    code, out, err = invoke(capsys, "roots", "--n", "6",
                            "--precision-bits", "16")
    assert (code, err) == (0, "")
    assert out.count("  inside") == 5
    assert out.count("  outside") == 4


def test_roots_constant_outside_factor(capsys):
    code, out, _ = invoke(capsys, "roots", "--n", "2")
    assert code == 0
    assert "constant, no roots" in out


def test_roots_json_round_trip_and_sorting(capsys):
    code, out, _ = invoke(capsys, "roots", "--n", "6", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert canonical_json(obj) == out.strip()
    inside = obj["factors"][0]
    assert inside["role"] == "inside-factor"
    assert len(inside["roots"]) == 5
    assert all(e["location"] == "inside" for e in inside["roots"])
    reals = [float(e["re"]) for e in inside["roots"]]
    assert reals == sorted(reals)


def test_roots_radius_covers_both_factors(capsys, monkeypatch):
    # Each block states its own radius and the header the larger one, so
    # no printed root is claimed tighter than it is.  Which factor's
    # disks come out wider depends on where Aberth stops, so each factor
    # in turn has its disks widened 1000-fold (still disjoint, so still a
    # certificate) to make it the wider one.
    real = residue_engine.certified_poles
    for wide, role in ((absorption_denominator(9), 0),
                       (gf_denominator(9), 1)):

        def widened(p, start, bits, wide=wide):
            rs, ins, outs = real(p, start, bits)
            if p == wide:
                rs = rs._replace(radius=1000 * rs.radius)
            return rs, ins, outs

        monkeypatch.setattr(residue_engine, "certified_poles", widened)
        code, out, _ = invoke(capsys, "roots", "--n", "9", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        radii = [Decimal(f["error_radius"]) for f in obj["factors"]]
        assert radii[role] > radii[1 - role]
        assert Decimal(obj["error_radius"]) == radii[role]
        code, out, _ = invoke(capsys, "roots", "--n", "9")
        header = out.splitlines()[0]
        assert header.endswith(f"error radius <= {obj['error_radius']}")


@pytest.mark.parametrize("precision", [(), ("--precision-bits", "16")])
def test_roots_print_only_certified_digits(capsys, precision):
    # A real root's imaginary part lies within the error radius of 0, so
    # it prints as 0.0; every other printed digit is at least as coarse
    # as the radius, since finer ones are iteration noise.
    code, out, _ = invoke(capsys, "roots", "--n", "9", "--format", "json",
                          *precision)
    assert code == 0
    obj = json.loads(out)
    radius = Decimal(obj["error_radius"])
    polys = [absorption_denominator(9), gf_denominator(9)]
    for poly, factor in zip(polys, obj["factors"]):
        with mpmath.workprec(200):
            roots = mpmath.polyroots(
                list(reversed(poly)), maxsteps=200,
                extraprec=400)
            reals = sorted(float(x.real) for x in roots
                           if abs(x.imag) < mpmath.mpf(10) ** -40)
        entries = factor["roots"]
        real_entries = [e for e in entries if e["im"] == "0.0"]
        assert [float(e["re"]) for e in real_entries] == pytest.approx(
            reals, abs=1e-4)
        for e in entries:
            for part in (e["re"], e["im"]):
                if part != "0.0":
                    place = Decimal(1).scaleb(Decimal(part).as_tuple().exponent)
                    assert place >= radius, (part, obj["error_radius"])


# ------------------------------------------------------------------ driver


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = invoke(capsys)
    assert code == 2 and err.startswith("error: usage:")


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "prob" in out and "verify" in out


# 10^100,000,000: Fraction would build the power before any digit limit.
_HUGE_EXPONENT = "1e-100000000"


def test_bad_tail_eps_is_usage_error(capsys):
    for tail in ("1/0", _HUGE_EXPONENT):
        code, _, err = invoke(capsys, "prob", "--n", "3", "--j", "1",
                              "--method", "simulate", "--tail-eps", tail)
        assert code == 2 and "bad fraction" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int <-> str digit limit before Python 3.11")
def test_tail_eps_parsing_keeps_the_digit_limit(capsys):
    code, _, err = invoke(capsys, "prob", "--n", "3", "--j", "1",
                          "--method", "simulate",
                          "--tail-eps", "1/1" + "0" * 5000)
    assert code == 2 and "Exceeds the limit" in err
    # One short line, not the 5,000-digit argument.
    assert err.count("\n") == 1 and len(err) < 200
    # The exponent form is held to the same limit, and refused at once.
    start = time.perf_counter()
    code, _, err = invoke(capsys, "prob", "--n", "3", "--j", "1",
                          "--method", "simulate", "--tail-eps", _HUGE_EXPONENT)
    assert time.perf_counter() - start < 1
    assert code == 2 and "exponent exceeds the limit" in err
    assert err.count("\n") == 1 and len(err) < 200


# The exit code of each exception the package exports, as the README's
# "Exit codes" paragraph states it.
_EXIT_CODES = {"ConsistencyError": 1, "PrecisionError": 3,
               "StepBudgetExceeded": 3}


@pytest.mark.parametrize("name", hadwalk._SOURCES["errors"])
def test_every_exported_error_has_its_exit_code(capsys, monkeypatch, name):
    # A runner that raises the error: run() maps it to its exit code and
    # one stderr line.  An exported class without a code fails here.
    cls = getattr(errors, name)

    def raise_it(cfg):
        if cls is StepBudgetExceeded:
            raise cls("boom", report=None)
        raise cls("boom")

    monkeypatch.setitem(cli._DISPATCH, "gf", raise_it)
    code, out, err = invoke(capsys, "gf", "--n", "5", "--j", "2")
    assert code == _EXIT_CODES[name]
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(": boom\n")


_FORMATS = ("frac", "dec", "text", "csv", "json")
_TAILS = (
    # Valid tails down to 1e-12 ...
    *(f"1/{10 ** k}" for k in (1, 3, 6, 10, 12)), "1e-12", "0.5",
    # ... malformed fractions and values outside (0, 1).
    "1/0", "abc", "1/", "", "0", "1", "2", "-1/3", "0x10", _HUGE_EXPONENT,
)
_VALUES = {
    "--n": st.integers(-1, 10).map(str),
    "--j": st.integers(-1, 11).map(str),
    "--n-max": st.integers(-1, 6).map(str),
    "--method": st.sampled_from((*METHODS, "all", "bogus")),
    "--format": st.sampled_from(_FORMATS),
    "--precision-bits": st.sampled_from(
        ("-1", "8", "15", "16", "128", "8192", "8193", "x")),
    "--tail-eps": st.sampled_from(_TAILS),
    "--suite": st.sampled_from((*cli.SUITE_NAMES, "bogus")),
    "--common-denominator": st.just(None),
}
# Each subcommand's options; the required ones come first.
_GRAMMAR = {
    "prob": (("--n", "--j"),
             ("--method", "--format", "--precision-bits", "--tail-eps")),
    "table": ((), ("--n-max", "--common-denominator", "--format")),
    "gf": (("--n", "--j"), ("--format",)),
    "verify": ((), ("--n-max", "--suite", "--format", "--tail-eps")),
    "roots": (("--n",), ("--precision-bits", "--format")),
}


@st.composite
def _argv(draw) -> list[str]:
    sub = draw(st.sampled_from(sorted(_GRAMMAR)))
    required, optional = _GRAMMAR[sub]
    argv = [sub]
    for option in required + optional:
        # A required option is left out now and then, too.
        if draw(st.integers(0, 7) if option in required else st.booleans()):
            value = draw(_VALUES[option])
            argv += [option] if value is None else [option, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_answers_or_fails_with_one_documented_line(argv):
    # Small inputs only: n <= 10, n_max <= 6, tails >= 1e-12.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert code in (1, 2, 3), argv
        assert out.getvalue() == "" or code == 1, argv
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: "), argv


# ------------------------------------------------------------ import diet

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# Modules a route may or may not load: the pipelines, the polynomial
# layer, and the stdlib modules that only some routes need.
_TRACKED = ("mpmath", "hadwalk.residue_engine", "hadwalk.simulator",
            "hadwalk.verification", "hadwalk.exactq", "hadwalk.walk_core",
            "hadwalk.rfamily", "dataclasses", "csv")
_RFAMILY = ("hadwalk.rfamily",)
_EXACT = ("hadwalk.exactq", "hadwalk.walk_core", *_RFAMILY)
_ENGINE = ("hadwalk.residue_engine", *_RFAMILY)


def _cli(*argv):
    return ("import contextlib, io\n"
            "from hadwalk import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.run({list(argv)!r}) == 0\n")


def _python_c(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(_SRC), os.environ.get("PYTHONPATH", "")) if p))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)


_LIST_MODULES = "import sys\nprint(' '.join(sorted(sys.modules)))\n"


@functools.cache
def _bare_modules() -> frozenset:
    """What the interpreter loads before any hadwalk code runs, site
    hooks included, in the environment the tests run in."""
    proc = _python_c(_LIST_MODULES)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


@pytest.mark.parametrize("code,loaded", [
    (_cli("prob", "--n", "5", "--j", "2"), _RFAMILY),
    (_cli("prob", "--n", "5", "--j", "2", "--method", "closed"), _EXACT),
    (_cli("table", "--n-max", "6"), _EXACT),
    (_cli("gf", "--n", "5", "--j", "2"), _EXACT),
    ("import hadwalk\nhadwalk.p_exact(2, 5)\n", _RFAMILY),
    (_cli("prob", "--n", "5", "--j", "2", "--method", "simulate"),
     ("hadwalk.simulator",)),
    (_cli("prob", "--n", "5", "--j", "2", "--method", "numeric"), _ENGINE),
    ("import hadwalk.residue_engine\n", _ENGINE),
    (_cli("roots", "--n", "5"), (*_ENGINE, "hadwalk.exactq")),
    (_cli("verify", "--suite", "limits"),
     (*_ENGINE, *_EXACT, "hadwalk.simulator", "hadwalk.verification")),
    (_cli("prob", "--n", "12", "--j", "6", "--method", "simulate",
          "--tail-eps", "1e-10", "--format", "json"), ("hadwalk.simulator",)),
    (_cli("prob", "--n", "5", "--j", "2", "--method", "simulate",
          "--format", "csv"), ("hadwalk.simulator",)),
    (_cli("table", "--n-max", "4", "--format", "csv"), _EXACT),
    (_cli("verify", "--suite", "limits", "--format", "json"),
     (*_ENGINE, *_EXACT, "hadwalk.simulator", "hadwalk.verification")),
], ids=["residue", "closed", "table", "gf", "library", "simulate", "numeric",
        "engine", "roots", "verify", "simulate-json", "simulate-csv",
        "table-csv", "verify-json"])
def test_a_process_loads_only_the_pipeline_it_runs(code, loaded):
    # A tracked module counts when the route loads it on top of a bare
    # interpreter: no route loads dataclasses, the simulator route loads
    # no polynomial layer, the residue and contour routes load the r
    # family's integers alone (roots adds exactq to print its factors),
    # and no route loads csv.
    proc = _python_c(code + _LIST_MODULES)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split()) - _bare_modules()
    assert {m for m in _TRACKED if m in modules} == set(loaded)


def test_verify_loads_the_cli_module_once():
    # Run as ``python -m hadwalk.cli``, the CLI is the module __main__;
    # the suite must not import it a second time as hadwalk.cli.
    proc = _python_c(
        "import contextlib, io, runpy, sys\n"
        "sys.argv = ['hadwalk', 'verify', '--suite', 'limits']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('hadwalk.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "assert 'hadwalk.verification' in sys.modules\n"
        "assert 'hadwalk.cli' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr


def test_every_subcommand_runs_without_mpmath():
    # mpmath is a test-only oracle; with its import blocked before
    # hadwalk loads, every subcommand still runs.
    blocked = "import sys\nsys.modules['mpmath'] = None\nimport hadwalk\n"
    for argv in (("prob", "--n", "5", "--j", "2", "--method", "all"),
                 ("table",), ("gf", "--n", "5", "--j", "2"),
                 ("verify", "--n-max", "6"), ("roots", "--n", "6")):
        proc = _python_c(blocked + _cli(*argv))
        assert proc.returncode == 0, (argv, proc.stderr)


def test_package_names_resolve_on_first_access():
    import hadwalk

    names: dict = {}
    exec("from hadwalk import *", names)
    assert set(hadwalk.__all__) <= set(names)
    assert set(hadwalk.__all__) <= set(dir(hadwalk))
    assert hadwalk.integrate_row is residue_engine.integrate_row
    # walk_core re-exports the r family's integer side as the same objects.
    assert hadwalk.p_exact is walk_core.p_exact
    assert hadwalk.gf_denominator is walk_core.gf_denominator
    assert hadwalk.absorption_denominator is walk_core.absorption_denominator
    with pytest.raises(AttributeError):
        hadwalk.no_such_name


def test_benchmark_trace_wraps_every_name_it_reads(tmp_path):
    # perfbench/trace_entry.py wraps hadwalk functions by name, so a
    # renamed or dropped one would break the traced benchmark run.  The
    # traced CLI must print what the untraced one prints.
    trace_entry = _SRC.parent / "perfbench" / "trace_entry.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(_SRC), os.environ.get("PYTHONPATH", "")) if p))

    def python(*args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, timeout=300, env=env)

    runs = {}
    for argv in ("prob --n 6 --j 3 --method numeric",
                 "verify --suite methods --n-max 4",
                 "roots --n 6",
                 "verify --suite all --n-max 4"):
        out = tmp_path / "spans.json"
        traced = python(str(trace_entry), str(out), *argv.split())
        plain = python("-m", "hadwalk.cli", *argv.split())
        assert traced.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        runs[argv] = json.loads(out.read_text())
    # The factor roles reach the harness through the row's polynomials.
    assert {"residue_engine.find_roots.d", "residue_engine.find_roots.c"} <= {
        span[0] for span in runs["roots --n 6"]}
    # verify asks again for the root sets of d that it has certified: the
    # memo must return the same objects, which the harness counts as
    # hits.  c's roots are found once, by pole-classification alone.
    assert {"residue_engine.find_roots.d"} == {
        span[0] for span in runs["verify --suite all --n-max 4"]
        if span[0].startswith("residue_engine.find_roots.")
        and span[4] and span[4][1]}
    spans = [span for run in runs.values() for span in run]
    assert {
        "residue_engine.build_integrand",
        "residue_engine.integrate_exact",
        "residue_engine.find_roots.d",
        "residue_engine.find_roots.c",
        "residue_engine.denominator_bound",
        "verification.method-agreement",
    } <= {span[0] for span in spans}
    delta_bits = [span[4] for span in spans
                  if span[0] == "residue_engine.denominator_bound"]
    assert delta_bits and None not in delta_bits
