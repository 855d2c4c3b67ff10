"""Tests for the named identity-check suites."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hadwalk import cli, exactq, verification
from hadwalk.residue_engine import MAX_ROW
from hadwalk.verification import (
    SUITES,
    CheckResult,
    check_first_column_numerators,
    check_method_agreement,
    check_squarefree_denominators,
    run_suite,
)


def test_every_suite_passes_at_reference_range():
    results = run_suite("all", 9)
    assert all(r.passed for r in results)
    assert len(results) == 18


def test_all_suite_is_the_union_and_names_are_unique():
    names = [c.__name__ for c in SUITES["all"]]
    assert len(names) == len(set(names))
    union = [c for s in ("identities", "methods", "oracles", "limits", "structure")
             for c in SUITES[s]]
    assert list(SUITES["all"]) == union


def test_results_carry_names_and_details():
    for r in run_suite("identities", 4):
        assert isinstance(r, CheckResult)
        assert r.name and r.passed and r.detail


def test_run_suite_validation():
    with pytest.raises(ValueError):
        run_suite("nope", 9)
    with pytest.raises(ValueError):
        run_suite("all", 1)
    with pytest.raises(ValueError):
        run_suite("all", 9, tail_eps=Fraction(2))


def test_method_agreement_standalone():
    r = check_method_agreement(6)
    assert r.passed and "15 cells" in r.detail


def test_first_column_numerators_standalone():
    assert check_first_column_numerators(9).passed


def test_contour_suites_are_the_suites_with_a_contour_check():
    # run_suite refuses an n_max above MAX_ROW for exactly these suites.
    contour = {verification.check_method_agreement,
               verification.check_pole_classification,
               verification.check_denominator_bound_integrality}
    assert set(verification._CONTOUR_SUITES) == {
        name for name, checks in verification.SUITES.items()
        if contour & set(checks)}


def test_squarefree_check_flags_a_repeated_pole(monkeypatch, capsys):
    # Row 7's d times (1 - 3t)^2: the check and verify report that row.
    real = verification.absorption_denominator
    square = exactq.Polynomial((1, -3)) * exactq.Polynomial((1, -3))

    def denominator(n):
        d = real(n)
        return (exactq.Polynomial(d) * square).coeffs if n == 7 else d

    monkeypatch.setattr(verification, "absorption_denominator", denominator)
    r = check_squarefree_denominators(10)
    assert (r.passed, r.detail) == (False, "repeated pole at n=7")
    code = cli.run(["verify", "--suite", "structure", "--n-max", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL squarefree-denominators: repeated pole at n=7\n" in captured.out
    assert captured.err == ("error: verification: squarefree-denominators: "
                            "repeated pole at n=7\n")


def test_structure_suite_runs_no_resultant(monkeypatch):
    # The squarefree witness is a gcd: neither exact resultant runs.
    def refuse(*args):
        raise AssertionError("a resultant ran")

    monkeypatch.setattr(exactq, "poly_resultant", refuse)
    monkeypatch.setattr(exactq, "poly_discriminant", refuse)
    assert all(r.passed for r in run_suite("structure", 30))


def test_squarefree_check_covers_every_row_to_the_ceiling():
    # The gcd witness covers the whole certified range in about 2 s.
    r = check_squarefree_denominators(MAX_ROW)
    assert r.passed and r.detail == f"n = 2..{MAX_ROW}"
