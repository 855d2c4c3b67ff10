"""Tests for the named identity-check suites."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hadwalk.verification import (
    SUITES,
    CheckResult,
    check_first_column_numerators,
    check_method_agreement,
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
