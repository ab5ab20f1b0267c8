"""The check contract of ``verify.run_checks``, shown on fake checks.

A check returns ``(label, measured, tol)`` measurements; ``run_checks``
alone compares (``measured <= tol``, so NaN fails), injects and formats.
"""

import math

import pytest

import seqbell.verify as verify


def fake(*measurements):
    return lambda: list(measurements)


@pytest.mark.parametrize("tol", [0, 1e-12, 5e-4])
def test_injected_check_fails_at_any_tolerance_scale(monkeypatch, tol):
    monkeypatch.setattr(verify, "CHECKS", (
        ("a", fake(("dev", 0.0, tol))),
        ("b", fake(("dev", 0.0, tol), ("count", 0, 0))),
        ("c", fake(("dev", 0.0, tol))),
    ))
    assert [r.passed for r in verify.run_checks()] == [True, True, True]
    assert [r.passed for r in verify.run_checks(inject_failure="b")] == [True, False, True]


def test_nan_measurement_fails_in_any_position(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", (
        ("first", fake(("dev", math.nan, 1e-10), ("count", 0, 0))),
        ("later", fake(("dev", 1e-16, 1e-10), ("other", math.nan, 1e-10))),
        ("clean", fake(("dev", 1e-16, 1e-10))),
    ))
    assert [r.passed for r in verify.run_checks()] == [False, False, True]


def test_detail_format(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", (
        ("x", fake(("max deviation", 3.56e-15, 1e-12), ("empty windows", 0, 0))),
    ))
    (result,) = verify.run_checks()
    assert result.detail == "max deviation 3.56e-15 (tol 1e-12); empty windows 0 (tol 0)"


def test_raising_check_fails_and_others_run(monkeypatch):
    def broken():
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(verify, "CHECKS", (
        ("broken", broken),
        ("fine", fake(("dev", 0.0, 0))),
    ))
    broken_result, fine_result = verify.run_checks()
    assert not broken_result.passed
    assert broken_result.detail == "raised ZeroDivisionError: boom"
    assert fine_result.passed


def test_nan_branch_value_fails_mermin_check(monkeypatch):
    real = verify.branch_arrays

    def one_nan(*args):
        first1, second1, first2, second2 = real(*args)
        second1[57] = math.nan
        return first1, second1, first2, second2

    monkeypatch.setattr(verify, "branch_arrays", one_nan)
    monkeypatch.setattr(verify, "CHECKS", (
        ("mermin-branch-values", verify.check_mermin_branch_values),
    ))
    (result,) = verify.run_checks()
    assert not result.passed
    assert "nan" in result.detail
