"""The check contract of ``verify.run_checks``, shown on fake checks.

A check returns ``(label, measured, tol)`` measurements; ``run_checks``
alone compares (``measured <= tol``, so NaN fails), injects and formats.
"""

import dataclasses
import itertools
import math
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import seqbell.cmatrix as cmatrix
import seqbell.feasibility as feasibility
import seqbell.lhvbound as lhvbound
import seqbell.verify as verify
from seqbell.luders import luders_update
from seqbell.qstate import (
    PHI_MAX,
    bloch_obs,
    ghz,
    identity_measurement,
    pauli,
    projective_from_observable,
    to_density,
)
from seqbell.scenario import SCENARIOS, branch_arrays


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


def test_all_exempt_window_comparison_fails_scan_consistency(monkeypatch):
    # An infinite margin puts every cell on the bound, and none is compared.
    monkeypatch.setattr(feasibility, "VIOLATION_MARGIN", math.inf)
    monkeypatch.setattr(verify, "CHECKS", (
        ("genuine-scan-consistency", verify.check_genuine_scan_consistency),
    ))
    (result,) = verify.run_checks()
    assert not result.passed
    assert "window mismatches off the bound 0 (tol 0)" in result.detail
    assert "|cells within the margin of a bound - 1| 6.25e+04 (tol 0)" in result.detail


def run_one(monkeypatch, name):
    monkeypatch.setattr(verify, "CHECKS", tuple((n, fn) for n, fn in verify.CHECKS if n == name))
    (result,) = verify.run_checks()
    return result


def test_negative_violation_margin_fails_standard_scan_consistency(monkeypatch):
    monkeypatch.setattr(feasibility, "VIOLATION_MARGIN", -1e-9)
    result = run_one(monkeypatch, "standard-scan-consistency")
    assert not result.passed
    assert "misflagged cells at phi = pi/4, p = 0, 1/2, 1 2 (tol 0)" in result.detail


CSV_LINES = "CSV lines unlike the per-cell %.12g writer"


def test_inverted_csv_flags_fail_standard_scan_consistency(monkeypatch):
    real = verify.grid_to_csv

    def inverted(grid):
        return real(dataclasses.replace(grid, flagged=~grid.flagged))

    monkeypatch.setattr(verify, "grid_to_csv", inverted)
    result = run_one(monkeypatch, "standard-scan-consistency")
    assert not result.passed
    assert f"{CSV_LINES} 1.02e+03 (tol 0)" in result.detail
    # Every one of the witness row's 1,025 cell lines differs; its header does not.
    measured = {label: value for label, value, _ in verify.check_standard_scan_consistency()}
    assert measured[CSV_LINES] == 1025


def test_csv_that_drops_a_partial_last_block_fails_standard_scan_consistency(monkeypatch):
    real = verify.grid_to_csv
    kept = slice(feasibility._CSV_BLOCK)

    def partial_block_dropped(grid):
        return real(dataclasses.replace(
            grid, p=grid.p[kept], value1=grid.value1[:, kept], value2=grid.value2[:, kept],
            flagged=grid.flagged[:, kept]))

    monkeypatch.setattr(verify, "grid_to_csv", partial_block_dropped)
    result = run_one(monkeypatch, "standard-scan-consistency")
    assert not result.passed
    assert f"{CSV_LINES} 1 (tol 0)" in result.detail


def test_per_angle_scan_unlike_the_blocked_one_fails_standard_scan_consistency(monkeypatch):
    real = feasibility.standard_branch_values

    def strategies_swapped(*args):
        first1, second1, first2, second2 = real(*args)
        return first2, second2, first1, second1

    monkeypatch.setattr(feasibility, "standard_branch_values", strategies_swapped)
    result = run_one(monkeypatch, "standard-scan-consistency")
    assert not result.passed
    # The swap mixes each cell as 1 - p would, so the per-angle rows differ off p = 1/2.
    unlike = re.search(r"cells unlike the per-angle scan (\S+) \(tol 0\)", result.detail)
    assert unlike is not None and float(unlike[1]) > 0


@pytest.mark.parametrize("name", ["standard-scan-consistency", "genuine-scan-consistency"])
def test_scans_that_swap_the_two_values_fail_scan_consistency(monkeypatch, name):
    real = feasibility.mix

    def values_swapped(branches, p):
        value1, value2 = real(branches, p)
        return value2, value1

    # Both scans write their rows through this one name, so they agree with each other.
    monkeypatch.setattr(feasibility, "mix", values_swapped)
    result = run_one(monkeypatch, name)
    assert not result.passed
    assert "cells unlike the per-angle scan 0 (tol 0)" in result.detail
    label = "max deviation of every 25th row from the closed forms"
    closed = re.search(rf"{label} (\S+) \(tol 1e-10\)", result.detail)
    assert closed is not None and float(closed[1]) > 1e-10


def test_second_round_mixed_with_the_wrong_strategy_fails_mixing_linearity(monkeypatch):
    def swapped(branches, p):
        first1, second1, first2, second2 = branches
        return p * first1 + (1 - p) * first2, p * second2 + (1 - p) * second1

    monkeypatch.setattr(verify, "mix", swapped)
    result = run_one(monkeypatch, "mixing-linearity")
    assert not result.passed
    # At p = 0 and 1 the genuine second round is off by S2^s2 - S2^s1 = 2 sqrt2 * 0.8 at pi/4.
    assert result.detail == "max deviation 2.26 (tol 1e-12)"


def test_lone_party_reading_a_paired_input_fails_classical_bounds(monkeypatch,
                                                                   fresh_outcome_tables):
    def one_table():
        # AB|C with Charlie answering Alice's input x.
        yield tuple((1, 1, 1 - 2 * x) for x, _, _ in itertools.product((0, 1), repeat=3))

    monkeypatch.setattr(lhvbound, "hybrid_strategies", one_table)
    result = run_one(monkeypatch, "classical-bounds")
    assert not result.passed
    assert "hybrid tables whose lone party reads a paired input 1 (tol 0)" in result.detail


def test_stale_kron_memo_entry_fails_matrix_identities(monkeypatch):
    a, b = cmatrix.constant(pauli("x")), cmatrix.constant(pauli("z"))
    stale = cmatrix.constant(np.zeros((4, 4), dtype=complex))  # not X (x) Z
    monkeypatch.setattr(cmatrix, "_MEMO", {(id(a), id(b)): (a, b, stale)})
    result = run_one(monkeypatch, "matrix-identities")
    assert not result.passed
    assert "memoized products unlike a fresh kron 1 (tol 0)" in result.detail


def test_kron_memo_holds_the_48_kernel_products(monkeypatch):
    # 20 products for the standard kernel's operators, 28 for the genuine one's.
    monkeypatch.setattr(cmatrix, "_MEMO", {})
    verify.run_checks()
    stored = cmatrix.kron_memo()
    assert len(stored) == 48
    for a, b, product in stored:
        assert cmatrix._CONSTANTS[id(a)] is a and cmatrix._CONSTANTS[id(b)] is b
        with pytest.raises(ValueError):
            product[0, 0] = 0.0
    feasibility.scan("standard", *feasibility.scan_grid(7, 5))
    feasibility.scan("genuine", *feasibility.scan_grid(7, 5), v=0.9)
    assert cmatrix.kron_memo() == stored


def test_kron_memo_holds_the_48_kernel_products_after_a_registry_swap(monkeypatch):
    # The operators are registered before any test runs (conftest.py), so a kernel call
    # under a swapped registry cannot leave them registered in the swapped one alone.
    with monkeypatch.context() as swapped:
        swapped.setattr(cmatrix, "_CONSTANTS", {})
        swapped.setattr(cmatrix, "_MEMO", {})
        branch_arrays("standard", [PHI_MAX])
        branch_arrays("genuine", [PHI_MAX], 0.5)
    monkeypatch.setattr(cmatrix, "_MEMO", {})
    branch_arrays("standard", [PHI_MAX])
    branch_arrays("genuine", [PHI_MAX], 0.5)
    assert len(cmatrix.kron_memo()) == 48


def _fresh_interpreter(code: str, env: dict) -> str:
    """stdout of ``code`` run in a new interpreter with the environment ``env``."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_checks_do_not_load_the_cli(child_env):
    # cli imports verify; an import back would load cli.py a second time under -m.
    code = ("import sys\nimport seqbell.verify as verify\n"
            "verify.check_standard_scan_consistency()\n"
            "print('seqbell.cli' in sys.modules)\n")
    assert _fresh_interpreter(code, child_env) == "False\n"


def test_checks_do_not_load_numpy_random(child_env):
    # Loading numpy.random (and secrets, hashlib, hmac with it) costs about 6 MB of RSS.
    code = ("import sys\nimport seqbell.verify as verify\n"
            "assert all(result.passed for result in verify.run_checks())\n"
            "print('numpy.random' in sys.modules)\n")
    assert _fresh_interpreter(code, child_env) == "False\n"


def test_seeded_checks_leave_the_global_generator_and_repeat_their_draws():
    seeded = (verify.check_matrix_identities, verify.check_channel_properties)
    state = random.getstate()
    first = [check() for check in seeded]
    verify.run_checks()
    assert random.getstate() == state
    assert [check() for check in seeded] == first


def test_channel_properties_equal_the_per_member_loop():
    # Reference: each member prepared, updated and checked on its own, drawing phi,
    # then two measurements (identity with probability 1/4, else a random Bloch
    # axis), then prob_z0.
    rng = random.Random(1234)
    trace_dev, neg_eig = 0.0, -np.inf
    for _ in range(1000):
        rho = to_density(ghz(rng.random() * PHI_MAX))
        pair = []
        for _ in range(2):
            if rng.random() < 0.25:
                pair.append(identity_measurement())
            else:
                x, y, z = (rng.gauss(0.0, 1.0) for _ in range(3))
                r = math.sqrt(x * x + y * y + z * z)
                pair.append(projective_from_observable(bloch_obs(x / r, y / r, z / r)))
        out = luders_update(rho, tuple(pair), rng.random())
        trace_dev = max(trace_dev, abs(np.trace(out).real - 1.0))
        neg_eig = max(neg_eig, float(np.max(-np.linalg.eigvalsh(out))))
    measured = [m for _, m, _ in verify.check_channel_properties()]
    assert measured[:2] == [trace_dev, neg_eig]


def test_channel_properties_update_members_in_blocks(traced_peak):
    # Measured in MiB: 2.3 member by member, 3.9 in blocks of 100, 5.8 in blocks of
    # 250, and 15.4 for one call on all 1,000 members.
    _, peak = traced_peak(verify.check_channel_properties)
    assert peak <= 6 << 20


def test_mixture_closed_form_genuine_keeps_one_set_of_products(traced_peak):
    # Measured in MiB: 2.18 with the channel rebuilt per bias, 3.09 with strategy 2's
    # products made once for the 20-bias sweep and weighed one bias at a time, 2.85 with
    # those products made only after strategy 1's channel has returned, and 2.36 with each
    # correlator summed from the diagonal of rho O, no full product made.
    _, peak = traced_peak(verify.check_mixture_closed_form_genuine)
    assert peak <= 4 << 20


@pytest.mark.parametrize("kind, biases", [("standard", [None]),
                                          ("genuine", (np.arange(1, 21) / 21).tolist())],
                         ids=["standard", "genuine"])
def test_mixture_closed_form_equals_the_per_bias_loop(kind, biases):
    # Each bias alone, mixed as ``mix`` once did: p * first + (1 - p) * second on columns.
    phi = np.linspace(0.0, PHI_MAX, 200)
    sin2 = np.array([math.sin(2 * x) for x in phi])
    p = np.linspace(0.0, 1.0, 200)
    dev = 0.0
    for v in biases:
        first1, second1, first2, second2 = (x[:, None] for x in branch_arrays(kind, phi, v))
        sim1, sim2 = p * first1 + (1 - p) * first2, p * second1 + (1 - p) * second2
        closed1, closed2 = SCENARIOS[kind].closed(sin2[:, None], p, v)
        dev = max(dev, float(np.max(np.abs(sim1 - closed1))),
                  float(np.max(np.abs(sim2 - closed2))))
    check = getattr(verify, f"check_mixture_closed_form_{kind}")
    assert [m for _, m, _ in check()] == [dev]
