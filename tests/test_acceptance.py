"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The suite is an independent restatement of the criteria: the
``verify`` checks test the same criteria with the same tolerances, but
nothing here calls them, and some criteria use other grids and seeds.
Deviations are reduced with ``np.max``/``np.min``, which propagate NaN,
so a NaN value fails its criterion.
"""

import math
import sys

import numpy as np
import pytest

from seqbell.feasibility import (
    p_window_genuine,
    phi_threshold_genuine,
    phi_threshold_standard,
    scan,
    scan_window_disagreements,
    v_threshold_genuine,
)
from seqbell.lhvbound import (
    hybrid_strategies,
    local_strategies,
    mermin_value_of,
    svetlichny_value_of,
)
from seqbell.luders import luders_update
from seqbell.qstate import (
    PHI_MAX,
    ghz,
    identity_measurement,
    pauli,
    projective_from_observable,
    to_density,
)
from seqbell.scenario import branch_arrays

SQRT2 = math.sqrt(2.0)
PHI_GRID = np.linspace(0.0, PHI_MAX, 200)


def _criterion(num: int, ok: bool, description: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _sines(phi):
    return np.array([math.sin(2 * ph) for ph in phi])


def test_criterion_1_mermin_strategy_values():
    s = _sines(PHI_GRID)
    m1_s1, m2_s1, m1_s2, m2_s2 = branch_arrays("standard", PHI_GRID)
    dev = np.max([np.abs(m1_s1 - 4 * s), np.abs(m2_s1 - 2 * s),
                  np.abs(m1_s2 - 2 * s), np.abs(m2_s2 - 3 * s)])
    _criterion(1, dev <= 1e-10,
               f"simulated Mermin strategy values match 4/2/2/3 sin(2phi) "
               f"on a 200-angle grid, max deviation {dev:.2e} (tol 1e-10)")


def test_criterion_1_fails_on_a_nan_branch_value(monkeypatch):
    def nan_at_one_angle(*args, branches=branch_arrays):
        m1_s1, m2_s1, m1_s2, m2_s2 = branches(*args)
        m1_s2[57] = math.nan
        return m1_s1, m2_s1, m1_s2, m2_s2

    monkeypatch.setattr(sys.modules[__name__], "branch_arrays", nan_at_one_angle)
    with pytest.raises(AssertionError, match="criterion 1 failed"):
        test_criterion_1_mermin_strategy_values()


def test_criterion_2_svetlichny_strategy_values():
    s = _sines(PHI_GRID)
    s1_s1, s2_s1, s1_s2, _ = branch_arrays("genuine", PHI_GRID, 0.5)
    dev = np.max([np.abs(s1_s1 - 4 * SQRT2 * s), np.abs(s2_s1 - 2 * SQRT2 * s),
                  np.abs(s1_s2 - 2 * SQRT2 * s)])
    for v in np.arange(1, 10) / 10:
        s2_s2 = branch_arrays("genuine", PHI_GRID, float(v))[3]
        dev = np.max([dev, np.max(np.abs(s2_s2 - 2 * SQRT2 * (1 + v) * s))])
    _criterion(2, dev <= 1e-10,
               f"simulated Svetlichny strategy values match their closed forms "
               f"for v in 0.1..0.9, max deviation {dev:.2e} (tol 1e-10)")


def test_criterion_3_mixture_closed_forms():
    # Rows are angles, columns mixing probabilities.
    p_grid = np.linspace(0.0, 1.0, 200)
    s = _sines(PHI_GRID)[:, None]
    m1_s1, m2_s1, m1_s2, m2_s2 = (x[:, None] for x in branch_arrays("standard", PHI_GRID))
    dev = np.max([np.max(np.abs(p_grid * m1_s1 + (1 - p_grid) * m1_s2
                                - (2 * p_grid + 2) * s)),
                  np.max(np.abs(p_grid * m2_s1 + (1 - p_grid) * m2_s2
                                - (3 - p_grid) * s))])
    for v in np.arange(1, 21) / 21:
        s1_s1, s2_s1, s1_s2, s2_s2 = (x[:, None]
                                      for x in branch_arrays("genuine", PHI_GRID, float(v)))
        dev = np.max([dev,
                      np.max(np.abs(p_grid * s1_s1 + (1 - p_grid) * s1_s2
                                    - 2 * SQRT2 * (1 + p_grid) * s)),
                      np.max(np.abs(p_grid * s2_s1 + (1 - p_grid) * s2_s2
                                    - 2 * SQRT2 * (1 + v * (1 - p_grid)) * s))])
    _criterion(3, dev <= 1e-10,
               f"mixture closed forms match full simulation on a 200x200 grid "
               f"and 20 bias slices, max deviation {dev:.2e} (tol 1e-10)")


def test_criterion_4_enumerated_classical_bounds():
    local_values = [mermin_value_of(s) for s in local_strategies()]
    hybrid_values = [svetlichny_value_of(s) for s in hybrid_strategies()]
    ok = (len(local_values) == 64 and max(local_values) == 2
          and len(hybrid_values) == 3072 and max(hybrid_values) == 4)
    _criterion(4, ok,
               f"classical maxima: Mermin {max(local_values)} over "
               f"{len(local_values)} local strategies, Svetlichny "
               f"{max(hybrid_values)} over {len(hybrid_values)} hybrid strategies")


def test_criterion_5_thresholds():
    t_std = phi_threshold_standard()
    t_v = v_threshold_genuine()
    t_08 = phi_threshold_genuine(0.8)
    t_09 = phi_threshold_genuine(0.9)
    ok = (abs(t_std - 0.4240) <= 5e-4 and abs(t_v - 0.7071) <= 5e-5
          and abs(t_08 - 0.683) <= 5e-4 and abs(t_09 - 0.643) <= 5e-4)
    _criterion(5, ok,
               f"thresholds {t_std:.5f} (0.4240 +- 5e-4), {t_v:.6f} "
               f"(0.7071 +- 5e-5), {t_08:.5f} (0.683 +- 5e-4), "
               f"{t_09:.5f} (0.643 +- 5e-4)")


def test_criterion_6_window_endpoints():
    w8 = p_window_genuine(PHI_MAX, 0.8)
    w9 = p_window_genuine(PHI_MAX, 0.9)
    exact_dev = np.max([abs(w8.lo - (SQRT2 - 1)), abs(w8.hi - (9 - 5 * SQRT2) / 4),
                        abs(w9.lo - (SQRT2 - 1)), abs(w9.hi - (19 - 10 * SQRT2) / 9)])
    decimal_dev = np.max([abs(w8.lo - 0.4143), abs(w8.hi - 0.4822),
                          abs(w9.lo - 0.4143), abs(w9.hi - 0.5397)])
    ok = exact_dev <= 1e-12 and decimal_dev <= 1e-4
    _criterion(6, ok,
               f"window endpoints at phi = pi/4: closed-form deviation "
               f"{exact_dev:.2e} (tol 1e-12), 4-decimal deviation "
               f"{decimal_dev:.2e} (tol 1e-4)")


def test_criterion_7_unbiased_genuine_impossibility():
    phi = np.arange(1, 501) / 500 * PHI_MAX
    p = np.linspace(0.0, 1.0, 500)
    grid = scan("genuine", phi, p, v=0.5)
    flagged = int(np.count_nonzero(grid.flagged))
    _criterion(7, flagged == 0,
               f"unbiased genuine 500x500 scan flags {flagged} cells (expect 0)")


def test_criterion_8_channel_properties():
    rng = np.random.default_rng(2024)

    def random_measurement():
        if rng.random() < 0.25:
            return identity_measurement()
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        return projective_from_observable(
            n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z"))

    trace_dev = 0.0
    min_eig = 1.0
    for _ in range(1000):
        rho = to_density(ghz(float(rng.random()) * PHI_MAX))
        measurements = (random_measurement(), random_measurement())
        out = luders_update(rho, measurements, float(rng.random()))
        trace_dev = np.max([trace_dev, abs(np.trace(out).real - 1.0)])
        min_eig = np.min([min_eig, np.min(np.linalg.eigvalsh(out))])

    rho = to_density(ghz(0.37))
    idle = (identity_measurement(), identity_measurement())
    fixed_dev = float(np.max(np.abs(luders_update(rho, idle) - rho)))

    ok = trace_dev <= 1e-12 and min_eig >= -1e-10 and fixed_dev <= 1e-14
    _criterion(8, ok,
               f"1000 randomized updates: trace drift {trace_dev:.2e} "
               f"(tol 1e-12), min eigenvalue {min_eig:.2e} (tol -1e-10), "
               f"identity fixed-point deviation {fixed_dev:.2e} (tol 1e-14)")


def test_criterion_9_scan_window_consistency():
    phi = np.arange(1, 501) / 500 * PHI_MAX
    p = np.linspace(0.0, 1.0, 500)
    grid = scan("standard", phi, p)
    mismatches, _ = scan_window_disagreements(grid)
    _criterion(9, mismatches == 0,
               f"standard 500x500 scan: {mismatches} flagged/window mismatches "
               f"more than one grid step from the boundary (expect 0)")
