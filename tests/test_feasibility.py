import math

import numpy as np
import pytest

from seqbell.feasibility import (
    Interval,
    p_window_genuine,
    p_window_standard,
    phi_threshold_genuine,
    phi_threshold_standard,
    scan,
    scan_window_disagreements,
    v_threshold_genuine,
    window_membership,
)
from seqbell.scenario import genuine_pair_simulated, standard_pair_simulated

PI4 = math.pi / 4
SQRT2 = math.sqrt(2.0)


def phi_grid(n):
    return np.arange(1, n + 1) / n * PI4


class TestStandardWindow:
    def test_maximally_entangled_gives_full_window(self):
        w = p_window_standard(PI4)
        assert not w.empty
        assert w.lo == pytest.approx(0.0, abs=1e-12)
        assert w.hi == pytest.approx(1.0, abs=1e-12)

    def test_empty_below_threshold(self):
        assert p_window_standard(0.424).empty
        assert p_window_standard(0.3).empty

    def test_rejects_zero_angle(self):
        with pytest.raises(ValueError):
            p_window_standard(0.0)

    def test_threshold_value(self):
        t = phi_threshold_standard()
        assert t == pytest.approx(0.4240, abs=5e-4)
        assert math.sin(2 * t) == pytest.approx(0.75, abs=1e-12)
        assert not p_window_standard(t + 1e-6).empty
        assert p_window_standard(t - 1e-6).empty


class TestGenuineWindow:
    def test_endpoints_at_v08(self):
        w = p_window_genuine(PI4, 0.8)
        assert w.lo == pytest.approx(SQRT2 - 1, abs=1e-12)
        assert w.hi == pytest.approx((9 - 5 * SQRT2) / 4, abs=1e-12)
        assert w.lo == pytest.approx(0.4143, abs=1e-4)
        assert w.hi == pytest.approx(0.4822, abs=1e-4)

    def test_endpoints_at_v09(self):
        w = p_window_genuine(PI4, 0.9)
        assert w.lo == pytest.approx(SQRT2 - 1, abs=1e-12)
        assert w.hi == pytest.approx((19 - 10 * SQRT2) / 9, abs=1e-12)
        assert w.hi == pytest.approx(0.5397, abs=1e-4)

    def test_unbiased_window_is_empty(self):
        assert p_window_genuine(PI4, 0.5).empty

    def test_nonempty_iff_v_above_threshold(self):
        t = v_threshold_genuine()
        assert t == pytest.approx(1 / SQRT2, abs=0)
        assert t == pytest.approx(0.7071, abs=5e-5)
        assert p_window_genuine(PI4, t - 1e-4).empty
        assert not p_window_genuine(PI4, t + 1e-3).empty
        for v in np.linspace(0.05, 0.95, 19):
            assert p_window_genuine(PI4, float(v)).empty == (v <= t)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            p_window_genuine(0.0, 0.8)
        with pytest.raises(ValueError):
            p_window_genuine(0.5, 1.0)


class TestPhiThresholdGenuine:
    def test_threshold_decimals(self):
        assert phi_threshold_genuine(0.8) == pytest.approx(0.683, abs=5e-4)
        assert phi_threshold_genuine(0.9) == pytest.approx(0.643, abs=5e-4)

    def test_sine_relation(self):
        for v in (0.75, 0.8, 0.9, 0.99):
            t = phi_threshold_genuine(v)
            assert math.sin(2 * t) == pytest.approx(
                SQRT2 * (1 + v) / (1 + 2 * v), abs=1e-12
            )

    def test_limit_toward_full_bias(self):
        # as v -> 1 the threshold tends to arcsin(2 sqrt2 / 3) / 2
        assert phi_threshold_genuine(1 - 1e-9) == pytest.approx(
            0.5 * math.asin(2 * SQRT2 / 3), abs=1e-6
        )

    def test_decreasing_in_v(self):
        values = [phi_threshold_genuine(v) for v in (0.72, 0.8, 0.9, 0.99)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_v_without_threshold(self):
        for v in (0.5, 1 / SQRT2, 1.0, 1.2):
            with pytest.raises(ValueError):
                phi_threshold_genuine(v)


class TestInterval:
    def test_clamping(self):
        w = Interval.clamped(-0.5, 0.5)
        assert (w.lo, w.hi, w.empty) == (0.0, 0.5, False)
        assert Interval.clamped(0.8, 2.0).hi == 1.0
        assert Interval.clamped(0.9, 0.2).empty

    def test_contains(self):
        w = Interval.clamped(0.2, 0.8)
        assert w.contains(0.5)
        assert not w.contains(0.2)  # open interval
        assert not Interval.clamped(0.9, 0.1).contains(0.5)


class TestScan:
    def test_cells_match_pair_functions_exactly(self):
        grid = scan("standard", phi_grid(6), np.linspace(0.0, 1.0, 5))
        for i, phi in enumerate(grid.phi):
            for j, p in enumerate(grid.p):
                m1, m2 = standard_pair_simulated(float(phi), float(p))
                assert grid.value1[i, j] == m1
                assert grid.value2[i, j] == m2

    def test_genuine_cells_match_pair_functions(self):
        grid = scan("genuine", phi_grid(5), np.linspace(0.0, 1.0, 4), v=0.8)
        for i, phi in enumerate(grid.phi):
            for j, p in enumerate(grid.p):
                s1, s2 = genuine_pair_simulated(float(phi), float(p), 0.8)
                assert grid.value1[i, j] == s1
                assert grid.value2[i, j] == s2

    def test_boundary_is_not_a_violation(self):
        # M1 = 2 exactly at p = 0, phi = pi/4 must not count as a violation
        grid = scan("standard", [PI4], [0.0])
        assert grid.value1[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert not grid.flagged[0, 0]

    def test_standard_double_violation(self):
        grid = scan("standard", [PI4], [0.5])
        assert grid.flagged[0, 0]
        assert grid.bound == 2.0
        assert grid.value1[0, 0] == pytest.approx(3.0, abs=1e-10)
        assert grid.value2[0, 0] == pytest.approx(2.5, abs=1e-10)

    def test_standard_below_threshold(self):
        # sin(0.6) ~ 0.5646, so M1 ~ 1.694 < 2
        grid = scan("standard", [0.3], [0.5])
        assert not grid.flagged[0, 0]
        assert grid.value1[0, 0] < 2.0

    def test_genuine_double_violation(self):
        grid = scan("genuine", [PI4], [0.45], v=0.8)
        assert grid.flagged[0, 0]
        assert grid.bound == 4.0

    def test_flags_require_strict_double_violation(self):
        grid = scan("standard", phi_grid(40), np.linspace(0.0, 1.0, 40))
        above = (grid.value1 > grid.bound + 1e-9) & (grid.value2 > grid.bound + 1e-9)
        assert np.array_equal(grid.flagged, above)
        assert grid.flagged.any()
        flagged_phi = grid.phi[np.any(grid.flagged, axis=1)]
        assert np.all(flagged_phi > phi_threshold_standard())

    def test_unbiased_genuine_flags_nothing(self):
        grid = scan("genuine", phi_grid(60), np.linspace(0.0, 1.0, 60), v=0.5)
        assert not grid.flagged.any()

    def test_genuine_flags_only_above_phi_threshold(self):
        grid = scan("genuine", phi_grid(80), np.linspace(0.0, 1.0, 80), v=0.8)
        assert grid.flagged.any()
        flagged_phi = grid.phi[np.any(grid.flagged, axis=1)]
        assert np.all(flagged_phi > phi_threshold_genuine(0.8))

    def test_consistency_with_closed_form_windows(self):
        grid = scan("standard", phi_grid(120), np.linspace(0.0, 1.0, 120))
        assert scan_window_disagreements(grid) == 0
        grid = scan("genuine", phi_grid(90), np.linspace(0.0, 1.0, 90), v=0.9)
        assert scan_window_disagreements(grid) == 0

    def test_membership_matches_windows(self):
        grid = scan("standard", phi_grid(15), np.linspace(0.0, 1.0, 11))
        inside = window_membership(grid)
        for i, phi in enumerate(grid.phi):
            w = p_window_standard(float(phi))
            for j, p in enumerate(grid.p):
                assert inside[i, j] == w.contains(float(p))

    def test_validation(self):
        good_phi = phi_grid(4)
        good_p = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            scan("standard", [], good_p)
        with pytest.raises(ValueError):
            scan("standard", [0.3, 0.2], good_p)
        with pytest.raises(ValueError):
            scan("standard", [0.3, 1.2], good_p)
        with pytest.raises(ValueError):
            scan("standard", good_phi, [-0.1, 0.5])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                scan("standard", [0.5, 0.7], [0.2, bad])
            with pytest.raises(ValueError):
                scan("standard", [0.5, bad], good_p)
        with pytest.raises(ValueError):
            scan("genuine", good_phi, good_p, v=1.0)

    def test_standard_rejects_v(self):
        with pytest.raises(ValueError):
            scan("standard", [PI4], [0.5], v=0.8)
        with pytest.raises(ValueError):
            scan("standard", phi_grid(4), np.linspace(0.0, 1.0, 4), v=0.5)

    def test_genuine_requires_v(self):
        with pytest.raises(ValueError):
            scan("genuine", [PI4], [0.5])
        with pytest.raises(ValueError):
            scan("genuine", phi_grid(4), np.linspace(0.0, 1.0, 4))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            scan("bipartite", [PI4], [0.5])
        with pytest.raises(ValueError):
            scan("chsh", phi_grid(4), np.linspace(0.0, 1.0, 4))
