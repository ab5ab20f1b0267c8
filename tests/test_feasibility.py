import dataclasses
import math

import numpy as np
import pytest

from seqbell.feasibility import (
    VIOLATION_MARGIN,
    FeasibilityGrid,
    _classified,
    p_window_genuine,
    p_window_standard,
    phi_threshold_genuine,
    phi_threshold_standard,
    scan,
    scan_blocks,
    scan_grid,
    scan_window_disagreements,
    v_threshold_genuine,
    window_membership,
)
from seqbell.scenario import SCENARIOS, branch_arrays, mix

PI4 = math.pi / 4
SQRT2 = math.sqrt(2.0)


def phi_grid(n):
    return np.arange(1, n + 1) / n * PI4


def empty(window):
    lo, hi = window
    return not lo < hi


class TestStandardWindow:
    def test_maximally_entangled_gives_full_window(self):
        lo, hi = p_window_standard(PI4)
        assert lo < hi
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_empty_below_threshold(self):
        assert empty(p_window_standard(0.424))
        assert empty(p_window_standard(0.3))

    def test_zero_angle_gives_the_empty_window(self):
        # Both Mermin values are 0 at phi = 0, so no p violates.
        assert p_window_standard(0.0) == (math.inf, -math.inf)

    def test_threshold_value(self):
        t = phi_threshold_standard()
        assert t == pytest.approx(0.4240, abs=5e-4)
        assert math.sin(2 * t) == pytest.approx(0.75, abs=1e-12)
        assert not empty(p_window_standard(t + 1e-6))
        assert empty(p_window_standard(t - 1e-6))


class TestGenuineWindow:
    def test_endpoints_at_v08(self):
        lo, hi = p_window_genuine(PI4, 0.8)
        assert lo == pytest.approx(SQRT2 - 1, abs=1e-12)
        assert hi == pytest.approx((9 - 5 * SQRT2) / 4, abs=1e-12)
        assert lo == pytest.approx(0.4143, abs=1e-4)
        assert hi == pytest.approx(0.4822, abs=1e-4)

    def test_endpoints_at_v09(self):
        lo, hi = p_window_genuine(PI4, 0.9)
        assert lo == pytest.approx(SQRT2 - 1, abs=1e-12)
        assert hi == pytest.approx((19 - 10 * SQRT2) / 9, abs=1e-12)
        assert hi == pytest.approx(0.5397, abs=1e-4)

    def test_unbiased_window_is_empty(self):
        assert empty(p_window_genuine(PI4, 0.5))

    def test_nonempty_iff_v_above_threshold(self):
        t = v_threshold_genuine()
        assert t == pytest.approx(1 / SQRT2, abs=0)
        assert t == pytest.approx(0.7071, abs=5e-5)
        assert empty(p_window_genuine(PI4, t - 1e-4))
        assert not empty(p_window_genuine(PI4, t + 1e-3))
        for v in np.linspace(0.05, 0.95, 19):
            assert empty(p_window_genuine(PI4, float(v))) == (v <= t)

    @pytest.mark.parametrize("v", [5e-324, 1e-310, 1e-300])
    def test_tiny_bias_gives_an_empty_window_without_nan(self, v):
        # v * sin(2phi) underflows to 0 and 1/v overflows; the upper end divides by v alone.
        for phi in (1e-300, 1e-3, 0.3, PI4):
            lo, hi = p_window_genuine(phi, v)
            assert not lo < hi
            assert not math.isnan(lo) and not math.isnan(hi)

    def test_rejects_bad_domain(self):
        # phi = 0 is in the domain, where the window is empty; v = 1 is not.
        assert p_window_genuine(0.0, 0.8) == (math.inf, -math.inf)
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


def hand_grid(flagged=None):
    """A 20x20 standard grid with the given flags and no values."""
    phi, p = phi_grid(20), np.linspace(0.0, 1.0, 20)
    blank = np.zeros((phi.size, p.size))
    return FeasibilityGrid("standard", phi, p, None, blank, blank, flagged)


def reference_membership(grid):
    """The per-angle loop that ``window_membership`` replaced, kept as the reference."""
    inside = np.zeros(grid.value1.shape, dtype=bool)
    for i, phi in enumerate(grid.phi):
        lo, hi = (p_window_standard(float(phi)) if grid.v is None
                  else p_window_genuine(float(phi), grid.v))
        inside[i, :] = (lo < grid.p) & (grid.p < hi)
    return inside


class TestWindowDisagreements:
    """Flags equal to the closed-form windows, with one cell flipped by hand."""

    def flipped(self, inside, cell, values=None):
        flagged = inside.copy()
        flagged[cell] = not flagged[cell]
        grid = hand_grid(flagged)
        return grid if values is None else dataclasses.replace(grid, value1=values)

    def test_matching_flags_count_zero(self):
        inside = window_membership(hand_grid())
        assert inside.any() and not inside.all()
        assert scan_window_disagreements(hand_grid(inside)) == (0, 0)

    def test_flipped_interior_cell_counts_once(self):
        # Every cell off the bound is compared, those beside the window boundary too.
        inside = window_membership(hand_grid())
        for cell in np.ndindex(inside.shape):
            assert scan_window_disagreements(self.flipped(inside, cell)) == (1, 0), cell

    def test_flipped_cell_on_the_bound_counts_zero(self):
        inside = window_membership(hand_grid())
        bound = SCENARIOS["standard"].bound
        for cell in ((0, 0), (10, 10), (19, 19)):
            for offset, counted in ((0.0, 0), (VIOLATION_MARGIN / 2, 0),
                                    (-VIOLATION_MARGIN / 2, 0), (2 * VIOLATION_MARGIN, 1),
                                    (-2 * VIOLATION_MARGIN, 1)):
                values = np.zeros(inside.shape)
                values[cell] = bound + offset
                grid = self.flipped(inside, cell, values)
                assert scan_window_disagreements(grid) == (counted, 1 - counted), (cell, offset)


def test_violation_margin_sets_the_flag_threshold():
    # Values a margin's half above the bound are not violations, two margins above are.
    for kind, v in (("standard", None), ("genuine", 0.8)):
        bound = SCENARIOS[kind].bound
        values = np.array([[bound, bound + VIOLATION_MARGIN / 2, bound + 2 * VIOLATION_MARGIN]])
        grid = _classified(kind, np.array([PI4]), np.array([0.0, 0.5, 1.0]), v, values, values)
        assert grid.flagged.tolist() == [[False, False, True]], kind


class TestScan:
    def test_cells_match_pair_functions_exactly(self):
        grid = scan("standard", phi_grid(6), np.linspace(0.0, 1.0, 5))
        for i, phi in enumerate(grid.phi):
            for j, p in enumerate(grid.p):
                m1, m2 = mix(branch_arrays("standard", [float(phi)]), float(p))
                assert grid.value1[i, j] == m1
                assert grid.value2[i, j] == m2

    def test_genuine_cells_match_pair_functions(self):
        grid = scan("genuine", phi_grid(5), np.linspace(0.0, 1.0, 4), v=0.8)
        for i, phi in enumerate(grid.phi):
            for j, p in enumerate(grid.p):
                s1, s2 = mix(branch_arrays("genuine", [float(phi)], 0.8), float(p))
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
        assert grid.value1[0, 0] > 2.0 and grid.value2[0, 0] > 2.0
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
        assert grid.value1[0, 0] > 4.0 and grid.value2[0, 0] > 4.0

    def test_flags_require_strict_double_violation(self):
        grid = scan("standard", phi_grid(40), np.linspace(0.0, 1.0, 40))
        above = (grid.value1 > 2.0 + 1e-9) & (grid.value2 > 2.0 + 1e-9)
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
        assert scan_window_disagreements(grid)[0] == 0
        grid = scan("genuine", phi_grid(90), np.linspace(0.0, 1.0, 90), v=0.9)
        assert scan_window_disagreements(grid)[0] == 0

    def test_membership_matches_windows(self):
        p = np.linspace(0.0, 1.0, 11)
        # A subnormal bias overflows the genuine upper end to -inf; one ulp above
        # 1/sqrt2 the window at pi/4 rounds empty.
        for grid in (scan("standard", phi_grid(15), p),
                     *(scan("genuine", phi_grid(15), p, v=v)
                       for v in (0.9, 5e-324, math.nextafter(1 / SQRT2, 1.0)))):
            assert np.array_equal(window_membership(grid), reference_membership(grid))

    def test_zero_angle_row_is_outside_every_window(self):
        p = np.linspace(0.0, 1.0, 7)
        for grid in (scan("standard", [0.0, PI4 / 2, PI4], p),
                     scan("genuine", [0.0, PI4 / 2, PI4], p, v=0.9)):
            inside = window_membership(grid)
            assert not inside[0].any()
            assert inside[2].any()
            assert np.array_equal(inside, reference_membership(grid))
        for grid in (scan("standard", [0.0], p), scan("genuine", [0.0], p, v=0.9)):
            assert not window_membership(grid).any()

    def test_blocked_scan_evaluates_its_angles_in_blocks(self, traced_peak):
        # Measured in MiB on the standard 500x500 grid: 4.6 for the per-angle scan,
        # 5.1 in blocks of 100, and 9.7 for one kernel call on all 500 angles.
        _, peak = traced_peak(scan_blocks, "standard", *scan_grid(500, 500))
        assert peak <= 6 << 20

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

    def test_rejects_samples_that_are_not_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            scan("standard", np.array([[0.5]]), [0.0, 1.0])
        with pytest.raises(ValueError, match="1-D"):
            scan("standard", [0.5], np.array([[0.0, 1.0]]))

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
