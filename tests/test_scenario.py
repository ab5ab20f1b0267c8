import math

import numpy as np
import pytest

from seqbell.scenario import (
    check_p,
    check_v,
    genuine_branch_values,
    genuine_pair_closed,
    genuine_pair_simulated,
    standard_branch_values,
    standard_pair_closed,
    standard_pair_simulated,
)

PI4 = math.pi / 4
SQRT2 = math.sqrt(2.0)


class TestStandardPairs:
    def test_pure_strategy_one(self):
        m1, m2 = standard_pair_simulated(PI4, 1.0)
        assert m1 == pytest.approx(4.0, abs=1e-10)
        assert m2 == pytest.approx(2.0, abs=1e-10)

    def test_pure_strategy_two(self):
        m1, m2 = standard_pair_simulated(PI4, 0.0)
        assert m1 == pytest.approx(2.0, abs=1e-10)
        assert m2 == pytest.approx(3.0, abs=1e-10)

    def test_even_mixture(self):
        m1, m2 = standard_pair_simulated(PI4, 0.5)
        assert m1 == pytest.approx(3.0, abs=1e-10)
        assert m2 == pytest.approx(2.5, abs=1e-10)

    def test_closed_form_examples(self):
        assert standard_pair_closed(PI4, 1.0) == pytest.approx((4.0, 2.0), abs=1e-12)
        for p in (0.0, 0.3, 1.0):
            assert standard_pair_closed(0.0, p) == (0.0, 0.0)
        # (2*0.4 + 2) sin 1 and (3 - 0.4) sin 1, evaluated independently
        m1, m2 = standard_pair_closed(0.5, 0.4)
        assert m1 == pytest.approx(2.8 * math.sin(1.0), abs=1e-12)
        assert m2 == pytest.approx(2.6 * math.sin(1.0), abs=1e-12)

    def test_simulated_matches_closed(self):
        for phi in np.linspace(0.0, PI4, 12):
            for p in (0.0, 0.2, 0.5, 0.9, 1.0):
                sim = standard_pair_simulated(phi, p)
                closed = standard_pair_closed(phi, p)
                assert sim[0] == pytest.approx(closed[0], abs=1e-10)
                assert sim[1] == pytest.approx(closed[1], abs=1e-10)

    def test_mixing_is_linear(self):
        for phi in (0.3, 0.6, PI4):
            pure1 = standard_pair_simulated(phi, 1.0)
            pure2 = standard_pair_simulated(phi, 0.0)
            for p in (0.1, 0.45, 0.8):
                mixed = standard_pair_simulated(phi, p)
                assert mixed[0] == pytest.approx(
                    p * pure1[0] + (1 - p) * pure2[0], abs=1e-12)
                assert mixed[1] == pytest.approx(
                    p * pure1[1] + (1 - p) * pure2[1], abs=1e-12)


class TestGenuinePairs:
    def test_pure_strategy_one_ignores_bias(self):
        for v in (0.2, 0.5, 0.9):
            s1, s2 = genuine_pair_simulated(PI4, 1.0, v)
            assert s1 == pytest.approx(4 * SQRT2, abs=1e-10)
            assert s2 == pytest.approx(2 * SQRT2, abs=1e-10)

    def test_pure_strategy_two(self):
        s1, s2 = genuine_pair_simulated(PI4, 0.0, 0.8)
        assert s1 == pytest.approx(2 * SQRT2, abs=1e-10)
        assert s2 == pytest.approx(2 * SQRT2 * 1.8, abs=1e-10)

    def test_double_violation_point(self):
        # p = 0.45, v = 0.8: 2 sqrt2 * 1.45 and 2 sqrt2 * 1.44, both above 4
        s1, s2 = genuine_pair_simulated(PI4, 0.45, 0.8)
        assert s1 == pytest.approx(2 * SQRT2 * 1.45, abs=1e-10)
        assert s2 == pytest.approx(2 * SQRT2 * 1.44, abs=1e-10)
        assert s1 > 4 and s2 > 4

    def test_closed_form_examples(self):
        s1, _ = genuine_pair_closed(PI4, SQRT2 - 1, 0.5)
        assert s1 == pytest.approx(4.0, abs=1e-12)
        assert genuine_pair_closed(0.0, 0.3, 0.7) == (0.0, 0.0)
        _, s2 = genuine_pair_closed(PI4, 0.4822, 0.8)
        assert s2 == pytest.approx(4.0, abs=5e-4)

    def test_simulated_matches_closed(self):
        for phi in np.linspace(0.0, PI4, 8):
            for p in (0.0, 0.4, 1.0):
                for v in (0.1, 0.5, 0.9):
                    sim = genuine_pair_simulated(phi, p, v)
                    closed = genuine_pair_closed(phi, p, v)
                    assert sim[0] == pytest.approx(closed[0], abs=1e-10)
                    assert sim[1] == pytest.approx(closed[1], abs=1e-10)

    def test_branch_values_match_closed_forms(self):
        phi, v = 0.55, 0.7
        s = math.sin(2 * phi)
        first1, second1, first2, second2 = genuine_branch_values(phi, v)
        assert first1 == pytest.approx(4 * SQRT2 * s, abs=1e-10)
        assert second1 == pytest.approx(2 * SQRT2 * s, abs=1e-10)
        assert first2 == pytest.approx(2 * SQRT2 * s, abs=1e-10)
        assert second2 == pytest.approx(2 * SQRT2 * (1 + v) * s, abs=1e-10)


class TestValidation:
    def test_phi_range(self):
        with pytest.raises(ValueError):
            standard_pair_simulated(-0.1, 0.5)
        with pytest.raises(ValueError):
            standard_pair_closed(PI4 + 0.1, 0.5)

    def test_p_range(self):
        with pytest.raises(ValueError):
            standard_pair_simulated(0.5, 1.1)
        with pytest.raises(ValueError):
            genuine_pair_closed(0.5, -0.2, 0.5)

    def test_v_range(self):
        for v in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError):
                genuine_pair_simulated(0.5, 0.5, v)

    def test_check_p_and_v(self):
        check_p(0.0)
        check_p(1.0)
        check_v(0.5)
        for bad_p in (1.5, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                check_p(bad_p)
        for bad_v in (0.0, 1.0, math.nan, -math.inf):
            with pytest.raises(ValueError):
                check_v(bad_v)

    def test_branch_value_count(self):
        assert len(standard_branch_values(0.5)) == 4
        assert len(genuine_branch_values(0.5, 0.5)) == 4
