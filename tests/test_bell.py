import math

import numpy as np
import pytest

from seqbell.bell import (
    MERMIN_TERMS,
    SVETLICHNY_TERMS,
    check_settings,
    expectation,
    mermin_value,
    svetlichny_value,
)
from seqbell.luders import luders_update
from seqbell.qstate import bloch_obs, ghz, pauli, projective_from_observable, to_density

SX, SY = pauli("x"), pauli("y")
I2 = np.eye(2, dtype=complex)
SQRT2 = math.sqrt(2.0)


def brute_expectation(rho, a, b, c):
    """tr(rho M) with M built entry by entry from the basis-index bits."""
    total = 0.0 + 0.0j
    for i in range(8):
        for j in range(8):
            ia, ib, ic = (i >> 2) & 1, (i >> 1) & 1, i & 1
            ja, jb, jc = (j >> 2) & 1, (j >> 1) & 1, j & 1
            total += rho[j, i] * a[ia, ja] * b[ib, jb] * c[ic, jc]
    return total


def standard_settings(c0, c1):
    return check_settings(((SX, SY), (-SY, SX), (c0, c1)))


def genuine_settings(c0, c1):
    return check_settings((
        (SX, SY),
        (bloch_obs(1 / SQRT2, -1 / SQRT2, 0.0), bloch_obs(1 / SQRT2, 1 / SQRT2, 0.0)),
        (c0, c1),
    ))


class TestExpectation:
    def test_all_x_on_maximal_state(self):
        rho = to_density(ghz(math.pi / 4))
        oracle = brute_expectation(rho, SX, SX, SX)
        assert abs(oracle.imag) < 1e-14
        assert oracle.real == pytest.approx(1.0, abs=1e-14)
        assert expectation(rho, SX, SX, SX) == pytest.approx(1.0, abs=1e-12)

    def test_z_marginal_is_cos_2phi(self):
        for phi in np.linspace(0.0, math.pi / 4, 9):
            rho = to_density(ghz(phi))
            assert expectation(rho, pauli("z"), I2, I2) == pytest.approx(
                math.cos(2 * phi), abs=1e-12
            )

    def test_product_state_kills_x_correlator(self):
        rho = to_density(ghz(0.0))
        assert expectation(rho, SX, SX, SX) == pytest.approx(0.0, abs=1e-14)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            phi = float(rng.random()) * math.pi / 4
            rho = to_density(ghz(phi))
            obs = []
            for _ in range(3):
                n = rng.normal(size=3)
                n /= np.linalg.norm(n)
                obs.append(bloch_obs(*n))
            oracle = brute_expectation(rho, *obs)
            val = expectation(rho, *obs)
            assert val == pytest.approx(oracle.real, abs=1e-12)
            assert -1.0 - 1e-10 <= val <= 1.0 + 1e-10

    def test_imaginary_residue_raises(self):
        rho = to_density(ghz(math.pi / 4))
        with pytest.raises(RuntimeError):
            expectation(rho, 1j * SX, SX, SX)


class TestInequalityValues:
    def test_term_tables(self):
        assert len(MERMIN_TERMS) == 4
        assert len(SVETLICHNY_TERMS) == 8
        assert dict(SVETLICHNY_TERMS)[(0, 0, 0)] == -1
        assert dict(SVETLICHNY_TERMS)[(1, 1, 1)] == -1
        assert sum(coeff for _, coeff in SVETLICHNY_TERMS) == 4

    def test_mermin_first_charlie(self):
        settings = standard_settings(c0=SX, c1=SY)
        for phi in np.linspace(0.0, math.pi / 4, 40):
            rho = to_density(ghz(phi))
            assert mermin_value(rho, settings) == pytest.approx(
                4 * math.sin(2 * phi), abs=1e-10
            )

    def test_mermin_with_identity_setting(self):
        settings = standard_settings(c0=SX, c1=I2)
        for phi in (0.2, 0.5, math.pi / 4):
            rho = to_density(ghz(phi))
            assert mermin_value(rho, settings) == pytest.approx(
                2 * math.sin(2 * phi), abs=1e-10
            )

    def test_mermin_after_update(self):
        settings = standard_settings(c0=SX, c1=SY)
        strat = (projective_from_observable(SX), projective_from_observable(SY))
        for phi in (0.3, math.pi / 4):
            rho2 = luders_update(to_density(ghz(phi)), strat)
            assert mermin_value(rho2, settings) == pytest.approx(
                2 * math.sin(2 * phi), abs=1e-10
            )

    def test_svetlichny_first_charlie(self):
        settings = genuine_settings(c0=-SY, c1=SX)
        for phi in np.linspace(0.0, math.pi / 4, 40):
            rho = to_density(ghz(phi))
            assert svetlichny_value(rho, settings) == pytest.approx(
                4 * SQRT2 * math.sin(2 * phi), abs=1e-10
            )

    def test_svetlichny_after_update(self):
        settings = genuine_settings(c0=-SY, c1=SX)
        strat = (projective_from_observable(-SY), projective_from_observable(SX))
        for phi in (0.4, math.pi / 4):
            rho2 = luders_update(to_density(ghz(phi)), strat)
            assert svetlichny_value(rho2, settings) == pytest.approx(
                2 * SQRT2 * math.sin(2 * phi), abs=1e-10
            )

    def test_svetlichny_vanishes_on_product_state(self):
        rho = to_density(ghz(0.0))
        assert svetlichny_value(rho, genuine_settings(-SY, SX)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_algebraic_bounds_on_random_settings(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            obs = []
            for _ in range(6):
                n = rng.normal(size=3)
                n /= np.linalg.norm(n)
                obs.append(bloch_obs(*n))
            settings = check_settings(((obs[0], obs[1]), (obs[2], obs[3]), (obs[4], obs[5])))
            rho = to_density(ghz(float(rng.random()) * math.pi / 4))
            assert abs(mermin_value(rho, settings)) <= 4 + 1e-10
            assert abs(svetlichny_value(rho, settings)) <= 8 + 1e-10


class TestLinearity:
    def test_multilinear_in_observables(self):
        rho = to_density(ghz(0.5))
        a, a2 = SX, SY
        alpha, beta = 0.3, -1.2
        combo = expectation(rho, alpha * a + beta * a2, SX, SY)
        expected = alpha * expectation(rho, a, SX, SY) + beta * expectation(rho, a2, SX, SY)
        assert combo == pytest.approx(expected, abs=1e-12)

    def test_linear_in_state(self):
        settings = standard_settings(c0=SX, c1=SY)
        rho1 = to_density(ghz(0.2))
        rho2 = to_density(ghz(0.7))
        for p in (0.0, 0.25, 0.6, 1.0):
            mixed = p * rho1 + (1 - p) * rho2
            expected = p * mermin_value(rho1, settings) + (1 - p) * mermin_value(rho2, settings)
            assert mermin_value(mixed, settings) == pytest.approx(expected, abs=1e-12)
            expected_s = (p * svetlichny_value(rho1, settings)
                          + (1 - p) * svetlichny_value(rho2, settings))
            assert svetlichny_value(mixed, settings) == pytest.approx(expected_s, abs=1e-12)

    def test_settings_reject_non_involutive(self):
        with pytest.raises(ValueError):
            check_settings(((0.5 * SX, SY), (SX, SY), (SX, SY)))


def _nan_density():
    rho = to_density(ghz(0.3))
    rho[0, 0] = np.nan
    return rho


def _nan_batch():
    """Three stacked GHZ densities, the middle one with a NaN entry."""
    rho = to_density(ghz(np.array([0.1, 0.3, 0.5])))
    rho[1, 0, 0] = np.nan
    return rho


NAN_OBS = np.full((2, 2), np.nan, dtype=complex)


@pytest.mark.parametrize("call, error, match", [
    (lambda: to_density(np.full(8, np.nan)), ValueError, None),
    (lambda: bloch_obs(np.nan, 0.0, 1.0), ValueError, None),
    (lambda: check_settings(((NAN_OBS, SY), (SX, SY), (SX, SY))), ValueError, None),
    (lambda: luders_update(_nan_density(), (
        projective_from_observable(SX), projective_from_observable(SY))), RuntimeError, None),
    (lambda: expectation(_nan_density(), SX, SX, SX), RuntimeError, None),
    (lambda: projective_from_observable(NAN_OBS), ValueError, "square"),
    (lambda: to_density(np.stack([ghz(0.1), np.full(8, np.nan), ghz(0.5)])), ValueError,
     "normalized"),
    (lambda: luders_update(_nan_batch(), (
        projective_from_observable(SX), projective_from_observable(SY))), RuntimeError, "trace"),
    (lambda: expectation(_nan_batch(), SX, SX, SX), RuntimeError, "imaginary"),
], ids=["to_density", "bloch_obs", "settings", "luders_update", "expectation",
        "projective_from_observable", "to_density_batch", "luders_update_batch",
        "expectation_batch"])
def test_nan_fails_kernel_guards(call, error, match):
    with pytest.raises(error, match=match):
        call()
