import math

import numpy as np
import pytest

from seqbell.bell import (
    MERMIN_TERMS,
    SVETLICHNY_TERMS,
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


def correlator(rho, a, b, c):
    """<A (x) B (x) C> as a stack of one correlator, its K = 1 axis dropped."""
    return expectation(rho, [a], [b], [c])[..., 0]


def standard_settings(c0, c1):
    return ((SX, SY), (-SY, SX), (c0, c1))


def genuine_settings(c0, c1):
    return (
        (SX, SY),
        (bloch_obs(1 / SQRT2, -1 / SQRT2, 0.0), bloch_obs(1 / SQRT2, 1 / SQRT2, 0.0)),
        (c0, c1),
    )


class TestExpectation:
    def test_all_x_on_maximal_state(self):
        rho = to_density(ghz(math.pi / 4))
        oracle = brute_expectation(rho, SX, SX, SX)
        assert abs(oracle.imag) < 1e-14
        assert oracle.real == pytest.approx(1.0, abs=1e-14)
        assert correlator(rho, SX, SX, SX) == pytest.approx(1.0, abs=1e-12)

    def test_z_marginal_is_cos_2phi(self):
        for phi in np.linspace(0.0, math.pi / 4, 9):
            rho = to_density(ghz(phi))
            assert correlator(rho, pauli("z"), I2, I2) == pytest.approx(
                math.cos(2 * phi), abs=1e-12
            )

    def test_product_state_kills_x_correlator(self):
        rho = to_density(ghz(0.0))
        assert correlator(rho, SX, SX, SX) == pytest.approx(0.0, abs=1e-14)

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
            val = correlator(rho, *obs)
            assert val == pytest.approx(oracle.real, abs=1e-12)
            assert -1.0 - 1e-10 <= val <= 1.0 + 1e-10

    def test_imaginary_residue_raises(self):
        rho = to_density(ghz(math.pi / 4))
        with pytest.raises(RuntimeError):
            correlator(rho, 1j * SX, SX, SX)

    def test_y_on_qubit_c_of_its_eigenstate_reads_plus_one(self):
        # (|000> + i|001>)/sqrt2 is qubit C's +1 eigenstate of Y; Tr(rho O^T) reads -1.
        rho = to_density(np.array([1, 1j, 0, 0, 0, 0, 0, 0]) / SQRT2)
        assert correlator(rho, I2, I2, SY) == pytest.approx(1.0, abs=1e-15)

    def test_qubit_a_is_the_most_significant_bit(self):
        # |001> is index 1: qubits A and B read |0>, qubit C reads |1>.
        rho = to_density(np.eye(8)[1])
        assert correlator(rho, pauli("z"), I2, I2) == 1.0
        assert correlator(rho, I2, I2, pauli("z")) == -1.0

    def test_matches_oracle_on_a_complex_state(self):
        # rho is not symmetric, so the oracle tells Tr(rho O) from Tr(rho O^T).
        rho = random_states(np.random.default_rng(33), 1)[0]
        assert np.max(np.abs(rho - rho.T)) > 0.1
        for obs in [(SX, SY, SY), (I2, SY, pauli("z")), (SY, I2, SX)]:
            oracle = brute_expectation(rho, *obs)
            assert abs(oracle.imag) < 1e-14
            assert correlator(rho, *obs) == pytest.approx(oracle.real, abs=1e-14)


def random_states(rng, n):
    """``n`` random complex pure states as a stack of densities."""
    psi = rng.normal(size=(n, 8)) + 1j * rng.normal(size=(n, 8))
    return to_density(psi / np.linalg.norm(psi, axis=-1, keepdims=True))


def random_observables(rng, n):
    """``n`` observables n . sigma along random unit Bloch vectors: no entry is zero."""
    axes = rng.normal(size=(n, 3))
    return list(bloch_obs(*(axes / np.linalg.norm(axes, axis=-1, keepdims=True)).T))


class TestDenseOperators:
    """Rows with two nonzero entries: the sum differs from the full product's only in rounding."""

    def test_stack_equals_one_call_per_member_and_correlator(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            rho = random_states(rng, 5)
            a, b, c = (random_observables(rng, 8) for _ in range(3))
            stacked = expectation(rho, a, b, c)
            singles = [[correlator(r, *obs) for obs in zip(a, b, c)] for r in rho]
            assert np.array_equal(stacked.view(np.uint64), np.array(singles).view(np.uint64))

    def test_matches_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            rho = random_states(rng, 1)[0]
            obs = [random_observables(rng, 1)[0] for _ in range(3)]
            assert abs(correlator(rho, *obs) - brute_expectation(rho, *obs).real) <= 1e-14


class TestStackedCorrelators:
    """A stack of K correlators is bitwise K separate ones, and is guarded as a whole."""

    CASES = (
        (standard_settings(SX, SY), MERMIN_TERMS),
        (standard_settings(SX, I2), MERMIN_TERMS),
        (genuine_settings(-SY, SX), SVETLICHNY_TERMS),
        (genuine_settings(I2, SX), SVETLICHNY_TERMS),
    )

    def test_stack_equals_one_call_per_correlator(self):
        one = to_density(ghz(0.3))
        batch = to_density(ghz(np.array([0.1, 0.3, math.pi / 4])))
        for (a, b, c), terms in self.CASES:
            stack = [(a[x], b[y], c[z]) for (x, y, z), _ in terms]
            for rho in (one, batch):
                stacked = expectation(rho, *zip(*stack))
                assert stacked.shape == rho.shape[:-2] + (len(terms),)
                singles = np.stack([correlator(rho, *obs) for obs in stack], axis=-1)
                assert np.array_equal(stacked, singles)

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError):
            expectation(to_density(ghz(0.3)), [SX, SY], [SX, SY], [SX])

    def test_svetlichny_of_many_states_makes_no_full_products(self, traced_peak):
        # Measured in MiB: 0.56 on 500 GHZ states, and 3.98 with the (N, 8, 8, 8) products.
        rho = to_density(ghz(np.linspace(0.0, math.pi / 4, 500)))
        _, peak = traced_peak(svetlichny_value, rho, genuine_settings(-SY, SX))
        assert peak <= 1 << 20

    def test_residue_guard_reads_the_last_correlator(self):
        rho = to_density(ghz(math.pi / 4))
        expectation(rho, [SX, SX], [SX, SY], [SX, SX])  # the first two pass the guard
        with pytest.raises(RuntimeError, match="imaginary"):
            expectation(rho, [SX, SX, SX], [SX, SY, SX], [SX, SX, 1j * SX])


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


class TestLinearity:
    def test_multilinear_in_observables(self):
        rho = to_density(ghz(0.5))
        a, a2 = SX, SY
        alpha, beta = 0.3, -1.2
        combo = correlator(rho, alpha * a + beta * a2, SX, SY)
        expected = alpha * correlator(rho, a, SX, SY) + beta * correlator(rho, a2, SX, SY)
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
    (lambda: luders_update(_nan_density(), (
        projective_from_observable(SX), projective_from_observable(SY))), RuntimeError, None),
    (lambda: correlator(_nan_density(), SX, SX, SX), RuntimeError, None),
    (lambda: projective_from_observable(NAN_OBS), ValueError, "square"),
    (lambda: to_density(np.stack([ghz(0.1), np.full(8, np.nan), ghz(0.5)])), ValueError,
     "normalized"),
    (lambda: luders_update(_nan_batch(), (
        projective_from_observable(SX), projective_from_observable(SY))), RuntimeError, "trace"),
    (lambda: correlator(_nan_batch(), SX, SX, SX), RuntimeError, "imaginary"),
], ids=["to_density", "bloch_obs", "luders_update", "expectation",
        "projective_from_observable", "to_density_batch", "luders_update_batch",
        "expectation_batch"])
def test_nan_fails_kernel_guards(call, error, match):
    with pytest.raises(error, match=match):
        call()
