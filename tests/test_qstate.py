import math

import numpy as np
import pytest

from seqbell.qstate import (
    PHI_MAX,
    check_effects,
    check_p,
    check_phi,
    bloch_obs,
    ghz,
    identity_measurement,
    pauli,
    projective_from_observable,
    to_density,
)
from seqbell.scenario import branch_arrays

I2 = np.eye(2, dtype=complex)


class TestGhz:
    def test_phi_zero_is_000(self):
        amps = ghz(0.0)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1
        assert np.array_equal(amps, expected)

    def test_maximally_entangled(self):
        amps = ghz(math.pi / 4)
        assert amps[0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert amps[7] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert np.all(amps[1:7] == 0)

    def test_pi_over_8_amplitudes(self):
        # cos(pi/8), sin(pi/8) to 5 decimals
        amps = ghz(math.pi / 8)
        assert amps[0].real == pytest.approx(0.92388, abs=5e-6)
        assert amps[7].real == pytest.approx(0.38268, abs=5e-6)

    @pytest.mark.parametrize("phi", [-0.01, math.pi / 4 + 0.01, 1.0])
    def test_rejects_out_of_range(self, phi):
        with pytest.raises(ValueError):
            ghz(phi)

    def test_normalized_across_range(self):
        for phi in np.linspace(0.0, PHI_MAX, 17):
            amps = ghz(phi)
            assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12


class TestToDensity:
    def test_phi_zero_density(self):
        rho = to_density(ghz(0.0))
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 1
        assert np.array_equal(rho, expected)

    def test_coherence_entry(self):
        # cos(pi/4) * sin(pi/4) = 1/2
        rho = to_density(ghz(math.pi / 4))
        assert rho[0, 7] == pytest.approx(0.5, abs=1e-15)

    def test_density_invariants(self):
        for phi in np.linspace(0.0, PHI_MAX, 17):
            rho = to_density(ghz(phi))
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            to_density(2.0 * ghz(0.5))
        with pytest.raises(ValueError):
            to_density(np.ones(4, dtype=complex))


def test_batch_errors_name_the_first_bad_member():
    phi = np.linspace(0.0, PHI_MAX, 500)
    phi[[123, 321]] = np.nan
    with pytest.raises(ValueError, match=r"^phi=nan \(angle 123 of 500\) outside \[0, pi/4\]$"):
        ghz(phi)
    psi = ghz(phi[:4])
    psi[2] *= 2.0
    with pytest.raises(ValueError,
                       match=r"^state vector 2 of 4 not normalized: \|psi\|\^2 = 4\.0$"):
        to_density(psi)


class TestStackGuards:
    """One bad member rejects a whole stack, with the error it would raise alone."""

    AXES = np.array([(1.0, 0.0, 0.0), (0.0, 0.6, 0.8), (0.0, 0.0, -1.0)])

    @pytest.mark.parametrize("bad, shown", [((1.0, 1.0, 0.0), "2.0"),
                                            ((math.nan, 0.0, 1.0), "nan")])
    def test_bloch_vector_not_unit_length(self, bad, shown):
        axes = self.AXES.copy()
        axes[1] = bad
        message = rf"^Bloch vector not unit length: \|n\|\^2 = {shown}$"
        for stack in (axes, axes[1:2]):
            with pytest.raises(ValueError, match=message):
                bloch_obs(*stack.T)
        with pytest.raises(ValueError, match=message):
            bloch_obs(*bad)

    @pytest.mark.parametrize("bad", [0.5 * pauli("x"), np.full((2, 2), np.nan)])
    def test_observable_that_does_not_square_to_the_identity(self, bad):
        stack = bloch_obs(*self.AXES.T)
        stack[1] = bad
        for o in (stack, bad):
            with pytest.raises(ValueError, match="^observable does not square to the identity$"):
                projective_from_observable(o)

    def test_effects(self):
        effect0, effect1 = projective_from_observable(bloch_obs(*self.AXES.T))
        assert check_effects((effect0, effect1)) == (effect0, effect1)
        effect0[2] = I2 / 2  # not a projector, though the pair still sums to I
        effect1[2] = I2 / 2
        with pytest.raises(ValueError, match="^effect0 is not an idempotent Hermitian effect$"):
            check_effects((effect0, effect1))
        effect0[2], effect1[2] = I2, I2
        with pytest.raises(ValueError, match="^effects do not sum to the identity$"):
            check_effects((effect0, effect1))

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.5])
    def test_probability(self, bad):
        p = np.array([0.0, 0.5, bad, 1.0, bad])
        for probabilities in (p, p[2], bad):
            with pytest.raises(ValueError, match=rf"^q={bad} outside \[0, 1\]$"):
                check_p(probabilities, "q")
        check_p(np.array([0.0, 0.5, 1.0]))


def test_empty_angle_array_is_rejected_by_name():
    for empty in ([], np.empty(0), np.empty((0, 3))):
        with pytest.raises(ValueError, match=r"^phi is an empty array of angles$"):
            check_phi(empty)
    with pytest.raises(ValueError, match=r"^phi is an empty array of angles$"):
        branch_arrays("standard", [])


class TestObservables:
    def test_pauli_x_convention(self):
        assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]]))

    def test_pauli_y_convention(self):
        assert np.array_equal(pauli("y"), np.array([[0, -1j], [1j, 0]]))
        assert np.array_equal(pauli("y") @ pauli("y"), I2)

    def test_pauli_z_traceless(self):
        assert np.trace(pauli("z")) == 0

    def test_pauli_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("w")

    def test_bloch_diagonal_xy(self):
        s = 1 / math.sqrt(2)
        b0 = bloch_obs(s, -s, 0.0)
        assert np.allclose(b0, (pauli("x") - pauli("y")) / math.sqrt(2), atol=1e-15)

    def test_bloch_minus_y(self):
        assert np.array_equal(bloch_obs(0.0, -1.0, 0.0), -pauli("y"))

    def test_bloch_squares_to_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            o = bloch_obs(*n)
            assert np.max(np.abs(o @ o - I2)) < 1e-12

    def test_bloch_rejects_non_unit(self):
        with pytest.raises(ValueError):
            bloch_obs(1.0, 1.0, 0.0)


class TestMeasurements:
    def test_projective_effects_for_x(self):
        effect0, effect1 = projective_from_observable(pauli("x"))
        assert np.allclose(effect0, (I2 + pauli("x")) / 2, atol=1e-15)
        assert np.allclose(effect1, (I2 - pauli("x")) / 2, atol=1e-15)

    def test_projective_effect_for_minus_y(self):
        effect0, _ = projective_from_observable(-pauli("y"))
        assert np.allclose(effect0, (I2 - pauli("y")) / 2, atol=1e-15)

    def test_effects_complete_and_projective(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            effect0, effect1 = projective_from_observable(bloch_obs(*n))
            assert np.max(np.abs(effect0 + effect1 - I2)) < 1e-12
            for e in (effect0, effect1):
                assert np.max(np.abs(e @ e - e)) < 1e-12
                assert np.max(np.abs(e - e.conj().T)) < 1e-12

    def test_observable_round_trip(self):
        o = bloch_obs(0.6, 0.0, 0.8)
        effect0, effect1 = projective_from_observable(o)
        assert np.allclose(effect0 - effect1, o, atol=1e-15)

    def test_plus_and_minus_identity_are_degenerate_pairs(self):
        # Both bitwise the (I, 0) built directly: 1/2 + 1/2 and 1/2 - 1/2 are exact.
        for pair in (identity_measurement(), projective_from_observable(I2)):
            for got, want in zip(pair, (I2, np.zeros((2, 2), dtype=complex)), strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        effect0, effect1 = projective_from_observable(-I2)
        assert np.array_equal(effect0, np.zeros((2, 2))) and np.array_equal(effect1, I2)

    def test_rejects_non_involutive(self):
        with pytest.raises(ValueError):
            projective_from_observable(0.5 * pauli("x"))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="observable must be 2x2"):
            projective_from_observable(np.eye(4))

    def test_identity_measurement(self):
        effect0, effect1 = identity_measurement()
        assert np.array_equal(effect1, np.zeros((2, 2)))
        assert np.array_equal(effect0 - effect1, I2)

    def test_invalid_effects_rejected(self):
        with pytest.raises(ValueError):
            check_effects((0.5 * I2, 0.5 * I2))
        with pytest.raises(ValueError):
            check_effects((I2, I2))
        with pytest.raises(ValueError, match="effect1 must be 2x2"):
            check_effects((I2, np.zeros((4, 4))))
