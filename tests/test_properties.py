"""Property tests: invariants of the channel, the correlators and the batch kernel.

Hypothesis draws pure three-qubit states, one measurement per input (a
projective measurement along a unit Bloch vector, or the identity),
prob_z0 in [0, 1], both ends included, and arrays of state angles in
[0, pi/4] with both ends drawn explicitly. Runs are derandomized and keep no
example database, so they are reproducible and leave no files behind.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seqbell.bell import check_settings, expectation, mermin_value, svetlichny_value
from seqbell.luders import luders_update
from seqbell.qstate import (
    PHI_MAX,
    bloch_obs,
    check_phi,
    identity_measurement,
    projective_from_observable,
    to_density,
)
from seqbell.scenario import branch_arrays, genuine_branch_values, standard_branch_values

PROPERTY = settings(derandomize=True, database=None, deadline=None)

MAXIMALLY_MIXED = np.eye(8, dtype=complex) / 8

# A unit Bloch vector by its polar and azimuthal angles.
bloch_vectors = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)).map(
    lambda a: (math.sin(a[0]) * math.cos(a[1]), math.sin(a[0]) * math.sin(a[1]), math.cos(a[0])))

# A +-1 observable: n . sigma for a unit Bloch vector n, or None for the identity.
bloch_or_identity = st.one_of(st.none(), bloch_vectors)

prob_z0s = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))

angle_arrays = st.lists(st.one_of(st.sampled_from([0.0, PHI_MAX]), st.floats(0.0, PHI_MAX)),
                        min_size=1, max_size=8).map(np.array)
biases = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
bad_angles = st.one_of(st.just(math.nan),
                       st.floats(max_value=math.nextafter(0.0, -math.inf)),
                       st.floats(min_value=math.nextafter(PHI_MAX, math.inf)))


@st.composite
def pure_states(draw):
    amps = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16)))
    psi = amps[:8] + 1j * amps[8:]
    norm = np.linalg.norm(psi)
    assume(norm > 1e-3)
    return to_density(psi / norm)


def _observable(n):
    return np.eye(2, dtype=complex) if n is None else bloch_obs(*n)


def _measurement(n):
    return identity_measurement() if n is None else projective_from_observable(bloch_obs(*n))


observables = bloch_or_identity.map(_observable)
measurement_pairs = st.tuples(bloch_or_identity, bloch_or_identity).map(
    lambda pair: tuple(_measurement(n) for n in pair))
settings_tuples = st.tuples(*[st.tuples(observables, observables)] * 3).map(check_settings)


@PROPERTY
@given(pure_states(), measurement_pairs, prob_z0s)
def test_update_keeps_trace_hermiticity_and_positivity(rho, measurements, prob_z0):
    out = luders_update(rho, measurements, prob_z0)
    assert abs(np.trace(out) - np.trace(rho)) <= 1e-12
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


@PROPERTY
@given(measurement_pairs, prob_z0s)
def test_update_is_unital(measurements, prob_z0):
    out = luders_update(MAXIMALLY_MIXED, measurements, prob_z0)
    assert np.max(np.abs(out - MAXIMALLY_MIXED)) <= 1e-14


@PROPERTY
@given(pure_states(), observables, observables, observables)
def test_correlators_lie_in_unit_interval(rho, a, b, c):
    assert -1.0 - 1e-10 <= expectation(rho, a, b, c) <= 1.0 + 1e-10


@PROPERTY
@given(pure_states(), settings_tuples)
def test_quantum_values_within_quantum_bounds(rho, settings_tuple):
    assert abs(mermin_value(rho, settings_tuple)) <= 4 + 1e-10
    assert abs(svetlichny_value(rho, settings_tuple)) <= 4 * math.sqrt(2) + 1e-10


def _hex(values):
    return [float(x).hex() for x in values]


# Each example makes up to 16 single-angle kernel calls; fewer examples keep it quick.
@settings(PROPERTY, max_examples=30)
@given(angle_arrays, biases)
def test_batch_element_equals_single_angle_call(phi, v):
    standard = branch_arrays("standard", phi)
    genuine = branch_arrays("genuine", phi, v)
    for i, ph in enumerate(phi):
        assert _hex(x[i] for x in standard) == _hex(standard_branch_values(ph))
        assert _hex(x[i] for x in genuine) == _hex(genuine_branch_values(ph, v))


@PROPERTY
@given(angle_arrays, st.integers(0, 7), bad_angles)
def test_bad_angle_anywhere_in_a_batch_is_rejected(phi, index, bad):
    phi[index % phi.size] = bad
    with pytest.raises(ValueError, match="outside"):
        check_phi(phi)
    with pytest.raises(ValueError, match="outside"):
        branch_arrays("standard", phi)
