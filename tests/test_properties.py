"""Property tests: invariants of the channel and the correlators on drawn inputs.

Hypothesis draws pure three-qubit states, one measurement per input (a
projective measurement along a unit Bloch vector, or the identity) and
prob_z0 in [0, 1], both ends included. Runs are derandomized and keep no
example database, so they are reproducible and leave no files behind.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from seqbell.bell import check_settings, expectation, mermin_value, svetlichny_value
from seqbell.luders import luders_update
from seqbell.qstate import bloch_obs, identity_measurement, projective_from_observable, to_density

PROPERTY = settings(derandomize=True, database=None, deadline=None)

MAXIMALLY_MIXED = np.eye(8, dtype=complex) / 8

# A unit Bloch vector by its polar and azimuthal angles.
bloch_vectors = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)).map(
    lambda a: (math.sin(a[0]) * math.cos(a[1]), math.sin(a[0]) * math.sin(a[1]), math.cos(a[0])))

# A +-1 observable: n . sigma for a unit Bloch vector n, or None for the identity.
bloch_or_identity = st.one_of(st.none(), bloch_vectors)

prob_z0s = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


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
