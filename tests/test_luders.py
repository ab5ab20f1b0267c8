import math
import re

import numpy as np
import pytest

from seqbell.luders import embed_third, luders_update
from seqbell.qstate import (
    ghz,
    identity_measurement,
    pauli,
    projective_from_observable,
    to_density,
)

X8 = np.kron(np.eye(4), pauli("x"))
Y8 = np.kron(np.eye(4), pauli("y"))
Z8 = np.kron(np.eye(4), pauli("z"))

PROJ_X = projective_from_observable(pauli("x"))
PROJ_Y = projective_from_observable(pauli("y"))

# Charlie_1's two strategy shapes: both inputs projective, or one input
# replaced by the identity measurement.
BOTH_PROJECTIVE = (PROJ_X, PROJ_Y)
ONE_IDENTITY = (PROJ_X, identity_measurement())


def random_strategy(rng):
    def one():
        if rng.random() < 0.3:
            return identity_measurement()
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        return projective_from_observable(
            n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z")
        )

    return (one(), one()), float(rng.random())


def test_input_distribution():
    rho = to_density(ghz(0.5))
    # z = 1 gets the complement of prob_z0; the default is unbiased.
    swapped = (identity_measurement(), PROJ_X)
    assert np.max(np.abs(luders_update(rho, ONE_IDENTITY, 0.8)
                         - luders_update(rho, swapped, 0.2))) < 1e-14
    assert np.array_equal(luders_update(rho, BOTH_PROJECTIVE),
                          luders_update(rho, BOTH_PROJECTIVE, 0.5))
    for prob_z0 in (1.2, -0.1, math.nan):
        with pytest.raises(ValueError):
            luders_update(rho, BOTH_PROJECTIVE, prob_z0)


def test_embed_third_identity():
    assert np.array_equal(embed_third(np.eye(2)), np.eye(8))


def test_embed_third_flips_last_bit_of_ghz():
    # (I (x) I (x) sx) |GHZ_{pi/4}> = (|001> + |110>)/sqrt2
    psi = ghz(math.pi / 4)
    out = embed_third(pauli("x")) @ psi
    expected = np.zeros(8, dtype=complex)
    expected[0b001] = 1 / math.sqrt(2)
    expected[0b110] = 1 / math.sqrt(2)
    assert np.allclose(out, expected, atol=1e-15)


def test_embed_third_preserves_idempotency():
    p = (np.eye(2) + pauli("x")) / 2
    p8 = embed_third(p)
    assert np.max(np.abs(p8 @ p8 - p8)) < 1e-15


def test_embed_third_rejects_wrong_shape():
    with pytest.raises(ValueError):
        embed_third(np.eye(4))


def test_update_both_projective_closed_form():
    rho = to_density(ghz(0.5))
    out = luders_update(rho, BOTH_PROJECTIVE)
    expected = rho / 2 + X8 @ rho @ X8 / 4 + Y8 @ rho @ Y8 / 4
    assert np.max(np.abs(out - expected)) < 1e-14


def test_update_one_identity_closed_form():
    rho = to_density(ghz(0.5))
    out = luders_update(rho, ONE_IDENTITY)
    expected = 3 * rho / 4 + X8 @ rho @ X8 / 4
    assert np.max(np.abs(out - expected)) < 1e-14


@pytest.mark.parametrize("v", [0.2, 0.5, 0.8])
def test_update_biased_identity_closed_form(v):
    rho = to_density(ghz(0.7))
    measurements = (identity_measurement(), PROJ_X)
    expected = (1 + v) / 2 * rho + (1 - v) / 2 * (X8 @ rho @ X8)
    assert np.max(np.abs(luders_update(rho, measurements, v) - expected)) < 1e-14


def test_biased_half_equals_unbiased():
    rho = to_density(ghz(0.3))
    assert np.max(np.abs(luders_update(rho, BOTH_PROJECTIVE, 0.5)
                         - luders_update(rho, BOTH_PROJECTIVE))) < 1e-12


def test_double_update_is_pauli_mixture():
    # Applying the x/y strategy twice composes, on qubit C, to the Pauli
    # channel 3/8 id + 1/4 X + 1/4 Y + 1/8 Z.
    rho = to_density(ghz(0.6))
    twice = luders_update(luders_update(rho, BOTH_PROJECTIVE), BOTH_PROJECTIVE)
    expected = (3 * rho / 8 + X8 @ rho @ X8 / 4
                + Y8 @ rho @ Y8 / 4 + Z8 @ rho @ Z8 / 8)
    assert np.max(np.abs(twice - expected)) < 1e-12


def test_trace_and_positivity_preserved():
    rng = np.random.default_rng(21)
    for _ in range(200):
        rho = to_density(ghz(float(rng.random()) * math.pi / 4))
        out = luders_update(rho, *random_strategy(rng))
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) > -1e-10


def test_identity_strategy_is_fixed_point():
    rho = to_density(ghz(0.4))
    do_nothing = (identity_measurement(), identity_measurement())
    assert np.max(np.abs(luders_update(rho, do_nothing) - rho)) < 1e-14


def stacked(*pairs):
    """Per-member measurement pairs as one pair of effect stacks (N, 2, 2) per input."""
    return tuple(tuple(np.stack([pair[z][c] for pair in pairs]) for c in (0, 1))
                 for z in (0, 1))


THREE = stacked(BOTH_PROJECTIVE, ONE_IDENTITY, BOTH_PROJECTIVE)


@pytest.mark.parametrize("bad", [math.nan, 1.5])
def test_one_bad_bias_rejects_the_whole_stack(bad):
    rho = to_density(ghz(np.array([0.1, 0.2, 0.3])))
    with pytest.raises(ValueError, match=re.escape(f"prob_z0={bad} outside [0, 1]")):
        luders_update(rho, THREE, np.array([0.2, bad, 0.7]))


@pytest.mark.parametrize("measurements, prob_z0, phi", [
    (THREE, 0.5, [0.1, 0.2]),  # 3 members' effects, 2 states
    (THREE, 0.5, [0.1, 0.2, 0.3, 0.4]),
    (THREE, 0.5, 0.3),  # one state, not a stack of them
    (stacked(BOTH_PROJECTIVE), 0.5, [0.1, 0.2, 0.3]),  # a stack of one does not broadcast
    (BOTH_PROJECTIVE, np.full(3, 0.5), [0.1, 0.2]),
    (BOTH_PROJECTIVE, np.full(1, 0.5), [0.1, 0.2, 0.3]),
    (BOTH_PROJECTIVE, np.full(3, 0.5), 0.3),
    # A 2x3 grid of channels on a 2x3 grid of states: a stack has one member axis.
    (tuple(tuple(np.stack([e, e]) for e in pair) for pair in THREE), 0.5, [[0.1, 0.2, 0.3]] * 2),
])
def test_channels_that_do_not_line_up_with_the_states_raise(measurements, prob_z0, phi):
    with pytest.raises(ValueError, match="do not line up"):
        luders_update(to_density(ghz(np.array(phi))), measurements, prob_z0)


@pytest.mark.parametrize("measurements", [(PROJ_X,), (PROJ_X, PROJ_Y, PROJ_X)])
def test_one_effect_pair_per_input(measurements):
    # One pair or three would fail later only as a numpy broadcast error.
    message = f"^expected an effect pair per input, got {len(measurements)} pairs$"
    with pytest.raises(ValueError, match=message):
        luders_update(to_density(ghz(0.3)), measurements)


def test_embed_third_lifts_each_member_of_a_stack():
    stack = np.stack([pauli("x"), pauli("y"), np.eye(2, dtype=complex)])
    assert embed_third(stack).tobytes() == np.stack([embed_third(e) for e in stack]).tobytes()
