import math

import numpy as np
import pytest

from seqbell.luders import (
    CharlieStrategy,
    InputDistribution,
    UNBIASED,
    embed_third,
    luders_update,
)
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
BOTH_PROJECTIVE = CharlieStrategy(PROJ_X, PROJ_Y)
ONE_IDENTITY = CharlieStrategy(PROJ_X, identity_measurement())


def random_strategy(rng):
    def one():
        if rng.random() < 0.3:
            return identity_measurement()
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        return projective_from_observable(
            n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z")
        )

    return CharlieStrategy(one(), one(), InputDistribution(float(rng.random())))


def test_input_distribution():
    d = InputDistribution(0.8)
    assert d.prob_z1 == pytest.approx(0.2)
    assert UNBIASED.prob_z0 == 0.5
    with pytest.raises(ValueError):
        InputDistribution(1.2)
    with pytest.raises(ValueError):
        InputDistribution(-0.1)


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
    strat = CharlieStrategy(
        identity_measurement(), PROJ_X, inputs=InputDistribution(v)
    )
    expected = (1 + v) / 2 * rho + (1 - v) / 2 * (X8 @ rho @ X8)
    assert np.max(np.abs(luders_update(rho, strat) - expected)) < 1e-14


def test_biased_half_equals_unbiased():
    rho = to_density(ghz(0.3))
    half = CharlieStrategy(PROJ_X, PROJ_Y, inputs=InputDistribution(0.5))
    assert np.max(np.abs(luders_update(rho, half)
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
        out = luders_update(rho, random_strategy(rng))
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) > -1e-10


def test_identity_strategy_is_fixed_point():
    rho = to_density(ghz(0.4))
    do_nothing = CharlieStrategy(identity_measurement(), identity_measurement())
    assert np.max(np.abs(luders_update(rho, do_nothing) - rho)) < 1e-14
