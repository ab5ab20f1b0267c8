"""Property tests: invariants of the channel, the correlators, the batch kernel
and the CSV number format, ``mix``'s grid against each angle mixed alone, the
kernel's two stacked reductions against the loops they replaced, the
correlators against the full-product trace they replaced, the p-windows
against the clamped formulas they replaced, and the blocked scan against the
per-angle one.

Hypothesis draws pure three-qubit states, one measurement per input (a
projective measurement along a unit Bloch vector, or the identity),
prob_z0 in [0, 1], both ends included, and arrays of state angles in
[0, pi/4] with both ends drawn explicitly. Runs are derandomized and keep no
example database, so they are reproducible and leave no files behind.
"""

import itertools
import math
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import seqbell.bell as bell
from seqbell.bell import (
    MERMIN_TERMS,
    SVETLICHNY_TERMS,
    expectation,
    mermin_value,
    svetlichny_value,
)
from seqbell.cmatrix import kron
from seqbell.feasibility import (
    _fmt,
    _texts,
    p_window_genuine,
    p_window_standard,
    scan,
    scan_blocks,
)
from seqbell.luders import embed_third, luders_products, luders_update, luders_weigh
from seqbell.qstate import (
    PHI_MAX,
    bloch_obs,
    check_phi,
    ghz,
    identity_measurement,
    pauli,
    projective_from_observable,
    to_density,
)
from seqbell.scenario import (
    SCENARIOS,
    _operators,
    branch_arrays,
    genuine_branch_values,
    mix,
    standard_branch_values,
)

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
settings_tuples = st.tuples(*[st.tuples(observables, observables)] * 3)


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
    assert -1.0 - 1e-10 <= expectation(rho, [a], [b], [c])[0] <= 1.0 + 1e-10


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


def reference_mix(branches, p):
    """``scenario.mix`` as it was before it formed the (angle, p) grid: broadcasting alone."""
    first1, second1, first2, second2 = branches
    return p * first1 + (1 - p) * first2, p * second1 + (1 - p) * second2


# N angles' branch values with a (B, N) bias sweep for second2, and M p's in [0, 1], both
# ends drawn explicitly; N and M differ in most examples.
@PROPERTY
@given(st.integers(1, 6), st.integers(1, 4),
       st.lists(prob_z0s, min_size=1, max_size=6).map(np.array), st.data())
def test_mix_forms_the_grid_of_each_angle_mixed_alone(n, b, p, data):
    row = st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n).map(np.array)
    first1, second1, first2 = data.draw(st.tuples(row, row, row))
    second2 = np.array(data.draw(st.lists(row, min_size=b, max_size=b)))
    value1, value2 = mix((first1, second1, first2, second2), p)
    assert value1.shape == (n, p.size) and value2.shape == (b, n, p.size)
    for i in range(n):
        floats = float(first1[i]), float(second1[i]), float(first2[i])
        assert_same_bits(value1[i], reference_mix((*floats, 0.0), p)[0])
        for k in range(b):
            assert_same_bits(value2[k, i], reference_mix((*floats, float(second2[k, i])), p)[1])


@PROPERTY
@given(angle_arrays, st.integers(0, 7), bad_angles)
def test_bad_angle_anywhere_in_a_batch_is_rejected(phi, index, bad):
    phi[index % phi.size] = bad
    with pytest.raises(ValueError, match="outside"):
        check_phi(phi)
    with pytest.raises(ValueError, match="outside"):
        branch_arrays("standard", phi)


def reference_windows(phi, v):
    """The standard and genuine windows as computed before, each end clamped to [0, 1]."""
    s = math.sin(2 * phi)
    lo = math.sqrt(2.0) / s - 1
    return ((max(1 / s - 1, 0.0), min(3 - 2 / s, 1.0)),
            (max(lo, 0.0), min(1 - lo / v, 1.0)))


# Subnormal angles and biases, 1/sqrt2, the floats on either side of it and the first
# bias with a window at pi/4, drawn explicitly.
@PROPERTY
@given(st.floats(0.0, PHI_MAX, exclude_min=True), biases)
@example(5e-324, 5e-324)
@example(1e-310, 1e-310)
@example(PHI_MAX, 5e-324)
@example(5e-324, 1 / math.sqrt(2))
@example(PHI_MAX, 1 / math.sqrt(2))
@example(PHI_MAX, math.nextafter(1 / math.sqrt(2), 0.0))
@example(PHI_MAX, math.nextafter(1 / math.sqrt(2), 1.0))
@example(PHI_MAX, 0.7071067811865479)
def test_windows_are_the_clamped_formulas_within_the_unit_interval(phi, v):
    # The ends lie in [0, 1] unclamped, so dropping the clamp moves no bit.
    windows = (p_window_standard(phi), p_window_genuine(phi, v))
    assert [_hex(w) for w in windows] == [_hex(w) for w in reference_windows(phi, v)]
    for lo, hi in windows:
        assert not math.isnan(lo) and not math.isnan(hi)
        assert 0.0 <= lo and hi <= 1.0


# Any double, with the signed zeros, the infinities and NaN drawn explicitly.
any_floats = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats())


@PROPERTY
@given(any_floats)
def test_printf_format_matches_csv_formatter(x):
    # _fmt spells the texts that grid_to_csv's number formatter leaves to Python.
    assert "%.12g" % x == _fmt(x)
    assert b"%.12g" % x == _fmt(x).encode()


def texts_of(values):
    """The texts that ``_texts`` gives the values, NUL bytes dropped; its last column is NUL."""
    rows = _texts(np.array(values, dtype=float))
    assert not rows[:, -1].any()
    return [bytes(row).replace(b"\0", b"") for row in rows]


def printf_texts(values):
    return [b"%.12g" % x for x in values]


@PROPERTY
@given(st.lists(st.one_of(any_floats, st.floats(1e-4, 1e11),
                          st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)),
                min_size=1, max_size=64))
def test_number_texts_match_printf(values):
    # Any doubles: the fast path's range 1e-4 <= x < 1e11, the subnormals, and the rest.
    assert texts_of(values) == printf_texts(values)


def test_number_texts_match_printf_next_to_powers_of_ten():
    # Three doubles either side of 10^k, and of the value 10^k (1 - 5e-13) at which 12
    # digits round up to 10^k, for k = -5..12: decade, code and round-up edges.
    values = []
    for k in range(-5, 13):
        for centre in (float(f"1e{k}"), float(f"{10**12 - 0.5}e{k - 12}")):
            below = above = centre
            for _ in range(3):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                values += [below, above]
            values.append(centre)
    assert texts_of(values) == printf_texts(values)


def test_number_texts_match_printf_at_near_ties():
    # fl((m + 0.5) 10^(E-11)) for random 12-digit m and E = -4..10: the scaled value lies
    # within an ulp of an integer and a half, where rint's side need not be printf's.
    rng = random.Random(7)
    values = [float(f"{2 * rng.randrange(10**11, 10**12) + 1}e{rng.randrange(-4, 11) - 12}")
              for _ in range(1000)]
    assert texts_of(values) == printf_texts(values)


def test_number_texts_match_printf_with_trailing_zeros():
    # 12-digit significands with 1 to 11 trailing zeros, in every decade of the fast path.
    rng = random.Random(3)
    values = []
    for zeros in range(1, 12):
        for e in range(-4, 11):
            lead = rng.randrange(10 ** (11 - zeros), 10 ** (12 - zeros))
            lead += rng.randrange(1, 10) - lead % 10
            values.append(float(f"{lead * 10 ** zeros}e{e - 11}"))
    assert texts_of(values) == printf_texts(values)


def reference_inequality_value(values, terms):
    """The term-by-term ``sum`` that ``bell._inequality_value`` replaced, kept as the reference."""
    return sum(coeff * values[..., k] for k, (_, coeff) in enumerate(terms))


def inequality_value_of(values, terms):
    """``bell._inequality_value`` with ``values`` standing in for its correlators."""
    any_settings = ((np.eye(2, dtype=complex),) * 2,) * 3
    with patch.object(bell, "expectation", lambda rho, a, b, c: values):
        return bell._inequality_value(MAXIMALLY_MIXED, any_settings, terms)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# Finite terms, the signed zeros drawn explicitly, too small for a sum of eight to
# overflow. (A NaN's sign bit follows the compiler's operand order, and the
# residue guard lets no NaN correlator through.)
term_floats = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300))


@PROPERTY
@given(st.sampled_from([MERMIN_TERMS, SVETLICHNY_TERMS]), st.integers(0, 3), st.data())
def test_inequality_value_is_the_term_by_term_sum(terms, batch, data):
    shape = (batch, len(terms)) if batch else (len(terms),)
    size = math.prod(shape)
    values = np.array(data.draw(st.lists(term_floats, min_size=size, max_size=size)))
    values = values.reshape(shape)
    assert_same_bits(inequality_value_of(values, terms), reference_inequality_value(values, terms))


@pytest.mark.parametrize("terms", [MERMIN_TERMS, SVETLICHNY_TERMS])
def test_inequality_value_of_all_negative_zero_terms_is_positive_zero(terms):
    # Each value has the sign opposite to its coefficient's, so every term is -0.0;
    # the term-by-term sum started from the integer 0 and read +0.0.
    one = np.array([-0.0 if coeff > 0 else 0.0 for _, coeff in terms])
    for values in (one, np.stack([one, one])):
        got = inequality_value_of(values, terms)
        assert not np.any(np.signbit(got))
        assert_same_bits(got, reference_inequality_value(values, terms))


def reference_luders_update(rho, measurements, prob_z0):
    """The effect-by-effect loop that ``luders_update`` replaced, kept as the reference."""
    out = np.zeros_like(rho)
    for q, meas in zip((prob_z0, 1.0 - prob_z0), measurements):
        if q == 0.0:
            continue
        for effect in meas:
            e8 = embed_third(effect)
            out += q * (e8 @ rho @ e8)
    return out


# One state, a stack of pure states, or GHZ-class states (many exact zeros).
rho_batches = st.one_of(
    pure_states(),
    st.lists(pure_states(), min_size=1, max_size=3).map(np.stack),
    angle_arrays.map(lambda phi: to_density(ghz(phi))),
)
GHZ_EDGES = to_density(ghz(np.array([0.0, PHI_MAX])))
X_THEN_IDENTITY = (projective_from_observable(pauli("x")), identity_measurement())


@PROPERTY
@given(rho_batches, measurement_pairs, prob_z0s)
@example(GHZ_EDGES, X_THEN_IDENTITY, 0.0)
@example(GHZ_EDGES, X_THEN_IDENTITY, 1.0)
@example(GHZ_EDGES, X_THEN_IDENTITY[::-1], 1.0)
def test_update_is_the_effect_by_effect_loop(rho, measurements, prob_z0):
    assert_same_bits(luders_update(rho, measurements, prob_z0),
                     reference_luders_update(rho, measurements, prob_z0))


# A bias sweep: one set of products, weighed at each bias in turn, both ends included.
bias_arrays = st.lists(prob_z0s, min_size=1, max_size=5).map(np.array)


@PROPERTY
@given(rho_batches, measurement_pairs, bias_arrays)
@example(GHZ_EDGES, X_THEN_IDENTITY, np.array([0.0, 1.0, 0.5]))
@example(GHZ_EDGES, X_THEN_IDENTITY[::-1], np.array([1.0, 0.0]))
def test_products_weighed_per_bias_are_the_effect_by_effect_loop(rho, measurements, biases):
    products = luders_products(rho, measurements)
    for q in biases:
        assert_same_bits(luders_weigh(rho, products, float(q)),
                         reference_luders_update(rho, measurements, float(q)))


def reference_expectation(rho, a, b, c):
    """The full-product trace that ``bell.expectation`` replaced, kept as the reference."""
    ops = np.array([kron(kron(ak, bk), ck) for ak, bk, ck in zip(a, b, c, strict=True)])
    return (rho[..., None, :, :] @ ops).trace(axis1=-2, axis2=-1).real


# A state stack after up to two channels, each one of the scenario's two strategies at its
# own bias, and every correlator of one of its two settings. Each operator row has one
# nonzero entry, so each diagonal entry of rho O is one product and exact zeros, whichever
# way they are added, and both sum the diagonal with the same length-8 ``.sum``; a one-step
# ``"...ij,kji->...k"`` contraction adds the diagonal in another order and fails here.
@PROPERTY
@given(st.sampled_from(sorted(SCENARIOS)), rho_batches,
       st.lists(st.tuples(st.booleans(), prob_z0s), max_size=2), st.booleans())
def test_correlators_are_the_full_product_trace(kind, rho, channels, second_settings):
    settings1, settings2, measurements1, measurements2 = _operators(kind)
    for second_strategy, q in channels:
        rho = luders_update(rho, measurements2 if second_strategy else measurements1, q)
    a, b, c = zip(*itertools.product(*(settings2 if second_settings else settings1)))
    got, want = expectation(rho, a, b, c), reference_expectation(rho, a, b, c)
    assert got.shape == want.shape == rho.shape[:-2] + (8,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# A member of a stack: its own state (pure, or GHZ-class with many exact zeros), its
# own measurement per input and its own prob_z0. A stack of one is bitwise one call.
ghz_states = st.floats(0.0, PHI_MAX).map(lambda phi: to_density(ghz(phi)))
stack_members = st.tuples(st.one_of(pure_states(), ghz_states),
                          st.tuples(bloch_or_identity, bloch_or_identity), prob_z0s)
ONE_MEMBER = [(GHZ_EDGES[1], ((0.0, 0.0, 1.0), None), 0.0)]


def batched(members):
    """``members`` as batched arguments (rho, measurements, prob_z0), and the per-member pairs."""
    rho = np.stack([r for r, _, _ in members])
    pairs = [tuple(_measurement(n) for n in axes) for _, axes, _ in members]
    measurements = tuple(tuple(np.stack([pair[z][c] for pair in pairs]) for c in (0, 1))
                         for z in (0, 1))
    return rho, measurements, np.array([q for _, _, q in members]), pairs


@PROPERTY
@given(st.lists(stack_members, min_size=1, max_size=6))
@example(ONE_MEMBER)
@example(ONE_MEMBER * 2 + [(GHZ_EDGES[0], (None, (1.0, 0.0, 0.0)), 1.0)])
def test_batched_update_is_the_per_member_loop(members):
    rho, measurements, prob_z0, pairs = batched(members)
    want = np.stack([luders_update(r, pair, float(q)) for r, pair, q in zip(rho, pairs, prob_z0)])
    assert_same_bits(luders_update(rho, measurements, prob_z0), want)
    # One measurement pair for the whole stack, with a bias per member: the same again.
    shared = [luders_update(r, pairs[0], float(q)) for r, q in zip(rho, prob_z0)]
    assert_same_bits(luders_update(rho, pairs[0], prob_z0), np.stack(shared))


@PROPERTY
@given(st.lists(bloch_or_identity, min_size=1, max_size=6))
def test_stacked_observables_and_effects_are_the_per_member_calls(axes):
    unit = np.array([(0.0, 0.0, 1.0) if n is None else n for n in axes])
    assert_same_bits(bloch_obs(*unit.T), np.stack([bloch_obs(*n) for n in unit]))
    observables = np.stack([_observable(n) for n in axes])
    per_member = [_measurement(n) for n in axes]
    for got, want in zip(projective_from_observable(observables), zip(*per_member), strict=True):
        assert_same_bits(got, np.stack(want))
    assert_same_bits(embed_third(observables), np.stack([embed_third(o) for o in observables]))


def increasing_samples(size, low, high):
    """``size`` distinct floats in [low, high], both ends drawn explicitly, sorted."""
    return st.lists(st.one_of(st.sampled_from([low, high]), st.floats(low, high)),
                    min_size=size, max_size=size, unique=True).map(sorted)


# Fewer angles than a block, one block, one more and a part block, at most 20 p's.
@settings(PROPERTY, max_examples=25)
@given(st.sampled_from(["standard", "genuine"]), st.sampled_from([1, 99, 100, 101, 250]),
       biases, st.integers(1, 20), st.data())
def test_blocked_scan_is_the_per_angle_scan(kind, n_phi, v, n_p, data):
    phi = data.draw(increasing_samples(n_phi, 0.0, PHI_MAX))
    p = data.draw(increasing_samples(n_p, 0.0, 1.0))
    v = None if kind == "standard" else v
    want, got = scan(kind, phi, p, v), scan_blocks(kind, phi, p, v)
    for name in ("value1", "value2", "flagged"):
        assert_same_bits(getattr(got, name), getattr(want, name))


def scan_error(fn, args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


bad_probabilities = st.one_of(st.just(math.nan),
                              st.floats(max_value=math.nextafter(0.0, -math.inf)),
                              st.floats(min_value=math.nextafter(1.0, math.inf)))


@PROPERTY
@given(st.sampled_from(["standard", "genuine"]), st.sampled_from(["phi", "p"]),
       st.integers(0, 2), st.data())
def test_blocked_scan_rejects_a_bad_sample_as_the_per_angle_scan_does(kind, axis, index, data):
    samples = {"phi": [0.1, 0.3, 0.5], "p": [0.0, 0.5, 1.0]}
    samples[axis][index] = data.draw(bad_angles if axis == "phi" else bad_probabilities)
    args = (kind, samples["phi"], samples["p"], None if kind == "standard" else 0.8)
    assert scan_error(scan_blocks, args) == scan_error(scan, args)


@pytest.mark.parametrize("args", [
    ("standard", [0.3, 0.2], [0.5], None),
    ("standard", [0.2, 0.2], [0.5], None),
    ("standard", [], [0.5], None),
    ("standard", [[0.2]], [0.5], None),
    ("standard", [0.2], [0.5, 0.4], None),
    ("genuine", [0.2], [0.4, 0.4], 0.8),
    ("chsh", [0.2], [0.5], None),
    ("genuine", [0.2], [0.5], None),
    ("standard", [0.2], [0.5], 0.8),
    ("genuine", [0.2], [0.5], 1.0),
])
def test_blocked_scan_rejects_what_the_per_angle_scan_rejects(args):
    assert scan_error(scan_blocks, args) == scan_error(scan, args)
