import hashlib
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from seqbell import bell, cmatrix, luders, scenario
from seqbell.qstate import check_p
from seqbell.scenario import (
    SCENARIOS,
    branch_arrays,
    check_kind,
    genuine_branch_values,
    mix,
    standard_branch_values,
)

PI4 = math.pi / 4
SQRT2 = math.sqrt(2.0)


def closed_pair(kind, phi, p, v=None):
    return SCENARIOS[kind].closed(math.sin(2 * phi), p, v)


class TestStandardPairs:
    def test_pure_strategy_one(self):
        m1, m2 = mix(branch_arrays("standard", [PI4]), 1.0)
        assert m1 == pytest.approx(4.0, abs=1e-10)
        assert m2 == pytest.approx(2.0, abs=1e-10)

    def test_pure_strategy_two(self):
        m1, m2 = mix(branch_arrays("standard", [PI4]), 0.0)
        assert m1 == pytest.approx(2.0, abs=1e-10)
        assert m2 == pytest.approx(3.0, abs=1e-10)

    def test_even_mixture(self):
        m1, m2 = mix(branch_arrays("standard", [PI4]), 0.5)
        assert m1 == pytest.approx(3.0, abs=1e-10)
        assert m2 == pytest.approx(2.5, abs=1e-10)

    def test_closed_form_examples(self):
        assert closed_pair("standard", PI4, 1.0) == pytest.approx((4.0, 2.0), abs=1e-12)
        for p in (0.0, 0.3, 1.0):
            assert closed_pair("standard", 0.0, p) == (0.0, 0.0)
        # (2*0.4 + 2) sin 1 and (3 - 0.4) sin 1, evaluated independently
        m1, m2 = closed_pair("standard", 0.5, 0.4)
        assert m1 == pytest.approx(2.8 * math.sin(1.0), abs=1e-12)
        assert m2 == pytest.approx(2.6 * math.sin(1.0), abs=1e-12)

    def test_simulated_matches_closed(self):
        for phi in np.linspace(0.0, PI4, 12):
            for p in (0.0, 0.2, 0.5, 0.9, 1.0):
                sim = mix(branch_arrays("standard", [phi]), p)
                closed = closed_pair("standard", phi, p)
                assert sim[0] == pytest.approx(closed[0], abs=1e-10)
                assert sim[1] == pytest.approx(closed[1], abs=1e-10)

    def test_mixing_is_linear(self):
        for phi in (0.3, 0.6, PI4):
            pure1 = mix(branch_arrays("standard", [phi]), 1.0)
            pure2 = mix(branch_arrays("standard", [phi]), 0.0)
            for p in (0.1, 0.45, 0.8):
                mixed = mix(branch_arrays("standard", [phi]), p)
                assert mixed[0] == pytest.approx(
                    p * pure1[0] + (1 - p) * pure2[0], abs=1e-12)
                assert mixed[1] == pytest.approx(
                    p * pure1[1] + (1 - p) * pure2[1], abs=1e-12)


class TestGenuinePairs:
    def test_pure_strategy_one_ignores_bias(self):
        for v in (0.2, 0.5, 0.9):
            s1, s2 = mix(branch_arrays("genuine", [PI4], v), 1.0)
            assert s1 == pytest.approx(4 * SQRT2, abs=1e-10)
            assert s2 == pytest.approx(2 * SQRT2, abs=1e-10)

    def test_pure_strategy_two(self):
        s1, s2 = mix(branch_arrays("genuine", [PI4], 0.8), 0.0)
        assert s1 == pytest.approx(2 * SQRT2, abs=1e-10)
        assert s2 == pytest.approx(2 * SQRT2 * 1.8, abs=1e-10)

    def test_double_violation_point(self):
        # p = 0.45, v = 0.8: 2 sqrt2 * 1.45 and 2 sqrt2 * 1.44, both above 4
        s1, s2 = mix(branch_arrays("genuine", [PI4], 0.8), 0.45)
        assert s1 == pytest.approx(2 * SQRT2 * 1.45, abs=1e-10)
        assert s2 == pytest.approx(2 * SQRT2 * 1.44, abs=1e-10)
        assert s1 > 4 and s2 > 4

    def test_closed_form_examples(self):
        s1, _ = closed_pair("genuine", PI4, SQRT2 - 1, 0.5)
        assert s1 == pytest.approx(4.0, abs=1e-12)
        assert closed_pair("genuine", 0.0, 0.3, 0.7) == (0.0, 0.0)
        _, s2 = closed_pair("genuine", PI4, 0.4822, 0.8)
        assert s2 == pytest.approx(4.0, abs=5e-4)

    def test_simulated_matches_closed(self):
        for phi in np.linspace(0.0, PI4, 8):
            for p in (0.0, 0.4, 1.0):
                for v in (0.1, 0.5, 0.9):
                    sim = mix(branch_arrays("genuine", [phi], v), p)
                    closed = closed_pair("genuine", phi, p, v)
                    assert sim[0] == pytest.approx(closed[0], abs=1e-10)
                    assert sim[1] == pytest.approx(closed[1], abs=1e-10)


class TestValidation:
    def test_phi_range(self):
        with pytest.raises(ValueError):
            branch_arrays("standard", [-0.1])

    def test_v_range(self):
        for v in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError):
                branch_arrays("genuine", [0.5], v)

    def test_check_p_and_v(self):
        check_p(0.0)
        check_p(1.0)
        check_kind("genuine", 0.5)
        for bad_p in (1.5, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                check_p(bad_p)
        for bad_v in (0.0, 1.0, math.nan, -math.inf):
            with pytest.raises(ValueError):
                check_kind("genuine", bad_v)

    def test_branch_value_count(self):
        assert len(standard_branch_values(0.5)) == 4
        assert len(genuine_branch_values(0.5, 0.5)) == 4


class TestBiasAxis:
    """A 1-D array of biases gives second2 one row per bias, each as at that bias alone."""

    PHI = np.linspace(0.0, PI4, 41)
    BIASES = [k / 10 for k in range(1, 10)] + [20 / 21]

    def test_rows_equal_the_per_bias_calls(self):
        first1, second1, first2, second2 = branch_arrays("genuine", self.PHI, self.BIASES)
        assert second2.shape == (len(self.BIASES), self.PHI.size)
        for k, v in enumerate(self.BIASES):
            alone = branch_arrays("genuine", self.PHI, v)
            assert all(np.array_equal(a, b)
                       for a, b in zip((first1, second1, first2, second2[k]), alone)), v

    @pytest.mark.parametrize("bad", [math.nan, 0.0, 1.0, 1.5])
    def test_bad_bias_is_rejected_by_value(self, bad):
        with pytest.raises(ValueError, match=rf"^v={bad} outside \(0, 1\)$"):
            branch_arrays("genuine", self.PHI, [0.3, 0.8, bad, 0.5])

    @pytest.mark.parametrize("v", [0.8, [0.8], [0.3, 0.8], BIASES])
    def test_each_effect_is_embedded_once_whatever_the_biases(self, monkeypatch, v):
        # Strategy 2's products are made once and weighed per bias, not made per bias.
        embedded = []
        real = luders.embed_third
        monkeypatch.setattr(luders, "embed_third", lambda e: embedded.append(e) or real(e))
        branch_arrays("genuine", self.PHI, v)
        assert len(embedded) == 8

    def test_bias_array_needs_the_genuine_scenario_and_one_axis(self):
        with pytest.raises(ValueError, match="not a parameter of the standard scenario"):
            branch_arrays("standard", self.PHI, [0.3, 0.8])
        for shape in ((2, 2), (0,)):
            with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
                branch_arrays("genuine", self.PHI, np.full(shape, 0.8))


class TestIndependence:
    """The simulated branches run through the channel and the correlators,
    never through the closed forms they are checked against."""

    CASES = (("standard", None), ("genuine", 0.8))

    def test_identity_channel_changes_only_the_second_round(self, monkeypatch):
        for kind, v in self.CASES:
            real = branch_arrays(kind, [PI4], v)
            # Both channel entry points branch_arrays uses: strategy 1's and strategy 2's.
            monkeypatch.setattr(scenario, "luders_update", lambda rho, *args: rho)
            monkeypatch.setattr(scenario, "luders_weigh", lambda rho, *args: rho)
            idle = branch_arrays(kind, [PI4], v)
            monkeypatch.undo()
            changed = [not np.array_equal(a, b) for a, b in zip(real, idle)]
            assert changed == [False, True, False, True], kind

    def test_zero_correlators_change_every_branch(self, monkeypatch):
        for kind, v in self.CASES:
            real = branch_arrays(kind, [PI4], v)
            monkeypatch.setattr(bell, "expectation",
                                lambda rho, a, b, c: np.zeros(rho.shape[:-2] + (len(a),)))
            zero = branch_arrays(kind, [PI4], v)
            monkeypatch.undo()
            assert all(not np.array_equal(a, b) for a, b in zip(real, zero)), kind

    def test_kernel_names_no_closed_form(self):
        assert not {"closed", "sin"} & set(scenario.branch_arrays.__code__.co_names)


class TestOperators:
    """Each scenario's operators are built and checked once per process, on first use."""

    def test_import_builds_no_operator(self, child_env):
        # A fresh interpreter in which every qstate constructor raises.
        code = (
            "import seqbell.qstate as q\n"
            "def refuse(*args): raise AssertionError('operator built at import')\n"
            "for name in ('pauli', 'bloch_obs', 'projective_from_observable',\n"
            "             'identity_measurement', 'ghz', 'to_density'):\n"
            "    setattr(q, name, refuse)\n"
            "import seqbell.scenario\n"
            "assert seqbell.scenario._operators.cache_info().currsize == 0\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=child_env)
        assert proc.returncode == 0, proc.stderr

    def test_two_angles_build_once(self, monkeypatch):
        built = []
        real = scenario.projective_from_observable
        monkeypatch.setattr(scenario, "projective_from_observable",
                            lambda o: built.append(o) or real(o))
        scenario._operators.cache_clear()
        try:
            genuine_branch_values(0.3, 0.8)
            genuine_branch_values(0.6, 0.8)
        finally:
            scenario._operators.cache_clear()
        # -Y and X for strategy 1, X for strategy 2 (its other input is the identity)
        assert len(built) == 3

    def test_cached_operators_are_read_only(self):
        for kind in SCENARIOS:
            operators = scenario._operators(kind)
            arrays = [a for group in operators for pair in group for a in pair]
            assert len(arrays) == 20
            for a in arrays:
                assert cmatrix._CONSTANTS[id(a)] is a
                with pytest.raises(ValueError):
                    a[0, 0] = 0.0
                with pytest.raises(ValueError):
                    a *= 2


class TestKronMemo:
    """Branch values do not depend on whether the kron memo is cold, warm or off."""

    PHI = np.linspace(0.0, PI4, 9)
    CASES = (("standard", None), ("genuine", 0.8), ("genuine", [0.3, 0.8, 20 / 21]))

    def test_cold_warm_and_off_give_the_same_bytes(self, monkeypatch):
        for kind, v in self.CASES:
            monkeypatch.setattr(cmatrix, "_MEMO", {})
            cold, warm = ([x.tobytes() for x in branch_arrays(kind, self.PHI, v)]
                          for _ in range(2))
            monkeypatch.setattr(cmatrix, "_CONSTANTS", {})  # nothing registered: no product kept
            monkeypatch.setattr(cmatrix, "_MEMO", {})
            off = [x.tobytes() for x in branch_arrays(kind, self.PHI, v)]
            assert cmatrix.kron_memo() == ()
            monkeypatch.undo()
            assert cold == warm == off, (kind, v)

    def test_further_angles_and_biases_store_nothing(self, monkeypatch):
        monkeypatch.setattr(cmatrix, "_MEMO", {})
        for kind, v in self.CASES:
            branch_arrays(kind, self.PHI, v)
        stored = [tuple(map(id, entry)) for entry in cmatrix.kron_memo()]
        branch_arrays("standard", self.PHI[1:] / 2)
        branch_arrays("genuine", self.PHI[1:] / 2, [0.1, 0.9])
        assert [tuple(map(id, entry)) for entry in cmatrix.kron_memo()] == stored


class TestPinnedValues:
    """Branch values as float hex, computed once with the one-angle-at-a-time
    kernel that preceded the array kernel. The array kernel must keep every
    operation in its order, so any reordering shows here."""

    # (kind, v, phi) -> (first1, second1, first2, second2)
    PINNED = {
        ("standard", None, 0.0): ("0x0.0p+0",) * 4,
        ("genuine", 0.8, 0.0): ("0x0.0p+0",) * 4,
        ("standard", None, 0.3): ("0x1.2118d17a54158p+1", "0x1.2118d17a54158p+0",
                                  "0x1.2118d17a54158p+0", "0x1.b1a53a377e204p+0"),
        ("genuine", 0.8, 0.3): ("0x1.98d8464808a34p+1", "0x1.98d8464808a34p+0",
                                "0x1.98d8464808a34p+0", "0x1.6ff5d8da6e2c8p+1"),
        ("standard", None, 0.6137): ("0x1.e21b9225f461dp+1", "0x1.e21b9225f461dp+0",
                                     "0x1.e21b9225f461dp+0", "0x1.6994ad9c77496p+1"),
        ("genuine", 0.8, 0.6137): ("0x1.54e6d0c52c28bp+2", "0x1.54e6d0c52c28bp+1",
                                   "0x1.54e6d0c52c28bp+1", "0x1.32cfbbe4a7be4p+2"),
        ("standard", None, PI4): ("0x1.0000000000000p+2", "0x1.0000000000000p+1",
                                  "0x1.0000000000000p+1", "0x1.8000000000000p+1"),
        ("genuine", 0.8, PI4): ("0x1.6a09e667f3bccp+2", "0x1.6a09e667f3bccp+1",
                                "0x1.6a09e667f3bccp+1", "0x1.45d5b5c3f4f6cp+2"),
    }

    def test_single_angle_calls_match_pinned_hex(self):
        for (kind, v, phi), want in self.PINNED.items():
            if kind == "standard":
                got = standard_branch_values(phi)
            else:
                got = genuine_branch_values(phi, v)
            assert tuple(float(x).hex() for x in got) == want, (kind, phi)

    def test_one_batch_matches_pinned_hex(self):
        for kind, v in (("standard", None), ("genuine", 0.8)):
            angles = [phi for k, _, phi in self.PINNED if k == kind]
            got = branch_arrays(kind, angles, v)
            for i, phi in enumerate(angles):
                want = self.PINNED[(kind, v, phi)]
                assert tuple(float(x[i]).hex() for x in got) == want, (kind, phi)

    # sha256 of one "first1,second1,first2,second2" float-hex line per angle
    # over 500 angles spaced evenly on [0, pi/4]; reorderings that move only
    # a few values in a thousand still change these.
    GRID_DIGESTS = {
        ("standard", None): "ff2b15049fc95b24b6109065e26e82acae9af6e0d1ba531f6289e346c0593c41",
        ("genuine", 0.1): "72b94b7a973526ef33fa74e611ce203873ab0c6af900b61bf9c7f189d4f7f2ed",
        ("genuine", 0.5): "ac2107c7886cc005c07f5ff45a73db301650115b20e87d5ff32789b318ab6d4d",
        ("genuine", 0.8): "b8ca22044e0d25341d04ab7d27a7c7f332bffa15a93777eadf39f6cd7a5f31b9",
    }

    def test_grid_matches_pinned_digest(self):
        phi = np.linspace(0.0, PI4, 500)
        for (kind, v), want in self.GRID_DIGESTS.items():
            cols = branch_arrays(kind, phi, v)
            text = "\n".join(",".join(float(c[i]).hex() for c in cols) for i in range(phi.size))
            assert hashlib.sha256(text.encode()).hexdigest() == want, (kind, v)
