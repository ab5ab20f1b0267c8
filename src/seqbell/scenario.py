"""The two sequential two-observer scenarios, simulated and in closed form.

Both scenarios share one shape: Alice and Bob keep fixed observables while
two Charlies act on qubit C in sequence. Each Charlie draws one of two
measurement strategies from shared classical randomness (first strategy
with probability p), and each Alice-Bob-Charlie_k triple evaluates its
inequality on the state Charlie_k actually receives.

Standard scenario (Mermin):
  A0 = X, A1 = Y, B0 = -Y, B1 = X.
  Strategy 1: Charlie_1 measures X / Y projectively (uniform inputs);
              Charlie_2 keeps the same settings.
  Strategy 2: Charlie_1 measures X for z=0 and the identity for z=1;
              Charlie_2 measures X / Y.

Genuine scenario (Svetlichny):
  A0 = X, A1 = Y, B0 = (X - Y)/sqrt2, B1 = (X + Y)/sqrt2.
  Strategy 1: Charlie_1 measures -Y / X projectively (uniform inputs);
              Charlie_2 keeps the same settings.
  Strategy 2: Charlie_1 performs the identity for z=0 (drawn with
              probability v) and measures X for z=1; Charlie_2
              measures -Y / X.

The closed forms for the mixed values are

  M1 = (2p + 2) sin 2phi        M2 = (3 - p) sin 2phi
  S1 = 2 sqrt2 (p + 1) sin 2phi S2 = 2 sqrt2 (1 + v(1 - p)) sin 2phi

and the simulated path must reproduce them to ~1e-10; that agreement is
the central correctness check of the package.
"""

from __future__ import annotations

import math

from .bell import (
    MERMIN_CLASSICAL_BOUND,
    SVETLICHNY_CLASSICAL_BOUND,
    TripartiteSettings,
    mermin_value,
    svetlichny_value,
)
from .luders import CharlieStrategy, InputDistribution, luders_update
from .qstate import (
    bloch_obs,
    check_phi,
    ghz,
    identity_measurement,
    pauli,
    projective_from_observable,
    to_density,
)

SQRT2 = math.sqrt(2.0)

# Values strictly above bound + VIOLATION_MARGIN count as violations, so
# boundary classification is deterministic in floating point.
VIOLATION_MARGIN = 1e-9

# Classical bound of each scenario's inequality, by scenario kind.
BOUNDS = {"standard": MERMIN_CLASSICAL_BOUND, "genuine": SVETLICHNY_CLASSICAL_BOUND}


def check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")


def check_v(v: float) -> None:
    if not 0.0 < v < 1.0:
        raise ValueError(f"v={v} outside (0, 1)")


def check_kind(kind: str, v: float | None) -> None:
    """Reject an unknown kind, a genuine scenario without v, or a standard one with v."""
    if kind not in BOUNDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    if kind == "standard" and v is not None:
        raise ValueError("v is not a parameter of the standard scenario")
    if kind == "genuine":
        if v is None:
            raise ValueError("the genuine scenario requires v")
        check_v(v)


def _standard_settings(c0, c1) -> TripartiteSettings:
    return TripartiteSettings(
        a0=pauli("x"), a1=pauli("y"), b0=-pauli("y"), b1=pauli("x"), c0=c0, c1=c1
    )


def _genuine_settings(c0, c1) -> TripartiteSettings:
    return TripartiteSettings(
        a0=pauli("x"),
        a1=pauli("y"),
        b0=bloch_obs(1 / SQRT2, -1 / SQRT2, 0.0),
        b1=bloch_obs(1 / SQRT2, 1 / SQRT2, 0.0),
        c0=c0,
        c1=c1,
    )


def standard_branch_values(phi: float) -> tuple[float, float, float, float]:
    """Simulated Mermin values (M1^s1, M2^s1, M1^s2, M2^s2) for one phi."""
    rho = to_density(ghz(phi))
    x, y = pauli("x"), pauli("y")

    settings1 = _standard_settings(c0=x, c1=y)
    strat1 = CharlieStrategy(
        meas_z0=projective_from_observable(x),
        meas_z1=projective_from_observable(y),
    )
    m1_s1 = mermin_value(rho, settings1)
    m2_s1 = mermin_value(luders_update(rho, strat1), settings1)

    settings2_first = _standard_settings(c0=x, c1=identity_measurement().observable)
    strat2 = CharlieStrategy(
        meas_z0=projective_from_observable(x),
        meas_z1=identity_measurement(),
    )
    settings2_second = _standard_settings(c0=x, c1=y)
    m1_s2 = mermin_value(rho, settings2_first)
    m2_s2 = mermin_value(luders_update(rho, strat2), settings2_second)

    return m1_s1, m2_s1, m1_s2, m2_s2


def genuine_branch_values(phi: float, v: float) -> tuple[float, float, float, float]:
    """Simulated Svetlichny values (S1^s1, S2^s1, S1^s2, S2^s2) for one (phi, v)."""
    check_v(v)
    rho = to_density(ghz(phi))
    x = pauli("x")
    minus_y = -pauli("y")

    settings1 = _genuine_settings(c0=minus_y, c1=x)
    strat1 = CharlieStrategy(
        meas_z0=projective_from_observable(minus_y),
        meas_z1=projective_from_observable(x),
    )
    s1_s1 = svetlichny_value(rho, settings1)
    s2_s1 = svetlichny_value(luders_update(rho, strat1), settings1)

    settings2_first = _genuine_settings(c0=identity_measurement().observable, c1=x)
    strat2 = CharlieStrategy(
        meas_z0=identity_measurement(),
        meas_z1=projective_from_observable(x),
        inputs=InputDistribution(v),
    )
    settings2_second = _genuine_settings(c0=minus_y, c1=x)
    s1_s2 = svetlichny_value(rho, settings2_first)
    s2_s2 = svetlichny_value(luders_update(rho, strat2), settings2_second)

    return s1_s1, s2_s1, s1_s2, s2_s2


def branch_values(kind: str, phi: float, v: float | None = None):
    """Simulated (first1, second1, first2, second2) of the named scenario."""
    check_kind(kind, v)
    if kind == "standard":
        return standard_branch_values(phi)
    return genuine_branch_values(phi, v)


def mix(branches, p) -> tuple:
    """(value1, value2) of the strategy mixture: strategy 1 with probability p.

    ``branches`` is (first1, second1, first2, second2) as the branch
    functions return it; p may be a float or an array. Scans and the pair
    functions both mix here, so their values agree bitwise.
    """
    first1, second1, first2, second2 = branches
    return p * first1 + (1 - p) * first2, p * second1 + (1 - p) * second2


def standard_pair_simulated(phi: float, p: float) -> tuple[float, float]:
    """(M1, M2) from full density-matrix simulation of the strategy mixture."""
    check_p(p)
    return mix(standard_branch_values(phi), p)


def standard_pair_closed(phi: float, p: float) -> tuple[float, float]:
    """(M1, M2) = ((2p + 2) sin 2phi, (3 - p) sin 2phi)."""
    check_phi(phi)
    check_p(p)
    s = math.sin(2 * phi)
    return (2 * p + 2) * s, (3 - p) * s


def genuine_pair_simulated(phi: float, p: float, v: float) -> tuple[float, float]:
    """(S1, S2) from full density-matrix simulation of the strategy mixture."""
    check_p(p)
    return mix(genuine_branch_values(phi, v), p)


def genuine_pair_closed(phi: float, p: float, v: float) -> tuple[float, float]:
    """(S1, S2) = (2 sqrt2 (p+1) sin 2phi, 2 sqrt2 (1 + v(1-p)) sin 2phi)."""
    check_phi(phi)
    check_p(p)
    check_v(v)
    s = math.sin(2 * phi)
    return 2 * SQRT2 * (p + 1) * s, 2 * SQRT2 * (1 + v * (1 - p)) * s
