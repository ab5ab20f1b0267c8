"""The two sequential two-observer scenarios, simulated and in closed form.

Both scenarios share one shape: Alice and Bob keep fixed observables while
two Charlies act on qubit C in sequence. Charlie_1 draws one of two
measurement strategies from shared classical randomness (strategy 1 with
probability p); Charlie_2 always keeps strategy 1's settings. Each
Alice-Bob-Charlie_k triple evaluates its inequality on the state
Charlie_k actually receives. The scenarios differ only in data, one
``Scenario`` record each in ``SCENARIOS``:

Standard scenario (Mermin):
  A0 = X, A1 = Y, B0 = -Y, B1 = X.
  Strategy 1: Charlie_1 measures X / Y projectively (uniform inputs).
  Strategy 2: Charlie_1 measures X for z=0 and the identity for z=1.

Genuine scenario (Svetlichny):
  A0 = X, A1 = Y, B0 = (X - Y)/sqrt2, B1 = (X + Y)/sqrt2.
  Strategy 1: Charlie_1 measures -Y / X projectively (uniform inputs).
  Strategy 2: Charlie_1 performs the identity for z=0 (drawn with
              probability v) and measures X for z=1.

The closed forms for the mixed values are

  M1 = (2p + 2) sin 2phi        M2 = (3 - p) sin 2phi
  S1 = 2 sqrt2 (p + 1) sin 2phi S2 = 2 sqrt2 (1 + v(1 - p)) sin 2phi

and the simulated path must reproduce them to ~1e-10; that agreement is
the central correctness check of the package. The simulation never
evaluates them. Beside each closed form sits the p-window solved from it,
the open range of p in which both values exceed the classical bound.
One kernel simulates a 1-D array of angles (``branch_arrays``), bitwise as one angle at a
time, and ``mix`` takes the p-mixture of its branches. The per-kind functions are its N = 1
calls, for the benchmark-pinned loop in ``feasibility.scan`` alone. Its operators are built
and checked once per process, on first use, and registered with ``cmatrix.constant``, so
``cmatrix.kron`` makes each of their Kronecker products once.
Only S2 under strategy 2 depends on v, so the genuine kernel also takes a 1-D array of
biases and computes the three other branches once. Strategy 2's four channel products are
made once (``luders_products``), after strategy 1's channel has returned, and weighed per bias
(``luders_weigh``), one inequality evaluation per bias; each row is bitwise one bias alone.
A single bias is a sweep of one, and the standard scenario's draw weighs 0.5.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import (
    MERMIN_CLASSICAL_BOUND,
    SVETLICHNY_CLASSICAL_BOUND,
    Settings,
    mermin_value,
    svetlichny_value,
)
from .cmatrix import EYE2, constant
from .luders import luders_products, luders_update, luders_weigh
from .qstate import (
    bloch_obs,
    ghz,
    identity_measurement,
    pauli,
    projective_from_observable,
    to_density,
)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Scenario:
    """One scenario as data; None in a Charlie pair marks the identity.

    Callable fields build their matrices (``_operators`` calls them once per
    process) or look up their inequality function when called, so every call
    goes through the module's names.
    """

    alice_bob: Callable[[], tuple]  # ((A0, A1), (B0, B1))
    strategy1: Callable[[], tuple]  # Charlie_1's (C0, C1); Charlie_2 always uses it
    strategy2: Callable[[], tuple]  # Charlie_1's (C0, C1) under strategy 2
    value: Callable[[object, Settings], float]  # (rho, settings) -> value
    bound: float  # classical bound of the inequality
    closed: Callable  # (sin 2phi, p, v) -> (value1, value2), p may be an array
    window: Callable  # (sin 2phi, v) -> (lo, hi), sin 2phi may be an array


SCENARIOS = {
    "standard": Scenario(
        alice_bob=lambda: ((pauli("x"), pauli("y")), (-pauli("y"), pauli("x"))),
        strategy1=lambda: (pauli("x"), pauli("y")),
        strategy2=lambda: (pauli("x"), None),
        value=lambda rho, settings: mermin_value(rho, settings),
        bound=MERMIN_CLASSICAL_BOUND,
        closed=lambda s, p, v: ((2 * p + 2) * s, (3 - p) * s),
        window=lambda s, v: (1 / s - 1, 3 - 2 / s),
    ),
    "genuine": Scenario(
        alice_bob=lambda: ((pauli("x"), pauli("y")), (bloch_obs(1 / SQRT2, -1 / SQRT2, 0.0),
                                                       bloch_obs(1 / SQRT2, 1 / SQRT2, 0.0))),
        strategy1=lambda: (-pauli("y"), pauli("x")),
        strategy2=lambda: (None, pauli("x")),
        value=lambda rho, settings: svetlichny_value(rho, settings),
        bound=SVETLICHNY_CLASSICAL_BOUND,
        closed=lambda s, p, v: (2 * SQRT2 * (p + 1) * s, 2 * SQRT2 * (1 + v * (1 - p)) * s),
        window=lambda s, v: (SQRT2 / s - 1, 1 - (SQRT2 / s - 1) / v),
    ),
}


def check_kind(kind: str, v: float | None) -> None:
    """Reject an unknown kind, a standard scenario with v, or a genuine one without v in (0, 1)."""
    if kind not in SCENARIOS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    if kind == "standard" and v is not None:
        raise ValueError("v is not a parameter of the standard scenario")
    if kind == "genuine" and v is None:
        raise ValueError("the genuine scenario requires v")
    if kind == "genuine" and not 0.0 < v < 1.0:
        raise ValueError(f"v={v} outside (0, 1)")


def _charlie(pair):
    """Charlie_1's observables and measurement pair; None is the identity, observable I."""
    observables = tuple(EYE2 if c is None else c for c in pair)
    measurements = tuple(identity_measurement() if c is None else projective_from_observable(c)
                         for c in pair)
    return observables, measurements


@functools.cache
def _operators(kind: str):
    """(settings1, settings2, measurements1, measurements2) as built, registered constants."""
    scenario = SCENARIOS[kind]
    alice, bob = scenario.alice_bob()
    charlie1, measurements1 = _charlie(scenario.strategy1())
    charlie2, measurements2 = _charlie(scenario.strategy2())
    operators = ((alice, bob, charlie1), (alice, bob, charlie2), measurements1, measurements2)
    for operator in (o for group in operators for pair in group for o in pair):
        constant(operator)
    return operators


def branch_arrays(kind: str, phi, v=None):
    """Simulated (first1, second1, first2, second2) of the named scenario over angles ``phi``.

    A genuine ``v`` may also be a nonempty 1-D array of biases, each checked as a scalar v;
    ``second2`` is then (len(v), N), row k as at ``v[k]`` alone, and the rest (N,), made once.
    """
    biases = np.asarray(v)  # attributes, not np.ndim/np.size: cheap on every per-angle call
    if biases.ndim > 1 or biases.size == 0:
        raise ValueError(f"v must be a bias or a nonempty 1-D array, not shape {biases.shape}")
    for bias in biases.flat:
        check_kind(kind, bias)
    scenario = SCENARIOS[kind]
    settings1, settings2, measurements1, measurements2 = _operators(kind)
    phi = np.asarray(phi, dtype=float)
    rho = to_density(ghz(phi))
    first1 = scenario.value(rho, settings1)
    second1 = scenario.value(luders_update(rho, measurements1), settings1)
    first2 = scenario.value(rho, settings2)
    # Strategy 2's products last, alive for no other branch; weighed per bias, None as 0.5 and
    # a scalar v as a sweep of one. float(q): cheaper than np.float64 in the channel.
    products2 = luders_products(rho, measurements2)
    second2 = np.empty(biases.shape + phi.shape)
    for k, q in np.ndenumerate(np.asarray(0.5) if v is None else biases):
        second2[k] = scenario.value(luders_weigh(rho, products2, float(q)), settings1)
    return first1, second1, first2, second2


def standard_branch_values(phi: float) -> tuple[float, float, float, float]:
    """Simulated Mermin values (M1^s1, M2^s1, M1^s2, M2^s2) at one phi."""
    return tuple(float(x[0]) for x in branch_arrays("standard", [phi]))


def genuine_branch_values(phi: float, v: float) -> tuple[float, float, float, float]:
    """Simulated Svetlichny values (S1^s1, S2^s1, S1^s2, S2^s2) at one (phi, v)."""
    return tuple(float(x[0]) for x in branch_arrays("genuine", [phi], v))


def mix(branches, p) -> tuple:
    """(value1, value2) of the strategy mixture: strategy 1 with probability p.

    ``branches`` is (first1, second1, first2, second2) as ``branch_arrays`` returns it;
    p may be a float or an array. Every simulated mixed value is mixed here.
    """
    first1, second1, first2, second2 = branches
    return p * first1 + (1 - p) * first2, p * second1 + (1 - p) * second2
