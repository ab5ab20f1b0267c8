"""State update for a measurement on the third qubit.

A sequential observer on qubit C draws an input z in {0, 1} (uniformly, or
with a bias), measures, discards the outcome, and hands the averaged
post-measurement state to the next observer:

    rho' = sum_z q(z) sum_c (I (x) I (x) E_{c|z}) rho (I (x) I (x) E_{c|z})

All effects here are projectors (or the identity/zero pair), so the square
root that the general update rule would require is the effect itself; no
matrix square root is implemented anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cmatrix import identity, kron
from .qstate import DichotomicMeasurement

_TRACE_TOL = 1e-12


@dataclass(frozen=True)
class InputDistribution:
    """Probability of input z = 0; z = 1 gets the complement."""

    prob_z0: float

    def __post_init__(self):
        if not 0.0 <= self.prob_z0 <= 1.0:
            raise ValueError(f"prob_z0={self.prob_z0} outside [0, 1]")

    @property
    def prob_z1(self) -> float:
        return 1.0 - self.prob_z0


UNBIASED = InputDistribution(0.5)


@dataclass(frozen=True)
class CharlieStrategy:
    """Per-input measurements for one observer on the third qubit."""

    meas_z0: DichotomicMeasurement
    meas_z1: DichotomicMeasurement
    inputs: InputDistribution = field(default=UNBIASED)


def embed_third(e: np.ndarray) -> np.ndarray:
    """Lift a 2x2 operator on qubit C to the 8-dim space: I (x) I (x) e."""
    e = np.asarray(e, dtype=complex)
    if e.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got {e.shape}")
    return kron(identity(4), e)


def luders_update(rho: np.ndarray, strategy: CharlieStrategy) -> np.ndarray:
    """Average post-measurement state after one observer's measurement."""
    out = np.zeros_like(rho)
    weights = (strategy.inputs.prob_z0, strategy.inputs.prob_z1)
    for q, meas in zip(weights, (strategy.meas_z0, strategy.meas_z1)):
        if q == 0.0:
            continue
        for effect in (meas.effect0, meas.effect1):
            e8 = embed_third(effect)
            out += q * (e8 @ rho @ e8)
    drift = abs(np.trace(out) - np.trace(rho))
    if not drift <= _TRACE_TOL:
        raise RuntimeError(f"state update did not preserve the trace (drift {drift:g})")
    return out
