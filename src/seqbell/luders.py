"""State update for a measurement on the third qubit.

A sequential observer on qubit C draws an input z in {0, 1}, z = 0 with
probability ``prob_z0`` (1/2 when unbiased), measures with that input's
effect pair, discards the outcome, and hands the averaged post-measurement
state to the next observer:

    rho' = sum_z q(z) sum_c (I (x) I (x) E_{c|z}) rho (I (x) I (x) E_{c|z})

All effects here are projectors (or the identity/zero pair), so the square
root that the general update rule would require is the effect itself; no
matrix square root is implemented anywhere in the package.

``rho`` may carry leading batch axes (..., 8, 8), one channel applied to
each member; the trace guard reduces over the batch.
"""

from __future__ import annotations

import numpy as np

from .cmatrix import identity, kron
from .qstate import EffectPair

_TRACE_TOL = 1e-12


def embed_third(e: np.ndarray) -> np.ndarray:
    """Lift a 2x2 operator on qubit C to the 8-dim space: I (x) I (x) e."""
    e = np.asarray(e, dtype=complex)
    if e.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got {e.shape}")
    return kron(identity(4), e)


def luders_update(rho: np.ndarray, measurements: tuple[EffectPair, EffectPair],
                  prob_z0: float = 0.5) -> np.ndarray:
    """Average post-measurement state after one observer's measurement.

    ``measurements`` holds the effect pair for input z = 0 and for z = 1.
    """
    if not 0.0 <= prob_z0 <= 1.0:
        raise ValueError(f"prob_z0={prob_z0} outside [0, 1]")
    out = np.zeros_like(rho)
    weights = (prob_z0, 1.0 - prob_z0)
    for q, meas in zip(weights, measurements, strict=True):
        if q == 0.0:
            continue
        for effect in meas:
            e8 = embed_third(effect)
            out += q * (e8 @ rho @ e8)
    drift = np.max(np.abs(np.trace(out, axis1=-2, axis2=-1) - np.trace(rho, axis1=-2, axis2=-1)))
    if not drift <= _TRACE_TOL:
        raise RuntimeError(f"state update did not preserve the trace (drift {drift:g})")
    return out
