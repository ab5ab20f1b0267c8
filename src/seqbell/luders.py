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
each member. Or each of N states (N, 8, 8) has its own channel: effects
stacked (N, 2, 2), ``prob_z0`` of shape (N,), or both; a stack of any other
length raises rather than broadcasts. The guards reduce over the batch.

The weighted products are evaluated as one stack and added along the effect
axis with ``np.add.accumulate``, which adds in index order (``.sum`` promises
no order): the same order, and so the same bits, as adding them one by one
into a zero state. A zero start turns a -0.0 entry into +0.0; the trailing
``+ 0.0`` does the same. An input of weight 0.0 adds signed zeros, so the bits
are those of skipping it.
"""

from __future__ import annotations

import numpy as np

from .cmatrix import EYE4, kron
from .qstate import EffectPair, check_p

_TRACE_TOL = 1e-12


def embed_third(e: np.ndarray) -> np.ndarray:
    """Lift a 2x2 operator on qubit C, or each of a stack, to the 8-dim space: I (x) I (x) e."""
    e = np.asarray(e, dtype=complex)
    if e.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got {e.shape}")
    return kron(EYE4, e)


def luders_update(rho: np.ndarray, measurements: tuple[EffectPair, EffectPair],
                  prob_z0: float = 0.5) -> np.ndarray:
    """Average post-measurement state after one observer's measurement.

    ``measurements`` holds the effect pair for input z = 0 and for z = 1.
    """
    check_p(prob_z0, "prob_z0")
    weights = (prob_z0, 1.0 - prob_z0)
    e8, q = [], []
    for weight, meas in zip(weights, measurements, strict=True):
        for effect in meas:
            e8.append(embed_third(effect))
            q.append(weight)
    # N channels: (N, 4, 8, 8) and (N, 4). One: (4, 8, 8) and (4,), each swap a no-op.
    e8, q = np.array(e8).swapaxes(0, -3), np.array(q).T
    for members in (e8.shape[:-3], q.shape[:-1]):
        if members and (len(members) > 1 or members != rho.shape[:-2]):
            raise ValueError(f"channels {members} do not line up with states {rho.shape[:-2]}")
    terms = q[..., None, None] * (e8 @ rho[..., None, :, :] @ e8)
    out = np.add.accumulate(terms, axis=-3)[..., -1, :, :] + 0.0
    drift = np.abs(out.trace(axis1=-2, axis2=-1) - rho.trace(axis1=-2, axis2=-1)).max()
    if not drift <= _TRACE_TOL:
        raise RuntimeError(f"state update did not preserve the trace (drift {drift:g})")
    return out
