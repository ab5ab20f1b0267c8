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

The update is two steps. ``luders_products`` builds the four products
E rho E, one per effect, as one stack (..., 4, 8, 8); only their weights
(q, q, 1 - q, 1 - q) depend on ``prob_z0``. ``luders_weigh`` weighs them
and adds them, and every update goes through it: ``luders_update`` is the
two steps in one call, and a sweep over biases builds the products once and
weighs them once per bias. The weighted products are added by explicit
in-order adds, ((t0 + t1) + t2) + t3: the same order, and so the same bits,
as adding them one by one into a zero state, at a fraction of the cost of
``np.add.accumulate`` along the effect axis (``.sum`` promises no order). A
zero start turns a -0.0 entry into +0.0; the trailing ``+ 0.0`` does the
same. An input of weight 0.0 adds signed zeros, so the bits are those of
skipping it.
"""

from __future__ import annotations

import numpy as np

from .cmatrix import EYE4, kron, stack
from .qstate import EffectPair, check_p

_TRACE_TOL = 1e-12


def embed_third(e: np.ndarray) -> np.ndarray:
    """Lift a 2x2 operator on qubit C, or each of a stack, to the 8-dim space: I (x) I (x) e."""
    e = np.asarray(e, dtype=complex)
    if e.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got {e.shape}")
    return kron(EYE4, e)


def _check_members(members: tuple, rho: np.ndarray) -> None:
    """A stack of channels has one member axis, as long as the stack of states."""
    if members and (len(members) > 1 or members != rho.shape[:-2]):
        raise ValueError(f"channels {members} do not line up with states {rho.shape[:-2]}")


def luders_products(rho: np.ndarray, measurements: tuple[EffectPair, EffectPair]) -> np.ndarray:
    """The products E rho E of the effects for z = 0, then z = 1, stacked (..., 4, 8, 8)."""
    if len(measurements) != 2:
        raise ValueError(f"expected an effect pair per input, got {len(measurements)} pairs")
    e8 = [embed_third(effect) for meas in measurements for effect in meas]
    # N channels: (N, 4, 8, 8). One: (4, 8, 8), the swap a no-op.
    e8 = stack(e8).swapaxes(0, -3)
    _check_members(e8.shape[:-3], rho)
    return (e8.reshape(*e8.shape[:-3], 32, 8) @ rho).reshape(*rho.shape[:-2], 4, 8, 8) @ e8


def luders_weigh(rho: np.ndarray, products: np.ndarray, prob_z0: float) -> np.ndarray:
    """The state after the channel whose ``luders_products(rho, ...)`` are ``products``.

    ``prob_z0`` is one bias or, for a stack of channels, one per member. ``products``
    is only read, so one stack serves any number of biases; the trace guard runs on
    each state this returns.
    """
    check_p(prob_z0, "prob_z0")
    weights = (prob_z0, 1.0 - prob_z0)
    # Each input's weight on both of its effects. N channels: (N, 4). One: (4,), the .T a no-op.
    q = np.array((weights[0], weights[0], weights[1], weights[1])).T
    _check_members(q.shape[:-1], rho)
    t = q[..., None, None] * products
    out = ((t[..., 0, :, :] + t[..., 1, :, :]) + t[..., 2, :, :]) + t[..., 3, :, :] + 0.0
    drift = np.abs(out.trace(axis1=-2, axis2=-1) - rho.trace(axis1=-2, axis2=-1)).max()
    if not drift <= _TRACE_TOL:
        raise RuntimeError(f"state update did not preserve the trace (drift {drift:g})")
    return out


def luders_update(rho: np.ndarray, measurements: tuple[EffectPair, EffectPair],
                  prob_z0: float = 0.5) -> np.ndarray:
    """Average post-measurement state after one observer's measurement.

    ``measurements`` holds the effect pair for input z = 0 and for z = 1.
    """
    return luders_weigh(rho, luders_products(rho, measurements), prob_z0)
