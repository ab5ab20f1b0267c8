"""States, observables, and dichotomic projective measurements.

Conventions used throughout the package:

* Three-qubit basis order is |abc> with qubit A the most significant bit,
  so |000> is index 0 and |111> is index 7. This matches the operator
  ordering A (x) B (x) C used when evaluating correlators.
* Angles are radians everywhere.
* States may carry leading batch axes, one state per angle: ``ghz`` of N
  angles is (N, 8), its density (N, 8, 8). Guards reduce over the batch,
  NaN-failing, so one bad member rejects the whole batch.
* A dichotomic measurement is its effect pair ``(effect0, effect1)`` of
  2x2 arrays: ``effect0`` for outcome +1, ``effect1`` for -1. Its
  observable is ``effect0 - effect1``. The identity measurement ``(I, 0)``
  is the degenerate member of the same family, so downstream code never
  needs a special case for it.
"""

from __future__ import annotations

import math

import numpy as np

from .cmatrix import DEFAULT_TOL, identity, is_hermitian, is_idempotent, zeros

PHI_MAX = math.pi / 4

EffectPair = tuple[np.ndarray, np.ndarray]  # (effect for +1, effect for -1)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """Standard Pauli matrix for axis 'x', 'y' or 'z' (sigma_y = [[0,-i],[i,0]])."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def check_phi(phi) -> None:
    """Reject a state angle, or any angle of an array, outside [0, pi/4] or NaN.

    Angles are rejected rather than wrapped.
    """
    if not (0.0 <= np.min(phi) and np.max(phi) <= PHI_MAX):
        raise ValueError(f"phi={phi} outside [0, pi/4]")


def ghz(phi) -> np.ndarray:
    """State vectors cos(phi)|000> + sin(phi)|111> (math.cos/sin per angle), phi in [0, pi/4]."""
    check_phi(phi)
    amps = np.zeros(np.shape(phi) + (8,), dtype=complex)
    amps[..., 0] = np.frompyfunc(math.cos, 1, 1)(phi)
    amps[..., 7] = np.frompyfunc(math.sin, 1, 1)(phi)
    return amps


def to_density(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density operators |psi><psi| of normalized 8-dim state vectors (..., 8)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (8,):
        raise ValueError(f"expected 8-dim state vectors, got shape {psi.shape}")
    norm2 = np.sum(psi * psi.conj(), axis=-1).real
    if not np.max(np.abs(norm2 - 1.0)) <= DEFAULT_TOL:
        raise ValueError(f"state vector not normalized: |psi|^2 = {norm2}")
    return psi[..., :, None] * psi.conj()[..., None, :]


def bloch_obs(nx: float, ny: float, nz: float) -> np.ndarray:
    """The +-1 observable n . sigma for a unit Bloch vector n."""
    norm2 = nx * nx + ny * ny + nz * nz
    if not abs(norm2 - 1.0) <= 1e-10:
        raise ValueError(f"Bloch vector not unit length: |n|^2 = {norm2}")
    return nx * _PAULI["x"] + ny * _PAULI["y"] + nz * _PAULI["z"]


def check_effects(effects: EffectPair) -> EffectPair:
    """Return ``(effect0, effect1)`` if both are 2x2 idempotent Hermitian and sum to I."""
    effect0, effect1 = effects
    for name, e in (("effect0", effect0), ("effect1", effect1)):
        if e.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2, got {e.shape}")
        if not is_hermitian(e) or not is_idempotent(e):
            raise ValueError(f"{name} is not an idempotent Hermitian effect")
    if not np.max(np.abs(effect0 + effect1 - identity(2))) <= DEFAULT_TOL:
        raise ValueError("effects do not sum to the identity")
    return effects


def projective_from_observable(o: np.ndarray) -> EffectPair:
    """Spectral measurement of a genuine +-1 observable: effects (I +- o)/2.

    The input must square to the identity and be traceless; for the
    deterministic identity input use :func:`identity_measurement` instead.
    """
    o = np.asarray(o, dtype=complex)
    if o.shape != (2, 2):
        raise ValueError(f"observable must be 2x2, got {o.shape}")
    if not np.max(np.abs(o @ o - identity(2))) <= DEFAULT_TOL:
        raise ValueError("observable does not square to the identity")
    if not abs(np.trace(o)) <= DEFAULT_TOL:
        raise ValueError(
            "observable is not traceless; use identity_measurement() for the identity"
        )
    half = identity(2) / 2
    return check_effects((half + o / 2, half - o / 2))


def identity_measurement() -> EffectPair:
    """The trivial measurement: outcome +1 with certainty, state untouched."""
    return check_effects((identity(2), zeros(2)))
