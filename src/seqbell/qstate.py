"""States, observables, and dichotomic projective measurements.

Conventions used throughout the package:

* Three-qubit basis order is |abc> with qubit A the most significant bit,
  so |000> is index 0 and |111> is index 7. This matches the operator
  ordering A (x) B (x) C used when evaluating correlators.
* Angles are radians everywhere.
* States may carry leading batch axes, one state per angle: ``ghz`` of N
  angles is (N, 8), its density (N, 8, 8); observables and effects (..., 2, 2).
  Guards reduce over the batch, NaN-failing: one bad member rejects it all.
* A dichotomic measurement is its effect pair ``(effect0, effect1)`` of
  2x2 arrays: ``effect0`` for outcome +1, ``effect1`` for -1. Its
  observable is ``effect0 - effect1``. The identity measurement ``(I, 0)``
  is the degenerate member of the same family, made by the same
  constructor, so downstream code never needs a special case for it.
"""

from __future__ import annotations

import math

import numpy as np

from .cmatrix import DEFAULT_TOL, EYE2, is_hermitian, is_idempotent

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

    Angles are rejected rather than wrapped; the error names the first bad one.
    """
    if np.size(phi) == 0:
        raise ValueError("phi is an empty array of angles")
    if not (0.0 <= np.min(phi) and np.max(phi) <= PHI_MAX):
        flat = np.ravel(phi)
        i = np.flatnonzero(~((0.0 <= flat) & (flat <= PHI_MAX)))[0]
        raise ValueError(f"phi={flat[i]} (angle {i} of {flat.size}) outside [0, pi/4]")


def check_p(p: float, name: str = "p") -> None:
    """Reject a probability, or the first bad one of an array, outside [0, 1] or NaN."""
    for member in p.flat if isinstance(p, np.ndarray) else (p,):
        if not 0.0 <= member <= 1.0:
            raise ValueError(f"{name}={member} outside [0, 1]")


# math.cos/math.sin applied per angle: libm's result, the same for one angle or many.
_COS = np.frompyfunc(math.cos, 1, 1)
_SIN = np.frompyfunc(math.sin, 1, 1)


def ghz(phi) -> np.ndarray:
    """State vectors cos(phi)|000> + sin(phi)|111> (math.cos/sin per angle), phi in [0, pi/4]."""
    check_phi(phi)
    amps = np.zeros(np.shape(phi) + (8,), dtype=complex)
    amps[..., 0] = _COS(phi)
    amps[..., 7] = _SIN(phi)
    return amps


def to_density(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density operators |psi><psi| of normalized 8-dim state vectors (..., 8)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (8,):
        raise ValueError(f"expected 8-dim state vectors, got shape {psi.shape}")
    norm2 = np.sum(psi * psi.conj(), axis=-1).real
    if not np.max(np.abs(norm2 - 1.0)) <= DEFAULT_TOL:
        flat = np.ravel(norm2)
        i = np.flatnonzero(~(np.abs(flat - 1.0) <= DEFAULT_TOL))[0]
        raise ValueError(f"state vector {i} of {flat.size} not normalized: |psi|^2 = {flat[i]}")
    return psi[..., :, None] * psi.conj()[..., None, :]


def bloch_obs(nx, ny, nz) -> np.ndarray:
    """The +-1 observable n . sigma for a unit Bloch vector n; component arrays give a stack."""
    nx, ny, nz = np.asarray([nx, ny, nz], dtype=float)[..., None, None]
    norm2 = nx * nx + ny * ny + nz * nz
    if (bad := ~(np.abs(norm2 - 1.0) <= 1e-10)).any():
        raise ValueError(f"Bloch vector not unit length: |n|^2 = {norm2[bad][0]}")
    return nx * _PAULI["x"] + ny * _PAULI["y"] + nz * _PAULI["z"]


def projective_from_observable(o: np.ndarray) -> EffectPair:
    """Spectral measurement of a +-1 observable ``o``: effects (I +- o)/2.

    ``o`` must be 2x2, or a stack (..., 2, 2), and square to the identity; this
    is the one check of a Charlie observable. +-I is allowed and gives the
    degenerate pair (I, 0) or (0, I): the entries 1/2 +- 1/2 are exact. Given
    o @ o = I, only the effects' Hermiticity can fail, as for [[1, 1], [0, -1]].
    """
    o = np.asarray(o, dtype=complex)
    if o.shape[-2:] != (2, 2):
        raise ValueError(f"observable must be 2x2, got {o.shape}")
    if not np.abs(o @ o - EYE2).max() <= DEFAULT_TOL:
        raise ValueError("observable does not square to the identity")
    effects = EYE2 / 2 + o / 2, EYE2 / 2 - o / 2
    for name, e in zip(("effect0", "effect1"), effects):
        if not is_hermitian(e) or not is_idempotent(e):
            raise ValueError(f"{name} is not an idempotent Hermitian effect")
    return effects


def identity_measurement() -> EffectPair:
    """The trivial measurement: outcome +1 with certainty, state untouched."""
    return projective_from_observable(EYE2)
