"""States, observables, and dichotomic projective measurements.

Conventions used throughout the package:

* Three-qubit basis order is |abc> with qubit A the most significant bit,
  so |000> is index 0 and |111> is index 7. This matches the operator
  ordering A (x) B (x) C used when evaluating correlators.
* Angles are radians everywhere.
* A dichotomic measurement assigns outcome +1 to ``effect0`` and -1 to
  ``effect1``; the identity measurement (effect0 = I, effect1 = 0) is the
  degenerate member of the same family, so downstream code never needs a
  special case for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cmatrix import DEFAULT_TOL, identity, is_hermitian, is_idempotent, zeros

PHI_MAX = math.pi / 4

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


def check_phi(phi: float) -> None:
    """Reject a state angle outside the closed interval [0, pi/4], or NaN.

    Angles are rejected rather than wrapped.
    """
    if not 0.0 <= phi <= PHI_MAX:
        raise ValueError(f"phi={phi} outside [0, pi/4]")


def ghz(phi: float) -> np.ndarray:
    """State vector cos(phi)|000> + sin(phi)|111>, phi in [0, pi/4]."""
    check_phi(phi)
    amps = np.zeros(8, dtype=complex)
    amps[0] = math.cos(phi)
    amps[7] = math.sin(phi)
    return amps


def to_density(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density operator |psi><psi| of a normalized 8-dim state vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (8,):
        raise ValueError(f"expected an 8-dim state vector, got shape {psi.shape}")
    norm2 = float(np.vdot(psi, psi).real)
    if abs(norm2 - 1.0) > DEFAULT_TOL:
        raise ValueError(f"state vector not normalized: |psi|^2 = {norm2}")
    return np.outer(psi, psi.conj())


def bloch_obs(nx: float, ny: float, nz: float) -> np.ndarray:
    """The +-1 observable n . sigma for a unit Bloch vector n."""
    norm2 = nx * nx + ny * ny + nz * nz
    if abs(norm2 - 1.0) > 1e-10:
        raise ValueError(f"Bloch vector not unit length: |n|^2 = {norm2}")
    return nx * _PAULI["x"] + ny * _PAULI["y"] + nz * _PAULI["z"]


@dataclass(frozen=True)
class DichotomicMeasurement:
    """A +-1-outcome measurement given by effects for outcome +1 and -1.

    Both effects must be idempotent Hermitian (projective, or the
    identity/zero pair) and sum to the identity.
    """

    effect0: np.ndarray
    effect1: np.ndarray

    def __post_init__(self):
        for name, e in (("effect0", self.effect0), ("effect1", self.effect1)):
            if e.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got {e.shape}")
            if not is_hermitian(e) or not is_idempotent(e):
                raise ValueError(f"{name} is not an idempotent Hermitian effect")
        if np.max(np.abs(self.effect0 + self.effect1 - identity(2))) > DEFAULT_TOL:
            raise ValueError("effects do not sum to the identity")

    @property
    def observable(self) -> np.ndarray:
        """effect0 - effect1; the identity measurement yields I."""
        return self.effect0 - self.effect1


def projective_from_observable(o: np.ndarray) -> DichotomicMeasurement:
    """Spectral measurement of a genuine +-1 observable: effects (I +- o)/2.

    The input must square to the identity and be traceless; for the
    deterministic identity input use :func:`identity_measurement` instead.
    """
    o = np.asarray(o, dtype=complex)
    if o.shape != (2, 2):
        raise ValueError(f"observable must be 2x2, got {o.shape}")
    if np.max(np.abs(o @ o - identity(2))) > DEFAULT_TOL:
        raise ValueError("observable does not square to the identity")
    if abs(np.trace(o)) > DEFAULT_TOL:
        raise ValueError(
            "observable is not traceless; use identity_measurement() for the identity"
        )
    half = identity(2) / 2
    return DichotomicMeasurement(effect0=half + o / 2, effect1=half - o / 2)


def identity_measurement() -> DichotomicMeasurement:
    """The trivial measurement: outcome +1 with certainty, state untouched."""
    return DichotomicMeasurement(effect0=identity(2), effect1=zeros(2))
