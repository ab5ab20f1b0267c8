"""Double-violation windows, their thresholds, and sampled parameter scans.

Closed-form windows for the mixing probability p follow directly from the
mixture values:

  standard:  1/sin(2phi) - 1       < p < 3 - 2/sin(2phi)
  genuine:   sqrt2/sin(2phi) - 1   < p < 1 + 1/v - sqrt2/(v sin(2phi))

both clamped to [0, 1]. Solving "window nonempty" for the state angle
gives the thresholds

  standard:  sin(2phi) > 3/4
  genuine:   sin(2phi) > sqrt2 (1+v) / (1+2v),  possible only for v > 1/sqrt2.

Scans sample the *simulated* scenario values (not the closed forms) so a
scan doubles as an end-to-end consistency check against these windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import PHI_MAX, check_phi
from .scenario import (
    SCENARIOS,
    SQRT2,
    VIOLATION_MARGIN,
    branch_values,
    check_kind,
    check_v,
    mix,
)


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi), possibly empty after clamping to [0, 1]."""

    lo: float
    hi: float
    empty: bool

    @staticmethod
    def clamped(lo: float, hi: float) -> "Interval":
        lo = max(lo, 0.0)
        hi = min(hi, 1.0)
        return Interval(lo=lo, hi=hi, empty=not lo < hi)

    def contains(self, x: float) -> bool:
        return not self.empty and self.lo < x < self.hi


def _window_sine(phi: float) -> float:
    """sin(2 phi) for a window angle; no window is defined at phi = 0."""
    check_phi(phi)
    if phi == 0.0:
        raise ValueError(f"phi={phi} outside (0, pi/4]")
    return math.sin(2 * phi)


def p_window_standard(phi: float) -> Interval:
    """Mixing probabilities giving M1 > 2 and M2 > 2 simultaneously."""
    s = _window_sine(phi)
    return Interval.clamped(1 / s - 1, 3 - 2 / s)


def phi_threshold_standard() -> float:
    """Infimum state angle with a nonempty standard window: arcsin(3/4)/2."""
    return 0.5 * math.asin(3 / 4)


def p_window_genuine(phi: float, v: float) -> Interval:
    """Mixing probabilities giving S1 > 4 and S2 > 4 simultaneously."""
    s = _window_sine(phi)
    check_v(v)
    return Interval.clamped(SQRT2 / s - 1, 1 + 1 / v - SQRT2 / (v * s))


def p_window(kind: str, phi: float, v: float | None = None) -> Interval:
    """The p-window of the named scenario."""
    check_kind(kind, v)
    if kind == "standard":
        return p_window_standard(phi)
    return p_window_genuine(phi, v)


def v_threshold_genuine() -> float:
    """Infimum input bias admitting any nonempty genuine window: 1/sqrt2."""
    return 1 / SQRT2


def phi_threshold_genuine(v: float) -> float:
    """Infimum state angle with a nonempty genuine window at bias v."""
    if not v_threshold_genuine() < v < 1.0:
        raise ValueError(f"no genuine threshold exists for v={v}; need v in (1/sqrt2, 1)")
    return 0.5 * math.asin(SQRT2 * (1 + v) / (1 + 2 * v))


@dataclass(frozen=True)
class FeasibilityGrid:
    """Simulated inequality pairs over a (phi, p) grid, phi-major."""

    kind: str
    phi: np.ndarray
    p: np.ndarray
    v: float | None
    value1: np.ndarray
    value2: np.ndarray
    flagged: np.ndarray
    bound: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.value1.shape


def scan_grid(n_phi: int, n_p: int) -> tuple[np.ndarray, np.ndarray]:
    """n_phi angles evenly spaced in (0, pi/4], zero excluded, and n_p p's in [0, 1]."""
    phi = np.arange(1, n_phi + 1) / n_phi * PHI_MAX
    p = np.linspace(0.0, 1.0, n_p)
    return phi, p


def _check_samples(name: str, samples: np.ndarray, lo: float, hi: float) -> None:
    if samples.size == 0:
        raise ValueError(f"{name} samples are empty")
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{name} samples must be finite")
    if np.any(np.diff(samples) <= 0):
        raise ValueError(f"{name} samples must be strictly increasing")
    if samples[0] < lo or samples[-1] > hi:
        raise ValueError(f"{name} samples outside [{lo}, {hi}]")


def scan(kind: str, phi_samples, p_samples, v: float | None = None) -> FeasibilityGrid:
    """Simulate every (phi, p) cell and flag the double violations.

    Cell values are bitwise identical to the per-point pair functions: the
    per-phi branch values are computed once and mixed by the same
    ``scenario.mix``.
    """
    phi = np.asarray(phi_samples, dtype=float)
    p = np.asarray(p_samples, dtype=float)
    _check_samples("phi", phi, 0.0, PHI_MAX)
    _check_samples("p", p, 0.0, 1.0)
    check_kind(kind, v)
    bound = SCENARIOS[kind].bound

    value1 = np.empty((phi.size, p.size))
    value2 = np.empty((phi.size, p.size))
    # Per angle, not one branch_arrays call: the benchmark tracer pins these per-angle calls.
    for i, ph in enumerate(phi):
        value1[i, :], value2[i, :] = mix(branch_values(kind, ph, v), p)

    threshold = bound + VIOLATION_MARGIN
    flagged = (value1 > threshold) & (value2 > threshold)
    return FeasibilityGrid(
        kind=kind, phi=phi, p=p, v=v,
        value1=value1, value2=value2, flagged=flagged, bound=bound,
    )


def window_membership(grid: FeasibilityGrid) -> np.ndarray:
    """Closed-form window membership for every grid cell."""
    inside = np.zeros(grid.shape, dtype=bool)
    for i, ph in enumerate(grid.phi):
        if ph == 0.0:
            continue
        window = p_window(grid.kind, ph, grid.v)
        if window.empty:
            continue
        inside[i, :] = (window.lo < grid.p) & (grid.p < window.hi)
    return inside


def _neighborhood_constant(mask: np.ndarray) -> np.ndarray:
    """Cells whose full 3x3 neighborhood (edge-clamped) agrees with them."""
    padded = np.pad(mask, 1, mode="edge")
    same = np.ones_like(mask, dtype=bool)
    rows, cols = mask.shape
    for di in range(3):
        for dj in range(3):
            same &= padded[di : di + rows, dj : dj + cols] == mask
    return same


def scan_window_disagreements(grid: FeasibilityGrid) -> int:
    """Count flagged/window mismatches away from the window boundary.

    Cells within one grid step of the closed-form boundary are exempt:
    strict-inequality classification there is resolution-dependent.
    """
    inside = window_membership(grid)
    interior = _neighborhood_constant(inside)
    return int(np.count_nonzero(grid.flagged[interior] != inside[interior]))
