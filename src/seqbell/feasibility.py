"""Double-violation windows, their thresholds, sampled parameter scans and their CSV.

Closed-form windows for the mixing probability p follow directly from the
mixture values:

  standard:  1/sin(2phi) - 1       < p < 3 - 2/sin(2phi)
  genuine:   sqrt2/sin(2phi) - 1   < p < 1 - (sqrt2/sin(2phi) - 1)/v

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

from .qstate import PHI_MAX, check_p, check_phi
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

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi

    @staticmethod
    def clamped(lo: float, hi: float) -> "Interval":
        return Interval(lo=max(lo, 0.0), hi=min(hi, 1.0))


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
    """Mixing probabilities giving S1 > 4 and S2 > 4 simultaneously.

    The upper end divides by v alone, so a subnormal v overflows it to -inf, not to NaN.
    """
    s = _window_sine(phi)
    check_v(v)
    lo = SQRT2 / s - 1
    return Interval.clamped(lo, 1 - lo / v)


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


def _fmt(x: float) -> str:
    """Decimal form capped at 12 significant digits; diffable and reimport-safe."""
    return f"{x:.12g}"


# The phi column's slot in a row block's template: one byte that neither the
# header nor any ``_fmt`` text holds. Flags are written as their digit's bytes.
_PHI_SLOT = "\0"
_FLAG_TEXT = np.array([b"0", b"1"], dtype=object)


def grid_to_csv(grid: FeasibilityGrid) -> bytearray:
    """The grid as ASCII CSV bytes, phi-major, ending in a newline.

    Each phi row block is one ``%`` call on a bytes template and is appended
    to one buffer, so the text never exists twice. The template is built once
    per grid and spells out the p and v columns (``_fmt`` text holds no ``%``).
    Each block splices its ``_fmt(phi)`` into the template's phi slots with one
    ``bytes.replace``, a copy of the template and not of the formatted block.
    Only the two values go through ``%.12g`` (the text of ``_fmt``) per cell;
    the flag goes through ``%b`` as the bytes ``0`` or ``1``.
    """
    v_head, v_col = ("", "") if grid.v is None else (",v", "," + _fmt(grid.v))
    csv = bytearray(f"phi,p{v_head},value1,value2,double_violation\n".encode())
    template = "".join(f"{_PHI_SLOT},{_fmt(p)}{v_col},%.12g,%.12g,%b\n"
                       for p in grid.p).encode()
    slot = _PHI_SLOT.encode()
    values = [None] * (3 * grid.p.size)
    for phi, row1, row2, flags in zip(grid.phi, grid.value1, grid.value2, grid.flagged):
        values[0::3] = row1.tolist()
        values[1::3] = row2.tolist()
        values[2::3] = _FLAG_TEXT[flags.view(np.uint8)].tolist()
        csv += template.replace(slot, _fmt(phi).encode()) % tuple(values)
    return csv


def scan_grid(n_phi: int, n_p: int) -> tuple[np.ndarray, np.ndarray]:
    """n_phi angles evenly spaced in (0, pi/4], zero excluded, and n_p p's in [0, 1]."""
    phi = np.arange(1, n_phi + 1) / n_phi * PHI_MAX
    p = np.linspace(0.0, 1.0, n_p)
    return phi, p


def scan(kind: str, phi_samples, p_samples, v: float | None = None) -> FeasibilityGrid:
    """Simulate every (phi, p) cell and flag the double violations.

    Cell values are bitwise identical to the per-point pair functions: the
    per-phi branch values are computed once and mixed by the same
    ``scenario.mix``.
    """
    phi = np.asarray(phi_samples, dtype=float)
    p = np.asarray(p_samples, dtype=float)
    for name, samples in (("phi", phi), ("p", p)):
        if samples.ndim != 1 or samples.size == 0 or np.any(np.diff(samples) <= 0):
            raise ValueError(f"{name} samples must be a nonempty, strictly increasing 1-D array")
    # NaN makes the min NaN and an infinity is out of range, so both fail here.
    check_phi(phi)
    check_p(p.min())
    check_p(p.max())
    check_kind(kind, v)

    value1 = np.empty((phi.size, p.size))
    value2 = np.empty((phi.size, p.size))
    # Per angle, not one branch_arrays call: the benchmark tracer pins these per-angle calls.
    for i, ph in enumerate(phi):
        value1[i, :], value2[i, :] = mix(branch_values(kind, ph, v), p)

    threshold = SCENARIOS[kind].bound + VIOLATION_MARGIN
    flagged = (value1 > threshold) & (value2 > threshold)
    return FeasibilityGrid(kind=kind, phi=phi, p=p, v=v,
                           value1=value1, value2=value2, flagged=flagged)


def window_membership(grid: FeasibilityGrid) -> np.ndarray:
    """Closed-form window membership for every grid cell."""
    inside = np.zeros(grid.value1.shape, dtype=bool)
    for i, ph in enumerate(grid.phi):
        if ph == 0.0:
            continue
        window = p_window(grid.kind, ph, grid.v)
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


def scan_window_disagreements(grid: FeasibilityGrid) -> tuple[int, float]:
    """Flagged/window mismatches away from the window boundary, and the exempt share.

    Cells within one grid step of the closed-form boundary are exempt:
    strict-inequality classification there is resolution-dependent.
    """
    inside = window_membership(grid)
    interior = _neighborhood_constant(inside)
    mismatches = int(np.count_nonzero(grid.flagged[interior] != inside[interior]))
    return mismatches, float(np.mean(~interior))
