"""Double-violation windows, their thresholds, sampled parameter scans and their CSV.

Closed-form windows for the mixing probability p follow directly from the
mixture values:

  standard:  1/sin(2phi) - 1       < p < 3 - 2/sin(2phi)
  genuine:   sqrt2/sin(2phi) - 1   < p < 1 - (sqrt2/sin(2phi) - 1)/v

each ``SCENARIOS[kind].window``, a ``(lo, hi)`` tuple, empty when ``not lo < hi``,
evaluated by ``window``. At phi = 0 both values are 0 and the window is (+inf, -inf).
sin(2phi) <= 1 keeps both ends in [0, 1] unclamped (the genuine lo is positive, so
its hi is below 1). Solving "window nonempty" for the state angle gives the thresholds

  standard:  sin(2phi) > 3/4
  genuine:   sin(2phi) > sqrt2 (1+v) / (1+2v),  possible only for v > 1/sqrt2.

Scans sample the *simulated* scenario values (not the closed forms) so a
scan doubles as an end-to-end consistency check against these windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import _SIN, PHI_MAX, check_p, check_phi
from .scenario import (
    SCENARIOS,
    SQRT2,
    branch_arrays,
    check_kind,
    genuine_branch_values,
    mix,
    standard_branch_values,
)

# Values strictly above bound + VIOLATION_MARGIN count as violations, so
# boundary classification is deterministic in floating point.
VIOLATION_MARGIN = 1e-9


def window(kind: str, phi, v: float | None = None):
    """The p-window (lo, hi) at one angle or an array of them; libm's sin 2phi per angle."""
    check_phi(phi)
    check_kind(kind, v)
    s = np.asarray(_SIN(np.multiply(2.0, phi)), dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return SCENARIOS[kind].window(s, v)


def p_window_standard(phi: float) -> tuple[float, float]:
    """Mixing probabilities (lo, hi) giving M1 > 2 and M2 > 2 simultaneously."""
    return window("standard", phi)


def phi_threshold_standard() -> float:
    """Infimum state angle with a nonempty standard window: arcsin(3/4)/2."""
    return 0.5 * math.asin(3 / 4)


def p_window_genuine(phi: float, v: float) -> tuple[float, float]:
    """Mixing probabilities (lo, hi) giving S1 > 4 and S2 > 4 simultaneously."""
    return window("genuine", phi, v)


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


# The phi column's slot in a block's template: one byte that neither the
# header nor any ``_fmt`` text holds. Flags are written as their digit's bytes.
_PHI_SLOT = "\0"
_FLAG_TEXT = np.array([b"0", b"1"], dtype=object)

# Cells per ``%`` call in ``grid_to_csv``. Measured in process on a 2-CPU x86-64 machine,
# medians of 11: a 20x25,000 genuine grid formats in 361 ms in blocks of 2,048 against
# 391 ms for whole rows (369 ms at 512 and at 8,192 cells), and its traced peak above the
# 30.6 MiB output falls from 7.9 to 3.0 MiB; on 2x100,000 it falls from 17.5 to 4.6 MiB.
# A 500-cell row is one block, so the default grid is unchanged (157 against 160 ms).
_CSV_BLOCK = 2048


def grid_to_csv(grid: FeasibilityGrid) -> bytearray:
    """The grid as ASCII CSV bytes, phi-major, ending in a newline.

    Each phi row is formatted in blocks of at most ``_CSV_BLOCK`` cells: one ``%``
    call per block on a bytes template, appended to one buffer, so the text never
    exists twice and at most one block of it is in flight. The templates, one per
    block of p columns and one row's worth in all, are built once per grid and spell
    out the p and v columns (``_fmt`` text holds no ``%``). Each block splices its
    ``_fmt(phi)`` into its template's phi slots with one ``bytes.replace``. Only the
    two values go through ``%.12g`` (the text of ``_fmt``) per cell; the flag goes
    through ``%b`` as the bytes ``0`` or ``1``.
    """
    v_head, v_col = ("", "") if grid.v is None else (",v", "," + _fmt(grid.v))
    csv = bytearray(f"phi,p{v_head},value1,value2,double_violation\n".encode())
    blocks = [(slice(k, k + _CSV_BLOCK),
               "".join(f"{_PHI_SLOT},{_fmt(p)}{v_col},%.12g,%.12g,%b\n"
                       for p in grid.p[k:k + _CSV_BLOCK]).encode())
              for k in range(0, grid.p.size, _CSV_BLOCK)]
    slot = _PHI_SLOT.encode()
    for phi, row1, row2, flags in zip(grid.phi, grid.value1, grid.value2, grid.flagged):
        phi_text = _fmt(phi).encode()
        for cells, template in blocks:
            value1 = row1[cells].tolist()
            values = [None] * (3 * len(value1))
            values[0::3] = value1
            values[1::3] = row2[cells].tolist()
            values[2::3] = _FLAG_TEXT[flags[cells].view(np.uint8)].tolist()
            csv += template.replace(slot, phi_text) % tuple(values)
    return csv


def scan_grid(n_phi: int, n_p: int) -> tuple[np.ndarray, np.ndarray]:
    """n_phi angles evenly spaced in (0, pi/4], zero excluded, and n_p p's in [0, 1]."""
    phi = np.arange(1, n_phi + 1) / n_phi * PHI_MAX
    p = np.linspace(0.0, 1.0, n_p)
    return phi, p


# Angles per ``branch_arrays`` call in ``scan_blocks``: a whole 500x500 grid in one call
# peaks at 9.7 MiB of traced memory, blocks of 100 at 5.1 MiB, the per-angle loop 4.6 MiB.
_SCAN_BLOCK = 100


def _scan_samples(kind: str, phi_samples, p_samples, v) -> tuple[np.ndarray, np.ndarray]:
    """The checked phi and p sample arrays of a scan."""
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
    return phi, p


def _classified(kind: str, phi, p, v, value1, value2) -> FeasibilityGrid:
    """The grid of the two value arrays, each cell flagged when both are violations."""
    threshold = SCENARIOS[kind].bound + VIOLATION_MARGIN
    flagged = (value1 > threshold) & (value2 > threshold)
    return FeasibilityGrid(kind=kind, phi=phi, p=p, v=v,
                           value1=value1, value2=value2, flagged=flagged)


def scan(kind: str, phi_samples, p_samples, v: float | None = None) -> FeasibilityGrid:
    """Simulate every (phi, p) cell and flag the double violations, one angle at a time.

    Each row is bitwise the row of ``mix(branch_arrays(kind, phi, v), p)`` at its angle:
    ``scenario.mix`` mixes that angle's four branch floats into the row.
    """
    phi, p = _scan_samples(kind, phi_samples, p_samples, v)
    value1 = np.empty((phi.size, p.size))
    value2 = np.empty((phi.size, p.size))
    # Per angle, not ``scan_blocks``: the benchmark tracer pins these per-angle calls, and
    # wraps each name where this module holds it, so both are looked up here, per call.
    for i, ph in enumerate(phi):
        branches = (standard_branch_values(ph) if kind == "standard"
                    else genuine_branch_values(ph, v))
        value1[i, :], value2[i, :] = mix(branches, p)
    return _classified(kind, phi, p, v, value1, value2)


def scan_blocks(kind: str, phi_samples, p_samples, v: float | None = None) -> FeasibilityGrid:
    """``scan``, bitwise, with one ``branch_arrays`` call per block of ``_SCAN_BLOCK`` angles."""
    phi, p = _scan_samples(kind, phi_samples, p_samples, v)
    value1 = np.empty((phi.size, p.size))
    value2 = np.empty((phi.size, p.size))
    for k in range(0, phi.size, _SCAN_BLOCK):
        rows = slice(k, k + _SCAN_BLOCK)
        value1[rows], value2[rows] = mix(branch_arrays(kind, phi[rows], v), p)
    return _classified(kind, phi, p, v, value1, value2)


def window_membership(grid: FeasibilityGrid) -> np.ndarray:
    """Closed-form window membership for every grid cell, by one ``window`` call."""
    lo, hi = window(grid.kind, grid.phi, grid.v)
    return (lo[:, None] < grid.p) & (grid.p < hi[:, None])


def scan_window_disagreements(grid: FeasibilityGrid) -> tuple[int, int]:
    """Flagged/window mismatches off the bound, and the cells on it.

    A cell where either value lies within ``VIOLATION_MARGIN`` of the scenario's
    bound is exempt: whether it counts as a violation is decided by the margin
    and by rounding, not by the closed form. Every other cell must agree. The
    band is compared end by end, so it makes no temporary array of floats.
    """
    bound = SCENARIOS[grid.kind].bound
    lo, hi = bound - VIOLATION_MARGIN, bound + VIOLATION_MARGIN
    on_bound = (((lo <= grid.value1) & (grid.value1 <= hi))
                | ((lo <= grid.value2) & (grid.value2 <= hi)))
    unlike = grid.flagged != window_membership(grid)
    return int(np.count_nonzero(unlike & ~on_bound)), int(np.count_nonzero(on_bound))
