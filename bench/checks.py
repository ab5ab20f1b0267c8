"""Independent checks of seqbell's outputs.

Nothing here imports ``seqbell``: the closed forms, p-windows and grids
are written out again from the paper's formulas, so a defect shared by the
program and its own checks still shows.

  standard:  M1 = (2p + 2) sin 2phi          M2 = (3 - p) sin 2phi
             window  1/s - 1 < p < 3 - 2/s
  genuine:   S1 = 2 sqrt2 (p + 1) sin 2phi   S2 = 2 sqrt2 (1 + v(1 - p)) sin 2phi
             window  sqrt2/s - 1 < p < 1 + 1/v - sqrt2/(v s)

with s = sin 2phi and both windows clamped to [0, 1].
"""

from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np

TOL = 1e-10
SQRT2 = math.sqrt(2.0)
PHI_MAX = math.pi / 4

# The 17 checks of ``seqbell verify``, in the order it runs them.
VERIFY_CHECKS = (
    "matrix-identities",
    "state-invariants",
    "channel-properties",
    "channel-closed-forms",
    "mermin-branch-values",
    "svetlichny-branch-values",
    "mixture-closed-form-standard",
    "mixture-closed-form-genuine",
    "mixing-linearity",
    "classical-bounds",
    "quantum-witnesses",
    "thresholds",
    "window-endpoints",
    "unbiased-genuine-scan",
    "standard-scan-consistency",
    "genuine-scan-consistency",
    "window-monotonicity",
)


def verify_failures(returncode: int, stdout: str) -> tuple[int, int]:
    """(attempted, failed) for one ``seqbell verify`` run.

    The operations are the 17 checks, each passing only with its own
    ``PASS  <name>:`` line, plus the exit code, which must be 0.
    """
    passed = set()
    for line in stdout.splitlines():
        if line.startswith("PASS  "):
            passed.add(line[6:].split(":", 1)[0])
    failed = sum(1 for name in VERIFY_CHECKS if name not in passed)
    failed += returncode != 0
    return len(VERIFY_CHECKS) + 1, failed


def grid(n_phi: int, n_p: int) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid: phi = k/n * pi/4 for k = 1..n, p evenly over [0, 1]."""
    phi = np.arange(1, n_phi + 1) * (PHI_MAX / n_phi)
    p = np.arange(n_p) / (n_p - 1)
    return phi, p


def closed_forms(kind: str, phi: np.ndarray, p: np.ndarray, v: float | None):
    """Closed-form (value1, value2) on the phi x p grid."""
    s = np.sin(2 * phi)[:, None]
    p = p[None, :]
    if kind == "standard":
        return (2 * p + 2) * s, (3 - p) * s
    return 2 * SQRT2 * (p + 1) * s, 2 * SQRT2 * (1 + v * (1 - p)) * s


def window_inside(kind: str, phi: np.ndarray, p: np.ndarray, v: float | None) -> np.ndarray:
    """Membership of each (phi, p) in the closed-form double-violation window."""
    s = np.sin(2 * phi)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "standard":
            lo, hi = 1 / s - 1, 3 - 2 / s
        else:
            lo, hi = SQRT2 / s - 1, 1 + 1 / v - SQRT2 / (v * s)
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, 1.0)
    p = p[None, :]
    return (s > 0) & (lo < p) & (p < hi)


def boundary_cells(kind: str, phi: np.ndarray, p: np.ndarray, v: float | None) -> np.ndarray:
    """Cells within one grid step of a window boundary.

    A cell is exempt when window membership is not the same at all nine
    points of its 3x3 neighbourhood; the grid is extended by one step on
    every side for the edge cells.
    """
    dphi = phi[1] - phi[0] if phi.size > 1 else phi[0]
    dp = p[1] - p[0]
    phi_ext = np.concatenate(([phi[0] - dphi], phi, [phi[-1] + dphi]))
    p_ext = np.concatenate(([p[0] - dp], p, [p[-1] + dp]))
    inside = window_inside(kind, phi_ext, p_ext, v)
    rows, cols = phi.size, p.size
    centre = inside[1:-1, 1:-1]
    mixed = np.zeros_like(centre)
    for di in range(3):
        for dj in range(3):
            mixed |= inside[di:di + rows, dj:dj + cols] != centre
    return mixed


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_scan_csv(path: str, kind: str, n_phi: int, n_p: int, v: float | None) -> list[str]:
    """Problems found in one scan CSV; an empty list means it is correct.

    Checks the header, the row count, the phi/p/v columns against the
    grid, every value against the closed forms at 1e-10, and every flag
    against the closed-form window away from the window boundary.
    """
    header = ("phi,p,value1,value2,double_violation" if kind == "standard"
              else "phi,p,v,value1,value2,double_violation")
    try:
        with open(path) as handle:
            first = handle.readline().rstrip("\n")
            if first != header:
                return [f"header {first!r} != {header!r}"]
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    ncols = header.count(",") + 1
    if data.shape != (n_phi * n_p, ncols):
        return [f"shape {data.shape} != {(n_phi * n_p, ncols)}"]

    phi, p = grid(n_phi, n_p)
    cols = {name: data[:, k].reshape(n_phi, n_p) for k, name in enumerate(header.split(","))}
    problems = []

    def deviation(name: str, expected) -> None:
        dev = float(np.max(np.abs(cols[name] - expected)))
        if not dev <= TOL:
            problems.append(f"{name} deviates by {dev:.3g} (tol {TOL:g})")

    deviation("phi", phi[:, None])
    deviation("p", p[None, :])
    if kind == "genuine":
        deviation("v", v)
    value1, value2 = closed_forms(kind, phi, p, v)
    deviation("value1", value1)
    deviation("value2", value2)

    flags = cols["double_violation"]
    if not np.all((flags == 0) | (flags == 1)):
        problems.append("a double_violation flag is not 0 or 1")
    inside = window_inside(kind, phi, p, v)
    checked = ~boundary_cells(kind, phi, p, v)
    mismatches = int(np.count_nonzero((flags == 1)[checked] != inside[checked]))
    if mismatches:
        problems.append(f"{mismatches} flags disagree with the closed-form window")
    return problems


def check_svg(path: str) -> list[str]:
    """Problems found in an SVG rendering: it must parse with an <svg> root."""
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"unreadable: {exc}"]
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return [f"root element {root.tag!r} is not svg"]
    return []
