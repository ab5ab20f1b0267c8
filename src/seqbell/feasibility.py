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


# Bytes per text row of ``_texts``: "0000", 12 digits and NUL, or the longest ``_fmt``
# text of a double (19 bytes, as in -1.23456789012e-308) and NUL.
_ROW = 20
# A value x in the decade E = -4..10, fl(10^E) <= x < fl(10^(E+1)), has the code
# k = E + 5 = np.searchsorted(_TENS, x, "right"); code 0 holds x < 1e-4, x <= 0 and
# -inf, code 16 holds x >= 1e11, inf and NaN, and both go to ``_fmt``.
_TENS = np.array([float(f"1e{e}") for e in range(-4, 12)])
# 10^(11-E) per code, as the double nearest it, exact for 11-E <= 15; for codes 0 and 16,
# NaN, which fails every test of m.
_SCALE = np.array([math.nan] + [float(10 ** (11 - e)) for e in range(-4, 11)] + [math.nan])


def _tables():
    """The lookup tables of ``_texts``, built from byte strings: at import, this costs about
    0.3 ms, where array arithmetic costs about 0.9 ms on its first calls.

    ``digits`` holds each 4-digit group as its four ASCII digits in a uint32, in the order
    of its bytes, and ``zeros`` the count of its trailing zeros (4 for 0000). A value's
    digit row is "0000" and its 12 digits. Its text keeps the bytes of that row that
    ``before`` selects, from 1 + min(E, 0) bytes before the point: the integer digits, or
    a 0 and the zeros after the point. The bytes of the row one column later that
    ``after`` selects follow the point: the rest of the digits but for the value's
    trailing zeros. ``point`` puts the point between them, unless no digit follows it.
    These three have a row per code and count of trailing zeros, and every other byte is
    NUL (all of them for codes 0 and 16). ``first`` is the first column of each code's text.
    """
    digits = bytearray(4 * 10_000)
    for place in range(4):  # a digit in this place holds for `run` groups in a row
        run = 10 ** (3 - place)
        digits[place::4] = b"".join(bytes([d]) * run for d in b"0123456789") * (1000 // run)
    zeros = bytearray(10_000)
    for k in range(1, 5):
        zeros[::10**k] = bytes([k]) * (10_000 // 10**k)
    before, after, point = (bytearray(17 * 12 * _ROW) for _ in range(3))
    first = [4 + min(code - 5, 0) for code in range(17)]
    for code in range(1, 16):
        at = code  # the point's column, 5 + E
        for trailing in range(12):
            kept = max(16 - code - trailing, 0)
            row = (12 * code + trailing) * _ROW
            before[row + first[code]:row + at] = b"\xff" * (at - first[code])
            after[row + at + 1:row + at + 1 + kept] = b"\xff" * kept
            point[row + at] = ord(".") if kept else 0
    # Read-only, as arrays over immutable bytes.
    return (np.frombuffer(bytes(digits), np.uint32), np.frombuffer(bytes(zeros), np.uint8),
            *(np.frombuffer(bytes(mask), np.uint8).reshape(-1, _ROW)
              for mask in (before, after, point)), first)


_DIGITS, _ZEROS, _BEFORE, _AFTER, _POINT, _FIRST = _tables()


def _texts(x: np.ndarray) -> np.ndarray:
    """``b"%.12g" % x`` for each x of a 1-D float array, as the rows of a uint8 matrix.

    Row i holds the text of ``x[i]``, in order, and NUL bytes about it. The columns run
    from the first that holds a text byte to one past the last, so the last is all NUL.

    The fast path takes a value 1e-4 <= x < 1e11 in the decade E and rounds it to 12 digits
    as m = rint(y), y = x * 10^(11-E) with one rounding. m is accepted only when
    |y - m| <= 0.499 and 10^11 <= m < 10^12. y stays below 2^40, so that rounding is at
    most half an ulp, 2^-14, and the exact x * 10^(11-E) lies within 0.499 + 2^-14 < 1/2 of m:
    m is the correctly rounded 12-digit significand that CPython's dtoa gives, and E is
    the text's exponent. (x >= fl(10^E) puts the exact product above 10^11 - 1e-4, where
    12 digits round up to 10^11 too.) Every other value, near-ties included, goes through
    ``_fmt``, so ``%.12g`` is spelt in one place. Each temporary is dropped once used,
    which halves the working set.
    """
    code = np.searchsorted(_TENS, x, side="right")
    y = x * _SCALE[code]
    m = np.rint(y)
    fast = (np.abs(y - m) <= 0.499) & (m >= 1e11) & (m < 1e12)
    del y
    m[~fast] = 1e11
    m = m.astype(np.int64)
    high, low = m // 10**8, m % 10**4
    middle = m // 10**4 - high * 10**4
    del m
    digits = np.zeros((x.size, _ROW // 4), np.uint32)
    digits[:, 0] = 0x30303030  # "0000"
    digits[:, 1], digits[:, 2], digits[:, 3] = _DIGITS[high], _DIGITS[middle], _DIGITS[low]
    row = _ZEROS[low]
    tail = np.flatnonzero(low == 0)  # trailing zeros that run on into the group before
    row[tail] += _ZEROS[middle[tail]] + (middle[tail] == 0) * _ZEROS[high[tail]]
    del high, middle, low
    row = code * 12 + row
    first = _FIRST[code.min()] if fast.all() else 0
    del code
    text = digits.view(np.uint8).ravel()
    shifted = np.take(_AFTER, row, axis=0).ravel()
    shifted[1:] &= text[:-1]
    mask = np.take(_BEFORE, row, axis=0).ravel()
    text &= mask
    text |= shifted
    del shifted
    np.take(_POINT, row, axis=0, out=mask.reshape(-1, _ROW))
    text |= mask
    del mask
    text = text.reshape(-1, _ROW)
    slow = np.flatnonzero(~fast)
    if slow.size == 0:
        return text[:, first:18]
    spelt = [_fmt(v).encode() for v in x[slow].tolist()]
    text[slow] = np.frombuffer(b"".join(t.ljust(_ROW, b"\0") for t in spelt),
                               np.uint8).reshape(-1, _ROW)
    return text[:, :1 + max(17, *map(len, spelt))]


# Cells per block of ``grid_to_csv``: the largest power of two whose working set stays within
# the bound of ``TestOutputMemory``. Measured in process on a 2-CPU x86-64 machine, medians
# of 7: a 20x25,000 genuine grid formats in 145 ms in blocks of 1,024 cells, 171 ms in
# blocks of 512 and 133 ms in blocks of 2,048, and the traced peak above the output of a
# 20x1,000 grid is 5.2 rows of its text at 1,024, 4.2 at 512 and 8.0 at 2,048.
_CSV_BLOCK = 1024


def grid_to_csv(grid: FeasibilityGrid) -> bytearray:
    """The grid as ASCII CSV bytes, phi-major, ending in a newline.

    The cells are laid out in blocks of at most ``_CSV_BLOCK``: whole rows, or one row's
    run of p columns when a row is longer. Each block is one NUL-padded uint8 matrix, a
    cell per line, ``phi, | p,[v,] | value1, | value2, | flag\\n``, whose columns are
    the texts of ``_texts``; one boolean mask drops the padding (no CSV byte is NUL), and
    the block is appended to the one buffer returned, so the text never exists twice.
    The phi and p columns are formatted once per grid.
    """
    v_head, v_text = ("", b"") if grid.v is None else (",v", _fmt(grid.v).encode() + b",")
    csv = bytearray(f"phi,p{v_head},value1,value2,double_violation\n".encode())
    if grid.value1.size == 0:
        return csv
    phi, p = _texts(grid.phi), _texts(grid.p)
    phi[:, -1] = p[:, -1] = ord(",")
    v = np.broadcast_to(np.frombuffer(v_text, np.uint8), (grid.p.size, len(v_text)))
    p = np.hstack([p, v])
    rows_per_block = max(1, _CSV_BLOCK // grid.p.size)
    for i in range(0, grid.phi.size, rows_per_block):
        rows = slice(i, i + rows_per_block)
        for k in range(0, grid.p.size, _CSV_BLOCK):
            cols = slice(k, k + _CSV_BLOCK)
            value1, value2 = grid.value1[rows, cols], grid.value2[rows, cols]
            text = _texts(np.stack((value1, value2), axis=-1).ravel())
            text[:, -1] = ord(",")
            shape = value1.shape
            width = 2 * text.shape[1]
            block = np.empty((*shape, phi.shape[1] + p.shape[1] + width + 2), np.uint8)
            block[:, :, :phi.shape[1]] = phi[rows, None]
            block[:, :, phi.shape[1]:phi.shape[1] + p.shape[1]] = p[cols]
            block[:, :, -2 - width:-2] = text.reshape(*shape, width)
            del text
            block[:, :, -2] = grid.flagged[rows, cols] + ord("0")
            block[:, :, -1] = ord("\n")
            csv.extend(block[block != 0])
    return csv


def scan_grid(n_phi: int, n_p: int) -> tuple[np.ndarray, np.ndarray]:
    """n_phi angles evenly spaced in (0, pi/4], zero excluded, and n_p p's in [0, 1]."""
    phi = np.arange(1, n_phi + 1) / n_phi * PHI_MAX
    p = np.linspace(0.0, 1.0, n_p)
    return phi, p


# Angles per ``branch_arrays`` call in ``scan_blocks``: a whole 500x500 grid in one call
# peaks at 9.7 MiB of traced memory, blocks of 100 at 5.1 MiB, the per-angle loop 4.6 MiB.
_SCAN_BLOCK = 100


def _classified(kind: str, phi, p, v, value1, value2) -> FeasibilityGrid:
    """The grid of the two value arrays, each cell flagged when both are violations."""
    threshold = SCENARIOS[kind].bound + VIOLATION_MARGIN
    flagged = (value1 > threshold) & (value2 > threshold)
    return FeasibilityGrid(kind=kind, phi=phi, p=p, v=v,
                           value1=value1, value2=value2, flagged=flagged)


def _scan(kind: str, phi_samples, p_samples, v, branches, step: int) -> FeasibilityGrid:
    """The checked samples' grid, mixed from one ``branches(kind, phi, v)`` call per block of
    ``step`` angles, and classified; ``branches`` returns what ``branch_arrays`` does."""
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
    for k in range(0, phi.size, step):
        rows = slice(k, k + step)
        value1[rows], value2[rows] = mix(branches(kind, phi[rows], v), p)
    return _classified(kind, phi, p, v, value1, value2)


def scan(kind: str, phi_samples, p_samples, v: float | None = None) -> FeasibilityGrid:
    """Simulate every (phi, p) cell and flag the double violations, one angle at a time.

    Bitwise ``scan_blocks``: each angle's four branch floats are the N = 1 row of
    ``branch_arrays``. Per angle, because the benchmark tracer pins these per-angle
    calls and wraps each name where this module holds it, so both are looked up per call.
    """
    return _scan(kind, phi_samples, p_samples, v, lambda kind, phi, v: (
        standard_branch_values(phi[0]) if kind == "standard"
        else genuine_branch_values(phi[0], v)), 1)


def scan_blocks(kind: str, phi_samples, p_samples, v: float | None = None) -> FeasibilityGrid:
    """``scan``, bitwise, with one ``branch_arrays`` call per block of ``_SCAN_BLOCK`` angles."""
    return _scan(kind, phi_samples, p_samples, v, branch_arrays, _SCAN_BLOCK)


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
