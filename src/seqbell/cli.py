"""Command-line driver.

Commands:
  verify         run every self-verification check, exit nonzero on failure
  scan-standard  Mermin double-violation scan over (phi, p), CSV out
  scan-genuine   Svetlichny double-violation scan at a fixed bias v
  windows        print thresholds and closed-form p-windows
  bounds         print enumerated classical bounds and quantum witnesses

Exit codes: 0 success, 1 failed check, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .feasibility import (
    FeasibilityGrid,
    grid_to_csv,
    p_window_genuine,
    p_window_standard,
    phi_threshold_genuine,
    phi_threshold_standard,
    scan,
    scan_grid,
    v_threshold_genuine,
)
from .lhvbound import (
    mermin_classical_max,
    outcome_tables,
    quantum_witness_max,
    svetlichny_classical_max,
)
from .qstate import PHI_MAX
from .scenario import SCENARIOS, check_kind
from .verify import check_names, run_checks

USAGE_ERROR = 2
CHECK_FAILURE = 1

# Largest scan, in grid cells: 16x the default 500x500 grid. It bounds memory, not time. At the
# cap, scan-standard peaks at 330 MiB of RSS on a 2000x2000 grid and 394 MiB on a 2x2,000,000
# one (wait4, 2-CPU x86-64): beside the CSV buffer, the writer keeps the padded text of every p.
# The CLI's scan runs the kernel once per angle, about 160 us each: 20,000x2 took 3.3 s, 2x20,000
# 0.2 s and 2x2,000,000 1.9 s, so 2,000,000x2 would take about 5 min. ROADMAP item 2 batches it.
MAX_SCAN_CELLS = 4_000_000


def _write_atomic(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, so failures leave no partial file.

    The sibling is that of the file ``path`` names, symlinks followed, so a link is
    written through, not replaced. The handle is binary, so ``data`` goes out as it is.
    """
    path = os.path.realpath(path)
    tmp_path = os.path.join(os.path.dirname(path), f".seqbell-{os.urandom(8).hex()}.tmp")
    try:
        handle = open(tmp_path, "xb")
    except OSError as exc:  # name the output, not a temp file the user never gave
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def grid_to_svg(grid: FeasibilityGrid) -> str:
    """Standalone SVG: flagged region as filled rects, window boundaries overlaid."""
    width, height = 640, 480
    left, right, top, bottom = 70, 20, 24, 48
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(phi: float) -> float:
        return left + phi / PHI_MAX * plot_w

    def sy(p: float) -> float:
        return top + (1.0 - p) * plot_h

    phi_step = grid.phi[1] - grid.phi[0] if grid.phi.size > 1 else PHI_MAX
    p_step = grid.p[1] - grid.p[0] if grid.p.size > 1 else 1.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    title = f"{grid.kind} double-violation region"
    if grid.v is not None:
        title += f" (v = {grid.v:g})"
    parts.append(f'<text x="{left}" y="16" font-family="sans-serif" '
                 f'font-size="13">{title}</text>')

    # One rect per contiguous flagged run in each phi column. On the flags padded
    # with False, changes come in pairs j, j_stop: a run of p indices j..j_stop-1.
    padded = np.pad(grid.flagged, ((0, 0), (1, 1)))
    for i, phi in enumerate(grid.phi):
        edges = np.flatnonzero(np.diff(padded[i])).tolist()
        x0 = sx(phi - phi_step / 2)
        x1 = sx(phi + phi_step / 2)
        for j, j_stop in zip(edges[0::2], edges[1::2]):
            y0 = sy(grid.p[j_stop - 1] + p_step / 2)
            y1 = sy(grid.p[j] - p_step / 2)
            parts.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                f'height="{y1 - y0:.2f}" fill="#7fb3d5"/>'
            )

    # Closed-form window boundary curves.
    for end in (0, 1):  # lo, then hi
        points = []
        for phi in np.linspace(PHI_MAX / 400, PHI_MAX, 400).tolist():
            window = p_window_standard(phi) if grid.v is None else p_window_genuine(phi, grid.v)
            if not window[0] < window[1]:
                continue
            points.append(f"{sx(phi):.2f},{sy(window[end]):.2f}")
        if points:
            parts.append(
                f'<polyline points="{" ".join(points)}" fill="none" '
                f'stroke="#b03a2e" stroke-width="1.5"/>'
            )

    # Axes with a few ticks.
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        phi = frac * PHI_MAX
        x = sx(phi)
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h}" '
                     f'x2="{x:.2f}" y2="{top + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 18}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="middle">{phi:.3f}</text>')
        y = sy(frac)
        parts.append(f'<line x1="{left - 5}" y1="{y:.2f}" '
                     f'x2="{left}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{frac:.2f}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.0f}" y="{height - 8}" '
                 f'font-family="sans-serif" font-size="12" text-anchor="middle">phi (rad)</text>')
    parts.append(f'<text x="16" y="{top + plot_h / 2:.0f}" font-family="sans-serif" '
                 f'font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 16 {top + plot_h / 2:.0f})">p</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_verify(args) -> int:
    results = run_checks(inject_failure=args.inject_failure)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed: "
              + ", ".join(r.name for r in failed))
        return CHECK_FAILURE
    print(f"all checks passed ({len(results)})")
    return 0


def cmd_scan(args) -> int:
    phi, p = scan_grid(args.grid_phi, args.grid_p)
    grid = scan(args.kind, phi, p, v=args.v)
    _write_atomic(args.out, grid_to_csv(grid))
    flagged = int(np.count_nonzero(grid.flagged))
    print(f"wrote {grid.phi.size * grid.p.size} rows to {args.out} "
          f"({flagged} flagged cells)")
    if args.svg:
        _write_atomic(args.svg, grid_to_svg(grid).encode())
        print(f"wrote {args.svg}")
    return 0


def cmd_windows(args) -> int:
    v_list = args.v if args.v else [0.8, 0.9]
    print(f"phi threshold, standard scenario: {phi_threshold_standard():.4f}")
    print(f"v threshold, genuine scenario:    {v_threshold_genuine():.4f}")
    for v in v_list:
        lo, hi = p_window_genuine(PHI_MAX, v)  # the widest: sin 2phi is largest at pi/4
        if not lo < hi:
            print(f"v = {v:.4f}: no window (a window needs v > {v_threshold_genuine():.4f})")
            continue
        print(f"v = {v:.4f}: phi threshold {phi_threshold_genuine(v):.4f}, "
              f"p window at phi = pi/4: ({lo:.4f}, {hi:.4f})")
    return 0


def cmd_bounds(args) -> int:
    print(f"mermin_classical_max = {mermin_classical_max():g} "
          f"(enumerated over {len(outcome_tables('local'))} local strategies)")
    print(f"svetlichny_classical_max = {svetlichny_classical_max():g} "
          f"(enumerated over {len(outcome_tables('hybrid'))} hybrid strategies)")
    print(f"mermin_quantum_witness = {quantum_witness_max('standard'):g}")
    print(f"svetlichny_quantum_witness ≈ {quantum_witness_max('genuine'):.4f}")
    return 0


def _positive_grid(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 2:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 2, got {value!r}")
    return n


def _bias(value: str) -> float:
    try:
        v = float(value)
        check_kind("genuine", v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return v


def _output_path(value: str) -> str:
    """Reject an empty path, one in no existing directory (symlinks followed, as
    ``_write_atomic`` does), and an existing target that the atomic rename must not replace."""
    if not value:
        raise argparse.ArgumentTypeError("the path is empty")
    directory = os.path.dirname(os.path.realpath(value))
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"{value}: {directory} is not an existing directory")
    if os.path.exists(value) and not os.path.isfile(value):
        raise argparse.ArgumentTypeError(f"{value} exists and is not a regular file")
    # The rename would unlink stdout's own file, losing the summary printed after it.
    with contextlib.suppress(OSError):  # no such file, or stdout closed
        if os.path.samestat(os.stat(value), os.fstat(1)):
            raise argparse.ArgumentTypeError(f"{value} is the file that stdout writes to")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqbell",
        description="Sequential tripartite Bell-test simulator and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all self-verification checks")
    p_verify.add_argument("--inject-failure", metavar="CHECK", default=None,
                          choices=check_names(),
                          help="raise the named check's first measurement past its "
                               "tolerance so it must fail (fault injection)")
    p_verify.set_defaults(run=cmd_verify)

    for kind in SCENARIOS:
        p_scan = sub.add_parser(f"scan-{kind}",
                                help=f"scan the {kind} double-violation region")
        p_scan.add_argument("--grid-phi", type=_positive_grid, default=500,
                            metavar="N", help="number of phi samples (default 500)")
        p_scan.add_argument("--grid-p", type=_positive_grid, default=500,
                            metavar="N", help="number of p samples (default 500)")
        p_scan.add_argument("--out", type=_output_path, required=True, metavar="FILE",
                            help="output CSV path")
        p_scan.add_argument("--svg", type=_output_path, default=None, metavar="FILE",
                            help="optional SVG rendering of the flagged region")
        p_scan.set_defaults(run=cmd_scan, kind=kind, v=None)
        if kind == "genuine":
            p_scan.add_argument("--v", type=_bias, required=True,
                                help="input bias v in (0, 1)")

    p_windows = sub.add_parser("windows", help="print thresholds and p-windows")
    p_windows.add_argument("--v", type=_bias, action="append", default=None,
                           help="bias value (repeatable; default 0.8 and 0.9)")
    p_windows.set_defaults(run=cmd_windows)

    p_bounds = sub.add_parser("bounds", help="print enumerated classical bounds and witnesses")
    p_bounds.set_defaults(run=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.run is cmd_scan:
        if args.grid_phi * args.grid_p > MAX_SCAN_CELLS:
            parser.error(f"--grid-phi x --grid-p is {args.grid_phi * args.grid_p} cells, "
                         f"more than the cap of {MAX_SCAN_CELLS}")
        # Otherwise the SVG would silently replace the CSV just written.
        if args.svg is not None and os.path.realpath(args.svg) == os.path.realpath(args.out):
            parser.error(f"--svg and --out name the same file {args.out}")
    try:
        return args.run(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError) as exc:
        # The parser has validated every argument, so a ValueError here is a
        # fault of the program, like a tripped internal consistency check.
        print(f"internal check failed: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
