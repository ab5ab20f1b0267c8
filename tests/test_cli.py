import hashlib
import math
import os
import re
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seqbell.cli as cli
import seqbell.feasibility as feasibility
import seqbell.lhvbound as lhvbound
import seqbell.verify as verify
from seqbell.feasibility import FeasibilityGrid, scan, scan_blocks, scan_grid
from seqbell.qstate import PHI_MAX


def run_cli(args):
    return cli.main(args)


def test_scan_defaults_are_500_by_500():
    args = cli.build_parser().parse_args(["scan-standard", "--out", "x.csv"])
    assert args.grid_phi == 500 and args.grid_p == 500 and args.svg is None


class TestScanStandard:
    def test_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["scan-standard", "--grid-phi", "20", "--grid-p", "15", "--out", str(a)])
        run_cli(["scan-standard", "--grid-phi", "20", "--grid-p", "15", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli(["scan-standard", "--grid-phi", "4", "--grid-p", "4", "--out", str(out)])
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]

    def test_output_mode_follows_umask(self, tmp_path):
        out, svg = tmp_path / "scan.csv", tmp_path / "scan.svg"
        old_umask = os.umask(0o022)
        try:
            assert run_cli(["scan-standard", "--grid-phi", "4", "--grid-p", "4",
                            "--out", str(out), "--svg", str(svg)]) == 0
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert stat.S_IMODE(svg.stat().st_mode) == 0o644

    def test_unwritable_path_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # The directory is there when the arguments are parsed and gone when the CSV is written.
        (tmp_path / "missing").mkdir()
        scan = cli.scan

        def scan_then_remove_directory(*args, **kwargs):
            (tmp_path / "missing").rmdir()
            return scan(*args, **kwargs)

        monkeypatch.setattr(cli, "scan", scan_then_remove_directory)
        out = tmp_path / "missing" / "scan.csv"
        assert run_cli(["scan-standard", "--grid-phi", "4", "--grid-p", "4",
                        "--out", str(out)]) == 2
        assert not (tmp_path / "missing").exists()
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert "scan.csv" in err and ".seqbell-" not in err

    def test_symlinked_outputs_are_written_through(self, tmp_path):
        args = ["scan-standard", "--grid-phi", "4", "--grid-p", "4"]
        direct = tmp_path / "direct"
        direct.mkdir()
        assert run_cli(args + ["--out", str(direct / "scan.csv"),
                               "--svg", str(direct / "scan.svg")]) == 0
        (tmp_path / "real.csv").write_bytes(b"old")
        (tmp_path / "real.svg").write_bytes(b"old")
        links = {name: tmp_path / f"link.{name}" for name in ("csv", "svg", "dangling")}
        links["csv"].symlink_to("real.csv")
        links["svg"].symlink_to("real.svg")
        links["dangling"].symlink_to("new.csv")
        assert run_cli(args + ["--out", str(links["csv"]), "--svg", str(links["svg"])]) == 0
        assert run_cli(args + ["--out", str(links["dangling"])]) == 0
        assert all(link.is_symlink() for link in links.values())
        for target, reference in (("real.csv", "scan.csv"), ("real.svg", "scan.svg"),
                                  ("new.csv", "scan.csv")):
            assert (tmp_path / target).read_bytes() == (direct / reference).read_bytes()

    def test_failed_rename_removes_temp_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert run_cli(["scan-standard", "--grid-phi", "4", "--grid-p", "4",
                        "--out", str(tmp_path / "scan.csv")]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_refuses_to_replace_non_regular_file(self, tmp_path, flag):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        args = ["scan-standard", "--grid-phi", "4", "--grid-p", "4",
                "--out", str(tmp_path / "scan.csv"), flag, str(fifo)]
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_output_to_stdouts_file_is_usage_error(self, tmp_path, flag, child_env):
        # Replacing the file stdout is redirected to would send the summary to an
        # unlinked inode; --out names it as /dev/stdout, --svg by its own path.
        stdout = tmp_path / "stdout.txt"
        stdout.write_text("before\n")
        args = {"--out": ["--out", "/dev/stdout"],
                "--svg": ["--out", str(tmp_path / "scan.csv"), "--svg", str(stdout)]}[flag]
        with open(stdout, "a") as handle:
            proc = subprocess.run(
                [sys.executable, "-m", "seqbell.cli", "scan-standard", "--grid-phi", "4",
                 "--grid-p", "3", *args],
                stdout=handle, stderr=subprocess.PIPE, text=True, timeout=60, env=child_env)
        assert proc.returncode == 2, proc.stderr
        assert "stdout" in proc.stderr
        assert stdout.read_text() == "before\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stdout.txt"]

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_empty_output_path_is_usage_error(self, tmp_path, monkeypatch, capsys, flag):
        # An empty path would put the temp file in the parent directory, then fail to
        # rename it onto the working directory; an empty --svg would be skipped.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        paths = {"--out": ["--out", ""], "--svg": ["--out", "scan.csv", "--svg", ""]}[flag]
        with pytest.raises(SystemExit) as exc:
            run_cli(["scan-standard", "--grid-phi", "4", "--grid-p", "3", *paths])
        assert exc.value.code == 2
        assert f"argument {flag}: the path is empty" in capsys.readouterr().err
        assert list(work.iterdir()) == [] and list(tmp_path.iterdir()) == [work]

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_output_in_missing_directory_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                        flag):
        # Rejected while parsing, before any scan work; a link is followed to its target.
        def no_scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(cli, "scan", no_scan)
        (tmp_path / "link.csv").symlink_to(tmp_path / "nodir" / "new.csv")
        for path in (tmp_path / "nodir" / "x.csv", tmp_path / "link.csv"):
            paths = {"--out": ["--out", str(path)],
                     "--svg": ["--out", str(tmp_path / "scan.csv"), "--svg", str(path)]}[flag]
            with pytest.raises(SystemExit) as exc:
                run_cli(["scan-standard", "--grid-phi", "3", "--grid-p", "3", *paths])
            assert exc.value.code == 2
            assert f"argument {flag}: {path}" in capsys.readouterr().err
            assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]

    def test_svg_and_csv_to_the_same_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scan-standard", "--grid-phi", "4", "--grid-p", "4",
                     "--out", str(tmp_path / "x.csv"), "--svg", f"{tmp_path}/./x.csv"])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_internal_value_error_is_check_failure(self, tmp_path, monkeypatch, capsys):
        def broken_scan(*args, **kwargs):
            raise ValueError("bad internal state")

        monkeypatch.setattr(cli, "scan", broken_scan)
        assert run_cli(["scan-standard", "--grid-phi", "4", "--grid-p", "4",
                        "--out", str(tmp_path / "scan.csv")]) == 1
        assert "internal check failed: bad internal state" in capsys.readouterr().err

    def test_svg_output(self, tmp_path):
        out, svg = tmp_path / "scan.csv", tmp_path / "scan.svg"
        run_cli(["scan-standard", "--grid-phi", "40", "--grid-p", "40",
                 "--out", str(out), "--svg", str(svg)])
        root = ET.parse(svg).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.get("version") == "1.1"
        body = svg.read_text()
        assert "<polyline" in body  # window boundary curves
        assert "<rect" in body  # flagged region fill
        assert "phi (rad)" in body


def reference_csv(grid):
    """The grid's CSV formatted cell by cell in Python, the reference of ``grid_to_csv``."""
    v_head, v_col = ("", "") if grid.v is None else (",v", f",{grid.v:.12g}")
    lines = [f"phi,p{v_head},value1,value2,double_violation"]
    for i, phi in enumerate(grid.phi.tolist()):
        for j, p in enumerate(grid.p.tolist()):
            lines.append(f"{phi:.12g},{p:.12g}{v_col},{grid.value1[i, j]:.12g},"
                         f"{grid.value2[i, j]:.12g},{int(grid.flagged[i, j])}")
    return "\n".join(lines) + "\n"


def reference_rects(grid):
    """The flag-by-flag run walk that the array run finder replaced, as SVG rects."""
    left, top, plot_w, plot_h = 70, 24, 550, 408
    phi_step = grid.phi[1] - grid.phi[0] if grid.phi.size > 1 else PHI_MAX
    p_step = grid.p[1] - grid.p[0] if grid.p.size > 1 else 1.0
    rects = []
    for i, phi in enumerate(grid.phi):
        flags = grid.flagged[i]
        j = 0
        while j < flags.size:
            if not flags[j]:
                j += 1
                continue
            j_end = j
            while j_end + 1 < flags.size and flags[j_end + 1]:
                j_end += 1
            x0 = left + (phi - phi_step / 2) / PHI_MAX * plot_w
            x1 = left + (phi + phi_step / 2) / PHI_MAX * plot_w
            y0 = top + (1.0 - (grid.p[j_end] + p_step / 2)) * plot_h
            y1 = top + (1.0 - (grid.p[j] - p_step / 2)) * plot_h
            rects.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                         f'height="{y1 - y0:.2f}" fill="#7fb3d5"/>')
            j = j_end + 1
    return rects


def hand_grid(p, value1, value2, flagged, v=None):
    phi = np.array([-0.0, 1e-13, 0.5])[: len(value1)]
    return FeasibilityGrid(kind="standard" if v is None else "genuine", phi=phi,
                           p=np.array(p), v=v, value1=np.array(value1),
                           value2=np.array(value2), flagged=np.array(flagged))


HAND_GRIDS = {
    "mixed": ([0.0, 1e-13, 0.25, 1.0],
              [[-0.0, 1e-13, 1.5e20, 2.000000000001], [0.1, -1.5e20, 3.0, 1 / 3]],
              [[2.5, -0.0, 1e-300, 5e-324], [7.0, 2.0, -2.0, 123456789012345.6]],
              [[True, False, True, False], [False, False, True, True]]),
    "one-p": ([0.5], [[1.5e20], [-0.0], [1e-13]], [[-0.0], [1e-13], [1.5e20]],
              [[True], [False], [True]]),
    "all-flagged": ([0.0, 1.0], [[2.1, 2.2], [2.3, 2.4]], [[2.5, 2.6], [2.7, 2.8]],
                    [[True, True], [True, True]]),
    "none-flagged": ([0.0, 1.0], [[0.1, 0.2]], [[0.3, 0.4]], [[False, False]]),
}


# Any double, with the signed zeros, the infinities, NaN, the least subnormal, a value below
# the formatter's fast range and a tie above it drawn explicitly, and values in that range.
csv_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-5, 123456789012.5]),
    st.floats(), st.floats(1e-4, 1e11))


def random_grids(n_phi, n_p):
    """n_phi x n_p grids of any doubles and mixed flags, either kind, with or without v."""
    def cells(elements):
        return st.lists(st.lists(elements, min_size=n_p, max_size=n_p),
                        min_size=n_phi, max_size=n_phi).map(np.array)

    def axis(n):
        return st.lists(csv_floats, min_size=n, max_size=n).map(np.array)

    return st.builds(FeasibilityGrid, kind=st.sampled_from(["standard", "genuine"]),
                     phi=axis(n_phi), p=axis(n_p), v=st.one_of(st.none(), csv_floats),
                     value1=cells(csv_floats), value2=cells(csv_floats),
                     flagged=cells(st.booleans()))


BLOCK = feasibility._CSV_BLOCK


class TestGridWriters:
    @pytest.mark.parametrize("v", [None, 0.8, 1e-13])
    @pytest.mark.parametrize("name", sorted(HAND_GRIDS))
    def test_matches_per_cell_reference(self, name, v):
        grid = hand_grid(*HAND_GRIDS[name], v=v)
        assert cli.grid_to_csv(grid) == reference_csv(grid).encode("ascii")

    @pytest.mark.parametrize("n_phi, n_p", [(1, 1), (1, 5), (4, 1), (3, 4)])
    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(data=st.data())
    def test_matches_per_cell_reference_on_random_grids(self, n_phi, n_p, data):
        grid = data.draw(random_grids(n_phi, n_p))
        csv = cli.grid_to_csv(grid)
        assert csv == reference_csv(grid).encode("ascii")
        assert b"\0" not in csv

    @pytest.mark.parametrize("v", [None, 0.8])
    @pytest.mark.parametrize("n_p", [0, 1, 2, BLOCK // 2, BLOCK - 1, BLOCK, BLOCK + 1,
                                     2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 4 * BLOCK + 3])
    def test_matches_per_cell_reference_across_block_boundaries(self, n_p, v):
        rng = np.random.default_rng(n_p)
        shape = (3, n_p)
        grid = FeasibilityGrid(kind="standard" if v is None else "genuine",
                               phi=np.sort(rng.random(3)), p=np.linspace(0.0, 1.0, n_p), v=v,
                               value1=rng.normal(2.0, 1.0, shape),
                               value2=rng.normal(2.0, 1.0, shape), flagged=rng.random(shape) < 0.5)
        assert cli.grid_to_csv(grid) == reference_csv(grid).encode("ascii")

    @pytest.mark.parametrize("name", sorted(HAND_GRIDS))
    def test_svg_runs_match_flag_walk(self, name):
        grid = hand_grid(*HAND_GRIDS[name])
        rects = [line for line in cli.grid_to_svg(grid).splitlines() if "#7fb3d5" in line]
        assert rects == reference_rects(grid)

    # sha256 of the scan outputs at small grids, taken from the per-cell
    # writer: any change to a byte of the scan text fails here.
    @pytest.mark.parametrize("args, digests", [
        (["scan-standard"], {
            "csv": "a8406af9ffe17e1d75785e0bc920bbd02e3f75ec92625bdc976b94292a55a481",
            "svg": "0fdceb8b77e0dcd77ccbb78d53f8972607a95c37d36ee78235e5e750c61a26a3"}),
        (["scan-genuine", "--v", "0.8"], {
            "csv": "f328e2ea072639e534fae304fc1d9f1257afd0f8813a77a04680f02da3f36399",
            "svg": "faa691749276a73c473d29014249344d953f95d82de8398ff19a312c80d95aaf"}),
    ])
    def test_scan_output_digests(self, tmp_path, args, digests):
        out, svg = tmp_path / "scan.csv", tmp_path / "scan.svg"
        assert run_cli([*args, "--grid-phi", "40", "--grid-p", "30",
                        "--out", str(out), "--svg", str(svg)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests["csv"]
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == digests["svg"]


class TestOutputMemory:
    def test_csv_is_built_in_one_buffer(self, traced_peak):
        # Beside the output the writer holds the buffer's growth slack (up to an eighth
        # of the output, 2.5 of its 20 phi rows), the phi and p texts, and one block of
        # at most _CSV_BLOCK cells, a row here: its NUL-padded matrix, the mask and its
        # CSV bytes, about a row each. It peaks near 5.2 rows. Row blocks kept in a list
        # and then joined, or any other copy of the output, would add 20.
        grid = scan("genuine", *scan_grid(20, 1000), v=0.9)
        data, peak = traced_peak(cli.grid_to_csv, grid)
        block = len(data) / grid.phi.size
        assert peak <= len(data) + 6 * block

    def test_long_rows_are_formatted_in_blocks(self, traced_peak):
        # Beside the output the writer holds the buffer's growth slack (up to an eighth
        # of the output), the padded p texts (about a third of a row's text here) and one
        # block of at most _CSV_BLOCK cells, whatever n_p is: it peaks near 0.4 of a row.
        # Formatting whole rows held three copies of a row's text.
        grid = scan_blocks("standard", *scan_grid(2, 100_000))
        data, peak = traced_peak(cli.grid_to_csv, grid)
        row = len(data) / grid.phi.size
        assert peak <= len(data) + row

    def test_atomic_write_makes_no_copy(self, tmp_path, traced_peak):
        data = b"0123456789abcde\n" * (1 << 19)  # 8 MiB
        out = tmp_path / "out.csv"
        _, peak = traced_peak(cli._write_atomic, str(out), data)
        assert peak <= 1 << 20
        assert out.read_bytes() == data


class TestScanGenuine:
    def test_subnormal_bias_scan_and_svg_exit_zero_under_warnings_as_errors(
            self, tmp_path, child_env):
        # v * sin(2phi) underflows to 0, so the SVG's window upper ends must not divide by it.
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "seqbell.cli", "scan-genuine", "--v", "5e-324",
             "--grid-phi", "2", "--grid-p", "2", "--out", str(tmp_path / "g.csv"),
             "--svg", str(tmp_path / "g.svg")],
            capture_output=True, text=True, timeout=60, env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        ET.parse(tmp_path / "g.svg")

    def test_v_column(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli(["scan-genuine", "--grid-phi", "6", "--grid-p", "5",
                 "--v", "0.8", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "phi,p,v,value1,value2,double_violation"
        assert all(line.split(",")[2] == "0.8" for line in lines[1:])

    def test_unbiased_scan_has_no_flags(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli(["scan-genuine", "--grid-phi", "40", "--grid-p", "40",
                 "--v", "0.5", "--out", str(out)])
        flags = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
        assert set(flags) == {"0"}

    def test_requires_v(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scan-genuine", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bad_v", ["0", "1", "1.5", "-0.2"])
    def test_rejects_bad_v(self, tmp_path, bad_v):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scan-genuine", "--v", bad_v, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_rejects_tiny_grid(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scan-genuine", "--grid-phi", "1", "--v", "0.8",
                     "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["1e3", "x", "1"])
    def test_bad_grid_size_message_names_no_private_function(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scan-standard", "--grid-phi", value, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --grid-phi: expected an integer of at least 2, got '{value}'" in err
        assert not re.search(r"(^|\W)_\w", err)
        assert list(tmp_path.iterdir()) == []

    def test_rejects_grid_above_cap(self, tmp_path, capsys):
        assert 2001 * 2000 > cli.MAX_SCAN_CELLS
        with pytest.raises(SystemExit) as exc:
            run_cli(["scan-genuine", "--grid-phi", "2001", "--grid-p", "2000", "--v", "0.8",
                     "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "4002000 cells, more than the cap of 4000000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestWindows:
    def test_default_output(self, capsys):
        assert run_cli(["windows"]) == 0
        out = capsys.readouterr().out
        assert "0.4240" in out
        assert "0.7071" in out
        assert "0.6829" in out  # phi threshold at v = 0.8, to 4 decimals
        assert "(0.4142, 0.4822)" in out
        assert "(0.4142, 0.5398)" in out

    def test_intermediate_bias(self, capsys):
        run_cli(["windows", "--v", "0.75"])
        out = capsys.readouterr().out
        threshold = float(out.split("phi threshold ")[1].split(",")[0])
        assert 0.643 < threshold < 0.7854

    def test_bias_below_threshold(self, capsys):
        run_cli(["windows", "--v", "0.6"])
        out = capsys.readouterr().out
        assert "no window" in out
        assert "0.7071" in out

    def test_empty_window_just_above_threshold(self, capsys):
        # One ulp above 1/sqrt2 the window at phi = pi/4 rounds to empty: lo > hi.
        v = math.nextafter(1 / math.sqrt(2), 1.0)
        assert v > feasibility.v_threshold_genuine()
        lo, hi = feasibility.p_window_genuine(PHI_MAX, v)
        assert not lo < hi
        run_cli(["windows", "--v", repr(v)])
        out = capsys.readouterr().out
        assert "v = 0.7071: no window" in out and "p window" not in out


def count_strategy_steps(monkeypatch) -> list[str]:
    """Wrap both strategy generators of ``lhvbound``; the list gets one name per step."""
    seen = []

    def counting(name, generator):
        def wrapper():
            for strategy in generator():
                seen.append(name)
                yield strategy
        return wrapper

    for name in ("local_strategies", "hybrid_strategies"):
        monkeypatch.setattr(lhvbound, name, counting(name, getattr(lhvbound, name)))
    return seen


class TestBounds:
    def test_output(self, capsys):
        assert run_cli(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "mermin_classical_max = 2" in out
        assert "svetlichny_classical_max = 4" in out
        assert "mermin_quantum_witness = 4" in out
        assert "svetlichny_quantum_witness ≈ 5.6569" in out
        assert "64" in out
        assert "3072" in out

    def test_enumerates_each_strategy_once(self, monkeypatch, capsys, fresh_outcome_tables):
        seen = count_strategy_steps(monkeypatch)
        assert run_cli(["bounds"]) == 0
        assert len(seen) == 64 + 3072
        assert "(enumerated over 64 local strategies)" in capsys.readouterr().out

    def test_checks_then_bounds_enumerate_each_strategy_once(self, monkeypatch, capsys,
                                                             fresh_outcome_tables):
        # One process's classical-bounds and quantum-witnesses checks, then bounds,
        # all read the same tables.
        seen = count_strategy_steps(monkeypatch)
        checks = dict(verify.CHECKS)
        checks["classical-bounds"]()
        checks["quantum-witnesses"]()
        assert run_cli(["bounds"]) == 0
        assert seen.count("local_strategies") == 64
        assert seen.count("hybrid_strategies") == 3072

    def test_import_enumerates_no_strategy(self, child_env):
        # Both generators raise if called while the modules that cli loads are imported.
        code = ("import seqbell.lhvbound as lhvbound\n"
                "def refuse():\n"
                "    raise AssertionError('a strategy was enumerated at import')\n"
                "lhvbound.local_strategies = lhvbound.hybrid_strategies = refuse\n"
                "import seqbell.cli\n"
                "print(lhvbound.outcome_tables.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


class TestVerify:
    def test_injected_failure_exits_one(self, monkeypatch, capsys):
        # keep only the cheap check so fault injection stays fast
        subset = tuple(
            (name, fn) for name, fn in verify.CHECKS if name == "thresholds"
        )
        monkeypatch.setattr(verify, "CHECKS", subset)
        monkeypatch.setattr(cli, "run_checks", verify.run_checks)
        monkeypatch.setattr(cli, "check_names", verify.check_names)
        assert run_cli(["verify", "--inject-failure", "thresholds"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  thresholds" in out
        assert "1 of 1 checks failed: thresholds" in out

    def test_clean_subset_exits_zero(self, monkeypatch, capsys):
        subset = tuple(
            (name, fn) for name, fn in verify.CHECKS
            if name in ("thresholds", "window-endpoints", "window-monotonicity")
        )
        monkeypatch.setattr(verify, "CHECKS", subset)
        monkeypatch.setattr(cli, "run_checks", verify.run_checks)
        monkeypatch.setattr(cli, "check_names", verify.check_names)
        assert run_cli(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "all checks passed (3)" in out

    def test_unknown_check_name_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--inject-failure", "not-a-check"])
        assert exc.value.code == 2

    def test_run_checks_validates_name(self):
        with pytest.raises(ValueError):
            verify.run_checks(inject_failure="bogus")


def test_full_verify_clean_exit(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "seqbell.cli", "verify"],
        capture_output=True, text=True, timeout=600, env=child_env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout
    assert "FAIL" not in proc.stdout
