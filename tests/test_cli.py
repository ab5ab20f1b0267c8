import os
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import seqbell.cli as cli
import seqbell.verify as verify
from seqbell.scenario import standard_pair_simulated


def run_cli(args):
    return cli.main(args)


def test_scan_defaults_are_500_by_500():
    args = cli.build_parser().parse_args(["scan-standard", "--out", "x.csv"])
    assert args.grid_phi == 500 and args.grid_p == 500 and args.svg is None


class TestScanStandard:
    def test_csv_schema_and_order(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run_cli(["scan-standard", "--grid-phi", "12", "--grid-p", "9",
                        "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phi,p,value1,value2,double_violation"
        assert len(lines) == 1 + 12 * 9
        # phi-major: the first 9 rows share one phi while p increases
        first_block = [line.split(",") for line in lines[1:10]]
        assert len({row[0] for row in first_block}) == 1
        p_values = [float(row[1]) for row in first_block]
        assert p_values == sorted(p_values)
        assert {row[-1] for row in (line.split(",") for line in lines[1:])} <= {"0", "1"}

    def test_values_reimport_to_simulation(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli(["scan-standard", "--grid-phi", "5", "--grid-p", "4",
                 "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            phi, p, v1, v2, flag = line.split(",")
            m1, m2 = standard_pair_simulated(float(phi), float(p))
            assert float(v1) == pytest.approx(m1, rel=1e-11, abs=1e-11)
            assert float(v2) == pytest.approx(m2, rel=1e-11, abs=1e-11)
            assert flag in ("0", "1")

    def test_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["scan-standard", "--grid-phi", "20", "--grid-p", "15", "--out", str(a)])
        run_cli(["scan-standard", "--grid-phi", "20", "--grid-p", "15", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli(["scan-standard", "--grid-phi", "4", "--grid-p", "4", "--out", str(out)])
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]

    def test_unwritable_path_is_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "scan.csv"
        assert run_cli(["scan-standard", "--grid-phi", "4", "--grid-p", "4",
                        "--out", str(out)]) == 2
        assert not (tmp_path / "missing").exists()
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


class TestScanGenuine:
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


def test_full_verify_clean_exit():
    # The child imports seqbell from the same place this process did.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "seqbell.cli", "verify"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout
    assert "FAIL" not in proc.stdout
