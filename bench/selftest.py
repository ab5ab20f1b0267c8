"""Self-tests of the benchmark: its output checks, trace wrappers and span arithmetic.

    python3 bench/selftest.py

The error-rate tests run the real program on purpose-made faults: a
fault-injected ``seqbell verify`` and scan CSVs with one corrupted field.
"""

from __future__ import annotations

import array
import importlib
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run
import tracing

sys.path.insert(0, str(run.ROOT / "src"))


def work_dir() -> Path:
    run.WORK.mkdir(exist_ok=True)
    return run.WORK


def run_seqbell(args: list[str], cwd: Path) -> run.ChildResult:
    return run.run_child([sys.executable, "-m", "seqbell.cli", *args], cwd, run.child_env())


class VerifyErrorRateTests(unittest.TestCase):
    def test_injected_failure_raises_error_rate(self):
        with tempfile.TemporaryDirectory(dir=work_dir()) as tmp:
            child = run_seqbell(["verify", "--inject-failure", "mixture-closed-form-genuine"],
                                Path(tmp))
        attempted, failed = checks.verify_failures(child.returncode, child.stdout)
        self.assertEqual(child.returncode, 1)
        # The injected check fails, and so does the exit code.
        self.assertEqual((attempted, failed), (18, 2))

    def test_verify_needs_every_pass_line_and_exit_zero(self):
        clean = "\n".join(f"PASS  {name}: ok" for name in checks.VERIFY_CHECKS)
        self.assertEqual(checks.verify_failures(0, clean), (18, 0))
        self.assertEqual(checks.verify_failures(1, clean), (18, 1))
        missing = "\n".join(f"PASS  {name}: ok" for name in checks.VERIFY_CHECKS[1:])
        self.assertEqual(checks.verify_failures(0, missing), (18, 1))


class CsvErrorRateTests(unittest.TestCase):
    N_PHI, N_P, V = 40, 60, 0.85

    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory(dir=work_dir())
        cls.dir = Path(cls._tmp.name)
        child = run_seqbell(["scan-genuine", "--v", repr(cls.V), "--grid-phi", str(cls.N_PHI),
                             "--grid-p", str(cls.N_P), "--out", "clean.csv"], cls.dir)
        assert child.returncode == 0, child.stdout
        cls.lines = (cls.dir / "clean.csv").read_text().splitlines(keepends=True)
        cls.output = run.Output("scan.csv", "genuine", cls.N_PHI, cls.N_P, cls.V)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def failed_ops(self, lines: list[str], ledger: run.OutputLedger | None = None) -> int:
        path = self.dir / "scan.csv"
        path.write_text("".join(lines))
        ledger = ledger or run.OutputLedger()
        return 0 if ledger.check(self.output, path, produced=True) else 1

    def corrupt(self, row: int, column: int, change) -> list[str]:
        lines = list(self.lines)
        fields = lines[row + 1].rstrip("\n").split(",")
        fields[column] = change(fields[column])
        lines[row + 1] = ",".join(fields) + "\n"
        return lines

    def test_clean_output_passes(self):
        self.assertEqual(self.failed_ops(self.lines), 0)

    def test_one_corrupted_value_digit(self):
        bump = lambda s: str((int(s[0]) + 1) % 10) + s[1:]
        lines = self.corrupt(self.N_P * 30 + 7, 3, bump)
        self.assertEqual(self.failed_ops(lines), 1)

    def test_one_corrupted_phi_digit(self):
        lines = self.corrupt(self.N_P * 12, 0, lambda s: s[:4] + str((int(s[4]) + 1) % 10) + s[5:])
        self.assertEqual(self.failed_ops(lines), 1)

    def test_one_flipped_flag_away_from_the_boundary(self):
        phi, p = checks.grid(self.N_PHI, self.N_P)
        interior = ~checks.boundary_cells("genuine", phi, p, self.V)
        inside = checks.window_inside("genuine", phi, p, self.V)
        rows, cols = (interior & inside).nonzero()
        self.assertGreater(rows.size, 0, "the test grid needs a flagged interior cell")
        lines = self.corrupt(rows[0] * self.N_P + cols[0], 5, lambda s: "0" if s == "1" else "1")
        self.assertEqual(self.failed_ops(lines), 1)

    def test_missing_row_and_wrong_header(self):
        self.assertEqual(self.failed_ops(self.lines[:-1]), 1)
        self.assertEqual(self.failed_ops(["phi,p,value1,value2,double_violation\n"]
                                         + self.lines[1:]), 1)

    def test_repeat_with_another_sha256_fails(self):
        ledger = run.OutputLedger()
        self.assertEqual(self.failed_ops(self.lines, ledger), 0)
        last = self.corrupt(self.N_P * self.N_PHI - 1, 2, lambda s: s + "0")
        self.assertEqual(self.failed_ops(last, ledger), 1)


def span_set(spans) -> tracing.SpanSet:
    """A SpanSet from ``(name, start, end, parent_index)`` tuples (parent -1 = root)."""
    names = list(dict.fromkeys(name for name, *_ in spans))
    return tracing.SpanSet(
        run_id=0, names=names,
        name_ids=array.array("H", [names.index(s[0]) for s in spans]),
        parents=array.array("i", [s[3] for s in spans]),
        starts=array.array("d", [s[1] for s in spans]),
        ends=array.array("d", [s[2] for s in spans]),
    )


class SpanArithmeticTests(unittest.TestCase):
    # (name, start, end, parent index). Span 5 overlaps its sibling 3, and
    # span 7 runs past the end of its parent 6.
    TREE = [
        ("cli.main", 0, 100, -1),
        ("feasibility.scan", 10, 60, 0),
        ("scenario.genuine_branch_values", 12, 30, 1),
        ("bell.expectation", 14, 20, 2),
        ("cmatrix.kron", 15, 17, 3),
        ("bell.expectation", 19, 25, 2),
        ("scenario.genuine_branch_values", 40, 50, 1),
        ("cmatrix.kron", 48, 55, 6),
        ("feasibility.window_membership", 70, 90, 0),
        ("feasibility.p_window_standard", 75, 80, 8),
    ]

    def test_self_times(self):
        spans = span_set(self.TREE)
        self.assertEqual(tracing.self_times(spans), [30, 22, 7, 4, 2, 6, 8, 7, 15, 5])

    def test_self_times_do_not_depend_on_span_order(self):
        order = [0, 8, 1, 6, 9, 2, 7, 3, 5, 4]
        position = {old: new for new, old in enumerate(order)}
        shuffled = [(n, s, e, position[p] if p >= 0 else -1)
                    for n, s, e, p in (self.TREE[i] for i in order)]
        selfs = tracing.self_times(span_set(shuffled))
        self.assertEqual([selfs[position[i]] for i in range(len(order))],
                         [30, 22, 7, 4, 2, 6, 8, 7, 15, 5])

    def test_layer_totals(self):
        totals = tracing.layer_totals(span_set(self.TREE))
        got = {layer: (t.calls, t.busy_s, t.self_s) for layer, t in totals.items()}
        self.assertEqual(got, {
            "cli": (1, 100, 30),
            "feasibility.scan": (1, 50, 22),
            "scenario.branch": (2, 28, 15),
            "bell.expectation": (2, 11, 10),
            "cmatrix": (2, 9, 9),
            "feasibility.window": (2, 20, 20),
        })


class WrapperCoverageTests(unittest.TestCase):
    def test_traced_scan_reaches_calls_through_imported_names(self):
        with tempfile.TemporaryDirectory(dir=work_dir()) as tmp:
            prefix = str(Path(tmp) / "spans")
            child = run.run_child(
                [sys.executable, str(run.BENCH_DIR / "tracing.py"), "--spans", prefix,
                 "--run-id", "7", "--", "scan-genuine", "--v", "0.8", "--grid-phi", "4",
                 "--grid-p", "5", "--out", "g.csv", "--svg", "g.svg"],
                Path(tmp), run.child_env())
            self.assertEqual(child.returncode, 0, child.stdout)
            spans = tracing.SpanSet.load(prefix)
            csv_size = (Path(tmp) / "g.csv").stat().st_size
        self.assertEqual(spans.run_id, 7)
        calls = {name: 0 for name in spans.names}
        for nid in spans.name_ids:
            calls[spans.names[nid]] += 1
        # bell and luders call kron through their own imported name: per
        # branch, 4 Svetlichny values x 8 correlators x 2 krons, plus 8 embeddings.
        self.assertEqual(calls["cmatrix.kron"], 4 * (4 * 8 * 2 + 8))
        self.assertEqual(calls["scenario.genuine_branch_values"], 4)
        self.assertEqual(calls["feasibility.p_window_genuine"], 800)
        for name in ("cli.main", "cli.grid_to_csv", "cli.grid_to_svg", "feasibility.scan"):
            self.assertEqual(calls[name], 1, name)
        self.assertEqual(spans.counters["cli.csv.bytes"], csv_size)

    def test_no_namespace_keeps_an_unwrapped_function(self):
        tracer = tracing.Tracer(run_id=0)
        tracer.install()
        wrapped_originals = set()
        for module in [m for n, m in sys.modules.items() if n.startswith("seqbell.")]:
            for value in vars(module).values():
                inner = getattr(value, "__wrapped__", None)
                if inner is not None:
                    wrapped_originals.add(id(inner))
        for module_name, func, _ in tracing.WRAPPED:
            module = importlib.import_module(f"seqbell.{module_name}")
            self.assertTrue(hasattr(getattr(module, func), "__wrapped__"), func)
        for module in [m for n, m in sys.modules.items() if n.startswith("seqbell.")]:
            for attr, value in vars(module).items():
                self.assertNotIn(id(value), wrapped_originals, f"{module.__name__}.{attr}")
        verify = importlib.import_module("seqbell.verify")
        self.assertEqual([name for name, _ in verify.CHECKS], list(checks.VERIFY_CHECKS))
        self.assertTrue(all(hasattr(fn, "__wrapped__") for _, fn in verify.CHECKS))


if __name__ == "__main__":
    unittest.main()
