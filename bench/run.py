"""The seqbell benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload verify --seed 0 --seconds 20 --trace 0

Each workload runs ``python -m seqbell.cli ...`` in child processes, one at
a time, as a user would, with ``src`` put on ``PYTHONPATH``. Repetitions
start until ``--seconds`` have passed (at least one), and every output is
checked independently of the package (see ``checks.py``).

With ``--trace 0`` the last line reports the end-to-end metrics (setup_s,
wall_s, cells_per_s, peak_rss_mb); with ``--trace 1`` untraced and traced
repetitions alternate and it reports the per-layer metrics, measured by
wrapping the package's functions from outside (see ``tracing.py``). The
lines before it give every metric with its unit and sample count, the
error rate, and the run metadata. See README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"

SETUP_SAMPLES = 7
# Probe units per CPU second that define the reference speed (see README.md).
REF_PROBE_RATE = 700.0
CHILD_TIMEOUT_S = 150.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Default-seed biases; any other seed draws v from inside (1/sqrt2, 1).
DEFAULT_V = {"scan-default": 0.8, "scan-wide-p": 0.9}
V_RANGE = (0.72, 0.98)

# Spans each workload must record at least one call of, so that a wrapper
# that is never reached fails the run instead of reading 0 s.
_KERNEL = ("cmatrix.kron", "cmatrix.is_hermitian", "cmatrix.is_idempotent",
           "qstate.ghz", "qstate.to_density", "qstate.pauli", "qstate.bloch_obs",
           "qstate.projective_from_observable", "qstate.identity_measurement",
           "luders.luders_update", "luders.embed_third", "bell.expectation",
           "bell.mermin_value", "bell.svetlichny_value",
           "scenario.standard_branch_values", "scenario.genuine_branch_values")
EXERCISED = {
    "verify": tuple(f"{m}.{f}" for m, f, _ in tracing.WRAPPED
                    if (m, f) not in {("cli", "grid_to_csv"), ("cli", "grid_to_svg")})
              + tuple(f"verify.{name}" for name in checks.VERIFY_CHECKS),
    "scan-default": _KERNEL + ("feasibility.scan", "feasibility.p_window_standard",
                               "cli.grid_to_csv", "cli.grid_to_svg", "cli.main"),
    "scan-wide-p": ("scenario.genuine_branch_values", "bell.expectation",
                    "bell.svetlichny_value", "feasibility.scan", "cli.grid_to_csv",
                    "cli.main"),
}


@dataclass
class Output:
    """One file a command writes, and how to check it."""

    name: str
    kind: str  # "standard" or "genuine" CSV, or "svg"
    n_phi: int = 0
    n_p: int = 0
    v: float | None = None


@dataclass
class Command:
    args: list[str]
    outputs: list[Output] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    commands: list[Command]
    cells: int  # grid cells written (scans) or evaluated by the scan checks (verify)
    params: dict


def pick_v(seed: int, name: str) -> float:
    if seed == 0:
        return DEFAULT_V[name]
    return round(random.Random(f"{seed}:{name}").uniform(*V_RANGE), 6)


def make_workload(name: str, seed: int) -> Workload:
    if name == "verify":
        # The three scan checks evaluate 500x500, 500x500 and 250x250 grids.
        return Workload(name, [Command(["verify"])], 2 * 500 * 500 + 250 * 250, {})
    v = pick_v(seed, name)
    if name == "scan-default":
        std = [Output("std.csv", "standard", 500, 500), Output("std.svg", "svg")]
        gen = [Output("gen.csv", "genuine", 500, 500, v)]
        return Workload(name, [
            Command(["scan-standard", "--out", "std.csv", "--svg", "std.svg"], std),
            Command(["scan-genuine", "--v", repr(v), "--out", "gen.csv"], gen),
        ], 2 * 500 * 500, {"v": v})
    if name == "scan-wide-p":
        n_phi, n_p = 20, 25_000
        wide = [Output("wide.csv", "genuine", n_phi, n_p, v)]
        return Workload(name, [Command(
            ["scan-genuine", "--v", repr(v), "--grid-phi", str(n_phi),
             "--grid-p", str(n_p), "--out", "wide.csv"], wide)],
            n_phi * n_p, {"v": v, "grid": [n_phi, n_p]})
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    speed: float | None  # probe rate over REF_PROBE_RATE while the child ran

    @property
    def time_s(self) -> float:
        """CPU seconds at the reference speed; the raw wall time when unprobed."""
        return self.wall_s if self.speed is None else self.cpu_s * self.speed


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_probe(env: dict) -> subprocess.Popen:
    probe = subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py")], env=env,
                             stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    if probe.stdout.readline().strip() != "ready":
        probe.kill()
        probe.wait()
        raise RuntimeError("the speed probe did not start")
    return probe


def run_child(argv: list[str], cwd: Path, env: dict, probed: bool = False) -> ChildResult:
    """Run one child to completion: wall and CPU time, and its own ru_maxrss.

    The child is reaped with ``wait4`` so its own usage is known, and a
    timer kills it if it outlives ``CHILD_TIMEOUT_S``. When ``probed``, a
    speed probe shares the CPU for the child's whole life.
    """
    out_path = cwd / ".child.out"
    probe = start_probe(env) if probed else None
    try:
        with open(out_path, "w+b") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                    stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode(errors="replace")
        speed = None
        if probe is not None:
            probe.send_signal(signal.SIGUSR1)
            rate = float(probe.communicate(timeout=30)[0])
            if not rate > 0:
                raise RuntimeError("the speed probe completed no work")
            speed = rate / REF_PROBE_RATE
    finally:
        if probe is not None and probe.poll() is None:
            probe.kill()
            probe.wait()
        out_path.unlink(missing_ok=True)
    return ChildResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                       proc.returncode, stdout, speed)


def setup_sample(env: dict, probed: bool) -> tuple[float, str]:
    """Seconds from spawning an interpreter to ``import seqbell.cli`` returning.

    Taken from the child's own CPU clock, which starts at the spawn.
    """
    code = ("import time, sys\nimport seqbell.cli\nt = time.process_time()\n"
            "import numpy\nprint(repr(t), sys.version.split()[0], numpy.__version__)")
    child = run_child([sys.executable, "-c", code], WORK, env, probed)
    if child.returncode != 0:
        raise RuntimeError(f"cannot import seqbell.cli:\n{child.stdout}")
    t, python, numpy_version = child.stdout.split()
    return float(t) * (child.speed or 1.0), f"python {python}, numpy {numpy_version}"


@dataclass
class Rep:
    time_s: float = 0.0  # reference-speed seconds when probed, else wall seconds
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)


class OutputLedger:
    """Checks outputs; a repeat must match the first run's sha256 exactly."""

    def __init__(self):
        self.first: dict[str, tuple[str, list[str]]] = {}
        self.problems: list[str] = []

    def check(self, output: Output, path: Path, produced: bool) -> bool:
        if not produced or not path.exists():
            self.problems.append(f"{output.name}: not written")
            return False
        digest = checks.sha256(str(path))
        if output.name not in self.first:
            if output.kind == "svg":
                found = checks.check_svg(str(path))
            else:
                found = checks.check_scan_csv(str(path), output.kind, output.n_phi,
                                              output.n_p, output.v)
            self.first[output.name] = (digest, found)
            self.problems.extend(f"{output.name}: {p}" for p in found)
            return not found
        first_digest, found = self.first[output.name]
        if digest != first_digest:
            self.problems.append(f"{output.name}: sha256 differs from the first repeat")
            return False
        return not found


def run_rep(workload: Workload, env: dict, ledger: OutputLedger, probed: bool,
            trace_run_id: int | None = None) -> Rep:
    rep = Rep()
    for k, command in enumerate(workload.commands):
        if trace_run_id is None:
            argv = [sys.executable, "-m", "seqbell.cli", *command.args]
        else:
            prefix = WORK / f"spans-{trace_run_id}-{k}"
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), "--spans", str(prefix),
                    "--run-id", str(trace_run_id), "--", *command.args]
        child = run_child(argv, WORK, env, probed)
        rep.time_s += child.time_s
        rep.wall_s += child.wall_s
        rep.cpu_s += child.cpu_s
        rep.rss_mb = max(rep.rss_mb, child.rss_mb)
        if command.args[0] == "verify":
            attempted, failed = checks.verify_failures(child.returncode, child.stdout)
            rep.attempted += attempted
            rep.failed += failed
            if failed:
                ledger.problems.append(f"verify: {failed} of {attempted} operations failed\n"
                                       + child.stdout)
        for output in command.outputs:
            path = WORK / output.name
            rep.attempted += 1
            rep.failed += not ledger.check(output, path, child.returncode == 0)
            if path.exists():
                path.unlink()
        if trace_run_id is not None:
            if not Path(str(prefix) + ".bin").exists():
                raise RuntimeError(f"traced child wrote no spans:\n{child.stdout}")
            rep.spans.append(tracing.SpanSet.load(str(prefix)))
            for suffix in (".json", ".bin"):
                os.unlink(str(prefix) + suffix)
    return rep


def layer_metrics(workload: Workload, rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (summed over its commands)."""
    totals: dict[str, tracing.LayerTotals] = {}
    calls_by_span: Counter[str] = Counter()
    strategies = csv_bytes = 0
    keys = set()
    for spans in rep.spans:
        for layer, t in tracing.layer_totals(spans).items():
            acc = totals.setdefault(layer, tracing.LayerTotals())
            acc.calls += t.calls
            acc.busy_s += t.busy_s
            acc.self_s += t.self_s
        for nid, calls in Counter(spans.name_ids).items():
            calls_by_span[spans.names[nid]] += calls
        strategies += spans.counters["lhvbound.strategies"]
        csv_bytes += spans.counters["cli.csv.bytes"]
        keys |= spans.branch_keys

    missing = [name for name in EXERCISED[workload.name] if not calls_by_span.get(name)]
    if missing:
        raise RuntimeError(f"traced {workload.name} recorded no call of: {', '.join(missing)}")

    def t(layer: str) -> tracing.LayerTotals:
        return totals.get(layer, tracing.LayerTotals())

    main_s = t("cli").busy_s
    branch = t("scenario.branch")
    metrics = {
        "cmatrix.calls": t("cmatrix").calls,
        "cmatrix.self_s": t("cmatrix").self_s,
        "qstate.calls": t("qstate").calls,
        "qstate.self_s": t("qstate").self_s,
        "luders.calls": t("luders").calls,
        "luders.self_s": t("luders").self_s,
        "bell.expectation.calls": t("bell.expectation").calls,
        "bell.expectation.self_s": t("bell.expectation").self_s,
        "bell.value.calls": t("bell.value").calls,
        "bell.value.self_s": t("bell.value").self_s,
        "scenario.branch.calls": branch.calls,
        "scenario.branch.busy_s": branch.busy_s,
        "scenario.branch.self_s": branch.self_s,
        "scenario.branch.distinct_phi_frac": len(keys) / branch.calls,
        "scenario.branch.share": branch.busy_s / main_s,
        "feasibility.scan.busy_s": t("feasibility.scan").busy_s,
        "feasibility.scan.self_s": t("feasibility.scan").self_s,
        "feasibility.window.busy_s": t("feasibility.window").busy_s,
        "lhvbound.busy_s": t("lhvbound").busy_s,
        "lhvbound.strategies": strategies,
    }
    for name in checks.VERIFY_CHECKS:
        metrics[f"verify.{name}.busy_s"] = t(f"verify.{name}").busy_s
    metrics.update({
        "cli.csv.busy_s": t("cli.csv").busy_s,
        "cli.csv.bytes": csv_bytes,
        "cli.csv.share": t("cli.csv").busy_s / main_s,
        "cli.svg.busy_s": t("cli.svg").busy_s,
        "cli.self_s": t("cli").self_s,
    })
    return metrics


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith((".share", "_frac")) or name == "error_rate":
        return "ratio"
    return "count"


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def median_entry(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def measure(workload: Workload, seconds: float, trace: bool, env: dict):
    """Repeat the workload until ``seconds`` have passed (at least once).

    Untraced repetitions share the CPU with the speed probe; with ``trace``
    each is followed by a traced one, and neither is probed, so the two
    wall times compare directly.
    """
    ledger = OutputLedger()
    reps: list[Rep] = []
    traced: list[Rep] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(run_rep(workload, env, ledger, probed=not trace))
        if trace:
            traced.append(run_rep(workload, env, ledger, probed=False,
                                  trace_run_id=len(traced) + 1))
    return reps, traced, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seqbell benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("verify", "scan-default", "scan-wide-p"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqbell" / "cli.py").is_file():
        print(f"error: no seqbell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed)
    env = child_env()
    # Every child, and the probe beside it, runs on this one CPU.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        _, versions = setup_sample(env, probed=False)  # warm-up: byte-compiles the package
        setup = [] if args.trace else [setup_sample(env, probed=True)[0]
                                       for _ in range(SETUP_SAMPLES)]
        reps, traced, ledger = measure(workload, args.seconds, bool(args.trace), env)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sum(r.attempted for r in reps + traced)
    failed = sum(r.failed for r in reps + traced)
    report: dict[str, dict] = {}
    if args.trace:
        per_rep = [layer_metrics(workload, rep) for rep in traced]
        for name in per_rep[0]:
            report[name] = median_entry([m[name] for m in per_rep], per_layer_units(name))
        overhead = (statistics.median(r.wall_s for r in traced)
                    - statistics.median(r.wall_s for r in reps))
        report["trace.overhead_s"] = {"value": overhead, "unit": "s",
                                      "samples": min(len(traced), len(reps))}
    else:
        report["setup_s"] = median_entry(setup, "s")
        report["wall_s"] = median_entry([r.time_s for r in reps], "s")
        report["cells_per_s"] = median_entry([workload.cells / r.time_s for r in reps], "1/s")
        report["peak_rss_mb"] = median_entry([r.rss_mb for r in reps], "MB")
    # error_rate = failed / attempted. It is reported with the per-layer
    # metrics, because an end-to-end metric must never read 0.
    error_rate = {"value": failed / attempted, "unit": "ratio", "samples": attempted}

    metadata = {
        "workload": workload.name, "seed": args.seed, "params": workload.params,
        "seconds": args.seconds, "trace": args.trace, "repeats": len(reps),
        "traced_repeats": len(traced), "versions": versions,
        "nproc": os.cpu_count(), "cpu": cpu, "git_commit": git_commit(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cells_per_repeat": workload.cells,
        "repeat_wall_s": [r.wall_s for r in reps],
        "repeat_cpu_s": [r.cpu_s for r in reps],
        "repeat_time_s": [r.time_s for r in reps],
        "tail_percentiles": "none: fewer than ten samples lie beyond any tail",
    }
    for problem in ledger.problems:
        print(f"output problem: {problem}")
    for name, entry in report.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']} (n = {entry['samples']})")
    print(f"error_rate = {error_rate['value']:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    if args.trace:
        report["error_rate"] = error_rate
    print(json.dumps({"metadata": metadata,
                      "samples": {k: v["samples"] for k, v in report.items()}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
