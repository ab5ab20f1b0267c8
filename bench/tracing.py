"""Span tracing of seqbell from outside the package, and span arithmetic.

Run as a script, this module starts one traced ``seqbell`` command:

    python3 bench/tracing.py --spans OUT --run-id N -- scan-genuine --v 0.8 --out g.csv

It imports ``seqbell.cli``, replaces each function named in ``WRAPPED`` by
a timing wrapper in every ``seqbell`` module namespace that holds it (and
in ``verify.CHECKS``), calls ``seqbell.cli.main`` with the remaining
arguments, and writes the spans it kept in memory to ``OUT.json`` (names,
counters) and ``OUT.bin`` (packed arrays) when the command returns. The
program itself is not modified.

Imported by the benchmark, it loads span files and computes per-layer
calls, busy time (the union of a layer's span intervals) and self time
(span duration minus the part covered by its direct children).
"""

from __future__ import annotations

import argparse
import array
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs wrapped in the traced child, with the layer each
# belongs to. Generator functions get one span per ``next`` step. The verify
# checks are added from ``verify.CHECKS`` at install time.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("cmatrix", "kron", "cmatrix"),
    ("cmatrix", "is_hermitian", "cmatrix"),
    ("cmatrix", "is_idempotent", "cmatrix"),
    ("qstate", "ghz", "qstate"),
    ("qstate", "to_density", "qstate"),
    ("qstate", "pauli", "qstate"),
    ("qstate", "bloch_obs", "qstate"),
    ("qstate", "projective_from_observable", "qstate"),
    ("qstate", "identity_measurement", "qstate"),
    ("luders", "luders_update", "luders"),
    ("luders", "embed_third", "luders"),
    ("bell", "expectation", "bell.expectation"),
    ("bell", "mermin_value", "bell.value"),
    ("bell", "svetlichny_value", "bell.value"),
    ("scenario", "standard_branch_values", "scenario.branch"),
    ("scenario", "genuine_branch_values", "scenario.branch"),
    ("feasibility", "scan", "feasibility.scan"),
    ("feasibility", "window_membership", "feasibility.window"),
    ("feasibility", "scan_window_disagreements", "feasibility.window"),
    ("feasibility", "p_window_standard", "feasibility.window"),
    ("feasibility", "p_window_genuine", "feasibility.window"),
    ("feasibility", "phi_threshold_standard", "feasibility.window"),
    ("feasibility", "phi_threshold_genuine", "feasibility.window"),
    ("feasibility", "v_threshold_genuine", "feasibility.window"),
    ("lhvbound", "local_strategies", "lhvbound"),
    ("lhvbound", "hybrid_strategies", "lhvbound"),
    ("lhvbound", "mermin_value_of", "lhvbound"),
    ("lhvbound", "svetlichny_value_of", "lhvbound"),
    ("lhvbound", "mermin_classical_max", "lhvbound"),
    ("lhvbound", "svetlichny_classical_max", "lhvbound"),
    ("lhvbound", "quantum_witness_max", "lhvbound"),
    ("cli", "grid_to_csv", "cli.csv"),
    ("cli", "grid_to_svg", "cli.svg"),
    ("cli", "main", "cli"),
)
GENERATORS = frozenset({"lhvbound.local_strategies", "lhvbound.hybrid_strategies"})
BRANCH_KIND = {
    "scenario.standard_branch_values": "standard",
    "scenario.genuine_branch_values": "genuine",
}


_LAYER = {f"{module}.{func}": layer for module, func, layer in WRAPPED}


def layer_of(span_name: str) -> str:
    """Layer of a span name: the table above, or the span name for checks."""
    if span_name.startswith("verify."):
        return span_name
    return _LAYER[span_name]


class Tracer:
    """Keeps spans in memory: name id, start, end and parent index per span.

    All spans of one tracer share its ``run_id``.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array.array("H")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {"lhvbound.strategies": 0, "cli.csv.bytes": 0}
        self.branch_keys: set[tuple[str, float]] = set()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        def open_span() -> int:
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if name in GENERATORS:
            counters = self.counters

            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    counters["lhvbound.strategies"] += 1
                    yield item

            traced_generator.__wrapped__ = fn
            return traced_generator

        kind = BRANCH_KIND.get(name)
        is_csv = name == "cli.grid_to_csv"
        keys, counters = self.branch_keys, self.counters

        def traced(*args, **kwargs):
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if kind is not None:
                keys.add((kind, float(args[0] if args else kwargs["phi"])))
            elif is_csv:
                counters["cli.csv.bytes"] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function of ``WRAPPED`` and every verify check.

        Each original function object is replaced wherever a ``seqbell``
        module namespace refers to it, so calls through an imported name
        are traced too.
        """
        import seqbell.cli  # noqa: F401  (imports every module of the package)

        modules = [m for n, m in sys.modules.items()
                   if n == "seqbell" or n.startswith("seqbell.")]
        replacements = {}
        for module, func, _ in WRAPPED:
            original = getattr(importlib.import_module(f"seqbell.{module}"), func)
            replacements[id(original)] = (original, self.wrap(f"{module}.{func}", original))
        verify = importlib.import_module("seqbell.verify")
        checks = []
        for check_name, fn in verify.CHECKS:
            wrapped = self.wrap(f"verify.{check_name}", fn)
            replacements[id(fn)] = (fn, wrapped)
            checks.append((check_name, wrapped))
        verify.CHECKS = tuple(checks)

        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]

    def write(self, path: str) -> None:
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "count": len(self.starts),
            "counters": self.counters,
            "branch_keys": sorted([k, phi.hex()] for k, phi in self.branch_keys),
        }
        with open(path + ".json", "w") as handle:
            json.dump(header, handle)
        with open(path + ".bin", "wb") as handle:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(handle)


@dataclass
class SpanSet:
    """Spans of one traced process: name, start, end, parent index, run id."""

    run_id: int
    names: list[str]
    name_ids: array.array
    parents: array.array
    starts: array.array
    ends: array.array
    counters: dict[str, int] = field(default_factory=dict)
    branch_keys: set = field(default_factory=set)

    @classmethod
    def load(cls, path: str) -> "SpanSet":
        with open(path + ".json") as handle:
            header = json.load(handle)
        n = header["count"]
        arrays = [array.array(code) for code in "Hidd"]
        with open(path + ".bin", "rb") as handle:
            for arr in arrays:
                arr.fromfile(handle, n)
        return cls(
            run_id=header["run_id"], names=header["names"],
            name_ids=arrays[0], parents=arrays[1], starts=arrays[2], ends=arrays[3],
            counters=header["counters"],
            branch_keys={(k, float.fromhex(h)) for k, h in header["branch_keys"]},
        )


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: SpanSet) -> list[float]:
    """Per-span self time: duration minus the union of its direct children.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    n = len(spans.starts)
    starts, ends, parents = spans.starts, spans.ends, spans.parents
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=starts.__getitem__)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # furthest child end already counted, per parent
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def layer_totals(spans: SpanSet) -> dict[str, LayerTotals]:
    """Calls, busy time (union of intervals) and self time for each layer."""
    selfs = self_times(spans)
    layer_names = [layer_of(name) for name in spans.names]
    totals: dict[str, LayerTotals] = {}
    intervals: dict[str, list[tuple[float, float]]] = {}
    for i, nid in enumerate(spans.name_ids):
        layer = layer_names[nid]
        t = totals.get(layer)
        if t is None:
            t = totals[layer] = LayerTotals()
            intervals[layer] = []
        t.calls += 1
        t.self_s += selfs[i]
        intervals[layer].append((spans.starts[i], spans.ends[i]))
    for layer, spans_of_layer in intervals.items():
        busy, reach = 0.0, float("-inf")
        for lo, hi in sorted(spans_of_layer):
            lo = max(lo, reach)
            if hi > lo:
                busy += hi - lo
                reach = hi
        totals[layer].busy_s = busy
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output path prefix for the spans")
    parser.add_argument("--run-id", type=int, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="seqbell arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer(args.run_id)
    tracer.install()
    import seqbell.cli

    try:
        return seqbell.cli.main(command)
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
