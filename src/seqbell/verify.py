"""Named self-verification checks behind the ``verify`` CLI command.

Each check exercises one contract of the package: an algebraic identity,
a channel property, agreement between the simulated and closed-form
mixture values, an enumerated classical bound, or a threshold value.

A check takes no argument and returns its measurements: a list of
``(label, measured, tol)``, each a deviation or a count of violated
conditions (tol 0). ``run_checks`` alone compares, injects and reports.
A measurement passes when ``measured <= tol``, so NaN fails; a check
passes when it does not raise and all of its measurements pass. The
detail text is ``label value (tol T)`` per measurement, joined by ``; ``.
Fault injection raises the first measurement of the named check by
``tol + INJECTION_BUMP``, so that check fails at any tolerance scale.
The two checks with random inputs draw them from their own seeded
``random.Random``: the global generator is left as it was, and ``verify``
never loads ``numpy.random`` (about 6 MB of RSS).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import MERMIN_CLASSICAL_BOUND, SVETLICHNY_CLASSICAL_BOUND
from .cmatrix import EYE2, kron, kron_memo
from .feasibility import (
    _CSV_BLOCK,
    _fmt,
    grid_to_csv,
    p_window_genuine,
    p_window_standard,
    phi_threshold_genuine,
    phi_threshold_standard,
    scan,
    scan_blocks,
    scan_grid,
    scan_window_disagreements,
    v_threshold_genuine,
)
from .lhvbound import (
    BIPARTITIONS,
    mermin_classical_max,
    mermin_value_of,
    svetlichny_classical_max,
    outcome_tables,
    svetlichny_value_of,
    quantum_witness_max,
)
from .luders import embed_third, luders_update
from .qstate import (
    _SIN,
    PHI_MAX,
    bloch_obs,
    ghz,
    identity_measurement,
    pauli,
    projective_from_observable,
    to_density,
)
from .scenario import (
    SCENARIOS,
    SQRT2,
    _operators,
    branch_arrays,
    mix,
)

INJECTION_BUMP = 1e-3

_PHI_GRID = np.linspace(0.0, PHI_MAX, 200)
_P_GRID = np.linspace(0.0, 1.0, 200)
_SIN2 = _SIN(2 * _PHI_GRID).astype(float)

Measurement = tuple[str, float, float]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _worst(*values) -> float:
    """Largest entry over scalars and arrays; NaN anywhere gives NaN."""
    return float(np.max([np.max(x) for x in values]))


def _random_strategy(rng: random.Random) -> tuple[tuple, float]:
    """Draws for a random measurement pair, each a unit Bloch vector or None, then prob_z0."""
    def one_measurement():
        if rng.random() < 0.25:
            return None
        x, y, z = (rng.gauss(0.0, 1.0) for _ in range(3))
        r = math.sqrt(x * x + y * y + z * z)
        return x / r, y / r, z / r

    return (one_measurement(), one_measurement()), rng.random()


def _complex_gaussian(rng: random.Random) -> np.ndarray:
    """A 4x4 matrix of standard Gaussian draws: the 16 real parts, then the 16 imaginary."""
    real = [rng.gauss(0.0, 1.0) for _ in range(16)]
    imag = [rng.gauss(0.0, 1.0) for _ in range(16)]
    return np.array(real).reshape(4, 4) + 1j * np.array(imag).reshape(4, 4)


def check_matrix_identities() -> list[Measurement]:
    rng = random.Random(11)
    alphabet = [pauli(ax) for ax in "xyz"] + [EYE2.copy()]  # unregistered: kron multiplies afresh
    dev = 0.0
    # Kronecker associativity: exact on the operator alphabet in use.
    for a in alphabet:
        for b in alphabet:
            for c in alphabet:
                dev = _worst(dev, np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))))
    for _ in range(50):
        a, b = _complex_gaussian(rng), _complex_gaussian(rng)
        dev = _worst(dev, abs(np.trace(a @ b) - np.trace(b @ a)),
                     np.abs(kron(a, b).conj().T - kron(a.conj().T, b.conj().T)))
    # Once the kernel has run for both kinds, each product in the kron memo is a fresh one.
    branch_arrays("standard", [PHI_MAX])
    branch_arrays("genuine", [PHI_MAX], 0.5)
    stale = sum(kron(a.copy(), b.copy()).tobytes() != product.tobytes()
                for a, b, product in kron_memo())
    return [("max deviation", dev, 1e-12), ("memoized products unlike a fresh kron", stale, 0)]


def check_state_invariants() -> list[Measurement]:
    rho = to_density(ghz(np.linspace(0.0, PHI_MAX, 25)))
    dev = _worst(np.abs(rho - rho.conj().swapaxes(1, 2)),
                 np.abs(rho.trace(axis1=1, axis2=2).real - 1.0),
                 np.abs((rho @ rho).trace(axis1=1, axis2=2).real - 1.0))
    return [
        ("max deviation", dev, 1e-12),
        ("negative eigenvalue", _worst(-np.linalg.eigvalsh(rho)), 1e-10),
    ]


def check_channel_properties() -> list[Measurement]:
    rng = random.Random(1234)
    phi = np.empty(1000)
    draws = []
    for i in range(phi.size):
        phi[i] = float(rng.random()) * PHI_MAX
        draws.append(_random_strategy(rng))
    rho = to_density(ghz(phi))
    # All 2,000 observables as one stack (member, input, 2, 2); I where a draw is None.
    axes = [n for pair, _ in draws for n in pair]
    unit = np.array([(0.0, 0.0, 1.0) if n is None else n for n in axes])
    identity = np.array([n is None for n in axes])[:, None, None]
    observables = np.where(identity, EYE2, bloch_obs(*unit.T)).reshape(phi.size, 2, 2, 2)
    effect0, effect1 = projective_from_observable(observables)
    prob_z0 = np.array([q for _, q in draws])
    out = np.empty_like(rho)
    for k in range(0, phi.size, 100):  # in blocks: all 1,000 members at once peak at 15 MiB
        measurements = tuple((effect0[k:k + 100, z], effect1[k:k + 100, z]) for z in (0, 1))
        out[k:k + 100] = luders_update(rho[k:k + 100], measurements, prob_z0[k:k + 100])
    do_nothing = (identity_measurement(), identity_measurement())
    rho = to_density(ghz(0.5))
    fixed_dev = _worst(np.abs(luders_update(rho, do_nothing) - rho))
    return [
        ("trace drift", _worst(np.abs(out.trace(axis1=1, axis2=2).real - 1.0)), 1e-12),
        ("negative eigenvalue", _worst(-np.linalg.eigvalsh(out)), 1e-10),
        ("identity fixed-point deviation", fixed_dev, 1e-14),
    ]


def check_channel_closed_forms() -> list[Measurement]:
    rho = to_density(ghz(0.55))
    X = embed_third(pauli("x"))
    Y = embed_third(pauli("y"))
    Z = embed_third(pauli("z"))
    proj_x = projective_from_observable(pauli("x"))
    proj_y = projective_from_observable(pauli("y"))

    both = (proj_x, proj_y)
    dev = _worst(np.abs(
        luders_update(rho, both) - (rho / 2 + X @ rho @ X / 4 + Y @ rho @ Y / 4)))

    one = (proj_x, identity_measurement())
    dev = _worst(dev, np.abs(luders_update(rho, one) - (3 * rho / 4 + X @ rho @ X / 4)))

    for v in (0.3, 0.8):
        biased = (identity_measurement(), proj_x)
        expected = (1 + v) / 2 * rho + (1 - v) / 2 * (X @ rho @ X)
        dev = _worst(dev, np.abs(luders_update(rho, biased, v) - expected))

    dev = _worst(dev, np.abs(luders_update(rho, both, 0.5) - luders_update(rho, both)))

    # Two applications compose to a four-term Pauli mixture on qubit C.
    twice = luders_update(luders_update(rho, both), both)
    composed = (3 * rho / 8 + X @ rho @ X / 4 + Y @ rho @ Y / 4 + Z @ rho @ Z / 8)
    dev = _worst(dev, np.abs(twice - composed))
    return [("max deviation", dev, 1e-12)]


def check_mermin_branch_values() -> list[Measurement]:
    first1, second1, first2, second2 = branch_arrays("standard", _PHI_GRID)
    dev = _worst(np.abs(first1 - 4 * _SIN2), np.abs(second1 - 2 * _SIN2),
                 np.abs(first2 - 2 * _SIN2), np.abs(second2 - 3 * _SIN2))
    return [(f"max deviation over {_PHI_GRID.size} angles", dev, 1e-10)]


def check_svetlichny_branch_values() -> list[Measurement]:
    v = np.arange(1, 10) / 10
    first1, second1, first2, second2 = branch_arrays("genuine", _PHI_GRID, v)
    dev = _worst(np.abs(first1 - 4 * SQRT2 * _SIN2), np.abs(second1 - 2 * SQRT2 * _SIN2),
                 np.abs(first2 - 2 * SQRT2 * _SIN2),
                 np.abs(second2 - 2 * SQRT2 * (1 + v[:, None]) * _SIN2))
    return [("max deviation", dev, 1e-10)]


def _mixture_deviation(kind: str, v) -> float:
    """Worst deviation of both mixed values from their closed forms, one bias row at a time."""
    *common, second2 = branch_arrays(kind, _PHI_GRID, v)
    biases, dev = np.atleast_1d(v), 0.0  # the standard scenario's None: a sweep of one
    for bias, row in zip(biases, second2.reshape(biases.size, -1)):
        sim1, sim2 = mix((*common, row), _P_GRID)
        closed1, closed2 = SCENARIOS[kind].closed(_SIN2[:, None], _P_GRID, bias)
        dev = _worst(dev, np.abs(sim1 - closed1), np.abs(sim2 - closed2))
    return dev


def check_mixture_closed_form_standard() -> list[Measurement]:
    return [("max deviation on a 200x200 grid", _mixture_deviation("standard", None), 1e-10)]


def check_mixture_closed_form_genuine() -> list[Measurement]:
    dev = _mixture_deviation("genuine", np.arange(1, 21) / 21)
    return [("max deviation on 20 bias slices", dev, 1e-10)]


def check_mixing_linearity() -> list[Measurement]:
    # mix against the model: value1 on Charlie_1's observables mixed, value2 on the mixed state.
    phi = np.linspace(0.0, PHI_MAX, 7)
    rho, dev = to_density(ghz(phi)), 0.0
    for kind, v in (("standard", None), ("genuine", 0.8)):
        (a, b, c1), (_, _, c2), m1, m2 = _operators(kind)
        value, branches = SCENARIOS[kind].value, branch_arrays(kind, phi, v)
        after1, after2 = luders_update(rho, m1), luders_update(rho, m2, 0.5 if v is None else v)
        for p in (0.0, 0.25, 0.5, 0.8, 1.0):
            value1, value2 = mix(branches, p)
            charlie = tuple(p * x + (1 - p) * y for x, y in zip(c1, c2))
            dev = _worst(dev, np.abs(value1 - value(rho, (a, b, charlie))),
                         np.abs(value2 - value(p * after1 + (1 - p) * after2, (a, b, c1))))
    return [("max deviation", dev, 1e-12)]


def check_classical_bounds() -> list[Measurement]:
    local_values = mermin_value_of(outcome_tables("local"))
    hybrid = outcome_tables("hybrid")
    hybrid_values = svetlichny_value_of(hybrid)
    # Table n's lone party k answers alike at every index idx sharing its input bit.
    n, idx = np.arange(len(hybrid))[:, None], np.arange(8)
    k = np.array(["ABC".index(b[-1]) for b in BIPARTITIONS])[n // 1024]
    lone_reads_pair = np.count_nonzero(
        (hybrid[n, idx, k] != hybrid[n, idx & (4 >> k), k]).any(axis=1))
    return [
        ("|mermin max - 2|", abs(mermin_classical_max() - 2.0), 0),
        ("|svetlichny max - 4|", abs(svetlichny_classical_max() - 4.0), 0),
        ("|local strategies - 64|", abs(len(local_values) - 64), 0),
        ("|hybrid strategies - 3072|", abs(len(hybrid_values) - 3072), 0),
        ("local values odd or outside [-4, 4]",
         np.count_nonzero((local_values % 2 != 0) | (np.abs(local_values) > 4)), 0),
        ("hybrid values odd or outside [-8, 8]",
         np.count_nonzero((hybrid_values % 2 != 0) | (np.abs(hybrid_values) > 8)), 0),
        ("hybrid tables whose lone party reads a paired input", lone_reads_pair, 0),
    ]


def check_quantum_witnesses() -> list[Measurement]:
    wm = quantum_witness_max("standard")
    ws = quantum_witness_max("genuine")
    return [
        ("witness deviation", _worst(abs(wm - 4.0), abs(ws - 4 * SQRT2)), 1e-10),
        ("witnesses not above the classical bound",
         (not wm > MERMIN_CLASSICAL_BOUND) + (not ws > SVETLICHNY_CLASSICAL_BOUND), 0),
    ]


def check_thresholds() -> list[Measurement]:
    return [
        ("|phi_std - 0.4240|", abs(phi_threshold_standard() - 0.4240), 5e-4),
        ("|v_gen - 0.7071|", abs(v_threshold_genuine() - 0.7071), 5e-5),
        ("|phi_gen(0.8) - 0.683|", abs(phi_threshold_genuine(0.8) - 0.683), 5e-4),
        ("|phi_gen(0.9) - 0.643|", abs(phi_threshold_genuine(0.9) - 0.643), 5e-4),
        ("|sin(2 phi_std) - 3/4|", abs(math.sin(2 * phi_threshold_standard()) - 0.75), 1e-12),
        ("|sin(2 phi_gen(0.8)) - 1.8 sqrt2/2.6|",
         abs(math.sin(2 * phi_threshold_genuine(0.8)) - SQRT2 * 1.8 / 2.6), 1e-12),
    ]


def check_window_endpoints() -> list[Measurement]:
    # At maximal entanglement every p gives a standard double violation: the window is (0, 1).
    std_lo, std_hi = p_window_standard(PHI_MAX)
    lo8, hi8 = p_window_genuine(PHI_MAX, 0.8)
    lo9, hi9 = p_window_genuine(PHI_MAX, 0.9)
    exact = _worst(
        abs(std_lo - 0.0), abs(std_hi - 1.0),
        abs(lo8 - (SQRT2 - 1)), abs(hi8 - (9 - 5 * SQRT2) / 4),
        abs(lo9 - (SQRT2 - 1)), abs(hi9 - (19 - 10 * SQRT2) / 9),
    )
    # Quoted, not rounded: sqrt2 - 1 = 0.414214 rounds to 0.4142 and (19 - 10 sqrt2)/9 = 0.539763
    # to 0.5398. That gap, not a kernel error, is the 8.64e-5 read here against the 1e-4 tol.
    decimals = _worst(abs(lo8 - 0.4143), abs(hi8 - 0.4822), abs(lo9 - 0.4143), abs(hi9 - 0.5397))
    return [
        ("closed-form deviation", exact, 1e-12),
        ("4-decimal deviation", decimals, 1e-4),
        ("empty windows", (not std_lo < std_hi) + (not lo8 < hi8) + (not lo9 < hi9), 0),
    ]


def check_unbiased_genuine_scan() -> list[Measurement]:
    grid = scan_blocks("genuine", *scan_grid(500, 500), v=0.5)
    return [("flagged cells at bias 1/2 on a 500x500 grid",
             np.count_nonzero(grid.flagged), 0)]


def _scan_consistency(grid, threshold: float, on_bound: int) -> list[Measurement]:
    """Scan flags match the windows off the bound and flag only angles above threshold.

    ``on_bound`` is the grid's pinned count of cells with a value within the violation
    margin of the bound, where the windows are not compared: each lies exactly on it.

    Every 25th row is also scanned one angle at a time, as the CLI scans, and must match, and
    is read against the closed forms, which tell value1 from value2 where the flag rule cannot.
    """
    flagged_rows = grid.phi[np.any(grid.flagged, axis=1)]
    mismatches, near = scan_window_disagreements(grid)
    rows = scan(grid.kind, grid.phi[::25], grid.p, grid.v)
    closed1, closed2 = SCENARIOS[grid.kind].closed(
        _SIN(2 * grid.phi[::25]).astype(float)[:, None], grid.p, grid.v)
    unlike = ((rows.value1.view(np.uint64) != grid.value1[::25].view(np.uint64))
              | (rows.value2.view(np.uint64) != grid.value2[::25].view(np.uint64))
              | (rows.flagged != grid.flagged[::25]))
    return [
        ("window mismatches off the bound", mismatches, 0),
        (f"|cells within the margin of a bound - {on_bound}|", abs(near - on_bound), 0),
        (f"flagged angles at or below {threshold:.4f}",
         np.count_nonzero(~(flagged_rows > threshold)), 0),
        ("no flagged angle", int(flagged_rows.size == 0), 0),
        ("cells unlike the per-angle scan", np.count_nonzero(unlike), 0),
        ("max deviation of every 25th row from the closed forms",
         _worst(np.abs(grid.value1[::25] - closed1), np.abs(grid.value2[::25] - closed2)), 1e-10),
    ]


def check_standard_scan_consistency() -> list[Measurement]:
    grid = scan_blocks("standard", *scan_grid(500, 500))
    # At pi/4, p = 0 and p = 1 each put one value exactly on the bound 2. Of this row's 1,025
    # p's, the middle one is 1/2, and the last fills a CSV block of its own.
    row = scan("standard", [PHI_MAX], np.linspace(0.0, 1.0, _CSV_BLOCK + 1))
    cells = zip(row.p.tolist(), *(x[0].tolist() for x in (row.value1, row.value2, row.flagged)))
    lines = ["phi,p,value1,value2,double_violation\n", *(
        f"{_fmt(PHI_MAX)},{_fmt(p)},{_fmt(a)},{_fmt(b)},{flag:d}\n" for p, a, b, flag in cells)]
    written = grid_to_csv(row).decode().splitlines(keepends=True)
    return _scan_consistency(grid, phi_threshold_standard(), on_bound=2) + [
        ("misflagged cells at phi = pi/4, p = 0, 1/2, 1",
         np.count_nonzero(row.flagged[0, [0, _CSV_BLOCK // 2, -1]] != [False, True, False]), 0),
        ("CSV lines unlike the per-cell %.12g writer",
         abs(len(written) - len(lines)) + sum(map(str.__ne__, written, lines)), 0),
    ]


def check_genuine_scan_consistency() -> list[Measurement]:
    grid = scan_blocks("genuine", *scan_grid(250, 250), v=0.8)
    return _scan_consistency(grid, phi_threshold_genuine(0.8), on_bound=1)


def check_window_monotonicity() -> list[Measurement]:
    v_grid = np.linspace(0.05, 0.95, 19)
    _, s2 = SCENARIOS["genuine"].closed(math.sin(2 * 0.6), 0.4, v_grid)
    windows = [p_window_genuine(PHI_MAX, float(v)) for v in v_grid]
    return [
        ("second-round value steps not increasing in bias",
         sum(not b > a for a, b in zip(s2, s2[1:])), 0),
        ("biases where window nonempty != (v > 1/sqrt2)",
         sum((lo < hi) != (v > v_threshold_genuine()) for (lo, hi), v in zip(windows, v_grid)), 0),
    ]


CHECKS: tuple[tuple[str, Callable[[], list[Measurement]]], ...] = (
    ("matrix-identities", check_matrix_identities),
    ("state-invariants", check_state_invariants),
    ("channel-properties", check_channel_properties),
    ("channel-closed-forms", check_channel_closed_forms),
    ("mermin-branch-values", check_mermin_branch_values),
    ("svetlichny-branch-values", check_svetlichny_branch_values),
    ("mixture-closed-form-standard", check_mixture_closed_form_standard),
    ("mixture-closed-form-genuine", check_mixture_closed_form_genuine),
    ("mixing-linearity", check_mixing_linearity),
    ("classical-bounds", check_classical_bounds),
    ("quantum-witnesses", check_quantum_witnesses),
    ("thresholds", check_thresholds),
    ("window-endpoints", check_window_endpoints),
    ("unbiased-genuine-scan", check_unbiased_genuine_scan),
    ("standard-scan-consistency", check_standard_scan_consistency),
    ("genuine-scan-consistency", check_genuine_scan_consistency),
    ("window-monotonicity", check_window_monotonicity),
)


def check_names() -> list[str]:
    return [name for name, _ in CHECKS]


def run_checks(inject_failure: str | None = None) -> list[CheckResult]:
    """Run every check; ``inject_failure`` names one that is made to fail."""
    if inject_failure is not None and inject_failure not in check_names():
        raise ValueError(f"unknown check {inject_failure!r}")
    results = []
    for name, fn in CHECKS:
        try:
            measurements = fn()
        except Exception as exc:  # a crash is a failing check, not a crash of verify
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
            continue
        if name == inject_failure:
            label, measured, tol = measurements[0]
            measurements[0] = (label, measured + tol + INJECTION_BUMP, tol)
        passed = all(measured <= tol for _, measured, tol in measurements)
        detail = "; ".join(f"{label} {measured:.3g} (tol {tol:g})"
                           for label, measured, tol in measurements)
        results.append(CheckResult(name, passed, detail))
    return results
