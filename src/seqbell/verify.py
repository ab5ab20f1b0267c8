"""Named self-verification checks behind the ``verify`` CLI command.

Each check exercises one contract of the package: an algebraic identity,
a channel property, agreement between the simulated and closed-form
mixture values, an enumerated classical bound, or a threshold value. A
check can be handed a perturbation that is added to its primary measured
deviation before comparison; the CLI uses that for fault injection to
demonstrate that failures surface as nonzero exit codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import MERMIN_CLASSICAL_BOUND, SVETLICHNY_CLASSICAL_BOUND
from .cmatrix import identity, is_hermitian, is_idempotent
from .feasibility import (
    p_window_genuine,
    phi_threshold_genuine,
    phi_threshold_standard,
    scan,
    scan_grid,
    scan_window_disagreements,
    v_threshold_genuine,
)
from .lhvbound import (
    hybrid_strategies,
    local_strategies,
    mermin_classical_max,
    mermin_value_of,
    svetlichny_classical_max,
    svetlichny_value_of,
    quantum_witness_max,
)
from .luders import CharlieStrategy, InputDistribution, embed_third, luders_update
from .qstate import (
    PHI_MAX,
    ghz,
    identity_measurement,
    pauli,
    projective_from_observable,
    to_density,
)
from .scenario import (
    SQRT2,
    genuine_branch_values,
    genuine_pair_closed,
    mix,
    standard_branch_values,
    standard_pair_simulated,
)

INJECTION_BUMP = 1e-3

_PHI_GRID = np.linspace(0.0, PHI_MAX, 200)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_strategy(rng) -> CharlieStrategy:
    def one_measurement():
        if rng.random() < 0.25:
            return identity_measurement()
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        return projective_from_observable(
            n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z")
        )

    return CharlieStrategy(
        meas_z0=one_measurement(),
        meas_z1=one_measurement(),
        inputs=InputDistribution(float(rng.random())),
    )


def check_matrix_identities(perturb: float = 0.0):
    rng = np.random.default_rng(11)
    alphabet = [pauli(ax) for ax in "xyz"] + [identity(2)]
    dev = 0.0
    # Kronecker associativity: exact on the operator alphabet in use.
    for a in alphabet:
        for b in alphabet:
            for c in alphabet:
                dev = max(dev, np.max(np.abs(np.kron(np.kron(a, b), c)
                                             - np.kron(a, np.kron(b, c)))))
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dev = max(dev, abs(np.trace(a @ b) - np.trace(b @ a)))
        dev = max(dev, np.max(np.abs(np.kron(a, b).conj().T
                                     - np.kron(a.conj().T, b.conj().T))))
    dev += perturb
    return dev <= 1e-12, f"max deviation {dev:.2e} (tol 1e-12)"


def check_state_invariants(perturb: float = 0.0):
    dev = 0.0
    min_eig = 1.0
    for phi in np.linspace(0.0, PHI_MAX, 25):
        rho = to_density(ghz(phi))
        dev = max(dev, np.max(np.abs(rho - rho.conj().T)))
        dev = max(dev, abs(np.trace(rho).real - 1.0))
        dev = max(dev, abs(np.trace(rho @ rho).real - 1.0))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(rho))))
    for obs in (pauli("x"), -pauli("y"),
                (pauli("x") - pauli("y")) / SQRT2,
                (pauli("x") + pauli("y")) / SQRT2):
        meas = projective_from_observable(obs)
        for e in (meas.effect0, meas.effect1):
            if not (is_hermitian(e) and is_idempotent(e)):
                return False, "constructed effect is not an idempotent Hermitian projector"
    dev += perturb
    ok = dev <= 1e-12 and min_eig >= -1e-10
    return ok, f"max deviation {dev:.2e} (tol 1e-12), min eigenvalue {min_eig:.2e}"


def check_channel_properties(perturb: float = 0.0):
    rng = np.random.default_rng(1234)
    trace_dev = 0.0
    min_eig = 1.0
    for _ in range(1000):
        phi = float(rng.random()) * PHI_MAX
        rho = to_density(ghz(phi))
        out = luders_update(rho, _random_strategy(rng))
        trace_dev = max(trace_dev, abs(np.trace(out).real - 1.0))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(out))))
    do_nothing = CharlieStrategy(identity_measurement(), identity_measurement())
    rho = to_density(ghz(0.5))
    fixed_dev = np.max(np.abs(luders_update(rho, do_nothing) - rho))
    trace_dev += perturb
    ok = trace_dev <= 1e-12 and min_eig >= -1e-10 and fixed_dev <= 1e-14
    return ok, (
        f"trace drift {trace_dev:.2e} (tol 1e-12), min eigenvalue {min_eig:.2e}, "
        f"identity fixed-point deviation {fixed_dev:.2e} (tol 1e-14)"
    )


def check_channel_closed_forms(perturb: float = 0.0):
    rho = to_density(ghz(0.55))
    X = embed_third(pauli("x"))
    Y = embed_third(pauli("y"))
    Z = embed_third(pauli("z"))
    proj_x = projective_from_observable(pauli("x"))
    proj_y = projective_from_observable(pauli("y"))

    dev = 0.0
    both = CharlieStrategy(proj_x, proj_y)
    dev = max(dev, np.max(np.abs(
        luders_update(rho, both) - (rho / 2 + X @ rho @ X / 4 + Y @ rho @ Y / 4))))

    one = CharlieStrategy(proj_x, identity_measurement())
    dev = max(dev, np.max(np.abs(
        luders_update(rho, one) - (3 * rho / 4 + X @ rho @ X / 4))))

    for v in (0.3, 0.8):
        biased = CharlieStrategy(identity_measurement(), proj_x,
                                 inputs=InputDistribution(v))
        expected = (1 + v) / 2 * rho + (1 - v) / 2 * (X @ rho @ X)
        dev = max(dev, np.max(np.abs(luders_update(rho, biased) - expected)))

    half = CharlieStrategy(proj_x, proj_y, inputs=InputDistribution(0.5))
    dev = max(dev, np.max(np.abs(luders_update(rho, half) - luders_update(rho, both))))

    # Two applications compose to a four-term Pauli mixture on qubit C.
    twice = luders_update(luders_update(rho, both), both)
    composed = (3 * rho / 8 + X @ rho @ X / 4 + Y @ rho @ Y / 4 + Z @ rho @ Z / 8)
    dev = max(dev, np.max(np.abs(twice - composed)))

    dev += perturb
    return dev <= 1e-12, f"max deviation {dev:.2e} (tol 1e-12)"


def check_mermin_branch_values(perturb: float = 0.0):
    dev = 0.0
    for phi in _PHI_GRID:
        s = math.sin(2 * phi)
        first1, second1, first2, second2 = standard_branch_values(phi)
        dev = max(dev, abs(first1 - 4 * s), abs(second1 - 2 * s),
                  abs(first2 - 2 * s), abs(second2 - 3 * s))
    dev += perturb
    return dev <= 1e-10, f"max deviation {dev:.2e} over {_PHI_GRID.size} angles (tol 1e-10)"


def check_svetlichny_branch_values(perturb: float = 0.0):
    dev = 0.0
    for phi in _PHI_GRID:
        s = math.sin(2 * phi)
        first1, second1, first2, _ = genuine_branch_values(phi, 0.5)
        dev = max(dev, abs(first1 - 4 * SQRT2 * s), abs(second1 - 2 * SQRT2 * s),
                  abs(first2 - 2 * SQRT2 * s))
    for v in np.arange(1, 10) / 10:
        for phi in _PHI_GRID[::10]:
            s = math.sin(2 * phi)
            second2 = genuine_branch_values(phi, float(v))[3]
            dev = max(dev, abs(second2 - 2 * SQRT2 * (1 + v) * s))
    dev += perturb
    return dev <= 1e-10, f"max deviation {dev:.2e} (tol 1e-10)"


def _mixture_deviation(branches, closed, n_phi: int, n_p: int) -> float:
    """Largest gap between the mixed ``branches(phi)`` and ``closed(phi, p)``.

    Taken over n_phi angles in [0, pi/4] and n_p mixing probabilities.
    """
    p = np.linspace(0.0, 1.0, n_p)
    dev = 0.0
    for phi in np.linspace(0.0, PHI_MAX, n_phi):
        sim1, sim2 = mix(branches(phi), p)
        closed1, closed2 = closed(phi, p)
        dev = max(dev, np.max(np.abs(sim1 - closed1)), np.max(np.abs(sim2 - closed2)))
    return dev


def check_mixture_closed_form_standard(perturb: float = 0.0):
    dev = _mixture_deviation(
        standard_branch_values,
        lambda phi, p: ((2 * p + 2) * math.sin(2 * phi), (3 - p) * math.sin(2 * phi)),
        200, 200,
    ) + perturb
    return dev <= 1e-10, f"max deviation {dev:.2e} on a 200x200 grid (tol 1e-10)"


def check_mixture_closed_form_genuine(perturb: float = 0.0):
    dev = 0.0
    for v in np.arange(1, 21) / 21:
        dev = max(dev, _mixture_deviation(
            lambda phi: genuine_branch_values(phi, float(v)),
            lambda phi, p: (2 * SQRT2 * (1 + p) * math.sin(2 * phi),
                            2 * SQRT2 * (1 + v * (1 - p)) * math.sin(2 * phi)),
            200, 200,
        ))
    dev += perturb
    return dev <= 1e-10, f"max deviation {dev:.2e} on 20 bias slices (tol 1e-10)"


def check_mixing_linearity(perturb: float = 0.0):
    dev = 0.0
    for phi in np.linspace(0.0, PHI_MAX, 7):
        pure1 = standard_pair_simulated(phi, 1.0)
        pure2 = standard_pair_simulated(phi, 0.0)
        for p in (0.0, 0.25, 0.5, 0.8, 1.0):
            mixed = standard_pair_simulated(phi, p)
            dev = max(dev, abs(mixed[0] - (p * pure1[0] + (1 - p) * pure2[0])),
                      abs(mixed[1] - (p * pure1[1] + (1 - p) * pure2[1])))
    dev += perturb
    return dev <= 1e-12, f"max deviation {dev:.2e} (tol 1e-12)"


def check_classical_bounds(perturb: float = 0.0):
    local_values = [mermin_value_of(s) for s in local_strategies()]
    hybrid_values = [svetlichny_value_of(s) for s in hybrid_strategies()]
    problems = []
    if len(local_values) != 64:
        problems.append(f"local count {len(local_values)} != 64")
    if len(hybrid_values) != 3072:
        problems.append(f"hybrid count {len(hybrid_values)} != 3072")
    if any(val % 2 != 0 or not -4 <= val <= 4 for val in local_values):
        problems.append("a local value is not an even integer in [-4, 4]")
    if any(val % 2 != 0 or not -8 <= val <= 8 for val in hybrid_values):
        problems.append("a hybrid value is not an even integer in [-8, 8]")
    mermin_max = mermin_classical_max() + perturb
    svet_max = svetlichny_classical_max() + perturb
    if mermin_max != 2.0:
        problems.append(f"mermin max {mermin_max} != 2")
    if svet_max != 4.0:
        problems.append(f"svetlichny max {svet_max} != 4")
    if problems:
        return False, "; ".join(problems)
    return True, "64 local and 3072 hybrid strategies; maxima exactly 2 and 4"


def check_quantum_witnesses(perturb: float = 0.0):
    wm = quantum_witness_max("mermin")
    ws = quantum_witness_max("svetlichny")
    dev = max(abs(wm - 4.0), abs(ws - 4 * SQRT2)) + perturb
    ok = dev <= 1e-10 and wm > MERMIN_CLASSICAL_BOUND and ws > SVETLICHNY_CLASSICAL_BOUND
    return ok, f"witnesses {wm:.6f}, {ws:.6f}; deviation {dev:.2e} (tol 1e-10)"


def check_thresholds(perturb: float = 0.0):
    devs = [
        (abs(phi_threshold_standard() - 0.4240), 5e-4),
        (abs(v_threshold_genuine() - 0.7071), 5e-5),
        (abs(phi_threshold_genuine(0.8) - 0.683), 5e-4),
        (abs(phi_threshold_genuine(0.9) - 0.643), 5e-4),
        (abs(math.sin(2 * phi_threshold_standard()) - 0.75), 1e-12),
        (abs(math.sin(2 * phi_threshold_genuine(0.8)) - SQRT2 * 1.8 / 2.6), 1e-12),
    ]
    worst = max(dev / tol for dev, tol in devs) + perturb / 1e-4
    return worst <= 1.0, f"worst deviation at {worst:.3f} of its tolerance"


def check_window_endpoints(perturb: float = 0.0):
    w8 = p_window_genuine(PHI_MAX, 0.8)
    w9 = p_window_genuine(PHI_MAX, 0.9)
    exact = max(
        abs(w8.lo - (SQRT2 - 1)), abs(w8.hi - (9 - 5 * SQRT2) / 4),
        abs(w9.lo - (SQRT2 - 1)), abs(w9.hi - (19 - 10 * SQRT2) / 9),
    )
    decimals = max(abs(w8.lo - 0.4143), abs(w8.hi - 0.4822),
                   abs(w9.lo - 0.4143), abs(w9.hi - 0.5397))
    exact += perturb
    ok = exact <= 1e-12 and decimals <= 1e-4 and not (w8.empty or w9.empty)
    return ok, (
        f"closed-form deviation {exact:.2e} (tol 1e-12), "
        f"4-decimal deviation {decimals:.2e} (tol 1e-4)"
    )


def check_unbiased_genuine_scan(perturb: float = 0.0):
    grid = scan("genuine", *scan_grid(500, 500), v=0.5)
    flags = int(np.count_nonzero(grid.flagged)) + perturb
    return flags <= 0, f"{flags:g} flagged cells at bias 1/2 on a 500x500 grid (expect 0)"


def _scan_consistency(grid, threshold: float, perturb: float):
    """Scan flags agree with the windows, and flag only angles above threshold."""
    mismatches = scan_window_disagreements(grid) + perturb
    flagged_rows = grid.phi[np.any(grid.flagged, axis=1)]
    region_ok = flagged_rows.size > 0 and np.all(flagged_rows > threshold)
    ok = mismatches <= 0 and region_ok
    return ok, (
        f"{mismatches:g} window mismatches away from the boundary (expect 0); "
        f"flagged angles all above {threshold:.4f}: {region_ok}"
    )


def check_standard_scan_consistency(perturb: float = 0.0):
    grid = scan("standard", *scan_grid(500, 500))
    return _scan_consistency(grid, phi_threshold_standard(), perturb)


def check_genuine_scan_consistency(perturb: float = 0.0):
    grid = scan("genuine", *scan_grid(250, 250), v=0.8)
    return _scan_consistency(grid, phi_threshold_genuine(0.8), perturb)


def check_window_monotonicity(perturb: float = 0.0):
    v_grid = np.linspace(0.05, 0.95, 19)
    s2 = [genuine_pair_closed(0.6, 0.4, float(v))[1] for v in v_grid]
    s2[0] += perturb * 1e3
    increasing = all(b > a for a, b in zip(s2, s2[1:]))
    nonempty_iff = all(
        (not p_window_genuine(PHI_MAX, float(v)).empty) == (v > 1 / SQRT2)
        for v in v_grid
    )
    ok = increasing and nonempty_iff
    return ok, (
        f"second-round value increasing in bias: {increasing}; "
        f"window nonempty exactly above 1/sqrt2: {nonempty_iff}"
    )


CHECKS: tuple[tuple[str, Callable], ...] = (
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
    """Run every check; optionally perturb one by name so it must fail."""
    if inject_failure is not None and inject_failure not in check_names():
        raise ValueError(f"unknown check {inject_failure!r}")
    results = []
    for name, fn in CHECKS:
        perturb = INJECTION_BUMP if name == inject_failure else 0.0
        try:
            passed, detail = fn(perturb)
        except Exception as exc:  # a crash is a failing check, not a crash of verify
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
