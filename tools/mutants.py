"""Mutation probe: every listed mutant must be killed, most by ``seqbell verify`` itself.

    python3 tools/mutants.py

Copies ``src/``, ``tests/``, ``tools/`` and ``pyproject.toml`` into a
temporary directory and checks that the unmutated copy passes. It then
applies one textual mutant at a time (its text must occur exactly once in
its file), runs the Tier-1 suite and ``seqbell verify`` on the copy, and
reports the tests and checks that failed. The suite runs under the
``probe`` Hypothesis profile of ``tests/conftest.py``, which does not
shrink a failing example: a mutant is killed by the failure itself, not by
its smallest example. It runs without the test that each mutant's text
occurs once in its file (``TARGET_TEST``), which every applied mutant fails
by construction. A test kill rests on at least one ``FAILED`` or ``ERROR``
id that pytest reports; a nonzero exit without one (an internal error, a
usage error, no tests collected) is a probe error, and the probe prints the
tail of pytest's output and stops. A mutant that neither fails
is a survivor, and so is a mutant marked ``verify=True`` that ``verify``
lets through, even when a test kills it. Exits 1 on a probe error, if the
unmutated copy fails or if any mutant survives. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")
TIMEOUT_S = 600
TAIL_LINES = 20  # of pytest's output, printed on a probe error
TARGET_TEST = "tests/test_mutants.py::test_mutant_text_occurs_once_in_its_file"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    verify: bool  # whether ``seqbell verify`` alone must kill it


MUTANTS = (
    # The simulated path "optimised" into the closed form it is checked against, for every
    # bias, a scalar v and the standard scenario's None included. Test-only: the closed form
    # equals the simulation, so no value verify sees changes; TestIndependence owns it.
    Mutant("M1-second2-from-closed-form", "src/seqbell/scenario.py",
           "second2[k] = scenario.value(luders_weigh(rho, products2, float(q)), settings1)",
           "second2[k] = scenario.closed(np.sin(2 * phi), 0, q)[1]", verify=False),
    # Every row of a bias array weighed at its first bias; a sweep of one, whose index k is
    # (), keeps its own.
    Mutant("bias-rows-reuse-first-bias", "src/seqbell/scenario.py",
           "luders_weigh(rho, products2, float(q))",
           "luders_weigh(rho, products2, float(biases.flat[0] if k else q))", verify=True),
    # Values a hair below the bound count as violations.
    Mutant("M2-negative-violation-margin", "src/seqbell/feasibility.py",
           "VIOLATION_MARGIN = 1e-9", "VIOLATION_MARGIN = -1e-9", verify=True),
    # Every cell counts as on the bound, so scan/window disagreements read 0 by construction.
    Mutant("M4-no-interior-cells", "src/seqbell/feasibility.py",
           "lo, hi = bound - VIOLATION_MARGIN, bound + VIOLATION_MARGIN",
           "lo, hi = -np.inf, np.inf", verify=True),
    Mutant("inverted-csv-flag", "src/seqbell/feasibility.py",
           "= grid.flagged[rows, cols] + ord(", "= ~grid.flagged[rows, cols] + ord(", verify=True),
    Mutant("swapped-value-columns", "src/seqbell/feasibility.py",
           "np.stack((value1, value2), axis=-1)", "np.stack((value2, value1), axis=-1)",
           verify=True),
    # A row longer than one CSV block loses its partial last block. Test-only: every
    # row verify formats is one block; the block-boundary test owns it.
    Mutant("csv-drops-partial-last-block", "src/seqbell/feasibility.py",
           "for k in range(0, grid.p.size, _CSV_BLOCK):",
           "for k in range(0, grid.p.size - grid.p.size % _CSV_BLOCK or grid.p.size, _CSV_BLOCK):",
           verify=False),
    # The number formatter accepts every rint, so a value whose scaled product lies near
    # half an integer may take the wrong one of its two 12-digit roundings. Test-only: the
    # CSV that verify reads back is parsed to within 1e-11; the near-tie test owns it.
    Mutant("csv-near-tie-unguarded", "src/seqbell/feasibility.py",
           "fast = (np.abs(y - m) <= 0.499) & (m >= 1e11)", "fast = (m >= 1e11)", verify=False),
    # The one scan loop writes each block's value1 into value2 and value2 into value1, so
    # the CLI's scan and verify's both do, and still agree. The flag rule is symmetric in the
    # two values; the scan-consistency checks' closed-form rows and the CLI digest tests see it.
    Mutant("blocked-scan-swaps-value-arrays", "src/seqbell/feasibility.py",
           "value1[rows], value2[rows] = mix(", "value2[rows], value1[rows] = mix(", verify=True),
    # The CLI's scan takes two angles per step and mixes only the first one's branches, so
    # each odd row repeats the row before it; "cells unlike the per-angle scan" sees it.
    Mutant("per-angle-scan-skips-angles", "src/seqbell/feasibility.py",
           "genuine_branch_values(phi[0], v)), 1)", "genuine_branch_values(phi[0], v)), 2)",
           verify=True),
    # The genuine threshold angle loses the sqrt2 of S = 2 sqrt2 (...) sin 2phi.
    Mutant("genuine-threshold-drops-sqrt2", "src/seqbell/feasibility.py",
           "math.asin(SQRT2 * (1 + v) / (1 + 2 * v))", "math.asin((1 + v) / (1 + 2 * v))",
           verify=True),
    # A scenario's p-window returns its ends the wrong way round, so it reads empty
    # wherever it was open.
    Mutant("swapped-standard-window-ends", "src/seqbell/scenario.py",
           "window=lambda s, v: (1 / s - 1, 3 - 2 / s),",
           "window=lambda s, v: (3 - 2 / s, 1 / s - 1),", verify=True),
    Mutant("swapped-genuine-window-ends", "src/seqbell/scenario.py",
           "window=lambda s, v: (SQRT2 / s - 1, 1 - (SQRT2 / s - 1) / v),",
           "window=lambda s, v: (1 - (SQRT2 / s - 1) / v, SQRT2 / s - 1),", verify=True),
    # A window's lower end drifts by c (1 - sin 2phi): unmoved at pi/4, where
    # window-endpoints looks, and at the threshold by an eighth of a p step of
    # verify's standard grid and a quarter of one of its genuine grid.
    Mutant("standard-window-lower-end-drifts", "src/seqbell/scenario.py",
           "window=lambda s, v: (1 / s - 1, 3 - 2 / s),",
           "window=lambda s, v: (1 / s - 1 + 1e-3 * (1 - s), 3 - 2 / s),", verify=True),
    Mutant("genuine-window-lower-end-drifts", "src/seqbell/scenario.py",
           "window=lambda s, v: (SQRT2 / s - 1, 1 - (SQRT2 / s - 1) / v),",
           "window=lambda s, v: (SQRT2 / s - 1 + 5e-2 * (1 - s), 1 - (SQRT2 / s - 1) / v),",
           verify=True),
    # The first round pairs p with strategy 2's value and 1 - p with strategy 1's: the
    # standard value1 reads (4 - 2p) sin 2phi, not (2p + 2) sin 2phi.
    Mutant("mix-pairs-first-round-with-the-wrong-strategy", "src/seqbell/scenario.py",
           "outer(first1, p) + outer(first2, q)", "outer(first2, p) + outer(first1, q)",
           verify=True),
    # So does the second round.
    Mutant("mix-pairs-second-round-with-the-wrong-strategy", "src/seqbell/scenario.py",
           "outer(second1, p) + outer(second2, q)", "outer(second2, p) + outer(second1, q)",
           verify=True),
    # Kernel mutants: the channel weighs z = 0 and z = 1 the wrong way round,
    Mutant("swapped-channel-weights", "src/seqbell/luders.py",
           "weights = (prob_z0, 1.0 - prob_z0)", "weights = (1.0 - prob_z0, prob_z0)",
           verify=True),
    # Mermin loses its A0 B0 C1 term,
    Mutant("dropped-mermin-term", "src/seqbell/bell.py", "    ((0, 0, 1), 1),\n", "",
           verify=True),
    # each coefficient weighs the correlator stacked before its own,
    Mutant("shifted-correlator-coefficients", "src/seqbell/bell.py",
           "values * coeffs", "np.roll(values, 1, axis=-1) * coeffs", verify=True),
    # the lone party of a hybrid LHV strategy reads a paired party's input,
    Mutant("lone-party-reads-paired-input", "src/seqbell/lhvbound.py",
           "solo[inputs[k]]", "solo[inputs[i]]", verify=True),
    # and the cached hybrid outcome tables lose their last strategy.
    Mutant("hybrid-table-loses-a-row", "src/seqbell/lhvbound.py",
           '"hybrid": hybrid_strategies}', '"hybrid": lambda: list(hybrid_strategies())[:-1]}',
           verify=True),
    # The kron memo keys a product on its left operand alone, so two products
    # with the same left operand both return the first one made.
    Mutant("kron-memo-drops-second-operand", "src/seqbell/cmatrix.py",
           "    key = id(a), id(b)\n", "    key = id(a)\n", verify=True),
    # The memo stores a product when only one operand is registered. Test-only:
    # no valid run changes an operand after multiplying it; the memo tests in
    # tests/test_cmatrix.py and tests/test_verify.py own it.
    Mutant("kron-memo-one-operand-registered", "src/seqbell/cmatrix.py",
           "if id(a) in _CONSTANTS and id(b) in _CONSTANTS:",
           "if id(a) in _CONSTANTS or id(b) in _CONSTANTS:", verify=False),
    # The imaginary-residue guard reads only the first correlator of a stack.
    # Test-only: every operator a valid run builds is Hermitian, so the guard
    # never fires in verify; the last-correlator test in tests/test_bell.py owns it.
    Mutant("residue-guard-first-correlator", "src/seqbell/bell.py",
           "np.abs(value.imag).max()", "np.abs(value.imag[..., 0]).max()", verify=False),
    # Each correlator is Tr(rho O^T): the operator convention, one subscript string,
    # transposed. Test-only until a referee checks the kernel on random settings: verify
    # evaluates correlators only on GHZ states and their images under the paper's X, Y
    # and identity channels, all real, where Tr(rho O^T) = Tr(rho O); the complex-state
    # anchors in tests/test_bell.py own it.
    Mutant("transposed-correlator-operator", "src/seqbell/bell.py",
           '"...ij,kji->...ki"', '"...ij,kij->...ki"', verify=False),
    # Each correlator's operator is C (x) B (x) A: the party order, reversed. Test-only
    # until a referee checks the kernel on random settings: GHZ states are symmetric
    # under swapping A and C, and all 17 checks pass under it; the qubit-order anchor
    # and the oracle tests in tests/test_bell.py own it.
    Mutant("reversed-party-order", "src/seqbell/bell.py",
           "kron(kron(ak, bk), ck)", "kron(kron(ck, bk), ak)", verify=False),
    # The channel adds its weighted products last effect first, and an inequality
    # whose terms are all -0.0 reads -0.0. Test-only: both change only rounding
    # or a zero's sign, which no check's tolerance sees; the bitwise tests against
    # the replaced loops in tests/test_properties.py own them.
    Mutant("reordered-luders-accumulation", "src/seqbell/luders.py",
           "((t[..., 0, :, :] + t[..., 1, :, :]) + t[..., 2, :, :]) + t[..., 3, :, :]",
           "((t[..., 3, :, :] + t[..., 2, :, :]) + t[..., 1, :, :]) + t[..., 0, :, :]",
           verify=False),
    Mutant("signed-zero-start-dropped", "src/seqbell/bell.py",
           "[..., -1] + 0.0", "[..., -1]", verify=False),
    # A stack of channels updates each state with the next member's effects. Test-only:
    # a mis-paired channel is still a channel, so no check verify makes sees it, and a
    # stack of one is unchanged; the batched-update test in tests/test_properties.py owns it.
    Mutant("batched-channel-next-members-effects", "src/seqbell/luders.py",
           "e8 = np.array(e8).swapaxes(0, -3)",
           "e8 = np.roll(np.array(e8).swapaxes(0, -3), -1, range(np.ndim(e8) - 3))",
           verify=False),
    # channel-properties draws each member's angle after its strategy. Test-only:
    # other draws give other but equally passing values; the reference loop owns it.
    Mutant("channel-draw-order", "src/seqbell/verify.py",
           "        phi[i] = float(rng.random()) * PHI_MAX\n"
           "        draws.append(_random_strategy(rng))\n",
           "        draws.append(_random_strategy(rng))\n"
           "        phi[i] = float(rng.random()) * PHI_MAX\n", verify=False),
    # matrix-identities draws its matrices from a numpy generator seeded by its own,
    # which loads numpy.random. Test-only: the draws stay seeded and every check passes
    # on them; the fresh-interpreter test in tests/test_verify.py owns it.
    Mutant("verify-seeds-a-numpy-generator", "src/seqbell/verify.py",
           "    real = [rng.gauss(0.0, 1.0) for _ in range(16)]\n"
           "    imag = [rng.gauss(0.0, 1.0) for _ in range(16)]\n",
           "    real, imag = np.random.default_rng(rng.getrandbits(32)).normal(size=(2, 16))\n",
           verify=False),
    # A measurement's effects are checked for idempotency alone, so a non-Hermitian
    # involution gives oblique "effects". Test-only: every observable a valid run
    # builds is Hermitian; the non-Hermitian test in tests/test_qstate.py owns it.
    Mutant("effects-skip-hermiticity", "src/seqbell/qstate.py",
           "if not is_hermitian(e) or not is_idempotent(e):", "if not is_idempotent(e):",
           verify=False),
    # The channel takes any number of effect pairs, and one or three fail later as a
    # broadcast error. Test-only: every valid run passes two; the pair-count test in
    # tests/test_luders.py owns it.
    Mutant("luders-skips-pair-count-guard", "src/seqbell/luders.py",
           "    if len(measurements) != 2:\n"
           "        raise ValueError(f\"expected an effect pair per input, got "
           "{len(measurements)} pairs\")\n",
           "", verify=False),
    # The one probability check lets p up to 1.5 through. Test-only: no valid run
    # hands any boundary a bad probability, so no value verify sees changes.
    Mutant("loose-probability-check", "src/seqbell/qstate.py",
           "if not 0.0 <= member <= 1.0:", "if not 0.0 <= member <= 1.5:", verify=False),
    # An output path that is a symlink gets the link replaced by a regular file, and
    # the file it names is left as it was. Test-only: verify writes no file.
    Mutant("output-replaces-symlink", "src/seqbell/cli.py",
           "    path = os.path.realpath(path)\n", "", verify=False),
)


def failed_tests(returncode: int, stdout: str) -> list[str] | None:
    """Ids that pytest's ``-rfE`` summary reports failed, or None if it gave no verdict.

    A collection error is reported as ``ERROR <path>``, so it counts. A nonzero exit
    that reports no id (an internal error, a usage error, no tests collected) is None.
    """
    failed = [line.split()[1] for line in stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return None if returncode != 0 and not failed else failed


def run_tier1(work: Path, env: dict, label: str) -> list[str]:
    """Ids of the failing Tier-1 tests; a probe error if pytest gave no verdict."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-profile", "probe", "--deselect", TARGET_TEST, "tests"],
        cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    failed = failed_tests(proc.returncode, proc.stdout)
    if failed is None:
        print(f"{label}: probe error, pytest exited {proc.returncode} and reported no failed "
              "test; the tail of its output:")
        for line in (proc.stdout + proc.stderr).splitlines()[-TAIL_LINES:]:
            print(f"    {line}")
        sys.exit(1)
    return failed


def run_verify(work: Path, env: dict) -> list[str]:
    """The ``seqbell verify`` lines that report a failure, or its exit status if none does."""
    proc = subprocess.run([sys.executable, "-m", "seqbell.cli", "verify"],
                          cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    failed = [line.split(":")[0].split()[-1] for line in proc.stdout.splitlines()
              if line.startswith("FAIL")]
    return failed or ([] if proc.returncode == 0 else [f"exit status {proc.returncode}"])


def probe(work: Path, env: dict, label: str) -> tuple[bool, bool]:
    """Run both checks on the copy in ``work``, print what failed.

    Returns whether Tier-1 failed and whether ``verify`` failed.
    """
    tests, checks = run_tier1(work, env, label), run_verify(work, env)
    print(f"{label}: {len(tests)} Tier-1 test(s) and {len(checks)} verify check(s) failed")
    for item in tests + [f"verify {c}" for c in checks]:
        print(f"    {item}")
    return bool(tests), bool(checks)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="seqbell-mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            else:
                shutil.copy2(src, work / name)
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

        if any(probe(work, env, "unmutated")):
            print("the unmutated copy fails; no mutant can be judged")
            return 1
        survivors = []
        for mutant in MUTANTS:
            target = work / mutant.path
            original = target.read_text()
            count = original.count(mutant.old)
            if count != 1:
                print(f"{mutant.name}: its text occurs {count} times in {mutant.path}, not once")
                survivors.append(mutant.name)
                continue
            target.write_text(original.replace(mutant.old, mutant.new))
            try:
                tests_killed, verify_killed = probe(work, env, mutant.name)
                if not (verify_killed or tests_killed and not mutant.verify):
                    survivors.append(mutant.name)
            finally:
                target.write_text(original)

    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutant(s) killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
