"""Classical bounds by exhaustive enumeration of deterministic models.

Both local models are convex with deterministic extremal points, so the
maximum of a linear expression over the model equals its maximum over the
deterministic strategies. That standard fact turns each bound into a
finite, exact integer enumeration, which ``outcome_tables`` makes once per
process, on first use, into a read-only (n, 8, 3) int8 array per model:

* fully local: every party answers each of its inputs with a fixed sign,
  2^6 = 64 strategies;
* hybrid bipartition: one pair of parties answers jointly (each paired
  outcome may depend on both paired inputs, with no nonsignaling
  constraint inside the pair) while the remaining party answers alone,
  3 bipartitions x 16 x 16 x 4 = 3072 strategies.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

import numpy as np

from .bell import MERMIN_TERMS, SVETLICHNY_TERMS
from .qstate import PHI_MAX
from .scenario import branch_arrays

BIPARTITIONS = ("AB|C", "AC|B", "BC|A")

# A deterministic strategy is its outcome table: the (a, b, c) outcome
# triple for each input triple, in this (x, y, z) order.
_INPUTS = tuple(itertools.product((0, 1), repeat=3))
Table = tuple[tuple[int, int, int], ...]

# Every way to answer two or four inputs with a sign.
_SIGN_PAIRS = tuple(itertools.product((-1, 1), repeat=2))
_SIGN_QUADS = tuple(itertools.product((-1, 1), repeat=4))


def local_strategies() -> Iterator[Table]:
    """The 64 tables where each party answers its own input with a fixed sign."""
    for a, b, c in itertools.product(_SIGN_PAIRS, repeat=3):
        yield tuple((a[x], b[y], c[z]) for x, y, z in _INPUTS)


def hybrid_strategies() -> Iterator[Table]:
    """The 3072 tables, 1024 per bipartition in ``BIPARTITIONS`` order.

    The paired parties i, j answer with a joint sign pair indexed by both
    of their inputs; the lone party k answers its own input alone.
    """
    for bipartition in BIPARTITIONS:
        i, j, k = ("ABC".index(party) for party in bipartition.replace("|", ""))
        for first, second, solo in itertools.product(_SIGN_QUADS, _SIGN_QUADS, _SIGN_PAIRS):
            table = []
            for inputs in _INPUTS:
                joint = 2 * inputs[i] + inputs[j]
                outcome = [0, 0, 0]
                outcome[i], outcome[j], outcome[k] = first[joint], second[joint], solo[inputs[k]]
                table.append(tuple(outcome))
            yield tuple(table)


@functools.cache
def outcome_tables(model: str) -> np.ndarray:
    """The outcome tables of every ``"local"`` or ``"hybrid"`` strategy, in generator order."""
    strategies = {"local": local_strategies, "hybrid": hybrid_strategies}[model]()
    # Outcome by outcome, as the generator yields its tables: a list of all 3,072 tuples would
    # add about 3 MB to the peak RSS, and a subarray dtype fills about 1.5x slower.
    outcomes = itertools.chain.from_iterable(itertools.chain.from_iterable(strategies))
    flat = np.fromiter(outcomes, np.int8)
    flat.flags.writeable = False  # and with it every view, the tables returned included
    return flat.reshape(-1, 8, 3)


def _value(strategy, terms):
    index, coeffs = zip(*[(4 * x + 2 * y + z, coeff) for (x, y, z), coeff in terms])
    return np.prod(np.asarray(strategy)[..., index, :], axis=-1) @ coeffs


def mermin_value_of(strategy):
    return _value(strategy, MERMIN_TERMS)


def svetlichny_value_of(strategy):
    return _value(strategy, SVETLICHNY_TERMS)


def mermin_classical_max() -> float:
    """Largest Mermin value over all 64 deterministic fully-local strategies."""
    return float(mermin_value_of(outcome_tables("local")).max())


def svetlichny_classical_max() -> float:
    """Largest Svetlichny value over all 3072 deterministic hybrid strategies."""
    return float(svetlichny_value_of(outcome_tables("hybrid")).max())


def quantum_witness_max(kind: str) -> float:
    """Simulated first value of the scenario ``kind`` at phi = pi/4, p = 1.

    A witness that the quantum strategies exceed the enumerated classical
    bounds; not a proof of the quantum maximum. A genuine scenario gets the
    bias 0.5, on which its first value does not depend.
    """
    return float(branch_arrays(kind, [PHI_MAX], 0.5 if kind == "genuine" else None)[0][0])
