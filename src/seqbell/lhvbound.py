"""Classical bounds by exhaustive enumeration of deterministic models.

Both local models are convex with deterministic extremal points, so the
maximum of a linear expression over the model equals its maximum over the
deterministic strategies. That standard fact turns each bound into a
finite, exact integer enumeration:

* fully local: every party answers each of its inputs with a fixed sign,
  2^6 = 64 strategies;
* hybrid bipartition: one pair of parties answers jointly (each paired
  outcome may depend on both paired inputs, with no nonsignaling
  constraint inside the pair) while the remaining party answers alone,
  3 bipartitions x 16 x 16 x 4 = 3072 strategies.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from .bell import MERMIN_TERMS, SVETLICHNY_TERMS
from .scenario import pair_simulated

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


def _value(table: Table, terms) -> int:
    return sum(coeff * math.prod(table[4 * x + 2 * y + z]) for (x, y, z), coeff in terms)


def mermin_value_of(strategy) -> int:
    return _value(strategy, MERMIN_TERMS)


def svetlichny_value_of(strategy) -> int:
    return _value(strategy, SVETLICHNY_TERMS)


def mermin_classical_max() -> float:
    """Largest Mermin value over all 64 deterministic fully-local strategies."""
    return float(max(mermin_value_of(s) for s in local_strategies()))


def svetlichny_classical_max() -> float:
    """Largest Svetlichny value over all 3072 deterministic hybrid strategies."""
    return float(max(svetlichny_value_of(s) for s in hybrid_strategies()))


def quantum_witness_max(kind: str) -> float:
    """Simulated inequality value at phi = pi/4, p = 1.

    A witness that the quantum strategies exceed the enumerated classical
    bounds; not a proof of the quantum maximum.
    """
    phi = math.pi / 4
    if kind == "mermin":
        return pair_simulated("standard", phi, 1.0)[0]
    if kind == "svetlichny":
        return pair_simulated("genuine", phi, 1.0, 0.5)[0]
    raise ValueError(f"unknown inequality kind {kind!r}")
