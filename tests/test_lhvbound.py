import itertools
import math

import numpy as np
import pytest

from seqbell.bell import MERMIN_TERMS, SVETLICHNY_TERMS
from seqbell.lhvbound import (
    BIPARTITIONS,
    hybrid_strategies,
    local_strategies,
    mermin_classical_max,
    mermin_value_of,
    outcome_tables,
    quantum_witness_max,
    svetlichny_classical_max,
    svetlichny_value_of,
)

INPUTS = list(itertools.product((0, 1), repeat=3))


def test_local_enumeration_is_exhaustive():
    strategies = list(local_strategies())
    assert len(strategies) == 64
    assert len(set(strategies)) == 64


def test_hybrid_enumeration_is_exhaustive():
    strategies = list(hybrid_strategies())
    assert len(strategies) == 3072
    # each of the 64 fully local tables occurs once in every bipartition
    assert len(set(strategies)) == 3072 - 2 * 64


def test_mermin_classical_max_is_two():
    assert mermin_classical_max() == 2.0


def test_mermin_enumeration_structure():
    values = [mermin_value_of(s) for s in local_strategies()]
    assert min(values) == -2
    assert all(val % 2 == 0 and -4 <= val <= 4 for val in values)
    assert max(values) == 2
    maximizer_count = sum(1 for val in values if val == 2)
    assert maximizer_count > 0 and maximizer_count % 2 == 0


def test_svetlichny_classical_max_is_four():
    assert svetlichny_classical_max() == 4.0


def test_svetlichny_enumeration_structure():
    values = [svetlichny_value_of(s) for s in hybrid_strategies()]
    assert all(val % 2 == 0 and -8 <= val <= 8 for val in values)
    assert max(values) == 4


def test_fully_local_strategies_reach_the_hybrid_max():
    # the 64 fully-local points already attain 4 on the eight-term expression
    assert max(svetlichny_value_of(s) for s in local_strategies()) == 4


def test_single_bipartition_reaches_four():
    strategies = list(hybrid_strategies())
    local = set(local_strategies())
    for n, bipartition in enumerate(BIPARTITIONS):
        block = strategies[1024 * n : 1024 * (n + 1)]
        assert len(set(block)) == 1024
        assert local <= set(block)
        assert max(svetlichny_value_of(s) for s in block) == 4
        # the lone party's outcome depends on its own input only
        solo = "ABC".index(bipartition[-1])
        for table in block:
            assert len({(inputs[solo], outcome[solo])
                        for inputs, outcome in zip(INPUTS, table)}) == 2


def test_quantum_witnesses():
    wm = quantum_witness_max("standard")
    ws = quantum_witness_max("genuine")
    assert wm == pytest.approx(4.0, abs=1e-10)
    assert ws == pytest.approx(4 * math.sqrt(2), abs=1e-10)
    assert wm > mermin_classical_max()
    assert ws > svetlichny_classical_max()
    for name in ("mermin", "svetlichny", "chsh"):  # inequality names are not scenario kinds
        with pytest.raises(ValueError):
            quantum_witness_max(name)


def per_table_value(table, terms):
    """Reference: the per-table formula that the array expression replaced."""
    return sum(coeff * math.prod(table[4 * x + 2 * y + z]) for (x, y, z), coeff in terms)


MODELS = pytest.mark.parametrize("model, generator", [("local", local_strategies),
                                                       ("hybrid", hybrid_strategies)],
                                  ids=["local", "hybrid"])


@MODELS
@pytest.mark.parametrize("value_of, terms", [(mermin_value_of, MERMIN_TERMS),
                                             (svetlichny_value_of, SVETLICHNY_TERMS)],
                         ids=["mermin", "svetlichny"])
def test_stacked_values_equal_the_per_table_formula(model, generator, value_of, terms):
    expected = [per_table_value(table, terms) for table in generator()]
    assert value_of(outcome_tables(model)).tolist() == expected
    assert [value_of(table) for table in generator()] == expected


@MODELS
def test_outcome_tables_are_the_generated_tables_cached_read_only(model, generator):
    tables = outcome_tables(model)
    assert tables is outcome_tables(model)
    assert tables.dtype == np.int8
    assert tables.tolist() == [list(map(list, table)) for table in generator()]
    with pytest.raises(ValueError):
        tables[0, 0, 0] = -tables[0, 0, 0]
    with pytest.raises(KeyError):
        outcome_tables("chsh")
