"""Hypothesis profiles of the suite, the kernel's operators built before any test, a
fixture that measures a call's traced memory peak, one that empties the cache of LHV
outcome tables around a test, and the environment of a child interpreter.

``probe`` runs every phase but shrinking and the explanation that follows it.
A mutant fails a property test whether or not its failing example is shrunk,
so ``tools/mutants.py`` selects it with ``--hypothesis-profile probe``; any
other run keeps Hypothesis's default profile.
"""

import os
import tracemalloc

import pytest
from hypothesis import Phase, settings

import seqbell
from seqbell.lhvbound import outcome_tables
from seqbell.scenario import SCENARIOS, _operators

settings.register_profile(
    "probe", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))


def pytest_sessionstart(session):
    """Build and register each scenario's operators once, before any test runs.

    ``_operators`` registers them with ``cmatrix.constant`` on its first call
    only. A test that swaps the registry for a temporary one would otherwise
    leave them registered there alone, if it made the process's first kernel
    call, and ``kron`` and ``stack`` would memoize none of their products and
    stacks for the rest of the session.
    """
    for kind in SCENARIOS:
        _operators(kind)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the most memory it had traced at once above what it started with."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    return _traced_peak


@pytest.fixture
def fresh_outcome_tables():
    """Empty the ``outcome_tables`` cache before and after the test.

    A test that patches a strategy generator then builds its tables from the patched
    one, and no later test reads them.
    """
    outcome_tables.cache_clear()
    yield
    outcome_tables.cache_clear()


@pytest.fixture
def child_env():
    """The environment of a child that imports seqbell from the same place this process did.

    ``PYTHONPATH`` with this checkout's ``src`` first, then whatever it held before.
    """
    src = os.path.dirname(os.path.dirname(seqbell.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
