"""The mutation probe's reading of a pytest run, where a kill needs a reported failed id, and
its mutants' targets."""

import pytest

import mutants  # tools/mutants.py, on the suite's pythonpath

FAILED_RUN = """\
F.F                                                                      [100%]
=========================== short test summary info ============================
FAILED tests/test_a.py::test_x - assert 1 == 2
FAILED tests/test_b.py::TestY::test_z[0.5] - ValueError: p=1.5 outside [0, 1]
2 failed, 1 passed in 0.12s
"""

COLLECTION_ERROR = """\
==================================== ERRORS ====================================
_______________________ ERROR collecting tests/test_c.py _______________________
E   ModuleNotFoundError: No module named 'seqbell.gone'
=========================== short test summary info ============================
ERROR tests/test_c.py - ModuleNotFoundError: No module named 'seqbell.gone'
!!!!!!!!!!!!!!!!!!!! Interrupted: 1 error during collection !!!!!!!!!!!!!!!!!!!!
1 error in 0.08s
"""

INTERNAL_ERROR = """\
INTERNALERROR> Traceback (most recent call last):
INTERNALERROR>   File "_pytest/main.py", line 283, in wrap_session
INTERNALERROR> RuntimeError: boom

no tests ran in 0.01s
"""


def test_failed_lines_give_their_ids():
    assert mutants.failed_tests(1, FAILED_RUN) == [
        "tests/test_a.py::test_x", "tests/test_b.py::TestY::test_z[0.5]"]


def test_collection_error_gives_its_id():
    assert mutants.failed_tests(2, COLLECTION_ERROR) == ["tests/test_c.py"]


def test_internal_error_is_no_verdict():
    assert mutants.failed_tests(3, INTERNAL_ERROR) is None


def test_clean_exit_gives_no_id():
    assert mutants.failed_tests(0, "3 passed in 0.05s\n") == []


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_text_occurs_once_in_its_file(mutant):
    # The probe counts a target that moved as a survivor; this fails at once instead.
    assert (mutants.ROOT / mutant.path).read_text().count(mutant.old) == 1


def test_the_probe_runs_without_the_target_test():
    name = test_mutant_text_occurs_once_in_its_file.__name__
    assert mutants.TARGET_TEST == f"tests/test_mutants.py::{name}"
