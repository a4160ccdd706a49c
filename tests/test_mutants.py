"""Self-test of `tests/mutants.py`: every mutant still applies to the
current source and names tests that exist.  The full mutant run stays
outside the suite: `python tests/mutants.py`."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test_id in mutant.tests:
        path, _, name = test_id.partition("::")
        name = name.partition("[")[0]  # a parametrised id names one case
        assert re.search(rf"^def {re.escape(name)}\(", (ROOT / path).read_text(), re.MULTILINE), test_id
