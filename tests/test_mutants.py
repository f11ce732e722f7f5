"""Every row of the mutation table (``tests/mutants.py``) still applies: its
old text occurs exactly once in its file, and the test named to kill it
exists.  Running the mutants is left to ``python3 tests/mutants.py``."""

import re

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_once_and_names_its_killer(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    if mutant.test is None:
        assert mutant.equivalent
        return
    path, _, name = mutant.test.partition("::")
    name = name.split("[")[0]
    assert re.search(rf"^def {re.escape(name)}\(", (ROOT / path).read_text(), re.MULTILINE)
