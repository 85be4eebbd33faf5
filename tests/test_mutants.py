"""The mutation register (``tests/mutants.py``) still fits the code and the tests.

Running the mutants is left to ``python tests/mutants.py``; here each row's
old text must occur exactly once in its ``src/`` file, so that the runner
edits what the row means, and each test it names must still be defined.
"""

import os
import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_edits_one_place_and_names_existing_tests(mutant):
    with open(os.path.join(ROOT, "src", mutant.path), encoding="utf-8") as fh:
        assert fh.read().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test_id in mutant.tests:
        path, _, name = test_id.partition("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            assert re.search(rf"^def {re.escape(name.partition('[')[0])}\(", fh.read(), re.MULTILINE), test_id
