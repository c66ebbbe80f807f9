"""Every row of the mutant catalogue (tests/mutants.py) still applies: its
old text occurs exactly once in its file, its new text differs, and each
test it names is defined in the file named.  A change that moves a
mutant's target or renames its killer fails here, not in a later run of
the catalogue."""

import re

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("row", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_row_applies_and_names_existing_tests(row):
    _name, file, old, new, tests = row
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1
    assert new != old
    assert tests
    for node in tests:
        path, _, test = node.partition("::")
        function = test.partition("[")[0]
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(function)}\(", source, re.M), node
