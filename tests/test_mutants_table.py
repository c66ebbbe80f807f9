"""Every row of the mutant catalogue (tests/mutants.py) still applies: its
old text occurs exactly once in its file, its new text differs, and each
test it names is defined in the file named.  A change that moves a
mutant's target or renames its killer fails here, not in a later run of
the catalogue.  Every certificate of the coset reductions, and the
Jacobian match of normal.ginn_pattern, has a row that removes it."""

import inspect
import re

import pytest
from mutants import MUTANTS, ROOT

from lmc import normal


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


def test_every_reduction_certificate_and_the_ginn_certificate_have_a_row():
    # Each certificate is pinned to a mutant that removes it, and so to a
    # test that sees the fault it alone catches.
    olds = {row[2] for row in MUTANTS}
    lines = (ROOT / "src/lmc/cosets.py").read_text(encoding="utf-8").splitlines()
    guards = [
        lines[k - 1].strip() for k, line in enumerate(lines) if 'raise ValidationError("reduction ' in line
    ]
    assert guards
    for guard in guards:
        assert guard in olds, guard
    last = inspect.getsource(normal.ginn_pattern).strip().splitlines()[-1].strip()
    assert last == "return g if ginn_jacobian(g) == jac else None"
    assert last in olds
