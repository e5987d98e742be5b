"""The mutation gate's table stays in step with the program: every mutant's
old text occurs exactly once, and every test it names exists. The mutants
themselves run in `python tests/mutants.py`, not here."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name, path, old, new, nodes", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_applies_once_and_names_real_tests(name, path, old, new, nodes):
    assert old != new
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    for node in nodes:
        file, test = node.split("::")
        assert f"\ndef {test}(" in (ROOT / file).read_text(encoding="utf-8")
