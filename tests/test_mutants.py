"""Every planted change in mutants.py still applies: its old text occurs
exactly once in its file, and each test it names is defined. Replaying the
records (python tests/mutants.py) is not part of this check."""
import re

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_mutant_applies(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    for node in mutant.tests:
        path, name = re.fullmatch(r"([^:]+)::(\w+)(?:\[.*\])?", node).groups()
        assert f"\ndef {name}(" in (ROOT / path).read_text()
