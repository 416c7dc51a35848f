"""The anchor of ``scripts/mutants.py``: every mutant's ``old`` text
still occurs exactly once in its file, so each mutant still edits the
line it was written against. Running the catalog is a CI step of its
own, not part of tier-1."""

import importlib.util

import pytest
from conftest import REPO

_spec = importlib.util.spec_from_file_location("mutants", REPO / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.CATALOG, ids=lambda m: m.name)
def test_each_mutant_site_occurs_once_in_its_file(mutant):
    text = (REPO / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
