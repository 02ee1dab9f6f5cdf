"""The mutant catalogue in tests/_mutants.py still applies to the tree.

Each snippet occurs exactly once in its file, so a mutant patches one known
place; the patched file parses and differs from the original in its syntax
tree, not only in comments or layout; and each killer names a test function
that exists.  No mutant is run here.
"""

import ast
from pathlib import Path

import pytest

from _mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_mutant_ids_are_unique():
    ids = [mutant.id for mutant in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_mutant_applies_once_and_parses(mutant):
    source = (ROOT / mutant.file).read_text()
    assert source.count(mutant.snippet) == 1
    patched = source.replace(mutant.snippet, mutant.replacement)
    assert ast.dump(ast.parse(patched)) != ast.dump(ast.parse(source))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_mutant_killers_exist(mutant):
    assert mutant.killers
    for killer in mutant.killers:
        path, name = killer.split("::")
        assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text()
