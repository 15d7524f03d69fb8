"""certify on every row of the mutant catalogue, tests/mutants.py."""

import pytest

from kgcert.certifier import certify
from kgcert.engine import get_engine
from kgcert.functors import Window
from kgcert.presentation import validate_triple

import mutants

ROWS = mutants.catalogue()


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_certify_fails_each_mutant_at_its_pinned_lemmas(row, monkeypatch):
    """A mutant outside SURVIVORS fails certify at exactly its pinned
    lemmas; a single-vertex breaker may instead fail translation first and
    then a subset of them.  A survivor passes."""
    get_engine.cache_clear()  # an engine keeps the cubes of the fan it was built on
    try:
        row.patch(monkeypatch)
        h = row.half
        cert = certify(validate_triple(*row.triple), Window(-h, h, -h, h), row.depth)
    finally:
        monkeypatch.undo()
        get_engine.cache_clear()
    failed = [c.lemma for c in cert.checks if not c.passed and c.lemma != "collapse_layers"]
    assert cert.passed == (row.name in mutants.SURVIVORS) == (not row.failed)
    if row.local and failed[:1] == ["translation"]:
        assert set(failed[1:]) <= set(row.failed)
    else:
        assert failed == list(row.failed)


def test_the_catalogue_and_its_survivors_are_pinned():
    assert len(ROWS) == 168 + len(mutants.KIND_ROW_MUTANTS) + 2 + len(mutants.BREAKERS)
    assert len({row.name for row in ROWS}) == len(ROWS)
    assert [row.name for row in ROWS if not row.failed] == list(mutants.SURVIVORS)
    assert len(mutants.SURVIVORS) == 9
