"""certify on every row of the mutant catalogue, tests/mutants.py."""

import pytest

from kgcert.certifier import certify
from kgcert.functors import Window
from kgcert.presentation import validate_triple

import mutants

ROWS = mutants.catalogue()
IDS = [row.name for row in ROWS]


def _certify(row, patch=lambda m: None):
    """certify at the row's triple, window and depth, with patch applied:
    row.patch for the mutant, none for the valid model."""
    h = row.half
    with pytest.MonkeyPatch.context() as m:
        patch(m)
        return certify(validate_triple(*row.triple), Window(-h, h, -h, h), row.depth)


def _assert_pinned(row, cert):
    """A mutant outside SURVIVORS fails certify at exactly its pinned
    lemmas; a single-vertex breaker may instead fail translation first and
    then a subset of them.  A survivor or an equivalent mutant passes."""
    failed = [c.lemma for c in cert.checks if not c.passed and c.lemma != "collapse_layers"]
    assert cert.passed == (row.name in mutants.SURVIVORS + mutants.EQUIVALENT) == (not row.failed)
    if row.local and failed[:1] == ["translation"]:
        assert set(failed[1:]) <= set(row.failed)
    else:
        assert failed == list(row.failed)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_certify_fails_each_mutant_at_its_pinned_lemmas(row):
    _assert_pinned(row, _certify(row, row.patch))


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_the_pins_hold_after_the_valid_model_was_certified(row):
    """Certifying the valid model at the row's window and depth first, in
    the same process, leaves the mutant's verdict and failed lemmas as
    they are: each certify call keeps its state, window engine included,
    to itself."""
    assert _certify(row).passed
    _assert_pinned(row, _certify(row, row.patch))


def test_the_catalogue_and_its_survivors_are_pinned():
    assert len(ROWS) == (168 + len(mutants.KIND_ROW_MUTANTS) + 2 + len(mutants.BREAKERS) + len(mutants.RECORD_MUTANTS)
                         + len(mutants.MALFORMED_FANS))
    assert len({row.name for row in ROWS}) == len(ROWS)
    assert [row.name for row in ROWS if not row.failed] == list(mutants.SURVIVORS + mutants.EQUIVALENT)
    assert len(mutants.SURVIVORS) == 9
