import pytest

from kgcert.presentation import validate_triple

ACCEPTANCE_TRIPLES = [(1, 2, 0), (2, 3, 0), (1, 3, 2), (1, 1, 0), (2, 2, 0), (2, 2, 1)]
FINITE_TRIPLES = [(1, 2, 0), (2, 3, 0), (1, 3, 2)]
INFINITE_TRIPLES = [(1, 1, 0), (2, 2, 0), (2, 2, 1)]
# r >= 3, where orbit i + 1 and orbit i - 1 differ mod r, so a sign error in
# an orbit offset shows: (3, 4, 1) has r < n, (3, 3, 1) has r == n.
ORBIT_TRIPLES = [(3, 4, 1), (3, 3, 1)]


@pytest.fixture
def t120():
    return validate_triple(1, 2, 0)


@pytest.fixture
def t110():
    return validate_triple(1, 1, 0)


@pytest.fixture
def t231():
    return validate_triple(2, 3, 1)
