"""Parameter validation and the bound-quiver presentation."""

import pytest

from kgcert.errors import OmegaViolation
from kgcert.presentation import (
    ModelMode,
    build_bound_quiver,
    has_finite_global_dimension,
    quiver_to_json,
    validate_triple,
)


def test_validate_accepts_finite_mode():
    t = validate_triple(1, 2, 0)
    assert t.mode() is ModelMode.FINITE_GLDIM


def test_validate_accepts_infinite_mode():
    t = validate_triple(1, 1, 0)
    assert t.mode() is ModelMode.INFINITE_GLDIM


@pytest.mark.parametrize("r,n,m", [(3, 2, 0), (0, 1, 0), (1, 1, -1), (1.5, 2, 0), (1, 2, 0.5), (True, 2, 0)])
def test_validate_rejects(r, n, m):
    with pytest.raises(OmegaViolation):
        validate_triple(r, n, m)


def test_gldim_criterion():
    assert has_finite_global_dimension(validate_triple(1, 2, 0))
    assert not has_finite_global_dimension(validate_triple(1, 1, 0))
    assert not has_finite_global_dimension(validate_triple(2, 2, 5))


def test_quiver_dual_numbers():
    q = build_bound_quiver(validate_triple(1, 1, 0))
    assert q.vertices == (0,)
    assert len(q.arrows) == 1
    loop = q.arrows[0]
    assert (loop.source, loop.target) == (0, 0)
    assert q.relations == (("alpha_0", "alpha_0"),)


def test_quiver_auslander_algebra():
    q = build_bound_quiver(validate_triple(1, 2, 0))
    assert q.vertices == (0, 1)
    assert [(a.source, a.target) for a in q.arrows] == [(0, 1), (1, 0)]
    assert q.relations == (("alpha_0", "alpha_1"),)


def test_quiver_with_tail():
    q = build_bound_quiver(validate_triple(2, 3, 1))
    assert q.vertices == (-1, 0, 1, 2)
    assert len(q.arrows) == 4
    assert q.relations == (("alpha_2", "alpha_1"), ("alpha_0", "alpha_2"))


@pytest.mark.parametrize("r,n,m", [(1, 2, 0), (2, 3, 1), (3, 3, 2), (2, 5, 0)])
def test_quiver_invariants(r, n, m):
    t = validate_triple(r, n, m)
    q = build_bound_quiver(t)
    assert len(q.vertices) == n + m
    assert len(q.arrows) == n + m
    assert len(q.relations) == r
    by_name = {a.name: a for a in q.arrows}
    for later, earlier in q.relations:
        # length-2 path: the earlier arrow ends where the later one starts
        assert by_name[earlier].target == by_name[later].source
    # deterministic
    assert build_bound_quiver(t) == q


def test_quiver_json_mode_field():
    assert quiver_to_json(validate_triple(1, 2, 0))["mode"] == "finite"
    assert quiver_to_json(validate_triple(2, 2, 0))["mode"] == "infinite"
