"""The fan geometry of :mod:`kgcert.model` written out as hand-written
branches, one per family, as a reference for the model's table.

``fan_record`` and ``index_region`` state the index sets and fans family by
family; ``test_model.py::test_fan_table_matches_the_reference_branches``
compares the model with them at every point of [-6,6]^2.  Nothing here is
cached, and nothing reads the model's table.
"""

from types import MappingProxyType

from kgcert import regions
from kgcert.errors import InvalidVertex
from kgcert.model import ZERO, ArrowFan, ArrowMorphism, FanEntry, VertexId


def families(t):
    return ("X", "Y", "Z") if t.is_finite_mode else ("X",)


def index_region(t, family, orbit):
    """The coordinate constraint a vertex of this family and orbit satisfies."""
    d0 = 1 if orbit == 0 else 0
    if family == "X":
        return regions.Region(hi_d=d0 * t.m)  # a <= b + [i=0] m
    if not t.is_finite_mode:
        raise InvalidVertex(f"family {family} does not exist when r == n")
    if family == "Y":
        return regions.Region(hi_d=-d0 * t.n)  # a + [i=0] n <= b
    if family == "Z":
        return regions.FULL
    raise InvalidVertex(f"unknown family {family!r}")


def vertex_valid(t, v):
    return (
        v.family in families(t)
        and v.orbit in range(t.orbit_count)
        and regions.member(index_region(t, v.family, v.orbit), v.coord)
    )


def fan_record(t, v):
    """The fan record of v, or None when v is not a vertex of the model."""
    if not vertex_valid(t, v):
        return None
    a, b = v.coord
    i = v.orbit
    m, n = t.m, t.n
    d0 = 1 if i == 0 else 0
    R = t.orbit_count
    dr = 1 if i == R - 1 else 0
    nxt = (i + 1) % R
    box = regions._unchecked if type(a) is type(b) is type(m) is type(n) is int else regions.box
    lo, hi = regions.NEG_INF, regions.POS_INF
    if v.family == "X":  # when r == n: no Z entry, and the orbit-raising arrow has degree 1
        entries = (
            FanEntry("X", i, 0, box(a, b + d0 * m, b, hi), True),
            FanEntry("Z", i, 1, box(a, b + d0 * m, lo, hi)),
            FanEntry("X", nxt, t.max_degree, box(lo, a + dr * m, a, b + d0 * m)),
        )
        entries = tuple(e for e in entries if e.family in families(t))
    elif v.family == "Y":
        entries = (
            FanEntry("Y", i, 0, box(a, b - d0 * n, b, hi), True),
            FanEntry("Z", i, 1, box(lo, hi, a, b - d0 * n)),
            FanEntry("Y", nxt, 2, box(lo, a - dr * n, a, b - d0 * n)),
        )
    else:  # Z family
        entries = (
            FanEntry("Z", i, 0, box(a, hi, b, hi), True),
            FanEntry("X", nxt, 1, box(lo, a + dr * m, a, hi)),
            FanEntry("Y", nxt, 1, box(lo, b - dr * n, b, hi)),
            FanEntry("Z", nxt, 2, box(lo, a + dr * m, lo, b - dr * n)),
        )
    channels = {(e.family, e.orbit, e.degree): e for e in entries}
    same = channels[(v.family, v.orbit, 0)].region
    sinks = tuple(
        ArrowMorphism(v, w, 0) if regions.member(same, w.coord) else ZERO
        for w in (VertexId(v.family, i, (a + 1, b)), VertexId(v.family, i, (a, b + 1)))
    )
    return ArrowFan(v, entries, MappingProxyType(channels), sinks)
