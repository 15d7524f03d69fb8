"""Coordinate model of the perfect-complex category for a parameter triple.

Objects are vertices tagged by family (X, Y, Z), a cyclic orbit index, and a
point of Z^2; each vertex carries finitely many outgoing-arrow *fans*: per
(target family, target orbit, degree) one difference-bound region of target
coordinates.  Hom spaces have the arrows plus identities as basis, and the
composite of two basis arrows is the unique arrow with the summed degree and
the composed endpoints when that arrow exists, and zero otherwise.  No scalar
arithmetic is needed anywhere: all relations are monomial with coefficient 1,
so images and dimensions are basis-subset combinatorics.

Two modes share this module.  When r < n there are three families and degrees
{0, 1, 2}; degree-1 arrows connect X/Y to Z within an orbit, degree-1 arrows
out of Z and all degree-2 arrows raise the orbit by one (mod r).  When r == n
only the X family exists, with degrees {0, 1}, and degree-1 arrows raise the
orbit (mod n): its fan is the r < n X fan without the Z entry, with the
orbit-raising arrow at the top degree.

Vertices, identities, arrows, fan entries, fan records and their regions
(``regions.Region``) are ``typing.NamedTuple`` values: building, hashing and
comparing them runs in C, where a frozen dataclass runs generated Python
code, and these values are built and used as dictionary and ``lru_cache``
keys millions of times per certificate.  The trade-off: a NamedTuple equals
a plain tuple with the same fields (and any other NamedTuple with them), so
code must not compare these values with plain tuples; a Region equals the
plain 6-tuple of its bounds.  ``_make`` and ``_replace`` build a value
without its class's checks, so a Region built that way is not validated.
Values of two different classes among these, ``GentleTriple`` and
``certifier.Simple1Instance`` never compare equal, because their field
counts or field types differ.  The zero morphism stays a dataclass, so it
equals no tuple.

Every valid vertex has one cached fan record, the ``ArrowFan`` that
``_fan_entries`` builds: the vertex, the fan entries in degree order, a
read-only ``{(family, orbit, degree): FanEntry}`` mapping of the same
entries, and the pair of sink maps ``ar_sink_maps`` returns.  ``arrow_fan``
returns that record itself, not a copy; it is never hashed (its mapping is
not hashable).  The record is the only place that validates a source vertex;
``_fan_entries`` gives ``None`` for a non-vertex.  The readers take the
record through ``_record``, so that a warm cache answers a bool or float
coordinate as a cold one does.  Every reader answers from the source's
record by one rule, ``_in_entry``, applied inside one fan entry: ``dst`` is
not a source the entry excludes, and one bound check.  ``_has_arrow`` looks
one channel up, for ``arrow_exists``, the certifier and ``functors``;
``_degrees`` walks the entries on ``dst``'s (family, orbit), which come in
degree order, for ``hom_basis`` and ``functors``' pointwise route.  None of
them validates ``dst``: every fan region of a valid source lies inside the
index region of its target channel, so a point in it is a valid vertex, and
an unknown family, orbit or degree misses the mapping.
``tests/test_model.py::test_fan_targets_are_valid_vertices`` pins that
containment.  A model that breaks it fails certification instead of
raising: a check that reaches a non-vertex fails its item.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from . import regions
from .errors import InvalidVertex, NotComposable
from .presentation import GentleTriple
from .regions import Region

FAMILY_X = "X"
FAMILY_Y = "Y"
FAMILY_Z = "Z"

_FINITE_FAMILIES = (FAMILY_X, FAMILY_Y, FAMILY_Z)
_INFINITE_FAMILIES = (FAMILY_X,)


def families(t: GentleTriple) -> tuple:
    return _FINITE_FAMILIES if t.is_finite_mode else _INFINITE_FAMILIES


class VertexId(NamedTuple):
    family: str
    orbit: int
    coord: tuple

    def __str__(self) -> str:
        a, b = self.coord
        return f"{self.family}:{self.orbit}:({a},{b})"


@dataclass(frozen=True)
class ZeroMorphism:
    def __str__(self) -> str:
        return "zero"


ZERO = ZeroMorphism()


class IdentityMorphism(NamedTuple):
    vertex: VertexId

    def __str__(self) -> str:
        return f"id@{self.vertex}"


class ArrowMorphism(NamedTuple):
    src: VertexId
    dst: VertexId
    degree: int

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}@{self.degree}"


# MorphismKey = ZeroMorphism | IdentityMorphism | ArrowMorphism


class FanEntry(NamedTuple):
    family: str
    orbit: int
    degree: int
    region: Region
    excludes_src: bool = False


class ArrowFan(NamedTuple):
    src: VertexId
    entries: tuple
    # Read-only {(family, orbit, degree): FanEntry}; derived from entries.
    channels: MappingProxyType
    sinks: tuple  # the pair ar_sink_maps returns


def index_region(t: GentleTriple, family: str, orbit: int) -> Region:
    """The coordinate constraint a vertex of this family and orbit satisfies."""
    d0 = 1 if orbit == 0 else 0
    if family == FAMILY_X:
        return Region(hi_d=d0 * t.m)  # a <= b + [i=0] m
    if not t.is_finite_mode:
        raise InvalidVertex(f"family {family} does not exist when r == n")
    if family == FAMILY_Y:
        return Region(hi_d=-d0 * t.n)  # a + [i=0] n <= b
    if family == FAMILY_Z:
        return regions.FULL
    raise InvalidVertex(f"unknown family {family!r}")


@lru_cache(maxsize=64)
def index_regions(t: GentleTriple) -> MappingProxyType:
    """Read-only {(family, orbit): index_region} over every channel of the
    model, in family-then-orbit order; built once per triple."""
    return MappingProxyType(
        {
            (family, orbit): index_region(t, family, orbit)
            for family in families(t)
            for orbit in range(t.orbit_count)
        }
    )


def vertex_valid(t: GentleTriple, v: VertexId) -> bool:
    reg = index_regions(t).get((v.family, v.orbit))
    return reg is not None and regions.member(reg, v.coord)


@lru_cache(maxsize=65536)
def _fan_entries(t: GentleTriple, v: VertexId) -> ArrowFan | None:
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
    # With int coordinates and parameters every bound below is an int or an
    # infinity of its side, so the boxes skip Region's validation; anything
    # else goes through regions.box, which raises as it always has.
    box = regions._unchecked if type(a) is type(b) is type(m) is type(n) is int else regions.box
    if v.family == FAMILY_X:  # when r == n: no Z entry, and the orbit-raising arrow has degree 1
        entries = (
            FanEntry(FAMILY_X, i, 0, box(a, b + d0 * m, b, regions.POS_INF), True),
            FanEntry(FAMILY_Z, i, 1, box(a, b + d0 * m, regions.NEG_INF, regions.POS_INF)),
            FanEntry(FAMILY_X, nxt, t.max_degree, box(regions.NEG_INF, a + dr * m, a, b + d0 * m)),
        )
        entries = tuple(e for e in entries if e.family in families(t))
    elif v.family == FAMILY_Y:
        entries = (
            FanEntry(FAMILY_Y, i, 0, box(a, b - d0 * n, b, regions.POS_INF), True),
            FanEntry(FAMILY_Z, i, 1, box(regions.NEG_INF, regions.POS_INF, a, b - d0 * n)),
            FanEntry(FAMILY_Y, nxt, 2, box(regions.NEG_INF, a - dr * n, a, b - d0 * n)),
        )
    else:  # Z family
        entries = (
            FanEntry(FAMILY_Z, i, 0, box(a, regions.POS_INF, b, regions.POS_INF), True),
            FanEntry(FAMILY_X, nxt, 1, box(regions.NEG_INF, a + dr * m, a, regions.POS_INF)),
            FanEntry(FAMILY_Y, nxt, 1, box(regions.NEG_INF, b - dr * n, b, regions.POS_INF)),
            FanEntry(FAMILY_Z, nxt, 2, box(regions.NEG_INF, a + dr * m, regions.NEG_INF, b - dr * n)),
        )
    channels = {(e.family, e.orbit, e.degree): e for e in entries}
    # The sink targets are never v itself, so excludes_src cannot apply.
    same = channels[(v.family, v.orbit, 0)].region
    sinks = tuple(
        ArrowMorphism(v, w, 0) if regions.member(same, w.coord) else ZERO
        for w in (VertexId(v.family, i, (a + 1, b)), VertexId(v.family, i, (a, b + 1)))
    )
    return ArrowFan(v, entries, MappingProxyType(channels), sinks)


def _record(t: GentleTriple, v: VertexId) -> ArrowFan | None:
    """``_fan_entries(t, v)``, the same on a warm cache as on a cold one.

    The cache keys on equality, and a bool or float coordinate equals an
    int: ``VertexId("Z", 0, (True, 0))`` hits the record of Z:0:(1,0).  A
    vertex whose coordinates are not both of type int therefore gets its
    record built afresh, and its fan boxes raise as on a cold cache.
    """
    rec = _fan_entries(t, v)
    if rec is not None:
        a, b = v.coord
        if type(a) is not int or type(b) is not int:
            return _fan_entries.__wrapped__(t, v)
    return rec


def arrow_fan(t: GentleTriple, v: VertexId) -> ArrowFan:
    """The cached fan record of v, shared by every caller."""
    fan = _record(t, v)
    if fan is None:
        raise InvalidVertex(f"not a vertex of the model: {v}")
    return fan


def _in_entry(e: FanEntry, src: VertexId, dst: VertexId) -> bool:
    """The existence rule inside one fan entry of src: dst is not a source
    the entry excludes, and dst lies in the entry's region."""
    return not (e.excludes_src and dst == src) and regions.member(e.region, dst.coord)


def _has_arrow(rec: ArrowFan, dst: VertexId, degree: int) -> bool:
    """The existence rule on the source's fan record: the channel of dst and
    degree is present, and :func:`_in_entry` holds there."""
    e = rec.channels.get((dst.family, dst.orbit, degree))
    return e is not None and _in_entry(e, rec.src, dst)


def arrow_exists(t: GentleTriple, src: VertexId, dst: VertexId, degree: int) -> bool:
    """True iff there is a (unique) basis arrow src -> dst of this degree.

    dst is not validated: see the module docstring.
    """
    rec = _record(t, src)
    return rec is not None and _has_arrow(rec, dst, degree)


def arrow_or_zero(t: GentleTriple, src: VertexId, dst: VertexId, degree: int):
    """The basis arrow when it exists, else the zero morphism.

    This realises the convention that a named map to an out-of-range target
    denotes the zero morphism.
    """
    return ArrowMorphism(src, dst, degree) if arrow_exists(t, src, dst, degree) else ZERO


def _hom_record(t: GentleTriple, u: VertexId, v: VertexId) -> ArrowFan:
    """u's fan record, for Hom(u, v): u is validated before v."""
    rec = arrow_fan(t, u)
    if not vertex_valid(t, v):
        raise InvalidVertex(f"not a vertex of the model: {v}")
    return rec


def _degrees(rec: ArrowFan, v: VertexId) -> list:
    """Degrees of the basis arrows from rec's vertex to v, ascending."""
    family, orbit, src = v.family, v.orbit, rec.src
    degrees = []
    for e in rec.entries:
        if e.family == family and e.orbit == orbit and _in_entry(e, src, v):
            degrees.append(e.degree)
    return degrees


def hom_basis(t: GentleTriple, u: VertexId, v: VertexId) -> list:
    """Basis of Hom(u, v): the identity (if u == v) then arrows by degree."""
    rec = _hom_record(t, u, v)
    return ([IdentityMorphism(u)] if u == v else []) + [ArrowMorphism(u, v, d) for d in _degrees(rec, v)]


def source_of(k):
    if isinstance(k, IdentityMorphism):
        return k.vertex
    if isinstance(k, ArrowMorphism):
        return k.src
    return None


def target_of(k):
    if isinstance(k, IdentityMorphism):
        return k.vertex
    if isinstance(k, ArrowMorphism):
        return k.dst
    return None


def compose(t: GentleTriple, g, f):
    """The composite g o f (f first).

    Zero absorbs.  Identities are neutral when the endpoint matches.  For two
    arrows the composite is the unique arrow with the summed degree between
    the outer endpoints if that arrow exists, and zero otherwise.
    """
    if isinstance(f, ZeroMorphism) or isinstance(g, ZeroMorphism):
        return ZERO
    if source_of(g) != target_of(f):
        raise NotComposable(f"cannot compose {g} after {f}")
    if isinstance(f, IdentityMorphism):
        return g
    if isinstance(g, IdentityMorphism):
        return f
    return arrow_or_zero(t, f.src, g.dst, f.degree + g.degree)


def ar_sink_maps(t: GentleTriple, v: VertexId):
    """The two degree-0 maps v -> v+(1,0) and v -> v+(0,1).

    Each is replaced by the zero morphism when the shifted coordinate leaves
    the family's index set; the surviving pair generates the denominator of
    the simple quotient attached to v.
    """
    rec = _record(t, v)
    if rec is None:
        raise InvalidVertex(f"not a vertex of the model: {v}")
    return rec.sinks


def vertices_in_box(t: GentleTriple, x0: int, x1: int, y0: int, y1: int) -> list:
    """All valid vertices with coordinates in [x0,x1] x [y0,y1], in family,
    orbit, x, y order."""
    window = regions.box(x0, x1, y0, y1)
    return [
        VertexId(family, orbit, p)
        for (family, orbit), reg in index_regions(t).items()
        for p in regions.enumerate_points(reg, window)
    ]
