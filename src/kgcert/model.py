"""Coordinate model of the perfect-complex category for a parameter triple.

Objects are vertices tagged by family (X, Y, Z), a cyclic orbit index, and a
point of Z^2; each vertex carries finitely many outgoing-arrow *fans*: per
(target family, target orbit, degree) one difference-bound region of target
coordinates.  Hom spaces have the arrows plus identities as basis, and the
composite of two basis arrows is the unique arrow with the summed degree and
the composed endpoints when that arrow exists, and zero otherwise.  No scalar
arithmetic is needed anywhere: all relations are monomial with coefficient 1,
so images and dimensions are basis-subset combinatorics.

Two modes share this module: r < n, with families X, Y and Z and degrees
{0, 1, 2}, and r == n, with X alone and degrees {0, 1}.  Each mode's fans
and index sets are one table, ``_FANS[t.is_finite_mode]``: per source family
of a vertex (a, b) on orbit i, the index set's hi_d term (a bound on a - b)
and the fan rows in degree order, each (target family, orbit step, degree,
excludes_src, lo_x, hi_x, lo_y, hi_y).  A bound term is None, the infinity
of its side, or (A or B, offset): a or b plus an offset of ``_offsets``.

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

A vertex is a ``VertexId`` that ``vertex_valid`` accepts, by the one rule:
its (family, orbit) is a channel, a key of ``index_regions(t)``, its orbit
and coordinates are of type int (a bool, float or int subclass is not), and
its coordinates lie in that channel's index region.  ``index_region``
raises ``InvalidVertex`` for a pair that is no channel.

Every vertex has one cached fan record, the ``ArrowFan`` that
``_fan_entries`` builds from its rows: the vertex, the fan entries in degree
order, a read-only ``{(family, orbit, degree): FanEntry}`` mapping of them,
and the sink pair of ``ar_sink_maps``.  ``arrow_fan`` returns the record
itself, which is never hashed (its mapping is not hashable).  The readers
take it through ``_record``, which gives ``None`` for a non-vertex.  Every
reader answers by one rule inside one fan entry, ``_in_entry``:
``_has_arrow`` looks one channel up, for ``arrow_exists``, the certifier
and ``functors``; ``_degrees`` walks the entries in degree order, for
``hom_basis`` and ``functors``' pointwise route, once ``_hom_record`` has
validated both ends.  ``_has_arrow`` alone does not validate ``dst``: every
fan region of a valid source lies inside the index region of its target
channel, so an int point in it is a vertex, and an unknown family, orbit
or degree misses the mapping.
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

_new = tuple.__new__

FAMILY_X = "X"
FAMILY_Y = "Y"
FAMILY_Z = "Z"


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


A, B, TOP = 0, 1, "top"  # a bound term's coordinate, the source's a or b; the mode's top degree
_M0, _ML, _N0, _NL = 1, 2, 3, 4  # the offsets [i=0]m, [i=last]m, -[i=0]n, -[i=last]n; 0 is 0
_X_SAME = (FAMILY_X, 0, 0, True, (A, 0), (B, _M0), (B, 0), None)
_X_NEXT = (FAMILY_X, 1, TOP, False, None, (A, _ML), (A, 0), (B, _M0))
_FANS = {
    True: {
        FAMILY_X: (_M0, (_X_SAME, (FAMILY_Z, 0, 1, False, (A, 0), (B, _M0), None, None), _X_NEXT)),
        FAMILY_Y: (_N0, ((FAMILY_Y, 0, 0, True, (A, 0), (B, _N0), (B, 0), None),
                         (FAMILY_Z, 0, 1, False, None, None, (A, 0), (B, _N0)),
                         (FAMILY_Y, 1, TOP, False, None, (A, _NL), (A, 0), (B, _N0)))),
        FAMILY_Z: (None, ((FAMILY_Z, 0, 0, True, (A, 0), None, (B, 0), None),
                          (FAMILY_X, 1, 1, False, None, (A, _ML), (A, 0), None),
                          (FAMILY_Y, 1, 1, False, None, (B, _NL), (B, 0), None),
                          (FAMILY_Z, 1, TOP, False, None, (A, _ML), None, (B, _NL)))),
    },
    False: {FAMILY_X: (_M0, (_X_SAME, _X_NEXT))},  # the r < n X rows without the Z entry
}
_NO_FAMILY = {True: "unknown family {!r}", False: "family {} does not exist when r == n"}


def _offsets(t: GentleTriple, i: int) -> tuple:
    """The offsets at orbit i, indexed as the table's terms name them."""
    d0 = 1 if i == 0 else 0
    dr = 1 if i == t.orbit_count - 1 else 0
    return (0, d0 * t.m, dr * t.m, -d0 * t.n, -dr * t.n)


@lru_cache(maxsize=64)
def _fan_rows(t: GentleTriple) -> dict:
    """{(family, orbit): the family's rows at that orbit, with target orbit and degree resolved and each
    bound as (index into (a, b, -inf, inf), offset), None as the infinity of its side}, in channel order."""
    return {
        (family, i): tuple(
            (fam, (i + step) % t.orbit_count, t.max_degree if degree is TOP else degree, excludes, *[
                (2 + j % 2, 0) if term is None else (term[0], _offsets(t, i)[term[1]])
                for j, term in enumerate(bounds)])  # lo_x, hi_x, lo_y, hi_y
            for fam, step, degree, excludes, *bounds in rows)
        for family, (_, rows) in _FANS[t.is_finite_mode].items() for i in range(t.orbit_count)
    }


@lru_cache(maxsize=64)
def index_regions(t: GentleTriple) -> MappingProxyType:
    """Read-only {channel (family, orbit): its index region}, the keys of ``_fan_rows`` in order."""
    return MappingProxyType({
        (family, i): regions.FULL if hi_d is None else Region(hi_d=_offsets(t, i)[hi_d])
        for family, (hi_d, _) in _FANS[t.is_finite_mode].items() for i in range(t.orbit_count)
    })


def index_region(t: GentleTriple, family: str, orbit: int) -> Region:
    """The index region of the channel (family, orbit); InvalidVertex when it is no channel or a non-int orbit."""
    reg = index_regions(t).get((family, orbit)) if type(orbit) is int else None
    if reg is None:
        if family not in _FANS[t.is_finite_mode]:
            raise InvalidVertex(_NO_FAMILY[t.is_finite_mode].format(family))
        raise InvalidVertex(f"family {family} has no orbit {orbit!r}; orbits are 0 to {t.orbit_count - 1}")
    return reg


def vertex_valid(t: GentleTriple, v: VertexId) -> bool:
    """True iff v is a vertex, by the rule the module docstring states."""
    reg = index_regions(t).get((v.family, v.orbit))
    if reg is None:
        return False
    a, b = v.coord
    return type(v.orbit) is int and type(a) is int and type(b) is int and regions.member(reg, v.coord)


@lru_cache(maxsize=65536)
def _fan_entries(t: GentleTriple, v: VertexId) -> ArrowFan | None:
    """The fan record of v, or None when v is not a vertex of the model; read through ``_record``."""
    if not vertex_valid(t, v):
        return None
    family, orbit, (a, b) = v
    # A vertex's coordinates and an admissible triple's m and n are ints, so every bound is an int or
    # the infinity of its side, and the boxes skip Region's validation.  A zero offset is never added:
    # an infinity plus 0 is a new float, one per infinite bound of every cached record.  The record's
    # NamedTuples are built by tuple.__new__ with every field given, which is what their classes'
    # __new__ does, without its Python call.
    p = (a, b, regions.NEG_INF, regions.POS_INF)
    unchecked = regions._unchecked
    entries = tuple([
        _new(FanEntry, (fam, i, degree, unchecked(p[k0] + o0 if o0 else p[k0], p[k1] + o1 if o1 else p[k1],
                                                  p[k2] + o2 if o2 else p[k2], p[k3] + o3 if o3 else p[k3]), excludes))
        for fam, i, degree, excludes, (k0, o0), (k1, o1), (k2, o2), (k3, o3) in _fan_rows(t)[family, orbit]
    ])
    channels = {e[:3]: e for e in entries}  # (family, orbit, degree)
    # The sink targets are never v itself, so excludes_src cannot apply.
    same = channels[(family, orbit, 0)].region
    sinks = []
    for w in ((a + 1, b), (a, b + 1)):
        sinks.append(_new(ArrowMorphism, (v, _new(VertexId, (family, orbit, w)), 0)) if regions.member(same, w) else ZERO)
    return _new(ArrowFan, (v, entries, MappingProxyType(channels), tuple(sinks)))


def _record(t: GentleTriple, v: VertexId) -> ArrowFan | None:
    """The fan record of v, or None when v is not a vertex.  The type tests of
    :func:`vertex_valid` come first: the cache keys on equality, so
    Z:True:(1,0) or Z:1:(1.0,0) would hit the record of Z:1:(1,0)."""
    a, b = v.coord
    return _fan_entries(t, v) if type(v.orbit) is int and type(a) is int and type(b) is int else None


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
    """True iff src and dst are vertices and there is a (unique) basis arrow
    src -> dst of this degree."""
    rec = _record(t, src)
    return rec is not None and vertex_valid(t, dst) and _has_arrow(rec, dst, degree)


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
    return arrow_fan(t, v).sinks


def vertices_in_box(t: GentleTriple, x0: int, x1: int, y0: int, y1: int) -> list:
    """All valid vertices with coordinates in [x0,x1] x [y0,y1], in family,
    orbit, x, y order."""
    window = regions.box(x0, x1, y0, y1)
    return [
        _new(VertexId, (family, orbit, p))
        for (family, orbit), reg in index_regions(t).items()
        for p in regions.enumerate_points(reg, window)
    ]
