"""Exact decision procedures for difference-bound subsets of Z^2.

A :class:`Region` is a conjunction of integer bounds on ``x``, ``y`` and the
difference ``x - y``; a :class:`RegionSet` is a finite union of regions.  This
is a zone / difference-bound-matrix shape restricted to two variables, which
is exactly the shape of every index set and arrow-target set the model uses.

All arithmetic is exact: coordinates are Python integers (arbitrary
precision) and the infinities are ``float('inf')`` sentinels, -inf only in
lower bounds and +inf only in upper bounds, so closure never forms inf - inf.

Emptiness, tightest bounds and finiteness are decided by shortest-path
closure over the three-node constraint graph {0, x, y}, never by enumeration.
On three nodes a shortest path has at most two edges, so one relaxation of
each bound through the third node is the exact closure (see :func:`close`).

Containment is decided in closed form as well (:func:`contains`): every
bound of a closed region with integer constants is attained by an integer
point, so ``inner`` lies in ``outer`` exactly when each closed bound of
``inner`` lies within the matching bound of ``outer``.

``Region(...)`` validates its six bounds.  The results of :func:`close` and
:func:`intersect` skip that check (see :func:`_unchecked`): each of their
bounds is a max, min, sum or difference of already validated bounds of the
same kind, so it is again an int or the matching infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InfiniteWindow

POS_INF = float("inf")
NEG_INF = float("-inf")

# Bound values are ints, or exactly one of the two float infinity sentinels
# (-inf only as a lower bound, +inf only as an upper bound).


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_lower(v, name: str) -> None:
    if not (_is_int(v) or v == NEG_INF):
        raise ValueError(f"{name} must be an integer or -inf, got {v!r}")


def _check_upper(v, name: str) -> None:
    if not (_is_int(v) or v == POS_INF):
        raise ValueError(f"{name} must be an integer or +inf, got {v!r}")


class _EmptyRegion:
    """Marker for the empty region (no point satisfies the constraints)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Empty"


EMPTY = _EmptyRegion()


@dataclass(frozen=True)
class Region:
    """Conjunction lo_x <= x <= hi_x, lo_y <= y <= hi_y, lo_d <= x-y <= hi_d."""

    lo_x: object = NEG_INF
    hi_x: object = POS_INF
    lo_y: object = NEG_INF
    hi_y: object = POS_INF
    lo_d: object = NEG_INF
    hi_d: object = POS_INF

    def __post_init__(self):
        _check_lower(self.lo_x, "lo_x")
        _check_lower(self.lo_y, "lo_y")
        _check_lower(self.lo_d, "lo_d")
        _check_upper(self.hi_x, "hi_x")
        _check_upper(self.hi_y, "hi_y")
        _check_upper(self.hi_d, "hi_d")

    def __repr__(self) -> str:
        def fmt(lo, hi):
            l = "-inf" if lo == NEG_INF else str(lo)
            h = "inf" if hi == POS_INF else str(hi)
            return f"[{l},{h}]"

        return (
            f"Region(x={fmt(self.lo_x, self.hi_x)}, y={fmt(self.lo_y, self.hi_y)},"
            f" d={fmt(self.lo_d, self.hi_d)})"
        )


FULL = Region()

_new_object = object.__new__


def _unchecked(lo_x, hi_x, lo_y, hi_y, lo_d, hi_d) -> Region:
    """A Region built without ``__post_init__``; only for :func:`close` and
    :func:`intersect`.

    Safe because every bound they pass is a max, min, sum or difference of
    bounds of validated regions, of the matching kind: a max or min of two
    lower (upper) bounds, or a lower (upper) bound plus another lower (upper)
    bound, or minus an upper (lower) one.  Ints stay ints, and an infinity
    can only come from an infinity of the same sign, so lower bounds stay an
    int or -inf and upper bounds an int or +inf.  The result equals, and
    hashes like, ``Region(*bounds)``.
    """
    r = _new_object(Region)
    d = r.__dict__
    d["lo_x"] = lo_x
    d["hi_x"] = hi_x
    d["lo_y"] = lo_y
    d["hi_y"] = hi_y
    d["lo_d"] = lo_d
    d["hi_d"] = hi_d
    return r


def box(lo_x, hi_x, lo_y, hi_y) -> Region:
    """Axis-aligned product [lo_x, hi_x] x [lo_y, hi_y] (no diff constraint)."""
    return Region(lo_x=lo_x, hi_x=hi_x, lo_y=lo_y, hi_y=hi_y)


def point(x: int, y: int) -> Region:
    return Region(lo_x=x, hi_x=x, lo_y=y, hi_y=y)


def member(r, p: tuple) -> bool:
    """True iff p satisfies all six bounds of r."""
    if r is EMPTY:
        return False
    x, y = p
    return (
        r.lo_x <= x <= r.hi_x
        and r.lo_y <= y <= r.hi_y
        and r.lo_d <= x - y <= r.hi_d
    )


def close(r):
    """Tightest equivalent bounds, or EMPTY if the denotation is empty.

    The bounds are the edges of a difference-bound graph on the three nodes
    0, x and y (u - v <= c for each bound).  Without a negative cycle, a
    shortest path visits each node at most once, so on three nodes it has at
    most two edges: every bound is tightened by one relaxation through the
    third node, computed from the original bounds.  A negative cycle (a
    two-cycle lo > hi, or a three-cycle such as hi_x - lo_y < lo_d) shows up
    as a tightened lower bound above its tightened upper bound.  This is the
    Floyd-Warshall closure of the graph in closed form.  No inf - inf
    arises: lower bounds are never +inf and upper bounds never -inf.
    """
    if r is EMPTY:
        return EMPTY
    lo_x, hi_x, lo_y, hi_y, lo_d, hi_d = r.lo_x, r.hi_x, r.lo_y, r.hi_y, r.lo_d, r.hi_d
    # each bound through the third node, with d = x - y: x = y + d, y = x - d
    nlo_x = max(lo_x, lo_y + lo_d)
    nhi_x = min(hi_x, hi_y + hi_d)
    nlo_y = max(lo_y, lo_x - hi_d)
    nhi_y = min(hi_y, hi_x - lo_d)
    nlo_d = max(lo_d, lo_x - hi_y)
    nhi_d = min(hi_d, hi_x - lo_y)
    if nlo_x > nhi_x or nlo_y > nhi_y or nlo_d > nhi_d:
        return EMPTY
    return _unchecked(nlo_x, nhi_x, nlo_y, nhi_y, nlo_d, nhi_d)


def is_finite(r) -> bool:
    """True iff the denotation is a finite subset of Z^2."""
    if r is EMPTY:
        return True
    c = close(r)
    if c is EMPTY:
        return True
    return (
        c.lo_x != NEG_INF
        and c.hi_x != POS_INF
        and c.lo_y != NEG_INF
        and c.hi_y != POS_INF
    )


def intersect(a, b):
    """Bound-wise meet followed by closure; EMPTY when the meet is empty."""
    if a is EMPTY or b is EMPTY:
        return EMPTY
    return close(
        _unchecked(
            max(a.lo_x, b.lo_x),
            min(a.hi_x, b.hi_x),
            max(a.lo_y, b.lo_y),
            min(a.hi_y, b.hi_y),
            max(a.lo_d, b.lo_d),
            min(a.hi_d, b.hi_d),
        )
    )


def contains(outer, inner) -> bool:
    """True iff the denotation of inner is a subset of that of outer.

    Closes inner once and compares its six bounds with outer's.  Exact: each
    bound of a closed integer difference-bound region is attained by an
    integer point of it, so a closed bound beyond outer's names a point of
    inner outside outer.  An EMPTY inner is contained in everything; an EMPTY
    outer contains only an empty inner.
    """
    c = close(inner)
    if c is EMPTY:
        return True
    if outer is EMPTY:
        return False
    return (
        outer.lo_x <= c.lo_x
        and c.hi_x <= outer.hi_x
        and outer.lo_y <= c.lo_y
        and c.hi_y <= outer.hi_y
        and outer.lo_d <= c.lo_d
        and c.hi_d <= outer.hi_d
    )


@dataclass(frozen=True)
class RegionSet:
    """Finite union of regions.  No canonical form; pieces may be empty-free."""

    regions: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "regions", tuple(r for r in self.regions if r is not EMPTY)
        )

    def member(self, p: tuple) -> bool:
        return any(member(r, p) for r in self.regions)

    def is_finite(self) -> bool:
        return all(is_finite(r) for r in self.regions)

    def is_empty(self) -> bool:
        return all(close(r) is EMPTY for r in self.regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)


# The six constraint slots of a region, as (attribute, is_lower) pairs.
_SLOTS = (
    ("lo_x", True),
    ("hi_x", False),
    ("lo_y", True),
    ("hi_y", False),
    ("lo_d", True),
    ("hi_d", False),
)


def subtract(a, b) -> RegionSet:
    """Set difference a \\ b as a union of at most six pairwise disjoint regions.

    Piece k keeps the first k-1 constraints of b and violates the k-th
    (not(v >= lo) <=> v <= lo-1, not(v <= hi) <=> v >= hi+1), so the pieces
    are disjoint by construction and cardinalities add up.
    """
    if a is EMPTY:
        return RegionSet(())
    a = close(a)
    if a is EMPTY:
        return RegionSet(())
    if b is EMPTY:
        return RegionSet((a,))
    pieces = []
    kept: dict = {}
    for slot, is_lower in _SLOTS:
        value = getattr(b, slot)
        if (is_lower and value == NEG_INF) or (not is_lower and value == POS_INF):
            continue  # constraint is vacuous, complement is empty
        constraint = dict(kept)
        if is_lower:
            nslot, nval = slot.replace("lo", "hi"), value - 1
            constraint[nslot] = min(constraint.get(nslot, POS_INF), nval)
        else:
            nslot, nval = slot.replace("hi", "lo"), value + 1
            constraint[nslot] = max(constraint.get(nslot, NEG_INF), nval)
        piece = intersect(a, Region(**constraint))
        if piece is not EMPTY:
            pieces.append(piece)
        kept[slot] = value
    return RegionSet(tuple(pieces))


def regionset_subtract(rs: RegionSet, b) -> RegionSet:
    """Subtract one region from every piece of a union."""
    out = []
    for r in rs:
        out.extend(subtract(r, b).regions)
    return RegionSet(tuple(out))


def regionset_contains(inner: RegionSet, outer: RegionSet) -> bool:
    """True iff the denotation of inner is a subset of the denotation of outer."""
    remaining = inner
    for r in outer:
        remaining = regionset_subtract(remaining, r)
    return remaining.is_empty()


def enumerate_points(r, window) -> list:
    """Sorted list of all points of r inside the (finite) window region.

    The closed meet of r and the window has finite bounds on x, y and x - y.
    Its points with first coordinate x are exactly the y in
    [max(lo_y, x - hi_d), min(hi_y, x - lo_d)], so each row is emitted as an
    integer range without testing any point.
    """
    if not is_finite(window):
        raise InfiniteWindow(f"window is not finite: {window!r}")
    c = intersect(r, window)
    if c is EMPTY:
        return []
    lo_y, hi_y, lo_d, hi_d = int(c.lo_y), int(c.hi_y), int(c.lo_d), int(c.hi_d)
    pts = []
    for x in range(int(c.lo_x), int(c.hi_x) + 1):
        pts.extend((x, y) for y in range(max(lo_y, x - hi_d), min(hi_y, x - lo_d) + 1))
    return pts


def _bound_to_json(v):
    if v == POS_INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
    return v


def _bound_from_json(v):
    if v == "inf":
        return POS_INF
    if v == "-inf":
        return NEG_INF
    return int(v)


def region_to_json(r) -> dict:
    """Textual form {"x":[lo,hi],"y":[lo,hi],"diff":[lo,hi]} with inf sentinels."""
    if r is EMPTY:
        return {"empty": True}
    return {
        "x": [_bound_to_json(r.lo_x), _bound_to_json(r.hi_x)],
        "y": [_bound_to_json(r.lo_y), _bound_to_json(r.hi_y)],
        "diff": [_bound_to_json(r.lo_d), _bound_to_json(r.hi_d)],
    }


def region_from_json(d: dict):
    if d.get("empty"):
        return EMPTY
    return Region(
        lo_x=_bound_from_json(d["x"][0]),
        hi_x=_bound_from_json(d["x"][1]),
        lo_y=_bound_from_json(d["y"][0]),
        hi_y=_bound_from_json(d["y"][1]),
        lo_d=_bound_from_json(d["diff"][0]),
        hi_d=_bound_from_json(d["diff"][1]),
    )
