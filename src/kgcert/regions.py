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
each bound through the third node is the exact closure (see :func:`_closure`).

Containment is decided in closed form as well (:func:`contains`): every
bound of a closed region with integer constants is attained by an integer
point, so ``inner`` lies in ``outer`` exactly when each closed bound of
``inner`` lies within the matching bound of ``outer``.

One routine, :func:`_closure`, closes six raw bounds into one region;
:func:`close`, :func:`intersect` and :func:`subtract` pass it a region's
bounds, a bound-wise meet and a piece's meet with ``a``, so no intermediate
region is built.  :func:`subtract` closes only pieces that can be nonempty:
it returns no piece at once when ``b`` contains the closed ``a`` (the
comparisons of :func:`contains`, shared through :func:`_within`), and it
stops its slot walk once the part of ``a`` inside ``b``'s slots so far has
a crossed pair of bounds, since every later piece lies in that part.  Both
exits skip only closures that would come out EMPTY, so the pieces and their
order stay those of the full walk.

A region is a ``NamedTuple`` of its six bounds in the order lo_x, hi_x,
lo_y, hi_y, lo_d, hi_d, so building, hashing and comparing one runs in C; it
equals the plain 6-tuple of its bounds.  ``Region(...)`` validates the
bounds.  One constructor, :func:`_unchecked`, builds the tuple without that
check; it serves the results of :func:`_closure` and the model's fan boxes,
whose bounds are valid by construction (see its docstring).  ``_make`` and
``_replace`` skip the check as well.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

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

_new = tuple.__new__


class _Bounds(NamedTuple):
    lo_x: object = NEG_INF
    hi_x: object = POS_INF
    lo_y: object = NEG_INF
    hi_y: object = POS_INF
    lo_d: object = NEG_INF
    hi_d: object = POS_INF


class Region(_Bounds):
    """Conjunction lo_x <= x <= hi_x, lo_y <= y <= hi_y, lo_d <= x-y <= hi_d."""

    __slots__ = ()

    def __new__(cls, lo_x=NEG_INF, hi_x=POS_INF, lo_y=NEG_INF, hi_y=POS_INF, lo_d=NEG_INF, hi_d=POS_INF):
        self = _new(cls, (lo_x, hi_x, lo_y, hi_y, lo_d, hi_d))
        self.__post_init__()
        return self

    # perfbench/tracer.py wraps __post_init__ by name to count validated
    # constructions.
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


def _unchecked(lo_x, hi_x, lo_y, hi_y, lo_d=NEG_INF, hi_d=POS_INF) -> Region:
    """A Region built without ``__post_init__``.

    :func:`_closure` passes bounds that are each a max, min, sum or
    difference of bounds of validated regions, of the matching kind: a max
    or min of two lower (upper) bounds, or a lower (upper) bound plus
    another lower (upper) bound, or minus an upper (lower) one.  Ints stay
    ints, and an infinity can only come from an infinity of the same sign,
    so lower bounds stay an int or -inf and upper bounds an int or +inf.
    :func:`subtract` also meets a's bounds with b's int bounds plus or
    minus 1, which stay ints.

    ``model._fan_entries`` builds every fan box here.  It builds a record
    for a vertex only, whose coordinates are ints, as are an admissible
    triple's m and n: each bound is a coordinate plus an offset of m or n,
    or the infinity of its side, and the d-bounds are infinite.
    """
    return _new(Region, (lo_x, hi_x, lo_y, hi_y, lo_d, hi_d))


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


def _closure(lo_x, hi_x, lo_y, hi_y, lo_d, hi_d):
    """The closed region of six raw bounds, or EMPTY if it has no point.

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
    # each bound through the third node, with d = x - y: x = y + d, y = x - d;
    # conditional expressions pick what max and min would, the first on a tie
    nlo_x = lo_x if lo_x >= (v := lo_y + lo_d) else v
    nhi_x = hi_x if hi_x <= (v := hi_y + hi_d) else v
    nlo_y = lo_y if lo_y >= (v := lo_x - hi_d) else v
    nhi_y = hi_y if hi_y <= (v := hi_x - lo_d) else v
    nlo_d = lo_d if lo_d >= (v := lo_x - hi_y) else v
    nhi_d = hi_d if hi_d <= (v := hi_x - lo_y) else v
    if nlo_x > nhi_x or nlo_y > nhi_y or nlo_d > nhi_d:
        return EMPTY
    return _unchecked(nlo_x, nhi_x, nlo_y, nhi_y, nlo_d, nhi_d)


def close(r):
    """Tightest equivalent bounds, or EMPTY if the denotation is empty."""
    if r is EMPTY:
        return EMPTY
    return _closure(*r)


def is_finite(r) -> bool:
    """True iff the denotation is a finite subset of Z^2."""
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
    """Closure of the bound-wise meet; EMPTY when the meet is empty."""
    if a is EMPTY or b is EMPTY:
        return EMPTY
    return _closure(
        a.lo_x if a.lo_x >= b.lo_x else b.lo_x,
        a.hi_x if a.hi_x <= b.hi_x else b.hi_x,
        a.lo_y if a.lo_y >= b.lo_y else b.lo_y,
        a.hi_y if a.hi_y <= b.hi_y else b.hi_y,
        a.lo_d if a.lo_d >= b.lo_d else b.lo_d,
        a.hi_d if a.hi_d <= b.hi_d else b.hi_d,
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
    return c is EMPTY or outer is not EMPTY and _within(outer, c)


def _within(outer, c) -> bool:
    """Each of the six bounds of c lies within the matching bound of outer."""
    return (
        outer.lo_x <= c.lo_x
        and c.hi_x <= outer.hi_x
        and outer.lo_y <= c.lo_y
        and c.hi_y <= outer.hi_y
        and outer.lo_d <= c.lo_d
        and c.hi_d <= outer.hi_d
    )


class _Pieces(NamedTuple):
    regions: tuple = ()


class RegionSet(_Pieces):
    """Finite union of regions, in no canonical form; EMPTY pieces are dropped.

    A ``NamedTuple`` of one field, the tuple of pieces, as :class:`Region` is
    of its bounds, so building, hashing and comparing one runs in C.  Its
    repr is ``RegionSet(regions=(...))`` and its hash that of the 1-tuple
    ``(regions,)``.  The trade-off: it also equals that plain 1-tuple, so
    code must not compare a RegionSet with plain tuples.  ``len`` and
    iteration run over the pieces, not over the one field, so copying and
    pickling pass the field by ``__getnewargs__``.
    """

    __slots__ = ()

    def __new__(cls, regions=()):
        regions = tuple(regions)
        if EMPTY in regions:
            regions = tuple(r for r in regions if r is not EMPTY)
        return _new(cls, (regions,))

    def __getnewargs__(self):
        return (self.regions,)

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


def subtract(a, b) -> RegionSet:
    """Set difference a \\ b as a union of at most six pairwise disjoint regions.

    Piece k is the meet of a with b's bounds in the slots before k (lo_x,
    hi_x, lo_y, hi_y, lo_d, hi_d) and with the violation of slot k: a lower bound
    v lowers its upper partner to v-1, an upper bound v raises its lower
    partner to v+1.  ``kept`` holds the meet of a with b's earlier slots,
    so each piece is one closure of six bounds.  The pieces are disjoint by
    construction, so cardinalities add up; each is closed and nonempty.

    Two exits skip closures that could only come out EMPTY, so the pieces
    and their order are those of the full walk.  When b contains the closed
    a (:func:`_within`, as in :func:`contains`), every piece is a point set
    of a outside b, so none is left.  And once ``kept`` has a lower bound
    above its upper partner it has no point, and every later piece is a
    meet with it, so the walk stops there.
    """
    a = close(a)
    if a is EMPTY:
        return RegionSet(())
    if b is EMPTY:
        return RegionSet((a,))
    if _within(b, a):
        return RegionSet(())
    kept = list(a)
    pieces = []
    for k, v in enumerate(b):
        if v == NEG_INF or v == POS_INF:
            continue  # a vacuous bound: its complement is empty
        bounds = kept.copy()
        if k % 2 == 0:
            lo, hi = k, k + 1
            if v - 1 < bounds[hi]:
                bounds[hi] = v - 1
            if v > kept[lo]:
                kept[lo] = v
        else:
            lo, hi = k - 1, k
            if v + 1 > bounds[lo]:
                bounds[lo] = v + 1
            if v < kept[hi]:
                kept[hi] = v
        piece = _closure(*bounds)
        if piece is not EMPTY:
            pieces.append(piece)
        if kept[lo] > kept[hi]:
            break  # kept is empty: every later piece would close to EMPTY
    return RegionSet(tuple(pieces))


def difference(pieces, covers) -> list:
    """The points of the pieces that lie in none of the covers, as a list of
    regions; closed and nonempty when at least one cover is given."""
    for cover in covers:
        pieces = [p for piece in pieces for p in subtract(piece, cover).regions]
    return list(pieces)


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


def region_to_json(r) -> dict:
    """Textual form {"x":[lo,hi],"y":[lo,hi],"diff":[lo,hi]} with inf sentinels."""
    if r is EMPTY:
        return {"empty": True}
    return {
        "x": [_bound_to_json(r.lo_x), _bound_to_json(r.hi_x)],
        "y": [_bound_to_json(r.lo_y), _bound_to_json(r.hi_y)],
        "diff": [_bound_to_json(r.lo_d), _bound_to_json(r.hi_d)],
    }
