"""Region algebra: worked examples plus randomized brute-force oracles."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgcert import regions as R
from kgcert.errors import InfiniteWindow
from kgcert.regions import EMPTY, NEG_INF, POS_INF, Region


def bf_points(reg, bound):
    """Brute-force point list on [-bound, bound]^2 straight from the bounds."""
    return [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if R.member(reg, (x, y))
    ]


# -- closure -------------------------------------------------------------------


def test_close_contradictory_is_empty():
    assert R.close(Region(lo_x=2, hi_x=1)) is EMPTY


def test_close_tightens_diff_over_box():
    c = R.close(R.box(0, 3, 1, 2))
    pts = bf_points(R.box(0, 3, 1, 2), 10)
    assert c.lo_d == min(x - y for x, y in pts) == -2
    assert c.hi_d == max(x - y for x, y in pts) == 2


def test_close_propagates_diff_to_x():
    c = R.close(Region(hi_d=0, hi_y=5))
    assert c.hi_x == 5


def test_close_preserves_membership():
    reg = Region(lo_x=-1, hi_d=3, lo_y=0)
    c = R.close(reg)
    for p in [(x, y) for x in range(-5, 6) for y in range(-5, 6)]:
        assert R.member(reg, p) == R.member(c, p)


# -- membership ----------------------------------------------------------------


def test_member_halfplane_examples():
    # a <= b style constraint and its shifted variant
    assert R.member(Region(hi_d=0), (0, 1))
    assert not R.member(Region(hi_d=-2), (0, 1))
    assert R.member(R.FULL, (123456, -987654))


# -- finiteness ----------------------------------------------------------------


def test_is_finite_box():
    assert R.is_finite(R.box(0, 3, 1, 2))


def test_is_finite_open_strip_false():
    reg = R.close(Region(lo_x=0, hi_x=1, lo_y=0, hi_d=0))
    assert not R.is_finite(reg)
    # growth oracle: the point count keeps increasing with the window
    assert len(bf_points(reg, 10)) < len(bf_points(reg, 20))


def test_is_finite_closure_forced():
    reg = Region(hi_x=0, lo_y=0, hi_y=5, lo_d=-3)
    assert R.is_finite(reg)
    assert len(bf_points(reg, 10)) == len(bf_points(reg, 20))


def test_empty_is_finite():
    assert R.is_finite(EMPTY)


# -- intersection ----------------------------------------------------------------


def test_intersect_idempotent():
    a = Region(lo_x=0, hi_x=5, lo_d=-1)
    assert R.intersect(a, a) == R.close(a)


def test_intersect_boxes():
    got = R.intersect(Region(lo_x=0, hi_x=5), Region(lo_y=2, hi_y=3))
    want = R.close(R.box(0, 5, 2, 3))
    assert got == want


def test_intersect_disjoint_diff():
    assert R.intersect(Region(hi_d=0), Region(lo_d=1)) is EMPTY


# -- subtraction -----------------------------------------------------------------


def test_subtract_self_empty():
    a = R.box(0, 4, 0, 4)
    assert R.subtract(a, a).is_empty()


def test_subtract_inner_box_cardinality():
    outer = R.box(0, 5, 0, 5)
    inner = R.box(2, 3, 2, 3)
    diff = R.subtract(outer, inner)
    pts = {p for piece in diff for p in bf_points(piece, 10)}
    assert len(pts) == 36 - 4
    # pieces are pairwise disjoint
    total = sum(len(bf_points(piece, 10)) for piece in diff)
    assert total == len(pts)


def test_subtract_empty_gives_whole():
    a = R.box(0, 2, 0, 2)
    out = R.subtract(a, EMPTY)
    assert len(out) == 1 and out.regions[0] == R.close(a)


def test_region_set_is_a_value():
    """A RegionSet drops EMPTY pieces and keeps the others in order; its repr
    and hash are those it had as a frozen dataclass (the hash of the 1-tuple
    of its pieces); two sets are equal exactly when their pieces are, in
    order; it copies and pickles as itself; and, as a NamedTuple, it equals
    the plain 1-tuple of its pieces."""
    import copy
    import pickle

    a, b = R.box(0, 1, 0, 1), Region(lo_x=2, hi_d=0)
    rs = R.RegionSet([EMPTY, a, EMPTY, b])
    assert rs.regions == (a, b) and list(rs) == [a, b] and len(rs) == 2
    assert repr(rs) == (
        "RegionSet(regions=(Region(x=[0,1], y=[0,1], d=[-inf,inf]),"
        " Region(x=[2,inf], y=[-inf,inf], d=[-inf,0])))"
    )
    assert repr(R.RegionSet()) == "RegionSet(regions=())" and R.RegionSet(regions=(EMPTY,)) == R.RegionSet()
    assert hash(rs) == hash(((a, b),)) and hash(R.RegionSet()) == hash(((),))
    assert rs == R.RegionSet((a, b)) and hash(rs) == hash(R.RegionSet((a, EMPTY, b)))
    assert rs != R.RegionSet((b, a)) and rs != R.RegionSet((a,))
    assert copy.copy(rs) == rs and copy.deepcopy(rs) == rs
    assert type(pickle.loads(pickle.dumps(rs))) is R.RegionSet and pickle.loads(pickle.dumps(rs)) == rs
    assert rs == ((a, b),)
    assert R.subtract(a, a) == R.RegionSet() and R.subtract(a, EMPTY) == R.RegionSet((R.close(a),))


# -- enumeration -----------------------------------------------------------------


def test_enumerate_triangle():
    got = R.enumerate_points(Region(hi_d=0), R.box(0, 2, 0, 2))
    assert got == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_enumerate_empty():
    assert R.enumerate_points(EMPTY, R.box(-3, 3, -3, 3)) == []


def test_enumerate_full_plane_small_window():
    assert len(R.enumerate_points(R.FULL, R.box(0, 1, 0, 1))) == 4


def test_enumerate_rejects_infinite_window():
    with pytest.raises(InfiniteWindow):
        R.enumerate_points(R.FULL, Region(lo_x=0))


@pytest.mark.parametrize(
    "reg",
    [
        Region(lo_x=0, hi_x=1, lo_y=0, hi_d=0),  # upward strip
        Region(hi_d=0),  # half plane
        Region(lo_x=3),  # right half plane
    ],
)
def test_infinite_regions_grow_with_window(reg):
    assert not R.is_finite(reg)
    counts = [
        len(R.enumerate_points(reg, R.box(-k, k, -k, k))) for k in (6, 10, 14)
    ]
    assert counts[0] < counts[1] < counts[2]


# -- serialisation ----------------------------------------------------------------


def test_region_json_roundtrip():
    reg = Region(lo_x=-2, hi_y=7, lo_d=NEG_INF, hi_d=3)
    assert R.region_to_json(reg) == {"x": [-2, "inf"], "y": ["-inf", 7], "diff": ["-inf", 3]}
    assert R.region_to_json(R.EMPTY) == {"empty": True}


# -- randomized properties ---------------------------------------------------------

lowers = st.one_of(st.integers(-8, 8), st.just(NEG_INF))
uppers = st.one_of(st.integers(-8, 8), st.just(POS_INF))

random_regions = st.builds(
    Region,
    lo_x=lowers,
    hi_x=uppers,
    lo_y=lowers,
    hi_y=uppers,
    lo_d=lowers,
    hi_d=uppers,
)


@settings(max_examples=200, deadline=None)
@given(random_regions)
def test_close_idempotent_and_membership_invariant(reg):
    c = R.close(reg)
    if c is EMPTY:
        assert bf_points(reg, 12) == []
        return
    assert R.close(c) == c
    for p in [(-9, 3), (0, 0), (4, -7), (8, 8), (-8, 8)]:
        assert R.member(reg, p) == R.member(c, p)


def floyd_warshall_close(r):
    """The closure close() used to run: Floyd-Warshall over the constraint
    graph on (0, x, y), an edge u -> v of weight c encoding u - v <= c."""
    d = [
        [0, -r.lo_x, -r.lo_y],
        [r.hi_x, 0, r.hi_d],
        [r.hi_y, -r.lo_d, 0],
    ]
    for k in range(3):
        for i in range(3):
            if d[i][k] == POS_INF:
                continue
            for j in range(3):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    if d[0][0] < 0 or d[1][1] < 0 or d[2][2] < 0:
        return EMPTY

    def neg(v):
        return -v if v not in (POS_INF, NEG_INF) else (NEG_INF if v == POS_INF else POS_INF)

    return Region(
        lo_x=neg(d[0][1]),
        hi_x=d[1][0],
        lo_y=neg(d[0][2]),
        hi_y=d[2][0],
        lo_d=neg(d[2][1]),
        hi_d=d[1][2],
    )


# Regions whose x, y and diff intervals are each non-empty, so that any
# emptiness comes from a three-cycle such as hi_x - lo_y < lo_d.
consistent_regions = st.builds(
    lambda lx, wx, ly, wy, ld, wd: Region(
        lo_x=lx, hi_x=lx + wx, lo_y=ly, hi_y=ly + wy, lo_d=ld, hi_d=ld + wd
    ),
    st.integers(-8, 8),
    st.one_of(st.integers(0, 6), st.just(POS_INF)),
    st.integers(-8, 8),
    st.one_of(st.integers(0, 6), st.just(POS_INF)),
    st.integers(-8, 8),
    st.one_of(st.integers(0, 6), st.just(POS_INF)),
)


@settings(max_examples=600, deadline=None)
@given(st.one_of(random_regions, consistent_regions))
@example(Region(lo_x=0, hi_x=1, lo_y=0, hi_y=1, lo_d=3))  # hi_x - lo_y < lo_d
@example(Region(lo_x=5, hi_y=0, hi_d=4))  # lo_x > hi_y + hi_d
@example(Region(hi_x=0, lo_y=0, lo_d=1))  # hi_x < lo_y + lo_d
@example(Region(lo_d=2, hi_d=1))  # diff two-cycle with x, y unbounded
@example(R.FULL)
def test_close_matches_floyd_warshall(reg):
    got = R.close(reg)
    assert got == floyd_warshall_close(reg)
    if got is EMPTY:
        assert bf_points(reg, 12) == []


def test_close_three_cycle_emptiness():
    """Each pair of bounds is satisfiable, but x - y <= hi_x - lo_y = 1 < 3."""
    reg = Region(lo_x=0, hi_x=1, lo_y=0, hi_y=1, lo_d=3)
    assert R.close(Region(lo_x=0, hi_x=1, lo_y=0, hi_y=1)) is not EMPTY
    assert R.close(Region(lo_x=0, hi_x=1, lo_d=3)) is not EMPTY
    assert R.close(Region(lo_y=0, hi_y=1, lo_d=3)) is not EMPTY
    assert R.close(reg) is EMPTY


# -- validation, unchecked results and containment ---------------------------------


class _Int(int):
    pass


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"lo_x": True}, "lo_x must be an integer or -inf, got True"),
        ({"hi_y": 1.0}, "hi_y must be an integer or +inf, got 1.0"),
        ({"lo_d": POS_INF}, "lo_d must be an integer or -inf, got inf"),
        ({"hi_x": NEG_INF}, "hi_x must be an integer or +inf, got -inf"),
        ({"lo_y": "0"}, "lo_y must be an integer or -inf, got '0'"),
        ({"hi_d": None}, "hi_d must be an integer or +inf, got None"),
    ],
)
def test_region_rejects_bad_bounds(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Region(**kwargs)


def test_region_accepts_other_infinities_and_int_subclasses():
    r = Region(lo_x=-math.inf, hi_x=_Int(3), lo_y=_Int(-2), hi_y=math.inf, hi_d=0)
    assert r == Region(hi_x=3, lo_y=-2, hi_d=0)


any_regions = st.one_of(random_regions, consistent_regions)


@settings(max_examples=400, deadline=None)
@given(any_regions, any_regions)
def test_close_and_intersect_results_revalidate(a, b):
    """close, intersect and subtract build their results unchecked; each must
    equal, and hash like, the validated Region with the same bounds."""
    for got in (R.close(a), R.intersect(a, b), *R.subtract(a, b)):
        if got is EMPTY:
            continue
        bounds = (got.lo_x, got.hi_x, got.lo_y, got.hi_y, got.lo_d, got.hi_d)
        again = Region(*bounds)
        assert type(got) is Region
        assert tuple(got) == bounds
        assert again == got and hash(again) == hash(got)


_SLOTS = ("lo_x", "hi_x", "lo_y", "hi_y", "lo_d", "hi_d")


def _meet(a, b):
    """The bound-wise meet of a and b, unclosed, as {slot: bound}."""
    return {
        slot: (max if slot.startswith("lo") else min)(getattr(a, slot), getattr(b, slot))
        for slot in _SLOTS
    }


@settings(max_examples=400, deadline=None)
@given(st.one_of(any_regions, st.just(EMPTY)), st.one_of(any_regions, st.just(EMPTY)))
@example(EMPTY, R.FULL)
@example(R.box(0, 1, 0, 1), Region(lo_d=3))  # empty only through a three-cycle
def test_intersect_is_the_closed_meet_and_subtract_pieces_are_closed(a, b):
    """intersect(a, b) is close(Region(<bound-wise meet>)) field by field,
    EMPTY included; every piece of subtract(a, b) is its own closure."""
    want = EMPTY if EMPTY in (a, b) else R.close(Region(**_meet(a, b)))
    assert R.intersect(a, b) == want
    assert all(R.close(piece) == piece for piece in R.subtract(a, b))


def _subtract_contains(outer, inner):
    """The full slot walk, since subtract itself exits early by contains's
    comparisons."""
    return reference_subtract(inner, outer).is_empty()


THREE_CYCLE_EMPTY = Region(lo_x=0, hi_x=1, lo_y=0, hi_y=1, lo_d=3)


def _inner_region(outer, other, mode):
    """other itself ("free"); its closed meet with outer ("nested"); or, for
    a slot name, the unclosed bound-wise meet with that one bound of outer
    left out, so that only closure can show whether the bound still holds."""
    if mode == "free":
        return other
    if mode == "nested":
        return R.intersect(outer, other)
    if outer is EMPTY or other is EMPTY:
        return other
    bounds = _meet(outer, other)
    bounds[mode] = getattr(other, mode)
    return Region(**bounds)


@settings(max_examples=1000, deadline=None)
@given(
    st.one_of(any_regions, st.just(EMPTY)),
    st.one_of(any_regions, st.just(EMPTY)),
    st.sampled_from(("free", "nested") + _SLOTS),
)
@example(EMPTY, EMPTY, "free")
@example(EMPTY, THREE_CYCLE_EMPTY, "free")
@example(EMPTY, R.point(0, 0), "free")
@example(R.point(0, 0), THREE_CYCLE_EMPTY, "free")
@example(R.FULL, EMPTY, "free")
@example(Region(hi_d=2), R.box(0, 2, 0, POS_INF), "free")  # closed hi_d is 2
@example(Region(hi_d=1), R.box(0, 2, 0, POS_INF), "free")  # (2, 0) is outside
@example(R.box(NEG_INF, 2, NEG_INF, 2), Region(lo_x=0, hi_y=2, hi_d=0), "free")  # x <= y <= 2
@example(Region(lo_d=0), Region(lo_x=5, hi_y=5), "free")
@example(R.box(0, POS_INF, NEG_INF, 5), Region(lo_x=1, hi_y=5, lo_d=2), "nested")
def test_contains_matches_subtract(outer, other, mode):
    """contains(o, i) is subtract(i, o).is_empty(), with infinite bounds,
    EMPTY on either side and regions empty only through a three-cycle."""
    inner = _inner_region(outer, other, mode)
    got = R.contains(outer, inner)
    assert got == _subtract_contains(outer, inner)
    if mode == "nested":
        assert got


def test_contains_cases():
    assert R.contains(EMPTY, EMPTY)
    assert R.contains(EMPTY, THREE_CYCLE_EMPTY)
    assert not R.contains(EMPTY, R.FULL)
    assert R.contains(R.FULL, R.FULL)
    assert not R.contains(R.box(0, 5, 0, 5), R.FULL)
    # inner's raw x bound is 10, its closed one 2
    assert R.contains(R.box(0, 2, NEG_INF, 2), Region(lo_x=0, hi_x=10, hi_y=2, hi_d=0))


@settings(max_examples=150, deadline=None)
@given(random_regions, random_regions)
def test_intersect_member_oracle(a, b):
    got = R.intersect(a, b)
    for p in [(x, y) for x in range(-6, 7, 3) for y in range(-6, 7, 3)]:
        assert R.member(got, p) == (R.member(a, p) and R.member(b, p))


@settings(max_examples=150, deadline=None)
@given(random_regions, random_regions)
def test_subtract_member_oracle_and_disjoint(a, b):
    diff = R.subtract(a, b)
    pts = [(x, y) for x in range(-7, 8, 2) for y in range(-7, 8, 2)]
    for p in pts:
        assert diff.member(p) == (R.member(a, p) and not R.member(b, p))
    for p in pts:
        assert sum(1 for piece in diff if R.member(piece, p)) <= 1


def reference_subtract(a, b):
    """subtract as a full slot walk: no containment exit and no stop on an
    empty ``kept``, so every slot's piece is closed."""
    a = R.close(a)
    if a is EMPTY:
        return R.RegionSet(())
    if b is EMPTY:
        return R.RegionSet((a,))
    kept = list(a)
    pieces = []
    for k, v in enumerate(b):
        if v == NEG_INF or v == POS_INF:
            continue
        bounds = kept.copy()
        if k % 2 == 0:
            bounds[k + 1] = min(bounds[k + 1], v - 1)
            kept[k] = max(kept[k], v)
        else:
            bounds[k - 1] = max(bounds[k - 1], v + 1)
            kept[k] = min(kept[k], v)
        piece = R._closure(*bounds)
        if piece is not EMPTY:
            pieces.append(piece)
    return R.RegionSet(tuple(pieces))


def _cover(a, other, mode, step):
    """other itself ("free"); a cover of a's closure, each closed bound of a
    loosened by step, which may be infinite ("contains"); or, for a slot
    index k, other (or FULL for EMPTY) with slot k past a's closed partner bound by 1 + step (1
    for an infinite step), so that the slot walk's ``kept`` is empty from
    slot k on at the latest."""
    c = R.close(a)
    if mode == "free" or c is EMPTY:
        return other
    if mode == "contains":
        return Region(*(v - step if k % 2 == 0 else v + step for k, v in enumerate(c)))
    bounds = list(R.FULL if other is EMPTY else other)
    partner = c[mode + 1] if mode % 2 == 0 else c[mode - 1]
    if partner in (NEG_INF, POS_INF):
        return other
    past = 1 if step == POS_INF else step + 1
    bounds[mode] = partner + past if mode % 2 == 0 else partner - past
    return Region(*bounds)


@settings(max_examples=1500, deadline=None)
@given(
    st.one_of(any_regions, st.just(EMPTY)),
    st.one_of(any_regions, st.just(EMPTY)),
    st.sampled_from(("free", "contains") + tuple(range(6))),
    st.one_of(st.integers(0, 3), st.just(POS_INF)),
)
@example(R.box(0, 4, 0, 4), R.box(-1, 5, 0, 4), "free", 0)  # b contains a
@example(R.box(0, 4, 0, 4), R.box(0, 4, 0, 4), "free", 0)  # b is a
@example(R.box(0, 4, 0, 4), Region(lo_x=5), "free", 0)  # kept empty at lo_x
@example(R.box(0, 4, 0, 4), Region(lo_x=2, hi_x=1), "free", 0)  # crossed by b alone
@example(R.box(0, 4, 0, 4), Region(hi_x=3, lo_y=1, hi_d=-5), "free", 0)  # at hi_d, after pieces
@example(R.box(0, 4, 0, 4), Region(lo_d=1, hi_d=0), "free", 0)
@example(R.box(0, 1, 0, 1), Region(lo_x=0, lo_d=3), "free", 0)  # empty only through a three-cycle
def test_subtract_matches_the_full_slot_walk(a, other, mode, step):
    """subtract's two exits leave the pieces and their order as they are:
    covers that contain a, and covers that empty ``kept`` at each slot,
    with finite and infinite bounds."""
    b = _cover(a, other, mode, step)
    got = R.subtract(a, b)
    want = reference_subtract(a, b)
    assert got.regions == want.regions
    assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in want]
    if mode == "contains" and R.close(a) is not EMPTY:
        assert got.regions == ()


small_boxes = st.builds(
    lambda x0, dx, y0, dy, lo_d, hi_d: Region(x0, x0 + dx, y0, y0 + dy, lo_d, hi_d),
    st.integers(-3, 3),
    st.integers(-1, 3),
    st.integers(-3, 3),
    st.integers(-1, 3),
    lowers,
    uppers,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_boxes, max_size=3),
    st.lists(st.one_of(random_regions, small_boxes, st.just(EMPTY)), max_size=3),
)
def test_difference_matches_point_sets(pieces, covers):
    """difference leaves exactly the points of the pieces outside every
    cover; with a cover given, each returned region is closed and nonempty."""
    got = R.difference(pieces, covers)
    left = {p for piece in pieces for p in bf_points(piece, 6)}
    left -= {p for cover in covers for p in bf_points(cover, 6)}
    assert {p for r in got for p in bf_points(r, 6)} == left
    if covers:
        assert all(r is not EMPTY and R.close(r) == r for r in got)


@settings(max_examples=150, deadline=None)
@given(random_regions)
def test_is_finite_growth_oracle(reg):
    fin = R.is_finite(reg)
    grew = len(bf_points(reg, 25)) > len(bf_points(reg, 18))
    assert fin == (not grew)


def scan_points(r, window):
    """The window scan enumerate_points used to run: every point of the
    closed window's bounding box, tested against both regions."""
    if r is EMPTY or window is EMPTY:
        return []
    w = R.close(window)
    if w is EMPTY:
        return []
    return [
        (x, y)
        for x in range(int(w.lo_x), int(w.hi_x) + 1)
        for y in range(int(w.lo_y), int(w.hi_y) + 1)
        if R.member(w, (x, y)) and R.member(r, (x, y))
    ]


# Finite windows: boxes (possibly empty) with optional diff bounds, and
# strips whose y-extent is finite only through the diff bounds.
window_boxes = st.builds(
    lambda x0, dx, y0, dy, lo_d, hi_d: Region(
        lo_x=x0, hi_x=x0 + dx, lo_y=y0, hi_y=y0 + dy, lo_d=lo_d, hi_d=hi_d
    ),
    st.integers(-8, 8),
    st.integers(-2, 10),
    st.integers(-8, 8),
    st.integers(-2, 10),
    lowers,
    uppers,
)
window_strips = st.builds(
    lambda x0, dx, d0, dd: Region(lo_x=x0, hi_x=x0 + dx, lo_d=d0, hi_d=d0 + dd),
    st.integers(-8, 8),
    st.integers(-2, 10),
    st.integers(-8, 8),
    st.integers(-2, 10),
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(random_regions, st.just(EMPTY)),
    st.one_of(window_boxes, window_strips, st.just(EMPTY)),
)
@example(Region(lo_d=3), R.box(0, 4, 0, 4))  # rows x < 3 have no points
@example(Region(lo_x=2, hi_x=1), R.box(0, 4, 0, 4))  # empty only after closure
@example(Region(hi_d=0, lo_y=NEG_INF), Region(lo_x=-3, hi_x=3, lo_d=-1, hi_d=1))
@example(R.FULL, EMPTY)
def test_enumerate_points_matches_window_scan(reg, window):
    assert R.is_finite(window)
    assert R.enumerate_points(reg, window) == scan_points(reg, window)
