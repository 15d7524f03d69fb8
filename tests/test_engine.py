"""Engine-vs-pointwise equivalence, the uint8 reference engine and degree
checks."""

import os
import random
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest

import kgcert
from kgcert import _kernels
from kgcert import certifier as C
from kgcert import functors as F
from kgcert import model as M
from kgcert import regions as R
from kgcert.engine import WindowEngine, get_engine
from kgcert.errors import InvalidVertex, MalformedModel
from kgcert.functors import FpFunctor, Subfunctor
from kgcert.engine import ID_BIT
from kgcert.functors import Window
from kgcert.model import ArrowMorphism, IdentityMorphism, VertexId, ZERO, ZeroMorphism
from kgcert.presentation import validate_triple

import mutants
from conftest import ACCEPTANCE_TRIPLES, ORBIT_TRIPLES
from numpy_ref import grid, point_index
from test_certifier import _non_sink_pair_quotient
from test_functors import random_fp
from test_model import _fan_bound_mutants, mutated_fan_entries


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_dims_match_pointwise_eval(r, n, m):
    t = validate_triple(r, n, m)
    rng = random.Random((r, n, m).__hash__())
    eng = WindowEngine(t, (-4, 4, -4, 4))
    verts = eng.vertices()
    for _ in range(15):
        fp = random_fp(t, rng, verts, box=6)
        dims = eng.dims_at_vertices(eng.dims_cube(fp.top, fp.denominators.generators))
        for v in rng.sample(verts, min(25, len(verts))):
            assert dims[v] == F.eval_fp(t, fp, v)


def test_kernel_cube_matches_bruteforce(t120):
    """The engine's kernel (_kernel, with u's endpoint by _endpoint) agrees
    with composing basis morphisms one at a time."""
    t = t120
    eng = WindowEngine(t, (-3, 3, -3, 3))
    verts = eng.vertices()
    rng = random.Random(99)
    for _ in range(10):
        top = rng.choice(verts)
        fanout = [
            ArrowMorphism(top, VertexId(e.family, e.orbit, p), e.degree)
            for e in M.arrow_fan(t, top).entries
            for p in R.enumerate_points(e.region, R.box(-3, 3, -3, 3))
            if not (e.excludes_src and p == top.coord)
        ]
        if not fanout:
            continue
        u = rng.choice(fanout)
        mod_gens = tuple(rng.sample(fanout, min(2, len(fanout))))
        S = u.dst
        mod_cube = eng.image_cube(top, mod_gens)
        kern = eng._kernel(top, *eng._endpoint(top, u), mod_cube)
        got = eng.dims_at_vertices(eng.cells(kern))
        for v in rng.sample(verts, 20):
            modulo = F.eval_sub(t, Subfunctor(top, mod_gens), v)
            expect_bits = 0
            for h in M.hom_basis(t, S, v):
                hu = M.compose(t, h, u)
                if hu is ZERO or hu in modulo:
                    if hasattr(h, "degree"):
                        expect_bits |= 1 << (h.degree + 1)
                    else:
                        expect_bits |= 1
            assert got[v] == expect_bits, (top, u, v)


# -- the uint8 reference engine ----------------------------------------------------
#
# The engine used to keep each cube as a uint8 array of shape (nchan, nx, ny);
# these are its fan rasteriser and its cube, basis, image and kernel kernels,
# kept as the reference for the int bitsets.

_CLIP = 2**62


def _clip(v) -> int:
    if v == R.POS_INF:
        return _CLIP
    if v == R.NEG_INF:
        return -_CLIP
    return int(v)


def ref_fan_cube(xs, ys, rows, nchan):
    """OR region-membership bitmasks into a (nchan, nx, ny) cube.  Rows are
    int64 (channel, bit, lo_x, hi_x, lo_y, hi_y, has_exclusion, ex, ey)."""
    out = np.zeros((nchan, xs.size, ys.size), dtype=np.uint8)
    X = xs[:, None]
    Y = ys[None, :]
    for k in range(rows.shape[0]):
        c, bit, lox, hix, loy, hiy, has_excl, ex, ey = rows[k]
        mask = (X >= lox) & (X <= hix) & (Y >= loy) & (Y <= hiy)
        if has_excl:
            mask &= ~((X == ex) & (Y == ey))
        out[c][mask] |= np.uint8(bit)
    return out


def ref_axes(eng):
    return np.arange(eng.x0, eng.x1 + 1), np.arange(eng.y0, eng.y1 + 1)


def ref_cube(eng, v):
    rows = [
        (
            eng.chan_index[(e.family, e.orbit)],
            1 << (e.degree + 1),
            _clip(e.region.lo_x),
            _clip(e.region.hi_x),
            _clip(e.region.lo_y),
            _clip(e.region.hi_y),
            1 if e.excludes_src else 0,
            v.coord[0],
            v.coord[1],
        )
        for e in M.arrow_fan(eng.t, v).entries
    ]
    rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), 9)
    return ref_fan_cube(*ref_axes(eng), rows, eng.nchan)


def ref_basis_cube(eng, v):
    c = ref_cube(eng, v).copy()
    if eng.in_window(v.coord):
        ix, iy = point_index(eng, v.coord)
        c[eng.chan_index[(v.family, v.orbit)], ix, iy] |= ID_BIT
    return c


def ref_image_cube(eng, top, gens):
    out = np.zeros((eng.nchan, eng.nx, eng.ny), dtype=np.uint8)
    for f in gens:
        if isinstance(f, ZeroMorphism):
            continue
        if isinstance(f, IdentityMorphism):
            out |= ref_basis_cube(eng, top)
            continue
        T, p = f.dst, f.degree
        out |= (ref_cube(eng, T) << np.uint8(p)) & ref_cube(eng, top)
        if eng.in_window(T.coord):
            ix, iy = point_index(eng, T.coord)
            out[eng.chan_index[(T.family, T.orbit)], ix, iy] |= 1 << (p + 1)
    return out


def ref_kernel_cube(eng, top, u, modulo):
    if isinstance(u, IdentityMorphism):
        return ref_basis_cube(eng, top) & modulo
    S, p = u.dst, u.degree
    alive = ref_cube(eng, top) & ~modulo
    kern = ref_cube(eng, S) & ~(alive >> np.uint8(p))
    if eng.in_window(S.coord):
        ix, iy = point_index(eng, S.coord)
        ci = eng.chan_index[(S.family, S.orbit)]
        if modulo[ci, ix, iy] & (1 << (p + 1)):
            kern[ci, ix, iy] |= ID_BIT
    return kern


def random_fan_arrows(t, rng, top, reach, k):
    """k random basis arrows out of top, with targets in [-reach, reach]^2."""
    out = []
    fan = M.arrow_fan(t, top).entries
    for _ in range(4 * k):
        e = rng.choice(fan)
        pts = R.enumerate_points(e.region, R.box(-reach, reach, -reach, reach))
        pts = [p for p in pts if not (e.excludes_src and p == top.coord)]
        if pts:
            out.append(ArrowMorphism(top, VertexId(e.family, e.orbit, rng.choice(pts)), e.degree))
        if len(out) == k:
            break
    return out


def random_gens(t, rng, top, reach):
    """Arrows (some with targets outside the window), identities and zeros."""
    gens = random_fan_arrows(t, rng, top, reach, rng.randint(0, 4))
    gens += [IdentityMorphism(top)] * (rng.random() < 0.2)
    gens += [ZERO] * (rng.random() < 0.3)
    rng.shuffle(gens)
    return tuple(gens)


@pytest.mark.parametrize(
    "triple,half,tops",
    [((r, n, m), 4, 12) for r, n, m in ACCEPTANCE_TRIPLES] + [((1, 2, 0), 20, 4)],
    ids=[f"{r}{n}{m}-w9" for r, n, m in ACCEPTANCE_TRIPLES] + ["120-w41"],
)
def test_bitset_engine_matches_uint8_reference(triple, half, tops):
    t = validate_triple(*triple)
    reach = half + 3  # tops and generator targets also lie outside the window
    rng = random.Random(hash(triple) + half)
    assert_matches_reference(t, (-half, half, -half, half), reach, rng, tops)


def assert_matches_reference(t, box, reach, rng, tops):
    """Cubes, basis cubes, images and kernels (_kernel, with u's endpoint by
    _endpoint) of the engine on box equal the uint8 reference, for random
    tops and generators in [-reach, reach]^2."""
    eng = WindowEngine(t, box)
    candidates = M.vertices_in_box(t, -reach, reach, -reach, reach)
    for top in rng.sample(candidates, tops):
        assert np.array_equal(grid(eng, eng.cube(top)), ref_cube(eng, top))
        assert np.array_equal(grid(eng, eng.basis_cube(top)), ref_basis_cube(eng, top))
        for _ in range(6):
            gens = random_gens(t, rng, top, reach)
            image = eng.image_cube(top, gens)
            ref_image = ref_image_cube(eng, top, gens)
            assert np.array_equal(grid(eng, image), ref_image), (top, gens)
            for u in random_fan_arrows(t, rng, top, reach, 2) + [IdentityMorphism(top)]:
                got = grid(eng, eng._kernel(top, *eng._endpoint(top, u), image))
                assert np.array_equal(got, ref_kernel_cube(eng, top, u, ref_image)), (top, u, gens)


# -- offset, non-square and one-cell-wide windows ------------------------------------
#
# A square window cannot tell nx from ny; these windows are offset from the
# origin, 12x8, 12x12, one column (1x9) and one row (9x1).

SKEWED_BOXES = [(-5, 6, -2, 5), (-5, 6, -4, 7), (1, 1, -4, 4), (-4, 4, 1, 1)]
SKEWED_IDS = ["12x8", "12x12", "1x9", "9x1"]
SKEWED_REACH = 10


@pytest.mark.parametrize("box", SKEWED_BOXES, ids=SKEWED_IDS)
@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_bitset_engine_matches_uint8_reference_on_skewed_windows(r, n, m, box):
    t = validate_triple(r, n, m)
    rng = random.Random(hash((r, n, m, box)))
    assert_matches_reference(t, box, SKEWED_REACH, rng, 8)


def fan_cube_grid(box, nchan, rows, columns=None):
    """fan_cube on box as a uint8 grid, and the reference grid of the same
    rows, each row being (channel, bit, region, excluded coordinate or None).
    fan_cube reads and fills the table of column masks columns, a fresh one
    when None."""
    x0, x1, y0, y1 = box
    nx, ny = x1 - x0 + 1, y1 - y0 + 1
    got = _kernels.fan_cube(x0, nx, y0, ny, nchan, rows, {} if columns is None else columns)
    assert got.readonly and got.nbytes == nchan * nx * ny
    ref_rows = [
        (c, bit, _clip(reg.lo_x), _clip(reg.hi_x), _clip(reg.lo_y), _clip(reg.hi_y))
        + ((0, 0, 0) if ex is None else (1, *ex))
        for c, bit, reg, ex in rows
    ]
    ref_rows = np.asarray(ref_rows, dtype=np.int64).reshape(len(rows), 9)
    ref = ref_fan_cube(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1), ref_rows, nchan)
    return np.frombuffer(got, dtype=np.uint8).reshape(nchan, nx, ny), ref


@pytest.mark.parametrize("box", SKEWED_BOXES, ids=SKEWED_IDS)
def test_fan_cube_clips_rows_and_exclusions(box):
    """Rows wholly outside the window leave the cube empty, and an excluded
    cell outside the window clears nothing inside it."""
    x0, x1, y0, y1 = box
    inf = R.POS_INF
    outside = [
        R.box(-inf, x0 - 1, -inf, inf),
        R.box(x1 + 1, inf, -inf, inf),
        R.box(-inf, inf, -inf, y0 - 1),
        R.box(-inf, inf, y1 + 1, inf),
        R.box(x1 + 1, x1 + 3, y0, y1),
    ]
    rows = [(c % 2, 1 << (c % 3 + 1), reg, None) for c, reg in enumerate(outside)]
    got, ref = fan_cube_grid(box, 2, rows)
    assert not ref.any() and np.array_equal(got, ref)
    # each excluded cell lies just outside one side or corner of the window
    full = R.box(x0 - 3, x1 + 3, y0 - 3, y1 + 3)
    for ex in [
        (x0 - 1, y0), (x1 + 1, y1), (x0, y0 - 1), (x1, y1 + 1),
        (x0 + 1, y1 + 1), (x1 - 1, y0 - 1), (x0 - 1, y0 - 1), (x1 + 1, y1 + 1),
    ]:
        got, ref = fan_cube_grid(box, 3, [(1, 4, full, ex), (2, 2, full, None)])
        assert ref[1].all() and np.array_equal(got, ref), ex
    # and inside: exactly that cell is cleared
    got, ref = fan_cube_grid(box, 3, [(1, 4, full, (x1, y0)), (2, 2, full, (x0, y1))])
    assert np.array_equal(got, ref)
    assert (ref[1] == 0).sum() == 1 and (ref[2] == 0).sum() == 1


@pytest.mark.parametrize("box", SKEWED_BOXES, ids=SKEWED_IDS)
def test_fan_cube_matches_reference_on_random_rows(box):
    rng = random.Random(hash(box))

    def bound(inf):
        return inf if rng.random() < 0.25 else rng.randint(-9, 9)

    for _ in range(60):
        rows = []
        for _ in range(rng.randint(1, 6)):
            reg = R.box(bound(R.NEG_INF), bound(R.POS_INF), bound(R.NEG_INF), bound(R.POS_INF))
            ex = (rng.randint(-9, 9), rng.randint(-9, 9)) if rng.random() < 0.5 else None
            rows.append((rng.randrange(3), 1 << rng.randint(1, 3), reg, ex))
        got, ref = fan_cube_grid(box, 3, rows)
        assert np.array_equal(got, ref), rows


# -- the rasteriser at the benchmark's sizes ------------------------------------------
#
# The wide workload rasters 41x41 windows of 2 channels and 21x21 windows of 3;
# a one-column and a one-row window of 41 cells put every box in one x-row or
# in 41 x-rows of one cell.  Bounds over +-25 clip boxes on every side.

BENCH_BOXES = [((-20, 20, -20, 20), 2), ((-10, 10, -10, 10), 3), ((3, 3, -20, 20), 2), ((-20, 20, 3, 3), 2)]
BENCH_IDS = ["41x41-2ch", "21x21-3ch", "1x41", "41x1"]


@pytest.mark.parametrize("stride", [8, 8 * 21, 8 * 41])
def test_repeat_is_the_geometric_series(stride):
    """_repeat(unit, stride, k) is unit times the series of k powers of
    2**stride, the product the rasteriser divided out before, for every k
    up to 70 (each power of two and its neighbours)."""
    unit = (1 << stride) - 3
    for k in range(1, 71):
        assert _kernels._repeat(unit, stride, k) == unit * ((1 << stride * k) - 1) // ((1 << stride) - 1), k


@pytest.mark.parametrize("box,nchan", BENCH_BOXES, ids=BENCH_IDS)
def test_fan_cube_matches_reference_at_benchmark_sizes(box, nchan):
    """Random boxes with bounds in [-25, 25] or infinite, each with no
    exclusion or one at a corner of its part inside the window, and the
    window's own corners excluded from a box that covers it."""
    x0, x1, y0, y1 = box
    rng = random.Random(hash(box))

    def bound(inf):
        return inf if rng.random() < 0.2 else rng.randint(-25, 25)

    for _ in range(40):
        rows = []
        for _ in range(rng.randint(1, 6)):
            reg = R.box(bound(R.NEG_INF), bound(R.POS_INF), bound(R.NEG_INF), bound(R.POS_INF))
            xs = (max(reg.lo_x, x0), min(reg.hi_x, x1))
            ys = (max(reg.lo_y, y0), min(reg.hi_y, y1))
            corners = [(x, y) for x in xs for y in ys] if xs[0] <= xs[1] and ys[0] <= ys[1] else []
            rows.append((rng.randrange(nchan), 1 << rng.randint(1, 3), reg, rng.choice(corners + [None])))
        got, ref = fan_cube_grid(box, nchan, rows)
        assert np.array_equal(got, ref), rows
    cover = R.box(x0 - 25, x1 + 25, y0 - 25, y1 + 25)
    for corner in [(x, y) for x in (x0, x1) for y in (y0, y1)]:
        got, ref = fan_cube_grid(box, nchan, [(nchan - 1, 8, cover, corner), (0, 2, cover, None)])
        assert np.array_equal(got, ref) and (ref[nchan - 1] == 0).sum() == 1, corner


# One engine per window, whose table of column masks fan_cube reads and
# fills: 17x17 with 6 channels ((2,3,0) at the acceptance window), 41x41
# with 2 ((2,2,1) at the wide window), and one column and one row of 41.
MASK_ENGINES = [((2, 3, 0), (-8, 8, -8, 8)), ((2, 2, 1), (-20, 20, -20, 20)),
                ((2, 2, 1), (3, 3, -20, 20)), ((2, 2, 1), (-20, 20, 3, 3))]
MASK_IDS = ["17x17-6ch", "41x41-2ch", "1x41", "41x1"]


@pytest.mark.parametrize("triple,box", MASK_ENGINES, ids=MASK_IDS)
def test_fan_cube_cuts_boxes_from_the_engines_column_masks(triple, box):
    """Once the engine's own cubes have warmed its table, at least 1000
    random boxes rasterised through that table, each with no exclusion or
    one at a corner of its part inside the window, match the uint8
    reference; the table then holds at most one mask per y-run, each the
    run's cells on every x-row in bit 0."""
    t = validate_triple(*triple)
    eng = WindowEngine(t, box)
    for v in eng.vertices():
        assert np.array_equal(grid(eng, eng.cube(v)), ref_cube(eng, v)), v
    assert eng._columns
    x0, x1, y0, y1 = box
    rng = random.Random(hash(box))

    def bound(lo, hi, inf):
        return inf if rng.random() < 0.15 else rng.randint(lo - 3, hi + 3)

    boxes = 0
    while boxes < 1000:
        rows = []
        for _ in range(rng.randint(1, 4)):
            reg = R.box(bound(x0, x1, R.NEG_INF), bound(x0, x1, R.POS_INF), bound(y0, y1, R.NEG_INF),
                        bound(y0, y1, R.POS_INF))
            xs = (max(reg.lo_x, x0), min(reg.hi_x, x1))
            ys = (max(reg.lo_y, y0), min(reg.hi_y, y1))
            corners = [(x, y) for x in xs for y in ys] if xs[0] <= xs[1] and ys[0] <= ys[1] else []
            rows.append((rng.randrange(eng.nchan), 1 << rng.randint(1, 3), reg, rng.choice(corners + [None])))
        got, ref = fan_cube_grid(box, eng.nchan, rows, eng._columns)
        assert np.array_equal(got, ref), rows
        boxes += len(rows)
    assert len(eng._columns) <= eng.ny * (eng.ny + 1) // 2
    for (iy0, iy1), mask in eng._columns.items():
        want = np.zeros((eng.nchan, eng.nx, eng.ny), dtype=np.uint8)
        want[0, :, iy0:iy1 + 1] = 1
        assert np.array_equal(grid(eng, mask), want), (iy0, iy1)


def ref_valid(eng):
    """Boolean grid per channel marking window coordinates that are vertices."""
    out = np.zeros((eng.nchan, eng.nx, eng.ny), dtype=bool)
    xs, ys = ref_axes(eng)
    X = xs[:, None]
    Y = ys[None, :]
    table = M.index_regions(eng.t)
    for c, chan in enumerate(eng.channels):
        reg = table[chan]
        out[c] = (
            (X >= _clip(reg.lo_x))
            & (X <= _clip(reg.hi_x))
            & (Y >= _clip(reg.lo_y))
            & (Y <= _clip(reg.hi_y))
            & (X - Y >= _clip(reg.lo_d))
            & (X - Y <= _clip(reg.hi_d))
        )
    return out


@pytest.mark.parametrize("box", SKEWED_BOXES, ids=SKEWED_IDS)
@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_valid_mask_and_vertices_match_reference(r, n, m, box):
    t = validate_triple(r, n, m)
    eng = WindowEngine(t, box)
    valid = ref_valid(eng)
    want = [
        VertexId(fam, orb, (eng.x0 + ix, eng.y0 + iy))
        for ci, (fam, orb) in enumerate(eng.channels)
        for ix, iy in zip(*np.nonzero(valid[ci]))
    ]
    assert eng.vertices() == want
    assert [eng.cell(v) for v in want] == sorted(eng.cell(v) for v in want)


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int32)


def ref_ses_check(eng, top, sub_gens, mid_gens, quot_gens):
    sub = ref_image_cube(eng, top, sub_gens)
    mid = ref_image_cube(eng, top, mid_gens)
    quot = ref_image_cube(eng, top, quot_gens)
    if not np.array_equal(sub & quot, sub):
        return False
    basis = ref_basis_cube(eng, top)
    return np.array_equal(
        _POPCOUNT[basis & ~mid], _POPCOUNT[sub & ~mid] + _POPCOUNT[basis & ~quot]
    )


@pytest.mark.parametrize("box", SKEWED_BOXES, ids=SKEWED_IDS)
def test_ses_dimension_check_matches_reference(t120, box):
    """functors.ses_check, one image_cube equation, against the uint8
    dimension count: tower steps of the (1,2,0) B' quotients (exact) and the
    same steps skipping one index (not exact while that index is in the
    window); then random generator triples at tops of every family, on the
    acceptance and orbit triples."""
    window = Window(*box)

    def ses_check(t, top, sub, mid, quot):
        return F.ses_check(t, Subfunctor(top, sub), Subfunctor(top, mid), FpFunctor(top, Subfunctor(top, quot)), window)

    eng = WindowEngine(t120, box)
    for top in eng.vertices():
        if top.family != "X":
            continue
        a, b = top.coord
        mid = C.build_simple1(t120, C.KIND_BP, 0, (a, b), b - 1).denominators.generators
        quot = C.build_simple0(t120, top).denominators.generators
        for step in (1, 2):
            sub = (M.arrow_or_zero(t120, top, VertexId("X", 0, (a, b + step)), 0),)
            got = ses_check(t120, top, sub, mid, quot)
            assert got == ref_ses_check(eng, top, sub, mid, quot), (top, step)
    rng = random.Random(hash(box))
    for triple in ACCEPTANCE_TRIPLES + ORBIT_TRIPLES:
        t = validate_triple(*triple)
        eng = WindowEngine(t, box)
        verdicts = []
        for family in dict.fromkeys(family for family, _ in M.index_regions(t)):
            tops = [v for v in eng.vertices() if v.family == family]
            for top in rng.sample(tops, min(6, len(tops))):
                for _ in range(3):
                    gens = [random_gens(t, rng, top, SKEWED_REACH) for _ in range(3)]
                    got = ses_check(t, top, *gens)
                    assert got == ref_ses_check(eng, top, *gens), (t, top, gens)
                    verdicts.append(got)
        assert True in verdicts and False in verdicts, t


def ref_simple0_check(eng, v, gens):
    """dim 1 at v (when in window) and 0 in every other cell, valid or not,
    on uint8 grids."""
    dims = _POPCOUNT[ref_basis_cube(eng, v) & ~ref_image_cube(eng, v, gens)]
    want = np.zeros_like(dims)
    if eng.in_window(v.coord):
        ix, iy = point_index(eng, v.coord)
        want[eng.chan_index[(v.family, v.orbit)], ix, iy] = 1
    return np.array_equal(dims, want)


@pytest.mark.parametrize("fake", [False, True], ids=["sink pair", "non-sink pair"])
@pytest.mark.parametrize("box", SKEWED_BOXES, ids=SKEWED_IDS)
@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_simple0_check_matches_reference(r, n, m, box, fake, monkeypatch):
    """Every window vertex and a ring of vertices just outside the window."""
    if fake:
        monkeypatch.setattr(C, "build_simple0", _non_sink_pair_quotient)
    t = validate_triple(r, n, m)
    s = C._Session(t, Window(*box), 1)
    x0, x1, y0, y1 = box
    verts = M.vertices_in_box(t, x0 - 1, x1 + 1, y0 - 1, y1 + 1)
    for v in verts:
        passed = s.simple0_check(v)
        gens = C.build_simple0(t, v).denominators.generators
        assert passed == ref_simple0_check(s.eng, v, gens), v


def test_simple0_check_fails_on_a_count_in_an_invalid_cell(t120, monkeypatch):
    """A correct model leaves every cell that is no vertex at 0, so simple0
    reads all cells: an arrow bit leaked into one (Y:0:(0,0) is no vertex,
    as 0 + 2 > 0) of the checked top's cube fails the check, for in-window
    and out-of-window tops alike."""
    leak = VertexId("Y", 0, (0, 0))
    assert not M.vertex_valid(t120, leak)
    s = C._Session(t120, Window(-4, 4, -4, 4), 1)
    inside, outside = VertexId("Z", 0, (0, 0)), VertexId("Z", 0, (40, 40))
    real = WindowEngine._entry

    def leaky_entry(self, v):
        c, off, image = real(self, v)
        return (c | 2 << 8 * self.cell(leak), off, image) if v in (inside, outside) else (c, off, image)

    assert s.simple0_check(inside) is True
    assert s.simple0_check(outside) is True
    monkeypatch.setattr(WindowEngine, "_entry", leaky_entry)
    assert s.simple0_check(inside) is False
    assert s.simple0_check(outside) is False


@pytest.mark.parametrize("r,n,m", [(1, 2, 0), (2, 3, 0), (1, 1, 0)])
def test_simple0_check_matches_reference_on_every_fan_bound_mutant(r, n, m, monkeypatch):
    """Under every fan with one bound moved by +-1 (the sink pair stays), the
    containment rule of simple0 agrees with the uint8 dimension count at
    every vertex of the window grown by 2; some checks fail."""
    t = validate_triple(r, n, m)
    failed = 0
    for mutant in _fan_bound_mutants(t):
        with monkeypatch.context() as mp:
            mp.setattr(M, "_fan_entries", mutated_fan_entries(*mutant))
            get_engine.cache_clear()  # an engine keeps the cubes of the fan it was built on
            # the reference cube of each vertex once per mutant (the arrays are not written to)
            mp.setattr(sys.modules[__name__], "ref_cube", lru_cache(maxsize=None)(ref_cube))
            s = C._Session(t, Window(-4, 4, -4, 4), 1)
            for v in M.vertices_in_box(t, -6, 6, -6, 6):
                passed = s.simple0_check(v)
                gens = C.build_simple0(t, v).denominators.generators
                assert passed == ref_simple0_check(s.eng, v, gens), (mutant, v)
                failed += not passed
    get_engine.cache_clear()
    assert failed > 0


# -- the sink memo ------------------------------------------------------------------


def sink_decisions(eng):
    """Build the engine's cubes for every vertex of its box, then, for every
    vertex in its cube cache, check the engine's sink image, when first
    computed and when read back, against image_cube of the sink maps.
    Returns the vertices whose check failed and the number of them whose
    memo is not their cube."""
    for v in eng.vertices():
        eng.cube(v)
    checked = list(eng._entries)
    wrong = []
    for v in checked:
        exact = eng.image_cube(v, M.ar_sink_maps(eng.t, v))
        if [eng._sink_image(v), eng._sink_image(v)] != [exact, exact]:
            wrong.append(v)
    return wrong, sum(eng._entries[v][2] is not eng._entries[v][0] for v in checked)


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_sink_image_is_the_whole_cube_on_the_model(r, n, m):
    """On the valid model every arrow out of v factors through a sink map
    of v, so the engine answers with cube(v) at every vertex, and that is
    the exact image; the memo is the cube object itself, so no vertex keeps
    a second int."""
    eng = WindowEngine(validate_triple(r, n, m), (-6, 6, -6, 6))
    assert sink_decisions(eng) == ([], 0)
    assert all(image is c for c, _, image in eng._entries.values() if image is not None)


def test_sink_image_is_exact_on_every_fan_bound_mutant(monkeypatch):
    """Under every fan with one bound moved by +-1, the engine's sink memo
    is the exact image; some mutants make it smaller than the cube, so the
    memo is then an int of its own."""
    t = validate_triple(1, 2, 0)
    smaller = 0
    for mutant in _fan_bound_mutants(t):
        with monkeypatch.context() as mp:
            mp.setattr(M, "_fan_entries", mutated_fan_entries(*mutant))
            wrong, unequal = sink_decisions(WindowEngine(t, (-6, 6, -6, 6)))
        assert wrong == [], mutant
        smaller += unequal > 0
    assert smaller > 0


# -- degrees outside 0..max_degree ----------------------------------------------------


@pytest.mark.parametrize(
    "triple,degree",
    [((1, 2, 0), 3), ((1, 2, 0), 5), ((1, 2, 0), 7), ((1, 2, 0), -1), ((1, 1, 0), 2)],
    ids=["120-deg3", "120-deg5", "120-deg7", "120-deg-1", "110-deg2"],
)
def test_out_of_range_degree_is_rejected(triple, degree):
    """A generator or u of a degree the triple has no arrows of would shift
    bits into a neighbouring cell; every entry point raises instead."""
    t = validate_triple(*triple)
    top = VertexId("X", 0, (0, 1))
    bad = ArrowMorphism(top, VertexId("X", 0, (0, 2)), degree)
    good = M.arrow_or_zero(t, top, VertexId("X", 0, (0, 2)), 0)
    assert good is not ZERO
    eng = WindowEngine(t, (-4, 4, -4, 4))
    with pytest.raises(ValueError, match="degree"):
        eng.image_cube(top, (good, bad))
    with pytest.raises(ValueError, match="degree"):
        eng.kernel_matches(top, bad, (good,), ())
    W = Window(-4, 4, -4, 4)
    rep = F.representable(t, top)
    with pytest.raises(ValueError, match="degree"):
        F.ses_check(t, Subfunctor(top, (bad,)), Subfunctor(top, ()), rep, W)
    with pytest.raises(ValueError, match="degree"):
        F.ses_check(t, Subfunctor(top, (good,)), Subfunctor(top, (bad,)), rep, W)
    with pytest.raises(ValueError, match="degree"):
        F.image_presentation_check(t, bad, F.representable(t, bad.dst), W)


@pytest.mark.parametrize(
    "name,match",
    [("Z0-not-a-box", "not a box"), ("Z1-orbit-7", "off the channels"), ("Z1-degree-5", "off the channels"),
     ("Z1-family-W", "off the channels")],
)
def test_a_malformed_fan_entry_is_rejected(t120, name, match, monkeypatch):
    """The engine rasters a fan entry only on a window channel, at a degree
    in 0..max_degree (a degree-5 entry would sit at bit 6 of its cells, and
    a shift of 2 would carry it into the next cell's identity bit) and with
    a box region; a Z record of the catalogue's malformed fans raises
    MalformedModel, and the X records, left as they are, do not."""
    (change,) = [change for row, change, _ in mutants.MALFORMED_FANS if row == name]
    monkeypatch.setattr(M, "_fan_entries", mutants.every_record(change))
    eng = WindowEngine(t120, (-4, 4, -4, 4))
    assert eng.cube(VertexId("X", 0, (0, 1)))
    with pytest.raises(MalformedModel, match=match):
        eng.cube(VertexId("Z", 0, (0, 0)))


@pytest.mark.parametrize("u", [ZERO, VertexId("X", 0, (0, 2)), None], ids=["zero", "vertex", "none"])
def test_a_u_that_is_no_basis_morphism_is_rejected(t120, u):
    """kernel_matches and ses_foreign read u's endpoint by one rule,
    _endpoint: a zero u, or anything else that is no identity or arrow,
    raises MalformedModel from both."""
    top = VertexId("X", 0, (0, 1))
    eng = WindowEngine(t120, (-4, 4, -4, 4))
    with pytest.raises(MalformedModel, match="no basis morphism"):
        eng.kernel_matches(top, u, (), ())
    with pytest.raises(MalformedModel, match="no basis morphism"):
        eng.ses_foreign(top, u, top, (), (), ())


@pytest.mark.parametrize("twin", [VertexId("X", True, (0, 1)), VertexId("X", 1, (0.0, 1))], ids=["bool-orbit", "float-a"])
def test_the_cube_cache_keeps_the_vertex_rule(twin):
    """On (2,3,0) X:True:(0,1) and X:1:(0.0,1) are no vertices, though they
    equal X:1:(0,1) and hash like it.  cube, basis_cube and image_cube
    refuse them, as top or as a generator's target, on a fresh engine and
    after X:1:(0,1)'s cube is cached."""
    t = validate_triple(2, 3, 0)
    real = VertexId("X", 1, (0, 1))
    top = VertexId("X", 1, (-1, 0))
    arrow = ArrowMorphism(top, twin, 0)
    assert M.arrow_exists(t, top, real, 0) and not M.vertex_valid(t, twin)
    for warm in (False, True):
        eng = WindowEngine(t, (-4, 4, -4, 4))
        if warm:
            assert eng.cube(real) and eng.image_cube(top, (ArrowMorphism(top, real, 0),))
        for call in (lambda: eng.cube(twin), lambda: eng.basis_cube(twin), lambda: eng.image_cube(twin, ()),
                     lambda: eng.image_cube(top, (arrow,))):
            with pytest.raises(InvalidVertex):
                call()


@pytest.mark.parametrize(
    "u", [ArrowMorphism(VertexId("Z", 0, (3, -3)), VertexId("Z", 0, (4, -3)), 0), IdentityMorphism(VertexId("X", 0, (0, 2)))],
    ids=["arrow", "identity"],
)
def test_a_u_that_does_not_start_at_the_top_is_rejected(t120, u):
    """_endpoint reads u as a morphism out of the top: an arrow out of
    another vertex, or the identity of another vertex, raises
    MalformedModel from kernel_matches, ses_foreign and image_cube.  Read
    by its target and degree, the arrow would stand for an arrow out of the
    top that the model does not have, and the identity for the degree-0
    arrow to its vertex."""
    top = VertexId("X", 0, (0, 1))
    assert isinstance(u, IdentityMorphism) or not M.arrow_exists(t120, top, u.dst, u.degree)
    eng = WindowEngine(t120, (-4, 4, -4, 4))
    with pytest.raises(MalformedModel, match="does not start at"):
        eng.kernel_matches(top, u, (), ())
    with pytest.raises(MalformedModel, match="does not start at"):
        eng.ses_foreign(top, u, M.target_of(u), (), (), ())
    with pytest.raises(MalformedModel, match="does not start at"):
        eng.image_cube(top, (u,))


# -- a stdlib-only package --------------------------------------------------------------

_STDLIB_ONLY = """
import sys
from kgcert import functors as F, model as M
from kgcert.certifier import build_simple0, build_simple1, certify
from kgcert.functors import Subfunctor, Window
from kgcert.model import VertexId
from kgcert.presentation import validate_triple

cert = certify(validate_triple(1, 1, 0), Window(-3, 3, -3, 3), 2)
assert cert.passed, cert.to_json_text()
t = validate_triple(1, 2, 0)
top = VertexId("X", 0, (0, 1))
u = M.arrow_or_zero(t, top, VertexId("X", 0, (0, 2)), 0)
B = build_simple1(t, "B'", 0, (0, 1), 0)
assert F.ses_check(t, Subfunctor(top, (u,)), B.denominators, build_simple0(t, top), Window(-3, 3, -3, 3))
assert "numpy" not in sys.modules, "numpy was imported"
assert not {"argparse", "kgcert.cli"} & set(sys.modules), "the package imported its CLI"
"""


def test_package_runs_without_numpy():
    """Importing kgcert, certifying and an exact-sequence check load no numpy,
    and no argparse or kgcert.cli: the package import stays free of the CLI."""
    src = os.path.dirname(os.path.dirname(kgcert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_ONLY], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("bounds", [{"lo_d": -1}, {"hi_d": 2}], ids=["lo_d", "hi_d"])
def test_fan_cube_rejects_difference_bounds(bounds):
    """Fan regions are boxes; a row with a finite difference bound would be
    rasterised wrongly, so it is refused."""
    reg = R.Region(lo_x=0, hi_x=3, lo_y=0, hi_y=3, **bounds)
    with pytest.raises(ValueError, match="not a box"):
        _kernels.fan_cube(0, 4, 0, 4, 1, [(0, 2, reg, None)], {})
