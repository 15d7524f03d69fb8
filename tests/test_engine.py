"""Engine-vs-pointwise equivalence, the uint8 reference engine and degree
checks."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import kgcert
from kgcert import _kernels
from kgcert import certifier as C
from kgcert import functors as F
from kgcert import model as M
from kgcert import regions as R
from kgcert.engine import WindowEngine
from kgcert.functors import Subfunctor
from kgcert.engine import ID_BIT
from kgcert.functors import Window
from kgcert.model import ArrowMorphism, IdentityMorphism, VertexId, ZERO, ZeroMorphism
from kgcert.presentation import validate_triple

from conftest import ACCEPTANCE_TRIPLES
from numpy_ref import grid, point_index
from test_certifier import _non_sink_pair_quotient
from test_functors import random_fp


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
    """Engine kernels agree with composing basis morphisms one at a time."""
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
        kern = eng.kernel_cube(top, u, mod_cube)
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
    """Cubes, basis cubes, images and kernels of the engine on box equal the
    uint8 reference, for random tops and generators in [-reach, reach]^2."""
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
                got = grid(eng, eng.kernel_cube(top, u, image))
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


def fan_cube_grid(box, nchan, rows):
    """fan_cube on box as a uint8 grid, and the reference grid of the same
    rows, each row being (channel, bit, region, excluded coordinate or None)."""
    x0, x1, y0, y1 = box
    nx, ny = x1 - x0 + 1, y1 - y0 + 1
    got = _kernels.fan_cube(x0, nx, y0, ny, nchan, rows)
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
    assert np.array_equal(grid(eng, eng.valid_mask()), valid * np.uint8(0xFF))
    want = [
        VertexId(fam, orb, (eng.x0 + ix, eng.y0 + iy))
        for ci, (fam, orb) in enumerate(eng.channels)
        for ix, iy in zip(*np.nonzero(valid[ci]))
    ]
    assert eng.vertices() == want
    assert [eng.cell(v) for v in want] == sorted(eng.cell(v) for v in want)


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int32)


def ref_ses_dimension_check(eng, top, sub_gens, mid_gens, quot_gens):
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
    """Tower steps of the B' quotients (exact), the same steps skipping one
    index (not exact) and random generator triples."""
    eng = WindowEngine(t120, box)
    rng = random.Random(hash(box))
    verdicts = []
    for top in eng.vertices():
        if top.family != "X":
            continue
        a, b = top.coord
        mid = C.build_simple1(t120, C.KIND_BP, 0, (a, b), b - 1).denominators.generators
        quot = C.build_simple0(t120, top).denominators.generators
        for step in (1, 2):
            sub = (M.arrow_or_zero(t120, top, VertexId("X", 0, (a, b + step)), 0),)
            got = eng.ses_dimension_check(top, sub, mid, quot)
            assert got == ref_ses_dimension_check(eng, top, sub, mid, quot), (top, step)
            verdicts.append(got)
        for _ in range(2):
            gens = [random_gens(t120, rng, top, SKEWED_REACH) for _ in range(3)]
            got = eng.ses_dimension_check(top, *gens)
            assert got == ref_ses_dimension_check(eng, top, *gens), (top, gens)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def ref_simple0_check(eng, v, gens):
    """dim 1 at v (when in window) and 0 at every other valid cell, on uint8
    grids."""
    dims = _POPCOUNT[ref_basis_cube(eng, v) & ~ref_image_cube(eng, v, gens)]
    want = np.zeros_like(dims)
    if eng.in_window(v.coord):
        ix, iy = point_index(eng, v.coord)
        want[eng.chan_index[(v.family, v.orbit)], ix, iy] = 1
    valid = ref_valid(eng)
    return np.array_equal(dims[valid], want[valid])


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
        passed, skipped = s.simple0_check(v)
        assert skipped == (not s.eng.in_window(v.coord))
        gens = C.build_simple0(t, v).denominators.generators
        assert passed == ref_simple0_check(s.eng, v, gens), v


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
        eng.kernel_cube(top, bad, eng.image_cube(top, (good,)))
    W = Window(-4, 4, -4, 4)
    rep = F.representable(t, top)
    with pytest.raises(ValueError, match="degree"):
        F.ses_check(t, Subfunctor(top, (bad,)), Subfunctor(top, ()), rep, W)
    with pytest.raises(ValueError, match="degree"):
        F.ses_check(t, Subfunctor(top, (good,)), Subfunctor(top, (bad,)), rep, W)
    with pytest.raises(ValueError, match="degree"):
        F.image_presentation_check(t, bad, F.representable(t, bad.dst), W)


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
"""


def test_package_runs_without_numpy():
    """Importing kgcert, certifying and an exact-sequence check load no numpy."""
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
        _kernels.fan_cube(0, 4, 0, 4, 1, [(0, 2, reg, None)])
