"""Engine-vs-pointwise equivalence, the uint8 reference engine and degree
checks."""

import random

import numpy as np
import pytest

from kgcert import _kernels
from kgcert import functors as F
from kgcert import model as M
from kgcert import regions as R
from kgcert.engine import WindowEngine
from kgcert.functors import Subfunctor
from kgcert.engine import ID_BIT, _clip
from kgcert.functors import Window
from kgcert.model import ArrowMorphism, IdentityMorphism, VertexId, ZERO, ZeroMorphism
from kgcert.presentation import validate_triple

from conftest import ACCEPTANCE_TRIPLES
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
        got = eng.dims_at_vertices(eng.grid(kern).astype(np.int32))
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
# these are its cube, basis, image and kernel kernels, kept as the reference
# for the int bitsets, with cubes rasterised straight from the fan rows.


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
    return _kernels.fan_cube(eng.xs, eng.ys, rows, eng.nchan)


def ref_basis_cube(eng, v):
    c = ref_cube(eng, v).copy()
    if eng.in_window(v.coord):
        ix, iy = eng.point_index(v.coord)
        c[eng.chan_index[(v.family, v.orbit)], ix, iy] |= ID_BIT
    return c


def ref_image_cube(eng, top, gens):
    out = np.zeros((eng.nchan, eng.xs.size, eng.ys.size), dtype=np.uint8)
    for f in gens:
        if isinstance(f, ZeroMorphism):
            continue
        if isinstance(f, IdentityMorphism):
            out |= ref_basis_cube(eng, top)
            continue
        T, p = f.dst, f.degree
        out |= (ref_cube(eng, T) << np.uint8(p)) & ref_cube(eng, top)
        if eng.in_window(T.coord):
            ix, iy = eng.point_index(T.coord)
            out[eng.chan_index[(T.family, T.orbit)], ix, iy] |= 1 << (p + 1)
    return out


def ref_kernel_cube(eng, top, u, modulo):
    if isinstance(u, IdentityMorphism):
        return ref_basis_cube(eng, top) & modulo
    S, p = u.dst, u.degree
    alive = ref_cube(eng, top) & ~modulo
    kern = ref_cube(eng, S) & ~(alive >> np.uint8(p))
    if eng.in_window(S.coord):
        ix, iy = eng.point_index(S.coord)
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
    eng = WindowEngine(t, (-half, half, -half, half))
    reach = half + 3  # tops and generator targets also lie outside the window
    rng = random.Random(hash(triple) + half)
    candidates = M.vertices_in_box(t, -reach, reach, -reach, reach)
    for top in rng.sample(candidates, tops):
        assert np.array_equal(eng.grid(eng.cube(top)), ref_cube(eng, top))
        assert np.array_equal(eng.grid(eng.basis_cube(top)), ref_basis_cube(eng, top))
        for _ in range(6):
            gens = random_gens(t, rng, top, reach)
            image = eng.image_cube(top, gens)
            ref_image = ref_image_cube(eng, top, gens)
            assert np.array_equal(eng.grid(image), ref_image), (top, gens)
            for u in random_fan_arrows(t, rng, top, reach, 2) + [IdentityMorphism(top)]:
                got = eng.grid(eng.kernel_cube(top, u, image))
                assert np.array_equal(got, ref_kernel_cube(eng, top, u, ref_image)), (top, u, gens)


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
