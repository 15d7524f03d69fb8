"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is also part of the default ``pytest`` run.
"""

import hashlib
import random
import time

import numpy as np

from kgcert import functors as F
from kgcert import model as M
from kgcert import regions as R
from kgcert.certifier import (
    KIND_BP,
    KIND_CP,
    build_simple0,
    build_simple1,
    certify,
    check_finite1,
)
from kgcert.engine import WindowEngine, get_engine
from kgcert.errors import WrongFamily
from kgcert.functors import Subfunctor, Window
from kgcert.model import ArrowMorphism, IdentityMorphism, VertexId, ZERO
from kgcert.presentation import validate_triple

from conftest import ACCEPTANCE_TRIPLES, FINITE_TRIPLES
from numpy_ref import associativity_scan
from test_functors import random_fp


def report(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}" + (f"  [{detail}]" if detail else ""))
    return ok


# -- criterion 1: theorem values -------------------------------------------------


# SHA-256 of each certificate's to_json_text() at [-8,8]^2, depth 8.  A change
# meant to keep certificates byte-identical must leave these as they are.
CERT_SHA256 = {
    (1, 2, 0): "b62c9afcf0e18e1677eeb95f3e2cd572e25b956ca8bbe6b91780413691a5fb60",
    (2, 3, 0): "cb94eb262dae8c650171353d2c0f90d002dd5e40837d2eaa78d4000845081df6",
    (1, 3, 2): "ab6b97366225abd75d81b6f4934bb3c18fa8e125e069a2aea75c2dbcfff4c82c",
    (1, 1, 0): "7803d49615da531dfef039c178a2d6a7dc9a695839356a877e539b4532f0ba78",
    (2, 2, 0): "da1ead8da17ad1b7ea634950ad80c13caba6432d39a16f25bbc2ce649aba388a",
    (2, 2, 1): "c7e404a29b760c647d65bdf8c0dd283380ed9398983d2f772990a5c6451db5dc",
}


def test_theorem_values():
    window = Window(-8, 8, -8, 8)
    ok = True
    times = []
    for (r, n, m) in ACCEPTANCE_TRIPLES:
        t = validate_triple(r, n, m)
        want_kg = 2 if (r, n, m) in FINITE_TRIPLES else 1
        t0 = time.time()
        cert = certify(t, window, 8)
        dt = time.time() - t0
        times.append(f"{t}:{dt:.1f}s")
        digest = hashlib.sha256(cert.to_json_text().encode()).hexdigest()
        ok &= cert.kg == want_kg and cert.verdict == "pass" and dt < 30.0
        ok &= digest == CERT_SHA256[(r, n, m)]
    assert report("theorem-values kg certification", ok, " ".join(times))


# SHA-256 of the concatenated to_json_text() of the small grid below, in n, r,
# m order, at [-4,4]^2, depth 4.
GRID_SHA256 = "f90b1d2aced74a5f684e59acffd64189db4895e46555c6625d5b71ef99b90715"


def test_theorem_values_on_the_small_grid():
    """Every triple with 1 <= r <= n <= 4 and 0 <= m <= 3 certifies kg 2 when
    r < n and 1 when r == n, with pinned bytes."""
    digest = hashlib.sha256()
    failed = []
    for n in range(1, 5):
        for r in range(1, n + 1):
            for m in range(4):
                cert = certify(validate_triple(r, n, m), Window(-4, 4, -4, 4), 4)
                if not (cert.passed and cert.kg == (2 if r < n else 1)):
                    failed.append((r, n, m))
                digest.update(cert.to_json_text().encode())
    ok = not failed and digest.hexdigest() == GRID_SHA256
    assert report("theorem-values grid", ok, f"40 triples, failed {failed}")


# -- criterion 2: simple-object suite ----------------------------------------------


def test_simple_object_suite():
    failures = []
    total = 0
    for (r, n, m) in ACCEPTANCE_TRIPLES:
        t = validate_triple(r, n, m)
        eng = get_engine(t, (-4, 4, -4, 4))
        verts = eng.vertices()
        for v in verts:
            total += 1
            A = build_simple0(t, v)
            dims = eng.dims_at_vertices(
                eng.dims_cube(v, A.denominators.generators)
            )
            for w, d in dims.items():
                if d != (1 if w == v else 0):
                    failures.append((t, v, w, d))
    assert report(
        "simple-object suite", not failures, f"{total} vertices, {len(failures)} failures"
    )


# -- criterion 3: exact-sequence suite ----------------------------------------------


def test_exact_sequence_suite():
    t = validate_triple(1, 2, 0)
    window = Window(-6, 6, -6, 6)
    eng = get_engine(t, window.box)
    wreg = window.region()
    checked = 0
    ok = True

    # tower sequences of the simple-mod-finite quotients at X-vertices,
    # all in-window (a, b) and auxiliary parameters, chain indices 0..4
    for (a, b) in R.enumerate_points(M.index_region(t, "X", 0), wreg):
        for aux in range(-6, 7):
            for step in range(5):
                here = build_simple1(t, KIND_BP, 0, (a, b + step), aux)
                sub = build_simple1(t, KIND_BP, 0, (a, b + step + 1), aux)
                top = here.top
                u = M.arrow_or_zero(t, top, VertexId("X", 0, (a, b + step + 1)), 0)
                quot = build_simple0(t, top)
                ok &= eng.ses_foreign(
                    top,
                    u,
                    sub.top,
                    sub.denominators.generators,
                    here.denominators.generators,
                    quot.denominators.generators,
                )
                checked += 1
            # descending degree-1 chains below the auxiliary parameter
            B = build_simple1(t, KIND_BP, 0, (a, b), aux)
            for k in range(5):
                d = aux - 1 - k
                if d < -6:
                    break
                u = M.arrow_or_zero(t, B.top, VertexId("Z", 0, (a, d)), 1)
                nxt = M.arrow_or_zero(t, B.top, VertexId("Z", 0, (a, d + 1)), 1)
                sinks = M.ar_sink_maps(t, VertexId("Z", 0, (a, d)))
                ok &= eng.kernel_matches(
                    B.top, u, B.denominators.generators + (nxt,), sinks
                )
                checked += 1

    # finite-length chains for every in-window X- and Y-vertex, plus the
    # border identification of the degree-1 image
    for v in eng.vertices():
        if v.family == "Z":
            continue
        ok &= check_finite1(t, v, window)
        checked += 1
    for a in range(-6, 7):
        border = VertexId("X", 0, (a, a))
        f = M.arrow_or_zero(t, border, VertexId("Z", 0, (a, 0)), 1)
        Q = build_simple1(t, KIND_CP, 0, (a, 0), a + 1)
        ok &= F.image_presentation_check(t, f, Q, window)
        checked += 1

    # descending-image chain out of every in-window Z-vertex, indices 0..4
    for v in eng.vertices():
        if v.family != "Z":
            continue
        (a, b) = v.coord
        for step in range(5):
            u = (
                IdentityMorphism(v)
                if step == 0
                else M.arrow_or_zero(t, v, VertexId("Z", 0, (a + step, b)), 0)
            )
            nxt = M.arrow_or_zero(t, v, VertexId("Z", 0, (a + step + 1, b)), 0)
            layer = build_simple1(t, KIND_CP, 0, (a + step, b), a + 1)
            ok &= eng.kernel_matches(v, u, (nxt,), layer.denominators.generators)
            checked += 1

    # perturbation controls: each must fail
    top = VertexId("X", 0, (0, 1))
    skip = M.arrow_or_zero(t, top, VertexId("X", 0, (0, 3)), 0)
    ctrl1 = F.ses_check(
        t,
        Subfunctor(top, (skip,)),
        build_simple1(t, KIND_BP, 0, (0, 1), 0).denominators,
        build_simple0(t, top),
        window,
    )
    f = M.arrow_or_zero(t, VertexId("X", 0, (0, 0)), VertexId("Z", 0, (0, 0)), 1)
    ctrl2 = F.image_presentation_check(
        t, f, build_simple1(t, KIND_CP, 0, (0, 0), 0), window
    )
    z = VertexId("Z", 0, (0, 0))
    ctrl3 = eng.kernel_matches(
        z,
        IdentityMorphism(z),
        (M.arrow_or_zero(t, z, VertexId("Z", 0, (1, 0)), 0),),
        build_simple0(t, VertexId("Z", 0, (0, 0))).denominators.generators,
    )
    controls_fail = not (ctrl1 or ctrl2 or ctrl3)

    assert report(
        "exact-sequence suite",
        ok and controls_fail,
        f"{checked} sequences, 3 perturbation controls rejected={controls_fail}",
    )


# -- criterion 4: composition laws -----------------------------------------------------


def test_composition_laws():
    ok = True
    detail = []
    for (r, n, m) in [(1, 2, 0), (1, 1, 0)]:
        t = validate_triple(r, n, m)
        eng = WindowEngine(t, (-3, 3, -3, 3))
        viol = associativity_scan(eng)
        ok &= viol is None
        verts = eng.vertices()
        arrows = []
        for u in verts:
            cube = eng.cube(u)
            for v in verts:
                for d in range(t.max_degree + 1):
                    if M.arrow_exists(t, u, v, d):
                        arrows.append(ArrowMorphism(u, v, d))
        # identity neutrality and zero absorption
        for f in arrows:
            assert M.compose(t, IdentityMorphism(f.dst), f) == f
            assert M.compose(t, f, IdentityMorphism(f.src)) == f
            assert M.compose(t, ZERO, f) is ZERO
            assert M.compose(t, f, ZERO) is ZERO
        # degree additivity over all composable pairs
        outgoing = {}
        for g in arrows:
            outgoing.setdefault(g.src, []).append(g)
        pairs = 0
        for f in arrows:
            for g in outgoing.get(f.dst, ()):
                gf = M.compose(t, g, f)
                pairs += 1
                if isinstance(gf, ArrowMorphism):
                    ok &= gf.degree == f.degree + g.degree
                else:
                    ok &= gf is ZERO
        detail.append(f"{t}:{len(arrows)} arrows,{pairs} pairs")
    assert report("composition laws", ok, " ".join(detail))


# -- criterion 5: region-algebra oracle ---------------------------------------------------


def _mask(reg, X, Y):
    if reg is R.EMPTY:
        return np.zeros_like(X, dtype=bool)
    c = [reg.lo_x, reg.hi_x, reg.lo_y, reg.hi_y, reg.lo_d, reg.hi_d]
    big = 10**9
    vals = [(-big if v == R.NEG_INF else (big if v == R.POS_INF else v)) for v in c]
    return (
        (X >= vals[0])
        & (X <= vals[1])
        & (Y >= vals[2])
        & (Y <= vals[3])
        & (X - Y >= vals[4])
        & (X - Y <= vals[5])
    )


def _random_region(rng):
    def bound(lo):
        v = rng.randint(-10, 9)
        if v == 9:
            return R.NEG_INF if lo else R.POS_INF
        return v

    return R.Region(
        lo_x=bound(True),
        hi_x=bound(False),
        lo_y=bound(True),
        hi_y=bound(False),
        lo_d=bound(True),
        hi_d=bound(False),
    )


def test_region_algebra_oracle():
    rng = random.Random(424242)
    X, Y = np.meshgrid(np.arange(-10, 11), np.arange(-10, 11), indexing="ij")
    # closure corners of |bound| <= 10 regions stay within [-20, 20], so a
    # finite region is fully inside the first growth window
    Xg, Yg = np.meshgrid(np.arange(-22, 23), np.arange(-22, 23), indexing="ij")
    Xh, Yh = np.meshgrid(np.arange(-30, 31), np.arange(-30, 31), indexing="ij")
    bad = 0
    for _ in range(10_000):
        a = _random_region(rng)
        b = _random_region(rng)
        inter = R.intersect(a, b)
        if not np.array_equal(_mask(inter, X, Y), _mask(a, X, Y) & _mask(b, X, Y)):
            bad += 1
        diff = R.subtract(a, b)
        want = _mask(a, X, Y) & ~_mask(b, X, Y)
        pieces = [_mask(p, X, Y) for p in diff]
        got = np.logical_or.reduce(pieces) if pieces else np.zeros_like(want)
        if not np.array_equal(got, want):
            bad += 1
        if pieces and (np.sum(pieces, axis=0) > 1).any():
            bad += 1  # pieces must be pairwise disjoint
        ca = R.close(a)
        if ca is not R.EMPTY and R.close(ca) != ca:
            bad += 1
        if ca is R.EMPTY and _mask(a, Xh, Yh).any():
            bad += 1
        grew = int(_mask(a, Xh, Yh).sum()) > int(_mask(a, Xg, Yg).sum())
        if R.is_finite(a) != (not grew):
            bad += 1
    assert report("region-algebra oracle", bad == 0, f"10000 pairs, {bad} disagreements")


# -- criterion 6: support oracle -------------------------------------------------------------


def test_support_oracle():
    rng = random.Random(20260808)
    bad = 0
    total = 0
    for (r, n, m) in ACCEPTANCE_TRIPLES:
        t = validate_triple(r, n, m)
        eng = get_engine(t, (-5, 5, -5, 5))
        verts = eng.vertices()
        for _ in range(200):
            fp = random_fp(t, rng, verts)
            total += 1
            supp = F.support_region(t, fp)
            dims = eng.dims_at_vertices(
                eng.dims_cube(fp.top, fp.denominators.generators)
            )
            for v, d in dims.items():
                rs = supp.get((v.family, v.orbit))
                sym = rs.member(v.coord) if rs is not None else False
                if sym != (d > 0):
                    bad += 1
    assert report("support oracle", bad == 0, f"{total} functors, {bad} disagreements")


# -- criterion 7: finite-layer facts -----------------------------------------------------------


def test_c0_layer_facts():
    ok = True
    count = 0
    for (r, n, m) in ACCEPTANCE_TRIPLES:
        t = validate_triple(r, n, m)
        for v in M.vertices_in_box(t, -4, 4, -4, 4):
            count += 1
            ok &= F.is_in_c0(t, build_simple0(t, v))
            ok &= not F.is_in_c0(t, F.representable(t, v))
    t = validate_triple(1, 2, 0)
    guard = False
    try:
        check_finite1(t, VertexId("Z", 0, (0, 0)), Window(-4, 4, -4, 4))
    except WrongFamily:
        guard = True
    assert report("finite-layer facts", ok and guard, f"{count} vertices, family guard={guard}")


# -- criterion 8: endomorphism-ring sanity -------------------------------------------------------


def test_end_ring_sanity():
    t = validate_triple(1, 1, 0)
    x = VertexId("X", 0, (0, 0))
    basis = M.hom_basis(t, x, x)
    ok = len(basis) == 2
    eps = basis[1]
    ok &= isinstance(basis[0], IdentityMorphism)
    ok &= M.compose(t, eps, eps) is ZERO
    assert report("endomorphism-ring sanity", ok, "dual numbers shape")
