"""Subfunctor evaluation, symbolic supports, and exactness checks."""

import hashlib
import json
import random

import pytest

from kgcert import functors as F
from kgcert import model as M
from kgcert import regions as R
from kgcert.certifier import KIND_BP, KIND_CP, build_simple0, build_simple1
from kgcert.engine import WindowEngine
from kgcert.errors import IncompatibleTops, NotASubfunctor
from kgcert.functors import FpFunctor, Subfunctor, Window
from kgcert.model import ArrowMorphism, IdentityMorphism, VertexId, ZERO
from kgcert.presentation import validate_triple

from conftest import ACCEPTANCE_TRIPLES, ORBIT_TRIPLES


def V(fam, orbit, a, b):
    return VertexId(fam, orbit, (a, b))


def arrow(t, src, fam, orbit, coord, deg):
    k = M.arrow_or_zero(t, src, VertexId(fam, orbit, coord), deg)
    assert k is not ZERO
    return k


W6 = Window(-6, 6, -6, 6)


def random_fp(t, rng, verts, box=8):
    top = rng.choice(verts)
    fan = M.arrow_fan(t, top).entries
    gens = []
    for _ in range(rng.randint(0, 3)):
        e = rng.choice(fan)
        pts = R.enumerate_points(e.region, R.box(-box, box, -box, box))
        if e.excludes_src:
            pts = [p for p in pts if p != top.coord]
        if not pts:
            continue
        gens.append(ArrowMorphism(top, VertexId(e.family, e.orbit, rng.choice(pts)), e.degree))
    return FpFunctor(top, Subfunctor(top, tuple(gens)))


# -- evaluation ------------------------------------------------------------------


def test_eval_sub_composes_through(t120):
    top = V("X", 0, 0, 1)
    S = Subfunctor(top, (arrow(t120, top, "X", 0, (0, 2), 0),))
    got = F.eval_sub(t120, S, V("X", 0, 0, 3))
    assert got == {ArrowMorphism(top, V("X", 0, 0, 3), 0)}


def test_eval_sub_zero_generator(t120):
    S = Subfunctor(V("X", 0, 0, 1), (ZERO,))
    assert F.eval_sub(t120, S, V("Z", 0, 0, 0)) == frozenset()


def test_eval_sub_identity_improper(t120):
    top = V("X", 0, 0, 1)
    S = Subfunctor(top, (IdentityMorphism(top),))
    assert F.eval_sub(t120, S, top) == set(M.hom_basis(t120, top, top))


def test_eval_fp_simple_at_top(t120):
    A = build_simple0(t120, V("X", 0, 0, 1))
    assert F.eval_fp(t120, A, V("X", 0, 0, 1)) == 1
    assert F.eval_fp(t120, A, V("X", 0, 0, 2)) == 0


def test_eval_fp_representable(t120):
    H = F.representable(t120, V("X", 0, 0, 1))
    for v in [V("X", 0, 0, 1), V("Z", 0, 0, 5), V("X", 0, 1, 3)]:
        assert F.eval_fp(t120, H, v) == len(M.hom_basis(t120, H.top, v))


def test_subfunctor_rejects_foreign_generator(t120):
    with pytest.raises(IncompatibleTops):
        Subfunctor(V("X", 0, 0, 1), (arrow(t120, V("X", 0, 0, 2), "X", 0, (0, 3), 0),))


# -- symbolic support -------------------------------------------------------------


def test_support_representable_channels(t120):
    H = F.representable(t120, V("X", 0, 0, 1))
    chans = {(c.family, c.orbit, c.degree): c.regions for c in F.support_channels(t120, H)}
    deg0 = chans[("X", 0, 0)]
    assert deg0.member((0, 1)) and deg0.member((1, 5)) and not deg0.member((2, 5))
    assert chans[("Z", 0, 1)].member((1, -40))
    deg2 = chans[("X", 0, 2)]
    assert deg2.member((0, 1)) and not deg2.member((1, 1))


def test_support_simple_is_singleton(t120):
    A = build_simple0(t120, V("X", 0, 0, 1))
    supp = F.support_region(t120, A)
    pts = {
        (fam, orb, p)
        for (fam, orb), rs in supp.items()
        for x in range(-6, 7)
        for y in range(-6, 7)
        for p in [(x, y)]
        if rs.member(p)
    }
    assert pts == {("X", 0, (0, 1))}


def test_support_quotient_column(t120):
    """Denominator by the x-shift and a degree-1 map leaves the x = a column
    in the same-family channel, infinite upward."""
    B = build_simple1(t120, KIND_BP, 0, (0, 1), 0)
    chans = {(c.family, c.orbit, c.degree): c.regions for c in F.support_channels(t120, B)}
    col = chans[("X", 0, 0)]
    for y in range(1, 7):
        assert col.member((0, y))
    assert not col.member((1, 2))
    assert not col.is_finite()


def test_support_matches_pointwise_random():
    rng = random.Random(20260808)
    for (r, n, m) in ACCEPTANCE_TRIPLES:
        t = validate_triple(r, n, m)
        eng = WindowEngine(t, (-5, 5, -5, 5))
        verts = eng.vertices()
        for _ in range(25):
            fp = random_fp(t, rng, verts)
            supp = F.support_region(t, fp)
            dims = eng.dims_at_vertices(eng.dims_cube(fp.top, fp.denominators.generators))
            for v, d in dims.items():
                rs = supp.get((v.family, v.orbit))
                sym = rs.member(v.coord) if rs is not None else False
                assert sym == (d > 0), (t, fp, v)


# -- the finite-length layer test ----------------------------------------------------


def test_is_in_c0_simple_true(t120):
    assert F.is_in_c0(t120, build_simple0(t120, V("Z", 0, 0, 0)))


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_is_in_c0_representable_false(r, n, m):
    t = validate_triple(r, n, m)
    for v in M.vertices_in_box(t, -1, 1, -1, 1)[:6]:
        assert not F.is_in_c0(t, F.representable(t, v))


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_an_identity_generator_empties_every_channel(r, n, m):
    """A denominator that holds the identity is all of Hom(top, -): with 0-2
    random arrows beside it, every support channel and support region is
    empty and the functor is in C0."""
    t = validate_triple(r, n, m)
    rng = random.Random(f"identity-{r}-{n}-{m}")
    verts = M.vertices_in_box(t, -5, 5, -5, 5)
    for _ in range(40):
        fp = random_fp(t, rng, verts)
        gens = list(fp.denominators.generators[:2]) + [IdentityMorphism(fp.top)]
        rng.shuffle(gens)
        dead = FpFunctor(fp.top, Subfunctor(fp.top, tuple(gens)))
        channels = F.support_channels(t, dead)
        assert [(c.family, c.orbit, c.degree) for c in channels] == [
            (e.family, e.orbit, e.degree) for e in M.arrow_fan(t, fp.top).entries
        ]
        assert all(c.regions.regions == () for c in channels), (fp, gens)
        assert all(rs.regions == () for rs in F.support_region(t, dead).values())
        assert F.is_in_c0(t, dead)


def test_is_in_c0_zero_functor(t120):
    top = V("X", 0, 0, 1)
    Fz = FpFunctor(top, Subfunctor(top, (IdentityMorphism(top),)))
    assert F.is_in_c0(t120, Fz)


def symbolic_stream():
    """38 seeded functors per acceptance and orbit triple: a top in [-4,4]^2
    and 0-3 arrow generators from its fan, as in the queries benchmark."""
    rng = random.Random("symbolic-answers")
    for r, n, m in ACCEPTANCE_TRIPLES + ORBIT_TRIPLES:
        t = validate_triple(r, n, m)
        verts = M.vertices_in_box(t, -4, 4, -4, 4)
        for _ in range(38):
            yield t, random_fp(t, rng, verts)


def _pieces(rs):
    return [R.region_to_json(piece) for piece in rs]


SYMBOLIC_SHA256 = "969327bddb4e40fcf932264d829100f65c38c22a4ad6b3c537eeceff77864ea1"


def test_symbolic_answers_are_pinned():
    """One digest over the support channels, the quotient support of all
    generators over all but the last, and is_in_c0, pieces in order."""
    answers = []
    for t, fp in symbolic_stream():
        gens = fp.denominators.generators
        gap = F.quotient_support(t, fp.denominators, Subfunctor(fp.top, gens[:-1]))
        answers.append(
            [
                [[c.family, c.orbit, c.degree, _pieces(c.regions)] for c in F.support_channels(t, fp)],
                [[family, orbit, _pieces(rs)] for (family, orbit), rs in gap.items()],
                F.is_in_c0(t, fp),
            ]
        )
    text = json.dumps(answers, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SYMBOLIC_SHA256


def test_is_in_c0_is_every_channel_finite():
    """is_in_c0 against its definition on the seeded stream, every simple
    functor and every representable with its top in [-2,2]^2."""
    functors = list(symbolic_stream())
    for r, n, m in ACCEPTANCE_TRIPLES + ORBIT_TRIPLES:
        t = validate_triple(r, n, m)
        for v in M.vertices_in_box(t, -2, 2, -2, 2):
            functors += [(t, build_simple0(t, v)), (t, F.representable(t, v))]
    seen = set()
    for t, fp in functors:
        got = F.is_in_c0(t, fp)
        assert got == all(ch.regions.is_finite() for ch in F.support_channels(t, fp)), fp
        seen.add(got)
    assert seen == {True, False}


# -- image presentations ----------------------------------------------------------


@pytest.mark.parametrize("box", [(1, 0, 0, 0), (0.5, 3, 0, 3), (0, 3, 0, 3.0), (True, 3, 0, 3), (0, 3, False, 3)])
def test_window_rejects_a_degenerate_or_non_int_box(box):
    """A float bound would be truncated by the sweep engine to a box the
    caller never asked for, and a bool is not a coordinate."""
    with pytest.raises(ValueError):
        Window(*box)


def test_image_presentation_base_case(t120):
    f = arrow(t120, V("X", 0, 0, 0), "Z", 0, (0, 0), 1)
    Q = build_simple1(t120, KIND_CP, 0, (0, 0), 1)
    assert F.image_presentation_check(t120, f, Q, Window(-5, 5, -5, 5))


def test_image_presentation_rejects_identity(t120):
    Q = build_simple1(t120, KIND_CP, 0, (0, 0), 1)
    with pytest.raises(ValueError):
        F.image_presentation_check(t120, IdentityMorphism(V("Z", 0, 0, 0)), Q, W6)


def test_image_presentation_perturbed_fails(t120):
    f = arrow(t120, V("X", 0, 0, 0), "Z", 0, (0, 0), 1)
    Q_bad = build_simple1(t120, KIND_CP, 0, (0, 0), 0)  # aux off by one
    assert not F.image_presentation_check(t120, f, Q_bad, Window(-5, 5, -5, 5))


# -- short exact sequences ----------------------------------------------------------


def test_ses_check_tower_step(t120):
    top = V("X", 0, 0, 1)
    B = build_simple1(t120, KIND_BP, 0, (0, 1), 0)
    u = arrow(t120, top, "X", 0, (0, 2), 0)
    A = build_simple0(t120, top)
    assert F.ses_check(t120, Subfunctor(top, (u,)), B.denominators, A, W6)


def test_ses_check_descending_chain_step(t120):
    top = V("Z", 0, 0, 0)
    sub = Subfunctor(top, (arrow(t120, top, "Z", 0, (1, 0), 0),))
    mid = Subfunctor(top, ())
    quot = build_simple1(t120, KIND_CP, 0, (0, 0), 1)
    assert F.ses_check(t120, sub, mid, quot, W6)


def test_ses_check_perturbed_coordinate_fails(t120):
    top = V("X", 0, 0, 1)
    B = build_simple1(t120, KIND_BP, 0, (0, 1), 0)
    u_skip = arrow(t120, top, "X", 0, (0, 3), 0)  # skips one tower index
    A = build_simple0(t120, top)
    assert not F.ses_check(t120, Subfunctor(top, (u_skip,)), B.denominators, A, W6)


def test_ses_check_rejects_mixed_tops(t120):
    top = V("X", 0, 0, 1)
    other = V("X", 0, 0, 2)
    with pytest.raises(IncompatibleTops):
        F.ses_check(
            t120,
            Subfunctor(top, ()),
            Subfunctor(other, ()),
            F.representable(t120, top),
            W6,
        )


# -- quotient support ------------------------------------------------------------------


def test_quotient_support_equal_functors(t120):
    top = V("X", 0, 0, 1)
    G = Subfunctor(top, (arrow(t120, top, "X", 0, (0, 2), 0),))
    gap = F.quotient_support(t120, G, G)
    assert all(rs.is_empty() for rs in gap.values())


def test_quotient_support_simple_gap(t120):
    top = V("X", 0, 0, 1)
    full = Subfunctor(top, (IdentityMorphism(top),))
    sinks = Subfunctor(top, M.ar_sink_maps(t120, top))
    gap = F.quotient_support(t120, full, sinks)
    assert all(rs.is_finite() for rs in gap.values())
    assert gap[("X", 0)].member((0, 1))


def test_quotient_support_infinite_gap(t120):
    top = V("Z", 0, 0, 0)
    full = Subfunctor(top, (IdentityMorphism(top),))
    G = Subfunctor(top, (arrow(t120, top, "Z", 0, (1, 0), 0),))
    gap = F.quotient_support(t120, full, G)
    assert not all(rs.is_finite() for rs in gap.values())
    assert gap[("Z", 0)].member((0, 3))


def test_quotient_support_rejects_non_subfunctor(t120):
    top = V("Z", 0, 0, 0)
    Fsub = Subfunctor(top, (arrow(t120, top, "Z", 0, (1, 0), 0),))
    Gsub = Subfunctor(top, (arrow(t120, top, "Z", 0, (0, 1), 0),))
    with pytest.raises(NotASubfunctor):
        F.quotient_support(t120, Fsub, Gsub)


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_quotient_support_over_the_identity_is_the_quotient_functor_support(r, n, m):
    """<id, gens> over <gens> is Hom(top, -) over <gens>: quotient_support has
    the points of support_region of H_top/<gens> per (family, orbit) on
    [-7,7]^2, for 0-2 random arrows; the swapped pair is no subfunctor."""
    t = validate_triple(r, n, m)
    rng = random.Random(f"identity-law-{r}-{n}-{m}")
    verts = M.vertices_in_box(t, -4, 4, -4, 4)
    box = R.box(-7, 7, -7, 7)

    def points(supports):
        found = {key: {p for piece in rs for p in R.enumerate_points(piece, box)} for key, rs in supports.items()}
        return {key: pts for key, pts in found.items() if pts}

    for _ in range(50):
        fp = random_fp(t, rng, verts)
        top, gens = fp.top, fp.denominators.generators[:2]
        full = Subfunctor(top, (IdentityMorphism(top),) + gens)
        quotient = FpFunctor(top, Subfunctor(top, gens))
        got = F.quotient_support(t, full, Subfunctor(top, gens))
        assert points(got) == points(F.support_region(t, quotient)), (top, gens)
        with pytest.raises(NotASubfunctor):
            F.quotient_support(t, Subfunctor(top, gens), full)


# -- structural properties ---------------------------------------------------------------


def test_monotone_in_generators(t120):
    rng = random.Random(5)
    eng = WindowEngine(t120, (-4, 4, -4, 4))
    verts = eng.vertices()
    for _ in range(20):
        fp = random_fp(t120, rng, verts)
        more = random_fp(t120, rng, [fp.top])
        bigger = FpFunctor(
            fp.top,
            Subfunctor(fp.top, fp.denominators.generators + more.denominators.generators),
        )
        for v in rng.sample(verts, 10):
            assert F.eval_fp(t120, bigger, v) <= F.eval_fp(t120, fp, v)


def test_eval_sub_closed_under_composition(t120):
    rng = random.Random(11)
    eng = WindowEngine(t120, (-3, 3, -3, 3))
    verts = eng.vertices()
    for _ in range(10):
        fp = random_fp(t120, rng, verts, box=5)
        S = fp.denominators
        for v in rng.sample(verts, 5):
            for s in F.eval_sub(t120, S, v):
                for w in rng.sample(verts, 5):
                    for h in M.hom_basis(t120, v, w):
                        hs = M.compose(t120, h, s)
                        if hs is not ZERO:
                            assert hs in F.eval_sub(t120, S, w)
