"""Vertices, arrow fans, hom bases, and the monomial composition rule."""

import random
import re
from functools import lru_cache
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgcert import model as M
from kgcert import regions as R
from kgcert.engine import WindowEngine
from kgcert.certifier import Simple1Instance
from kgcert.errors import InvalidVertex, NotComposable
from kgcert.functors import eval_fp, eval_sub, representable
from kgcert.model import ArrowMorphism, FanEntry, IdentityMorphism, VertexId, ZERO
from kgcert.presentation import GentleTriple, validate_triple

import fan_reference
from conftest import ACCEPTANCE_TRIPLES, ORBIT_TRIPLES
from numpy_ref import associativity_scan


def V(fam, orbit, a, b):
    return VertexId(fam, orbit, (a, b))


# -- vertex validity -------------------------------------------------------------


def test_vertex_valid_examples(t120):
    assert M.vertex_valid(t120, V("X", 0, 0, 1))
    assert not M.vertex_valid(t120, V("Y", 0, 0, 1))  # needs 0 + 2 <= 1
    assert M.vertex_valid(t120, V("Z", 0, 17, -4))
    assert not M.vertex_valid(t120, V("X", 1, 0, 1))  # orbit out of range
    assert not M.vertex_valid(t120, V("W", 0, 0, 0))  # unknown family
    assert [M.index_region(t120, family, 0) for family in "XYZ"] == [
        R.Region(hi_d=0), R.Region(hi_d=-2), R.FULL
    ]
    with pytest.raises(InvalidVertex, match="unknown family 'W'"):
        M.index_region(t120, "W", 0)


def test_infinite_mode_has_only_x(t110):
    assert M.vertex_valid(t110, V("X", 0, 0, 0))
    assert not M.vertex_valid(t110, V("Y", 0, 0, 5))
    assert not M.vertex_valid(t110, V("Z", 0, 0, 0))
    assert M.index_region(t110, "X", 0) == R.Region(hi_d=0)
    for family in ("Y", "Z", "W"):
        with pytest.raises(InvalidVertex, match=f"^family {family} does not exist when r == n$"):
            M.index_region(t110, family, 0)


# -- arrow fans -------------------------------------------------------------------


def _outcome(build):
    """build()'s value, or the type and message of what it raised."""
    try:
        return build()
    except InvalidVertex as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_fan_table_matches_the_reference_branches(r, n, m):
    """Index regions, vertex validity and fan records equal those of the
    hand-written branches in fan_reference at every channel point of
    [-6,6]^2, a vertex or not: entries in order with their excludes_src
    flags, channels in order, and sinks.  An unknown family gets the same
    answer.  An orbit out of range is no channel, and a bool or float
    coordinate is no vertex, where the branches answer for both."""
    t = validate_triple(r, n, m)
    for family in ("X", "Y", "Z", "W"):
        for orbit in range(-1, t.orbit_count + 1):
            if orbit in range(t.orbit_count) or family == "W":
                assert _outcome(lambda: M.index_region(t, family, orbit)) == _outcome(
                    lambda: fan_reference.index_region(t, family, orbit)
                ), (family, orbit)
                continue
            with pytest.raises(InvalidVertex, match=f"^family {family} (has no orbit {orbit};|does not exist)"):
                M.index_region(t, family, orbit)
    vertices = 0
    for family in ("X", "Y", "Z"):
        for orbit in range(t.orbit_count + 1):
            for a in range(-6, 7):
                for b in range(-6, 7):
                    v = V(family, orbit, a, b)
                    assert M.vertex_valid(t, v) == fan_reference.vertex_valid(t, v), v
                    rec, ref = M._fan_entries(t, v), fan_reference.fan_record(t, v)
                    if ref is None:
                        assert rec is None, v
                        continue
                    vertices += 1
                    assert rec.src == ref.src
                    assert rec.entries == ref.entries, v
                    assert [e.excludes_src for e in rec.entries] == [e.excludes_src for e in ref.entries], v
                    assert list(rec.channels.items()) == list(ref.channels.items()), v
                    assert rec.sinks == ref.sinks, v
        for coord in [(True, 0), (0, False), (1.0, 0), (0.5, -1)]:
            v = VertexId(family, 0, coord)
            assert not M.vertex_valid(t, v) and M._record(t, v) is None, v
    assert vertices > 80


def test_arrow_fan_x_vertex(t120):
    fan = M.arrow_fan(t120, V("X", 0, 0, 1))
    by_key = {(e.family, e.orbit, e.degree): e for e in fan.entries}
    e0 = by_key[("X", 0, 0)]
    assert e0.excludes_src
    assert R.close(e0.region) == R.close(R.box(0, 1, 1, R.POS_INF))
    e1 = by_key[("Z", 0, 1)]
    assert R.close(e1.region) == R.close(R.box(0, 1, R.NEG_INF, R.POS_INF))
    e2 = by_key[("X", 0, 2)]
    assert R.close(e2.region) == R.close(R.box(R.NEG_INF, 0, 0, 1))


def test_arrow_fan_rejects_invalid_vertex(t120, t110):
    for t, v in [
        (t120, V("Y", 0, 0, 1)),  # below its diagonal bound
        (t120, V("X", 1, 0, 1)),  # orbit out of range
        (t120, V("X", -1, 0, 1)),
        (t110, V("Z", 0, 0, 0)),  # no Z family when r == n
    ]:
        with pytest.raises(InvalidVertex):
            M.arrow_fan(t, v)
        with pytest.raises(InvalidVertex):
            M.ar_sink_maps(t, v)
        a, b = v.coord
        for d in range(-1, t.max_degree + 2):
            for fam in "XYZ":
                for dst in (v, V(fam, 0, a, b + 1), V(fam, v.orbit, a - 1, b + 1)):
                    assert not M.arrow_exists(t, v, dst, d)


NO_INT_COORDS = pytest.mark.parametrize(
    "coord", [(0.5, 0), (True, 0), (1.0, 0)], ids=["float", "bool", "integral-float"]
)


@NO_INT_COORDS
def test_arrow_fan_rejects_a_coordinate_that_is_no_int(t120, coord):
    """A Z-point lies in the full index region, whatever its coordinates,
    but a coordinate that is not of type int makes it no vertex.  The cache
    takes (True, 0) and (1.0, 0) for the equal key (1, 0), so that record is
    cached first: every reader must still reject the point."""
    twin = VertexId("Z", 0, tuple(int(c) for c in coord))
    M.arrow_fan(t120, twin)
    v = VertexId("Z", 0, coord)
    assert not M.arrow_exists(t120, v, twin, 0)
    message = re.escape(f"not a vertex of the model: {v}")
    for read in (
        lambda: M.arrow_fan(t120, v),
        lambda: M.ar_sink_maps(t120, v),
        lambda: M.hom_basis(t120, v, twin),
    ):
        with pytest.raises(InvalidVertex, match=message):
            read()


@pytest.mark.parametrize("orbit", [True, 1.0], ids=["bool", "float"])
def test_an_orbit_that_is_no_int_is_no_vertex(orbit):
    """On (2,3,0), X:True:(0,1) and X:1.0:(0,1) equal the vertex X:1:(0,1)
    and hash alike, but an orbit that is not of type int makes them no
    vertex: no reader answers for them, index_region raises for the orbit,
    and the record cached for X:1:(0,1) afterwards is its own."""
    t = validate_triple(2, 3, 0)
    twin, below = V("X", 1, 0, 1), V("X", 1, 0, 0)
    v = VertexId("X", orbit, (0, 1))
    assert v == twin and M.vertex_valid(t, twin) and M.arrow_exists(t, below, twin, 0)
    M._fan_entries.cache_clear()  # so that nothing but v's own reads could cache twin's record
    assert not M.vertex_valid(t, v)
    assert not M.arrow_exists(t, below, v, 0) and not M.arrow_exists(t, v, V("X", 1, 0, 2), 0)
    for read in (
        lambda: M.arrow_fan(t, v),
        lambda: M.hom_basis(t, v, twin),
        lambda: M.hom_basis(t, below, v),
        lambda: M.ar_sink_maps(t, v),
        lambda: M.index_region(t, "X", orbit),
    ):
        with pytest.raises(InvalidVertex):
            read()
    assert type(M.arrow_fan(t, twin).src.orbit) is int


@NO_INT_COORDS
def test_a_target_coordinate_that_is_no_int_is_no_vertex(t120, coord):
    """The vertex rule holds for a target as for a source: from Z:0:(0,0)
    there is no arrow, no hom space and no functor value at a Z-point whose
    coordinate is not an int, though the point lies in Z's index region and
    in the degree-0 fan region of Z:0:(0,0)."""
    src, dst = V("Z", 0, 0, 0), VertexId("Z", 0, coord)
    assert not M.vertex_valid(t120, dst)
    assert not any(M.arrow_exists(t120, src, dst, d) for d in range(t120.max_degree + 1))
    F = representable(t120, src)
    message = re.escape(f"not a vertex of the model: {dst}")
    for read in (
        lambda: M.hom_basis(t120, src, dst),
        lambda: eval_fp(t120, F, dst),
        lambda: eval_sub(t120, F.denominators, dst),
    ):
        with pytest.raises(InvalidVertex, match=message):
            read()


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_fan_boxes_are_valid_boxes(r, n, m):
    """The fan boxes skip Region's validation; each has bounds that pass
    it, no x - y bound, and equals and hashes like the validated box."""
    t = validate_triple(r, n, m)
    for v in M.vertices_in_box(t, -3, 3, -3, 3):
        for e in M.arrow_fan(t, v).entries:
            box = R.box(e.region.lo_x, e.region.hi_x, e.region.lo_y, e.region.hi_y)
            assert e.region == box and hash(e.region) == hash(box)


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_fan_record_contract(r, n, m):
    """The channel mapping indexes exactly the fan entries, which come in
    degree order (hom_basis relies on it), and is read-only (the cached
    record is shared by every caller)."""
    t = validate_triple(r, n, m)
    for v in M.vertices_in_box(t, -2, 2, -2, 2):
        fan = M.arrow_fan(t, v)
        assert fan.channels == {(e.family, e.orbit, e.degree): e for e in fan.entries}
        degrees = [e.degree for e in fan.entries]
        assert degrees == sorted(degrees)
        with pytest.raises(TypeError):
            fan.channels[(v.family, v.orbit, 0)] = fan.entries[-1]


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_fan_record_is_shared(r, n, m):
    """arrow_fan returns the one cached record of a vertex, not a copy, and
    ar_sink_maps returns that record's sink pair."""
    t = validate_triple(r, n, m)
    for v in M.vertices_in_box(t, -3, 3, -3, 3):
        fan = M.arrow_fan(t, v)
        assert M.arrow_fan(t, v) is fan
        assert fan.src == v
        assert M.ar_sink_maps(t, v) is fan.sinks


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_fan_targets_are_valid_vertices(r, n, m):
    """Symbolically: every fan region sits inside the target index set.
    arrow_exists relies on this to skip validating its target vertex."""
    t = validate_triple(r, n, m)
    for v in M.vertices_in_box(t, -3, 3, -3, 3):
        for e in M.arrow_fan(t, v).entries:
            target_set = M.index_region(t, e.family, e.orbit)
            assert R.subtract(e.region, target_set).is_empty()


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_fan_channels_unique(r, n, m):
    """At most one arrow per (source, target, degree): one fan entry per
    (family, orbit, degree) channel."""
    t = validate_triple(r, n, m)
    for v in M.vertices_in_box(t, -2, 2, -2, 2):
        keys = [(e.family, e.orbit, e.degree) for e in M.arrow_fan(t, v).entries]
        assert len(keys) == len(set(keys))


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_source_point_lies_in_own_degree0_fan_region(r, n, m):
    """Every vertex has a degree-0 entry into its own channel, marked
    excludes_src, whose region holds the vertex's own point: the region plus
    the identity is that one region, which the certifier's factorisation
    check relies on."""
    t = validate_triple(r, n, m)
    for v in M.vertices_in_box(t, -4, 4, -4, 4):
        own = [
            e for e in M.arrow_fan(t, v).entries
            if (e.family, e.orbit, e.degree) == (v.family, v.orbit, 0)
        ]
        assert len(own) == 1 and own[0].excludes_src
        assert R.member(own[0].region, v.coord)


# -- arrow existence and hom bases -------------------------------------------------


def test_arrow_exists_examples(t120):
    x01 = V("X", 0, 0, 1)
    assert M.arrow_exists(t120, x01, V("X", 0, 0, 2), 0)
    assert not M.arrow_exists(t120, x01, x01, 0)  # self-target excluded
    assert M.arrow_exists(t120, x01, x01, 2)


def _reference_arrow_exists(t, src, dst, degree):
    """arrow_exists before the fan record: validate both endpoints, then scan
    the source's fan."""
    if not (M.vertex_valid(t, src) and M.vertex_valid(t, dst)):
        return False
    for e in M.arrow_fan(t, src).entries:
        if e.family == dst.family and e.orbit == dst.orbit and e.degree == degree:
            if e.excludes_src and dst == src:
                return False
            return R.member(e.region, dst.coord)
    return False


def _arrow_cases(t, seed, samples=10000):
    """(src, dst, degree) triples: pinned edges, then seeded random ones.

    Families X, Y and Z in every mode, orbits -1 .. R and degrees
    -1 .. max_degree + 1 (the ends do not exist), dst == src at every
    degree, and targets on and one step outside each diagonal bound."""
    rng = random.Random(seed)
    orbits = range(-1, t.orbit_count + 1)
    degrees = range(-1, t.max_degree + 2)
    pool = [
        V(f, o, a, b)
        for f in "XYZ"
        for o in orbits
        for a in range(-2, 3)
        for b in range(-2, 3)
    ]
    cases = [(v, v, d) for v in pool for d in degrees]
    for src in pool[::7]:
        for f in "XYZ":
            for o in orbits:
                for a in range(-3, 4):
                    # X is bounded by a <= b + m at orbit 0, Y by a + n <= b
                    for b in {a - t.m, a - t.m - 1, a + t.n, a + t.n - 1, a, a - 1}:
                        for d in degrees:
                            cases.append((src, V(f, o, a, b), d))
    valid = M.vertices_in_box(t, -2, 2, -2, 2)
    for _ in range(samples):
        src = rng.choice(valid if rng.random() < 0.75 else pool)
        a, b = src.coord
        # fan targets stay in the source's orbit or the next one
        orbit = rng.choice((src.orbit, (src.orbit + 1) % t.orbit_count, rng.choice(orbits)))
        family = rng.choice((src.family, *"XYZ"))
        dst = V(family, orbit, a + rng.randint(-3, 3), b + rng.randint(-3, 3))
        cases.append((src, dst, rng.choice(degrees)))
    return cases


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_arrow_lookup_matches_reference(r, n, m):
    t = validate_triple(r, n, m)
    found = 0
    for src, dst, d in _arrow_cases(t, seed=r * 100 + n * 10 + m):
        want = _reference_arrow_exists(t, src, dst, d)
        assert M.arrow_exists(t, src, dst, d) == want, (src, dst, d)
        assert M.arrow_or_zero(t, src, dst, d) == (ArrowMorphism(src, dst, d) if want else ZERO)
        found += want
    assert found > 100  # the cases reach into the fans, not only around them


def tau(k, v):
    """The translation (a, b) -> (a + k, b + k) of a vertex."""
    a, b = v.coord
    return V(v.family, v.orbit, a + k, b + k)


# (3, 3, 1) adds r >= 3; the three-family (3, 4, 1) would cost several seconds here.
@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + [(3, 3, 1)])
def test_model_is_invariant_under_translation(r, n, m):
    """Every index set and fan is cut out by differences and by offsets from
    the source, never by an absolute coordinate, so the diagonal shifts tau_k
    map vertices to vertices and arrows to arrows: checked for every family,
    orbit and degree, every vertex and target in [-3,3]^2."""
    t = validate_triple(r, n, m)
    ids = [
        V(family, orbit, a, b)
        for family, orbit in M.index_regions(t)
        for a in range(-3, 4)
        for b in range(-3, 4)
    ]
    degrees = range(t.max_degree + 1)
    for k in (1, -2, 5):
        assert [M.vertex_valid(t, tau(k, v)) for v in ids] == [M.vertex_valid(t, v) for v in ids], k
        arrows = 0
        for v in ids:
            tv = tau(k, v)
            for w in ids:
                tw = tau(k, w)
                for d in degrees:
                    want = M.arrow_exists(t, v, w, d)
                    assert M.arrow_exists(t, tv, tw, d) == want, (k, v, w, d)
                    arrows += want
        assert arrows > 100


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_hom_basis_matches_reference(r, n, m):
    t = validate_triple(r, n, m)
    for u, v, _ in _arrow_cases(t, seed=r * 100 + n * 10 + m, samples=1000)[::5]:
        if not (M.vertex_valid(t, u) and M.vertex_valid(t, v)):
            with pytest.raises(InvalidVertex):
                M.hom_basis(t, u, v)
            continue
        want = [IdentityMorphism(u)] if u == v else []
        want += [
            ArrowMorphism(u, v, d)
            for d in range(t.max_degree + 1)
            if _reference_arrow_exists(t, u, v, d)
        ]
        assert M.hom_basis(t, u, v) == want


any_vertices = st.builds(
    VertexId,
    st.sampled_from("XYZW"),
    st.integers(-1, 3),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ACCEPTANCE_TRIPLES + ORBIT_TRIPLES), any_vertices, any_vertices)
def test_hom_basis_names_the_first_invalid_end(triple, u, v):
    """hom_basis validates u before v: the error names the first invalid
    end, so u when both ends are invalid."""
    t = validate_triple(*triple)
    bad = [w for w in (u, v) if not M.vertex_valid(t, w)]
    assume(bad)
    with pytest.raises(InvalidVertex, match=f"^not a vertex of the model: {re.escape(str(bad[0]))}$"):
        M.hom_basis(t, u, v)


def test_hom_basis_examples(t120):
    x01 = V("X", 0, 0, 1)
    assert [str(k) for k in M.hom_basis(t120, x01, x01)] == [
        "id@X:0:(0,1)",
        "X:0:(0,1)->X:0:(0,1)@2",
    ]
    assert [k.degree for k in M.hom_basis(t120, x01, V("Z", 0, 0, 5))] == [1]
    assert M.hom_basis(t120, V("Z", 0, 0, 0), V("X", 0, 5, 5)) == []


def test_hom_basis_dual_numbers(t110):
    x00 = V("X", 0, 0, 0)
    basis = M.hom_basis(t110, x00, x00)
    assert len(basis) == 2
    assert isinstance(basis[0], IdentityMorphism)
    eps = basis[1]
    assert eps.degree == 1
    assert M.compose(t110, eps, eps) == ZERO


# -- composition --------------------------------------------------------------------


def test_compose_identity_neutral(t120):
    f = ArrowMorphism(V("X", 0, 0, 1), V("X", 0, 0, 2), 0)
    assert M.compose(t120, IdentityMorphism(V("X", 0, 0, 2)), f) == f
    assert M.compose(t120, f, IdentityMorphism(V("X", 0, 0, 1))) == f


def test_compose_through_intermediate(t120):
    f = ArrowMorphism(V("X", 0, 0, 1), V("X", 0, 0, 2), 0)
    g = ArrowMorphism(V("X", 0, 0, 2), V("Z", 0, 0, 5), 1)
    assert M.compose(t120, g, f) == ArrowMorphism(V("X", 0, 0, 1), V("Z", 0, 0, 5), 1)


def test_compose_vanishes_outside_region(t120):
    f = ArrowMorphism(V("X", 0, 0, 2), V("X", 0, 1, 2), 0)
    g = ArrowMorphism(V("X", 0, 1, 2), V("X", 0, 1, 1), 2)
    assert M.compose(t120, g, f) == ZERO


def test_compose_zero_absorbs(t120):
    f = ArrowMorphism(V("X", 0, 0, 1), V("X", 0, 0, 2), 0)
    assert M.compose(t120, ZERO, f) == ZERO
    assert M.compose(t120, f, ZERO) == ZERO


def test_compose_endpoint_mismatch(t120):
    f = ArrowMorphism(V("X", 0, 0, 1), V("X", 0, 0, 2), 0)
    with pytest.raises(NotComposable):
        M.compose(t120, f, f)
    with pytest.raises(NotComposable):
        M.compose(t120, IdentityMorphism(V("X", 0, 0, 1)), f)


@pytest.mark.parametrize("r,n,m", [(1, 2, 0), (1, 1, 0), (2, 3, 1)])
def test_degree_additivity_and_no_identity_composites(r, n, m):
    t = validate_triple(r, n, m)
    verts = M.vertices_in_box(t, -2, 2, -2, 2)
    for u in verts[:30]:
        for v in verts:
            for f in M.hom_basis(t, u, v):
                if not isinstance(f, ArrowMorphism):
                    continue
                for w in verts[:15]:
                    for g in M.hom_basis(t, v, w):
                        if not isinstance(g, ArrowMorphism):
                            continue
                        gf = M.compose(t, g, f)
                        assert not isinstance(gf, IdentityMorphism)
                        if isinstance(gf, ArrowMorphism):
                            assert gf.degree == f.degree + g.degree
                            assert gf.src == u and gf.dst == w


# -- sink maps ---------------------------------------------------------------------


def test_ar_sink_maps_examples(t120):
    up, right = M.ar_sink_maps(t120, V("Z", 0, 0, 0))
    assert (up.dst.coord, right.dst.coord) == ((1, 0), (0, 1))
    z, arrow = M.ar_sink_maps(t120, V("X", 0, 0, 0))
    assert z == ZERO and arrow.dst.coord == (0, 1)
    z, arrow = M.ar_sink_maps(t120, V("Y", 0, 0, 2))
    assert z == ZERO and arrow.dst.coord == (0, 3)


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_ar_sink_maps_match_arrow_or_zero(r, n, m):
    t = validate_triple(r, n, m)
    for v in M.vertices_in_box(t, -4, 4, -4, 4):
        a, b = v.coord
        assert M.ar_sink_maps(t, v) == (
            M.arrow_or_zero(t, v, V(v.family, v.orbit, a + 1, b), 0),
            M.arrow_or_zero(t, v, V(v.family, v.orbit, a, b + 1), 0),
        )


# -- associativity -------------------------------------------------------------------


@pytest.mark.parametrize("r,n,m", [(1, 2, 0), (1, 1, 0)])
def test_associativity_exhaustive(r, n, m):
    t = validate_triple(r, n, m)
    eng = WindowEngine(t, (-4, 4, -4, 4))
    assert associativity_scan(eng) is None


@pytest.mark.parametrize("r,n,m", [(2, 3, 1), (2, 2, 1)] + ORBIT_TRIPLES)
def test_associativity_multi_orbit(r, n, m):
    # orbit-raising arrows must compose coherently across the cycle; the
    # three-family (3, 4, 1) scan runs on a smaller window to stay cheap
    t = validate_triple(r, n, m)
    h = 2 if (r, n, m) == (3, 4, 1) else 3
    eng = WindowEngine(t, (-h, h, -h, h))
    assert associativity_scan(eng) is None


# -- Serre pairing -------------------------------------------------------------------
#
# A discrete derived category has a Serre functor S (Broomhead, Pauksztello and
# Ploog, "Discrete derived categories I", arXiv:1312.5203).  In the model's
# grading it pairs degrees: Hom(A, B) has a basis element of degree d exactly
# when Hom(B, S(A)) has one of degree max_degree - d, where S(A) is the
# (hi_x, hi_y) corner of A's top-degree fan entry.  A fan bound moved by one
# breaks the pairing, which the certificate alone does not always notice.


def serre_vertex(t, v):
    """S(v) in closed form, with R = t.orbit_count and [.] an indicator:
    X: (i+1, a + [i=R-1] m, b + [i=0] m); Y: (i+1, a - [i=R-1] n, b - [i=0] n);
    Z: (i+1, a + [i=R-1] m, b - [i=R-1] n)."""
    i, (a, b) = v.orbit, v.coord
    last = 1 if i == t.orbit_count - 1 else 0
    first = 1 if i == 0 else 0
    nxt = (i + 1) % t.orbit_count
    if v.family == "X":
        return V("X", nxt, a + last * t.m, b + first * t.m)
    if v.family == "Y":
        return V("Y", nxt, a - last * t.n, b - first * t.n)
    return V("Z", nxt, a + last * t.m, b - last * t.n)


def _degrees(t, u, v):
    """Degrees of the basis of Hom(u, v); an identity has degree 0."""
    return {getattr(h, "degree", 0) for h in M.hom_basis(t, u, v)}


def serre_violation(t, half, reach=4):
    """The first (A, B) with A in [-half, half]^2 and B within reach of A
    (L-inf) that breaks the pairing, or (A, S(A)) when S(A) is no vertex;
    None when there is none."""
    top = t.max_degree
    for A in M.vertices_in_box(t, -half, half, -half, half):
        S = serre_vertex(t, A)
        if not M.vertex_valid(t, S):
            return A, S
        a, b = A.coord
        for B in M.vertices_in_box(t, a - reach, a + reach, b - reach, b + reach):
            if _degrees(t, A, B) != {top - d for d in _degrees(t, B, S)}:
                return A, B
    return None


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_serre_pairing(r, n, m):
    t = validate_triple(r, n, m)
    assert serre_violation(t, 1 if (r, n, m) == (3, 4, 1) else 2) is None


def _fan_bound_mutants(t):
    """(family, entry index, bound name, step) for every finite bound of
    every fan box, moved by -1 and by +1."""
    reps = {v.family: v for v in M.vertices_in_box(t, -2, 2, -2, 2)}
    return [
        (family, k, bound, step)
        for family, v in reps.items()
        for k, e in enumerate(M.arrow_fan(t, v).entries)
        for bound in ("lo_x", "hi_x", "lo_y", "hi_y", "lo_d", "hi_d")
        if getattr(e.region, bound) not in (R.NEG_INF, R.POS_INF)
        for step in (-1, 1)
    ]


def mutated_fan_entries(family, k, bound, step, fan_entries=M._fan_entries):
    """A stand-in for model._fan_entries that rebuilds the fan records of one
    family with one bound of entry k moved by step; the sink pair stays."""

    @lru_cache(maxsize=None)
    def mutated(t, v):
        rec = fan_entries(t, v)
        if rec is None or v.family != family:
            return rec
        e = rec.entries[k]
        region = e.region._replace(**{bound: getattr(e.region, bound) + step})
        entries = rec.entries[:k] + (e._replace(region=region),) + rec.entries[k + 1 :]
        channels = {(x.family, x.orbit, x.degree): x for x in entries}
        return rec._replace(entries=entries, channels=MappingProxyType(channels))

    return mutated


def _hom_basis_by_degree(t, u, v):
    """hom_basis by its definition: the identity when u == v, then the
    arrows that arrow_exists names, by degree."""
    return ([IdentityMorphism(u)] if u == v else []) + [
        ArrowMorphism(u, v, d) for d in range(t.max_degree + 1) if M.arrow_exists(t, u, v, d)
    ]


def _hom_basis_mismatches(t):
    box = M.vertices_in_box(t, -3, 3, -3, 3)
    return [(u, v) for u in box for v in box if M.hom_basis(t, u, v) != _hom_basis_by_degree(t, u, v)]


def test_hom_basis_reads_the_existence_rule_on_every_fan_bound_mutant(t120, monkeypatch):
    """hom_basis walks the target's channels of the source's fan record, and
    arrow_exists looks one channel up; both apply _in_entry.  On the model
    and on each fan-bound mutant of (1, 2, 0), over every vertex pair in
    [-3, 3]^2, they name the same arrows in the same order."""
    assert _hom_basis_mismatches(t120) == []
    mutants = _fan_bound_mutants(t120)
    assert len(mutants) == 48
    for mutant in mutants:
        with monkeypatch.context() as mp:
            mp.setattr(M, "_fan_entries", mutated_fan_entries(*mutant))
            assert _hom_basis_mismatches(t120) == [], mutant


def test_hom_basis_reads_the_existence_rule_on_every_record_mutant(monkeypatch):
    """The same agreement under each whole-record mutant of the catalogue,
    among them the records whose entries exclude no source."""
    from mutants import RECORD_MUTANTS, every_record

    for name, change, triple, _failed in RECORD_MUTANTS:
        t = validate_triple(*triple)
        with monkeypatch.context() as mp:
            mp.setattr(M, "_fan_entries", every_record(change))
            assert _hom_basis_mismatches(t) == [], (name, triple)


@pytest.mark.parametrize("r,n,m,count", [(1, 2, 0, 48), (1, 1, 0, 12)])
def test_every_fan_bound_mutant_breaks_the_serre_pairing(r, n, m, count, monkeypatch):
    """Each mutant rebuilds the fan records of one family with one bound of
    one entry moved; the pairing must find a violation for every one."""
    t = validate_triple(r, n, m)
    mutants = _fan_bound_mutants(t)
    assert len(mutants) == count
    survivors = []
    for mutant in mutants:
        with monkeypatch.context() as mp:
            mp.setattr(M, "_fan_entries", mutated_fan_entries(*mutant))
            if serre_violation(t, 2) is None:
                survivors.append(mutant)
    assert survivors == []


# -- value types -----------------------------------------------------------------------

_X12 = VertexId("X", 0, (1, 2))
_Z15 = VertexId("Z", 0, (1, 5))

# (value, a second value built from equal fields, field names, repr, str)
VALUE_CASES = [
    (
        _X12,
        VertexId("X", 0, (1, 2)),
        ("family", "orbit", "coord"),
        "VertexId(family='X', orbit=0, coord=(1, 2))",
        "X:0:(1,2)",
    ),
    (
        IdentityMorphism(_X12),
        IdentityMorphism(VertexId("X", 0, (1, 2))),
        ("vertex",),
        "IdentityMorphism(vertex=VertexId(family='X', orbit=0, coord=(1, 2)))",
        "id@X:0:(1,2)",
    ),
    (
        ArrowMorphism(_X12, _Z15, 1),
        ArrowMorphism(VertexId("X", 0, (1, 2)), VertexId("Z", 0, (1, 5)), 1),
        ("src", "dst", "degree"),
        "ArrowMorphism(src=VertexId(family='X', orbit=0, coord=(1, 2)),"
        " dst=VertexId(family='Z', orbit=0, coord=(1, 5)), degree=1)",
        "X:0:(1,2)->Z:0:(1,5)@1",
    ),
    (
        FanEntry("Z", 0, 1, R.box(0, 1, R.NEG_INF, R.POS_INF)),
        FanEntry("Z", 0, 1, R.box(0, 1, R.NEG_INF, R.POS_INF), False),
        ("family", "orbit", "degree", "region", "excludes_src"),
        "FanEntry(family='Z', orbit=0, degree=1,"
        " region=Region(x=[0,1], y=[-inf,inf], d=[-inf,inf]), excludes_src=False)",
        "FanEntry(family='Z', orbit=0, degree=1,"
        " region=Region(x=[0,1], y=[-inf,inf], d=[-inf,inf]), excludes_src=False)",
    ),
    (
        Simple1Instance("B'", 0, (1, 2), 0),
        Simple1Instance("B'", 0, (1, 2), 0),
        ("kind", "orbit", "coord", "aux"),
        "Simple1Instance(kind=\"B'\", orbit=0, coord=(1, 2), aux=0)",
        "Simple1Instance(kind=\"B'\", orbit=0, coord=(1, 2), aux=0)",
    ),
    (
        GentleTriple(1, 2, 0),
        validate_triple(1, 2, 0),
        ("r", "n", "m"),
        "GentleTriple(r=1, n=2, m=0)",
        "(1,2,0)",
    ),
]


@pytest.mark.parametrize(
    "value,twin,fields,rep,text", VALUE_CASES, ids=[type(c[0]).__name__ for c in VALUE_CASES]
)
def test_value_type_contract(value, twin, fields, rep, text):
    """Field names and order, immutability, equality with equal hashes, and
    the printed forms."""
    assert type(value)._fields == fields
    assert [getattr(value, f) for f in fields] == list(value)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, None)
    assert value == twin and hash(value) == hash(twin) and value is not twin
    assert repr(value) == rep
    assert str(value) == text


def test_fan_entry_default_keeps_source():
    e = FanEntry("X", 0, 0, R.FULL)
    assert e.excludes_src is False
    assert e != FanEntry("X", 0, 0, R.FULL, True)


def test_values_of_different_model_classes_never_compare_equal():
    ident = IdentityMorphism(_X12)
    loop = ArrowMorphism(_X12, _X12, 0)
    inst = Simple1Instance("X", 0, (1, 2), 0)
    values = [_X12, ident, loop, ZERO, inst, GentleTriple(1, 2, 0)]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b and b != a, (a, b)
    assert len(set(values)) == len(values)
    assert ZERO != ()
