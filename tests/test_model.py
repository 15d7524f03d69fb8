"""Vertices, arrow fans, hom bases, and the monomial composition rule."""

import random

import pytest

from kgcert import model as M
from kgcert import regions as R
from kgcert.engine import WindowEngine
from kgcert.certifier import Simple1Instance
from kgcert.errors import InvalidVertex, NotComposable
from kgcert.model import ArrowMorphism, FanEntry, IdentityMorphism, VertexId, ZERO
from kgcert.presentation import GentleTriple, validate_triple

from conftest import ACCEPTANCE_TRIPLES
from numpy_ref import associativity_scan


def V(fam, orbit, a, b):
    return VertexId(fam, orbit, (a, b))


# -- vertex validity -------------------------------------------------------------


def test_vertex_valid_examples(t120):
    assert M.vertex_valid(t120, V("X", 0, 0, 1))
    assert not M.vertex_valid(t120, V("Y", 0, 0, 1))  # needs 0 + 2 <= 1
    assert M.vertex_valid(t120, V("Z", 0, 17, -4))
    assert not M.vertex_valid(t120, V("X", 1, 0, 1))  # orbit out of range


def test_infinite_mode_has_only_x(t110):
    assert M.vertex_valid(t110, V("X", 0, 0, 0))
    assert not M.vertex_valid(t110, V("Y", 0, 0, 5))
    assert not M.vertex_valid(t110, V("Z", 0, 0, 0))


# -- arrow fans -------------------------------------------------------------------


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


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_fan_record_contract(r, n, m):
    """The channel mapping indexes exactly the fan entries and is read-only
    (the cached record is shared by every caller)."""
    t = validate_triple(r, n, m)
    for v in M.vertices_in_box(t, -2, 2, -2, 2):
        fan = M.arrow_fan(t, v)
        assert fan.channels == {(e.family, e.orbit, e.degree): e for e in fan.entries}
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


@pytest.mark.parametrize("r,n,m", [(2, 3, 1), (2, 2, 1)])
def test_associativity_multi_orbit(r, n, m):
    # orbit-raising arrows must compose coherently across the cycle
    t = validate_triple(r, n, m)
    eng = WindowEngine(t, (-3, 3, -3, 3))
    assert associativity_scan(eng) is None


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
