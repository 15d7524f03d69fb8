"""The model's translation group, written out independently of the
certifier: sigma_x moves X-vertices by (1, 1) and Z-vertices by (1, 0),
sigma_y moves Y-vertices by (1, 1) and Z-vertices by (0, 1), and neither
changes an orbit.  Both commute with vertex validity, fan records, sink
pairs, hom bases and the simple1 builders, which is what lets certify check
one item per translation class."""

import pytest

from kgcert import certifier as C
from kgcert import model as M
from kgcert import regions as R
from kgcert.certifier import KIND_B_INF, KIND_BP, KIND_BPP, KIND_CP, KIND_CPP, Simple1Instance
from kgcert.model import ZERO, ArrowMorphism, IdentityMorphism, VertexId
from kgcert.presentation import validate_triple

from conftest import ACCEPTANCE_TRIPLES, ORBIT_TRIPLES

SHIFTS = {
    "x": {"X": (1, 1), "Y": (0, 0), "Z": (1, 0)},
    "y": {"X": (0, 0), "Y": (1, 1), "Z": (0, 1)},
}
HALF = 5


def translate(t, g, v):
    """sigma_g v, for g "x" or "y" and v a vertex id of one of t's families
    (a vertex or not)."""
    assert v.family in {family for family, _ in M.index_regions(t)}
    (dx, dy), (a, b) = SHIFTS[g][v.family], v.coord
    return VertexId(v.family, v.orbit, (a + dx, b + dy))


def translate_morphism(t, g, f):
    if f is ZERO:
        return ZERO
    if isinstance(f, IdentityMorphism):
        return IdentityMorphism(translate(t, g, f.vertex))
    return ArrowMorphism(translate(t, g, f.src), translate(t, g, f.dst), f.degree)


def translate_region(g, family, region):
    """A region of target coordinates in family, moved by sigma_g."""
    dx, dy = SHIFTS[g][family]
    return R.Region(
        region.lo_x + dx, region.hi_x + dx, region.lo_y + dy, region.hi_y + dy,
        region.lo_d + dx - dy, region.hi_d + dx - dy,
    )


# Per kind, the coordinate of the second generator's target that aux gives.
AUX_COORD = {KIND_BP: 1, KIND_BPP: 0, KIND_CP: 0, KIND_CPP: 0, KIND_B_INF: 0}


def translate_item(t, g, item):
    """sigma_g of a vertex, or of a simple1 instance: its top moves, and its
    aux moves with the target of its second generator."""
    if isinstance(item, VertexId):
        return translate(t, g, item)
    spec = C._KINDS[item.kind]
    top = translate(t, g, VertexId(spec.family, item.orbit, item.coord))
    aux = item.aux + SHIFTS[g][spec.gen[0]][AUX_COORD[item.kind]]
    return Simple1Instance(item.kind, item.orbit, top.coord, aux)


def _points(t, half=HALF):
    """Every channel point of [-half, half]^2, a vertex or not."""
    return [
        VertexId(family, orbit, (x, y))
        for family, orbit in M.index_regions(t)
        for x in range(-half, half + 1)
        for y in range(-half, half + 1)
    ]


def table_sigma_mismatches(fans):
    """(mode, source family, row index or "hi_d", bound, g) for every finite
    term of the fan table fans (shaped as model._FANS) that moves under
    sigma_g otherwise than what it bounds: a bound term's coordinate of the
    source must move as the target family's axis it bounds, and a finite
    index-set term needs a source family whose a - b stays.  Offsets depend
    on the orbit alone, so the terms decide it, row by row."""
    out = []
    for mode, table in fans.items():
        for family, (hi_d, rows) in table.items():
            for g, shift in SHIFTS.items():
                if hi_d is not None and shift[family][0] != shift[family][1]:
                    out.append((mode, family, "hi_d", None, g))
                for k, (target, _step, _degree, _excludes, *bounds) in enumerate(rows):
                    for bound, axis, term in zip(("lo_x", "hi_x", "lo_y", "hi_y"), (0, 0, 1, 1), bounds):
                        if term is not None and shift[family][term[0]] != shift[target][axis]:
                            out.append((mode, family, k, bound, g))
    return out


def test_the_fan_table_commutes_with_the_translations():
    assert table_sigma_mismatches(M._FANS) == []


def test_the_table_check_rejects_a_bound_on_the_wrong_coordinate():
    """The X fan's Z entry with lo_y = b, the table form of the translation
    check's mutant 120-X-Z-entry-lo_y, reads a coordinate that moves under
    both translations where the Z entry's y-axis moves under sigma_y only."""
    hi_d, rows = M._FANS[True]["X"]
    k = [row[0] for row in rows].index("Z")
    moved = rows[k][:6] + ((M.B, 0),) + rows[k][7:]
    fans = {True: {**M._FANS[True], "X": (hi_d, rows[:k] + (moved,) + rows[k + 1:])}}
    assert table_sigma_mismatches(fans) == [(True, "X", k, "lo_y", "x"), (True, "X", k, "lo_y", "y")]


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_fan_records_and_sink_pairs_commute_with_the_translations(r, n, m):
    t = validate_triple(r, n, m)
    vertices = 0
    for v in _points(t):
        for g in SHIFTS:
            w = translate(t, g, v)
            assert M.vertex_valid(t, w) == M.vertex_valid(t, v), (g, v)
            if not M.vertex_valid(t, v):
                continue
            vertices += 1
            rec, image = M.arrow_fan(t, v), M.arrow_fan(t, w)
            assert image.entries == tuple(
                e._replace(region=translate_region(g, e.family, e.region)) for e in rec.entries
            ), (g, v)
            assert image.sinks == tuple(translate_morphism(t, g, f) for f in rec.sinks) == M.ar_sink_maps(t, w)
    assert vertices > 100


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_hom_bases_commute_with_the_translations(r, n, m):
    """hom_basis(sigma u, sigma v) is sigma of hom_basis(u, v) for every
    vertex u of [-5,5]^2 and every vertex v within 1 of u in each
    coordinate, which meets every degree of the model."""
    t = validate_triple(r, n, m)
    arrows = 0
    degrees = set()
    for u in M.vertices_in_box(t, -HALF, HALF, -HALF, HALF):
        a, b = u.coord
        for v in M.vertices_in_box(t, a - 1, a + 1, b - 1, b + 1):
            basis = M.hom_basis(t, u, v)
            degrees.update(getattr(f, "degree", 0) for f in basis)
            for g in SHIFTS:
                moved = M.hom_basis(t, translate(t, g, u), translate(t, g, v))
                assert moved == [translate_morphism(t, g, f) for f in basis], (g, u, v)
    assert degrees == set(range(t.max_degree + 1))


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_simple1_generators_commute_with_the_translations(r, n, m):
    """The generators of every simple1 instance with its top in [-5,5]^2
    and its aux within 3 of its largest (of a when every aux is allowed)
    move with the instance, and its class key stays."""
    t = validate_triple(r, n, m)
    for kind in C._MODES[t.is_finite_mode].kinds:
        spec = C._KINDS[kind]
        for v in M.vertices_in_box(t, -HALF, HALF, -HALF, HALF):
            if v.family != spec.family:
                continue
            top = C._aux_top(t, spec, v.orbit, v.coord)
            hi = v.coord[0] if top is None else top
            for aux in range(hi - 3, hi + 1):
                inst = Simple1Instance(kind, v.orbit, v.coord, aux)
                gens = C.build_simple1(t, *inst).denominators.generators
                for g in SHIFTS:
                    moved = translate_item(t, g, inst)
                    assert C._instance_class(moved) == C._instance_class(inst)
                    assert C.build_simple1(t, *moved).denominators.generators == tuple(
                        translate_morphism(t, g, f) for f in gens
                    ), (g, inst)
