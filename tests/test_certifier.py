"""Lemma replays: positive instances, mode guards, and perturbation controls."""

import hashlib
import inspect
import json
import os
import random
import signal
import textwrap
import threading
import time

import pytest

from kgcert import functors as F
from kgcert import model as M
from kgcert import regions as R
from kgcert import certifier as C
from kgcert.certifier import (
    KIND_B_INF,
    KIND_BP,
    KIND_BPP,
    KIND_CP,
    KIND_CPP,
    Simple1Instance,
    build_simple0,
    build_simple1,
    certify,
    check_c2_simple,
    check_finite1,
    check_infinite_mode,
    check_nonsimple1,
    check_simple0,
    check_simple1_tower,
)
from kgcert.engine import WindowEngine, get_engine
from kgcert.errors import (
    InvalidVertex,
    KgcertError,
    ModeMismatch,
    ParameterRange,
    WrongFamily,
)
from kgcert.functors import FpFunctor, Subfunctor, Window
from kgcert.model import ArrowMorphism, VertexId, ZERO, ZeroMorphism
from kgcert.presentation import validate_triple

from conftest import ACCEPTANCE_TRIPLES, INFINITE_TRIPLES, ORBIT_TRIPLES


def V(fam, orbit, a, b):
    return VertexId(fam, orbit, (a, b))


W6 = Window(-6, 6, -6, 6)
W5 = Window(-5, 5, -5, 5)


# -- builders ---------------------------------------------------------------------


def test_build_simple0_z_vertex(t120):
    A = build_simple0(t120, V("Z", 0, 0, 0))
    assert all(isinstance(g, ArrowMorphism) for g in A.denominators.generators)


def test_build_simple0_border_vertex(t120):
    A = build_simple0(t120, V("X", 0, 0, 0))
    g1, g2 = A.denominators.generators
    assert g1 is ZERO and g2.dst.coord == (0, 1)


def test_build_simple0_random_vertices_have_dim_one(t120):
    rng = random.Random(1)
    verts = M.vertices_in_box(t120, -4, 4, -4, 4)
    for v in rng.sample(verts, 20):
        A = build_simple0(t120, v)
        assert F.eval_fp(t120, A, v) == 1


def test_build_simple0_invalid_vertex(t120):
    with pytest.raises(InvalidVertex):
        build_simple0(t120, V("Y", 0, 0, 1))


def test_build_simple1_bp_generators(t120):
    # both generators are honest arrows here: (1,1) satisfies the index
    # constraint a <= b, so the x-shift map is not zero
    B = build_simple1(t120, KIND_BP, 0, (0, 1), 0)
    g1, g2 = B.denominators.generators
    assert isinstance(g1, ArrowMorphism) and g1.dst == V("X", 0, 1, 1)
    assert isinstance(g2, ArrowMorphism) and g2.dst == V("Z", 0, 0, 0)


def test_build_simple1_cp_zero_second_generator(t120):
    Q = build_simple1(t120, KIND_CP, 0, (0, 0), 1)  # aux at the zero threshold
    g1, g2 = Q.denominators.generators
    assert isinstance(g1, ArrowMorphism)
    assert g2 is ZERO


def test_build_simple1_parameter_range(t120):
    with pytest.raises(ParameterRange):
        build_simple1(t120, KIND_CPP, 0, (0, 0), 5)
    with pytest.raises(ParameterRange):
        build_simple1(t120, KIND_CP, 0, (0, 0), 2)


MODE_KINDS = {True: {KIND_BP, KIND_BPP, KIND_CP, KIND_CPP}, False: {KIND_B_INF}}


def test_build_simple1_mode_guards(t120, t110):
    """Each kind builds in its own mode, at a vertex of its family with its
    largest aux, and raises ModeMismatch in the other, before any vertex
    test (r == n has no Y- or Z-vertex)."""
    for kind, spec in C._KINDS.items():
        for t in (t120, t110):
            if kind in MODE_KINDS[t.is_finite_mode]:
                v = next(v for v in M.vertices_in_box(t, -2, 2, -2, 2) if v.family == spec.family)
                assert build_simple1(t, *C._largest_aux(t, kind, v)).top == v
            else:
                other = "r == n" if t.is_finite_mode else "r < n"
                with pytest.raises(ModeMismatch, match=f"exists only when {other}"):
                    build_simple1(t, kind, 0, (0, 0), 0)


def test_build_simple1_unknown_kind_is_a_value_error_in_both_modes(t120, t110):
    for t in (t120, t110):
        with pytest.raises(ValueError, match="unknown kind 'zz'"):
            build_simple1(t, "zz", 0, (0, 0), 0)


# -- simple objects ----------------------------------------------------------------


def test_check_simple0_positive(t120):
    for v in [V("X", 0, 0, 1), V("Z", 0, 0, 0), V("Y", 0, 0, 2)]:
        assert check_simple0(t120, v, W6)


def test_check_simple0_outside_window_vacuous(t120):
    # the window excludes the vertex: zero-checks hold vacuously
    assert check_simple0(t120, V("Z", 0, 40, 40), W6)


def test_fake_simple0_fails(t120):
    """Perturbation control: a non-sink generator pair is not simple."""
    v = V("Z", 0, 0, 0)
    fake = FpFunctor(
        v,
        Subfunctor(
            v,
            (
                M.arrow_or_zero(t120, v, V("Z", 0, 2, 0), 0),  # skips (1,0)
                M.arrow_or_zero(t120, v, V("Z", 0, 0, 1), 0),
            ),
        ),
    )
    dims = [F.eval_fp(t120, fake, w) for w in M.vertices_in_box(t120, -3, 3, -3, 3)]
    assert sum(1 for d in dims if d > 0) > 1  # support bigger than a point


# -- towers -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,coord,aux",
    [
        (KIND_BP, (0, 1), 0),
        (KIND_BP, (-2, 0), -5),
        (KIND_BPP, (0, 3), 0),
        (KIND_CP, (0, 0), 1),
        (KIND_CP, (1, -2), -1),
        (KIND_CPP, (0, 0), -1),
        (KIND_CPP, (1, 2), 1),
    ],
)
def test_tower_positive_120(t120, kind, coord, aux):
    inst = Simple1Instance(kind, 0, coord, aux)
    assert check_simple1_tower(t120, inst, 4, W6)


def test_tower_zero_length(t120):
    assert check_simple1_tower(t120, Simple1Instance(KIND_BP, 0, (0, 1), 0), 0, W6)


def test_tower_positive_multi_orbit():
    t = validate_triple(2, 3, 1)
    for orbit in (0, 1):
        inst = Simple1Instance(KIND_BP, orbit, (0, 2), 0)
        assert check_simple1_tower(t, inst, 3, W5)
        dlast = 1 if orbit == 1 else 0
        inst = Simple1Instance(KIND_CP, orbit, (0, 0), 0 + dlast * 1 + 1)
        assert check_simple1_tower(t, inst, 3, W5)


def test_tower_infinite_mode():
    t = validate_triple(2, 2, 1)
    assert check_simple1_tower(t, Simple1Instance(KIND_B_INF, 0, (0, 0), 0), 3, W5)
    assert check_simple1_tower(t, Simple1Instance(KIND_B_INF, 1, (0, 0), 0), 3, W5)


def _swept_chain_points(monkeypatch, run):
    """Run run() with a spy on the engine's kernel, WindowEngine._kernel,
    inside every case analysis, and return run()'s result and, per
    case-analysed instance, the chain points it swept.  The chain row is the
    one whose channel u lies in, and the point is u's target less the row's
    u offset."""
    swept = {}
    current = []
    real_case, real_kernel = C._Session._case_analysis, WindowEngine._kernel

    def case_analysis(self, inst):
        current.append(inst)
        try:
            return real_case(self, inst)
        finally:
            current.pop()

    def kernel(self, top, target, degree, modulo):
        if current:
            inst = current[-1]
            channel = (target.family, target.orbit, degree)
            (row,) = [
                row for row in C._KINDS[inst.kind].rows
                if isinstance(row, C._Chain) and C._channel(self.t, inst.orbit, row.key) == channel
            ]
            (x, y), (ux, uy) = target.coord, row.u
            swept.setdefault(inst, set()).add((x - ux, y - uy))
        return real_kernel(self, top, target, degree, modulo)

    with monkeypatch.context() as m:
        m.setattr(C._Session, "_case_analysis", case_analysis)
        m.setattr(WindowEngine, "_kernel", kernel)
        m.setattr(C, "_split_allowed", lambda: False)  # a helper's calls would not reach the spy
        return run(), swept


@pytest.mark.parametrize("depth", [2, 4])
def test_chains_are_swept_within_the_session_depth(t120, monkeypatch, depth):
    """Every chain point a case analysis sweeps lies within the session's
    depth (L1) of its top, and for B' at (0, 1), aux 0, a point at exactly
    that depth is swept: in the lemma function's session and in certify's,
    although the window reaches further."""
    inst = Simple1Instance(KIND_BP, 0, (0, 1), 0)

    def distance(inst, p):
        return abs(p[0] - inst.coord[0]) + abs(p[1] - inst.coord[1])

    for run in (lambda: check_simple1_tower(t120, inst, depth, W6), lambda: certify(t120, W6, depth).passed):
        ok, swept = _swept_chain_points(monkeypatch, run)
        assert ok
        assert max(distance(inst, p) for p in swept[inst]) == depth
        assert all(distance(i, p) <= depth for i, points in swept.items() for p in points)


# -- finite-length chains ---------------------------------------------------------------


def test_finite1_examples(t120):
    assert check_finite1(t120, V("X", 0, 0, 3), Window(-8, 8, -8, 8))
    assert check_finite1(t120, V("Y", 0, 0, 5), Window(-8, 8, -8, 8))


def test_finite1_family_guard(t120, t110):
    with pytest.raises(WrongFamily):
        check_finite1(t120, V("Z", 0, 0, 0), W6)
    for v in [V("Y", 0, 0, 0), V("Z", 0, 0, 0)]:  # r == n: X-vertices only
        with pytest.raises(WrongFamily):
            check_finite1(t110, v, W6)


def test_finite1_with_tail():
    """m > 0 exercises the shifted border of the zeroth orbit."""
    t = validate_triple(1, 3, 2)
    for v in [V("X", 0, 0, -2), V("X", 0, 0, 2), V("Y", 0, 0, 3), V("Y", 0, -1, 4)]:
        assert check_finite1(t, v, W6)


def test_finite1_literal_base_case_is_not_exact():
    """With m > 0, the base-case sequence only becomes exact at the border
    b - a = -m: at b - a = +m the x-shift map survives in the quotient
    denominator but not in the image of the degree-1 map."""
    t = validate_triple(1, 3, 2)
    eng = WindowEngine(t, (-6, 6, -6, 6))
    w = V("X", 0, 0, 2)  # b - a = +m
    u = M.arrow_or_zero(t, w, V("Z", 0, 0, 0), 1)
    sub = build_simple1(t, KIND_CP, 0, (0, 0), 0 + 2 + 1)
    quot = build_simple1(t, KIND_BP, 0, (0, 2), 0)
    assert not eng.ses_foreign(
        w, u, sub.top, sub.denominators.generators, (), quot.denominators.generators
    )


# -- descending chains out of Z-vertices ---------------------------------------------------


def test_nonsimple1_positive(t120):
    assert check_nonsimple1(t120, V("Z", 0, 0, 0), 5, W6)
    assert check_nonsimple1(t120, V("Z", 0, -1, 2), 1, W6)


def test_nonsimple1_layers_are_infinite(t120):
    """Negative control: substituting a sink-map simple for a chain layer
    would flip the exact infinitude test that the chain relies on."""
    A = build_simple0(t120, V("Z", 0, 1, 0))
    layer = build_simple1(t120, KIND_CP, 0, (1, 0), 1)
    assert F.is_in_c0(t120, A)
    assert not F.is_in_c0(t120, layer)


def test_nonsimple1_wrong_layer_fails(t120):
    """Kernel comparison against the sink-map denominator (instead of the
    chain layer's) must fail."""
    eng = WindowEngine(t120, (-6, 6, -6, 6))
    v = V("Z", 0, 0, 0)
    u = M.arrow_or_zero(t120, v, V("Z", 0, 1, 0), 0)
    nxt = M.arrow_or_zero(t120, v, V("Z", 0, 2, 0), 0)
    wrong = build_simple0(t120, V("Z", 0, 1, 0))
    assert not eng.kernel_matches(v, u, (nxt,), wrong.denominators.generators)


def test_nonsimple1_guards(t120, t110):
    with pytest.raises(ModeMismatch):
        check_nonsimple1(t110, V("X", 0, 0, 0), 2, W6)
    with pytest.raises(WrongFamily):
        check_nonsimple1(t120, V("X", 0, 0, 0), 2, W6)
    with pytest.raises(ValueError):
        check_nonsimple1(t120, V("Z", 0, 0, 0), 0, W6)


def test_lemma_depth_errors_are_parameter_range(t120):
    """A tower length below 0 or a chain depth below 1 is a ParameterRange,
    which a KgcertError handler catches and which is still a ValueError."""
    with pytest.raises(ParameterRange, match="tower length"):
        check_simple1_tower(t120, Simple1Instance(KIND_BP, 0, (0, 1), 0), -1, W5)
    with pytest.raises(ParameterRange, match="chain depth"):
        check_nonsimple1(t120, V("Z", 0, 0, 0), 0, W6)
    assert issubclass(ParameterRange, ValueError)


# -- the layer-two case analysis ------------------------------------------------------------


def test_c2_simple_positive(t120):
    assert check_c2_simple(t120, V("Z", 0, 0, 0), W5)


def test_c2_simple_mode_guard(t110):
    with pytest.raises(ModeMismatch):
        check_c2_simple(t110, V("X", 0, 0, 0), W5)


# -- infinite mode -----------------------------------------------------------------------


@pytest.mark.parametrize("r,n,m", INFINITE_TRIPLES)
def test_infinite_mode_replay(r, n, m):
    t = validate_triple(r, n, m)
    assert check_infinite_mode(t, W6, 4)


def test_infinite_mode_guard(t120):
    with pytest.raises(ModeMismatch):
        check_infinite_mode(t120, W6, 4)


@pytest.mark.parametrize("depth", [0, -1])
def test_infinite_mode_rejects_depth_below_one(t110, depth):
    with pytest.raises(ParameterRange, match="depth"):
        check_infinite_mode(t110, Window(-3, 3, -3, 3), depth)


# -- perturbation table --------------------------------------------------------------------
#
# Each entry is a deliberately broken instance of one check; all must be
# rejected.  The callables return the check's boolean verdict.


def _perturb_tower_skipped_index(t):
    top = V("X", 0, 0, 1)
    skip = M.arrow_or_zero(t, top, V("X", 0, 0, 3), 0)  # jumps over (0,2)
    return F.ses_check(
        t,
        Subfunctor(top, (skip,)),
        build_simple1(t, KIND_BP, 0, (0, 1), 0).denominators,
        build_simple0(t, top),
        W6,
    )


def _perturb_image_presentation_aux(t):
    f = M.arrow_or_zero(t, V("X", 0, 0, 0), V("Z", 0, 0, 0), 1)
    return F.image_presentation_check(t, f, build_simple1(t, KIND_CP, 0, (0, 0), 0), W6)


def _perturb_ses_wrong_quotient_coordinate(t):
    top = V("X", 0, 0, 1)
    u = M.arrow_or_zero(t, top, V("X", 0, 0, 2), 0)
    wrong_quot = FpFunctor(
        top, Subfunctor(top, (M.arrow_or_zero(t, top, V("X", 0, 1, 1), 0),))
    )
    return F.ses_check(
        t, Subfunctor(top, (u,)), build_simple1(t, KIND_BP, 0, (0, 1), 0).denominators,
        wrong_quot, W6,
    )


def _perturb_chain_layer_replaced_by_sink_simple(t):
    eng = WindowEngine(t, W6.box)
    v = V("Z", 0, 0, 0)
    u = M.arrow_or_zero(t, v, V("Z", 0, 1, 0), 0)
    nxt = M.arrow_or_zero(t, v, V("Z", 0, 2, 0), 0)
    wrong = build_simple0(t, V("Z", 0, 1, 0))
    return eng.kernel_matches(v, u, (nxt,), wrong.denominators.generators)


def _non_sink_pair_quotient(t, v):
    """Hom(v, -) modulo the shifts by (2,0) and (0,1): the first skips the
    sink map to (1,0), so the quotient is not simple."""
    a, b = v.coord
    return FpFunctor(
        v,
        Subfunctor(
            v,
            (
                M.arrow_or_zero(t, v, V(v.family, v.orbit, a + 2, b), 0),
                M.arrow_or_zero(t, v, V(v.family, v.orbit, a, b + 1), 0),
            ),
        ),
    )


def _perturb_simple0_non_sink_pair(t):
    v = V("Z", 0, 0, 0)
    fake = _non_sink_pair_quotient(t, v)
    eng = WindowEngine(t, (-4, 4, -4, 4))
    dims = eng.dims_at_vertices(eng.dims_cube(v, fake.denominators.generators))
    return all(d == (1 if w == v else 0) for w, d in dims.items())


PERTURBATION_TABLE = [
    ("tower skips one chain index", _perturb_tower_skipped_index),
    ("image presentation with shifted aux", _perturb_image_presentation_aux),
    ("exact sequence with wrong quotient coordinate", _perturb_ses_wrong_quotient_coordinate),
    ("chain layer replaced by a sink-map simple", _perturb_chain_layer_replaced_by_sink_simple),
    ("simple object built from a non-sink pair", _perturb_simple0_non_sink_pair),
]


@pytest.mark.parametrize("name,broken", PERTURBATION_TABLE, ids=[n for n, _ in PERTURBATION_TABLE])
def test_perturbation_rejected(t120, name, broken):
    assert broken(t120) is False


def _simple0_by_vertex_loop(eng, A, v):
    """Reference for the simple0 check: dim 1 at v, 0 at every other window
    vertex, read off vertex by vertex."""
    dims = eng.dims_at_vertices(eng.dims_cube(v, A.denominators.generators))
    return all(d == (1 if w == v else 0) for w, d in dims.items())


def test_simple0_check_session_path_rejects_non_sink_pair(t120, monkeypatch):
    """The session's simple0 check, not only the engine's dims, rejects a
    quotient by a non-sink pair, and still passes an out-of-window top, whose
    quotient leaves no count in the window."""
    monkeypatch.setattr(C, "build_simple0", _non_sink_pair_quotient)
    assert check_simple0(t120, V("Z", 0, 0, 0), W6) is False
    s = C._Session(t120, W6, 1)
    assert s.simple0_check(V("Z", 0, 0, 0)) is False
    assert s.simple0_check(V("Z", 0, 40, 40)) is True


@pytest.mark.parametrize("fake", [False, True], ids=["sink pair", "non-sink pair"])
def test_simple0_check_matches_vertex_loop(t120, monkeypatch, fake):
    if fake:
        monkeypatch.setattr(C, "build_simple0", _non_sink_pair_quotient)
    s = C._Session(t120, W5, 1)
    verdicts = []
    for v in s.eng.vertices():
        passed = s.simple0_check(v)
        assert passed == _simple0_by_vertex_loop(s.eng, C.build_simple0(t120, v), v)
        verdicts.append(passed)
    assert all(verdicts) != fake


def test_tower_step_memo_cannot_leak_a_pass(t231, monkeypatch):
    """One failing tower step fails every tower through it, in any order of
    calls within one session, and no tower that avoids it; instances that
    differ from it only in aux or only in orbit keep their own results."""
    bad = build_simple1(t231, KIND_BP, 0, (0, 3), 0)
    real = WindowEngine._ses
    bad_calls = []

    def ses(self, top, target, degree, sub, mid, quot):
        """The engine's exactness test on image cubes, failing bad's step."""
        if top == bad.top and mid == self.image_cube(bad.top, bad.denominators.generators):
            bad_calls.append(top)
            return False
        return real(self, top, target, degree, sub, mid, quot)

    monkeypatch.setattr(WindowEngine, "_ses", ses)
    towers = {
        Simple1Instance(KIND_BP, 0, (0, 1), 0): False,
        Simple1Instance(KIND_BP, 0, (0, 2), 0): False,
        Simple1Instance(KIND_BP, 0, (0, 3), 0): False,
        Simple1Instance(KIND_BP, 0, (0, 0), 0): True,  # stops below (0, 3)
        Simple1Instance(KIND_BP, 0, (0, 4), 0): True,  # starts above it
        Simple1Instance(KIND_BP, 0, (0, 1), 1): True,  # other aux
        Simple1Instance(KIND_BP, 1, (0, 1), 0): True,  # other orbit
    }
    orders = [list(towers), list(reversed(towers))]
    rng = random.Random(7)
    for _ in range(3):
        orders.append(rng.sample(list(towers), len(towers)))
    for order in orders:
        bad_calls.clear()
        s = C._Session(t231, W6, 2)
        got = {inst: s.tower_check(inst) for inst in order}
        assert got == towers, order
        assert len(bad_calls) == 1  # the failing step ran once, then came from the memo


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_instance_reads_what_build_simple1_builds(r, n, m, monkeypatch):
    """On every instance that a serial certify reads at [-4,4]^2, depth 4,
    _Session._instance gives build_simple1's top and generators, the top's
    fan record and the generators' image cube, also when read again after
    other instances or right after itself, as a fresh session reads it;
    moved to an invalid top or given an aux above its bound, it raises what
    build_simple1 raises."""
    t = validate_triple(r, n, m)
    window = Window(-4, 4, -4, 4)
    seen = set()
    real = C._Session._instance

    def spy(self, inst):
        seen.add(inst)
        return real(self, inst)

    monkeypatch.setattr(C._Session, "_instance", spy)
    assert _certify(monkeypatch, t, False, window, 4).passed
    monkeypatch.undo()
    assert {inst.kind for inst in seen} == set(C._MODES[t.is_finite_mode].kinds)
    s = C._Session(t, window, 4)
    order = sorted(seen)
    for inst in order + order[::-1]:  # the turn reads the last instance twice in a row
        assert s._instance(inst) == C._Session(t, window, 4)._instance(inst)
    for inst in seen:
        top, rec, gens, den = s._instance(inst)
        fp = build_simple1(t, *inst)
        assert (top, gens) == (fp.top, fp.denominators.generators)
        assert rec == M.arrow_fan(t, top) and den == s.eng.image_cube(top, gens)
        spec = C._KINDS[inst.kind]
        (a, b), hi = inst.coord, C._aux_top(t, spec, inst.orbit, inst.coord)
        off_x = [k for k in range(1, 12) if not M.vertex_valid(t, VertexId(spec.family, inst.orbit, (a + k, b)))]
        bad = [(inst._replace(orbit=t.orbit_count), InvalidVertex)]
        bad += [(inst._replace(coord=(a + k, b)), InvalidVertex) for k in off_x[:1]]
        bad += [] if hi is None else [(inst._replace(aux=hi + 1), ParameterRange)]
        for wrong, error in bad:
            for build in (lambda: build_simple1(t, *wrong), lambda: s._instance(wrong)):
                with pytest.raises(error):
                    build()


# _simple1_parts calls of a serial certify at [-4,4]^2, depth 4, when each
# caller read its instance and handed the read from method to method.
SIMPLE1_READS = {(1, 2, 0): 2008, (2, 3, 0): 4078, (1, 3, 2): 2048, (1, 1, 0): 165, (2, 2, 0): 330, (2, 2, 1): 363}


@pytest.mark.parametrize("r,n,m", list(SIMPLE1_READS))
def test_the_kept_read_reads_no_instance_more_often(r, n, m, monkeypatch):
    """Keeping only the session's last read makes a serial certify read
    simple1 instances no more often than handing reads on did."""
    real = C._simple1_parts
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(C, "_simple1_parts", spy)
    assert _certify(monkeypatch, validate_triple(r, n, m), False, Window(-4, 4, -4, 4), 4).passed
    assert len(calls) <= SIMPLE1_READS[(r, n, m)]


# -- factorisation through a generator -----------------------------------------------


def factors_region_by_subtraction(s, split_region, gen, entry):
    """The factorisation check as it was before the closed-form containment:
    the split region minus the allowed fan region of the generator's target
    (and minus the target point, reached through its identity) is empty."""
    if R.close(split_region) is R.EMPTY:
        return True
    if isinstance(gen, ZeroMorphism):
        return False
    T = gen.dst
    phi_deg = entry.degree - gen.degree
    if phi_deg < 0:
        return False
    allowed = R.EMPTY
    for eT in M.arrow_fan(s.t, T).entries:
        if (eT.family, eT.orbit, eT.degree) == (entry.family, entry.orbit, phi_deg):
            allowed = eT.region
            break
    leftover = R.difference([split_region], [allowed])
    if phi_deg == 0 and (entry.family, entry.orbit) == (T.family, T.orbit):
        leftover = R.difference(leftover, [R.point(*T.coord)])
    return not leftover


def _random_split(rng, entry, top, aux):
    """A split region near the top: one the case analysis uses, or a random
    meet of the fan region with bounds around the top, closed or not."""
    a, b = top.coord
    real = [
        R.Region(lo_x=a + 1),
        R.Region(lo_y=a + 1),
        R.Region(lo_y=b + 1),
        R.Region(lo_x=a, hi_x=a, lo_y=aux),
        R.Region(lo_y=a, hi_y=a, lo_x=aux),
        R.Region(lo_y=b, hi_y=b, lo_x=aux),
        R.FULL,
    ]
    if rng.random() < 0.4:
        return R.intersect(entry.region, rng.choice(real))

    def near(c):
        return c + rng.randint(-3, 3) if rng.random() < 0.5 else None

    bounds = {}
    for slot, centre in (("x", a), ("y", b), ("d", a - b)):
        lo, hi = near(centre), near(centre)
        if lo is not None:
            bounds["lo_" + slot] = lo
        if hi is not None:
            bounds["hi_" + slot] = hi
    split = R.Region(**bounds)
    if rng.random() < 0.5:
        e = entry.region
        split = R.Region(
            lo_x=max(split.lo_x, e.lo_x),
            hi_x=min(split.hi_x, e.hi_x),
            lo_y=max(split.lo_y, e.lo_y),
            hi_y=min(split.hi_y, e.hi_y),
            lo_d=max(split.lo_d, e.lo_d),
            hi_d=min(split.hi_d, e.hi_d),
        )
    return split


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_factors_region_matches_subtraction(r, n, m):
    """The closed-form factorisation check agrees with the subtract-only one
    on random split regions, real fan entries and real generators, plus the
    zero morphism."""
    t = validate_triple(r, n, m)
    s = C._Session(t, W5, 2)
    rng = random.Random(f"factors-{r}-{n}-{m}")
    kinds = list(C._MODES[t.is_finite_mode].kinds)
    verts = s.eng.vertices()
    seen = set()
    for _ in range(1500):
        kind = rng.choice(kinds)
        spec = C._KINDS[kind]
        v = rng.choice([v for v in verts if v.family == spec.family])
        aux = rng.choice(spec.samples(v.coord[0], C._aux_top(t, spec, v.orbit, v.coord)))
        fp = C.instance_functor(t, Simple1Instance(kind, v.orbit, v.coord, aux))
        gen = rng.choice(fp.denominators.generators + (ZERO,))
        entry = rng.choice(M.arrow_fan(t, fp.top).entries)
        split = _random_split(rng, entry, fp.top, aux)
        got = s._factors_region(split, gen, entry)
        assert got == factors_region_by_subtraction(s, split, gen, entry), (split, gen, entry)
        point_case = (
            not isinstance(gen, ZeroMorphism)
            and entry.degree == gen.degree
            and (entry.family, entry.orbit) == (gen.dst.family, gen.dst.orbit)
        )
        seen.add((got, point_case, isinstance(gen, ZeroMorphism)))
    assert {(True, True, False), (False, True, False)} <= seen  # identity-point case
    assert {(True, False, False), (False, False, False)} <= seen
    assert (False, False, True) in seen  # a zero generator absorbs nothing


# -- certificates ------------------------------------------------------------------------


def test_certify_small_windows():
    cert = certify(validate_triple(1, 2, 0), W5, 3)
    assert cert.kg == 2 and cert.verdict == "pass"
    cert = certify(validate_triple(1, 1, 0), W5, 3)
    assert cert.kg == 1 and cert.verdict == "pass"


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_certificate_is_invariant_under_translation(r, n, m):
    """tau_3: (a, b) -> (a + 3, b + 3) maps [-5,5]^2 onto [-2,8]^2 (the halved
    inner and quarter boxes move by 2 and 1 but keep their sizes).  The model
    is invariant under every tau_k, so both windows give passing certificates
    with the same records apart from their window params."""
    t = validate_triple(r, n, m)

    def records(window):
        cert = certify(t, window, 4)
        assert cert.passed
        return [
            {**c.to_json(), "params": {k: v for k, v in c.params.items() if k != "window"}}
            for c in cert.checks
        ]

    assert records(W5) == records(Window(-2, 8, -2, 8))


@pytest.mark.parametrize(
    "r,n,m,window,empty",
    [
        (1, 1, 0, Window(5, 6, -6, -5), ["inf_simple0", "inf_simple1", "inf_finite1", "layer0_strict"]),
        (1, 2, 0, Window(5, 5, -5, -5), ["finite1"]),
    ],
)
def test_a_phase_with_no_items_fails(monkeypatch, r, n, m, window, empty):
    """A phase that checked no item gathered no evidence: it fails with
    detail "no items", and so do collapse_layers and the verdict, with the
    same bytes serially and split."""
    cert = _certify_both_ways(monkeypatch, validate_triple(r, n, m), window, 1)
    assert cert.verdict == "fail"
    assert [c.lemma for c in cert.checks if c.detail == "no items"] == empty
    assert [c.lemma for c in cert.checks if not c.passed] == empty + ["collapse_layers"]


def test_certify_two_orbits_with_tail():
    # r > 1 and m > 0 together: tail-shifted index sets on the zeroth orbit
    cert = certify(validate_triple(2, 3, 1), W6, 4)
    assert cert.kg == 2 and cert.verdict == "pass"


@pytest.mark.parametrize("depth", [0, -1])
def test_certify_rejects_depth_below_one(depth):
    """No tower step or chain point is checked below depth 1, so no
    certificate may be issued."""
    for triple in [(1, 1, 0), (1, 2, 0)]:
        with pytest.raises(ParameterRange, match="depth"):
            certify(validate_triple(*triple), Window(-2, 2, -2, 2), depth)


def test_certificate_schema_and_determinism():
    t = validate_triple(1, 1, 0)
    a = certify(t, W5, 3).to_json()
    b = certify(t, W5, 3).to_json()
    assert a == b
    t = validate_triple(1, 2, 0)
    assert certify(t, W5, 3).to_json() == certify(t, W5, 3).to_json()
    assert set(a) == {"triple", "kg", "window", "depth", "checks", "verdict"}
    for c in a["checks"]:
        assert set(c) == {"lemma", "params", "pass", "detail"}
    text = certify(t, W5, 3).to_json_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_checks_monotone_under_window_shrink(t120):
    """A check passing on a window passes on sub-windows."""
    inst = Simple1Instance(KIND_BP, 0, (0, 1), 0)
    for win in [W6, W5, Window(-3, 3, -3, 3)]:
        assert check_simple1_tower(t120, inst, 3, win)
        assert check_finite1(t120, V("X", 0, 0, 2), win)
        assert check_nonsimple1(t120, V("Z", 0, 0, 0), 2, win)


# SHA-256 of to_json_text() at [-5,6]x[-4,7], depth 5, taken before the
# per-kind table replaced the hand-written case analyses.  The odd bounds make
# Window.inner_half floor-divide unevenly ([-3,3]x[-2,3] inside); the
# inner_half fix planned in ROADMAP item 3 changes these certificates and
# re-pins these digests.
OFFSET_WINDOW_SHA256 = {
    (1, 2, 0): "0ae5b859f4fa2b018675949c61825ef92243b6125e0832b80fbfe054f72dab71",
    (2, 3, 0): "672ce8567054f99605e16ee8caedd3d8f2563111ee17ebc253859dd83d6e163e",
    (1, 3, 2): "0090b0046e5078ff84ba95073aac0949d1d80601dcb5c5613549eec87509d633",
    (1, 1, 0): "d2fe634d02801cec5cbdf5c6c89536a27988067d3fff36ffd782ddb18c48e412",
    (2, 2, 0): "4eb3b5cba5255fee2adb056636a24252a1e8e3cbf32620388aa1b486ed391654",
    (2, 2, 1): "5d00c253801a32f912e30c140a470eb4623471732ff0b6424dbe6b1fcc7000c8",
}


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_offset_window_certificates_are_pinned(r, n, m):
    cert = certify(validate_triple(r, n, m), Window(-5, 6, -4, 7), 5)
    assert cert.passed
    digest = hashlib.sha256(cert.to_json_text().encode()).hexdigest()
    assert digest == OFFSET_WINDOW_SHA256[(r, n, m)]


@pytest.mark.parametrize("triple", [(1, 1, 0), (1, 2, 0)])
def test_certify_calls_the_hooks_the_benchmark_tracer_patches(triple, monkeypatch):
    """perfbench/tracer.py counts certifier work by replacing these five
    attributes; certify must reach each of them through the attribute, and
    call record once per recorded check."""
    t = validate_triple(*triple)
    window = Window(-3, 3, -3, 3)
    plain = certify(t, window, 2).to_json_text()
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [
        (C._Session, "tower_check"),
        (C._Session, "record"),
        (C, "instance_functor"),
        (C, "build_simple0"),
        (C, "build_simple1"),
    ]:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    cert = certify(t, window, 2)
    assert cert.to_json_text() == plain
    names = {"tower_check", "record", "instance_functor", "build_simple0", "build_simple1"}
    assert set(calls) == names and all(calls.values()), calls
    assert calls["record"] == len(cert.checks)


@pytest.mark.parametrize("triple", [(1, 2, 0), (1, 1, 0)], ids=["120", "110"])
def test_certify_never_counts(triple, monkeypatch):
    """Every window decision of certify is a cube identity: a serial run
    calls neither dims_cube nor cells, and builds each simple0 item's
    quotient once."""
    calls = {"dims_cube": 0, "cells": 0, "build_simple0": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [(WindowEngine, "dims_cube"), (WindowEngine, "cells"), (C, "build_simple0")]:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    cert = _certify(monkeypatch, validate_triple(*triple), False, Window(-3, 3, -3, 3), 2)
    assert cert.passed
    items = sum(p["items"] for p in cert.stats["phases"] if p["lemma"].endswith("simple0"))
    assert items > 0
    assert calls == {"dims_cube": 0, "cells": 0, "build_simple0": items}


# -- the per-kind case rows ------------------------------------------------------------


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_case_rows_cover_every_fan_channel(r, n, m):
    """For every kind of the mode and instance with its top in [-3,3]^2 and
    its aux in [top - 12, top] (in [a - 12, a + 12] when every aux is
    allowed), the factor splits and chain lines of the kind's case rows cover
    every fan channel of the top, decided on regions; the top's own point is
    exempt in a channel that excludes it.  Every channel is named by a row.
    The aux range holds the two sample values of the simple1 phase, the
    largest aux of the finite-length steps, and the Z-vertex aux of the
    nonsimple1 and c2simple layers: certify at [-8,8]^2, depth 8, builds
    layers whose aux lies up to 11 below their own top."""
    t = validate_triple(r, n, m)
    orbits = t.orbit_count
    instances = 0
    for kind in C._MODES[t.is_finite_mode].kinds:
        spec = C._KINDS[kind]
        for v in M.vertices_in_box(t, -3, 3, -3, 3):
            if v.family != spec.family:
                continue
            a, b = v.coord
            top = C._aux_top(t, spec, v.orbit, v.coord)
            auxes = range(a - 12, a + 13) if top is None else range(top - 12, top + 1)
            assert set(spec.samples(a, top)) <= set(auxes)
            for aux in auxes:
                instances += 1
                left = {}
                for e in M.arrow_fan(t, v).entries:
                    pieces = [e.region]
                    if e.excludes_src:
                        pieces = R.difference(pieces, [R.point(a, b)])
                    left[(e.family, e.orbit, e.degree)] = pieces
                named = set()
                for row in spec.rows:
                    family, k, degree = row.key
                    key = (family, (v.orbit + k) % orbits, degree)
                    assert key in left, (kind, v, row)
                    named.add(key)
                    rule = row.split if isinstance(row, C._Factor) else row.line
                    cover = R.FULL if rule is None else rule(a, b, aux)
                    left[key] = R.difference(left[key], [cover])
                assert named == set(left), (kind, v, aux)
                uncovered = {key: pieces for key, pieces in left.items() if pieces}
                assert not uncovered, (kind, v, aux, uncovered)
    assert instances > 20


def test_a_case_row_naming_no_channel_fails(t120, monkeypatch):
    """A B' row keyed (Y, 0, 0), a channel no X-vertex's fan has, fails the
    towers of every B' instance instead of raising, serially and split with
    the same bytes; the other phases never run a B' case analysis."""
    spec = C._KINDS[KIND_BP]
    rows = spec.rows[:-1] + (spec.rows[-1]._replace(key=(M.FAMILY_Y, 0, 0)),)
    monkeypatch.setitem(C._KINDS, KIND_BP, spec._replace(rows=rows))
    assert not check_simple1_tower(t120, Simple1Instance(KIND_BP, 0, (0, 1), 0), 3, W5)
    cert = _certify_both_ways(monkeypatch, t120, Window(-4, 4, -4, 4), 3)
    assert cert.verdict == "fail"
    assert [c.lemma for c in cert.checks if not c.passed] == ["simple1", "collapse_layers"]


def _chain_moved(kind, i, **offset):
    """The kind's case rows with the offset of its _Chain row i changed."""
    rows = C._KINDS[kind].rows
    assert isinstance(rows[i], C._Chain)
    return rows[:i] + (rows[i]._replace(**offset),) + rows[i + 1:]


# (triple, kind, field, value, the lemmas that fail): kind rows with their
# second generator one step off, their aux range one short or broken, or one
# chain's u or modulus arrow one step off, which the chain sweep of the case
# analysis rejects.
KIND_ROW_MUTANTS = [
    ((1, 2, 0), KIND_BP, "gen_coord", lambda a, b, aux: (a, aux + 1), ["simple1"]),
    ((1, 2, 0), KIND_BPP, "gen_coord", lambda a, b, aux: (aux + 1, a), ["simple1"]),
    ((1, 1, 0), KIND_B_INF, "gen_coord", lambda a, b, aux: (aux + 1, a), ["inf_simple1", "inf_finite1"]),
    ((1, 2, 0), KIND_CP, "aux_top", lambda a, b, m, n: a + m, ["finite1", "nonsimple1", "c2simple"]),
    ((1, 2, 0), KIND_CPP, "aux_top", lambda a, b, m, n: b - n, ["finite1", "c2simple"]),
    ((1, 2, 0), KIND_CP, "aux_top", lambda a, b, m, n: -b + m + 1,
     ["simple1", "finite1", "nonsimple1", "c2simple"]),
    ((1, 2, 0), KIND_CPP, "aux_top", lambda a, b, m, n: -a - n + 1, ["simple1", "finite1", "c2simple"]),
    ((1, 1, 0), KIND_B_INF, "aux_top", lambda a, b, m, n: -b + m, ["inf_simple1", "inf_finite1"]),
    ((1, 2, 0), KIND_BP, "rows", _chain_moved(KIND_BP, 1, mod=(0, 1)), ["simple1"]),
    ((1, 2, 0), KIND_BPP, "rows", _chain_moved(KIND_BPP, 4, mod=(0, 0)), ["simple1"]),
    ((1, 2, 0), KIND_CP, "rows", _chain_moved(KIND_CP, 4, u=(-1, 0)), ["simple1", "nonsimple1", "c2simple"]),
    ((1, 2, 0), KIND_CPP, "rows", _chain_moved(KIND_CPP, 1, u=(-2, 0)), ["simple1", "c2simple"]),
    ((1, 1, 0), KIND_B_INF, "rows", _chain_moved(KIND_B_INF, 1, mod=(0, 1)), ["inf_simple1"]),
    ((1, 1, 0), KIND_B_INF, "rows", _chain_moved(KIND_B_INF, 4, mod=(0, 0)), ["inf_simple1"]),
]
KIND_ROW_IDS = ["B'-gen", "B''-gen", "B-gen", "C'-aux", "C''-aux", "C'-aux-range", "C''-aux-range", "B-aux-range",
                "B'-chain1-mod", "B''-chain4-mod", "C'-chain4-u", "C''-chain1-u", "B-chain1-mod", "B-chain4-mod"]


@pytest.mark.parametrize("triple,kind,field,value,failed", KIND_ROW_MUTANTS, ids=KIND_ROW_IDS)
def test_a_mutated_kind_row_fails(monkeypatch, triple, kind, field, value, failed):
    """A kind row with its second generator one step off, its aux range
    one short or broken, or a chain offset one step off, fails certify
    rather than raising, with the same bytes in one process and in two: the
    finite-length steps read their quotient and sub from the same rows as
    the towers, an aux out of range up a tower is a ParameterRange that
    fails its item, and a moved chain offset fails the case analysis's
    sweep."""
    monkeypatch.setitem(C._KINDS, kind, C._KINDS[kind]._replace(**{field: value}))
    cert = _certify_both_ways(monkeypatch, validate_triple(*triple), Window(-4, 4, -4, 4), 4)
    assert cert.verdict == "fail"
    assert [c.lemma for c in cert.checks if not c.passed] == failed + ["collapse_layers"]


@pytest.mark.parametrize(
    "triple,failed",
    [
        ((1, 2, 0), ["simple1", "finite1", "c2simple"]),
        ((3, 4, 1), ["simple1", "finite1", "nonsimple1", "c2simple"]),
    ],
    ids=["1-2-0", "3-4-1"],
)
def test_a_fan_with_the_wrong_orbit_wrap_fails(monkeypatch, triple, failed):
    """Fans that shift the coordinate on the wrong orbit step break the fan
    containment: a check then reaches a non-vertex, and its item fails, in
    one process and in two, instead of certify raising InvalidVertex."""
    source = textwrap.dedent(inspect.getsource(M._fan_entries))
    assert "dr = 1 if i == R - 1 else 0" in source
    namespace = dict(vars(M))
    exec(source.replace("dr = 1 if i == R - 1 else 0", "dr = 1 if i == 1 else 0"), namespace)
    get_engine.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(M, "_fan_entries", namespace["_fan_entries"])
            cert = _certify_both_ways(monkeypatch, validate_triple(*triple), Window(-4, 4, -4, 4), 4)
    finally:
        get_engine.cache_clear()  # the engines read the broken fans
    assert cert.verdict == "fail"
    assert [c.lemma for c in cert.checks if not c.passed] == failed + ["collapse_layers"]


# -- the sweeps against the formulas they replaced ------------------------------------
#
# _FormulaSession checks towers, chain points, layer steps and degree-2
# points of c2_check by the formulas the sweeps replaced, on morphisms and
# generators: each tower step through ses_foreign, memoised by its verdict
# alone; each chain point through kernel_matches on the denominator plus its
# extra arrow against the sink maps of u's target; each layer step and
# degree-2 point through model.compose.  It carries no image and decides no
# sink image once.  Each case analysis checks the session's read of its
# instance (_Session._instance) against instance_functor and image_cube.


class _FormulaSession(C._Session):
    def _arrow(self, src, family, orbit, coord, deg):
        dst = VertexId(family, orbit, coord)
        if deg == 0 and dst == src:
            return M.IdentityMorphism(src)
        return M.arrow_or_zero(self.t, src, dst, deg)

    def _tower_sequences(self, inst):
        sy, sx = C._KINDS[inst.kind].shift
        a, b = inst.coord
        steps = [inst._replace(coord=(a + l * sx, b + l * sy)) for l in range(self.depth + 2)]
        memo = self._tower_step_cache
        for here, nxt in zip(steps, steps[1:]):
            if here not in memo:
                memo[here] = self._step(here, nxt)
            if not memo[here]:
                return False
        return True

    def _step(self, here, nxt):
        t = self.t
        sub, mid = C.instance_functor(t, nxt), C.instance_functor(t, here)
        top = mid.top
        u = self._arrow(top, top.family, top.orbit, nxt.coord, 0)
        if isinstance(u, ZeroMorphism):
            return False
        return self.eng.ses_foreign(
            top, u, sub.top, sub.denominators.generators, mid.denominators.generators, M.ar_sink_maps(t, top)
        )

    def _case_analysis(self, inst):
        t = self.t
        fp = C.instance_functor(t, inst)
        top, gens = fp.top, fp.denominators.generators
        assert self._instance(inst) == (top, M.arrow_fan(t, top), gens, self.eng.image_cube(top, gens))
        a, b = top.coord
        channels = M.arrow_fan(t, top).channels
        for row in C._KINDS[inst.kind].rows:
            e = channels.get(C._channel(t, inst.orbit, row.key))
            if e is None:
                return False
            if isinstance(row, C._Factor):
                split = e.region if row.split is None else R.intersect(e.region, row.split(a, b, inst.aux))
                if not self._factors_region(split, gens[row.gen], e):
                    return False
                continue
            (ux, uy), (mx, my) = row.u, row.mod
            for x, y in R.enumerate_points(R.intersect(e.region, row.line(a, b, inst.aux)), self.wreg):
                if abs(x - a) + abs(y - b) > self.depth:
                    continue
                u = self._arrow(top, e.family, e.orbit, (x + ux, y + uy), e.degree)
                if isinstance(u, ZeroMorphism):
                    return False
                extra = self._arrow(top, e.family, e.orbit, (x + mx, y + my), e.degree)
                if not self.eng.kernel_matches(top, u, gens + (extra,), M.ar_sink_maps(t, M.target_of(u))):
                    return False
        return True

    def _layer_step(self, v, inst):
        layer = C.instance_functor(self.t, inst)
        (a, b), (sx, sy) = inst.coord, C._KINDS[inst.kind].shift
        u = self._arrow(v, v.family, v.orbit, inst.coord, 0)
        extra = self._arrow(v, v.family, v.orbit, (a + sx, b + sy), 0)
        if isinstance(u, ZeroMorphism) or isinstance(extra, ZeroMorphism):
            return False
        if M.compose(self.t, layer.denominators.generators[C._F], u) != extra:
            return False
        if not self.eng.kernel_matches(v, u, (extra,), layer.denominators.generators):
            return False
        return self.tower_check(inst)

    def c2_check(self, v):
        t = self.t
        a, b = v.coord
        aux = {kind: C._aux_top(t, C._KINDS[kind], v.orbit, v.coord) for kind in (KIND_CP, KIND_CPP)}
        for e in M.arrow_fan(t, v).entries:
            for c, d in R.enumerate_points(e.region, self.wreg):
                if e.degree == 0:
                    if (c, d) == (a, b):
                        continue
                    kind = KIND_CP if c > a else KIND_CPP
                    sx, sy = C._KINDS[kind].shift
                    inst = Simple1Instance(kind, v.orbit, (c - sx, d - sy), aux[kind])
                    ok = self._layer_step(v, inst)
                elif e.degree == 1:
                    ok = self.finite1_check(V(e.family, e.orbit, c, d))
                else:
                    h1 = self._arrow(v, "X", e.orbit, (c, a), 1)
                    if isinstance(h1, ZeroMorphism):
                        return False
                    phi = self._arrow(h1.dst, e.family, e.orbit, (c, d), e.degree - 1)
                    f = self._arrow(v, e.family, e.orbit, (c, d), e.degree)
                    ok = M.compose(t, phi, h1) == f and self.finite1_check(h1.dst)
                if not ok:
                    return False
        return True


def _verdict(check, s, item):
    """An item's verdict as certify records it: a KgcertError fails it."""
    try:
        return check(s, item)
    except KgcertError:
        return False


REPLAY_WINDOW = Window(-5, 5, -5, 5)
REPLAY_DEPTH = 3


@pytest.mark.parametrize(
    "triple,mutant",
    [((1, 2, 0), None), ((3, 4, 1), None), ((1, 1, 0), None)] + [(m[0], m) for m in KIND_ROW_MUTANTS],
    ids=["1-2-0", "3-4-1", "1-1-0"] + KIND_ROW_IDS,
)
def test_sweeps_agree_with_the_formulas_they_replaced(monkeypatch, triple, mutant):
    """tower_check and c2_check give the verdicts of _FormulaSession on
    every simple1 and c2simple item, on the model and under every kind-row
    mutant: in the phases' order within one session, then shuffled within a
    second session that starts with every other step verdict of the first
    in its step memo.  Towers then run into memo hits between steps they
    compute, where an image carried across a hit would give a wrong
    verdict."""
    if mutant is not None:
        _, kind, field, value, _ = mutant
        monkeypatch.setitem(C._KINDS, kind, C._KINDS[kind]._replace(**{field: value}))
    t = validate_triple(*triple)
    first = C._Session(t, REPLAY_WINDOW, REPLAY_DEPTH)
    verts = M.vertices_in_box(t, *REPLAY_WINDOW.inner_half().box)
    phases = (C._SIMPLE1, C._C2SIMPLE) if t.is_finite_mode else (C._SIMPLE1,)
    calls = [(phase.check, item) for phase in phases for item in phase.items(first, verts)]
    ref = _FormulaSession(t, REPLAY_WINDOW, REPLAY_DEPTH)
    expected = {item: _verdict(check, ref, item) for check, item in calls}
    shuffled = random.Random(11).sample(calls, len(calls))
    seeded = C._Session(t, REPLAY_WINDOW, REPLAY_DEPTH)
    for order, s in [(calls, first), (shuffled, seeded)]:
        assert [_verdict(check, s, item) for check, item in order] == [expected[item] for _, item in order]
        if s is first:
            seeded._tower_step_cache.update(list(first._tower_step_cache.items())[::2])
    assert all(expected.values()) == (mutant is None)


# -- certifying in two processes ------------------------------------------------------
#
# On two CPUs certify forks a helper that checks the items of odd share of
# every phase (by x, or by y for finite1 vertices).
# These tests force the split on or off through _split_allowed and patch
# checks on the class, so the forked helper inherits the patch.

SPLIT_WINDOW = Window(-4, 4, -4, 4)
SPLIT_DEPTH = 2


def _processes(cert):
    return {len(p["processes"]) for p in cert.stats["phases"]}


def _certify(monkeypatch, t, split, window=SPLIT_WINDOW, depth=SPLIT_DEPTH):
    with monkeypatch.context() as m:
        m.setattr(C, "_split_allowed", lambda: split)
        return certify(t, window, depth)


def _certify_both_ways(monkeypatch, t, window, depth):
    """certify in one process, then in two: the process counts are {1} and
    {2} and the bytes the same.  Returns the certificate."""
    serial = _certify(monkeypatch, t, False, window, depth)
    split = _certify(monkeypatch, t, True, window, depth)
    assert _processes(serial) == {1} and _processes(split) == {2}
    assert split.to_json_text() == serial.to_json_text()
    return split


def _outcome(monkeypatch, t, split):
    """The certificate's bytes and process counts, or the exception raised."""
    try:
        cert = _certify(monkeypatch, t, split)
    except RuntimeError as exc:
        return ("raised", str(exc))
    return (cert.to_json_text(), _processes(cert))


def _bp_instances(t):
    """The simple1 phase's items, and the indices of its B' items at even
    and at odd x.  No other phase checks a B' tower."""
    s = C._Session(t, SPLIT_WINDOW, SPLIT_DEPTH)
    items = C._tower_instances(s, get_engine(t, SPLIT_WINDOW.inner_half().box).vertices())
    bp = [k for k, inst in enumerate(items) if inst.kind == KIND_BP]
    even = [k for k in bp if items[k].coord[0] % 2 == 0]
    odd = [k for k in bp if items[k].coord[0] % 2 == 1]
    return items, even, odd


def _patch_towers(monkeypatch, act):
    """Route tower_check through act(inst, real) for the B' instances."""
    real = C._Session.tower_check

    def tower_check(self, inst):
        run = lambda: real(self, inst)  # noqa: E731
        return act(inst, run) if inst.kind == KIND_BP else run()

    monkeypatch.setattr(C._Session, "tower_check", tower_check)


def _chosen(even, odd, where):
    """Indices of the items to break: one in the helper's share (odd x), one
    in this process's share, or one in each with the named one first."""
    o = odd[len(odd) // 2]
    e = even[len(even) // 2]
    return {
        "helper": [o],
        "parent": [e],
        "both, helper first": [o, next(k for k in even if k > o)],
        "both, parent first": [e, next(k for k in odd if k > e)],
    }[where]


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_split_and_serial_certificates_have_the_same_bytes(r, n, m, monkeypatch):
    cert = _certify_both_ways(monkeypatch, validate_triple(r, n, m), Window(-5, 6, -4, 7), 5)
    assert hashlib.sha256(cert.to_json_text().encode()).hexdigest() == OFFSET_WINDOW_SHA256[(r, n, m)]


# SHA-256 of to_json_text() at [-4,4]^2, depth 4, taken before the Z-vertex
# lemmas read the fan record.
ORBIT_SHA256 = {
    (3, 4, 1): "b9a18375aaa567854688e1ed52ada4572a69846ecbf163ef02f7a182cd5abafc",
    (3, 3, 1): "0c7abb0e289d64c3c5f447e2427eae5978cf9217d51b17f54c537232c1eab6fe",
}


@pytest.mark.parametrize("r,n,m", ORBIT_TRIPLES)
def test_orbit_triples_certify_pinned_in_one_and_two_processes(r, n, m, monkeypatch):
    """With r >= 3 a sign error in an orbit offset shows; serial and split
    certificates pass with the same, pinned bytes."""
    cert = _certify_both_ways(monkeypatch, validate_triple(r, n, m), Window(-4, 4, -4, 4), 4)
    assert cert.passed
    assert hashlib.sha256(cert.to_json_text().encode()).hexdigest() == ORBIT_SHA256[(r, n, m)]


@pytest.mark.parametrize("where", ["helper", "parent", "both, helper first", "both, parent first"])
def test_split_records_the_serial_first_failure(t120, monkeypatch, where):
    items, even, odd = _bp_instances(t120)
    bad = _chosen(even, odd, where)
    broken = {items[k] for k in bad}
    _patch_towers(monkeypatch, lambda inst, run: False if inst in broken else run())
    serial = _certify(monkeypatch, t120, False)
    split = _certify(monkeypatch, t120, True)
    assert _processes(split) == {2}
    assert split.to_json_text() == serial.to_json_text()
    record = split.checks[1]
    assert record.lemma == "simple1" and not record.passed
    assert record.params["instances"] == min(bad) + 1
    assert record.detail == f"failed at {items[min(bad)].params()}"
    assert [c.lemma for c in split.checks if not c.passed] == ["simple1", "collapse_layers"]


def _split_agrees(monkeypatch, t, lemma, expected):
    """certify in one process and in two: the same bytes, two processes, and
    the lemma's record failed at expected (an item), the first failure."""
    serial = _certify(monkeypatch, t, False)
    split = _certify(monkeypatch, t, True)
    assert _processes(split) == {2}
    assert split.to_json_text() == serial.to_json_text()
    (record,) = [c for c in split.checks if c.lemma == lemma]
    witness = expected.params() if lemma == "simple1" else expected
    assert not record.passed and record.detail == f"failed at {witness}"


@pytest.mark.parametrize("parity", [0, 1], ids=["even y", "odd y"])
def test_split_keeps_a_failing_finite1_step_in_one_share(t120, monkeypatch, parity):
    """A finite1 step that fails fails every vertex whose chain runs through
    it: those at its y and left of it.  The y share keeps them in one
    process, which the helper's reply must show."""
    verts = get_engine(t120, SPLIT_WINDOW.box).vertices()
    items = C._FINITE1.items(C._Session(t120, SPLIT_WINDOW, SPLIT_DEPTH), verts)
    bad = [v for v in items if v.family == "X" and v.coord[1] % 2 == parity][-1]
    real = C._Session._finite1_step
    monkeypatch.setattr(C._Session, "_finite1_step", lambda self, w, at_border: w != bad and real(self, w, at_border))
    first = next(v for v in items if (v.family, v.orbit, v.coord[1]) == (bad.family, bad.orbit, bad.coord[1]))
    _split_agrees(monkeypatch, t120, "finite1", first)


@pytest.mark.parametrize("parity", [0, 1], ids=["even y", "odd y"])
def test_split_keeps_a_failing_cpp_tower_step_in_one_share(t120, monkeypatch, parity):
    """A C'' tower step that fails fails every simple1 C'' tower through it,
    which climb along x at its y.  The x share puts those towers in both
    processes, and the merge still records the first of them."""
    items, _, _ = _bp_instances(t120)
    cpp = [inst for inst in items if inst.kind == KIND_CPP and inst.coord[1] % 2 == parity]
    bad = cpp[len(cpp) // 2]
    real = C._Session._tower_step

    def tower_step(self, here, nxt):
        return here != bad and real(self, here, nxt)

    monkeypatch.setattr(C._Session, "_tower_step", tower_step)
    first = next(
        inst for inst in items
        if inst._replace(coord=(0, 0)) == bad._replace(coord=(0, 0)) and inst.coord[1] == bad.coord[1]
        and bad.coord[0] - SPLIT_DEPTH <= inst.coord[0] <= bad.coord[0]
    )
    _split_agrees(monkeypatch, t120, "simple1", first)


def test_a_check_reaching_a_non_vertex_fails_its_item(t120, monkeypatch):
    """InvalidVertex from a check fails that item's phase, like False, with
    the same bytes in one process and in two."""
    items, even, odd = _bp_instances(t120)
    bad = items[odd[len(odd) // 2]]

    def act(inst, run):
        if inst == bad:
            raise InvalidVertex(f"not a vertex of the model: {inst}")
        return run()

    _patch_towers(monkeypatch, act)
    serial = _certify(monkeypatch, t120, False)
    split = _certify(monkeypatch, t120, True)
    assert _processes(split) == {2}
    assert split.to_json_text() == serial.to_json_text()
    record = split.checks[1]
    assert record.lemma == "simple1" and not record.passed
    assert record.detail == f"failed at {bad.params()}"
    assert [c.lemma for c in split.checks if not c.passed] == ["simple1", "collapse_layers"]


@pytest.mark.parametrize("split", [False, True])
def test_a_failed_phase_fails_collapse_layers(t120, monkeypatch, split):
    """collapse_layers passes only when every phase before it passed."""
    monkeypatch.setattr(C._Session, "c2_check", lambda self, v: False)
    cert = _certify(monkeypatch, t120, split)
    assert _processes(cert) == {2 if split else 1}
    checks = cert.to_json()["checks"]
    assert checks[-1]["lemma"] == "collapse_layers" and checks[-1]["pass"] is False
    assert [c["lemma"] for c in checks if not c["pass"]] == ["c2simple", "collapse_layers"]


@pytest.mark.parametrize(
    "where", ["helper", "parent", "both, helper first", "both, parent first", "helper, after a failure"]
)
def test_split_raises_the_serial_exception(t120, monkeypatch, where):
    items, even, odd = _bp_instances(t120)
    failing = set()
    if where == "helper, after a failure":
        e = even[0]
        failing = {items[e]}
        raising = {items[next(k for k in odd if k > e)]}
    else:
        raising = {items[k] for k in _chosen(even, odd, where)}

    def act(inst, run):
        if inst in raising:
            raise RuntimeError(f"boom at {inst}")
        return False if inst in failing else run()

    _patch_towers(monkeypatch, act)
    serial = _outcome(monkeypatch, t120, False)
    split = _outcome(monkeypatch, t120, True)
    if failing:
        assert serial[0] != "raised"
        assert split == (serial[0], {1})  # the helper raised: a serial rerun
    else:
        assert split == serial
        first = min(items.index(inst) for inst in raising)
        assert serial == ("raised", f"boom at {items[first]}")


@pytest.mark.parametrize("death", ["exit 0", "exit 3", "SIGKILL"])
def test_dead_helper_yields_the_serial_certificate(t120, monkeypatch, death):
    """A helper that dies before it replies is never read as a pass: the
    certificate is the serial run's, which fails at the helper's item."""
    items, _, odd = _bp_instances(t120)
    broken = items[odd[0]]
    parent = os.getpid()

    def act(inst, run):
        if inst != broken:
            return run()
        if os.getpid() != parent:
            if death == "SIGKILL":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0 if death == "exit 0" else 3)
        return False

    _patch_towers(monkeypatch, act)
    serial = _certify(monkeypatch, t120, False)
    split = _certify(monkeypatch, t120, True)
    assert not serial.passed
    assert split.to_json_text() == serial.to_json_text()
    assert _processes(split) == {1}


def _bad_replies(plan):
    """Helper walks that no honest helper sends, by name."""
    first = plan[0][3]
    passing = [[-1, 0, 0.0] for _ in plan]
    even = next(k for k, v in enumerate(first) if v.coord[0] % 2 == 0)
    f1 = [lemma for lemma, *_ in plan].index("finite1")
    even_y = next(k for k, v in enumerate(plan[f1][3]) if v.coord[1] % 2 == 0 and v.coord[0] % 2 == 1)
    return {
        "failure in the parent's share": [[even, 1, 0.0]] + passing[1:],
        "finite1 failure in the parent's share": passing[:f1] + [[even_y, 1, 0.0]] + passing[f1 + 1:],
        "index past the items": [[len(first), 1, 0.0]] + passing[1:],
        "one phase short": passing[1:],
        "index not an int": [["0", 1, 0.0]] + passing[1:],
    }


@pytest.mark.parametrize(
    "bad",
    [
        "failure in the parent's share", "finite1 failure in the parent's share", "index past the items",
        "one phase short", "index not an int",
    ],
)
def test_invalid_helper_reply_yields_the_serial_certificate(t120, monkeypatch, bad):
    real = C._walk

    def walk(s, plan, parity=None):
        return _bad_replies(plan)[bad] if parity == 1 else real(s, plan, parity)

    serial = _certify(monkeypatch, t120, False)
    monkeypatch.setattr(C, "_walk", walk)
    split = _certify(monkeypatch, t120, True)
    assert serial.passed
    assert split.to_json_text() == serial.to_json_text()
    assert _processes(split) == {1}


_SIZES = dict.fromkeys(C._CACHES, 3)


def _helper_reply(walk, caches=_SIZES):
    return json.dumps({"walk": walk, "caches": caches}).encode()


@pytest.mark.parametrize(
    "reply", [b"", b"\xff\xfe", b"null", b"{}", b"[[-1, 0]]", b"[[true, 1, 0.5]]", b'[[-1, 0, "s"]]']
)
def test_malformed_helper_reply_is_rejected(t110, reply):
    """A reply that is no JSON, or whose walk is malformed, is rejected, bare
    or in a report with valid cache sizes; a valid walk is rejected too when
    no cache sizes come with it."""
    plan = [("inf_simple0", C._SIMPLE0, SPLIT_WINDOW, get_engine(t110, SPLIT_WINDOW.box).vertices())]
    assert C._helper_walk(reply, plan) is None
    try:
        walk = json.loads(reply)
    except ValueError:
        walk = None
    assert C._helper_walk(_helper_reply(walk), plan) is None
    assert C._helper_walk(b"[[-1, 3, 0.5]]", plan) is None
    assert C._helper_walk(json.dumps({"walk": [[-1, 3, 0.5]]}).encode(), plan) is None
    assert C._helper_walk(_helper_reply([[-1, 3, 0.5]]), plan) == {"walk": [[-1, 3, 0.5]], "caches": _SIZES}


@pytest.mark.parametrize(
    "caches",
    [
        None,
        [3, 3, 3, 3, 3],
        {k: 3 for k in C._CACHES[1:]},
        {**_SIZES, "extra": 3},
        {**_SIZES, "tower_memo": -1},
        {**_SIZES, "step_memo": True},
        {**_SIZES, "sink_decisions": 3.0},
        {**_SIZES, "engine_cubes": "3"},
    ],
    ids=["none", "a list", "one short", "one extra", "negative", "bool", "float", "str"],
)
def test_helper_reply_with_bad_cache_sizes_is_rejected(t110, caches):
    plan = [("inf_simple0", C._SIMPLE0, SPLIT_WINDOW, get_engine(t110, SPLIT_WINDOW.box).vertices())]
    assert C._helper_walk(_helper_reply([[-1, 3, 0.5]], caches), plan) is None


def test_interrupt_reaps_the_helper(t120, monkeypatch, tmp_path):
    """KeyboardInterrupt in this process kills and reaps a helper that is
    still busy: the helper's pid is gone, not a zombie."""
    items, even, odd = _bp_instances(t120)
    pid_file = tmp_path / "helper.pid"
    parent = os.getpid()

    def act(inst, run):
        if os.getpid() != parent:
            pid_file.write_text(str(os.getpid()))
            time.sleep(60)
        for _ in range(1000):
            if pid_file.exists() and pid_file.read_text():
                raise KeyboardInterrupt
            time.sleep(0.01)
        raise AssertionError("the helper never started")

    _patch_towers(monkeypatch, act)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _certify(monkeypatch, t120, True)
    assert time.monotonic() - t0 < 30
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def _condition(monkeypatch, name):
    """Make one condition of the split decision fail."""
    if name == "no fork":
        monkeypatch.delattr(os, "fork")
    elif name == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif name == "one CPU, no affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif name == "another thread":
        monkeypatch.setattr(threading, "active_count", lambda: 2)


@pytest.mark.parametrize("name", ["none", "no fork", "one CPU", "one CPU, no affinity", "another thread"])
def test_each_split_condition_alone_forces_the_serial_path(t110, monkeypatch, name):
    """With fork, two CPUs and one thread the run splits; failing any one of
    them runs every phase in this process."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    _condition(monkeypatch, name)
    split = name == "none"
    assert C._split_allowed() is split
    cert = certify(t110, SPLIT_WINDOW, SPLIT_DEPTH)
    assert cert.passed and _processes(cert) == {2 if split else 1}
    assert len(forks) == int(split)


def test_a_running_thread_keeps_certify_in_one_process(t110):
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(30,))
    thread.start()
    try:
        cert = certify(t110, SPLIT_WINDOW, SPLIT_DEPTH)
    finally:
        done.set()
        thread.join(30)
    assert not thread.is_alive()
    assert cert.passed and _processes(cert) == {1}


def test_stats_count_every_item_once(t120):
    cert = certify(t120, SPLIT_WINDOW, SPLIT_DEPTH)
    phases = cert.stats["phases"]
    assert [p["lemma"] for p in phases] == [c.lemma for c in cert.checks[:-1]]
    for p in phases:
        assert sum(q["checked"] for q in p["processes"]) == p["items"] > 0
        assert all(q["seconds"] >= 0 for q in p["processes"])
    assert "stats" not in cert.to_json()


@pytest.mark.parametrize("split", [False, True], ids=["one process", "two"])
def test_stats_give_the_cache_sizes_of_each_process(t120, monkeypatch, split):
    """Per process, the sizes of the three session memos and the engine's
    two caches; every one is in use on a passing run."""
    get_engine.cache_clear()  # sizes of a fresh engine, as a new kgcert process has
    cert = _certify(monkeypatch, t120, split)
    caches = cert.stats["caches"]
    assert len(caches) == (2 if split else 1) == len(cert.stats["phases"][0]["processes"])
    for sizes in caches:
        assert list(sizes) == list(C._CACHES)
        assert all(type(n) is int and n > 0 for n in sizes.values()), sizes
        # every vertex with a sink image memo has its cube cached
        assert sizes["sink_decisions"] <= sizes["engine_cubes"]
    eng = get_engine(t120, SPLIT_WINDOW.box)
    assert caches[0]["engine_cubes"] == len(eng._entries)
    assert caches[0]["sink_decisions"] == sum(image is not None for _, _, image in eng._entries.values())
