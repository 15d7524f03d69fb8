"""Lemma replays: positive instances, mode guards, and perturbation controls."""

import contextlib
import hashlib
import io
import json
import os
import random
import threading
from types import MappingProxyType

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
    check_nonsimple1,
    check_simple0,
    check_simple1_tower,
)
from kgcert.cli import main as cli_main
from kgcert.engine import WindowEngine, get_engine
from kgcert.errors import (
    InvalidVertex,
    KgcertError,
    ModeMismatch,
    OmegaViolation,
    ParameterRange,
    WrongFamily,
)
from kgcert.functors import FpFunctor, Subfunctor, Window
from kgcert.model import ArrowMorphism, VertexId, ZERO, ZeroMorphism
from kgcert.presentation import GentleTriple, validate_triple

import fan_reference
from conftest import ACCEPTANCE_TRIPLES, INFINITE_TRIPLES, ORBIT_TRIPLES
from mutants import KIND_ROW_IDS, KIND_ROW_MUTANTS, ORBIT_WRAP_FAILED, moved_at_one_vertex, wrong_orbit_wrap
from test_equivariance import translate_item


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
        return run(), swept


@pytest.mark.parametrize("depth", [2, 4])
def test_chains_are_swept_within_the_session_depth(t120, monkeypatch, depth):
    """Every chain point a case analysis sweeps lies within the session's
    depth (L1) of its top, and for B' at (-1, 0), aux 0, a point at exactly
    that depth is swept: in the lemma function's session and in certify's,
    whose simple1 phase checks that instance as the representative of its
    class, although the window reaches further."""
    inst = Simple1Instance(KIND_BP, 0, (-1, 0), 0)

    def distance(inst, p):
        return abs(p[0] - inst.coord[0]) + abs(p[1] - inst.coord[1])

    for run in (lambda: check_simple1_tower(t120, inst, depth, W6), lambda: certify(t120, W6, depth).passed):
        ok, swept = _swept_chain_points(monkeypatch, run)
        assert ok
        assert max(distance(inst, p) for p in swept[inst]) == depth
        assert all(distance(i, p) <= depth for i, points in swept.items() for p in points)


def sweep_whole_window(s, inst):
    """The case analysis as it swept before its chain lines were clipped to
    the depth box: every window point of a chain line, with the points
    beyond the session's depth (L1) of the top skipped.  Returns its verdict
    and the (top, S, p) of each kernel it compares, in order."""
    t, eng, calls = s.t, s.eng, []
    top, rec, gens, den = s._instance(inst)
    a, b = top.coord
    for row in C._KINDS[inst.kind].rows:
        e = rec.channels.get(C._channel(t, inst.orbit, row.key))
        if e is None:
            return False, calls
        if isinstance(row, C._Factor):
            split = e.region if row.split is None else R.intersect(e.region, row.split(a, b, inst.aux))
            if not s._factors_region(split, gens[row.gen], e):
                return False, calls
            continue
        line = R.intersect(e.region, row.line(a, b, inst.aux))
        (ux, uy), (mx, my), p = row.u, row.mod, e.degree
        for x, y in R.enumerate_points(line, s.wreg):
            if abs(x - a) + abs(y - b) > s.depth:
                continue
            S = VertexId(e.family, e.orbit, (x + ux, y + uy))
            if not C._exists(rec, S, p):
                return False, calls
            extra = VertexId(e.family, e.orbit, (x + mx, y + my))
            mod = den | eng._image(top, extra, p) if C._exists(rec, extra, p) else den
            calls.append((top, S, p))
            if eng._kernel(top, S, p, mod) != eng._sink_image(S):
                return False, calls
    return True, calls


@pytest.mark.parametrize(
    "triple,window",
    [((1, 2, 0), Window(-10, 10, -10, 10)), ((2, 2, 1), Window(-20, 20, -20, 20)),
     ((1, 2, 0), Window(-1, 9, -1, 9)), ((2, 2, 1), Window(-1, 9, -1, 9))],
    ids=["120-w21", "221-w41", "120-off-centre", "221-off-centre"],
)
def test_the_depth_clipped_sweep_checks_what_the_window_sweep_checked(triple, window, monkeypatch):
    """A spy on WindowEngine._kernel, inside _case_analysis, records the
    same (top, S, p) sequence and the same verdict as the sweep over every
    window point within the depth (8) of the top, for tops far from the
    window's edge and tops within the depth of it."""
    t = validate_triple(*triple)
    s = C._Session(t, window, 8)
    insts = C._tower_instances(s, M.vertices_in_box(t, *window.box))

    def edge_distance(inst):
        a, b = inst.coord
        return min(a - window.x0, window.x1 - a, b - window.y0, window.y1 - b)

    rng = random.Random(36)
    near = [inst for inst in insts if edge_distance(inst) < s.depth]
    far = [inst for inst in insts if edge_distance(inst) >= s.depth]
    assert near and (far or window.x1 - window.x0 < 2 * s.depth)
    calls, real_kernel = [], WindowEngine._kernel

    def kernel(self, top, S, p, modulo):
        calls.append((top, S, p))
        return real_kernel(self, top, S, p, modulo)

    swept = 0
    for inst in rng.sample(near, min(40, len(near))) + rng.sample(far, min(40, len(far))):
        expected = sweep_whole_window(s, inst)
        del calls[:]
        with monkeypatch.context() as m:
            m.setattr(WindowEngine, "_kernel", kernel)
            ok = s._case_analysis(inst)
        assert (ok, calls) == expected, inst
        swept += len(calls)
    assert swept > 0


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


def _spy_on_finite1_steps(monkeypatch, fails):
    """Patch _Session._finite1_step to fail wherever fails(w) holds and to
    run the real step elsewhere; the list of the steps taken."""
    real, taken = C._Session._finite1_step, []

    def step(self, w, at_border):
        taken.append(w)
        return not fails(w) and real(self, w, at_border)

    monkeypatch.setattr(C._Session, "_finite1_step", step)
    return taken


@pytest.mark.parametrize(
    "triple,mutant",
    [((1, 2, 0), None), ((2, 3, 0), None), ((1, 3, 2), None), ((3, 4, 1), None), ((1, 2, 0), "C'-aux")],
    ids=["120", "230", "132", "341", "120-C'-aux"],
)
def test_finite1_step_agrees_with_kernel_matches(triple, mutant, monkeypatch):
    """r < n: at every finite1 step that certify takes at [-6,6]^2, the
    session's step (_kernel on its own reads) gives the verdict of
    kernel_matches(w, g, (f,), C-object generators) on the quotient's (f, g)
    and the C-object at g's target, both from instance_functor.  On the
    model every step passes; with the C' aux range one short (a kind-row
    mutant of the catalogue) the first fails, and so does the phase."""
    if mutant is not None:
        (_, kind, field, value, _), = [row for row, name in zip(KIND_ROW_MUTANTS, KIND_ROW_IDS) if name == mutant]
        monkeypatch.setitem(C._KINDS, kind, C._KINDS[kind]._replace(**{field: value}))
    t = validate_triple(*triple)
    real, verdicts = C._Session._finite1_step, []

    def step(self, w, at_border):
        got = real(self, w, at_border)
        quot_kind, sub_kind = self.mode.finite1[w.family]
        f, g = C.instance_functor(t, C._largest_aux(t, quot_kind, w)).denominators.generators
        if at_border == isinstance(f, ZeroMorphism) and not isinstance(g, ZeroMorphism):
            sub = C.instance_functor(t, C._largest_aux(t, sub_kind, g.dst))
            assert got == self.eng.kernel_matches(w, g, (f,), sub.denominators.generators), w
            verdicts.append(got)
        return got

    monkeypatch.setattr(C._Session, "_finite1_step", step)
    certify(t, W6, 2)
    assert verdicts and (False in verdicts) == (mutant is not None)


@pytest.mark.parametrize("seed", range(3))
def test_a_failing_finite1_class_fails_every_walk_through_it(monkeypatch, seed):
    """r == n: a finite1 step reads fan records only, so the memo is per
    class.  With one class of (2,2,1), X orbit 0 at a - b = -3, made to
    fail, every walk whose class is -3 or lower fails and every other walk
    passes, from any row and in any call order; each class is stepped once."""
    t = validate_triple(2, 2, 1)
    bad = ("X", 0, -3)
    taken = _spy_on_finite1_steps(monkeypatch, lambda w: C._vertex_class(w) == bad)
    verts = [v for v in M.vertices_in_box(t, *W6.box) if v.family == "X"]
    random.Random(seed).shuffle(verts)
    s = C._Session(t, W6, 2)
    for v in verts:
        a, b = v.coord
        assert s.finite1_check(v) == (v.orbit != 0 or a - b > -3), v
    classes = [C._vertex_class(w) for w in taken]
    assert bad in classes and len(classes) == len(set(classes))
    assert len(s._finite1_cache) == len(set(classes) | {C._vertex_class(v) for v in verts})


@pytest.mark.parametrize("bad_first", [True, False], ids=["failing row first", "other row first"])
def test_a_failing_finite1_step_stays_on_its_vertex_when_r_lt_n(t120, monkeypatch, bad_first):
    """r < n: a finite1 step compares window cubes, whose evidence depends
    on where the step sits, so the memo is per vertex.  A step that fails
    at X:0:(-2,1) fails the walk through it but not a walk through
    X:0:(-1,2), of the same class, in either call order."""
    bad, other = V("X", 0, -2, 1), V("X", 0, -1, 2)
    assert C._vertex_class(bad) == C._vertex_class(other)
    _spy_on_finite1_steps(monkeypatch, lambda w: w == bad)
    s = C._Session(t120, W6, 2)
    walks = [(bad, False), (other, True)]
    for v, ok in walks if bad_first else walks[::-1]:
        assert s.finite1_check(v) == ok
    assert bad in s._finite1_cache and other in s._finite1_cache


def test_a_finite1_memo_hit_keeps_the_vertex_check(t110, monkeypatch):
    """A vertex whose class the memo holds still raises InvalidVertex when
    the model says it is no vertex."""
    s = C._Session(t110, W6, 2)
    assert s.finite1_check(V("X", 0, 0, 1))
    gone = V("X", 0, 2, 3)
    real_valid = M.vertex_valid
    monkeypatch.setattr(M, "vertex_valid", lambda t, w: w != gone and real_valid(t, w))
    assert C._vertex_class(gone) in s._finite1_cache
    with pytest.raises(InvalidVertex):
        s.finite1_check(gone)


def test_wide_221_finite1_memo_holds_one_entry_per_class():
    """certify of (2,2,1) at [-20,20]^2, depth 8, walks 83 finite1 classes;
    keyed per vertex the memo held 1,324 entries."""
    cert = certify(validate_triple(2, 2, 1), Window(-20, 20, -20, 20), 8)
    assert cert.passed and cert.stats["caches"]["finite1_memo"] == 83


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
    cert = certify(t, W6, 4)
    assert cert.passed and cert.kg == 1


@pytest.mark.parametrize("depth", [0, -1])
def test_infinite_mode_rejects_depth_below_one(t110, depth):
    with pytest.raises(ParameterRange, match="depth"):
        certify(t110, Window(-3, 3, -3, 3), depth)


@pytest.mark.parametrize("triple", [(3, 2, 0), (True, 2, 0), (2, 3, -1), (1.5, 2, 0), (0, 1, 0), (1, 1, -1)])
def test_certify_rejects_an_inadmissible_triple(triple):
    """The mode split is stated for admissible triples only, so a session
    validates its triple instead of deciding the split for r > n, a bool,
    a float or a negative m."""
    t = GentleTriple(*triple)
    with pytest.raises(OmegaViolation):
        certify(t, Window(-3, 3, -3, 3), 2)
    with pytest.raises(OmegaViolation):
        check_simple0(t, V("X", 0, 0, 0), Window(-3, 3, -3, 3))


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
    assert certify(t, window, 4).passed
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
    assert certify(validate_triple(r, n, m), Window(-4, 4, -4, 4), 4).passed
    assert len(calls) <= SIMPLE1_READS[(r, n, m)]


# The benchmark's eight certify inputs: the acceptance triples at [-8,8]^2 and
# the two wide windows, each at depth 8.
BENCH_INPUTS = [(triple, 8) for triple in ACCEPTANCE_TRIPLES] + [((1, 2, 0), 10), ((2, 2, 1), 20)]
BENCH_IDS = [f"{r}{n}{m}-w17" for r, n, m in ACCEPTANCE_TRIPLES] + ["120-w21", "221-w41"]


@pytest.mark.parametrize("triple,half", BENCH_INPUTS, ids=BENCH_IDS)
def test_the_instance_memo_holds_what_simple1_parts_gives(triple, half, monkeypatch):
    """Every instance that certify reads on a benchmark input is memoised
    with the parts a fresh _simple1_parts gives it; an instance whose parts
    raise has no entry."""
    t = validate_triple(*triple)
    sessions, read = [], set()
    real = C._Session._instance_parts

    def spy(self, inst):
        sessions.append(self)
        read.add(inst)
        return real(self, inst)

    monkeypatch.setattr(C._Session, "_instance_parts", spy)
    assert certify(t, Window(-half, half, -half, half), 8).passed
    monkeypatch.undo()
    (s,) = set(sessions)
    parts = {}
    for inst in read:
        with contextlib.suppress(KgcertError):
            parts[inst] = C._simple1_parts(t, *inst)
    assert parts and s._parts == parts


def test_an_instance_whose_parts_raise_raises_on_every_read(t120, t110):
    """A read that raises leaves no memo entry and no last read behind: it
    raises again on each later read, with the memo warm around it, and the
    read of a good instance between two is still its own."""
    cases = [
        (t120, Simple1Instance(KIND_CP, 0, (0, 0), 1), [
            (Simple1Instance(KIND_CP, 0, (0, 0), 2), ParameterRange),  # aux above its top, a + m + 1 = 1
            (Simple1Instance(KIND_B_INF, 0, (0, 0), 0), ModeMismatch),  # kind B needs r == n
            (Simple1Instance(KIND_BP, 0, (5, 0), 0), InvalidVertex),  # a - b > m: no X-vertex
        ]),
        (t110, Simple1Instance(KIND_B_INF, 0, (0, 0), 0), [
            (Simple1Instance(KIND_B_INF, 0, (0, 0), 1), ParameterRange),  # aux above a + m = 0
            (Simple1Instance(KIND_BP, 0, (0, 0), 0), ModeMismatch),  # kind B' needs r < n
            (Simple1Instance(KIND_B_INF, 1, (0, 0), 0), InvalidVertex),  # r = 1: no orbit 1
        ]),
    ]
    for t, good, bad in cases:
        s = C._Session(t, W6, 4)
        want = C._Session(t, W6, 4)._instance(good)
        for _ in range(3):
            for wrong, error in bad:
                for read in (s._instance, s._instance_parts):
                    with pytest.raises(error):
                        read(wrong)
                assert s._instance(good) == want
        assert list(s._parts) == [good]


class _Int(int):
    pass


@pytest.mark.parametrize(
    "field,value,error",
    [("orbit", True, InvalidVertex), ("coord", (0.0, 1), InvalidVertex), ("coord", (0, True), InvalidVertex),
     ("aux", False, ParameterRange), ("aux", 0.0, ParameterRange), ("aux", _Int(0), ParameterRange)],
    ids=["bool-orbit", "float-a", "bool-b", "bool-aux", "float-aux", "int-subclass-aux"],
)
def test_an_instance_with_a_non_int_field_raises_after_its_int_twin(field, value, error):
    """The memo and the last read key on equality, and B' on orbit True
    equals its twin on orbit 1; read right after that twin, and again with
    the twin memoised, the instance still raises what build_simple1 raises."""
    t = validate_triple(2, 3, 0)
    twin = Simple1Instance(KIND_BP, 1, (0, 1), 0)
    wrong = twin._replace(**{field: value})
    assert wrong == twin
    s = C._Session(t, W6, 4)
    for _ in range(2):
        s._instance(twin)
        for read in (s._instance, s._instance_parts, lambda inst: build_simple1(t, *inst)):
            with pytest.raises(error):
                read(wrong)
    assert list(s._parts) == [twin]


@pytest.mark.parametrize(
    "triple,kind,coord", [((1, 2, 0), KIND_BP, (0, 0)), ((1, 2, 0), KIND_CP, (0, 0)), ((1, 1, 0), KIND_B_INF, (0, 0))],
    ids=["B'", "C'", "B"],
)
@pytest.mark.parametrize("aux", [0.5, True, 0.0, _Int(0)], ids=["half", "bool", "float", "int-subclass"])
def test_an_aux_that_is_no_int_is_out_of_range(triple, kind, coord, aux):
    """An aux of another type than int would name a generator target that
    is no vertex (B' with aux 0.5 on (1,2,0) has g to Z:0:(0,0.5)); both
    build_simple1 and a tower check refuse it, as out of range, before
    anything is built.  The int aux of the same instance is fine."""
    t = validate_triple(*triple)
    assert build_simple1(t, kind, 0, coord, 0).top == VertexId(C._KINDS[kind].family, 0, coord)
    with pytest.raises(ParameterRange):
        build_simple1(t, kind, 0, coord, aux)
    with pytest.raises(ParameterRange):
        check_simple1_tower(t, Simple1Instance(kind, 0, coord, aux), 2, W5)


def test_stats_size_the_instance_memo_and_the_column_masks(t120, monkeypatch):
    """stats["caches"] gives the session's memo of instance parts and the
    engine's table of column masks, which holds at most one mask per y-run
    of the window."""
    sessions = []
    real = C._run_phases

    def spy(s):
        sessions.append(s)
        return real(s)

    monkeypatch.setattr(C, "_run_phases", spy)
    get_engine.cache_clear()
    sizes = certify(t120, W4, 2).stats["caches"]
    (s,) = sessions
    ny = W4.y1 - W4.y0 + 1
    assert sizes["instance_parts"] == len(s._parts) > 0
    assert sizes["box_masks"] == len(s.eng._columns) and 0 < sizes["box_masks"] <= ny * (ny + 1) // 2


# -- the chain-point rule -------------------------------------------------------------


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_the_row_entry_rule_is_exists(r, n, m):
    """_in_row_entry answers as _exists on the VertexId of its point, for
    every fan entry of every vertex in [-2,2]^2 and every point of
    [-6,6]^2 (the vertex itself among them)."""
    t = validate_triple(r, n, m)
    points = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    for src in M.vertices_in_box(t, -2, 2, -2, 2):
        rec = M.arrow_fan(t, src)
        for e in rec.entries:
            for x, y in points:
                want = C._exists(rec, VertexId(e.family, e.orbit, (x, y)), e.degree)
                assert C._in_row_entry(e, src, x, y) == want, (src, e, x, y)


def test_the_row_entry_rule_on_the_top_itself():
    """At the source's own point: the identity at degree 0, whatever the
    entry's region and flag; at a higher degree nothing when the entry
    excludes its source, else its region's answer, an EMPTY region
    included.  An entry of another channel at that point is no identity."""
    src = V("Z", 0, 0, 0)
    regs = [R.box(-1, 1, -1, 1), R.box(1, 3, 1, 3), R.EMPTY]
    for family, orbit in [("Z", 0), ("X", 0), ("Z", 1)]:
        for degree in (0, 1, 2):
            for excludes in (False, True):
                for reg in regs:
                    e = M.FanEntry(family, orbit, degree, reg, excludes)
                    rec = M.ArrowFan(src, (e,), MappingProxyType({e[:3]: e}), (ZERO, ZERO))
                    for x, y in [(0, 0), (1, 1), (-1, 0), (4, 4)]:
                        got = C._in_row_entry(e, src, x, y)
                        assert got == C._exists(rec, VertexId(family, orbit, (x, y)), degree), (e, x, y)
                    at_src = C._in_row_entry(e, src, 0, 0)
                    if (family, orbit) == ("Z", 0) and degree == 0:
                        assert at_src
                    elif (family, orbit) == ("Z", 0) and excludes:
                        assert not at_src
                    else:
                        assert at_src == R.member(reg, (0, 0))


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
    """tau_4: (a, b) -> (a + 4, b + 4) maps [-5,5]^2 onto [-1,9]^2 (the inner
    and quarter boxes, halved toward zero, move by 2 and 1 but keep their
    sizes).  The model is invariant under every tau_k, so both windows give
    passing certificates with the same records apart from their window
    params."""
    t = validate_triple(r, n, m)

    def records(window):
        cert = certify(t, window, 4)
        assert cert.passed
        return [
            {**c.to_json(), "params": {k: v for k, v in c.params.items() if k != "window"}}
            for c in cert.checks
        ]

    assert records(W5) == records(Window(-1, 9, -1, 9))


@pytest.mark.parametrize(
    "r,n,m,window,empty",
    [
        (1, 1, 0, Window(5, 6, -6, -5), ["translation", "inf_simple0", "inf_simple1", "inf_finite1", "layer0_strict"]),
        (1, 2, 0, Window(5, 5, -5, -5), ["finite1"]),
    ],
)
def test_a_phase_with_no_items_fails(r, n, m, window, empty):
    """A phase that checked no item gathered no evidence: it fails with
    detail "no items", and so do collapse_layers and the verdict."""
    cert = certify(validate_triple(r, n, m), window, 1)
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
    assert set(a) == {"version", "triple", "kg", "window", "depth", "checks", "verdict"}
    assert a["version"] == 2
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


# SHA-256 of to_json_text() at [-5,6]x[-4,7], depth 5: a window whose centre
# is no lattice point, with odd bounds that Window.inner_half rounds toward
# zero ([-2,3]x[-2,3] inside).
OFFSET_WINDOW_SHA256 = {
    (1, 2, 0): "e40284dcf74043b77c4247505eff73951b72489c98709bb595d8ffbff0e202f0",
    (2, 3, 0): "be42188917d4246242d9bb1a2f3e1b48da10666b8656ee4be99083d4142ebb10",
    (1, 3, 2): "ae3fdf48aa6dbae40795777cf5e9cb2172692720cb9219ca553e695385cf95ff",
    (1, 1, 0): "896946a9c84b23d221f36a251e6841db5667915aa9b213d872d6f78af1b55b1e",
    (2, 2, 0): "4928bf7f1dc50d8c7feebc3f4ce4dcfb160f63ac63134f3506ec6fc33ade2d2d",
    (2, 2, 1): "27a736ad9df4b0f4aea9992586b9c0ae7fcf3138796cb83fa28093e0cf95ceff",
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
    """Every window decision of certify is a cube identity: a run calls
    neither dims_cube nor cells, and builds the quotient of each simple0
    representative once."""
    calls = {"dims_cube": 0, "cells": 0, "build_simple0": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [(WindowEngine, "dims_cube"), (WindowEngine, "cells"), (C, "build_simple0")]:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    cert = certify(validate_triple(*triple), Window(-3, 3, -3, 3), 2)
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
    towers of every B' instance instead of raising; the other phases never
    run a B' case analysis."""
    spec = C._KINDS[KIND_BP]
    rows = spec.rows[:-1] + (spec.rows[-1]._replace(key=(M.FAMILY_Y, 0, 0)),)
    monkeypatch.setitem(C._KINDS, KIND_BP, spec._replace(rows=rows))
    assert not check_simple1_tower(t120, Simple1Instance(KIND_BP, 0, (0, 1), 0), 3, W5)
    cert = certify(t120, Window(-4, 4, -4, 4), 3)
    assert cert.verdict == "fail"
    assert [c.lemma for c in cert.checks if not c.passed] == ["simple1", "collapse_layers"]


@pytest.mark.parametrize("triple,kind,field,value,failed", KIND_ROW_MUTANTS, ids=KIND_ROW_IDS)
def test_a_mutated_kind_row_fails(monkeypatch, triple, kind, field, value, failed):
    """A kind row with its second generator one step off, its aux range
    one short or broken, or a chain offset one step off, fails certify
    rather than raising: the finite-length steps read their quotient and sub from the same rows as
    the towers, an aux out of range up a tower is a ParameterRange that
    fails its item, and a moved chain offset fails the case analysis's
    sweep."""
    monkeypatch.setitem(C._KINDS, kind, C._KINDS[kind]._replace(**{field: value}))
    cert = certify(validate_triple(*triple), Window(-4, 4, -4, 4), 4)
    assert cert.verdict == "fail"
    assert [c.lemma for c in cert.checks if not c.passed] == failed + ["collapse_layers"]


@pytest.mark.parametrize(
    "triple,failed", ORBIT_WRAP_FAILED.items(), ids=["-".join(map(str, t)) for t in ORBIT_WRAP_FAILED]
)
def test_a_fan_with_the_wrong_orbit_wrap_fails(monkeypatch, triple, failed):
    """Fans that shift the coordinate on the wrong orbit step break the fan
    containment: a check then reaches a non-vertex, and its item fails
    instead of certify raising InvalidVertex.  The module's own caches keep
    the model's records."""
    t = validate_triple(*triple)
    get_engine.cache_clear()
    try:
        with monkeypatch.context() as m:
            wrong_orbit_wrap(m)
            cert = certify(t, Window(-4, 4, -4, 4), 4)
    finally:
        get_engine.cache_clear()  # the engines read the broken fans
    assert cert.verdict == "fail"
    assert [c.lemma for c in cert.checks if not c.passed] == [*failed, "collapse_layers"]
    for v in M.vertices_in_box(t, -4, 4, -4, 4):
        assert M.arrow_fan(t, v).entries == fan_reference.fan_record(t, v).entries, v


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


# -- one representative per translation class ---------------------------------------

W4 = Window(-4, 4, -4, 4)


# SHA-256 of to_json_text() at [-4,4]^2, depth 4.
ORBIT_SHA256 = {
    (3, 4, 1): "1c4a9fdc737fe5429604083f7e1332d7edc76919fc4b5aa9912fbe677c07b229",
    (3, 3, 1): "28c90c96f6d320b17484cababf7fae3af0a66db2dd7810f555d71a86b431196c",
}




def _class_members(t, window, phase):
    """The items of a phase of certify(t, window, ...), grouped by class key."""
    s = C._Session(t, window, 2)
    boxes = {"window": window, "inner": window.inner_half(), "quarter": window.inner_half().inner_half()}
    items = phase.items(s, M.vertices_in_box(t, *boxes[phase.box].box))
    classes = {}
    for item in items:
        classes.setdefault(phase.key(item), []).append(item)
    return items, classes


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
@pytest.mark.parametrize("window", [W4, Window(-5, 6, -4, 7)], ids=["square", "offset"])
def test_representatives_are_the_class_members_nearest_the_centre(r, n, m, window):
    """Per phase, the representatives are one item of each class: the one
    at the least L1 distance from the window centre, the first of those in
    item order; their order is the items' order.  Past the translation
    phase, whose every item is its own class, an item's translates by
    sigma_x and sigma_y have its key."""
    t = validate_triple(r, n, m)
    cx, cy = window.x0 + window.x1, window.y0 + window.y1
    for _, phase in C._MODES[t.is_finite_mode].phases:
        items, classes = _class_members(t, window, phase)
        reps = C._representatives(window, items, phase.key)
        assert reps == sorted(reps, key=items.index)
        assert len(reps) == len(classes)

        def distance(item):
            return abs(2 * item.coord[0] - cx) + abs(2 * item.coord[1] - cy)

        for rep in reps:
            members = classes[phase.key(rep)]
            nearest = min(map(distance, members))
            assert rep == next(item for item in members if distance(item) == nearest)
        if phase is C._TRANSLATION:
            assert reps == items
            continue
        for members in classes.values():
            assert all(phase.key(translate_item(t, g, item)) == phase.key(item)
                       for item in members for g in ("x", "y"))


def representatives_by_distance(window, items, key):
    """_representatives as it was before its shortcut for the key _same:
    per class, the item nearest the window centre, the earliest of those;
    in item order."""
    cx, cy = window.x0 + window.x1, window.y0 + window.y1
    best = {}
    for k, item in enumerate(items):
        x, y = item.coord
        d = abs(2 * x - cx) + abs(2 * y - cy)
        cls = key(item)
        if cls not in best or d < best[cls][0]:
            best[cls] = (d, k)
    return [items[k] for k in sorted(k for _, k in best.values())]


@pytest.mark.parametrize(
    "triple,half", [(triple, 8) for triple in ACCEPTANCE_TRIPLES] + [((1, 2, 0), 10), ((2, 2, 1), 20)],
    ids=[f"{r}{n}{m}-w17" for r, n, m in ACCEPTANCE_TRIPLES] + ["120-w21", "221-w41"],
)
def test_representatives_match_the_distance_walk(triple, half):
    """On every phase's items of the acceptance and wide inputs, and on
    those items with some repeated, _representatives returns what the walk
    over every item's distance and key returns."""
    t = validate_triple(*triple)
    window = Window(-half, half, -half, half)
    s = C._Session(t, window, 8)
    inner = window.inner_half()
    boxes = {"window": window, "inner": inner, "quarter": inner.inner_half()}
    for _, phase in s.mode.phases:
        items = phase.items(s, M.vertices_in_box(t, *boxes[phase.box].box))
        for case in (items, items + items[::3]):
            assert C._representatives(window, case, phase.key) == representatives_by_distance(window, case, phase.key)


def test_a_failing_representative_is_named(t120, monkeypatch):
    """A representative whose check fails fails its phase's record, which
    counts the representatives checked up to it and names it.  B' items
    that are no representative are never checked: only simple1 checks B'
    towers."""
    window = Window(-4, 4, -4, 4)
    items, _ = _class_members(t120, window, C._SIMPLE1)
    reps = C._representatives(window, items, C._SIMPLE1.key)
    bad = [inst for inst in reps if inst.kind == KIND_BP][1]
    others = {inst for inst in items if inst.kind == KIND_BP and inst not in reps}
    assert others
    real = C._Session.tower_check

    def tower_check(self, inst):
        assert inst not in others
        return inst != bad and real(self, inst)

    monkeypatch.setattr(C._Session, "tower_check", tower_check)
    cert = certify(t120, window, 2)
    (record,) = [c for c in cert.checks if c.lemma == "simple1"]
    assert not record.passed
    assert record.params["instances"] == reps.index(bad) + 1
    assert record.params["covers"] == len(items)
    assert record.detail == f"failed at {bad.params()}"
    assert [c.lemma for c in cert.checks if not c.passed] == ["simple1", "collapse_layers"]


def test_a_check_reaching_a_non_vertex_fails_its_item(t120, monkeypatch):
    """InvalidVertex from a check fails that item's phase, like False."""
    window = Window(-4, 4, -4, 4)
    items, _ = _class_members(t120, window, C._SIMPLE1)
    reps = C._representatives(window, items, C._SIMPLE1.key)
    bad = reps[len(reps) // 2]
    real = C._Session.tower_check

    def tower_check(self, inst):
        if inst == bad:
            raise InvalidVertex(f"not a vertex of the model: {inst}")
        return real(self, inst)

    monkeypatch.setattr(C._Session, "tower_check", tower_check)
    cert = certify(t120, window, 2)
    (record,) = [c for c in cert.checks if c.lemma == "simple1"]
    assert not record.passed
    assert record.detail == f"failed at {bad.params()}"
    assert [c.lemma for c in cert.checks if not c.passed] == ["simple1", "collapse_layers"]


@pytest.mark.parametrize("finite", [False, True])
def test_a_failed_phase_fails_collapse_layers(t110, t120, monkeypatch, finite):
    """collapse_layers passes only when every phase before it passed, in
    either mode."""
    if finite:
        t, check, lemma = t120, "c2_check", "c2simple"
    else:
        t, check, lemma = t110, "finite1_check", "inf_finite1"
    monkeypatch.setattr(C._Session, check, lambda self, v: False)
    checks = certify(t, W4, 2).to_json()["checks"]
    assert checks[-1]["lemma"] == "collapse_layers" and checks[-1]["pass"] is False
    assert [c["lemma"] for c in checks if not c["pass"]] == [lemma, "collapse_layers"]


def test_a_vertex_moved_off_the_translation_fails_translation(t120, monkeypatch):
    """One fan entry moved at one vertex, off every representative: the
    translation phase fails at the first window vertex whose translate is
    the moved one."""
    v = VertexId("X", 0, (3, 3))
    monkeypatch.setattr(M, "_fan_entries", moved_at_one_vertex(v, 0, "hi_x", -1))
    get_engine.cache_clear()
    try:
        cert = certify(t120, W4, 2)
    finally:
        monkeypatch.undo()
        get_engine.cache_clear()
    translation = cert.checks[0]
    assert translation.lemma == "translation" and not translation.passed
    assert translation.detail == "failed at X:0:(2,2)"
    n = len(M.vertices_in_box(t120, -4, 4, -4, 4))
    assert translation.params == {"window": [-4, 4, -4, 4], "vertices": n, "covers": n}


@pytest.mark.parametrize("broken", ["sink dropped", "corner vertex missing"])
def test_translation_check_rejects_a_broken_vertex(t120, monkeypatch, broken):
    """The translation check at a vertex fails when its translate has a
    sink map moved to zero, or when the vertex it is a translate of, on
    the window's corner, is no vertex; on the model it passes."""
    s = C._Session(t120, W4, 1)
    v = VertexId("X", 0, (-3, -3))
    corner = VertexId("X", 0, (-4, -4))
    assert s.translation_check(v) and s.translation_check(corner)
    real_valid, real_fans = M.vertex_valid, M._fan_entries
    if broken == "sink dropped":
        moved = VertexId("X", 0, (-2, -2))

        def fans(t, w):
            rec = real_fans(t, w)
            return rec._replace(sinks=(rec.sinks[0], ZERO)) if w == moved else rec

        monkeypatch.setattr(M, "_fan_entries", fans)
    else:
        monkeypatch.setattr(M, "vertex_valid", lambda t, w: w != corner and real_valid(t, w))
    assert not s.translation_check(v)


@pytest.mark.parametrize(
    "r,n,m,half,forms",
    [(1, 2, 0, 8, 33), (2, 3, 0, 8, 67), (1, 3, 2, 8, 34), (1, 1, 0, 8, 17), (2, 2, 0, 8, 34), (2, 2, 1, 8, 35),
     (1, 2, 0, 10, 41), (2, 2, 1, 20, 83)],
)
def test_translation_interns_one_normal_form_per_class(r, n, m, half, forms):
    """On the model, every window vertex of a translation class has the
    same normal form: the translation phase over the acceptance and wide
    windows interns one form per class."""
    t = validate_triple(r, n, m)
    s = C._Session(t, Window(-half, half, -half, half), 1)
    verts = M.vertices_in_box(t, *s.window.box)
    assert all(s.translation_check(v) for v in verts)
    assert len(s._forms) == len({C._vertex_class(v) for v in verts}) == forms


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES + ORBIT_TRIPLES)
def test_stats_count_the_translation_forms(r, n, m):
    """stats["caches"]["translation_forms"] of a certificate is the number
    of translation classes among the window's vertices."""
    t = validate_triple(r, n, m)
    cert = certify(t, W4, 2)
    classes = {C._vertex_class(v) for v in M.vertices_in_box(t, *W4.box)}
    assert cert.passed and cert.stats["caches"]["translation_forms"] == len(classes)


def test_stats_count_every_item_once(t120):
    """Per phase, stats give the representatives, the items they cover,
    the representatives checked and the seconds taken; each record's count
    param and covers are the same numbers."""
    cert = certify(t120, W4, 2)
    phases = cert.stats["phases"]
    assert [p["lemma"] for p in phases] == [c.lemma for c in cert.checks[:-1]]
    for p, record in zip(phases, cert.checks):
        assert 0 < p["checked"] == p["items"] <= p["covers"] == record.params["covers"]
        assert p["seconds"] >= 0
        assert record.params.get("vertices", record.params.get("instances", p["items"])) == p["items"]
    assert sum(p["items"] for p in phases[1:]) < sum(p["covers"] for p in phases[1:])
    assert "stats" not in cert.to_json()


def _cache_sizes_of_a_fresh_run(t):
    """stats["caches"] of certify(t, W4, 2) on a fresh engine, as a new
    kgcert process has, with the engine's own counts of its cubes and sink
    decisions."""
    get_engine.cache_clear()
    sizes = certify(t, W4, 2).stats["caches"]
    eng = get_engine(t, W4.box)
    return sizes, len(eng._entries), sum(image is not None for _, _, image in eng._entries.values())


# -- the same certificate in a fresh process ----------------------------------------
#
# certify runs in one process, but get_engine and model._fan_entries outlive
# a call, so a certificate made here may start from caches that earlier
# tests warmed.  The tests below also certify in a forked child that clears
# them first, as a new kgcert process starts, and compare its reply with
# this process's run.  Checks patched on the class are inherited by the
# child.


def _in_a_child(run):
    """run() in a forked child with cold caches: ["ok", its value] or
    ["raised", the message of the RuntimeError it raised], through JSON."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never return into pytest
        code = 1
        try:
            os.close(r)
            get_engine.cache_clear()
            getattr(M._fan_entries, "cache_clear", lambda: None)()
            try:
                reply = ["ok", run()]
            except RuntimeError as exc:
                reply = ["raised", str(exc)]
            with os.fdopen(w, "w") as fh:
                fh.write(json.dumps(reply))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return json.loads(text)


def _outcome(t, window=W4, depth=2):
    """The certificate's bytes, or the message of the RuntimeError raised."""
    try:
        return ["ok", certify(t, window, depth).to_json_text()]
    except RuntimeError as exc:
        return ["raised", str(exc)]


def _certify_here_and_in_a_child(t, window=W4, depth=2):
    """certify here and in a fresh child: the same bytes.  Returns this
    process's certificate."""
    cert = certify(t, window, depth)
    assert _in_a_child(lambda: certify(t, window, depth).to_json_text()) == ["ok", cert.to_json_text()]
    return cert


def _bp_representatives(t):
    """The simple1 representatives at W4, and the indices of the B' ones
    at even and at odd x.  No other phase checks a B' tower."""
    items, _ = _class_members(t, W4, C._SIMPLE1)
    reps = C._representatives(W4, items, C._SIMPLE1.key)
    bp = [k for k, inst in enumerate(reps) if inst.kind == KIND_BP]
    even = [k for k in bp if reps[k].coord[0] % 2 == 0]
    odd = [k for k in bp if reps[k].coord[0] % 2 == 1]
    return reps, even, odd


def _patch_towers(monkeypatch, act):
    """Route tower_check through act(inst, real) for the B' instances."""
    real = C._Session.tower_check

    def tower_check(self, inst):
        run = lambda: real(self, inst)  # noqa: E731
        return act(inst, run) if inst.kind == KIND_BP else run()

    monkeypatch.setattr(C._Session, "tower_check", tower_check)


def _chosen(even, odd, where):
    """Indices of the representatives to break, named after the two shares
    by x parity that an earlier two-process certify split them into: one
    at odd x (the helper's), one at even x (the parent's), or one of each
    with the named one first in item order."""
    o = odd[len(odd) // 2]
    e = even[len(even) // 2]
    return {
        "helper": [o],
        "parent": [e],
        "both, helper first": [o, next(k for k in even if k > o)],
        "both, parent first": [e, next(k for k in odd if k > e)],
    }[where]


@pytest.mark.parametrize("r,n,m", ACCEPTANCE_TRIPLES)
def test_split_and_serial_certificates_have_the_same_bytes(r, n, m):
    """A certificate made in a fresh child has the pinned bytes of the one
    made here on warm caches, on a window whose centre is no lattice
    point."""
    cert = _certify_here_and_in_a_child(validate_triple(r, n, m), Window(-5, 6, -4, 7), 5)
    assert hashlib.sha256(cert.to_json_text().encode()).hexdigest() == OFFSET_WINDOW_SHA256[(r, n, m)]


@pytest.mark.parametrize("r,n,m", ORBIT_TRIPLES)
def test_orbit_triples_certify_pinned_in_one_and_two_processes(r, n, m):
    """With r >= 3 a sign error in an orbit offset shows; the certificates
    pass with the same, pinned bytes here and in a fresh child."""
    cert = _certify_here_and_in_a_child(validate_triple(r, n, m), W4, 4)
    assert cert.passed
    assert hashlib.sha256(cert.to_json_text().encode()).hexdigest() == ORBIT_SHA256[(r, n, m)]


@pytest.mark.parametrize("where", ["helper", "parent", "both, helper first", "both, parent first"])
def test_split_records_the_serial_first_failure(t120, monkeypatch, where):
    """Whichever representatives fail, the simple1 record counts the
    representatives up to the first of them in item order and names it,
    here and in a fresh child alike."""
    reps, even, odd = _bp_representatives(t120)
    bad = _chosen(even, odd, where)
    broken = {reps[k] for k in bad}
    _patch_towers(monkeypatch, lambda inst, run: False if inst in broken else run())
    cert = _certify_here_and_in_a_child(t120)
    (record,) = [c for c in cert.checks if c.lemma == "simple1"]
    assert not record.passed
    assert record.params["instances"] == min(bad) + 1
    assert record.detail == f"failed at {reps[min(bad)].params()}"
    assert [c.lemma for c in cert.checks if not c.passed] == ["simple1", "collapse_layers"]


def _fails_first_at(t, lemma, expected, window=W4):
    """certify here and in a fresh child: the same bytes, and the lemma's
    record failed at expected (an item), the first failure."""
    cert = _certify_here_and_in_a_child(t, window)
    (record,) = [c for c in cert.checks if c.lemma == lemma]
    witness = expected.params() if lemma == "simple1" else expected
    assert not record.passed and record.detail == f"failed at {witness}"


@pytest.mark.parametrize("parity", [0, 1], ids=["even y", "odd y"])
def test_split_keeps_a_failing_finite1_step_in_one_share(t120, monkeypatch, parity):
    """A finite1 step that fails fails every vertex whose chain runs through
    it: those at its y and left of it, which the y shares of an earlier
    two-process certify kept together.  The finite1 record names the first
    representative on that row, here and in a fresh child."""
    items, _ = _class_members(t120, W4, C._FINITE1)
    reps = C._representatives(W4, items, C._FINITE1.key)
    bad = [v for v in reps if v.family == "X" and v.coord[1] % 2 == parity][-1]
    real = C._Session._finite1_step
    monkeypatch.setattr(C._Session, "_finite1_step", lambda self, w, at_border: w != bad and real(self, w, at_border))
    first = next(v for v in reps if (v.family, v.orbit, v.coord[1]) == (bad.family, bad.orbit, bad.coord[1]))
    _fails_first_at(t120, "finite1", first)


@pytest.mark.parametrize("parity", [0, 1], ids=["even y", "odd y"])
def test_split_keeps_a_failing_cpp_tower_step_in_one_share(t120, monkeypatch, parity):
    """A C'' tower step that fails fails every simple1 C'' tower through it,
    which climb along x at its y.  The C'' representatives sit on the
    window centre's row, so a window centred at even or at odd y puts the
    failing step there.  The simple1 record names the first representative
    whose tower runs through it, here and in a fresh child."""
    window = Window(-4, 4, -4 + parity, 4 + parity)
    items, _ = _class_members(t120, window, C._SIMPLE1)
    reps = C._representatives(window, items, C._SIMPLE1.key)
    cpp = [inst for inst in reps if inst.kind == KIND_CPP and inst.coord[1] % 2 == parity]
    bad = cpp[len(cpp) // 2]
    real = C._Session._tower_step

    def tower_step(self, here, nxt):
        return here != bad and real(self, here, nxt)

    monkeypatch.setattr(C._Session, "_tower_step", tower_step)
    first = next(
        inst for inst in reps
        if inst._replace(coord=(0, 0)) == bad._replace(coord=(0, 0)) and inst.coord[1] == bad.coord[1]
        and bad.coord[0] - 2 <= inst.coord[0] <= bad.coord[0]
    )
    _fails_first_at(t120, "simple1", first, window)


@pytest.mark.parametrize(
    "where", ["helper", "parent", "both, helper first", "both, parent first", "helper, after a failure"]
)
def test_split_raises_the_serial_exception(t120, monkeypatch, where):
    """An exception that is no KgcertError leaves certify from the first
    representative that raises it.  A representative that fails before it
    ends the phase, so the one that would raise is never checked.  A
    fresh child gives the same outcome."""
    reps, even, odd = _bp_representatives(t120)
    failing = set()
    if where == "helper, after a failure":
        e = even[0]
        failing = {reps[e]}
        raising = {reps[next(k for k in odd if k > e)]}
    else:
        raising = {reps[k] for k in _chosen(even, odd, where)}

    def act(inst, run):
        if inst in raising:
            raise RuntimeError(f"boom at {inst}")
        return False if inst in failing else run()

    _patch_towers(monkeypatch, act)
    outcome = _outcome(t120)
    assert _in_a_child(lambda: _outcome(t120)) == ["ok", outcome]
    if failing:
        assert outcome[0] == "ok"
        cert = json.loads(outcome[1])
        assert [c["lemma"] for c in cert["checks"] if not c["pass"]] == ["simple1", "collapse_layers"]
    else:
        first = min(reps.index(inst) for inst in raising)
        assert outcome == ["raised", f"boom at {reps[first]}"]


def _condition(monkeypatch, name):
    """Make one condition fail that an earlier certify read to decide
    whether to fork a helper."""
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
    """certify forks no helper: with fork, two CPUs and one thread, and with
    any one of them missing, it checks every phase in this process and
    gives the same bytes."""
    expected = certify(t110, W4, 2).to_json_text()
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or -1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    _condition(monkeypatch, name)
    cert = certify(t110, W4, 2)
    assert cert.passed and cert.to_json_text() == expected
    assert forks == []


def test_a_running_thread_keeps_certify_in_one_process(t110, monkeypatch):
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or -1)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(30,))
    thread.start()
    try:
        cert = certify(t110, W4, 2)
    finally:
        done.set()
        thread.join(30)
    assert not thread.is_alive()
    assert cert.passed and forks == []


@pytest.mark.parametrize("split", [False, True], ids=["one process", "two"])
def test_stats_give_the_cache_sizes_of_each_process(t120, split):
    """The sizes of the four session caches and the engine's two caches, one
    set for the one process that certifies; every one is in use on a
    passing run.  A fresh child reports the same sizes as a fresh engine
    here."""
    sizes, cubes, decisions = _cache_sizes_of_a_fresh_run(t120)
    if split:
        reply = _in_a_child(lambda: _cache_sizes_of_a_fresh_run(t120))
        assert reply == ["ok", [sizes, cubes, decisions]]
    assert list(sizes) == list(C._CACHES)
    assert all(type(n) is int and n > 0 for n in sizes.values()), sizes
    assert sizes["engine_cubes"] == cubes
    assert sizes["sink_decisions"] == decisions
    assert sizes["sink_decisions"] <= sizes["engine_cubes"]


def _cache_sizes_ok(caches):
    """What a reader of the stats may rely on: a dict from the names in
    _CACHES, in that order, to non-negative ints."""
    return (
        isinstance(caches, dict) and list(caches) == list(C._CACHES)
        and all(type(n) is int and n >= 0 for n in caches.values())
    )


def _stats_of_the_command(t, path):
    """`kgcert certify --stats path` at W4, depth 2, read back."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["certify", "--r", str(t.r), "--n", str(t.n), "--m", str(t.m),
                         "--window", "-4", "4", "-4", "4", "--depth", "2", "--stats", str(path)])
    assert code == 0
    return json.loads(path.read_text())


_SIZES = dict.fromkeys(C._CACHES, 3)


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
def test_helper_reply_with_bad_cache_sizes_is_rejected(t110, tmp_path, caches):
    """A fresh child, the helper, runs `kgcert certify --stats` and replies
    with the stats it wrote: the same as this process writes, with cache
    sizes that pass the rule above.  The same reply with the named defect
    in its cache sizes fails the rule."""
    get_engine.cache_clear()  # an engine as fresh as the child's
    stats = _stats_of_the_command(t110, tmp_path / "here.json")
    reply = _in_a_child(lambda: _stats_of_the_command(t110, tmp_path / "child.json"))
    assert reply[0] == "ok"
    assert [p["lemma"] for p in reply[1]["phases"]] == [p["lemma"] for p in stats["phases"]]
    assert reply[1]["caches"] == stats["caches"]
    assert _cache_sizes_ok(reply[1]["caches"]) and _cache_sizes_ok(_SIZES)
    assert not _cache_sizes_ok(caches)
