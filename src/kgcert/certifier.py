"""Distinguished quotient functors and machine-checked replays of the
case analyses behind the dimension theorem.

The certifier builds, for a triple, the simple quotients attached to
Auslander-Reiten sink maps (``build_simple0``), the four finite-mode kinds of
simple-modulo-finite quotients plus the one infinite-mode kind
(``build_simple1``), and replays each proof step as window-quantified
evidence:

* towers: the short exact sequences linking an instance to its coordinate
  shift with a sink-map simple as quotient;
* case analyses: for every arrow out of the top inside the window, either a
  symbolic factorisation through a denominator generator (checked as a
  region containment, so it covers all targets at once) or a chain exact
  sequence (checked as a kernel sweep);
* filtration chains: the border-terminating inductions that place
  representables in the first or second filtration layer, with the
  infinite-support layers decided exactly by symbolic regions.

Infinite constructions are verified to a configurable depth, with the
per-layer infinitude decided exactly; the certificate records window, depth
and every check outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import functors, model, regions
from .engine import WindowEngine, get_engine
from .errors import (
    InvalidVertex,
    ModeMismatch,
    ParameterRange,
    WrongFamily,
)
from .functors import FpFunctor, Subfunctor, Window
from .model import (
    FAMILY_X,
    FAMILY_Y,
    FAMILY_Z,
    IdentityMorphism,
    VertexId,
    ZeroMorphism,
)
from .presentation import GentleTriple

KIND_BP = "B'"
KIND_BPP = "B''"
KIND_CP = "C'"
KIND_CPP = "C''"
KIND_B_INF = "B"

_FINITE_KINDS = (KIND_BP, KIND_BPP, KIND_CP, KIND_CPP)


class Simple1Instance(NamedTuple):
    """One instance of a simple-modulo-finite quotient lemma; a NamedTuple
    value like those of :mod:`kgcert.model`, since the tower memo is keyed
    by it."""

    kind: str
    orbit: int
    coord: tuple
    aux: int

    def params(self) -> dict:
        return {
            "kind": self.kind,
            "orbit": self.orbit,
            "coord": list(self.coord),
            "aux": self.aux,
        }


@dataclass
class CheckRecord:
    lemma: str
    params: dict
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "params": self.params,
            "pass": self.passed,
            "detail": self.detail,
        }


@dataclass
class Certificate:
    triple: GentleTriple
    kg: int
    window: Window
    depth: int
    checks: list = field(default_factory=list)
    verdict: str = "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "triple": {"r": self.triple.r, "n": self.triple.n, "m": self.triple.m},
            "kg": self.kg,
            "window": list(self.window.box),
            "depth": self.depth,
            "checks": [c.to_json() for c in self.checks],
            "verdict": self.verdict,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# -- builders ----------------------------------------------------------------


def build_simple0(t: GentleTriple, v: VertexId) -> FpFunctor:
    """Quotient of Hom(v, -) by the images of the two sink maps; the simple
    object attached to the Auslander-Reiten triangle ending at v."""
    if not model.vertex_valid(t, v):
        raise InvalidVertex(f"not a vertex of the model: {v}")
    return FpFunctor(v, Subfunctor(v, model.ar_sink_maps(t, v)))


def _delta(i: int, j: int) -> int:
    return 1 if i == j else 0


def build_simple1(
    t: GentleTriple, kind: str, orbit: int, coord: tuple, aux: int
) -> FpFunctor:
    """One of the simple-modulo-finite quotients, by kind.

    Finite mode: B' at an X-vertex (aux in Z), B'' at a Y-vertex (aux in Z),
    C' at a Z-vertex (aux <= a + [i=last] m + 1), C'' at a Z-vertex
    (aux <= b - [i=last] n + 1).  Infinite mode: B at an X-vertex
    (aux <= a + [i=last] m).  Out-of-region second generators degenerate to
    the zero morphism, per the zero-map convention.
    """
    a, b = coord
    R = t.orbit_count
    nxt = (orbit + 1) % R
    dlast = _delta(orbit, R - 1)
    if kind == KIND_B_INF:
        if t.is_finite_mode:
            raise ModeMismatch("kind B exists only when r == n")
        top = VertexId(FAMILY_X, orbit, coord)
        if not model.vertex_valid(t, top):
            raise InvalidVertex(f"not a vertex of the model: {top}")
        if aux > a + dlast * t.m:
            raise ParameterRange(
                f"aux must be <= {a + dlast * t.m} for B at {top}, got {aux}"
            )
        gens = (
            model.arrow_or_zero(t, top, VertexId(FAMILY_X, orbit, (a + 1, b)), 0),
            model.arrow_or_zero(t, top, VertexId(FAMILY_X, nxt, (aux, a)), 1),
        )
        return FpFunctor(top, Subfunctor(top, gens))
    if not t.is_finite_mode:
        raise ModeMismatch(f"kind {kind} exists only when r < n")
    if kind == KIND_BP:
        top = VertexId(FAMILY_X, orbit, coord)
        if not model.vertex_valid(t, top):
            raise InvalidVertex(f"not a vertex of the model: {top}")
        gens = (
            model.arrow_or_zero(t, top, VertexId(FAMILY_X, orbit, (a + 1, b)), 0),
            model.arrow_or_zero(t, top, VertexId(FAMILY_Z, orbit, (a, aux)), 1),
        )
    elif kind == KIND_BPP:
        top = VertexId(FAMILY_Y, orbit, coord)
        if not model.vertex_valid(t, top):
            raise InvalidVertex(f"not a vertex of the model: {top}")
        gens = (
            model.arrow_or_zero(t, top, VertexId(FAMILY_Y, orbit, (a + 1, b)), 0),
            model.arrow_or_zero(t, top, VertexId(FAMILY_Z, orbit, (aux, a)), 1),
        )
    elif kind == KIND_CP:
        top = VertexId(FAMILY_Z, orbit, coord)
        if not model.vertex_valid(t, top):
            raise InvalidVertex(f"not a vertex of the model: {top}")
        if aux > a + dlast * t.m + 1:
            raise ParameterRange(
                f"aux must be <= {a + dlast * t.m + 1} for C' at {top}, got {aux}"
            )
        gens = (
            model.arrow_or_zero(t, top, VertexId(FAMILY_Z, orbit, (a + 1, b)), 0),
            model.arrow_or_zero(t, top, VertexId(FAMILY_X, nxt, (aux, a)), 1),
        )
    elif kind == KIND_CPP:
        top = VertexId(FAMILY_Z, orbit, coord)
        if not model.vertex_valid(t, top):
            raise InvalidVertex(f"not a vertex of the model: {top}")
        if aux > b - dlast * t.n + 1:
            raise ParameterRange(
                f"aux must be <= {b - dlast * t.n + 1} for C'' at {top}, got {aux}"
            )
        gens = (
            model.arrow_or_zero(t, top, VertexId(FAMILY_Z, orbit, (a, b + 1)), 0),
            model.arrow_or_zero(t, top, VertexId(FAMILY_Y, nxt, (aux, b)), 1),
        )
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return FpFunctor(top, Subfunctor(top, gens))


def instance_functor(t: GentleTriple, inst: Simple1Instance) -> FpFunctor:
    return build_simple1(t, inst.kind, inst.orbit, inst.coord, inst.aux)


# -- per-kind replay geometry -------------------------------------------------
#
# For each kind: the tower shifts the top by `tower_shift` and quotients by
# the sink-map simple at the top.  The case analysis walks the arrow fan of
# the top; per fan entry the rule is either a factorisation through one of
# the two generators (symbolic region containment) or a split into a
# factorisation half and a chain of kernel sweeps along a line.


def _kind_geometry(kind: str) -> tuple:
    """Coordinate shift along which the instance's tower ascends: the
    direction not struck out by the first denominator generator."""
    if kind in (KIND_BP, KIND_BPP, KIND_CP):
        return (0, 1)
    if kind == KIND_CPP:
        return (1, 0)
    if kind == KIND_B_INF:
        return (0, 1)
    raise ValueError(f"unknown kind {kind!r}")


class _Session:
    """Shared engine, caches and record sink for one certification run."""

    def __init__(self, t: GentleTriple, window: Window, depth: int):
        self.t = t
        self.window = window
        self.depth = depth
        self.eng: WindowEngine = get_engine(t, window.box)
        self.records: list = []
        self._tower_cache: dict = {}
        self._tower_step_cache: dict = {}
        self._finite1_cache: dict = {}

    def record(self, lemma: str, params: dict, passed: bool, detail: str = "") -> bool:
        self.records.append(CheckRecord(lemma, params, passed, detail))
        return passed

    # -- small helpers ------------------------------------------------------

    def _sinks(self, v: VertexId):
        return model.ar_sink_maps(self.t, v)

    def _arrow(self, src: VertexId, family: str, orbit: int, coord: tuple, deg: int):
        return model.arrow_or_zero(
            self.t, src, VertexId(family, orbit, coord), deg
        )

    def _chain_u(self, top: VertexId, family: str, orbit: int, coord: tuple, deg: int):
        """Basis morphism top -> coord used as the epi of a chain step; the
        identity when the coordinate is the top itself."""
        if coord == top.coord and (family, orbit) == (top.family, top.orbit) and deg == 0:
            return IdentityMorphism(top)
        return self._arrow(top, family, orbit, coord, deg)

    def _factors_region(self, split_region, gen, entry) -> bool:
        """True iff every basis arrow from the top into split_region (within
        the fan entry's channel and degree) factors through gen.

        Symbolic: the residual arrow out of gen's target T must exist, i.e.
        the split region must be contained in the matching fan region of T.
        T's own point is reached through its identity rather than a basis
        arrow, and it always lies in T's own degree-0 fan region (T is a
        valid vertex), so one closed-form containment decides the check.
        Monomial uniqueness then forces the composite to equal the arrow.
        """
        if isinstance(gen, ZeroMorphism):
            return regions.close(split_region) is regions.EMPTY
        T = gen.dst
        phi_deg = entry.degree - gen.degree
        if phi_deg < 0:
            return regions.close(split_region) is regions.EMPTY
        eT = model.arrow_fan(self.t, T).channels.get((entry.family, entry.orbit, phi_deg))
        return regions.contains(regions.EMPTY if eT is None else eT.region, split_region)

    def _chain_targets(self, line_region, window_region, cap_anchor=None, cap=None):
        """Window points of a one-dimensional chain region, optionally capped
        to within `cap` steps of the anchor coordinate sum."""
        pts = regions.enumerate_points(line_region, window_region)
        if cap is not None and cap_anchor is not None:
            ax, ay = cap_anchor
            pts = [p for p in pts if abs(p[0] - ax) + abs(p[1] - ay) <= cap]
        return pts

    # -- tower + case analysis ----------------------------------------------

    def tower_check(self, inst: Simple1Instance, length: int, chain_cap=None) -> bool:
        key = (inst, length, chain_cap)
        hit = self._tower_cache.get(key)
        if hit is not None:
            return hit
        ok = self._tower_sequences(inst, length) and self._case_analysis(
            inst, chain_cap
        )
        self._tower_cache[key] = ok
        return ok

    def _tower_sequences(self, inst: Simple1Instance, length: int) -> bool:
        """Exact sequences 0 -> inst@(coord+(l+1)s) -> inst@(coord+l s) -> A -> 0."""
        sx, sy = _kind_geometry(inst.kind)
        a, b = inst.coord
        # Towers at neighbouring coordinates share all but one of their steps.
        memo = self._tower_step_cache
        for step in range(length + 1):
            here = Simple1Instance(inst.kind, inst.orbit, (a + step * sx, b + step * sy), inst.aux)
            ok = memo.get(here)
            if ok is None:
                ok = memo[here] = self._tower_step(here)
            if not ok:
                return False
        return True

    def _tower_step(self, here: Simple1Instance) -> bool:
        """The exact sequence 0 -> here@(coord+s) -> here -> A -> 0."""
        t = self.t
        sx, sy = _kind_geometry(here.kind)
        nxt_coord = (here.coord[0] + sx, here.coord[1] + sy)
        sub = instance_functor(t, Simple1Instance(here.kind, here.orbit, nxt_coord, here.aux))
        mid = instance_functor(t, here)
        top = mid.top
        u = self._arrow(top, top.family, top.orbit, nxt_coord, 0)
        if isinstance(u, ZeroMorphism):
            return False  # tower shift must stay inside the index set
        quot = build_simple0(t, top)
        return self.eng.ses_foreign(
            top,
            u,
            sub.top,
            sub.denominators.generators,
            mid.denominators.generators,
            quot.denominators.generators,
        )

    def _case_analysis(self, inst: Simple1Instance, chain_cap=None) -> bool:
        """Every arrow out of the top is either absorbed (factors through a
        generator, hence lands in the denominator) or sits in a chain whose
        steps are sink-map simples; chains are swept inside the window."""
        t = self.t
        F = instance_functor(t, inst)
        top = F.top
        gen_f, gen_g = F.denominators.generators
        a, b = top.coord
        wreg = self.window.region()
        dgens = F.denominators.generators
        entries = model.arrow_fan(t, top).channels
        kind = inst.kind
        R = t.orbit_count
        nxt = (inst.orbit + 1) % R

        def factor(entry, split, gen) -> bool:
            return self._factors_region(split, gen, entry)

        def chain(entry, line, u_coord_of, mod_coord_of, sink_vertex_of) -> bool:
            for p in self._chain_targets(line, wreg, cap_anchor=top.coord, cap=chain_cap):
                u = self._chain_u(top, entry.family, entry.orbit, u_coord_of(p), entry.degree)
                if isinstance(u, ZeroMorphism):
                    return False
                extra = self._arrow(top, entry.family, entry.orbit, mod_coord_of(p), entry.degree)
                sinkv = sink_vertex_of(p)
                if not model.vertex_valid(t, sinkv):
                    return False
                if not self.eng.kernel_matches(
                    top, u, tuple(dgens) + (extra,), self._sinks(sinkv)
                ):
                    return False
            return True

        ok = True
        if kind in (KIND_BP, KIND_BPP):
            fam0 = FAMILY_X if kind == KIND_BP else FAMILY_Y
            e0 = entries[(fam0, inst.orbit, 0)]
            # degree 0: x > a factors through the x-shift generator; x == a is
            # the chain raising y with sink-map simples as layers.
            ok &= factor(e0, regions.intersect(e0.region, regions.Region(lo_x=a + 1)), gen_f)
            line0 = regions.intersect(e0.region, regions.Region(lo_x=a, hi_x=a, lo_y=b + 1))
            ok &= chain(
                e0,
                line0,
                lambda p: (a, p[1] - 1),
                lambda p: p,
                lambda p: VertexId(fam0, inst.orbit, (a, p[1] - 1)),
            )
            e1 = entries[(FAMILY_Z, inst.orbit, 1)]
            if kind == KIND_BP:
                ok &= factor(e1, regions.intersect(e1.region, regions.Region(lo_x=a + 1)), gen_f)
                ok &= factor(
                    e1,
                    regions.intersect(e1.region, regions.Region(lo_x=a, hi_x=a, lo_y=inst.aux)),
                    gen_g,
                )
                line1 = regions.intersect(
                    e1.region, regions.Region(lo_x=a, hi_x=a, hi_y=inst.aux - 1)
                )
                ok &= chain(
                    e1,
                    line1,
                    lambda p: p,
                    lambda p: (a, p[1] + 1),
                    lambda p: VertexId(FAMILY_Z, inst.orbit, p),
                )
            else:
                ok &= factor(e1, regions.intersect(e1.region, regions.Region(lo_y=a + 1)), gen_f)
                ok &= factor(
                    e1,
                    regions.intersect(e1.region, regions.Region(lo_y=a, hi_y=a, lo_x=inst.aux)),
                    gen_g,
                )
                line1 = regions.intersect(
                    e1.region, regions.Region(lo_y=a, hi_y=a, hi_x=inst.aux - 1)
                )
                ok &= chain(
                    e1,
                    line1,
                    lambda p: p,
                    lambda p: (p[0] + 1, a),
                    lambda p: VertexId(FAMILY_Z, inst.orbit, p),
                )
            fam2 = FAMILY_X if kind == KIND_BP else FAMILY_Y
            e2 = entries[(fam2, nxt, 2)]
            ok &= factor(e2, e2.region, gen_g)
        elif kind == KIND_CP:
            e0 = entries[(FAMILY_Z, inst.orbit, 0)]
            ok &= factor(e0, regions.intersect(e0.region, regions.Region(lo_x=a + 1)), gen_f)
            line0 = regions.intersect(e0.region, regions.Region(lo_x=a, hi_x=a, lo_y=b + 1))
            ok &= chain(
                e0,
                line0,
                lambda p: (a, p[1] - 1),
                lambda p: p,
                lambda p: VertexId(FAMILY_Z, inst.orbit, (a, p[1] - 1)),
            )
            ex = entries[(FAMILY_X, nxt, 1)]
            ok &= factor(ex, regions.intersect(ex.region, regions.Region(lo_y=a + 1)), gen_f)
            ok &= factor(
                ex,
                regions.intersect(ex.region, regions.Region(lo_y=a, hi_y=a, lo_x=inst.aux)),
                gen_g,
            )
            linex = regions.intersect(
                ex.region, regions.Region(lo_y=a, hi_y=a, hi_x=inst.aux - 1)
            )
            ok &= chain(
                ex,
                linex,
                lambda p: p,
                lambda p: (p[0] + 1, a),
                lambda p: VertexId(FAMILY_X, nxt, p),
            )
            ey = entries[(FAMILY_Y, nxt, 1)]
            ok &= factor(ey, ey.region, gen_f)
            e2 = entries[(FAMILY_Z, nxt, 2)]
            ok &= factor(e2, e2.region, gen_f)
        elif kind == KIND_CPP:
            e0 = entries[(FAMILY_Z, inst.orbit, 0)]
            ok &= factor(e0, regions.intersect(e0.region, regions.Region(lo_y=b + 1)), gen_f)
            line0 = regions.intersect(e0.region, regions.Region(lo_y=b, hi_y=b, lo_x=a + 1))
            ok &= chain(
                e0,
                line0,
                lambda p: (p[0] - 1, b),
                lambda p: p,
                lambda p: VertexId(FAMILY_Z, inst.orbit, (p[0] - 1, b)),
            )
            ex = entries[(FAMILY_X, nxt, 1)]
            ok &= factor(ex, ex.region, gen_f)
            ey = entries[(FAMILY_Y, nxt, 1)]
            ok &= factor(ey, regions.intersect(ey.region, regions.Region(lo_y=b + 1)), gen_f)
            ok &= factor(
                ey,
                regions.intersect(ey.region, regions.Region(lo_y=b, hi_y=b, lo_x=inst.aux)),
                gen_g,
            )
            liney = regions.intersect(
                ey.region, regions.Region(lo_y=b, hi_y=b, hi_x=inst.aux - 1)
            )
            ok &= chain(
                ey,
                liney,
                lambda p: p,
                lambda p: (p[0] + 1, b),
                lambda p: VertexId(FAMILY_Y, nxt, p),
            )
            e2 = entries[(FAMILY_Z, nxt, 2)]
            ok &= factor(e2, e2.region, gen_f)
        elif kind == KIND_B_INF:
            e0 = entries[(FAMILY_X, inst.orbit, 0)]
            ok &= factor(e0, regions.intersect(e0.region, regions.Region(lo_x=a + 1)), gen_f)
            line0 = regions.intersect(e0.region, regions.Region(lo_x=a, hi_x=a, lo_y=b + 1))
            ok &= chain(
                e0,
                line0,
                lambda p: (a, p[1] - 1),
                lambda p: p,
                lambda p: VertexId(FAMILY_X, inst.orbit, (a, p[1] - 1)),
            )
            e1 = entries[(FAMILY_X, nxt, 1)]
            ok &= factor(e1, regions.intersect(e1.region, regions.Region(lo_y=a + 1)), gen_f)
            ok &= factor(
                e1,
                regions.intersect(e1.region, regions.Region(lo_y=a, hi_y=a, lo_x=inst.aux)),
                gen_g,
            )
            line1 = regions.intersect(
                e1.region, regions.Region(lo_y=a, hi_y=a, hi_x=inst.aux - 1)
            )
            ok &= chain(
                e1,
                line1,
                lambda p: p,
                lambda p: (p[0] + 1, a),
                lambda p: VertexId(FAMILY_X, nxt, p),
            )
        else:
            raise ValueError(f"unknown kind {kind!r}")
        return bool(ok)

    # -- simple objects -------------------------------------------------------

    def simple0_check(self, v: VertexId) -> tuple:
        """dim A_v = 1 at v and 0 elsewhere in the window; returns
        (passed, skipped_top)."""
        eng = self.eng
        A = build_simple0(self.t, v)
        dims = eng.dims_cube(v, A.denominators.generators)
        want = np.zeros_like(dims)
        skipped = not self.window.contains(v.coord)
        if not skipped:
            ix, iy = eng.point_index(v.coord)
            want[eng.chan_index[(v.family, v.orbit)], ix, iy] = 1
        valid = eng.valid_masks()
        return (bool(np.array_equal(dims[valid], want[valid])), skipped)

    # -- finite-length chains ---------------------------------------------------

    def finite1_check(self, v: VertexId) -> bool:
        """Replay of the border-terminating induction placing Hom(v, -) in the
        first filtration layer; memoised per vertex."""
        t = self.t
        if t.is_finite_mode:
            if v.family not in (FAMILY_X, FAMILY_Y):
                raise WrongFamily(f"finite-length chain applies to X/Y vertices, got {v}")
        else:
            if v.family != FAMILY_X:
                raise WrongFamily(f"finite-length chain applies to X vertices, got {v}")
        if not model.vertex_valid(t, v):
            raise InvalidVertex(f"not a vertex of the model: {v}")
        hit = self._finite1_cache.get(v)
        if hit is not None:
            return hit
        a, b = v.coord
        i = v.orbit
        d0 = _delta(i, 0)
        if t.is_finite_mode:
            border = b + d0 * t.m if v.family == FAMILY_X else b - d0 * t.n
        else:
            border = b + d0 * t.m
        ok = True
        for c in range(border, a - 1, -1):
            w = VertexId(v.family, i, (c, b))
            cached = self._finite1_cache.get(w)
            if cached is not None:
                ok = cached
                continue
            step_ok = (
                self._finite1_step_finite(w, c, border)
                if t.is_finite_mode
                else self._finite1_step_infinite(w, c, border)
            )
            ok = ok and step_ok
            self._finite1_cache[w] = ok
        self._finite1_cache[v] = ok
        return ok

    def _finite1_step_finite(self, w: VertexId, c: int, border: int) -> bool:
        """One induction step: 0 -> C-object -> H_w / <x-shift image> -> B-object -> 0,
        via the degree-1 map to the reference column/row; at the border the
        x-shift is zero and the middle is the full representable."""
        t = self.t
        i = w.orbit
        dlast = _delta(i, t.orbit_count - 1)
        b = w.coord[1]
        mid_gen = self._arrow(w, w.family, i, (c + 1, b), 0)
        if c == border and not isinstance(mid_gen, ZeroMorphism):
            return False  # border step must have zero shift
        if c < border and isinstance(mid_gen, ZeroMorphism):
            return False
        if w.family == FAMILY_X:
            u = self._arrow(w, FAMILY_Z, i, (c, 0), 1)
            sub = build_simple1(t, KIND_CP, i, (c, 0), c + dlast * t.m + 1)
            quot = build_simple1(t, KIND_BP, i, (c, b), 0)
        else:
            u = self._arrow(w, FAMILY_Z, i, (0, c), 1)
            sub = build_simple1(t, KIND_CPP, i, (0, c), c - dlast * t.n + 1)
            quot = build_simple1(t, KIND_BPP, i, (c, b), 0)
        if isinstance(u, ZeroMorphism):
            return False
        return self.eng.ses_foreign(
            w,
            u,
            sub.top,
            sub.denominators.generators,
            (mid_gen,),
            quot.denominators.generators,
        )

    def _finite1_step_infinite(self, w: VertexId, c: int, border: int) -> bool:
        """One induction step in the one-family model: the quotient by the
        x-shift image is an extension of a B-object by a sub with finite
        symbolic support."""
        t = self.t
        i = w.orbit
        dlast = _delta(i, t.orbit_count - 1)
        b = w.coord[1]
        beta = c + dlast * t.m
        mid_gen = self._arrow(w, w.family, i, (c + 1, b), 0)
        if (c == border) != isinstance(mid_gen, ZeroMorphism):
            return False
        try:
            quot = build_simple1(t, KIND_B_INF, i, (c, b), beta)
        except ParameterRange:
            return False
        e_gen = quot.denominators.generators[1]
        if isinstance(e_gen, ZeroMorphism):
            return False
        # Layer between the B-quotient and the x-shift image must vanish in
        # the finite-length layer: decided exactly on symbolic regions.
        gap = functors.quotient_support(
            t,
            Subfunctor(w, (mid_gen, e_gen)),
            Subfunctor(w, (mid_gen,)),
        )
        return all(rs.is_finite() for rs in gap.values())

    # -- the Z-vertex lemmas ------------------------------------------------------

    def nonsimple1_check(self, v: VertexId, K: int, tower_len=None, chain_cap=None) -> bool:
        """The strictly descending image chain out of a Z-vertex: K+1 layer
        sequences, each layer a C'-instance with exactly-infinite support that
        passes its own simplicity tower."""
        t = self.t
        if not t.is_finite_mode:
            raise ModeMismatch("the descending-chain lemma needs r < n")
        if v.family != FAMILY_Z:
            raise WrongFamily(f"expected a Z-vertex, got {v}")
        if K < 1:
            raise ValueError("chain depth K must be >= 1")
        a, b = v.coord
        i = v.orbit
        dlast = _delta(i, t.orbit_count - 1)
        aux = a + dlast * t.m + 1
        L = self.depth if tower_len is None else tower_len
        for step in range(K + 1):
            u = self._chain_u(v, FAMILY_Z, i, (a + step, b), 0)
            nxt_gen = self._arrow(v, FAMILY_Z, i, (a + step + 1, b), 0)
            if isinstance(u, ZeroMorphism) or isinstance(nxt_gen, ZeroMorphism):
                return False
            # the next image sits inside the current one
            hop = self._arrow(
                model.target_of(u), FAMILY_Z, i, (a + step + 1, b), 0
            )
            if model.compose(t, hop, u) != nxt_gen:
                return False
            layer_inst = Simple1Instance(KIND_CP, i, (a + step, b), aux)
            layer = instance_functor(t, layer_inst)
            if not self.eng.kernel_matches(
                v, u, (nxt_gen,), layer.denominators.generators
            ):
                return False
            if functors.is_in_c0(t, layer):
                return False  # every layer must be exactly infinite
            if not self.tower_check(layer_inst, L, chain_cap=chain_cap):
                return False
        return True

    def c2_check(self, v: VertexId, tower_len=None, chain_cap=None) -> bool:
        """Case analysis making Hom(v, -) simple one layer up, for a Z-vertex:
        degree-0 arrows by induction with C-layers, degree-1 arrows through
        the finite-length chain of their target, degree-2 arrows by
        factorisation plus the finite-length chain of the intermediate."""
        t = self.t
        if not t.is_finite_mode:
            raise ModeMismatch("the layer-two case analysis needs r < n")
        if v.family != FAMILY_Z:
            raise WrongFamily(f"expected a Z-vertex, got {v}")
        a, b = v.coord
        i = v.orbit
        R = t.orbit_count
        nxt = (i + 1) % R
        dlast = _delta(i, R - 1)
        wreg = self.window.region()
        L = self.depth if tower_len is None else tower_len
        entries = model.arrow_fan(t, v).channels
        # Case: degree-0 targets, induction on c+d with C-layer quotients.
        e0 = entries[(FAMILY_Z, i, 0)]
        for (c, d) in regions.enumerate_points(e0.region, wreg):
            if (c, d) == (a, b):
                continue
            if c > a:
                u = self._chain_u(v, FAMILY_Z, i, (c - 1, d), 0)
                extra = self._arrow(v, FAMILY_Z, i, (c, d), 0)
                layer_inst = Simple1Instance(KIND_CP, i, (c - 1, d), a + dlast * t.m + 1)
            else:
                u = self._chain_u(v, FAMILY_Z, i, (a, d - 1), 0)
                extra = self._arrow(v, FAMILY_Z, i, (a, d), 0)
                layer_inst = Simple1Instance(KIND_CPP, i, (a, d - 1), b - dlast * t.n + 1)
            hop = self._arrow(model.target_of(u), FAMILY_Z, i, (c, d), 0)
            if model.compose(t, hop, u) != extra:
                return False
            layer = instance_functor(t, layer_inst)
            if not self.eng.kernel_matches(
                v, u, (extra,), layer.denominators.generators
            ):
                return False
            if not self.tower_check(layer_inst, L, chain_cap=chain_cap):
                return False
        # Cases: degree-1 targets admit the tautological epi from the target
        # representable, which has a finite-length chain.
        for fam in (FAMILY_X, FAMILY_Y):
            e1 = entries[(fam, nxt, 1)]
            for (c, d) in regions.enumerate_points(e1.region, wreg):
                if not self.finite1_check(VertexId(fam, nxt, (c, d))):
                    return False
        # Case: degree-2 targets factor through the degree-1 map to the
        # X-intermediate at (c, a), whose representable has a finite chain.
        e2 = entries[(FAMILY_Z, nxt, 2)]
        for (c, d) in regions.enumerate_points(e2.region, wreg):
            f2 = self._arrow(v, FAMILY_Z, nxt, (c, d), 2)
            h1 = self._arrow(v, FAMILY_X, nxt, (c, a), 1)
            if isinstance(h1, ZeroMorphism):
                return False
            phi = self._arrow(h1.dst, FAMILY_Z, nxt, (c, d), 1)
            if model.compose(t, phi, h1) != f2:
                return False
            if not self.finite1_check(VertexId(FAMILY_X, nxt, (c, a))):
                return False
        return True


# -- public check operations ---------------------------------------------------


def check_simple0(t: GentleTriple, v: VertexId, window: Window) -> bool:
    s = _Session(t, window, depth=1)
    passed, _ = s.simple0_check(v)
    return passed


def check_simple1_tower(
    t: GentleTriple, instance: Simple1Instance, length: int, window: Window
) -> bool:
    if length < 0:
        raise ValueError("tower length must be >= 0")
    s = _Session(t, window, depth=max(length, 1))
    return s.tower_check(instance, length)


def check_finite1(t: GentleTriple, v: VertexId, window: Window) -> bool:
    s = _Session(t, window, depth=1)
    return s.finite1_check(v)


def check_nonsimple1(t: GentleTriple, v: VertexId, depth: int, window: Window) -> bool:
    s = _Session(t, window, depth=depth)
    return s.nonsimple1_check(v, depth)


def check_c2_simple(t: GentleTriple, v: VertexId, window: Window, depth: int = 4) -> bool:
    s = _Session(t, window, depth=depth)
    return s.c2_check(v)


def _sample_aux(kind: str, t: GentleTriple, orbit: int, coord: tuple):
    a, b = coord
    dlast = _delta(orbit, t.orbit_count - 1)
    if kind == KIND_BP or kind == KIND_BPP:
        return (0, a)
    if kind == KIND_CP:
        top = a + dlast * t.m + 1
        return (top, top - 3)
    if kind == KIND_CPP:
        top = b - dlast * t.n + 1
        return (top, top - 3)
    if kind == KIND_B_INF:
        top = a + dlast * t.m
        return (top, top - 2)
    raise ValueError(kind)


def _kind_family(kind: str) -> str:
    return {
        KIND_BP: FAMILY_X,
        KIND_BPP: FAMILY_Y,
        KIND_CP: FAMILY_Z,
        KIND_CPP: FAMILY_Z,
        KIND_B_INF: FAMILY_X,
    }[kind]


def check_infinite_mode(t: GentleTriple, window: Window, depth: int) -> bool:
    if t.is_finite_mode:
        raise ModeMismatch("infinite-mode replay needs r == n")
    cert = _certify_infinite(_Session(t, window, depth))
    return cert


def _inner_vertices(s: _Session, box: Window):
    inner = get_engine(s.t, box.box)
    return inner.vertices()


def _certify_infinite(s: _Session) -> bool:
    t, window, depth = s.t, s.window, s.depth
    inner = window.inner_half()
    ok_all = True

    verts = _inner_vertices(s, inner)
    fails = []
    for v in verts:
        passed, _ = s.simple0_check(v)
        if not passed:
            fails.append(v)
    ok = not fails
    ok_all &= s.record(
        "inf_simple0",
        {"window": list(inner.box), "vertices": len(verts)},
        ok,
        "" if ok else f"failed at {fails[0]}",
    )

    towers = 0
    tower_fail = None
    for v in verts:
        for aux in _sample_aux(KIND_B_INF, t, v.orbit, v.coord):
            inst = Simple1Instance(KIND_B_INF, v.orbit, v.coord, aux)
            towers += 1
            if not s.tower_check(inst, depth, chain_cap=depth):
                tower_fail = inst
                break
        if tower_fail:
            break
    ok = tower_fail is None
    ok_all &= s.record(
        "inf_simple1",
        {"window": list(inner.box), "instances": towers, "length": depth},
        ok,
        "" if ok else f"failed at {tower_fail.params()}",
    )

    all_x = s.eng.vertices()
    f1_fail = None
    for v in all_x:
        if not s.finite1_check(v):
            f1_fail = v
            break
    ok = f1_fail is None
    ok_all &= s.record(
        "inf_finite1",
        {"window": list(window.box), "vertices": len(all_x)},
        ok,
        "" if ok else f"failed at {f1_fail}",
    )

    quarter = Window(inner.x0 // 2, inner.x1 // 2, inner.y0 // 2, inner.y1 // 2)
    sep_fail = None
    for v in _inner_vertices(s, quarter):
        if functors.is_in_c0(t, functors.representable(t, v)):
            sep_fail = v
            break
    ok = sep_fail is None
    ok_all &= s.record(
        "layer0_strict",
        {"window": list(quarter.box)},
        ok,
        "representables have infinite symbolic support"
        if ok
        else f"H at {sep_fail} unexpectedly finite",
    )
    s.record("collapse_layers", {"H_X": 1}, True, "finite length is reached one layer up")
    return bool(ok_all)


def _certify_finite(s: _Session, z_window=None) -> bool:
    t, window, depth = s.t, s.window, s.depth
    inner = window.inner_half()
    ok_all = True

    verts = _inner_vertices(s, inner)
    fails = []
    for v in verts:
        passed, _ = s.simple0_check(v)
        if not passed:
            fails.append(v)
    ok = not fails
    ok_all &= s.record(
        "simple0",
        {"window": list(inner.box), "vertices": len(verts)},
        ok,
        "" if ok else f"failed at {fails[0]}",
    )

    towers = 0
    tower_fail = None
    for kind in _FINITE_KINDS:
        fam = _kind_family(kind)
        for v in verts:
            if v.family != fam:
                continue
            for aux in _sample_aux(kind, t, v.orbit, v.coord):
                inst = Simple1Instance(kind, v.orbit, v.coord, aux)
                towers += 1
                if not s.tower_check(inst, depth, chain_cap=depth):
                    tower_fail = inst
                    break
            if tower_fail:
                break
        if tower_fail:
            break
    ok = tower_fail is None
    ok_all &= s.record(
        "simple1",
        {"window": list(inner.box), "instances": towers, "length": depth},
        ok,
        "" if ok else f"failed at {tower_fail.params()}",
    )

    xy = [v for v in s.eng.vertices() if v.family in (FAMILY_X, FAMILY_Y)]
    f1_fail = None
    for v in xy:
        if not s.finite1_check(v):
            f1_fail = v
            break
    ok = f1_fail is None
    ok_all &= s.record(
        "finite1",
        {"window": list(window.box), "vertices": len(xy)},
        ok,
        "" if ok else f"failed at {f1_fail}",
    )

    zbox = z_window if z_window is not None else inner
    zs = [v for v in _inner_vertices(s, zbox) if v.family == FAMILY_Z]
    ns_fail = None
    for v in zs:
        if not s.nonsimple1_check(v, depth, chain_cap=depth):
            ns_fail = v
            break
    ok = ns_fail is None
    ok_all &= s.record(
        "nonsimple1",
        {"window": list(zbox.box), "vertices": len(zs), "depth": depth},
        ok,
        "" if ok else f"failed at {ns_fail}",
    )

    c2_fail = None
    for v in zs:
        if not s.c2_check(v, chain_cap=depth):
            c2_fail = v
            break
    ok = c2_fail is None
    ok_all &= s.record(
        "c2simple",
        {"window": list(zbox.box), "vertices": len(zs)},
        ok,
        "" if ok else f"failed at {c2_fail}",
    )

    quarter = Window(inner.x0 // 2, inner.x1 // 2, inner.y0 // 2, inner.y1 // 2)
    sep_fail = None
    for v in _inner_vertices(s, quarter):
        if functors.is_in_c0(t, functors.representable(t, v)):
            sep_fail = v
            break
    ok = sep_fail is None
    ok_all &= s.record(
        "layer0_strict",
        {"window": list(quarter.box)},
        ok,
        "representables have infinite symbolic support"
        if ok
        else f"H at {sep_fail} unexpectedly finite",
    )
    s.record(
        "collapse_layers",
        {"H_X": 1, "H_Y": 1, "H_Z": 2},
        True,
        "X/Y representables collapse one layer up, Z representables two",
    )
    return bool(ok_all)


def certify(
    t: GentleTriple,
    window: Window = Window(-8, 8, -8, 8),
    depth: int = 8,
) -> Certificate:
    """Run the full replay for t and assemble the certificate.

    The claimed dimension is 2 in finite mode and 1 in infinite mode; the
    verdict is "pass" only if every recorded check passed.  A depth below 1
    would check no tower step or chain point, so it is rejected.
    """
    if depth < 1:
        raise ParameterRange(f"depth must be >= 1, got {depth}")
    s = _Session(t, window, depth)
    if t.is_finite_mode:
        ok = _certify_finite(s)
        kg = 2
    else:
        ok = _certify_infinite(s)
        kg = 1
    cert = Certificate(
        triple=t,
        kg=kg,
        window=window,
        depth=depth,
        checks=s.records,
        verdict="pass" if ok else "fail",
    )
    return cert
