"""Distinguished quotient functors and machine-checked replays of the
case analyses behind the dimension theorem.

The certifier builds the simple quotients attached to Auslander-Reiten sink
maps (``build_simple0``) and the simple-modulo-finite quotients
(``build_simple1``): kinds B', B'', C', C'' when r < n, kind B when r == n.
It replays each proof step as window-quantified evidence:

* towers: the short exact sequences linking an instance to its coordinate
  shift with a sink-map simple as quotient;
* case analyses: every arrow out of the top inside the window either factors
  symbolically through a denominator generator (one region containment
  covers all targets) or sits in a chain exact sequence (a kernel sweep);
* filtration chains: the border-terminating inductions that place
  representables in the first or second filtration layer, with the
  infinite-support layers decided exactly by symbolic regions.

The geometry of each kind is one row of the table ``_KINDS``, read without a
branch on the kind; a certificate runs the phase list of its mode
(``_MODES``).  Infinite constructions are verified to a configurable depth;
the certificate records window, depth and every check outcome.

Where it can, a run checks the items of every phase in two processes: it
forks one helper that takes the items at odd x and keeps the even ones, then
merges the first failures so that the records are those of the serial loop
(``_run_phases``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

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
from .regions import Region

KIND_BP = "B'"
KIND_BPP = "B''"
KIND_CP = "C'"
KIND_CPP = "C''"
KIND_B_INF = "B"


class Simple1Instance(NamedTuple):
    """One instance of a simple-modulo-finite quotient lemma; a NamedTuple
    value like those of :mod:`kgcert.model`, since the tower memo is keyed
    by it."""

    kind: str
    orbit: int
    coord: tuple
    aux: int

    def params(self) -> dict:
        return {**self._asdict(), "coord": list(self.coord)}


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
    # Where the time went, per phase and process (see _Session.stats); not
    # part of the certificate's bytes.
    stats: Optional[dict] = field(default=None, compare=False, repr=False)

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


# -- per-kind replay geometry -------------------------------------------------
#
# An instance has its top at (a, b) in orbit i of its kind's family, and an
# integer aux.  A fan key (family, k, degree) is the channel of the arrows of
# that degree out of the top into `family` at orbit (i + k) mod r.  A missing
# arrow is the zero morphism.  The denominator is generated by f, the degree-0
# arrow to (a, b) + shift, and g, the arrow with fan key `gen` to
# gen_coord(a, b, aux).  The tower ascends along the shift with its two
# coordinates swapped, with the sink-map simple at the top as quotient.  The
# case analysis checks the kind's case rows, whose constraints are regions of
# target points (x, y) built from (a, b, aux):
# * _Factor: the arrows into the channel inside split (the whole channel when
#   split is None) factor through f or g;
# * _Chain: at each window point p of line, the kernel of (- o u), for u the
#   arrow to p + u, modulo the denominator plus the arrow to p + mod, is the
#   sink-map image at u's target.  That target is the chain's layer, so no
#   third offset names it.

_F, _G = 0, 1  # the two denominator generators, in the order build_simple1 gives them


class _Factor(NamedTuple):
    key: tuple
    split: Optional[Callable]  # (a, b, aux) -> Region, or None for the whole channel
    gen: int  # _F or _G


class _Chain(NamedTuple):
    key: tuple
    line: Callable  # (a, b, aux) -> Region
    u: tuple  # offset of u's target from the chain point
    mod: tuple  # offset of the modulus arrow's target from the chain point


class _Kind(NamedTuple):
    family: str
    finite: bool  # True: exists when r < n; False: when r == n
    shift: tuple
    gen: tuple
    gen_coord: Callable  # (a, b, aux) -> coordinate
    # (a, b, m, n) -> the largest aux, with m and n scaled by [i = r - 1]; None: aux in Z
    aux_top: Optional[Callable]
    samples: Callable  # (a, aux_top) -> the two aux values the simple1 phase checks
    rows: tuple


_KINDS = {
    KIND_BP: _Kind(
        FAMILY_X, True, (1, 0), (FAMILY_Z, 0, 1), lambda a, b, aux: (a, aux),
        None, lambda a, top: (0, a),
        (
            _Factor((FAMILY_X, 0, 0), lambda a, b, aux: Region(lo_x=a + 1), _F),
            _Chain((FAMILY_X, 0, 0), lambda a, b, aux: Region(lo_x=a, hi_x=a, lo_y=b + 1), (0, -1), (0, 0)),
            _Factor((FAMILY_Z, 0, 1), lambda a, b, aux: Region(lo_x=a + 1), _F),
            _Factor((FAMILY_Z, 0, 1), lambda a, b, aux: Region(lo_x=a, hi_x=a, lo_y=aux), _G),
            _Chain((FAMILY_Z, 0, 1), lambda a, b, aux: Region(lo_x=a, hi_x=a, hi_y=aux - 1), (0, 0), (0, 1)),
            _Factor((FAMILY_X, 1, 2), None, _G),
        ),
    ),
    KIND_BPP: _Kind(
        FAMILY_Y, True, (1, 0), (FAMILY_Z, 0, 1), lambda a, b, aux: (aux, a),
        None, lambda a, top: (0, a),
        (
            _Factor((FAMILY_Y, 0, 0), lambda a, b, aux: Region(lo_x=a + 1), _F),
            _Chain((FAMILY_Y, 0, 0), lambda a, b, aux: Region(lo_x=a, hi_x=a, lo_y=b + 1), (0, -1), (0, 0)),
            _Factor((FAMILY_Z, 0, 1), lambda a, b, aux: Region(lo_y=a + 1), _F),
            _Factor((FAMILY_Z, 0, 1), lambda a, b, aux: Region(lo_y=a, hi_y=a, lo_x=aux), _G),
            _Chain((FAMILY_Z, 0, 1), lambda a, b, aux: Region(lo_y=a, hi_y=a, hi_x=aux - 1), (0, 0), (1, 0)),
            _Factor((FAMILY_Y, 1, 2), None, _G),
        ),
    ),
    KIND_CP: _Kind(
        FAMILY_Z, True, (1, 0), (FAMILY_X, 1, 1), lambda a, b, aux: (aux, a),
        lambda a, b, m, n: a + m + 1, lambda a, top: (top, top - 3),
        (
            _Factor((FAMILY_Z, 0, 0), lambda a, b, aux: Region(lo_x=a + 1), _F),
            _Chain((FAMILY_Z, 0, 0), lambda a, b, aux: Region(lo_x=a, hi_x=a, lo_y=b + 1), (0, -1), (0, 0)),
            _Factor((FAMILY_X, 1, 1), lambda a, b, aux: Region(lo_y=a + 1), _F),
            _Factor((FAMILY_X, 1, 1), lambda a, b, aux: Region(lo_y=a, hi_y=a, lo_x=aux), _G),
            _Chain((FAMILY_X, 1, 1), lambda a, b, aux: Region(lo_y=a, hi_y=a, hi_x=aux - 1), (0, 0), (1, 0)),
            _Factor((FAMILY_Y, 1, 1), None, _F),
            _Factor((FAMILY_Z, 1, 2), None, _F),
        ),
    ),
    KIND_CPP: _Kind(
        FAMILY_Z, True, (0, 1), (FAMILY_Y, 1, 1), lambda a, b, aux: (aux, b),
        lambda a, b, m, n: b - n + 1, lambda a, top: (top, top - 3),
        (
            _Factor((FAMILY_Z, 0, 0), lambda a, b, aux: Region(lo_y=b + 1), _F),
            _Chain((FAMILY_Z, 0, 0), lambda a, b, aux: Region(lo_y=b, hi_y=b, lo_x=a + 1), (-1, 0), (0, 0)),
            _Factor((FAMILY_X, 1, 1), None, _F),
            _Factor((FAMILY_Y, 1, 1), lambda a, b, aux: Region(lo_y=b + 1), _F),
            _Factor((FAMILY_Y, 1, 1), lambda a, b, aux: Region(lo_y=b, hi_y=b, lo_x=aux), _G),
            _Chain((FAMILY_Y, 1, 1), lambda a, b, aux: Region(lo_y=b, hi_y=b, hi_x=aux - 1), (0, 0), (1, 0)),
            _Factor((FAMILY_Z, 1, 2), None, _F),
        ),
    ),
    KIND_B_INF: _Kind(
        FAMILY_X, False, (1, 0), (FAMILY_X, 1, 1), lambda a, b, aux: (aux, a),
        lambda a, b, m, n: a + m, lambda a, top: (top, top - 2),
        (
            _Factor((FAMILY_X, 0, 0), lambda a, b, aux: Region(lo_x=a + 1), _F),
            _Chain((FAMILY_X, 0, 0), lambda a, b, aux: Region(lo_x=a, hi_x=a, lo_y=b + 1), (0, -1), (0, 0)),
            _Factor((FAMILY_X, 1, 1), lambda a, b, aux: Region(lo_y=a + 1), _F),
            _Factor((FAMILY_X, 1, 1), lambda a, b, aux: Region(lo_y=a, hi_y=a, lo_x=aux), _G),
            _Chain((FAMILY_X, 1, 1), lambda a, b, aux: Region(lo_y=a, hi_y=a, hi_x=aux - 1), (0, 0), (1, 0)),
        ),
    ),
}


def _spec(kind: str) -> _Kind:
    spec = _KINDS.get(kind)
    if spec is None:
        raise ValueError(f"unknown kind {kind!r}")
    return spec


def _aux_top(t: GentleTriple, spec: _Kind, orbit: int, coord: tuple):
    """The largest aux of an instance, or None when every aux is allowed."""
    if spec.aux_top is None:
        return None
    last = orbit == t.orbit_count - 1
    return spec.aux_top(coord[0], coord[1], last * t.m, last * t.n)


# -- builders ----------------------------------------------------------------


def build_simple0(t: GentleTriple, v: VertexId) -> FpFunctor:
    """Quotient of Hom(v, -) by the images of the two sink maps; the simple
    object attached to the Auslander-Reiten triangle ending at v."""
    if not model.vertex_valid(t, v):
        raise InvalidVertex(f"not a vertex of the model: {v}")
    return FpFunctor(v, Subfunctor(v, model.ar_sink_maps(t, v)))


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
    spec = _spec(kind)
    if spec.finite != t.is_finite_mode:
        raise ModeMismatch(f"kind {kind} exists only when {'r < n' if spec.finite else 'r == n'}")
    a, b = coord
    top = VertexId(spec.family, orbit, coord)
    if not model.vertex_valid(t, top):
        raise InvalidVertex(f"not a vertex of the model: {top}")
    hi = _aux_top(t, spec, orbit, coord)
    if hi is not None and aux > hi:
        raise ParameterRange(f"aux must be <= {hi} for {kind} at {top}, got {aux}")
    sx, sy = spec.shift
    family, k, degree = spec.gen
    gens = (
        model.arrow_or_zero(t, top, VertexId(spec.family, orbit, (a + sx, b + sy)), 0),
        model.arrow_or_zero(
            t,
            top,
            VertexId(family, (orbit + k) % t.orbit_count, spec.gen_coord(a, b, aux)),
            degree,
        ),
    )
    return FpFunctor(top, Subfunctor(top, gens))


def instance_functor(t: GentleTriple, inst: Simple1Instance) -> FpFunctor:
    return build_simple1(t, inst.kind, inst.orbit, inst.coord, inst.aux)


class _Session:
    """Shared engine, caches and record sink for one certification run."""

    def __init__(self, t: GentleTriple, window: Window, depth: int):
        self.t = t
        self.window = window
        self.depth = depth
        self.eng: WindowEngine = get_engine(t, window.box)
        self.records: list = []
        # Per phase in record order: its item count and, per process (this
        # one first, then a helper if one ran), the items checked and the
        # seconds taken.
        self.stats: list = []
        self._tower_cache: dict = {}
        self._tower_step_cache: dict = {}
        self._finite1_cache: dict = {}

    def record(self, lemma: str, params: dict, passed: bool, detail: str = "") -> bool:
        self.records.append(CheckRecord(lemma, params, passed, detail))
        return passed

    # -- small helpers ------------------------------------------------------

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
        # A negative phi_deg names no channel: then only an empty split factors.
        phi_deg = entry.degree - gen.degree
        eT = model.arrow_fan(self.t, gen.dst).channels.get((entry.family, entry.orbit, phi_deg))
        return regions.contains(regions.EMPTY if eT is None else eT.region, split_region)

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
        sy, sx = _spec(inst.kind).shift  # the tower ascends along the swapped shift
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
        sy, sx = _spec(here.kind).shift
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
        steps are sink-map simples, by the case rows of the instance's kind.
        Chains are swept inside the window, within chain_cap steps of the top
        when chain_cap is set."""
        t = self.t
        F = instance_functor(t, inst)
        top = F.top
        gens = F.denominators.generators
        a, b = top.coord
        entries = model.arrow_fan(t, top).channels
        R = t.orbit_count
        wreg = self.window.region()
        for row in _spec(inst.kind).rows:
            family, k, degree = row.key
            e = entries[(family, (inst.orbit + k) % R, degree)]
            if isinstance(row, _Factor):
                split = e.region
                if row.split is not None:
                    split = regions.intersect(split, row.split(a, b, inst.aux))
                if not self._factors_region(split, gens[row.gen], e):
                    return False
                continue
            line = regions.intersect(e.region, row.line(a, b, inst.aux))
            for x, y in regions.enumerate_points(line, wreg):
                if chain_cap is not None and abs(x - a) + abs(y - b) > chain_cap:
                    continue
                (ux, uy), (mx, my) = row.u, row.mod
                u = self._chain_u(top, e.family, e.orbit, (x + ux, y + uy), e.degree)
                if isinstance(u, ZeroMorphism):
                    return False
                extra = self._arrow(top, e.family, e.orbit, (x + mx, y + my), e.degree)
                sinks = model.ar_sink_maps(t, model.target_of(u))
                if not self.eng.kernel_matches(top, u, gens + (extra,), sinks):
                    return False
        return True

    # -- simple objects -------------------------------------------------------

    def simple0_check(self, v: VertexId) -> tuple:
        """dim A_v = 1 at v and 0 in every other cell of the window; returns
        (passed, skipped_top)."""
        eng = self.eng
        A = build_simple0(self.t, v)
        counts = int.from_bytes(eng.dims_cube(v, A.denominators.generators), "little")
        skipped = not self.window.contains(v.coord)
        want = 0 if skipped else 1 << 8 * eng.cell(v)
        return (counts == want, skipped)

    # -- finite-length chains ---------------------------------------------------

    def finite1_check(self, v: VertexId) -> bool:
        """Replay of the border-terminating induction placing Hom(v, -) in the
        first filtration layer; memoised per vertex."""
        t = self.t
        families = (FAMILY_X, FAMILY_Y) if t.is_finite_mode else (FAMILY_X,)
        if v.family not in families:
            raise WrongFamily(f"finite-length chain applies to {'/'.join(families)} vertices, got {v}")
        if not model.vertex_valid(t, v):
            raise InvalidVertex(f"not a vertex of the model: {v}")
        hit = self._finite1_cache.get(v)
        if hit is not None:
            return hit
        a, b = v.coord
        i = v.orbit
        border = b + model.index_regions(t)[(v.family, i)].hi_d  # the largest a at this b
        ok = True
        for c in range(border, a - 1, -1):
            w = VertexId(v.family, i, (c, b))
            cached = self._finite1_cache.get(w)
            if cached is not None:
                ok = cached
                continue
            ok = ok and self._finite1_step(w, c, border)
            self._finite1_cache[w] = ok
        return ok  # the last w is v itself: a vertex has a <= border

    def _finite1_step(self, w: VertexId, c: int, border: int) -> bool:
        """One induction step, whose middle is H_w modulo the x-shift image
        (zero exactly at the border).  r < n: 0 -> C-object -> middle ->
        B-object -> 0, via the degree-1 map to the reference column/row.
        r == n: the middle is an extension of a B-object by a sub with finite
        symbolic support."""
        t = self.t
        i = w.orbit
        b = w.coord[1]
        mid_gen = self._arrow(w, w.family, i, (c + 1, b), 0)
        if (c == border) != isinstance(mid_gen, ZeroMorphism):
            return False
        if not t.is_finite_mode:
            # aux at its bound, so build_simple1 accepts it
            quot = build_simple1(t, KIND_B_INF, i, (c, b), _aux_top(t, _KINDS[KIND_B_INF], i, (c, b)))
            e_gen = quot.denominators.generators[_G]
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
        if w.family == FAMILY_X:
            u = self._arrow(w, FAMILY_Z, i, (c, 0), 1)
            sub = build_simple1(t, KIND_CP, i, (c, 0), _aux_top(t, _KINDS[KIND_CP], i, (c, 0)))
            quot = build_simple1(t, KIND_BP, i, (c, b), 0)
        else:
            u = self._arrow(w, FAMILY_Z, i, (0, c), 1)
            sub = build_simple1(t, KIND_CPP, i, (0, c), _aux_top(t, _KINDS[KIND_CPP], i, (0, c)))
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

    # -- the Z-vertex lemmas ------------------------------------------------------

    def _layer_step(self, v: VertexId, u, extra, inst: Simple1Instance, layer, chain_cap) -> bool:
        """One step of an image chain out of v, with layer = instance_functor(inst)
        at u's target: the next image `extra` sits inside the current one
        (hop o u == extra, hop being the layer's shift generator f from u's
        target to extra's), the kernel of (- o u) modulo extra is the layer's
        denominator, and the layer passes its simplicity tower."""
        hop = layer.denominators.generators[_F]
        if model.compose(self.t, hop, u) != extra:
            return False
        if not self.eng.kernel_matches(v, u, (extra,), layer.denominators.generators):
            return False
        return self.tower_check(inst, self.depth, chain_cap=chain_cap)

    def nonsimple1_check(self, v: VertexId, K: int, chain_cap=None) -> bool:
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
        aux = _aux_top(t, _KINDS[KIND_CP], i, v.coord)
        for step in range(K + 1):
            u = self._chain_u(v, FAMILY_Z, i, (a + step, b), 0)
            nxt_gen = self._arrow(v, FAMILY_Z, i, (a + step + 1, b), 0)
            if isinstance(u, ZeroMorphism) or isinstance(nxt_gen, ZeroMorphism):
                return False
            inst = Simple1Instance(KIND_CP, i, (a + step, b), aux)
            layer = instance_functor(t, inst)
            if functors.is_in_c0(t, layer):
                return False  # every layer must be exactly infinite
            if not self._layer_step(v, u, nxt_gen, inst, layer, chain_cap):
                return False
        return True

    def c2_check(self, v: VertexId, chain_cap=None) -> bool:
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
        nxt = (i + 1) % t.orbit_count
        cp_aux = _aux_top(t, _KINDS[KIND_CP], i, v.coord)
        cpp_aux = _aux_top(t, _KINDS[KIND_CPP], i, v.coord)
        wreg = self.window.region()
        entries = model.arrow_fan(t, v).channels
        # Case: degree-0 targets, induction on c+d with C-layer quotients.
        e0 = entries[(FAMILY_Z, i, 0)]
        for (c, d) in regions.enumerate_points(e0.region, wreg):
            if (c, d) == (a, b):
                continue
            if c > a:
                inst = Simple1Instance(KIND_CP, i, (c - 1, d), cp_aux)
            else:
                inst = Simple1Instance(KIND_CPP, i, (a, d - 1), cpp_aux)
            u = self._chain_u(v, FAMILY_Z, i, inst.coord, 0)
            extra = self._arrow(v, FAMILY_Z, i, (c, d), 0)
            if not self._layer_step(v, u, extra, inst, instance_functor(t, inst), chain_cap):
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


def check_infinite_mode(t: GentleTriple, window: Window, depth: int) -> bool:
    if t.is_finite_mode:
        raise ModeMismatch("infinite-mode replay needs r == n")
    return certify(t, window, depth).passed


# -- the phases of a certificate ----------------------------------------------


class _Phase(NamedTuple):
    """One record: passed when every item passes, else failed at the first."""

    box: str  # the items come from the vertices of "window", "inner" or "quarter"
    items: Callable  # (session, vertices) -> the items, in order
    check: Callable  # (session, item) -> bool
    params: tuple  # record params besides the window, named as in _run_phases
    witness: Callable = str  # item -> its name in the detail of a failure
    passed: str = ""
    failed: str = "failed at {}"


def _tower_instances(s: _Session, verts: list) -> list:
    """Per kind of the mode, each vertex of the kind's family with both
    sample aux values."""
    return [
        Simple1Instance(kind, v.orbit, v.coord, aux)
        for kind, spec in _KINDS.items()
        if spec.finite == s.t.is_finite_mode
        for v in verts
        if v.family == spec.family
        for aux in spec.samples(v.coord[0], _aux_top(s.t, spec, v.orbit, v.coord))
    ]


def _z_vertices(s, verts):
    return [v for v in verts if v.family == FAMILY_Z]


_SIMPLE0 = _Phase("inner", lambda s, verts: verts, lambda s, v: s.simple0_check(v)[0], ("vertices",))
_SIMPLE1 = _Phase(
    "inner", _tower_instances, lambda s, inst: s.tower_check(inst, s.depth, chain_cap=s.depth),
    ("instances", "length"), Simple1Instance.params,
)
_FINITE1 = _Phase(
    "window", lambda s, verts: [v for v in verts if v.family != FAMILY_Z],
    lambda s, v: s.finite1_check(v), ("vertices",),
)
_NONSIMPLE1 = _Phase(
    "inner", _z_vertices,
    lambda s, v: s.nonsimple1_check(v, s.depth, chain_cap=s.depth), ("vertices", "depth"),
)
_C2SIMPLE = _Phase(
    "inner", _z_vertices, lambda s, v: s.c2_check(v, chain_cap=s.depth), ("vertices",)
)
_LAYER0_STRICT = _Phase(
    "quarter", lambda s, verts: verts,
    lambda s, v: not functors.is_in_c0(s.t, functors.representable(s.t, v)), (),
    passed="representables have infinite symbolic support", failed="H at {} unexpectedly finite",
)

# Per mode, keyed by is_finite_mode: the claimed dimension, the phases in
# record order, and the params and detail of the closing collapse_layers.
_MODES = {
    True: (
        2,
        (("simple0", _SIMPLE0), ("simple1", _SIMPLE1), ("finite1", _FINITE1),
         ("nonsimple1", _NONSIMPLE1), ("c2simple", _C2SIMPLE), ("layer0_strict", _LAYER0_STRICT)),
        {"H_X": 1, "H_Y": 1, "H_Z": 2},
        "X/Y representables collapse one layer up, Z representables two",
    ),
    False: (
        1,
        (("inf_simple0", _SIMPLE0), ("inf_simple1", _SIMPLE1), ("inf_finite1", _FINITE1),
         ("layer0_strict", _LAYER0_STRICT)),
        {"H_X": 1},
        "finite length is reached one layer up",
    ),
}


# -- running the phases, in one process or two ---------------------------------
#
# One loop, _walk, checks the items of every phase: all of them in a serial
# run; in a split run, those at even x in this process (parity 0) and those at
# odd x in a forked helper (parity 1).  Towers ascend along y for every kind,
# so the instances of one top column, whose towers share steps, stay in one
# process.


def _walk(s: _Session, plan: list, parity: Optional[int] = None) -> list:
    """Check the items of every phase of the plan, in order, up to the first
    that fails: all of them when parity is None, else those whose x has that
    parity.  Returns per phase [the failing index or -1, items checked,
    seconds]."""
    walk = []
    for _, phase, _, items in plan:
        t0 = time.perf_counter()
        failed = -1
        checked = 0
        for k, item in enumerate(items):
            if parity is None or item.coord[0] % 2 == parity:
                checked += 1
                if not phase.check(s, item):
                    failed = k
                    break
        walk.append([failed, checked, time.perf_counter() - t0])
    return walk


def _split_allowed() -> bool:
    """Whether certification may fork a helper: fork exists, the process may
    run on two CPUs or more, and no other thread runs (a forked child has
    only the forking thread, so a lock another thread holds stays held)."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _helper_walk(reply: bytes, plan: list) -> Optional[list]:
    """The helper's walk from its reply, or None unless the reply has one
    [index, checked, seconds] per phase and each failing index names an item
    of the helper's share."""
    try:
        walk = json.loads(reply)
    except ValueError:
        return None
    if not isinstance(walk, list) or len(walk) != len(plan):
        return None
    for (_, _, _, items), res in zip(plan, walk):
        if not (isinstance(res, list) and len(res) == 3):
            return None
        failed, checked, seconds = res
        if type(failed) is not int or type(checked) is not int or type(seconds) not in (int, float):
            return None
        if failed != -1 and not (0 <= failed < len(items) and items[failed].coord[0] % 2 == 1):
            return None
    return walk


def _split_walks(s: _Session, plan: list) -> Optional[list]:
    """The walks of this process (even x) and of a forked helper (odd x), or
    None when the helper could not start, either process raised an
    Exception or the helper gave no valid reply.  The helper is always
    reaped: killed if this process stops early, also on KeyboardInterrupt."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # The helper: writes the walk of its share as JSON and exits, with
        # status 1 on any exception.
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                out.write(json.dumps(_walk(s, plan, 1)).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as replies:
            try:
                ours = _walk(s, plan, 0)
            except Exception:
                return None  # the serial rerun raises the serial run's exception
            reply = replies.read()
        _, status = os.waitpid(pid, 0)
        pid = None
    finally:
        if pid is not None:
            import signal  # here, not at the top: only this path needs it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    theirs = _helper_walk(reply, plan) if status == 0 else None
    return None if theirs is None else [ours, theirs]


def _run_phases(s: _Session) -> bool:
    """Record every phase of the session's mode, then collapse_layers; True
    iff every phase passed.  A phase's record names its first failing item,
    whether one process or two checked the items."""
    _, phases, collapse, collapse_detail = _MODES[s.t.is_finite_mode]
    inner = s.window.inner_half()
    boxes = {"window": s.window, "inner": inner, "quarter": inner.inner_half()}
    plan = []
    for lemma, phase in phases:
        box = boxes[phase.box]
        plan.append((lemma, phase, box, phase.items(s, get_engine(s.t, box.box).vertices())))
    walks = _split_walks(s, plan) if _split_allowed() else None
    if walks is None:
        walks = [_walk(s, plan)]
    ok_all = True
    for k, (lemma, phase, box, items) in enumerate(plan):
        results = [walk[k] for walk in walks]
        failed = min((res[0] for res in results if res[0] >= 0), default=-1)
        s.stats.append({
            "lemma": lemma,
            "items": len(items),
            "processes": [{"checked": res[1], "seconds": res[2]} for res in results],
        })
        ok = failed < 0
        values = {
            "vertices": len(items),
            "instances": len(items) if ok else failed + 1,
            "length": s.depth,
            "depth": s.depth,
        }
        ok_all &= s.record(
            lemma,
            {"window": list(box.box), **{name: values[name] for name in phase.params}},
            ok,
            phase.passed if ok else phase.failed.format(phase.witness(items[failed])),
        )
    s.record("collapse_layers", dict(collapse), ok_all, collapse_detail)
    return ok_all


def certify(
    t: GentleTriple,
    window: Window = Window(-8, 8, -8, 8),
    depth: int = 8,
) -> Certificate:
    """Run the full replay for t and assemble the certificate.

    The claimed dimension is 2 in finite mode and 1 in infinite mode; the
    verdict is "pass" only if every recorded check passed.  A depth below 1
    would check no tower step or chain point, so it is rejected.

    On a machine with two CPUs or more, and with no other thread running,
    the phases are checked in this process and one forked helper, which
    holds memory of its own; the certificate has the same bytes as a run in
    one process.  ``stats`` of the result gives the item count of each phase
    and, per process, the items checked and the seconds taken.
    """
    if depth < 1:
        raise ParameterRange(f"depth must be >= 1, got {depth}")
    s = _Session(t, window, depth)
    ok = _run_phases(s)
    return Certificate(
        triple=t,
        kg=_MODES[t.is_finite_mode][0],
        window=window,
        depth=depth,
        checks=s.records,
        verdict="pass" if ok else "fail",
        stats={"phases": s.stats},
    )
