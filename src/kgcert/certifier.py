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
branch on the kind.  Each mode is one ``_Mode`` row of ``_MODES``: its
claimed dimension, its kinds, the kinds of its finite-length steps and its
phase list.  Infinite constructions are verified to a configurable depth,
which also bounds every swept chain point's L1 distance from its top.  The
certificate records window, depth and every check outcome.

The model has a rank-2 translation group: sigma_x moves X-vertices by
(1, 1) and Z-vertices by (1, 0), sigma_y moves Y-vertices by (1, 1) and
Z-vertices by (0, 1), and neither changes an orbit.  The first phase,
``translation``, checks on the window that both maps carry vertices to
vertices and fan records to fan records.  Every later phase then checks one
representative per translation class of its items, the item nearest the
window centre (L1, ties by item order), with the classes keyed by:

* a Z-vertex: (family, orbit); an X- or Y-vertex: (family, orbit, a - b);
* a simple1 instance: (kind, orbit) and its kind's invariants (``_Kind.cls``):
  a - b for B' and B'', aux - a for C', aux - b for C'', and both a - b
  and aux - a for B.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from . import functors, model, regions
from .engine import WindowEngine, get_engine
from .errors import (
    InvalidVertex,
    KgcertError,
    ModeMismatch,
    ParameterRange,
    WrongFamily,
)
from .functors import FpFunctor, Subfunctor, Window
from .model import (
    FAMILY_X,
    FAMILY_Y,
    FAMILY_Z,
    ZERO,
    ArrowMorphism,
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
    # Where the time went, per phase, and the cache sizes (see
    # _Session.stats); not part of the certificate's bytes.
    stats: Optional[dict] = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "version": 2,
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
    shift: tuple
    gen: tuple
    gen_coord: Callable  # (a, b, aux) -> coordinate
    # (a, b, m, n) -> the largest aux, with m and n scaled by [i = r - 1]; None: aux in Z
    aux_top: Optional[Callable]
    samples: Callable  # (a, aux_top) -> the two aux values the simple1 phase checks
    cls: Callable  # (a, b, aux) -> the invariants of the instance's translation class
    rows: tuple


_KINDS = {
    KIND_BP: _Kind(
        FAMILY_X, (1, 0), (FAMILY_Z, 0, 1), lambda a, b, aux: (a, aux),
        None, lambda a, top: (0, a), lambda a, b, aux: (a - b,),
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
        FAMILY_Y, (1, 0), (FAMILY_Z, 0, 1), lambda a, b, aux: (aux, a),
        None, lambda a, top: (0, a), lambda a, b, aux: (a - b,),
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
        FAMILY_Z, (1, 0), (FAMILY_X, 1, 1), lambda a, b, aux: (aux, a),
        lambda a, b, m, n: a + m + 1, lambda a, top: (top, top - 3), lambda a, b, aux: (aux - a,),
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
        FAMILY_Z, (0, 1), (FAMILY_Y, 1, 1), lambda a, b, aux: (aux, b),
        lambda a, b, m, n: b - n + 1, lambda a, top: (top, top - 3), lambda a, b, aux: (aux - b,),
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
        FAMILY_X, (1, 0), (FAMILY_X, 1, 1), lambda a, b, aux: (aux, a),
        lambda a, b, m, n: a + m, lambda a, top: (top, top - 2), lambda a, b, aux: (a - b, aux - a),
        (
            _Factor((FAMILY_X, 0, 0), lambda a, b, aux: Region(lo_x=a + 1), _F),
            _Chain((FAMILY_X, 0, 0), lambda a, b, aux: Region(lo_x=a, hi_x=a, lo_y=b + 1), (0, -1), (0, 0)),
            _Factor((FAMILY_X, 1, 1), lambda a, b, aux: Region(lo_y=a + 1), _F),
            _Factor((FAMILY_X, 1, 1), lambda a, b, aux: Region(lo_y=a, hi_y=a, lo_x=aux), _G),
            _Chain((FAMILY_X, 1, 1), lambda a, b, aux: Region(lo_y=a, hi_y=a, hi_x=aux - 1), (0, 0), (1, 0)),
        ),
    ),
}


def _channel(t: GentleTriple, orbit: int, key: tuple) -> tuple:
    """The (family, orbit, degree) channel that a fan key names for a top in orbit."""
    family, k, degree = key
    return family, (orbit + k) % t.orbit_count, degree


def _aux_top(t: GentleTriple, spec: _Kind, orbit: int, coord: tuple):
    """The largest aux of an instance, or None when every aux is allowed."""
    if spec.aux_top is None:
        return None
    last = orbit == t.orbit_count - 1
    return spec.aux_top(coord[0], coord[1], last * t.m, last * t.n)


def _exists(rec: model.ArrowFan, dst: VertexId, deg: int) -> bool:
    """Whether the source of the fan record rec has the identity (deg 0, dst
    the source itself) or a basis arrow to dst at degree deg."""
    return deg == 0 and dst == rec.src or model._has_arrow(rec, dst, deg)


def _largest_aux(t: GentleTriple, kind: str, top: VertexId) -> Simple1Instance:
    """The instance of kind at top with its largest aux, or aux 0 when every
    aux is allowed."""
    aux = _aux_top(t, _KINDS[kind], top.orbit, top.coord)
    return Simple1Instance(kind, top.orbit, top.coord, 0 if aux is None else aux)


# -- the translation group --------------------------------------------------
#
# Per generator, sigma_x then sigma_y, the shift of each family's
# coordinates; sigma_x sigma_y is the diagonal shift v -> v + (1, 1).

_SIGMAS = (
    {FAMILY_X: (1, 1), FAMILY_Y: (0, 0), FAMILY_Z: (1, 0)},
    {FAMILY_X: (0, 0), FAMILY_Y: (1, 1), FAMILY_Z: (0, 1)},
)
_FIXED = dict.fromkeys((FAMILY_X, FAMILY_Y, FAMILY_Z), (0, 0))


def _moved(sigma: dict, v: VertexId, k: int = 1) -> VertexId:
    """sigma^k v."""
    (dx, dy), (a, b) = sigma[v.family], v.coord
    return VertexId(v.family, v.orbit, (a + k * dx, b + k * dy))


def _moved_entries(rec: model.ArrowFan, sigma: dict) -> list:
    """The entries of a fan record as flat tuples, each region moved by
    sigma's shift of the entry's family (a shift (dx, dy) moves the bounds
    of x - y by dx - dy)."""
    out = []
    for e in rec.entries:
        (dx, dy), r = sigma[e.family], e.region
        out.append((
            e.family, e.orbit, e.degree, e.excludes_src, r.lo_x + dx, r.hi_x + dx,
            r.lo_y + dy, r.hi_y + dy, r.lo_d + dx - dy, r.hi_d + dx - dy,
        ))
    return out


def _vertex_class(v: VertexId) -> tuple:
    """The key of v's translation class."""
    if v.family == FAMILY_Z:
        return v.family, v.orbit
    a, b = v.coord
    return v.family, v.orbit, a - b


# -- builders ----------------------------------------------------------------


def build_simple0(t: GentleTriple, v: VertexId) -> FpFunctor:
    """Quotient of Hom(v, -) by the images of the two sink maps; the simple
    object attached to the Auslander-Reiten triangle ending at v."""
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
    top, _, gens = _simple1_parts(t, kind, orbit, coord, aux)
    return FpFunctor(top, Subfunctor(top, gens))


def _simple1_parts(t: GentleTriple, kind: str, orbit: int, coord: tuple, aux: int) -> tuple:
    """build_simple1's top, the top's fan record and the generators (f, g),
    each the basis arrow when the fan record has it, else zero."""
    spec = _KINDS.get(kind)
    if spec is None:
        raise ValueError(f"unknown kind {kind!r}")
    if kind not in _MODES[t.is_finite_mode].kinds:
        raise ModeMismatch(f"kind {kind} exists only when {'r == n' if t.is_finite_mode else 'r < n'}")
    a, b = coord
    top = VertexId(spec.family, orbit, coord)
    rec = model.arrow_fan(t, top)  # InvalidVertex when top is not a vertex
    hi = _aux_top(t, spec, orbit, coord)
    if hi is not None and aux > hi:
        raise ParameterRange(f"aux must be <= {hi} for {kind} at {top}, got {aux}")
    sx, sy = spec.shift
    family, g_orbit, degree = _channel(t, orbit, spec.gen)
    ends = (
        (VertexId(spec.family, orbit, (a + sx, b + sy)), 0),
        (VertexId(family, g_orbit, spec.gen_coord(a, b, aux)), degree),
    )
    return top, rec, tuple(ArrowMorphism(top, dst, d) if model._has_arrow(rec, dst, d) else ZERO for dst, d in ends)


def instance_functor(t: GentleTriple, inst: Simple1Instance) -> FpFunctor:
    return build_simple1(t, inst.kind, inst.orbit, inst.coord, inst.aux)


class _Session:
    """Shared engine, caches and record sink for one certification run: the
    triple's mode row, the window and its region, and the depth (tower
    length, chain depth K and the L1 bound of every chain sweep)."""

    def __init__(self, t: GentleTriple, window: Window, depth: int):
        self.t = t
        self.mode: _Mode = _MODES[t.is_finite_mode]
        self.window = window
        self.wreg = window.region()
        self.depth = depth
        self.eng: WindowEngine = get_engine(t, window.box)
        self.records: list = []
        # "phases": per phase in record order, its representatives ("items"),
        # the box items they cover, the representatives checked and the
        # seconds taken; "caches": the sizes of the caches below and of the
        # engine's after the last phase (see _cache_sizes).
        self.stats: dict = {"phases": [], "caches": {}}
        self._tower_cache: dict = {}
        self._tower_step_cache: dict = {}
        self._finite1_cache: dict = {}
        self._read: tuple = (None, None)  # (inst, self._instance(inst)) for the last instance read

    def record(self, lemma: str, params: dict, passed: bool, detail: str = "") -> bool:
        self.records.append(CheckRecord(lemma, params, passed, detail))
        return passed

    # -- small helpers ------------------------------------------------------

    def _instance(self, inst: Simple1Instance) -> tuple:
        """(top, the top's fan record, the generators (f, g), the denominator
        image) of a simple1 instance: the top and generators that
        instance_functor gives, raising where it raises.  Only the last read
        is kept (a memo of every read raises peak memory by half or more):
        a case analysis reads the instance that its layer step just read, a
        tower's first step the one its case analysis read, and each later
        step the one the step below read as its sub."""
        if self._read[0] != inst:
            top, rec, gens = _simple1_parts(self.t, *inst)
            den = 0
            for f in gens:
                if f is not ZERO:
                    den |= self.eng._image(top, f.dst, f.degree)
            self._read = inst, (top, rec, gens, den)
        return self._read[1]

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
        eT = None  # a zero gen, like a channel missing from T's fan, factors only an empty split
        if not isinstance(gen, ZeroMorphism):
            phi_deg = entry.degree - gen.degree  # a negative phi_deg names no channel
            eT = model.arrow_fan(self.t, gen.dst).channels.get((entry.family, entry.orbit, phi_deg))
        return regions.contains(regions.EMPTY if eT is None else eT.region, split_region)

    # -- tower + case analysis ----------------------------------------------

    def tower_check(self, inst: Simple1Instance) -> bool:
        """The instance's case analysis and tower, memoised per instance."""
        hit = self._tower_cache.get(inst)
        if hit is not None:
            return hit
        ok = self._case_analysis(inst) and self._tower_sequences(inst)
        self._tower_cache[inst] = ok
        return ok

    def _tower_sequences(self, inst: Simple1Instance) -> bool:
        """Exact sequences 0 -> inst@(coord+(l+1)s) -> inst@(coord+l s) -> A -> 0, l <= depth."""
        sy, sx = _KINDS[inst.kind].shift  # the tower ascends along the swapped shift
        kind, orbit, (a, b), aux = inst
        steps = [Simple1Instance(kind, orbit, (a + l * sx, b + l * sy), aux) for l in range(self.depth + 2)]
        # Towers at neighbouring coordinates share all but one of their steps.
        memo = self._tower_step_cache
        for here, nxt in zip(steps, steps[1:]):
            ok = memo.get(here)
            if ok is None:
                ok = memo[here] = self._tower_step(here, nxt)
            if not ok:
                return False
        return True

    def _tower_step(self, here: Simple1Instance, nxt: Simple1Instance) -> bool:
        """The exact sequence 0 -> nxt -> here -> A -> 0, for nxt one step up
        here's tower and A the sink-map simple at here's top.  here is read
        before nxt, so the step above reuses this step's read of nxt."""
        eng = self.eng
        top, rec, _, mid_image = self._instance(here)
        sub_top, _, _, sub_image = self._instance(nxt)
        if not _exists(rec, sub_top, 0):
            return False  # tower shift must stay inside the index set
        return eng._ses(top, sub_top, 0, sub_image, mid_image, eng._sink_image(top))

    def _case_analysis(self, inst: Simple1Instance) -> bool:
        """Every arrow out of the top is either absorbed (factors through a
        generator, hence lands in the denominator) or sits in a chain whose
        steps are sink-map simples, by the case rows of the instance's kind.
        Chains are swept inside the window, at points within the session's
        depth (L1) of the top.  Each chain point ORs the image of its own
        extra arrow into the instance's denominator image, and reads the
        sink-map image at u's target from the engine's sink decision."""
        t, eng = self.t, self.eng
        top, rec, gens, den = self._instance(inst)
        a, b = top.coord
        for row in _KINDS[inst.kind].rows:
            e = rec.channels.get(_channel(t, inst.orbit, row.key))
            if e is None:
                return False  # the row names no channel of the top's fan
            if isinstance(row, _Factor):
                split = e.region
                if row.split is not None:
                    split = regions.intersect(split, row.split(a, b, inst.aux))
                if not self._factors_region(split, gens[row.gen], e):
                    return False
                continue
            line = regions.intersect(e.region, row.line(a, b, inst.aux))
            (ux, uy), (mx, my) = row.u, row.mod
            p = e.degree
            for x, y in regions.enumerate_points(line, self.wreg):
                if abs(x - a) + abs(y - b) > self.depth:
                    continue
                S = VertexId(e.family, e.orbit, (x + ux, y + uy))
                if not _exists(rec, S, p):
                    return False
                extra = VertexId(e.family, e.orbit, (x + mx, y + my))
                mod = den | eng._image(top, extra, p) if _exists(rec, extra, p) else den
                if eng._kernel(top, S, p, mod) != eng._sink_image(S):
                    return False
        return True

    # -- the translation group --------------------------------------------------

    def translation_check(self, v: VertexId) -> bool:
        """For sigma_x and sigma_y, at a vertex v: wherever sigma v lies in
        the window, it is a vertex whose fan record (entries with their
        excludes_src flags, and the sink pair) is v's record moved by sigma;
        wherever sigma^-1 v lies in the window, it is a vertex.  Over the
        window's vertices, so, sigma w is a vertex exactly when w is one,
        for every w with both in the window."""
        t = self.t
        rec = model.arrow_fan(t, v)
        for sigma in _SIGMAS:
            back = _moved(sigma, v, -1)
            if self.window.contains(back.coord) and not model.vertex_valid(t, back):
                return False
            w = _moved(sigma, v)
            if not self.window.contains(w.coord):
                continue
            image = model._fan_entries(t, w)
            if image is None or _moved_entries(rec, sigma) != _moved_entries(image, _FIXED):
                return False
            sinks = tuple(f if f is ZERO else ArrowMorphism(w, _moved(sigma, f.dst), 0) for f in rec.sinks)
            if sinks != image.sinks:
                return False
        return True

    # -- simple objects -------------------------------------------------------

    def simple0_check(self, v: VertexId) -> bool:
        """dim A_v = 1 at v and 0 in every other cell of the window (0 in every
        cell when v lies outside it), as one containment.  fan_cube never sets
        bit 0, and an image holds the identity bit only when a generator is
        the identity, and is then the whole basis; so those counts say exactly
        that the image, masked to basis(v), is cube(v).  The mask also drops
        image bits outside cube(v), which a denominator of other arrows can have."""
        eng = self.eng
        A = build_simple0(self.t, v)
        return eng.image_cube(v, A.denominators.generators) & eng.basis_cube(v) == eng.cube(v)

    # -- finite-length chains ---------------------------------------------------

    def finite1_check(self, v: VertexId) -> bool:
        """Replay of the border-terminating induction placing Hom(v, -) in the
        first filtration layer; memoised per vertex."""
        t = self.t
        hit = self._finite1_cache.get(v)
        if hit is not None:
            return hit  # the memo holds only vertices that passed the checks below
        if v.family not in self.mode.finite1:
            raise WrongFamily(f"no finite-length chain starts at {v} in this mode")
        if not model.vertex_valid(t, v):
            raise InvalidVertex(f"not a vertex of the model: {v}")
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
            ok = ok and self._finite1_step(w, c == border)
            self._finite1_cache[w] = ok
        return ok  # the last w is v itself: a vertex has a <= border

    def _finite1_step(self, w: VertexId, at_border: bool) -> bool:
        """One induction step at w.  The B-kind quotient at w is H_w/<f, g>:
        f the x-shift (zero exactly at the border), g the kind's map.  r < n:
        0 -> C-object -> H_w/<f> -> B-object -> 0, induced by g, for the
        C-object at g's target.  <f, g> contains <f> and is <f> plus the
        image of g by construction, so comparing the kernel of (- o g) modulo
        f with the C-object's denominator is the whole exactness check.
        r == n: the gap between <f, g> and <f> has finite symbolic support."""
        t = self.t
        quot_kind, sub_kind = self.mode.finite1[w.family]
        f, g = instance_functor(t, _largest_aux(t, quot_kind, w)).denominators.generators
        if at_border != isinstance(f, ZeroMorphism) or isinstance(g, ZeroMorphism):
            return False
        if sub_kind is None:
            gap = functors.quotient_support(t, Subfunctor(w, (f, g)), Subfunctor(w, (f,)))
            return all(rs.is_finite() for rs in gap.values())
        sub = instance_functor(t, _largest_aux(t, sub_kind, g.dst))
        return self.eng.kernel_matches(w, g, (f,), sub.denominators.generators)

    # -- the Z-vertex lemmas ------------------------------------------------------

    def _layer_step(self, v: VertexId, inst: Simple1Instance) -> bool:
        """One step of an image chain out of v: u (to inst.coord) and `extra`
        (to inst.coord + the kind's shift), in v's channel, are nonzero,
        hop o u == extra for hop the layer's generator f, the kernel of
        (- o u) modulo extra is the layer's denominator, and the layer passes
        its simplicity tower.

        hop o u == extra holds exactly when hop is nonzero.  hop is the
        degree-0 map from u's target to extra's, or zero.  A zero hop gives
        zero, which is not extra.  Otherwise, when u is the identity hop is
        extra itself; when u is an arrow the composite is the degree-0 arrow
        from v to extra's target, which exists, so it is extra."""
        _, _, gens, den = self._instance(inst)
        (a, b), (sx, sy) = inst.coord, _KINDS[inst.kind].shift
        rec = model.arrow_fan(self.t, v)
        u = VertexId(v.family, v.orbit, inst.coord)
        extra = VertexId(v.family, v.orbit, (a + sx, b + sy))
        if not (_exists(rec, u, 0) and _exists(rec, extra, 0)) or gens[_F] is ZERO:
            return False
        eng = self.eng
        if eng._kernel(v, u, 0, eng._image(v, extra, 0)) != den:
            return False
        return self.tower_check(inst)

    def nonsimple1_check(self, v: VertexId) -> bool:
        """The strictly descending image chain out of a Z-vertex: K+1 layer
        sequences for K the session depth, each layer a C'-instance with
        exactly-infinite support that passes its own simplicity tower."""
        t = self.t
        if not t.is_finite_mode:
            raise ModeMismatch("the descending-chain lemma needs r < n")
        if v.family != FAMILY_Z:
            raise WrongFamily(f"expected a Z-vertex, got {v}")
        if self.depth < 1:
            raise ParameterRange("chain depth K must be >= 1")
        first = _largest_aux(t, KIND_CP, v)
        for step in range(self.depth + 1):
            inst = first._replace(coord=(v.coord[0] + step, v.coord[1]))
            if functors.is_in_c0(t, instance_functor(t, inst)):
                return False  # every layer must be exactly infinite
            if not self._layer_step(v, inst):
                return False
        return True

    def c2_check(self, v: VertexId) -> bool:
        """Case analysis making Hom(v, -) simple one layer up, for a Z-vertex, by
        v's fan entries in order: degree-0 arrows by induction with C-layers,
        degree-1 arrows through the finite-length chain of their target, higher
        degrees by factorisation plus the finite-length chain of the intermediate."""
        t = self.t
        if not t.is_finite_mode:
            raise ModeMismatch("the layer-two case analysis needs r < n")
        if v.family != FAMILY_Z:
            raise WrongFamily(f"expected a Z-vertex, got {v}")
        a, b = v.coord
        i = v.orbit
        aux = {kind: _aux_top(t, _KINDS[kind], i, v.coord) for kind in (KIND_CP, KIND_CPP)}
        rec = model.arrow_fan(t, v)
        for e in rec.entries:
            for (c, d) in regions.enumerate_points(e.region, self.wreg):
                if e.degree == 0:
                    # Induction on c+d with C-layer quotients: the layer is
                    # the C-instance whose shift lands on (c, d).
                    if (c, d) == (a, b):
                        continue
                    kind = KIND_CP if c > a else KIND_CPP
                    sx, sy = _KINDS[kind].shift
                    inst = Simple1Instance(kind, i, (c - sx, d - sy), aux[kind])
                    ok = self._layer_step(v, inst)
                elif e.degree == 1:
                    # The tautological epi from the target representable,
                    # which has a finite-length chain.
                    ok = self.finite1_check(VertexId(e.family, e.orbit, (c, d)))
                else:
                    # Factor through the degree-1 map h1 to the X-intermediate
                    # at (c, a), whose representable has a finite chain.
                    # phi o h1 == f, for phi: (c, a) -> (c, d) and f: v ->
                    # (c, d) each the arrow or zero, holds exactly when phi
                    # exists or f does not: a zero phi gives zero, and an
                    # arrow phi gives the arrow of the summed degree or zero,
                    # which is f by definition.
                    inter = VertexId(FAMILY_X, e.orbit, (c, a))
                    if not model._has_arrow(rec, inter, 1):
                        return False
                    dst = VertexId(e.family, e.orbit, (c, d))
                    phi = model.arrow_exists(t, inter, dst, e.degree - 1)
                    ok = (phi or not model._has_arrow(rec, dst, e.degree)) and self.finite1_check(inter)
                if not ok:
                    return False
        return True


# -- public check operations ---------------------------------------------------


def check_simple0(t: GentleTriple, v: VertexId, window: Window) -> bool:
    s = _Session(t, window, depth=1)
    return s.simple0_check(v)


def check_simple1_tower(
    t: GentleTriple, instance: Simple1Instance, length: int, window: Window
) -> bool:
    if length < 0:
        raise ParameterRange("tower length must be >= 0")
    s = _Session(t, window, depth=length)
    return s.tower_check(instance)


def check_finite1(t: GentleTriple, v: VertexId, window: Window) -> bool:
    s = _Session(t, window, depth=1)
    return s.finite1_check(v)


def check_nonsimple1(t: GentleTriple, v: VertexId, depth: int, window: Window) -> bool:
    s = _Session(t, window, depth=depth)
    return s.nonsimple1_check(v)


def check_c2_simple(t: GentleTriple, v: VertexId, window: Window, depth: int = 4) -> bool:
    s = _Session(t, window, depth=depth)
    return s.c2_check(v)


def check_infinite_mode(t: GentleTriple, window: Window, depth: int) -> bool:
    if t.is_finite_mode:
        raise ModeMismatch("infinite-mode replay needs r == n")
    return certify(t, window, depth).passed


# -- the phases of a certificate ----------------------------------------------


class _Phase(NamedTuple):
    """One record: passed when every representative passes, else failed at
    the first that fails."""

    box: str  # the items come from the vertices of "window", "inner" or "quarter"
    items: Callable  # (session, vertices) -> the items, in order
    check: Callable  # (session, item) -> bool
    params: tuple  # record params besides the window and covers, named as in _run_phases
    witness: Callable = str  # item -> its name in the detail of a failure
    passed: str = ""
    failed: str = "failed at {}"
    key: Callable = _vertex_class  # item -> the key of its translation class


def _tower_instances(s: _Session, verts: list) -> list:
    """Per kind of the mode, each vertex of the kind's family with both
    sample aux values."""
    return [
        Simple1Instance(kind, v.orbit, v.coord, aux)
        for kind in s.mode.kinds
        for spec in (_KINDS[kind],)
        for v in verts
        if v.family == spec.family
        for aux in spec.samples(v.coord[0], _aux_top(s.t, spec, v.orbit, v.coord))
    ]


def _instance_class(inst: Simple1Instance) -> tuple:
    """The key of the instance's translation class."""
    kind, orbit, (a, b), aux = inst
    return (kind, orbit) + _KINDS[kind].cls(a, b, aux)


def _z_vertices(s, verts):
    return [v for v in verts if v.family == FAMILY_Z]


_TRANSLATION = _Phase(
    "window", lambda s, verts: verts, lambda s, v: s.translation_check(v), ("vertices",),
    passed="sigma_x and sigma_y preserve vertices and fan records", key=lambda v: v,
)
_SIMPLE0 = _Phase("inner", lambda s, verts: verts, lambda s, v: s.simple0_check(v), ("vertices",))
_SIMPLE1 = _Phase(
    "inner", _tower_instances, lambda s, inst: s.tower_check(inst),
    ("instances", "length"), Simple1Instance.params, key=_instance_class,
)
_FINITE1 = _Phase(
    "window", lambda s, verts: [v for v in verts if v.family in s.mode.finite1],
    lambda s, v: s.finite1_check(v), ("vertices",),
)
_NONSIMPLE1 = _Phase("inner", _z_vertices, lambda s, v: s.nonsimple1_check(v), ("vertices", "depth"))
_C2SIMPLE = _Phase("inner", _z_vertices, lambda s, v: s.c2_check(v), ("vertices",))
_LAYER0_STRICT = _Phase(
    "quarter", lambda s, verts: verts,
    lambda s, v: not functors.is_in_c0(s.t, functors.representable(s.t, v)), (),
    passed="representables have infinite symbolic support", failed="H at {} unexpectedly finite",
)


# One row per mode, keyed in _MODES by is_finite_mode.
class _Mode(NamedTuple):
    kg: int  # the claimed dimension
    kinds: tuple  # the mode's quotient kinds, in the simple1 phase's order
    finite1: dict  # family -> the kinds of a finite-length step's quotient and sub (None: a gap)
    phases: tuple  # (lemma, _Phase) pairs in record order
    collapse: dict  # the params of the closing collapse_layers record
    collapse_detail: str  # and its detail


_MODES = {
    True: _Mode(
        2, (KIND_BP, KIND_BPP, KIND_CP, KIND_CPP),
        {FAMILY_X: (KIND_BP, KIND_CP), FAMILY_Y: (KIND_BPP, KIND_CPP)},
        (("translation", _TRANSLATION), ("simple0", _SIMPLE0), ("simple1", _SIMPLE1), ("finite1", _FINITE1),
         ("nonsimple1", _NONSIMPLE1), ("c2simple", _C2SIMPLE), ("layer0_strict", _LAYER0_STRICT)),
        {"H_X": 1, "H_Y": 1, "H_Z": 2},
        "X/Y representables collapse one layer up, Z representables two",
    ),
    False: _Mode(
        1, (KIND_B_INF,), {FAMILY_X: (KIND_B_INF, None)},
        (("translation", _TRANSLATION), ("inf_simple0", _SIMPLE0), ("inf_simple1", _SIMPLE1),
         ("inf_finite1", _FINITE1), ("layer0_strict", _LAYER0_STRICT)),
        {"H_X": 1},
        "finite length is reached one layer up",
    ),
}


# -- running the phases ---------------------------------------------------------


def _representatives(window: Window, items: list, key: Callable) -> list:
    """Per translation class of the items (by key), the item nearest the
    window centre in L1 distance, the earliest of those at one distance;
    in item order."""
    cx, cy = window.x0 + window.x1, window.y0 + window.y1  # twice the centre
    best = {}
    for k, item in enumerate(items):
        x, y = item.coord
        d = abs(2 * x - cx) + abs(2 * y - cy)
        cls = key(item)
        if cls not in best or d < best[cls][0]:
            best[cls] = (d, k)
    return [items[k] for k in sorted(k for _, k in best.values())]


def _passes(s: _Session, phase: _Phase, item) -> bool:
    """The item's check; a check that raises a KgcertError fails its item."""
    try:
        return phase.check(s, item)
    except KgcertError:
        return False


# The caches that Certificate.stats sizes, in the order _cache_sizes reads them.
_CACHES = ("tower_memo", "step_memo", "finite1_memo", "engine_cubes", "sink_decisions")


def _cache_sizes(s: _Session) -> dict:
    entries = s.eng._entries.values()
    sizes = (
        len(s._tower_cache), len(s._tower_step_cache), len(s._finite1_cache),
        len(entries), sum(entry[2] is not None for entry in entries),
    )
    return dict(zip(_CACHES, sizes))


def _run_phases(s: _Session) -> bool:
    """Record every phase of the session's mode, then collapse_layers; True
    iff every phase passed.  A phase checks one representative per
    translation class of its items, up to the first that fails, which its
    record names; a phase with no items fails, since it gathered no
    evidence."""
    inner = s.window.inner_half()
    boxes = {"window": s.window, "inner": inner, "quarter": inner.inner_half()}
    verts = {name: model.vertices_in_box(s.t, *box.box) for name, box in boxes.items()}
    ok_all = True
    for lemma, phase in s.mode.phases:
        box = boxes[phase.box]
        items = phase.items(s, verts[phase.box])
        reps = _representatives(s.window, items, phase.key)
        t0 = time.perf_counter()
        failed = next((k for k, item in enumerate(reps) if not _passes(s, phase, item)), -1)
        ok = failed < 0 and len(reps) > 0
        checked = len(reps) if failed < 0 else failed + 1
        s.stats["phases"].append({
            "lemma": lemma,
            "items": len(reps),
            "covers": len(items),
            "checked": checked,
            "seconds": time.perf_counter() - t0,
        })
        values = {"vertices": len(reps), "instances": checked, "length": s.depth, "depth": s.depth}
        ok_all &= s.record(
            lemma,
            {"window": list(box.box), **{name: values[name] for name in phase.params}, "covers": len(items)},
            ok,
            phase.passed if ok
            else phase.failed.format(phase.witness(reps[failed])) if reps else "no items",
        )
    s.stats["caches"] = _cache_sizes(s)
    s.record("collapse_layers", dict(s.mode.collapse), ok_all, s.mode.collapse_detail)
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

    ``stats`` of the result gives, per phase, the representatives, the box
    items they cover, the representatives checked and the seconds taken,
    and the sizes of the session's memos and of the engine's caches.
    """
    if depth < 1:
        raise ParameterRange(f"depth must be >= 1, got {depth}")
    s = _Session(t, window, depth)
    ok = _run_phases(s)
    return Certificate(
        triple=t,
        kg=s.mode.kg,
        window=window,
        depth=depth,
        checks=s.records,
        verdict="pass" if ok else "fail",
        stats=s.stats,
    )
