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
phase list.  Infinite constructions are verified to a configurable depth
K, which also bounds every swept chain point's L1 distance from its top: a
case analysis at top (a, b) clips each chain line to the window met with
the depth box [a-K, a+K] x [b-K, b+K] before it enumerates the line's
points, then skips the box's points beyond L1 distance K, so the points
checked and their order are those of the whole window's line.  The
certificate records window, depth and every check outcome.

The model has a rank-2 translation group: sigma_x moves X-vertices by
(1, 1) and Z-vertices by (1, 0), sigma_y moves Y-vertices by (1, 1) and
Z-vertices by (0, 1), and neither changes an orbit.  The first phase,
``translation``, checks on the window that both maps carry vertices to
vertices and fan records to fan records.  It reads each window vertex's
record once, as a normal form: the record moved back to its class base by
the group element that carries the base to the vertex.  A record is the
moved record of its neighbour exactly when their normal forms are equal,
and the session interns the forms (``Certificate.stats["caches"]
["translation_forms"]`` counts them: one per class on the model).  Each
vertex's form is built once and memoised with the record it was read from;
the translates' coordinates are tested against the window before any
VertexId is built for them.  Every translation item is its own class.
Every later phase then checks one representative per translation class of its
items, the item nearest the window centre (L1, ties by item order), with
the classes keyed by:

* a Z-vertex: (family, orbit); an X- or Y-vertex: (family, orbit, a - b);
* a simple1 instance: (kind, orbit) and its kind's invariants (``_Kind.cls``):
  a - b for B' and B'', aux - a for C', aux - b for C'', and both a - b
  and aux - a for B.

A finite1 walk runs along its row from the border down to its vertex,
through the classes of the steps in a fixed order.  When r == n each step
decides a symbolic gap from fan records alone, so the finite1 memo is kept
per class and each class is stepped once per session.  When r < n each step
compares kernels clipped to the window, whose evidence depends on where the
step sits, so the memo is kept per vertex.
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
    MalformedModel,
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
from .presentation import GentleTriple, validate_triple
from .regions import NEG_INF, POS_INF, Region

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


def _box(lo_x=NEG_INF, hi_x=POS_INF, lo_y=NEG_INF, hi_y=POS_INF) -> Region:
    """A case row's region, built unchecked: the rows build it only from an
    instance's a, b and aux, which its read (_Session._instance) has found
    to be ints."""
    return regions._unchecked(lo_x, hi_x, lo_y, hi_y)


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
            _Factor((FAMILY_X, 0, 0), lambda a, b, aux: _box(lo_x=a + 1), _F),
            _Chain((FAMILY_X, 0, 0), lambda a, b, aux: _box(lo_x=a, hi_x=a, lo_y=b + 1), (0, -1), (0, 0)),
            _Factor((FAMILY_Z, 0, 1), lambda a, b, aux: _box(lo_x=a + 1), _F),
            _Factor((FAMILY_Z, 0, 1), lambda a, b, aux: _box(lo_x=a, hi_x=a, lo_y=aux), _G),
            _Chain((FAMILY_Z, 0, 1), lambda a, b, aux: _box(lo_x=a, hi_x=a, hi_y=aux - 1), (0, 0), (0, 1)),
            _Factor((FAMILY_X, 1, 2), None, _G),
        ),
    ),
    KIND_BPP: _Kind(
        FAMILY_Y, (1, 0), (FAMILY_Z, 0, 1), lambda a, b, aux: (aux, a),
        None, lambda a, top: (0, a), lambda a, b, aux: (a - b,),
        (
            _Factor((FAMILY_Y, 0, 0), lambda a, b, aux: _box(lo_x=a + 1), _F),
            _Chain((FAMILY_Y, 0, 0), lambda a, b, aux: _box(lo_x=a, hi_x=a, lo_y=b + 1), (0, -1), (0, 0)),
            _Factor((FAMILY_Z, 0, 1), lambda a, b, aux: _box(lo_y=a + 1), _F),
            _Factor((FAMILY_Z, 0, 1), lambda a, b, aux: _box(lo_y=a, hi_y=a, lo_x=aux), _G),
            _Chain((FAMILY_Z, 0, 1), lambda a, b, aux: _box(lo_y=a, hi_y=a, hi_x=aux - 1), (0, 0), (1, 0)),
            _Factor((FAMILY_Y, 1, 2), None, _G),
        ),
    ),
    KIND_CP: _Kind(
        FAMILY_Z, (1, 0), (FAMILY_X, 1, 1), lambda a, b, aux: (aux, a),
        lambda a, b, m, n: a + m + 1, lambda a, top: (top, top - 3), lambda a, b, aux: (aux - a,),
        (
            _Factor((FAMILY_Z, 0, 0), lambda a, b, aux: _box(lo_x=a + 1), _F),
            _Chain((FAMILY_Z, 0, 0), lambda a, b, aux: _box(lo_x=a, hi_x=a, lo_y=b + 1), (0, -1), (0, 0)),
            _Factor((FAMILY_X, 1, 1), lambda a, b, aux: _box(lo_y=a + 1), _F),
            _Factor((FAMILY_X, 1, 1), lambda a, b, aux: _box(lo_y=a, hi_y=a, lo_x=aux), _G),
            _Chain((FAMILY_X, 1, 1), lambda a, b, aux: _box(lo_y=a, hi_y=a, hi_x=aux - 1), (0, 0), (1, 0)),
            _Factor((FAMILY_Y, 1, 1), None, _F),
            _Factor((FAMILY_Z, 1, 2), None, _F),
        ),
    ),
    KIND_CPP: _Kind(
        FAMILY_Z, (0, 1), (FAMILY_Y, 1, 1), lambda a, b, aux: (aux, b),
        lambda a, b, m, n: b - n + 1, lambda a, top: (top, top - 3), lambda a, b, aux: (aux - b,),
        (
            _Factor((FAMILY_Z, 0, 0), lambda a, b, aux: _box(lo_y=b + 1), _F),
            _Chain((FAMILY_Z, 0, 0), lambda a, b, aux: _box(lo_y=b, hi_y=b, lo_x=a + 1), (-1, 0), (0, 0)),
            _Factor((FAMILY_X, 1, 1), None, _F),
            _Factor((FAMILY_Y, 1, 1), lambda a, b, aux: _box(lo_y=b + 1), _F),
            _Factor((FAMILY_Y, 1, 1), lambda a, b, aux: _box(lo_y=b, hi_y=b, lo_x=aux), _G),
            _Chain((FAMILY_Y, 1, 1), lambda a, b, aux: _box(lo_y=b, hi_y=b, hi_x=aux - 1), (0, 0), (1, 0)),
            _Factor((FAMILY_Z, 1, 2), None, _F),
        ),
    ),
    KIND_B_INF: _Kind(
        FAMILY_X, (1, 0), (FAMILY_X, 1, 1), lambda a, b, aux: (aux, a),
        lambda a, b, m, n: a + m, lambda a, top: (top, top - 2), lambda a, b, aux: (a - b, aux - a),
        (
            _Factor((FAMILY_X, 0, 0), lambda a, b, aux: _box(lo_x=a + 1), _F),
            _Chain((FAMILY_X, 0, 0), lambda a, b, aux: _box(lo_x=a, hi_x=a, lo_y=b + 1), (0, -1), (0, 0)),
            _Factor((FAMILY_X, 1, 1), lambda a, b, aux: _box(lo_y=a + 1), _F),
            _Factor((FAMILY_X, 1, 1), lambda a, b, aux: _box(lo_y=a, hi_y=a, lo_x=aux), _G),
            _Chain((FAMILY_X, 1, 1), lambda a, b, aux: _box(lo_y=a, hi_y=a, hi_x=aux - 1), (0, 0), (1, 0)),
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


def _in_row_entry(e: model.FanEntry, src: VertexId, x: int, y: int) -> bool:
    """_exists(rec, VertexId(e.family, e.orbit, (x, y)), e.degree) for e the
    entry of its channel and degree in src's fan record rec, on coordinates:
    the identity at src itself when e has degree 0, else model._in_entry's
    rule in e (src excluded when e excludes it, then e's region).  A chain
    point's u and extra arrow lie in its row's channel at the row entry's
    degree, so the case analysis builds no VertexId to test them."""
    if src.coord == (x, y) and e.family == src.family and e.orbit == src.orbit:
        if e.degree == 0:
            return True
        if e.excludes_src:
            return False
    return regions.member(e.region, (x, y))


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


def _exponents(v: VertexId) -> tuple:
    """(p, q) with sigma_x^p sigma_y^q carrying the base of v's translation
    class, the class member with b = 0 (a = 0 too for a Z-vertex), to v."""
    a, b = v.coord
    return (a, b) if v.family == FAMILY_Z else (b, 0) if v.family == FAMILY_X else (0, b)


def _moved_record(rec: model.ArrowFan, p: int, q: int) -> tuple:
    """The fan record rec moved by sigma_x^p sigma_y^q, as one tuple: per
    entry the tuple of its channel, excludes_src flag and six bounds, then
    per sink map None when it is zero, else the tuple of its target's
    family, orbit and coordinate.  Each family moves by its own shift, and
    a shift (dx, dy) moves the bounds of x - y by dx - dy."""
    shift = {FAMILY_X: (p, p), FAMILY_Y: (q, q), FAMILY_Z: (p, q)}  # the shifts of _SIGMAS, p and q times
    out = []
    for family, orbit, degree, (lo_x, hi_x, lo_y, hi_y, lo_d, hi_d), excludes_src in rec.entries:
        if family not in shift:
            raise MalformedModel(f"{rec.src} has a fan entry into family {family!r}, which no translation moves")
        dx, dy = shift[family]
        dd = dx - dy
        out.append((family, orbit, degree, excludes_src, lo_x + dx, hi_x + dx, lo_y + dy, hi_y + dy, lo_d + dd, hi_d + dd))
    for f in rec.sinks:
        if f is ZERO:
            out.append(None)
        else:
            (dx, dy), (x, y) = shift[f.dst.family], f.dst.coord
            out.append((f.dst.family, f.dst.orbit, x + dx, y + dy))
    return tuple(out)


def _vertex_class(v: VertexId) -> tuple:
    """The key of v's translation class."""
    if v.family == FAMILY_Z:
        return v.family, v.orbit
    a, b = v.coord
    return v.family, v.orbit, a - b


def _same(v: VertexId) -> VertexId:
    """The key of v alone."""
    return v


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
    the zero morphism, per the zero-map convention.  An aux of another type
    than int (a bool, float or int subclass) raises ParameterRange.
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
    if type(aux) is not int:  # a bool, float or int subclass would name a generator target that is no vertex
        raise ParameterRange(f"aux must be an int, got {aux!r}")
    a, b = coord
    top = VertexId(spec.family, orbit, coord)
    rec = model.arrow_fan(t, top)  # InvalidVertex when top is not a vertex
    hi = _aux_top(t, spec, orbit, coord)
    if hi is not None and aux > hi:
        raise ParameterRange(f"aux must be <= {hi} for {kind} at {top}, got {aux}")
    sx, sy = spec.shift
    family, g_orbit, degree = _channel(t, orbit, spec.gen)
    f_dst = VertexId(spec.family, orbit, (a + sx, b + sy))
    g_dst = VertexId(family, g_orbit, spec.gen_coord(a, b, aux))
    f = ArrowMorphism(top, f_dst, 0) if model._has_arrow(rec, f_dst, 0) else ZERO
    g = ArrowMorphism(top, g_dst, degree) if model._has_arrow(rec, g_dst, degree) else ZERO
    return top, rec, (f, g)


def instance_functor(t: GentleTriple, inst: Simple1Instance) -> FpFunctor:
    return build_simple1(t, inst.kind, inst.orbit, inst.coord, inst.aux)


class _Session:
    """Shared engine, caches and record sink for one certification run: the
    triple (validated, so an inadmissible one raises OmegaViolation), its
    mode row, the window and its region, and the depth (tower length, chain
    depth K and the L1 bound of every chain sweep)."""

    def __init__(self, t: GentleTriple, window: Window, depth: int):
        self.t = t = validate_triple(*t)
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
        self._forms: dict = {}  # the interned normal forms of fan records
        self._form_at: dict = {}  # vertex -> (its fan record, (the record's normal form, sinks_ok))
        self._fixed_by: dict = {}  # (sigma index, normal form) -> whether sigma fixes the form
        self._parts: dict = {}  # Simple1Instance -> _simple1_parts of it, successes only
        self._read: tuple = (None, None)  # (the parts, self._instance(inst)) of the last instance read

    def record(self, lemma: str, params: dict, passed: bool, detail: str = "") -> bool:
        self.records.append(CheckRecord(lemma, params, passed, detail))
        return passed

    # -- small helpers ------------------------------------------------------

    def _instance_parts(self, inst: Simple1Instance) -> tuple:
        """(top, the top's fan record, the generators (f, g)) of a simple1
        instance, as _simple1_parts gives them, raising where it raises.
        Memoised per instance for the session, parts that raise excepted.
        The memo is read only once the orbit, coordinates and aux are of
        type int, as the engine's _vertex rule does before its cube cache:
        the memo keys on equality, and an instance on orbit True equals its
        twin on orbit 1.  _simple1_parts raises for any other type."""
        _, orbit, (a, b), aux = inst
        if not (type(orbit) is int and type(a) is int and type(b) is int and type(aux) is int):
            return _simple1_parts(self.t, *inst)
        parts = self._parts.get(inst)
        if parts is None:
            parts = self._parts[inst] = _simple1_parts(self.t, *inst)
        return parts

    def _instance(self, inst: Simple1Instance) -> tuple:
        """(top, the top's fan record, the generators (f, g), the denominator
        image) of a simple1 instance: the parts of _instance_parts, which
        instance_functor gives, raising where it raises, and the image of
        the generators.  The parts are kept for the session; the image only
        for the last read (an image per instance raises peak memory by half
        or more): a case analysis reads the instance that its layer step
        just read, a tower's first step the one its case analysis read, and
        each later step the one the step below read as its sub.  The last
        read is known by its parts object, one per memoised instance, so it
        is found only after _instance_parts has applied the int rule."""
        parts = self._instance_parts(inst)
        read = self._read
        if read[0] is not parts:
            top, rec, gens = parts
            den = 0
            for f in gens:
                if f is not ZERO:
                    den |= self.eng._image(top, f.dst, f.degree)
            read = self._read = parts, (top, rec, gens, den)
        return read[1]

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
        depth (L1) of the top.  u and the extra arrow of a chain point lie in
        the row's channel at its entry's degree, so their existence is that
        entry's rule on coordinates (_in_row_entry), and a VertexId is built
        only for the engine.  Each chain point ORs the image of its own
        extra arrow into the instance's denominator image, and reads the
        sink-map image at u's target from the engine's sink decision.  Each
        chain line is clipped to the window met with the depth box around
        the top before its points are enumerated (see the module
        docstring)."""
        t, eng, K, w = self.t, self.eng, self.depth, self.window
        top, rec, gens, den = self._instance(inst)
        a, b = top.coord
        aux = inst.aux
        # the window met with the depth box, which holds every point within L1 depth K of the top
        sweep = regions.box(max(w.x0, a - K), min(w.x1, a + K), max(w.y0, b - K), min(w.y1, b + K))
        for row in _KINDS[inst.kind].rows:
            e = rec.channels.get(_channel(t, inst.orbit, row.key))
            if e is None:
                return False  # the row names no channel of the top's fan
            if isinstance(row, _Factor):
                split = e.region
                if row.split is not None:
                    split = regions.intersect(split, row.split(a, b, aux))
                if not self._factors_region(split, gens[row.gen], e):
                    return False
                continue
            line = regions.intersect(e.region, row.line(a, b, aux))
            (ux, uy), (mx, my) = row.u, row.mod
            family, orbit, p = e.family, e.orbit, e.degree
            for x, y in regions.enumerate_points(line, sweep):
                if abs(x - a) + abs(y - b) > K:
                    continue
                if not _in_row_entry(e, top, x + ux, y + uy):
                    return False
                S = VertexId(family, orbit, (x + ux, y + uy))
                mod = den
                if _in_row_entry(e, top, x + mx, y + my):
                    mod |= eng._image(top, VertexId(family, orbit, (x + mx, y + my)), p)
                if eng._kernel(top, S, p, mod) != eng._sink_image(S):
                    return False
        return True

    # -- the translation group --------------------------------------------------

    def _normal_form(self, v: VertexId, rec: model.ArrowFan) -> tuple:
        """(the normal form of v's fan record rec, sinks_ok).  The normal
        form is rec moved back by the sigma_x^p sigma_y^q that carries the
        base of v's class to v (_exponents), interned, so every vertex of a
        class of the model shares one.  sinks_ok: each sink map of rec is
        zero or an arrow out of v at degree 0.  Memoised per vertex with the
        record it was read from, so a record that changes is read again."""
        hit = self._form_at.get(v)
        if hit is not None and hit[0] is rec:
            return hit[1]
        p, q = _exponents(v)
        form = _moved_record(rec, -p, -q)
        sinks_ok = True
        for f in rec.sinks:
            if f is not ZERO and (f.src != v or f.degree != 0):
                sinks_ok = False
                break
        out = self._forms.setdefault(form, form), sinks_ok
        self._form_at[v] = rec, out
        return out

    def translation_check(self, v: VertexId) -> bool:
        """For sigma_x and sigma_y, at a vertex v: wherever sigma v lies in
        the window, it is a vertex whose fan record (entries with their
        excludes_src flags, and the sink pair) is v's record moved by sigma,
        with its sink maps out of sigma v at degree 0; wherever sigma^-1 v
        lies in the window, it is a vertex.  Over the window's vertices, so,
        sigma w is a vertex exactly when w is one, for every w with both in
        the window.

        Records are compared by their normal forms (_normal_form): each
        record moved back to its class base.  The session interns them, so
        equal forms are one object, and stats["caches"]["translation_forms"]
        counts them.  When sigma moves v's family, sigma v's class base is
        v's, and the record at sigma v is v's moved by sigma exactly when
        the two normal forms are equal.  When sigma fixes it (sigma_y on X,
        sigma_x on Y), sigma v and sigma^-1 v are v, and v's record must be
        fixed by sigma, which is decided once per normal form.  A
        translate's coordinates are tested against the window before its
        VertexId is built."""
        t = self.t
        x0, x1, y0, y1 = self.window.box
        rec = model.arrow_fan(t, v)
        form, sinks_ok = self._normal_form(v, rec)
        family, orbit, (a, b) = v
        for k, sigma in enumerate(_SIGMAS):
            dx, dy = sigma[family]
            if dx == dy == 0:
                if not (x0 <= a <= x1 and y0 <= b <= y1):
                    continue
                if not (model.vertex_valid(t, v) and sinks_ok):
                    return False
                fixed = self._fixed_by.get((k, form))
                if fixed is None:
                    p, q = _exponents(v)  # sigma is sigma_x^(1-k) sigma_y^k
                    fixed = self._fixed_by[(k, form)] = _moved_record(rec, 1 - k - p, k - q) == form
                if not fixed:
                    return False
                continue
            x, y = a - dx, b - dy
            if x0 <= x <= x1 and y0 <= y <= y1 and not model.vertex_valid(t, VertexId(family, orbit, (x, y))):
                return False
            x, y = a + dx, b + dy
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                continue
            u = VertexId(family, orbit, (x, y))
            image = model._record(t, u)
            if image is None:
                return False
            image_form, image_sinks_ok = self._normal_form(u, image)
            if not image_sinks_ok or image_form is not form:
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
        first filtration layer.

        The walk runs along v's row from the border down to v, and the memo
        holds, per step, the AND of every step from the border down to it.
        When the mode's step is symbolic (sub kind None, r == n) it reads fan
        records only, so its verdict is its translation class's: the border
        lies at b + hi_d on every row, the walk visits the classes hi_d,
        hi_d - 1, ..., a - b in that order, and the memo is keyed per class.
        When the step compares kernels clipped to the window (r < n), its
        evidence depends on where it sits, and the memo is keyed per vertex.
        The family and vertex checks come first, so a memo hit skips neither."""
        t = self.t
        if v.family not in self.mode.finite1:
            raise WrongFamily(f"no finite-length chain starts at {v} in this mode")
        if not model.vertex_valid(t, v):
            raise InvalidVertex(f"not a vertex of the model: {v}")
        key = _vertex_class if self.mode.finite1[v.family][1] is None else _same
        hit = self._finite1_cache.get(key(v))
        if hit is not None:
            return hit
        a, b = v.coord
        i = v.orbit
        border = b + model.index_regions(t)[(v.family, i)].hi_d  # the largest a at this b
        ok = True
        for c in range(border, a - 1, -1):
            w = VertexId(v.family, i, (c, b))
            k = key(w)
            cached = self._finite1_cache.get(k)
            if cached is not None:
                ok = cached
                continue
            ok = ok and self._finite1_step(w, c == border)
            self._finite1_cache[k] = ok
        return ok  # the last w is v itself: a vertex has a <= border

    def _finite1_step(self, w: VertexId, at_border: bool) -> bool:
        """One induction step at w.  The B-kind quotient at w is H_w/<f, g>:
        f the x-shift (zero exactly at the border), g the kind's map.  r < n:
        0 -> C-object -> H_w/<f> -> B-object -> 0, induced by g, for the
        C-object at g's target.  <f, g> contains <f> and is <f> plus the
        image of g by construction, so comparing the kernel of (- o g) modulo
        f with the C-object's denominator is the whole exactness check.
        r == n: the gap between <f, g> and <f> has finite symbolic support.
        The r < n step takes f and g from the session's memo of instance
        parts; the r == n step builds the quotient by instance_functor."""
        t = self.t
        quot_kind, sub_kind = self.mode.finite1[w.family]
        quot = _largest_aux(t, quot_kind, w)
        if sub_kind is None:
            f, g = instance_functor(t, quot).denominators.generators
        else:
            f, g = self._instance_parts(quot)[2]
        if at_border != isinstance(f, ZeroMorphism) or isinstance(g, ZeroMorphism):
            return False
        if sub_kind is None:
            gap = functors.quotient_support(t, Subfunctor(w, (f, g)), Subfunctor(w, (f,)))
            return all(rs.is_finite() for rs in gap.values())
        den = self._instance(_largest_aux(t, sub_kind, g.dst))[3]
        mod = 0 if f is ZERO else self.eng._image(w, f.dst, f.degree)
        return self.eng._kernel(w, g.dst, g.degree, mod) == den

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
    passed="sigma_x and sigma_y preserve vertices and fan records", key=_same,
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
    # family -> the kinds of a finite-length step's quotient and sub (None: a
    # symbolic gap, which finite1_check memoises per class)
    finite1: dict
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
    in item order.  Under the key _same each item is its own class, so the
    representatives are the items, the first of any equal ones."""
    if key is _same:
        return list(dict.fromkeys(items))
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
_CACHES = (
    "translation_forms", "tower_memo", "step_memo", "finite1_memo", "instance_parts",
    "engine_cubes", "sink_decisions", "box_masks",
)


def _cache_sizes(s: _Session) -> dict:
    entries = s.eng._entries.values()
    sizes = (
        len(s._forms), len(s._tower_cache), len(s._tower_step_cache), len(s._finite1_cache), len(s._parts),
        len(entries), sum(entry[2] is not None for entry in entries), len(s.eng._columns),
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
    would check no tower step or chain point, so it is rejected, and so is
    an inadmissible triple (``OmegaViolation``).

    ``stats`` of the result gives, per phase, the representatives, the box
    items they cover, the representatives checked and the seconds taken,
    and the sizes of the session's memos and of the engine's caches.
    """
    if depth < 1:
        raise ParameterRange(f"depth must be >= 1, got {depth}")
    s = _Session(t, window, depth)
    ok = _run_phases(s)
    return Certificate(
        triple=s.t,
        kg=s.mode.kg,
        window=window,
        depth=depth,
        checks=s.records,
        verdict="pass" if ok else "fail",
        stats=s.stats,
    )
