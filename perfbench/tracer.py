"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions of the kgcert layers with
wrappers that count calls and, for the functions listed as timed, measure
self time: a span's duration minus the time of the timed spans it encloses.
Count-only wrappers stay off the span stack, so the time of a count-only
leaf lands in the self time of the nearest timed span around it.  Leaves
called millions of times per certificate get counts only, to keep the
overhead down.

Certifier phases are timed as the interval between consecutive
``_Session.record`` calls, keyed by the recorded lemma; the first interval
starts when :meth:`Tracer.start_phases` is called, just before ``certify``.

Traced times are inflated by the wrappers (``trace.overhead``) and by the
speed sampler's chunks (about 2%, see speed.py), which land in whichever
span is open.  ``install`` patches module attributes and class attributes
in place and ``restore`` puts every original back.  Wrapping ``engine.get_engine`` would
not reach the certifier, which binds it by ``from .engine import``; the
engine is therefore traced through ``WindowEngine``'s methods.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

PHASES = (
    "simple0",
    "simple1",
    "finite1",
    "nonsimple1",
    "c2simple",
    "layer0_strict",
    "inf_simple0",
    "inf_simple1",
    "inf_finite1",
)

# Every per-layer metric, with the end-to-end metric and workload it should
# move.  BENCHMARK.json lists the same names; run.py reports them with --trace 1.
PER_LAYER = [
    *[
        (f"certifier.phase.{p}.s", "s", "wall_s and op_tail_ms on acceptance and wide")
        for p in PHASES
    ],
    ("certifier.tower_check.calls", "count", "acceptance wall_s"),
    ("certifier.instance_functor.calls", "count", "acceptance wall_s"),
    ("certifier.instance_functor.distinct", "count", "acceptance wall_s"),
    ("certifier.build_simple0.calls", "count", "acceptance wall_s"),
    ("certifier.build_simple1.calls", "count", "acceptance wall_s"),
    ("engine.image_cube.calls", "count", "acceptance wall_s; no change on queries"),
    ("engine.image_cube.distinct", "count", "acceptance wall_s; no change on queries"),
    ("engine.image_cube.s", "s", "acceptance wall_s; no change on queries"),
    ("engine.kernel_matches.calls", "count", "acceptance wall_s; no change on queries"),
    ("engine.kernel_matches.s", "s", "acceptance wall_s; no change on queries"),
    ("engine.ses_foreign.calls", "count", "acceptance wall_s; no change on queries"),
    ("engine.ses_foreign.s", "s", "acceptance wall_s; no change on queries"),
    ("engine.dims_cube.calls", "count", "acceptance wall_s; no change on queries"),
    ("engine.dims_cube.s", "s", "acceptance wall_s; no change on queries"),
    ("engine.dims_at_vertices.s", "s", "acceptance wall_s; no change on queries"),
    ("engine.vertices.s", "s", "acceptance wall_s; no change on queries"),
    ("engine.cube.calls", "count", "wide peak_rss_mb and wall_s"),
    ("engine.cube.built", "count", "wide peak_rss_mb and wall_s"),
    ("engine.cube.bytes", "bytes_computed", "wide peak_rss_mb and wall_s"),
    *[
        (f"model.{f}.calls", "count", "acceptance wall_s")
        for f in (
            "vertex_valid",
            "index_region",
            "arrow_exists",
            "arrow_or_zero",
            "arrow_fan",
            "ar_sink_maps",
        )
    ],
    ("presentation.orbit_count.reads", "count", "acceptance wall_s"),
    ("model.hom_basis.calls", "count", "queries op_p50_ms"),
    ("model.hom_basis.s", "s", "queries op_p50_ms"),
    ("model.compose.calls", "count", "queries op_p50_ms"),
    ("functors.eval_fp.calls", "count", "queries op_p50_ms"),
    ("functors.eval_fp.s", "s", "queries op_p50_ms"),
    ("regions.enumerate_points.calls", "count", "wide wall_s"),
    ("regions.enumerate_points.s", "s", "wide wall_s"),
    ("regions.enumerate_points.scanned", "count", "wide wall_s"),
    ("regions.enumerate_points.returned", "count", "wide wall_s"),
    ("regions.enumerate_points.yield", "ratio", "wide wall_s"),
    ("regions.subtract.calls", "count", "queries ops_per_s and op_tail_ms"),
    ("regions.subtract.s", "s", "queries ops_per_s and op_tail_ms"),
    ("regions.close.calls", "count", "queries ops_per_s and op_tail_ms"),
    ("regions.close.s", "s", "queries ops_per_s and op_tail_ms"),
    ("regions.intersect.calls", "count", "queries ops_per_s and op_tail_ms"),
    ("regions.Region.created", "count", "queries ops_per_s and op_tail_ms"),
    ("regions.member.calls", "count", "queries ops_per_s and op_tail_ms"),
    ("functors.support_channels.calls", "count", "queries ops_per_s and op_tail_ms"),
    ("functors.support_channels.s", "s", "queries ops_per_s and op_tail_ms"),
    ("functors.quotient_support.calls", "count", "queries ops_per_s and op_tail_ms; wide wall_s"),
    ("functors.quotient_support.s", "s", "queries ops_per_s and op_tail_ms; wide wall_s"),
    ("functors.is_in_c0.calls", "count", "queries ops_per_s and op_tail_ms"),
    ("trace.overhead", "ratio", "none: traced wall_s / untraced wall_s"),
]


def _image_cube_key(eng, top, gens):
    return (eng.x0, eng.x1, eng.y0, eng.y1, top, tuple(gens))


class Tracer:
    """Counters, self times and phase times for one traced run."""

    def __init__(self):
        self._cells = {}  # name -> [calls, self seconds]
        self.distinct = defaultdict(set)
        self.phase_s = defaultdict(float)
        self._stack = [0.0]
        self._phase_mark = None
        self._patches = []

    def _cell(self, name):
        return self._cells.setdefault(name, [0, 0.0])

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, timed=False, key=None, after=None):
        """A wrapper counting calls to fn under name, optionally timing them,
        collecting distinct argument keys and passing results to after.
        The plain counting wrapper is kept minimal: it runs millions of times."""
        cell = self._cell(name)
        if not (timed or key or after):

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        seen = self.distinct[name] if key is not None else None
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if key is not None:
                seen.add(key(*args, **kwargs))
            if timed:
                stack.append(0.0)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    cell[1] += dt - stack.pop()
                    stack[-1] += dt
            else:
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _patch(self, owner, attr, name, **opts):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, property):
            setattr(owner, attr, property(self._wrap(name, original.fget, **opts)))
        else:
            setattr(owner, attr, self._wrap(name, original, **opts))

    # -- install / restore ----------------------------------------------------

    def install(self, kg):
        """Wrap the layers of the imported kgcert package ``kg``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        regions, model, functors = kg.regions, kg.model, kg.functors
        engine, certifier = kg.engine, kg.certifier
        p = self._patch
        enumerate_after = self._enumerate_after(regions)

        for name in ("member", "intersect"):
            p(regions, name, f"regions.{name}")
        for name in ("close", "subtract"):
            p(regions, name, f"regions.{name}", timed=True)
        p(
            regions,
            "enumerate_points",
            "regions.enumerate_points",
            timed=True,
            after=enumerate_after,
        )
        p(regions.Region, "__post_init__", "regions.Region")
        p(kg.presentation.GentleTriple, "orbit_count", "presentation.orbit_count")

        for name in (
            "vertex_valid",
            "index_region",
            "arrow_exists",
            "arrow_or_zero",
            "arrow_fan",
            "ar_sink_maps",
            "compose",
        ):
            p(model, name, f"model.{name}")
        p(model, "hom_basis", "model.hom_basis", timed=True)

        for name in ("eval_fp", "support_channels", "quotient_support"):
            p(functors, name, f"functors.{name}", timed=True)
        p(functors, "is_in_c0", "functors.is_in_c0")

        eng = engine.WindowEngine
        p(eng, "image_cube", "engine.image_cube", timed=True, key=_image_cube_key)
        for name in ("kernel_matches", "ses_foreign", "dims_cube", "dims_at_vertices", "vertices"):
            p(eng, name, f"engine.{name}", timed=True)
        p(eng, "cube", "engine.cube")
        p(kg._kernels, "fan_cube", "engine.cube.built", after=self._cube_after)

        session = certifier._Session
        p(session, "tower_check", "certifier.tower_check")
        self._patches.append((session, "record", session.__dict__["record"]))
        session.record = self._record_wrapper(session.__dict__["record"])
        p(
            certifier,
            "instance_functor",
            "certifier.instance_functor",
            key=lambda t, inst: inst,
        )
        p(certifier, "build_simple0", "certifier.build_simple0")
        p(certifier, "build_simple1", "certifier.build_simple1")

    def restore(self):
        """Put back every original attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- extra measurements ---------------------------------------------------

    def _enumerate_after(self, regions):
        """Points scanned and returned by enumerate_points, which tests every
        point of the window's bounding box.  Binds the closure before it is
        wrapped, so the measurement adds no calls to the counted functions."""
        scanned_cell = self._cell("regions.enumerate_points.scanned")
        returned_cell = self._cell("regions.enumerate_points.returned")
        close = regions.__dict__["close"]

        def after(out, r, window):
            scanned = 0
            if r is not regions.EMPTY and window is not regions.EMPTY:
                w = close(window)
                if w is not regions.EMPTY:
                    scanned = (int(w.hi_x) - int(w.lo_x) + 1) * (int(w.hi_y) - int(w.lo_y) + 1)
            scanned_cell[0] += scanned
            returned_cell[0] += len(out)

        return after

    def _cube_after(self, out, *args, **kwargs):
        self._cell("engine.cube.bytes")[0] += int(out.nbytes)

    def _record_wrapper(self, record):
        phase_s = self.phase_s
        clock = time.perf_counter

        def wrapper(session, lemma, *args, **kwargs):
            now = clock()
            if self._phase_mark is not None:
                phase_s[lemma] += now - self._phase_mark
            self._phase_mark = now
            return record(session, lemma, *args, **kwargs)

        return wrapper

    def start_phases(self):
        """Mark the start of the first certifier phase (call before certify)."""
        self._phase_mark = time.perf_counter()

    # -- results --------------------------------------------------------------

    def snapshot(self, time_scale: float = 1.0) -> dict:
        """Plain-data totals, mergeable across worker processes by :func:`merge`.
        Times are multiplied by time_scale, which converts them to reference
        seconds (see speed.py)."""
        return {
            "calls": {name: cell[0] for name, cell in self._cells.items()},
            "self_s": {
                name: cell[1] * time_scale for name, cell in self._cells.items() if cell[1]
            },
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "phase_s": {k: v * time_scale for k, v in self.phase_s.items()},
        }


def merge(snapshots) -> dict:
    """Sum the snapshots of several traced processes."""
    out = {"calls": Counter(), "self_s": Counter(), "distinct": Counter(), "phase_s": Counter()}
    for snap in snapshots:
        for part, values in snap.items():
            out[part].update(values)
    return out


def per_layer_metrics(totals: dict, overhead: float) -> dict:
    """The PER_LAYER metrics from merged snapshots, as {name: value}."""
    calls, self_s = totals["calls"], totals["self_s"]
    distinct, phase_s = totals["distinct"], totals["phase_s"]
    out = {}
    for name, _unit, _moves in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name.startswith("certifier.phase."):
            value = phase_s.get(base[len("certifier.phase."):], 0.0)
        elif name == "trace.overhead":
            value = overhead
        elif name == "regions.enumerate_points.yield":
            scanned = calls.get("regions.enumerate_points.scanned", 0)
            value = calls.get("regions.enumerate_points.returned", 0) / scanned if scanned else 0.0
        elif field == "s":
            value = self_s.get(base, 0.0)
        elif field == "distinct":
            value = distinct.get(base, 0)
        elif field in ("calls", "reads", "created"):
            value = calls.get(base, 0)
        else:
            value = calls.get(name, 0)
        out[name] = value
    return out
