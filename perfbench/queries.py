"""The ``queries`` workload: a seeded stream of symbolic calculator queries.

One query is a random finitely presented functor over one of the six
acceptance triples: a top vertex in [-8, 8]^2 with 0 to 3 arrow generators.
Answering it calls ``support_region``, ``is_in_c0``, ``quotient_support``
(all generators against all but the last) and ``eval_fp`` at 16 sampled
vertices.  The queries run in one process, one at a time, and are generated
before any of them is timed.  No query reaches ``engine`` or ``certifier``.
A pass is 12000 queries: with 6000, the 99th percentile spread by 9% from
seed to seed on a 2-CPU machine, with 12000 by 6.6%.

The correctness gate: symbolic support membership must agree with
``eval_fp > 0`` at every sampled vertex.  Membership is decided here from
the returned regions' bounds, not by ``regions.member``, so the gate neither
trusts the code under test nor adds to its traced call counts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from speed import SpeedSampler

TRIPLES = ((1, 2, 0), (2, 3, 0), (1, 3, 2), (1, 1, 0), (2, 2, 0), (2, 2, 1))
HALF = 8
COUNT = 12000
EVAL_POINTS = 16
MAX_GENERATORS = 3


@dataclass(frozen=True)
class Query:
    t: object
    functor: object
    generated_by_all: object
    generated_by_all_but_last: object
    at: tuple


@dataclass(frozen=True)
class Answer:
    support: dict
    in_c0: bool
    gap: dict
    dims: tuple


def _box_points(region, half):
    """Points of a region inside [-half, half]^2, from its bounds alone."""
    lo_x, hi_x = max(region.lo_x, -half), min(region.hi_x, half)
    lo_y, hi_y = max(region.lo_y, -half), min(region.hi_y, half)
    return [
        (x, y)
        for x in range(int(lo_x), int(hi_x) + 1)
        for y in range(int(lo_y), int(hi_y) + 1)
        if region.lo_d <= x - y <= region.hi_d
    ]


def generate(kg, seed: int, count: int = COUNT) -> list:
    """``count`` queries drawn from ``random.Random(seed)``."""
    model, functors = kg.model, kg.functors
    rng = random.Random(seed)
    triples = [kg.presentation.validate_triple(*x) for x in TRIPLES]
    vertices = {t: model.vertices_in_box(t, -HALF, HALF, -HALF, HALF) for t in triples}
    targets = {}

    def arrow_targets(t, top, entry):
        key = (t, top, entry)
        if key not in targets:
            targets[key] = [
                p
                for p in _box_points(entry.region, HALF)
                if not (entry.excludes_src and p == top.coord)
                and model.vertex_valid(t, model.VertexId(entry.family, entry.orbit, p))
            ]
        return targets[key]

    queries = []
    for _ in range(count):
        t = rng.choice(triples)
        top = rng.choice(vertices[t])
        fan = model.arrow_fan(t, top).entries
        gens = []
        for _ in range(rng.randint(0, MAX_GENERATORS)):
            e = rng.choice(fan)
            pts = arrow_targets(t, top, e)
            if pts:
                dst = model.VertexId(e.family, e.orbit, rng.choice(pts))
                gens.append(model.ArrowMorphism(top, dst, e.degree))
        # Half the evaluation points are arrow targets of the top, where the
        # functor can be nonzero; the other half are any vertex of the box.
        at = []
        while len(at) < EVAL_POINTS:
            if len(at) % 2 == 0:
                e = rng.choice(fan)
                pts = arrow_targets(t, top, e)
                if pts:
                    at.append(model.VertexId(e.family, e.orbit, rng.choice(pts)))
            else:
                at.append(rng.choice(vertices[t]))
        gens = tuple(gens)
        queries.append(
            Query(
                t,
                functors.FpFunctor(top, functors.Subfunctor(top, gens)),
                functors.Subfunctor(top, gens),
                functors.Subfunctor(top, gens[:-1]),
                tuple(at),
            )
        )
    return queries


def answer(functors, q: Query) -> Answer:
    """Every calculator call of one query.  ``functors`` is the module, so the
    calls resolve through its attributes and reach any installed wrapper."""
    t, F = q.t, q.functor
    return Answer(
        functors.support_region(t, F),
        functors.is_in_c0(t, F),
        functors.quotient_support(t, q.generated_by_all, q.generated_by_all_but_last),
        tuple(functors.eval_fp(t, F, v) for v in q.at),
    )


def _member(region_set, coord) -> bool:
    if region_set is None:
        return False
    x, y = coord
    return any(
        r.lo_x <= x <= r.hi_x and r.lo_y <= y <= r.hi_y and r.lo_d <= x - y <= r.hi_d
        for r in region_set.regions
    )


def answer_ok(q: Query, a: Answer) -> bool:
    """Symbolic support membership agrees with eval_fp > 0 at every sampled vertex."""
    return all(
        _member(a.support.get((v.family, v.orbit)), v.coord) == (d > 0)
        for v, d in zip(q.at, a.dims)
    )


def run_pass(functors, queries) -> tuple:
    """Answer every query in turn; returns (latencies in reference seconds,
    raw seconds of all latencies, failed count).  Only the calls are timed;
    the gate runs between queries, off the clock.

    A query takes a few milliseconds, far less than the sampling interval, so
    each latency is normalised by the speed samples nearest to it: the two
    taken before it started and the two after."""
    clock = time.perf_counter
    raw, before = [], []
    failed = 0
    with SpeedSampler() as speed:
        for q in queries:
            spent = speed.spent
            before.append(len(speed.samples))
            t0 = clock()
            a = answer(functors, q)
            raw.append(clock() - t0 - (speed.spent - spent))
            if not answer_ok(q, a):
                failed += 1
    return [x / speed.factor_near(i) for x, i in zip(raw, before)], sum(raw), failed
