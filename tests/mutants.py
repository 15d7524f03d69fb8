"""The mutant catalogue for ``certify``: deliberately broken models and kind
rows, each with the lemmas whose records it must fail.

One row per mutant: its name, a patch that applies it through a pytest
``monkeypatch``, the triple, the window half-width h (the window is
[-h, h]^2), the depth, and the lemmas expected to fail in record order
(``collapse_layers`` aside).  ``tests/test_mutants.py`` certifies every row
and asserts exactly those failures; the mutants in ``SURVIVORS`` pass today
and are asserted to pass, so a fix shows as an edit of that tuple.  The
mutants in ``EQUIVALENT`` pass too, but change nothing a check can see.

The rows:

* fan-bound mutants: one finite bound of one fan entry of one family moved
  by -1 or +1 at every vertex, on (1,2,0), (2,3,0), (1,3,2), (1,1,0) and
  (2,2,1) at [-4,4]^2, depth 4 (168 rows);
* the kind-row mutants ``KIND_ROW_MUTANTS`` (14 rows), also run by
  ``test_certifier.py::test_a_mutated_kind_row_fails``;
* two fans that shift the coordinate on the wrong orbit step;
* single-vertex breakers: one fan entry moved at one vertex only, which
  breaks the model's translation symmetry there.  Only for these rows may
  the ``translation`` lemma join the failures unpinned, in front of a
  subset of the pinned ones: a check of one item per translation class
  need not reach the broken vertex, and the translation phase is what
  catches it;
* whole-record mutants ``RECORD_MUTANTS``: every fan record with its sink
  arrows at degree 1, its entries without their excludes_src flags, or its
  sink pair swapped.  The degree-1 sinks fail ``translation`` among their
  pinned lemmas, since that phase reads a translate's sink arrows.  The
  swapped pair is an equivalent mutant (``EQUIVALENT``), asserted to pass;
* malformed fans ``MALFORMED_FANS``: records that the window engine or the
  translation phase cannot use, which fail certify instead of crashing it.

Budget: 15 s for the whole catalogue under ``pytest --durations=0``; it
took about 5 s on a shared 2-CPU VM.
"""

from __future__ import annotations

import inspect
import textwrap
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, NamedTuple

from kgcert import certifier as C
from kgcert import model as M
from kgcert.certifier import KIND_B_INF, KIND_BP, KIND_BPP, KIND_CP, KIND_CPP
from kgcert.model import VertexId
from kgcert.presentation import validate_triple

from test_model import _fan_bound_mutants, mutated_fan_entries


class Mutant(NamedTuple):
    name: str
    patch: Callable  # (monkeypatch) -> None
    triple: tuple
    half: int
    depth: int
    failed: tuple
    local: bool = False  # a single-vertex breaker


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


def _tag(triple):
    return "".join(map(str, triple))


# -- fan-bound mutants --------------------------------------------------------------

FAN_BOUND_TRIPLES = [(1, 2, 0), (2, 3, 0), (1, 3, 2), (1, 1, 0), (2, 2, 1)]


def _fan_bound_name(triple, family, k, bound, step):
    return f"{_tag(triple)}-{family}{k}-{bound}{step:+d}"


# The fan-bound mutants that pass certify: the Z -> Z degree-2 box (entry 3)
# with hi_x - 1, hi_y - 1 or hi_y + 1, on each r < n triple.
SURVIVORS = tuple(
    _fan_bound_name(triple, "Z", 3, bound, step)
    for triple in [(1, 2, 0), (2, 3, 0), (1, 3, 2)]
    for bound, step in [("hi_x", -1), ("hi_y", -1), ("hi_y", 1)]
)

# The lemmas each failing fan-bound mutant fails, by (r < n, family, entry,
# bound, step): the same on every triple of the mode.
FAN_BOUND_FAILED = {
    (True, 'X', 0, 'hi_x', -1): ('simple1', 'finite1', 'nonsimple1', 'c2simple'),
    (True, 'X', 0, 'hi_x', 1): ('simple0', 'simple1', 'finite1', 'nonsimple1', 'c2simple'),
    (True, 'X', 0, 'lo_x', -1): ('simple0', 'simple1', 'nonsimple1', 'c2simple'),
    (True, 'X', 0, 'lo_x', 1): ('simple1', 'nonsimple1', 'c2simple'),
    (True, 'X', 0, 'lo_y', -1): ('simple0', 'simple1', 'nonsimple1', 'c2simple'),
    (True, 'X', 0, 'lo_y', 1): ('simple1', 'finite1', 'nonsimple1', 'c2simple'),
    (True, 'X', 1, 'hi_x', -1): ('simple1', 'finite1', 'c2simple'),
    (True, 'X', 1, 'hi_x', 1): ('simple1', 'finite1', 'c2simple'),
    (True, 'X', 1, 'lo_x', -1): ('simple1', 'finite1', 'c2simple'),
    (True, 'X', 1, 'lo_x', 1): ('simple1', 'finite1', 'c2simple'),
    (True, 'X', 2, 'hi_x', -1): ('finite1', 'c2simple'),
    (True, 'X', 2, 'hi_x', 1): ('simple1',),
    (True, 'X', 2, 'hi_y', -1): ('finite1', 'c2simple'),
    (True, 'X', 2, 'hi_y', 1): ('finite1', 'c2simple'),
    (True, 'X', 2, 'lo_y', -1): ('simple1', 'finite1', 'c2simple'),
    (True, 'X', 2, 'lo_y', 1): ('finite1', 'c2simple'),
    (True, 'Y', 0, 'hi_x', -1): ('simple1', 'finite1', 'c2simple'),
    (True, 'Y', 0, 'hi_x', 1): ('simple0', 'simple1', 'finite1', 'c2simple'),
    (True, 'Y', 0, 'lo_x', -1): ('simple0', 'simple1', 'c2simple'),
    (True, 'Y', 0, 'lo_x', 1): ('simple1', 'c2simple'),
    (True, 'Y', 0, 'lo_y', -1): ('simple0', 'simple1', 'c2simple'),
    (True, 'Y', 0, 'lo_y', 1): ('simple1', 'finite1', 'c2simple'),
    (True, 'Y', 1, 'hi_y', -1): ('simple1', 'finite1', 'c2simple'),
    (True, 'Y', 1, 'hi_y', 1): ('simple1', 'finite1', 'c2simple'),
    (True, 'Y', 1, 'lo_y', -1): ('simple1', 'finite1', 'c2simple'),
    (True, 'Y', 1, 'lo_y', 1): ('simple1', 'finite1', 'c2simple'),
    (True, 'Y', 2, 'hi_x', -1): ('finite1', 'c2simple'),
    (True, 'Y', 2, 'hi_x', 1): ('simple1',),
    (True, 'Y', 2, 'hi_y', -1): ('finite1', 'c2simple'),
    (True, 'Y', 2, 'hi_y', 1): ('finite1', 'c2simple'),
    (True, 'Y', 2, 'lo_y', -1): ('simple1', 'finite1', 'c2simple'),
    (True, 'Y', 2, 'lo_y', 1): ('finite1', 'c2simple'),
    (True, 'Z', 0, 'lo_x', -1): ('simple0', 'simple1', 'finite1', 'nonsimple1', 'c2simple'),
    (True, 'Z', 0, 'lo_x', 1): ('simple1', 'finite1', 'nonsimple1', 'c2simple'),
    (True, 'Z', 0, 'lo_y', -1): ('simple0', 'simple1', 'finite1', 'nonsimple1', 'c2simple'),
    (True, 'Z', 0, 'lo_y', 1): ('simple1', 'finite1', 'nonsimple1', 'c2simple'),
    (True, 'Z', 1, 'hi_x', -1): ('simple1', 'nonsimple1', 'c2simple'),
    (True, 'Z', 1, 'hi_x', 1): ('simple1', 'finite1', 'nonsimple1', 'c2simple'),
    (True, 'Z', 1, 'lo_y', -1): ('simple1', 'finite1', 'nonsimple1', 'c2simple'),
    (True, 'Z', 1, 'lo_y', 1): ('simple1', 'finite1', 'nonsimple1', 'c2simple'),
    (True, 'Z', 2, 'hi_x', -1): ('simple1', 'c2simple'),
    (True, 'Z', 2, 'hi_x', 1): ('simple1', 'finite1', 'c2simple'),
    (True, 'Z', 2, 'lo_y', -1): ('simple1', 'finite1', 'c2simple'),
    (True, 'Z', 2, 'lo_y', 1): ('simple1', 'finite1', 'c2simple'),
    (True, 'Z', 3, 'hi_x', 1): ('c2simple',),
    (False, 'X', 0, 'hi_x', -1): ('inf_simple1', 'inf_finite1'),
    (False, 'X', 0, 'hi_x', 1): ('inf_simple0', 'inf_simple1', 'inf_finite1'),
    (False, 'X', 0, 'lo_x', -1): ('inf_simple0', 'inf_simple1'),
    (False, 'X', 0, 'lo_x', 1): ('inf_simple1',),
    (False, 'X', 0, 'lo_y', -1): ('inf_simple0', 'inf_simple1'),
    (False, 'X', 0, 'lo_y', 1): ('inf_simple1', 'inf_finite1'),
    (False, 'X', 1, 'hi_x', -1): ('inf_finite1',),
    (False, 'X', 1, 'hi_x', 1): ('inf_simple1',),
    (False, 'X', 1, 'hi_y', -1): ('inf_simple1', 'inf_finite1'),
    (False, 'X', 1, 'hi_y', 1): ('inf_simple1',),
    (False, 'X', 1, 'lo_y', -1): ('inf_simple1',),
    (False, 'X', 1, 'lo_y', 1): ('inf_simple1', 'inf_finite1'),
}


def _fan_bound_rows():
    rows = []
    for triple in FAN_BOUND_TRIPLES:
        t = validate_triple(*triple)
        for family, k, bound, step in _fan_bound_mutants(t):
            name = _fan_bound_name(triple, family, k, bound, step)
            failed = () if name in SURVIVORS else FAN_BOUND_FAILED[(t.is_finite_mode, family, k, bound, step)]
            rows.append(Mutant(
                name,
                lambda mp, mutant=(family, k, bound, step): mp.setattr(M, "_fan_entries", mutated_fan_entries(*mutant)),
                triple, 4, 4, failed,
            ))
    return rows


# -- kind-row mutants -------------------------------------------------------------


def _kind_row_rows():
    return [
        Mutant(
            f"{_tag(triple)}-{name}",
            lambda mp, kind=kind, field=field, value=value: mp.setitem(
                C._KINDS, kind, C._KINDS[kind]._replace(**{field: value})
            ),
            triple, 4, 4, tuple(failed),
        )
        for (triple, kind, field, value, failed), name in zip(KIND_ROW_MUTANTS, KIND_ROW_IDS)
    ]


# -- orbit-wrap fans ------------------------------------------------------------------

# The [i=last] selector of model._offsets, and the edit that moves it to orbit 1.
_WRAP = "dr = 1 if i == t.orbit_count - 1 else 0"
_WRONG_WRAP = "dr = 1 if i == 1 else 0"


def wrong_orbit_wrap(mp):
    """model._fan_entries with the coordinate shift on orbit 1 instead of
    the last orbit.  _offsets with the edited selector, _fan_rows and
    _fan_entries run in a namespace of their own, so the module's caches
    never hold a broken record; only model._fan_entries is patched."""
    namespace = dict(vars(M))
    for f in (M._offsets, M._fan_rows, M._fan_entries):
        source = textwrap.dedent(inspect.getsource(f))
        assert (_WRAP in source) == (f is M._offsets)
        exec(source.replace(_WRAP, _WRONG_WRAP), namespace)
    mp.setattr(M, "_fan_entries", namespace["_fan_entries"])


ORBIT_WRAP_FAILED = {
    (1, 2, 0): ("simple1", "finite1", "c2simple"),
    (3, 4, 1): ("simple1", "finite1", "nonsimple1", "c2simple"),
}


def _orbit_wrap_rows():
    return [
        Mutant(f"{_tag(triple)}-orbit-wrap", wrong_orbit_wrap, triple, 4, 4, failed)
        for triple, failed in ORBIT_WRAP_FAILED.items()
    ]


# -- single-vertex breakers -------------------------------------------------------------


def moved_at_one_vertex(v, k, bound, step, fan_entries=M._fan_entries):
    """A stand-in for model._fan_entries with one bound of entry k moved by
    step at the vertex v alone."""
    at_v = mutated_fan_entries(v.family, k, bound, step, fan_entries)

    @lru_cache(maxsize=None)
    def mutated(t, w):
        return at_v(t, w) if w == v else fan_entries(t, w)

    return mutated


# (triple, half, depth, vertex, entry, bound, step, the lemmas a check of
# every item fails)
BREAKERS = [
    ((1, 2, 0), 8, 8, VertexId("X", 0, (3, 3)), 0, "hi_x", -1, ("simple1", "nonsimple1", "c2simple")),
    ((1, 2, 0), 4, 4, VertexId("Y", 0, (-2, 2)), 1, "hi_y", -1, ("finite1", "c2simple")),
    ((1, 2, 0), 4, 4, VertexId("Z", 0, (2, 1)), 1, "hi_x", 1, ("simple0", "simple1", "nonsimple1", "c2simple")),
    ((2, 3, 0), 4, 4, VertexId("Z", 1, (2, 1)), 0, "lo_y", -1, ("simple0", "simple1", "nonsimple1", "c2simple")),
    ((2, 2, 1), 4, 4, VertexId("X", 0, (1, 2)), 0, "lo_y", -1, ("inf_simple0", "inf_simple1")),
    ((1, 1, 0), 4, 4, VertexId("X", 0, (2, 3)), 0, "hi_x", -1, ("inf_simple1", "inf_finite1")),
]


def _breaker_rows():
    return [
        Mutant(
            f"{_tag(triple)}-{v}-{k}-{bound}{step:+d}",
            lambda mp, mutant=(v, k, bound, step): mp.setattr(M, "_fan_entries", moved_at_one_vertex(*mutant)),
            triple, half, depth, failed, local=True,
        )
        for triple, half, depth, v, k, bound, step, failed in BREAKERS
    ]


# -- whole-record mutants ----------------------------------------------------------------


def _sinks_at_degree(degree):
    def change(rec):
        return rec._replace(sinks=tuple(f if f is M.ZERO else f._replace(degree=degree) for f in rec.sinks))

    return change


def with_entries(rec, entries):
    """The fan record rec with these entries, and the channels of them."""
    return rec._replace(entries=entries, channels=MappingProxyType({(e.family, e.orbit, e.degree): e for e in entries}))


def _excludes_src_dropped(rec):
    return with_entries(rec, tuple(e._replace(excludes_src=False) for e in rec.entries))


def _sinks_swapped(rec):
    return rec._replace(sinks=rec.sinks[::-1])


def every_record(change, fan_entries=M._fan_entries):
    """A stand-in for model._fan_entries that applies change to every fan
    record."""

    @lru_cache(maxsize=None)
    def mutated(t, v):
        rec = fan_entries(t, v)
        return None if rec is None else change(rec)

    return mutated


# (name, change, triple, the lemmas that fail): every sink arrow at degree 1,
# every entry without its excludes_src flag, and the sink pair swapped.
RECORD_MUTANTS = [
    ("sinks-degree-1", _sinks_at_degree(1), (1, 2, 0),
     ("translation", "simple0", "simple1", "nonsimple1", "c2simple")),
    ("excludes-src-dropped", _excludes_src_dropped, (1, 2, 0), ("simple0",)),
    ("excludes-src-dropped", _excludes_src_dropped, (1, 1, 0), ("inf_simple0",)),
    ("excludes-src-dropped", _excludes_src_dropped, (2, 2, 1), ("inf_simple0",)),
    ("sinks-swapped", _sinks_swapped, (1, 2, 0), ()),
    ("sinks-swapped", _sinks_swapped, (1, 1, 0), ()),
]

# The record mutants that pass certify because they change nothing it can
# see: the sink image is the OR of both sink arrows, so their order is moot.
EQUIVALENT = ("120-sinks-swapped", "110-sinks-swapped")


def _record_rows():
    return [
        Mutant(f"{_tag(triple)}-{name}", lambda mp, change=change: mp.setattr(M, "_fan_entries", every_record(change)),
               triple, 4, 4, failed)
        for name, change, triple, failed in RECORD_MUTANTS
    ]


# -- malformed fans -------------------------------------------------------------------


def _z_entry(k, change):
    """A record change that replaces entry k of every Z record e by change(v, e), v the record's vertex."""

    def apply(rec):
        if rec.src.family != M.FAMILY_Z:
            return rec
        e = rec.entries[k]
        return with_entries(rec, rec.entries[:k] + (change(rec.src, e),) + rec.entries[k + 1:])

    return apply


# (name, change, the lemmas that fail) on (1,2,0): fan records that the
# window engine or the translation phase cannot use.  Z's degree-0 entry with
# the finite x - y bound a - b is no box; Z's degree-1 X entry on orbit 7 is
# on no channel, at degree 5 it would sit at bit 6 of its cells (a shift of 2
# carries that into the next cell's identity bit), and in family W no
# translation moves it; every sink map at degree 3 is of no degree of the
# triple.  A check that meets one raises MalformedModel and fails its item.
MALFORMED_FANS = [
    ("Z0-not-a-box", _z_entry(0, lambda v, e: e._replace(region=e.region._replace(lo_d=v.coord[0] - v.coord[1]))),
     ("simple0", "simple1", "finite1", "nonsimple1", "c2simple")),
    ("Z1-orbit-7", _z_entry(1, lambda v, e: e._replace(orbit=7)),
     ("simple0", "simple1", "finite1", "nonsimple1", "c2simple")),
    ("sinks-degree-3", _sinks_at_degree(3), ("translation", "simple0", "simple1", "nonsimple1", "c2simple")),
    ("Z1-degree-5", _z_entry(1, lambda v, e: e._replace(degree=5)),
     ("simple0", "simple1", "finite1", "nonsimple1", "c2simple")),
    ("Z1-family-W", _z_entry(1, lambda v, e: e._replace(family="W")),
     ("translation", "simple0", "simple1", "finite1", "nonsimple1", "c2simple")),
]


def _malformed_rows():
    return [
        Mutant(f"120-{name}", lambda mp, change=change: mp.setattr(M, "_fan_entries", every_record(change)),
               (1, 2, 0), 4, 4, failed)
        for name, change, failed in MALFORMED_FANS
    ]


def catalogue() -> list:
    return (_fan_bound_rows() + _kind_row_rows() + _orbit_wrap_rows() + _breaker_rows() + _record_rows()
            + _malformed_rows())
