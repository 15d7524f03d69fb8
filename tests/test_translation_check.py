"""The translation phase's check against a reference: the predicate that
compared each window vertex's fan record, moved by sigma_x and sigma_y,
entry by entry with the record of its translate.  On every window vertex,
with the valid model, with each model mutant of the catalogue (fan bounds,
single-vertex breakers, whole records) and with five more that break what
the normal forms must still see, the session's check gives the same bool,
also in one session whose fan function is swapped."""

from functools import lru_cache

import pytest

from kgcert import certifier as C
from kgcert import model as M
from kgcert.errors import KgcertError
from kgcert.functors import Window
from kgcert.model import ZERO, ArrowMorphism, VertexId
from kgcert.presentation import validate_triple

import mutants

W4 = Window(-4, 4, -4, 4)
TRIPLES = [(1, 2, 0), (2, 3, 0), (1, 1, 0), (2, 2, 1)]

# -- the reference predicate ---------------------------------------------------------

_SIGMAS = (
    {"X": (1, 1), "Y": (0, 0), "Z": (1, 0)},
    {"X": (0, 0), "Y": (1, 1), "Z": (0, 1)},
)
_FIXED = dict.fromkeys("XYZ", (0, 0))


def _moved(sigma, v, k=1):
    (dx, dy), (a, b) = sigma[v.family], v.coord
    return VertexId(v.family, v.orbit, (a + k * dx, b + k * dy))


def _moved_entries(rec, sigma):
    out = []
    for e in rec.entries:
        (dx, dy), r = sigma[e.family], e.region
        out.append((
            e.family, e.orbit, e.degree, e.excludes_src, r.lo_x + dx, r.hi_x + dx,
            r.lo_y + dy, r.hi_y + dy, r.lo_d + dx - dy, r.hi_d + dx - dy,
        ))
    return out


def reference_check(s, v):
    """For sigma_x and sigma_y: wherever sigma^-1 v lies in the window it is
    a vertex, and wherever sigma v does, it is a vertex whose entries are
    v's moved by sigma and whose sink arrows are v's moved by sigma, each
    out of sigma v at degree 0."""
    t = s.t
    rec = M.arrow_fan(t, v)
    for sigma in _SIGMAS:
        back = _moved(sigma, v, -1)
        if s.window.contains(back.coord) and not M.vertex_valid(t, back):
            return False
        w = _moved(sigma, v)
        if not s.window.contains(w.coord):
            continue
        image = M._fan_entries(t, w)
        if image is None or _moved_entries(rec, sigma) != _moved_entries(image, _FIXED):
            return False
        sinks = tuple(f if f is ZERO else ArrowMorphism(w, _moved(sigma, f.dst), 0) for f in rec.sinks)
        if sinks != image.sinks:
            return False
    return True


def _verdict(check, s, v):
    """check(s, v), with a KgcertError a failure, as the phase counts it."""
    try:
        return check(s, v)
    except KgcertError:
        return False


def _verdicts(s):
    """Per window vertex, (the reference's bool, the session's bool)."""
    return [
        (_verdict(reference_check, s, v), _verdict(C._Session.translation_check, s, v))
        for v in M.vertices_in_box(s.t, *s.window.box)
    ]


def _agree(s):
    """The bools agree at every window vertex; the reference's, in order."""
    pairs = _verdicts(s)
    assert [ref for ref, _ in pairs] == [new for _, new in pairs]
    return [ref for ref, _ in pairs]


# -- the model and its mutants ------------------------------------------------------


@pytest.mark.parametrize("triple", TRIPLES + [(1, 3, 2), (3, 4, 1), (3, 3, 1)], ids=mutants._tag)
def test_the_check_agrees_with_the_reference_on_the_model(triple):
    verdicts = _agree(C._Session(validate_triple(*triple), W4, 1))
    assert verdicts and all(verdicts)


def _with_entry(family, k, bounds, fan_entries=M._fan_entries):
    """A stand-in for model._fan_entries that rebuilds entry k of every
    record of family, with the bounds that bounds(v) names."""

    @lru_cache(maxsize=None)
    def mutated(t, v):
        rec = fan_entries(t, v)
        if rec is None or v.family != family:
            return rec
        e = rec.entries[k]
        return mutants.with_entries(
            rec, rec.entries[:k] + (e._replace(region=e.region._replace(**bounds(v))),) + rec.entries[k + 1:]
        )

    return mutated


def _sinks_out_of_their_targets(rec):
    return rec._replace(sinks=tuple(f if f is ZERO else f._replace(src=f.dst) for f in rec.sinks))


def _sinks_swapped_at(v, fan_entries=M._fan_entries):
    @lru_cache(maxsize=None)
    def mutated(t, w):
        rec = fan_entries(t, w)
        return rec._replace(sinks=rec.sinks[::-1]) if w == v else rec

    return mutated


# Model mutants beyond the catalogue's, each of a kind that no catalogue
# row has: a finite y bound on the Z entry of X (a finite x bound on that of
# Y), which sigma_y (sigma_x) does not fix; sinks out of their targets; a
# zero and a nonzero sink swapped at one vertex; and a finite x - y bound,
# carried by the translations, on the degree-0 entry of Z.
EXTRA = [
    mutants.Mutant("120-X-Z-entry-lo_y", lambda mp: mp.setattr(
        M, "_fan_entries", _with_entry("X", 1, lambda v: {"lo_y": v.coord[1]})), (1, 2, 0), 4, 4, ()),
    mutants.Mutant("120-Y-Z-entry-lo_x", lambda mp: mp.setattr(
        M, "_fan_entries", _with_entry("Y", 1, lambda v: {"lo_x": v.coord[0]})), (1, 2, 0), 4, 4, ()),
    mutants.Mutant("120-sinks-out-of-targets", lambda mp: mp.setattr(
        M, "_fan_entries", mutants.every_record(_sinks_out_of_their_targets)), (1, 2, 0), 4, 4, ()),
    mutants.Mutant("120-sinks-swapped-at-X:0:(1,1)", lambda mp: mp.setattr(
        M, "_fan_entries", _sinks_swapped_at(VertexId("X", 0, (1, 1)))), (1, 2, 0), 4, 4, ()),
    mutants.Mutant("120-Z-0-lo_d", lambda mp: mp.setattr(
        M, "_fan_entries", _with_entry("Z", 0, lambda v: {"lo_d": v.coord[0] - v.coord[1]})), (1, 2, 0), 4, 4, ()),
]

# The catalogue rows that replace model._fan_entries: the fan-bound mutants
# (on (1,2,0), (2,3,0), (1,3,2), (1,1,0) and (2,2,1)), the single-vertex
# breakers and the whole-record mutants; then the mutants above.
ROWS = mutants._fan_bound_rows() + mutants._breaker_rows() + mutants._record_rows() + EXTRA


def test_the_rows_are_every_model_mutant():
    assert len(ROWS) == 168 + len(mutants.BREAKERS) + len(mutants.RECORD_MUTANTS) + len(EXTRA)
    assert {row.triple for row in ROWS} == set(TRIPLES) | {(1, 3, 2)}


# The window vertices that fail, per row where some do.  A fan-bound mutant
# moves one bound at every vertex of a family, so the translations still
# carry each record to the next and every vertex passes; so do the dropped
# excludes_src flags, the swapped sink pair and the x - y bound on Z.  A
# breaker fails at its vertex and at the vertices whose translates it is;
# sink arrows at degree 1 or out of their targets fail wherever a translate
# with a sink arrow lies in the window; the Z entries with a finite bound
# fail at every X-vertex (Y-vertex).
FAILING = {
    "120-X:0:(3,3)-0-hi_x-1": 2,
    "120-Y:0:(-2,2)-1-hi_y-1": 2,
    "120-Z:0:(2,1)-1-hi_x+1": 3,
    "230-Z:1:(2,1)-0-lo_y-1": 3,
    "221-X:0:(1,2)-0-lo_y-1": 2,
    "110-X:0:(2,3)-0-hi_x-1": 2,
    "120-sinks-degree-1": 153,
    "120-X-Z-entry-lo_y": 45,
    "120-Y-Z-entry-lo_x": 28,
    "120-sinks-out-of-targets": 153,
    "120-sinks-swapped-at-X:0:(1,1)": 2,
}


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_the_check_agrees_with_the_reference_on_a_mutant(row, monkeypatch):
    """A fresh session per mutant, with the vertices that fail pinned."""
    s = C._Session(validate_triple(*row.triple), W4, 1)
    row.patch(monkeypatch)
    verdicts = _agree(s)
    assert verdicts and verdicts.count(False) == FAILING.get(row.name, 0)


@pytest.mark.parametrize("triple", TRIPLES, ids=mutants._tag)
def test_one_session_follows_a_fan_swap(triple, monkeypatch):
    """One session, reused: the model, then each breaker and whole-record
    mutant of the triple's mode in turn, then the model again.  The check
    reads every swapped record again and agrees with the reference."""
    t = validate_triple(*triple)
    s = C._Session(t, W4, 1)
    assert all(_agree(s))
    swaps = [row for row in mutants._breaker_rows() + mutants._record_rows()
             if validate_triple(*row.triple).is_finite_mode == t.is_finite_mode]
    failed = 0
    for row in swaps:
        with monkeypatch.context() as mp:
            row.patch(mp)
            failed += not all(_agree(s))
    assert failed > 0
    assert all(_agree(s))
