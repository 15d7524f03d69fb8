"""Parameter triples and the bound-quiver presentation of the algebras.

The admissible parameter set consists of triples (r, n, m) with 1 <= r <= n
and m >= 0.  Each triple selects a one-cycle gentle algebra presented by a
quiver on the vertices [-m, n-1]: a tail -m -> ... -> 0 feeding an n-cycle
0 -> 1 -> ... -> n-1 -> 0, bound by r length-two monomial relations placed
consecutively around the cycle, ending with the pair through vertex 0.

The quiver presentation is informational (CLI display, documentation); all
computation happens in the coordinate model of :mod:`kgcert.model`.  The one
structural fact the rest of the package consumes is the mode split,
:attr:`GentleTriple.is_finite_mode`: global dimension is finite exactly when
r < n.  It is stated only for admissible triples, so every certifier session
validates its triple with :func:`validate_triple` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import OmegaViolation
from .regions import _is_int


class GentleTriple(NamedTuple):
    """An admissible parameter triple; a NamedTuple, because every
    per-triple ``lru_cache`` lookup hashes it (see :mod:`kgcert.model`)."""

    r: int
    n: int
    m: int

    @property
    def is_finite_mode(self) -> bool:
        return self.r < self.n

    @property
    def orbit_count(self) -> int:
        # Orbits are indexed mod r in finite mode and mod n when r == n.
        return self.r if self.is_finite_mode else self.n

    @property
    def max_degree(self) -> int:
        return 2 if self.is_finite_mode else 1

    def __str__(self) -> str:
        return f"({self.r},{self.n},{self.m})"


def validate_triple(r: int, n: int, m: int) -> GentleTriple:
    """Admissibility check: r, n and m are ints (not bools), 1 <= r <= n and m >= 0."""
    if not (_is_int(r) and _is_int(n) and _is_int(m)):
        raise OmegaViolation(f"r, n and m must be integers, got r={r!r}, n={n!r}, m={m!r}")
    if r < 1:
        raise OmegaViolation(f"r must be positive, got r={r}")
    if r > n:
        raise OmegaViolation(f"r must not exceed n, got r={r}, n={n}")
    if m < 0:
        raise OmegaViolation(f"m must be nonnegative, got m={m}")
    return GentleTriple(r, n, m)


@dataclass(frozen=True)
class QuiverArrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class BoundQuiver:
    """Vertices [-m, n-1], one arrow out of each vertex, r monomial relations.

    A relation is a pair (later, earlier) of arrow names whose composite
    (earlier first) is zero in the algebra.
    """

    vertices: tuple
    arrows: tuple
    relations: tuple


def _arrow_name(j: int) -> str:
    return f"alpha_{j}"


def build_bound_quiver(t: GentleTriple) -> BoundQuiver:
    """Instantiate the quiver diagram and relation list for a valid triple."""
    r, n, m = t.r, t.n, t.m
    vertices = tuple(range(-m, n))
    arrows = []
    for j in range(-m, n):
        target = j + 1 if j < n - 1 else 0
        arrows.append(QuiverArrow(_arrow_name(j), j, target))
    # Relations alpha_{n-r+1} alpha_{n-r}, ..., alpha_{n-1} alpha_{n-2},
    # alpha_0 alpha_{n-1}: r consecutive composable pairs around the cycle.
    relations = []
    for k in range(n - r, n - 1):
        relations.append((_arrow_name(k + 1), _arrow_name(k)))
    relations.append((_arrow_name(0), _arrow_name(n - 1)))
    return BoundQuiver(vertices, tuple(arrows), tuple(relations))


def quiver_to_json(t: GentleTriple) -> dict:
    q = build_bound_quiver(t)
    return {
        "r": t.r,
        "n": t.n,
        "m": t.m,
        "mode": "finite" if t.is_finite_mode else "infinite",
        "vertices": list(q.vertices),
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target}
            for a in q.arrows
        ],
        "relations": [list(rel) for rel in q.relations],
    }
