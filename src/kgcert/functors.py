"""Finitely generated subfunctors of representables and their quotients.

A :class:`Subfunctor` of Hom(top, -) is given by a finite list of generating
basis morphisms out of ``top`` (the zero morphism is allowed and ignored); an
:class:`FpFunctor` is the quotient of Hom(top, -) by such a subfunctor.
Because composition is monomial, the value of a subfunctor at any vertex V is
a *subset* of the hom basis, so evaluation, dimensions, images and kernels
are exact set combinatorics.

Two evaluation routes exist on purpose and are tested against each other:

* pointwise: :func:`eval_sub` / :func:`eval_fp` compose basis morphisms one
  vertex at a time (the reference semantics);
* symbolic: :func:`support_channels` / :func:`support_region` compute the
  support {V : dim F(V) != 0} as difference-bound regions, one channel per
  (target family, orbit, degree): the top's arrow-fan regions minus, per
  channel, the regions the generator images cover.  :func:`quotient_support`
  takes F's covers minus G's.  Both supports subtract by
  :func:`regions.difference`.

Window-quantified checks (:func:`ses_check`, :func:`image_presentation_check`)
are delegated to the bitmask sweep engine.  :func:`ses_check` holds when, at
every window vertex, the quotient's denominator is the middle denominator
plus the sub's image.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import model, regions
from .engine import get_engine
from .errors import IncompatibleTops, NotASubfunctor
from .model import (
    ArrowMorphism,
    IdentityMorphism,
    VertexId,
    ZERO,
    ZeroMorphism,
)
from .presentation import GentleTriple
from .regions import RegionSet


@dataclass(frozen=True)
class Window:
    """Finite coordinate box [x0, x1] x [y0, y1]; the desk-scale truncation.
    Each bound is an int and not a bool, as in a region."""

    x0: int
    x1: int
    y0: int
    y1: int

    def __post_init__(self):
        if not all(map(regions._is_int, self.box)):
            raise ValueError(f"window bounds must be integers, got {self}")
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError(f"degenerate window {self}")

    @property
    def box(self) -> tuple:
        return (self.x0, self.x1, self.y0, self.y1)

    def region(self):
        return regions.box(self.x0, self.x1, self.y0, self.y1)

    def contains(self, coord: tuple) -> bool:
        x, y = coord
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def inner_half(self) -> "Window":
        """Each bound halved and rounded toward zero, so [-h, h] halves to
        [-(h // 2), h // 2].  The box is halved about the origin, not about
        the window centre: [-1, 9]^2 halves to [0, 4]^2, whose far corner
        (4, 4) is the centre, so on an off-centre window the certifier's
        representatives (nearest the centre) sit at that corner."""
        return Window(*(-(-v // 2) if v < 0 else v // 2 for v in self.box))

    def __str__(self) -> str:
        return f"[{self.x0},{self.x1}]x[{self.y0},{self.y1}]"


@dataclass(frozen=True)
class Subfunctor:
    """Image subfunctor of Hom(top, -) spanned by composites of the generators."""

    top: VertexId
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if isinstance(g, ZeroMorphism):
                continue
            if model.source_of(g) != self.top:
                raise IncompatibleTops(
                    f"generator {g} does not start at top {self.top}"
                )


@dataclass(frozen=True)
class FpFunctor:
    """Quotient of Hom(top, -) by the denominator subfunctor."""

    top: VertexId
    denominators: Subfunctor

    def __post_init__(self):
        if self.denominators.top != self.top:
            raise IncompatibleTops(
                f"denominators live at {self.denominators.top}, not {self.top}"
            )


def representable(t: GentleTriple, top: VertexId) -> FpFunctor:
    """Hom(top, -) itself, as a quotient with empty denominator."""
    return FpFunctor(top, Subfunctor(top, ()))


def eval_sub(t: GentleTriple, S: Subfunctor, V: VertexId) -> frozenset:
    """The basis subset of Hom(top, V) spanned by the subfunctor at V."""
    out = set()
    for f in S.generators:
        if isinstance(f, ZeroMorphism):
            continue
        for g in model.hom_basis(t, model.target_of(f), V):
            k = model.compose(t, g, f)
            if not isinstance(k, ZeroMorphism):
                out.add(k)
    return frozenset(out)


def eval_fp(t: GentleTriple, F: FpFunctor, V: VertexId) -> int:
    """dim F(V) = |hom basis| - |denominator subset|."""
    return len(model.hom_basis(t, F.top, V)) - len(eval_sub(t, F.denominators, V))


@dataclass(frozen=True)
class SupportChannel:
    family: str
    orbit: int
    degree: int
    regions: RegionSet


def _cover_regions(t: GentleTriple, top: VertexId, gens) -> dict:
    """Per (family, orbit, degree) channel, the regions of V covered by the
    generator images.  Exact: a channel's basis element at V lies in the
    image iff V is in one of the returned regions.  Zero generators cover
    nothing.

    A generator f: top -> T of degree p contributes, for every fan entry of T
    of degree q landing in the channel (fam, orb, q+p), the set of V where
    both the T -> V arrow and the composite top -> V arrow exist.  The
    degree-0 fan region of T formally contains T itself, which accounts for
    the composite through the identity of T (that is, f itself).  The
    identity of top covers every fan region of top, the top point included.
    """
    covers: dict = {}
    for f in gens:
        if isinstance(f, ZeroMorphism):
            continue
        if isinstance(f, IdentityMorphism):
            for e in model.arrow_fan(t, top).entries:
                covers.setdefault((e.family, e.orbit, e.degree), []).append(e.region)
            continue
        T, p = f.dst, f.degree
        top_channels = model.arrow_fan(t, top).channels
        for eT in model.arrow_fan(t, T).entries:
            key = (eT.family, eT.orbit, eT.degree + p)
            base = top_channels.get(key)
            if base is None:
                continue
            cover = regions.intersect(eT.region, base.region)
            if cover is not regions.EMPTY:
                covers.setdefault(key, []).append(cover)
    return covers


def _channels(t: GentleTriple, F: FpFunctor):
    """The channels of :func:`support_channels`, one at a time in fan order;
    the covers are computed before the first."""
    covers = _cover_regions(t, F.top, F.denominators.generators)
    for e in model.arrow_fan(t, F.top).entries:
        left = regions.difference((e.region,), covers.get((e.family, e.orbit, e.degree), ()))
        yield SupportChannel(e.family, e.orbit, e.degree, RegionSet(tuple(left)))


def support_channels(t: GentleTriple, F: FpFunctor) -> list:
    """Symbolic support, one :class:`SupportChannel` per arrow channel of top.

    The value-dimension at V is the number of channels whose region set
    contains V (plus the identity at V = top, carried by the degree-0
    channel, whose region formally contains the top point).
    """
    return list(_channels(t, F))


def support_region(t: GentleTriple, F: FpFunctor) -> dict:
    """Symbolic support merged per (family, orbit): {V : eval_fp(F, V) != 0}."""
    merged: dict = {}
    for ch in support_channels(t, F):
        key = (ch.family, ch.orbit)
        merged.setdefault(key, []).extend(ch.regions.regions)
    return {key: RegionSet(tuple(parts)) for key, parts in merged.items()}


def is_in_c0(t: GentleTriple, F: FpFunctor) -> bool:
    """Finite-total-dimension test: every support region is finite.

    Stops at the first infinite channel in fan order, without computing the
    later ones; the answer is that of testing every channel.
    """
    return all(ch.regions.is_finite() for ch in _channels(t, F))


def quotient_support(t: GentleTriple, F: Subfunctor, G: Subfunctor) -> dict:
    """Symbolic support of V -> eval_sub(F, V) minus eval_sub(G, V).

    Both subfunctors must share a top and G must be contained in F; the
    containment is decided symbolically channel by channel.  Finiteness of
    the result decides equality of F and G modulo the finite-length layer.
    """
    if F.top != G.top:
        raise IncompatibleTops(f"tops differ: {F.top} vs {G.top}")
    cov_f = _cover_regions(t, F.top, F.generators)
    cov_g = _cover_regions(t, G.top, G.generators)
    for key, g_parts in cov_g.items():
        if regions.difference(g_parts, cov_f.get(key, ())):
            raise NotASubfunctor(f"channel {key}: G is not contained in F")
    merged: dict = {}
    for key, f_parts in cov_f.items():
        merged.setdefault(key[:2], []).extend(regions.difference(f_parts, cov_g.get(key, ())))
    return {key: RegionSet(tuple(parts)) for key, parts in merged.items()}


def ses_check(
    t: GentleTriple,
    sub: Subfunctor,
    mid_denoms: Subfunctor,
    quot: FpFunctor,
    window: Window,
) -> bool:
    """Pointwise exactness of 0 -> sub-image -> H_top/mid_denoms -> quot -> 0.

    At every V in the window, the quotient's denominator must be exactly
    the middle denominator plus the sub's image: one cube equality.
    """
    top = sub.top
    if mid_denoms.top != top or quot.top != top:
        raise IncompatibleTops("sub, mid and quot must share the top vertex")
    eng = get_engine(t, window.box)
    return eng.ses_dimension_check(
        top, sub.generators, mid_denoms.generators, quot.denominators.generators
    )


def image_presentation_check(
    t: GentleTriple,
    f,
    Q: FpFunctor,
    window: Window,
) -> bool:
    """True iff ker(- o f) = Q's denominator at every V in the window.

    f must be a basis arrow U -> W and Q a quotient presented at W; success
    certifies Im Hom(f, -) iso Q as functors restricted to the window.
    """
    if not isinstance(f, ArrowMorphism):
        raise ValueError("image presentation requires a nonzero basis arrow")
    if Q.top != f.dst:
        raise IncompatibleTops(f"Q must be presented at {f.dst}, got {Q.top}")
    eng = get_engine(t, window.box)
    return eng.kernel_matches(f.src, f, (), Q.denominators.generators)
