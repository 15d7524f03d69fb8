"""Bitmask window-sweep engine.

Window-quantified checks (simple objects, kernels of precomposition,
exact-sequence replays) all reduce to bit algebra on small grids: per
(family, orbit) channel, the grid cell at a target coordinate V holds one
bit per basis morphism from a fixed source vertex to V (bit 0 identity,
bit d+1 a degree-d arrow).  Monomial composition shifts degree bits:

* image of a generator f: top -> T of degree p at V is
  ``(cube(T) << p) & cube(top)`` plus f itself at V = T;
* kernel of (- o f) against a modulus M is
  ``cube(T) & ~((cube(top) & ~M) >> p)`` plus an identity-bit test at T.

A cube is one Python int.  Byte ``(ci*nx + ix)*ny + iy`` of its
little-endian form (:meth:`WindowEngine.cell`) holds the cell of channel ci
at window point (ix, iy), so the cell sits at bit offset
``8*((ci*nx + ix)*ny + iy)``: the layout of a C-ordered uint8 array of shape
(nchan, nx, ny).  Masks, shifts and equality are then single int
operations.  No shift can move a bit into a neighbouring cell's low bits:
cell bits are at most bit ``max_degree + 1 <= 3`` and shifts are at most
``max_degree <= 2`` places, so a left shift stays below bit 6 of its own
cell, and a right shift can only push bits into bits 6-7 of the cell below,
which the AND with a cube (bits 0-3 only) that follows every right shift
clears.  ``_entry`` and ``_endpoint`` raise ``MalformedModel`` for a fan
entry off the window's channels or of any other degree, a fan region that
is not a box, and a morphism that is no basis morphism out of the top of
such a degree, before anything is rastered or shifted.  ``a AND NOT b`` is
written ``a ^ (a & b)``: on non-negative ints it equals ``a & ~b`` without
forming the negative ``~b``, whose AND costs several times more.

Every window decision of ``certify`` is a cube identity (an equality, or an
AND then an equality), every kernel is ``_kernel``; it never counts bits.
``kernel_matches`` serves ``functors.image_presentation_check``.
``dims_cube``, ``cells``, ``_POPCOUNT``, ``vertices``, ``dims_at_vertices``
and ``ses_foreign`` remain only as test references and tracer-patched names.

Cubes are cached per source vertex, so a certification run touching the same
tops repeatedly costs one fan rasterisation per vertex (the hot kernel,
:func:`kgcert._kernels.fan_cube`) plus a handful of int operations per
check.  The rasteriser cuts each fan box out of a column mask, one y-run of
cells repeated on every x-row of the window; the engine keeps those masks
in ``_columns``, keyed by the run's (iy0, iy1), so each is built once per
window and the table holds at most ny*(ny+1)/2 of them.

The cube cache ``_entries`` is keyed by the
:class:`~kgcert.model.VertexId` itself, a NamedTuple that hashes and
compares in C.  It keys on equality, and X:True:(0,1) equals X:1:(0,1), so
the public entry points (``cube``, ``basis_cube``, ``image_cube`` and,
through ``_endpoint``, ``kernel_matches`` and ``ses_foreign``) pass every
top and target through :meth:`WindowEngine._vertex`, model._record's rule,
before the cache is read.  The hot paths skip it: ``_image``, ``_kernel``
and ``_basis``, which ``certify`` calls with vertices built from int
coordinates, and ``_entry`` under them, read about 55k times per
acceptance pass.

The sink memo: the image of v's two sink maps (the denominator of the
simple object at v) is needed at every chain point and tower step that
reaches v.  ``_sink_image`` computes it once per vertex and keeps the exact
image in v's cache entry, under its existing key.  When the image equals
``cube(v)``, as it does at every vertex of the valid model, the entry keeps
the cube object itself, so no second int per vertex is kept.
"""

from __future__ import annotations

from functools import lru_cache

from . import _kernels, model
from .errors import InvalidVertex, MalformedModel
from .model import ArrowMorphism, IdentityMorphism, VertexId, ZeroMorphism
from .presentation import GentleTriple

_POPCOUNT = bytes(bin(i).count("1") for i in range(256))

ID_BIT = 1


class WindowEngine:
    """Sweep evaluator for one triple on one window box."""

    def __init__(self, t: GentleTriple, box: tuple):
        self.t = t
        self.x0, self.x1, self.y0, self.y1 = box
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError(f"degenerate window box {box}")
        self.nx = self.x1 - self.x0 + 1
        self.ny = self.y1 - self.y0 + 1
        self.channels = list(model.index_regions(t))  # family-then-orbit order
        self.chan_index = {c: i for i, c in enumerate(self.channels)}
        self.nchan = len(self.channels)
        self.max_degree = t.max_degree
        self.nbytes = self.nchan * self.nx * self.ny
        # VertexId -> (cube, bit offset of the vertex's own cell or None,
        # the sink image or None before it is computed)
        self._entries: dict = {}
        # (iy0, iy1) -> the column mask of that y-run, which fan_cube reads and fills
        self._columns: dict = {}

    # -- grid plumbing ----------------------------------------------------

    def in_window(self, coord) -> bool:
        x, y = coord
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def cell(self, v: VertexId) -> int:
        """Byte index of the cell of an in-window vertex v."""
        x, y = v.coord
        ci = self.chan_index[(v.family, v.orbit)]
        return (ci * self.nx + x - self.x0) * self.ny + y - self.y0

    def cells(self, bits: int) -> bytes:
        """The cube ``bits`` as bytes, one cell per byte (see :meth:`cell`)."""
        return bits.to_bytes(self.nbytes, "little")

    # -- cubes -------------------------------------------------------------

    def _entry(self, v: VertexId) -> tuple:
        """(cube(v), bit offset of v's cell, or None when v is outside the
        window, and the sink image, None until _sink_image computes it),
        built on first use."""
        entry = self._entries.get(v)
        if entry is None:
            rows = []
            for e in model.arrow_fan(self.t, v).entries:
                ci = self.chan_index.get((e.family, e.orbit))
                if ci is None or not 0 <= e.degree <= self.max_degree:
                    raise MalformedModel(f"{v}: fan entry {e.family, e.orbit, e.degree} is off the channels or degrees")
                rows.append((ci, 1 << (e.degree + 1), e.region, v.coord if e.excludes_src else None))
            cube = _kernels.fan_cube(self.x0, self.nx, self.y0, self.ny, self.nchan, rows, self._columns)
            offset = 8 * self.cell(v) if self.in_window(v.coord) else None
            entry = self._entries[v] = (int.from_bytes(cube, "little"), offset, None)
        return entry

    def _vertex(self, v: VertexId) -> VertexId:
        """v, once model._record admits it, else InvalidVertex.  The public
        entry points apply this before ``_entries`` is read: the cache keys
        on equality, so X:True:(0,1) would hit the entry of X:1:(0,1)."""
        if model._record(self.t, v) is None:
            raise InvalidVertex(f"not a vertex of the model: {v}")
        return v

    def cube(self, v: VertexId) -> int:
        """Arrow-existence bitmask for all arrows out of v (no identity)."""
        return self._entry(self._vertex(v))[0]

    def basis_cube(self, v: VertexId) -> int:
        """cube(v) plus the identity bit at the point of v (when in window)."""
        return self._basis(self._vertex(v))

    def _basis(self, v: VertexId) -> int:
        """basis_cube without the vertex rule, for the hot paths."""
        c, off, _ = self._entry(v)
        return c if off is None else c | ID_BIT << off

    def _endpoint(self, top: VertexId, u) -> tuple:
        """(S, p) for a basis morphism u: top -> S, the one endpoint rule of
        the engine: (top, 0) for the identity of top, (its target, its
        degree) for an arrow out of top of a degree in 0..max_degree whose
        target :meth:`_vertex` admits.  A morphism that does not start at
        top, or that is no identity or arrow, raises MalformedModel."""
        if isinstance(u, IdentityMorphism):
            if u.vertex != top:
                raise MalformedModel(f"{u} does not start at {top}")
            return top, 0
        if not isinstance(u, ArrowMorphism):
            raise MalformedModel(f"{u} is no basis morphism")
        if u.src != top:
            raise MalformedModel(f"{u} does not start at {top}")
        if not 0 <= u.degree <= self.max_degree:
            raise MalformedModel(f"{u} has degree {u.degree}; degrees of {self.t} lie in 0..{self.max_degree}")
        return self._vertex(u.dst), u.degree

    def _image(self, top: VertexId, T: VertexId, p: int) -> int:
        """The image of f: top -> T, the identity when T is top at p == 0,
        else the basis arrow of degree p, which must exist."""
        if p == 0 and T == top:
            return self._basis(top)
        cT, offT, _ = self._entry(T)
        out = ((cT << p) if p else cT) & self._entry(top)[0]
        return out if offT is None else out | 2 << (offT + p)  # bit p + 1 of T's cell: f itself

    def image_cube(self, top: VertexId, gens) -> int:
        """Bitmask of eval_sub(<gens>, V) for every window vertex V."""
        self._vertex(top)
        out = 0
        for f in gens:
            if not isinstance(f, ZeroMorphism):
                out |= self._image(top, *self._endpoint(top, f))
        return out

    def _sink_image(self, v: VertexId) -> int:
        """image_cube(v, ar_sink_maps(t, v)), by the sink memo (see the
        module docstring)."""
        c, off, image = self._entry(v)
        if image is None:
            image = self.image_cube(v, model.ar_sink_maps(self.t, v))
            if image == c:
                image = c
            self._entries[v] = (c, off, image)
        return image

    def dims_cube(self, top: VertexId, denom_gens) -> bytes:
        """Pointwise dimensions of Hom(top, -)/<denom_gens>: one count per
        cell, laid out as :meth:`cells`."""
        basis = self.basis_cube(top)
        alive = basis ^ (basis & self.image_cube(top, denom_gens))
        return self.cells(alive).translate(_POPCOUNT)

    # -- kernels and exactness checks ---------------------------------------

    def _kernel(self, top: VertexId, S: VertexId, p: int, modulo: int) -> int:
        """Bitmask of {h in basis(S, V) : h o u in <modulo> or h o u = 0},
        for u: top -> S the identity when S is top at p == 0, else the basis
        arrow of degree p, and modulo an image cube over top.  The one
        kernel of the engine."""
        if p == 0 and S == top:
            return self._basis(top) & modulo
        cS, offS, _ = self._entry(S)
        ctop = self._entry(top)[0]
        alive = ctop ^ (ctop & modulo)
        if p:
            alive >>= p
        kern = cS ^ (cS & alive)
        if offS is not None and (modulo >> (offS + p + 1)) & 1:
            kern |= ID_BIT << offS
        return kern

    def kernel_matches(self, top: VertexId, u, mid_gens, expected_gens) -> bool:
        """ker(- o u  mod <mid_gens>) == <expected_gens> at every window V.

        u is a basis morphism top -> S (:meth:`_endpoint`), and expected_gens
        generate a subfunctor at S.
        """
        S, p = self._endpoint(top, u)
        return self._kernel(top, S, p, self.image_cube(top, mid_gens)) == self.image_cube(S, expected_gens)

    def ses_foreign(self, top: VertexId, u, sub_top, sub_gens, mid_gens, quot_gens) -> bool:
        """Exactness of 0 -> (H_S/<sub_gens>) -> H_top/<mid_gens> -> H_top/<quot_gens> -> 0
        with the left map induced by precomposition with u: top -> S."""
        S, p = self._endpoint(top, u)
        if S != sub_top:
            raise ValueError(f"u targets {S} but the sub lives at {sub_top}")
        return self._ses(
            top, S, p,
            self.image_cube(S, sub_gens), self.image_cube(top, mid_gens), self.image_cube(top, quot_gens),
        )

    def _ses(self, top: VertexId, S: VertexId, p: int, sub: int, mid: int, quot: int) -> bool:
        """ses_foreign on image cubes, for u: top -> S as in :meth:`_kernel`:
        sub over S, mid and quot over top.

        Pointwise on the window this is: the kernel of (- o u) modulo the
        middle denominator equals the sub's denominator; the middle
        denominator is contained in the quotient's; and the quotient's
        denominator is exactly the middle one plus the image of u.  The
        third condition implies the second, so only the first and third
        are tested.
        """
        return self._kernel(top, S, p, mid) == sub and quot == mid | self._image(top, S, p)

    # -- whole-window enumeration -------------------------------------------

    def vertices(self) -> list:
        """All valid vertices with coordinates in the window, channel-major."""
        return model.vertices_in_box(self.t, self.x0, self.x1, self.y0, self.y1)

    def dims_at_vertices(self, dims) -> dict:
        """Restrict per-cell counts (laid out as :meth:`cells`) to valid
        vertices: {VertexId: dimension}."""
        return {v: dims[self.cell(v)] for v in self.vertices()}


@lru_cache(maxsize=32)
def get_engine(t: GentleTriple, box: tuple) -> WindowEngine:
    return WindowEngine(t, box)
