"""Bitmask window-sweep engine.

Window-quantified checks (dimension counts, kernels of precomposition,
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
operations.  No shift can move a bit into a neighbouring
cell's low bits: cell bits are at most bit ``max_degree + 1 <= 3`` and shifts
are at most ``max_degree <= 2`` places, so a left shift stays below bit 6 of
its own cell, and a right shift can only push bits into bits 6-7 of the cell
below, which the AND with a cube (bits 0-3 only) that follows every right
shift clears.  Generators and arrows of any other degree are rejected before
they are shifted.  ``a AND NOT b`` is written ``a ^ (a & b)``: on
non-negative ints it equals ``a & ~b`` without forming the negative ``~b``,
whose AND costs several times more.

Per-cell dimensions are bit counts: ``bytes.translate`` with a 256-entry
popcount table maps a cube's bytes to its counts, in the same layout.  A
cell holds at most 4 bits, so count cubes of two cubes add without carries
and compare as ints (:meth:`WindowEngine.ses_dimension_check`).  The valid
mask (:meth:`WindowEngine.valid_mask`) is one int with 0xFF in every cell
that is a vertex of its channel.

Cubes are cached per source vertex, so a certification run touching the same
tops repeatedly costs one fan rasterisation per vertex (the hot kernel,
:func:`kgcert._kernels.fan_cube`) plus a handful of int operations per
check.  The cache ``_entries`` is keyed by the
:class:`~kgcert.model.VertexId` itself, a NamedTuple that hashes and
compares in C.
"""

from __future__ import annotations

from functools import lru_cache

from . import _kernels, model
from .model import IdentityMorphism, VertexId, ZeroMorphism
from .presentation import GentleTriple

_POPCOUNT = bytes(bin(i).count("1") for i in range(256))

ID_BIT = 1


class WindowEngine:
    """Sweep evaluator for one triple on one window box."""

    def __init__(self, t: GentleTriple, box: tuple):
        self.t = t
        self.x0, self.x1, self.y0, self.y1 = (int(v) for v in box)
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError(f"degenerate window box {box}")
        self.nx = self.x1 - self.x0 + 1
        self.ny = self.y1 - self.y0 + 1
        self.channels = [
            (fam, orb)
            for fam in model.families(t)
            for orb in range(t.orbit_count)
        ]
        self.chan_index = {c: i for i, c in enumerate(self.channels)}
        self.nchan = len(self.channels)
        self.max_degree = t.max_degree
        self.nbytes = self.nchan * self.nx * self.ny
        # VertexId -> (cube, bit offset of the vertex's own cell or None)
        self._entries: dict = {}
        self._valid = None

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

    def valid_mask(self) -> int:
        """0xFF in every cell whose coordinate is a vertex of its channel."""
        if self._valid is None:
            buf = bytearray(self.nbytes)
            for v in self.vertices():
                buf[self.cell(v)] = 0xFF
            self._valid = int.from_bytes(buf, "little")
        return self._valid

    # -- cubes -------------------------------------------------------------

    def _entry(self, v: VertexId) -> tuple:
        """(cube(v), bit offset of v's cell, or None when v is outside the
        window), built on first use."""
        entry = self._entries.get(v)
        if entry is None:
            rows = [
                (
                    self.chan_index[(e.family, e.orbit)],
                    1 << (e.degree + 1),
                    e.region,
                    v.coord if e.excludes_src else None,
                )
                for e in model.arrow_fan(self.t, v).entries
            ]
            cube = _kernels.fan_cube(self.x0, self.nx, self.y0, self.ny, self.nchan, rows)
            offset = 8 * self.cell(v) if self.in_window(v.coord) else None
            entry = self._entries[v] = (int.from_bytes(cube, "little"), offset)
        return entry

    def cube(self, v: VertexId) -> int:
        """Arrow-existence bitmask for all arrows out of v (no identity)."""
        return self._entry(v)[0]

    def basis_cube(self, v: VertexId) -> int:
        """cube(v) plus the identity bit at the point of v (when in window)."""
        c, off = self._entry(v)
        return c if off is None else c | ID_BIT << off

    def _degree(self, f) -> int:
        p = f.degree
        if not 0 <= p <= self.max_degree:
            raise ValueError(
                f"{f} has degree {p}; degrees of {self.t} lie in 0..{self.max_degree}"
            )
        return p

    def image_cube(self, top: VertexId, gens) -> int:
        """Bitmask of eval_sub(<gens>, V) for every window vertex V."""
        out = 0
        ctop = None
        for f in gens:
            if isinstance(f, ZeroMorphism):
                continue
            if isinstance(f, IdentityMorphism):
                out |= self.basis_cube(top)
                continue
            p = self._degree(f)
            if ctop is None:
                ctop = self._entry(top)[0]
            cT, offT = self._entry(f.dst)
            out |= ((cT << p) if p else cT) & ctop
            if offT is not None:
                out |= 2 << (offT + p)  # bit p + 1 of T's cell: f itself
        return out

    def dims_cube(self, top: VertexId, denom_gens) -> bytes:
        """Pointwise dimensions of Hom(top, -)/<denom_gens>: one count per
        cell, laid out as :meth:`cells`."""
        basis = self.basis_cube(top)
        alive = basis ^ (basis & self.image_cube(top, denom_gens))
        return self.cells(alive).translate(_POPCOUNT)

    # -- kernels and exactness checks ---------------------------------------

    def kernel_cube(self, top: VertexId, u, modulo: int) -> int:
        """Bitmask of {h in basis(S, V) : h o u in <modulo> or h o u = 0}.

        u is a basis morphism top -> S (arrow or identity); modulo is an
        image cube over top.
        """
        if isinstance(u, IdentityMorphism):
            return self.basis_cube(top) & modulo
        p = self._degree(u)
        cS, offS = self._entry(u.dst)
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

        expected_gens generate a subfunctor at the target of u.
        """
        S = model.target_of(u)
        mod = self.image_cube(top, mid_gens)
        kern = self.kernel_cube(top, u, mod)
        return kern == self.image_cube(S, expected_gens)

    def ses_foreign(self, top: VertexId, u, sub_top, sub_gens, mid_gens, quot_gens) -> bool:
        """Exactness of 0 -> (H_S/<sub_gens>) -> H_top/<mid_gens> -> H_top/<quot_gens> -> 0
        with the left map induced by precomposition with u: top -> S.

        Pointwise on the window this is: the kernel of (- o u) modulo the
        middle denominator equals the sub's denominator; the middle
        denominator is contained in the quotient's; and the quotient's
        denominator is exactly the middle one plus the image of u.
        """
        S = model.target_of(u)
        if S != sub_top:
            raise ValueError(f"u targets {S} but the sub lives at {sub_top}")
        mod = self.image_cube(top, mid_gens)
        kern = self.kernel_cube(top, u, mod)
        if kern != self.image_cube(S, sub_gens):
            return False
        quot = self.image_cube(top, quot_gens)
        if mod & quot != mod:
            return False
        return quot == mod | self.image_cube(top, (u,))

    def ses_dimension_check(self, top: VertexId, sub_gens, mid_gens, quot_gens) -> bool:
        """dim(mid) == dim(sub image in mid) + dim(quot) everywhere, and the
        sub image is contained in the quotient denominator fiber."""
        sub = self.image_cube(top, sub_gens)
        mid = self.image_cube(top, mid_gens)
        quot = self.image_cube(top, quot_gens)
        if sub & quot != sub:
            return False
        basis = self.basis_cube(top)
        dim_mid = self._counts(basis ^ (basis & mid))
        dim_quot = self._counts(basis ^ (basis & quot))
        sub_in_mid = self._counts(sub ^ (sub & mid))
        return dim_mid == sub_in_mid + dim_quot

    def _counts(self, bits: int) -> int:
        """The per-cell bit counts of a cube, as a cube."""
        return int.from_bytes(self.cells(bits).translate(_POPCOUNT), "little")

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
