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
little-endian form holds the cell of channel ci at window point (ix, iy),
so the cell sits at bit offset ``8*((ci*nx + ix)*ny + iy)``: the layout of
a C-ordered uint8 array of shape (nchan, nx, ny).  Masks, shifts and
equality are then single int operations, several times cheaper than numpy
calls on grids this small.  No shift can move a bit into a neighbouring
cell's low bits: cell bits are at most bit ``max_degree + 1 <= 3`` and shifts
are at most ``max_degree <= 2`` places, so a left shift stays below bit 6 of
its own cell, and a right shift can only push bits into bits 6-7 of the cell
below, which the AND with a cube (bits 0-3 only) that follows every right
shift clears.  Generators and arrows of any other degree are rejected before
they are shifted.  ``a AND NOT b`` is written ``a ^ (a & b)``: on
non-negative ints it equals ``a & ~b`` without forming the negative ``~b``,
whose AND costs several times more.

Only :meth:`WindowEngine.dims_cube`, :meth:`WindowEngine.ses_dimension_check`
and :meth:`WindowEngine.associativity_scan` need per-cell arithmetic or
indexing; they read cubes as uint8 arrays through :meth:`WindowEngine.grid`.

Cubes are cached per source vertex, so a certification run touching the same
tops repeatedly costs one region rasterisation per vertex (the hot kernel,
see :mod:`kgcert._kernels`) plus a handful of int operations per check.  The
cache ``_entries`` is keyed by the :class:`~kgcert.model.VertexId` itself,
a NamedTuple that hashes and compares in C.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _kernels, model
from .model import ArrowMorphism, IdentityMorphism, VertexId, ZeroMorphism
from .presentation import GentleTriple
from .regions import NEG_INF, POS_INF

_CLIP = 2**62

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

ID_BIT = 1


def _clip(v) -> int:
    if v == POS_INF:
        return _CLIP
    if v == NEG_INF:
        return -_CLIP
    return int(v)


class WindowEngine:
    """Sweep evaluator for one triple on one window box."""

    def __init__(self, t: GentleTriple, box: tuple):
        self.t = t
        self.x0, self.x1, self.y0, self.y1 = (int(v) for v in box)
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError(f"degenerate window box {box}")
        self.xs = np.arange(self.x0, self.x1 + 1, dtype=np.int64)
        self.ys = np.arange(self.y0, self.y1 + 1, dtype=np.int64)
        self.channels = [
            (fam, orb)
            for fam in model.families(t)
            for orb in range(t.orbit_count)
        ]
        self.chan_index = {c: i for i, c in enumerate(self.channels)}
        self.nchan = len(self.channels)
        self.max_degree = t.max_degree
        self._shape = (self.nchan, self.xs.size, self.ys.size)
        self._nbytes = self.nchan * self.xs.size * self.ys.size
        # VertexId -> (cube, bit offset of the vertex's own cell or None)
        self._entries: dict = {}
        self._valid_cache = None

    # -- grid plumbing ----------------------------------------------------

    def in_window(self, coord) -> bool:
        x, y = coord
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def point_index(self, coord) -> tuple:
        x, y = coord
        return (x - self.x0, y - self.y0)

    def grid(self, bits: int):
        """The cube ``bits`` as a read-only uint8 array of shape (nchan, nx, ny)."""
        return np.frombuffer(
            bits.to_bytes(self._nbytes, "little"), dtype=np.uint8
        ).reshape(self._shape)

    def valid_masks(self):
        """Boolean grid per channel marking coordinates that are vertices."""
        if self._valid_cache is None:
            table = model.index_regions(self.t)
            out = np.zeros(self._shape, dtype=bool)
            X = self.xs[:, None]
            Y = self.ys[None, :]
            for c, chan in enumerate(self.channels):
                reg = table[chan]
                out[c] = (
                    (X >= _clip(reg.lo_x))
                    & (X <= _clip(reg.hi_x))
                    & (Y >= _clip(reg.lo_y))
                    & (Y <= _clip(reg.hi_y))
                    & (X - Y >= _clip(reg.lo_d))
                    & (X - Y <= _clip(reg.hi_d))
                )
            self._valid_cache = out
        return self._valid_cache

    # -- cubes -------------------------------------------------------------

    def _entry(self, v: VertexId) -> tuple:
        """(cube(v), bit offset of v's cell, or None when v is outside the
        window), built on first use."""
        entry = self._entries.get(v)
        if entry is None:
            rows = []
            for e in model.arrow_fan(self.t, v).entries:
                reg = e.region
                rows.append(
                    (
                        self.chan_index[(e.family, e.orbit)],
                        1 << (e.degree + 1),
                        _clip(reg.lo_x),
                        _clip(reg.hi_x),
                        _clip(reg.lo_y),
                        _clip(reg.hi_y),
                        1 if e.excludes_src else 0,
                        v.coord[0],
                        v.coord[1],
                    )
                )
            rows_arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), 9)
            arr = _kernels.fan_cube(self.xs, self.ys, rows_arr, self.nchan)
            offset = None
            if self.in_window(v.coord):
                ix, iy = self.point_index(v.coord)
                ci = self.chan_index[(v.family, v.orbit)]
                offset = 8 * ((ci * self._shape[1] + ix) * self._shape[2] + iy)
            entry = self._entries[v] = (int.from_bytes(arr.tobytes(), "little"), offset)
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

    def dims_cube(self, top: VertexId, denom_gens):
        """Pointwise dimension grid of Hom(top, -)/<denom_gens>."""
        basis = self.basis_cube(top)
        alive = basis ^ (basis & self.image_cube(top, denom_gens))
        return _POPCOUNT[self.grid(alive)].astype(np.int32)

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
        dim_mid = _POPCOUNT[self.grid(basis ^ (basis & mid))].astype(np.int32)
        dim_quot = _POPCOUNT[self.grid(basis ^ (basis & quot))].astype(np.int32)
        sub_in_mid = _POPCOUNT[self.grid(sub ^ (sub & mid))].astype(np.int32)
        return bool(np.array_equal(dim_mid, sub_in_mid + dim_quot))

    # -- whole-window enumeration -------------------------------------------

    def vertices(self):
        """All valid vertices with coordinates in the window, channel-major."""
        valid = self.valid_masks()
        out = []
        for ci, (fam, orb) in enumerate(self.channels):
            ixs, iys = np.nonzero(valid[ci])
            for ix, iy in zip(ixs.tolist(), iys.tolist()):
                out.append(
                    VertexId(fam, orb, (int(self.xs[ix]), int(self.ys[iy])))
                )
        return out

    def dims_at_vertices(self, dims) -> dict:
        """Restrict a dims grid to valid vertices: {VertexId: dimension}."""
        valid = self.valid_masks()
        out = {}
        for ci, (fam, orb) in enumerate(self.channels):
            ixs, iys = np.nonzero(valid[ci])
            for ix, iy in zip(ixs.tolist(), iys.tolist()):
                out[VertexId(fam, orb, (int(self.xs[ix]), int(self.ys[iy])))] = int(
                    dims[ci, ix, iy]
                )
        return out

    # -- associativity scan ---------------------------------------------------

    def associativity_scan(self):
        """Search all composable basis-arrow triples inside the window for an
        associativity failure of the monomial composition rule.

        Returns None, or a tuple (f, g, h) of arrows witnessing
        h o (g o f) != (h o g) o f.
        """
        verts = self.vertices()
        nv = len(verts)
        vid = {v: i for i, v in enumerate(verts)}
        coords = {}
        for ci in range(self.nchan):
            members = [(i, v) for i, v in enumerate(verts) if self.chan_index[(v.family, v.orbit)] == ci]
            coords[ci] = members
        ebits = np.zeros((nv, nv), dtype=np.uint8)
        for i, v in enumerate(verts):
            cube = self.grid(self.cube(v))
            for ci, members in coords.items():
                for j, w in members:
                    ix, iy = self.point_index(w.coord)
                    ebits[i, j] = ebits[i, j] | cube[ci, ix, iy]
        srcs, dsts, degs = [], [], []
        for i in range(nv):
            for j in range(nv):
                bits = int(ebits[i, j])
                for d in range(self.max_degree + 1):
                    if bits & (1 << (d + 1)):
                        srcs.append(i)
                        dsts.append(j)
                        degs.append(d)
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        degs = np.asarray(degs, dtype=np.int64)
        order = np.argsort(srcs, kind="stable")
        srcs, dsts, degs = srcs[order], dsts[order], degs[order]
        indptr = np.zeros(nv + 1, dtype=np.int64)
        np.add.at(indptr, srcs + 1, 1)
        indptr = np.cumsum(indptr)
        hit = _kernels.assoc_violation(ebits, srcs, dsts, degs, indptr, self.max_degree)
        if hit is None:
            return None
        u, v, w, tv, p, q, s = hit
        return (
            ArrowMorphism(verts[u], verts[v], p),
            ArrowMorphism(verts[v], verts[w], q),
            ArrowMorphism(verts[w], verts[tv], s),
        )


@lru_cache(maxsize=32)
def get_engine(t: GentleTriple, box: tuple) -> WindowEngine:
    return WindowEngine(t, box)
