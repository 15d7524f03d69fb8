"""Bitmask window-sweep engine.

Window-quantified checks (dimension counts, kernels of precomposition,
exact-sequence replays) all reduce to bit algebra on small uint8 grids:
per (family, orbit) channel, the grid entry at a target coordinate V holds
one bit per basis morphism from a fixed source vertex to V (bit 0 identity,
bit d+1 a degree-d arrow).  Monomial composition shifts degree bits:

* image of a generator f: top -> T of degree p at V is
  ``(cube(T) << p) & cube(top)`` plus f itself at V = T;
* kernel of (- o f) against a modulus M is
  ``cube(T) & ~((cube(top) & ~M) >> p)`` plus an identity-bit test at T.

Cubes are cached per source vertex, so a certification run touching the same
tops repeatedly costs one region rasterisation per vertex (the hot kernel,
see :mod:`kgcert._kernels`) plus a handful of elementwise operations per
check.
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
        self._cube_cache: dict = {}
        self._basis_cache: dict = {}
        self._valid_cache = None

    # -- grid plumbing ----------------------------------------------------

    def in_window(self, coord) -> bool:
        x, y = coord
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def point_index(self, coord) -> tuple:
        x, y = coord
        return (x - self.x0, y - self.y0)

    def valid_masks(self):
        """Boolean grid per channel marking coordinates that are vertices."""
        if self._valid_cache is None:
            table = model.index_regions(self.t)
            out = np.zeros((self.nchan, self.xs.size, self.ys.size), dtype=bool)
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

    def cube(self, v: VertexId):
        """Arrow-existence bitmask grid for all arrows out of v (no identity)."""
        c = self._cube_cache.get(v)
        if c is None:
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
            c = _kernels.fan_cube(self.xs, self.ys, rows_arr, self.nchan)
            self._cube_cache[v] = c
        return c

    def basis_cube(self, v: VertexId):
        """cube(v) plus the identity bit at the point of v (when in window)."""
        c = self._basis_cache.get(v)
        if c is None:
            c = self.cube(v).copy()
            if self.in_window(v.coord):
                ix, iy = self.point_index(v.coord)
                c[self.chan_index[(v.family, v.orbit)], ix, iy] |= ID_BIT
            c.flags.writeable = False
            self._basis_cache[v] = c
        return c

    def image_cube(self, top: VertexId, gens):
        """Bitmask grid of eval_sub(<gens>, V) for every window vertex V."""
        out = np.zeros((self.nchan, self.xs.size, self.ys.size), dtype=np.uint8)
        ctop = None
        for f in gens:
            if isinstance(f, ZeroMorphism):
                continue
            if isinstance(f, IdentityMorphism):
                out |= self.basis_cube(top)
                continue
            if ctop is None:
                ctop = self.cube(top)
            T, p = f.dst, f.degree
            out |= (self.cube(T) << np.uint8(p)) & ctop
            if self.in_window(T.coord):
                ix, iy = self.point_index(T.coord)
                out[self.chan_index[(T.family, T.orbit)], ix, iy] |= 1 << (p + 1)
        return out

    def dims_cube(self, top: VertexId, denom_gens):
        """Pointwise dimension grid of Hom(top, -)/<denom_gens>."""
        alive = self.basis_cube(top) & ~self.image_cube(top, denom_gens)
        return _POPCOUNT[alive].astype(np.int32)

    # -- kernels and exactness checks ---------------------------------------

    def kernel_cube(self, top: VertexId, u, modulo):
        """Bitmask of {h in basis(S, V) : h o u in <modulo> or h o u = 0}.

        u is a basis morphism top -> S (arrow or identity); modulo is an
        image cube over top.
        """
        if isinstance(u, IdentityMorphism):
            return self.basis_cube(top) & modulo
        S, p = u.dst, u.degree
        alive = self.cube(top) & ~modulo
        kern = self.cube(S) & ~(alive >> np.uint8(p))
        if self.in_window(S.coord):
            ix, iy = self.point_index(S.coord)
            ci = self.chan_index[(S.family, S.orbit)]
            if modulo[ci, ix, iy] & (1 << (p + 1)):
                kern[ci, ix, iy] |= ID_BIT
        return kern

    def kernel_matches(self, top: VertexId, u, mid_gens, expected_gens) -> bool:
        """ker(- o u  mod <mid_gens>) == <expected_gens> at every window V.

        expected_gens generate a subfunctor at the target of u.
        """
        S = model.target_of(u)
        mod = self.image_cube(top, mid_gens)
        kern = self.kernel_cube(top, u, mod)
        expected = self.image_cube(S, expected_gens)
        return np.array_equal(kern, expected)

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
        expected = self.image_cube(S, sub_gens)
        if not np.array_equal(kern, expected):
            return False
        quot = self.image_cube(top, quot_gens)
        if (mod & ~quot).any():
            return False
        u_img = self.image_cube(top, (u,))
        return np.array_equal(quot, mod | u_img)

    def ses_dimension_check(self, top: VertexId, sub_gens, mid_gens, quot_gens) -> bool:
        """dim(mid) == dim(sub image in mid) + dim(quot) everywhere, and the
        sub image is contained in the quotient denominator fiber."""
        sub = self.image_cube(top, sub_gens)
        mid = self.image_cube(top, mid_gens)
        quot = self.image_cube(top, quot_gens)
        if (sub & ~quot).any():
            return False
        basis = self.basis_cube(top)
        dim_mid = _POPCOUNT[basis & ~mid].astype(np.int32)
        dim_quot = _POPCOUNT[basis & ~quot].astype(np.int32)
        sub_in_mid = _POPCOUNT[sub & ~mid].astype(np.int32)
        return bool(np.array_equal(dim_mid, sub_in_mid + dim_quot))

    def contained(self, top: VertexId, inner_gens, outer_gens) -> bool:
        """eval_sub(<inner>) subset of eval_sub(<outer>) at every window V."""
        inner = self.image_cube(top, inner_gens)
        outer = self.image_cube(top, outer_gens)
        return not (inner & ~outer).any()

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
            cube = self.cube(v)
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
