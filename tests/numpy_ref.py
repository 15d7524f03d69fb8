"""Numpy helpers for the tests: cubes as uint8 grids and the window
associativity scan.

The package itself is stdlib-only; these helpers read its int cubes, whose
cells are packed at the engine's width, as uint8 arrays of shape
(nchan, nx, ny), one byte per cell (see :mod:`kgcert.engine`).
"""

import numpy as np

from kgcert.model import ArrowMorphism


def grid(eng, bits: int):
    """The cube ``bits`` as a read-only uint8 array of shape (nchan, nx, ny)."""
    return np.frombuffer(eng.cells(bits), dtype=np.uint8).reshape(eng.nchan, eng.nx, eng.ny)


def unpack(buf, width: int, shape: tuple):
    """A little-endian buffer of width-bit cells (the engine's packed
    layout) as a uint8 array of the given shape, by numpy's bit unpacking:
    a reference for ``WindowEngine.cells`` that shares none of its code.
    Bits past the last cell must be zero."""
    n = int(np.prod(shape))
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")
    assert not bits[width * n:].any(), "bits set past the last cell"
    return np.packbits(bits[: width * n].reshape(n, width), axis=1, bitorder="little")[:, 0].reshape(shape)


def point_index(eng, coord) -> tuple:
    """(ix, iy) of a window coordinate in the engine's grids."""
    x, y = coord
    return (x - eng.x0, y - eng.y0)


def associativity_scan(eng):
    """Search all composable basis-arrow triples inside the engine's window
    for an associativity failure of the monomial composition rule.

    Returns None, or a tuple (f, g, h) of arrows witnessing
    h o (g o f) != (h o g) o f.
    """
    verts = eng.vertices()
    nv = len(verts)
    coords = {}
    for ci in range(eng.nchan):
        members = [(i, v) for i, v in enumerate(verts) if eng.chan_index[(v.family, v.orbit)] == ci]
        coords[ci] = members
    ebits = np.zeros((nv, nv), dtype=np.uint8)
    for i, v in enumerate(verts):
        cube = grid(eng, eng.cube(v))
        for ci, members in coords.items():
            for j, w in members:
                ix, iy = point_index(eng, w.coord)
                ebits[i, j] = ebits[i, j] | cube[ci, ix, iy]
    srcs, dsts, degs = [], [], []
    for i in range(nv):
        for j in range(nv):
            bits = int(ebits[i, j])
            for d in range(eng.max_degree + 1):
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
    hit = assoc_violation(ebits, srcs, dsts, degs, indptr, eng.max_degree)
    if hit is None:
        return None
    u, v, w, tv, p, q, s = hit
    return (
        ArrowMorphism(verts[u], verts[v], p),
        ArrowMorphism(verts[v], verts[w], q),
        ArrowMorphism(verts[w], verts[tv], s),
    )


def assoc_violation(ebits, srcs, dsts, degs, indptr, max_degree):
    """First associativity violation over all composable basis-arrow triples.

    Returns (u, v, w, tvert, p, q, s) or None.  ebits[u, w] has bit d+1 set
    iff an arrow u -> w of degree d exists.
    """
    nv = ebits.shape[0]
    for v in range(nv):
        into_v = np.nonzero(dsts == v)[0]
        if into_v.size == 0:
            continue
        out_v = slice(indptr[v], indptr[v + 1])
        ws = dsts[out_v]
        qs = degs[out_v]
        if ws.size == 0:
            continue
        for a in into_v:
            u, p = srcs[a], degs[a]
            pq = p + qs
            ok = pq <= max_degree
            epq = np.zeros(ws.size, dtype=bool)
            epq[ok] = (ebits[u, ws[ok]] >> (pq[ok] + 1)) & 1
            for j in range(ws.size):
                w, q = ws[j], qs[j]
                out_w = slice(indptr[w], indptr[w + 1])
                ts = dsts[out_w]
                ss = degs[out_w]
                if ts.size == 0:
                    continue
                tot = p + q + ss
                okj = tot <= max_degree
                if not okj.any():
                    continue
                ts2, ss2, tot2 = ts[okj], ss[okj], tot[okj]
                e3 = ((ebits[u, ts2] >> (tot2 + 1)) & 1).astype(bool)
                eqs = ((ebits[v, ts2] >> (q + ss2 + 1)) & 1).astype(bool)
                bad = e3 & (eqs != bool(epq[j]))
                if bad.any():
                    jj = int(np.nonzero(bad)[0][0])
                    return (int(u), int(v), int(w), int(ts2[jj]), int(p), int(q), int(ss2[jj]))
    return None
