"""Numpy kernels for the window sweep engine.

``fan_cube`` rasterises the arrow fan of one source vertex into a uint8
cube, and ``assoc_violation`` searches the arrows of a window for a failure
of associativity.  They are the engine's only numpy kernels; its other bit
algebra runs on Python ints (see :mod:`kgcert.engine`).

Data conventions: grids are uint8 bitmasks of shape (channels, nx, ny) with
bit 0 marking the identity and bit d+1 a degree-d arrow.  Region rows are
int64 ``(channel, bit, lo_x, hi_x, lo_y, hi_y, has_exclusion, ex, ey)`` with
infinities clipped to +-2**62 (window coordinates are tiny so the clipped
bounds are equivalent).  The engine converts each ``fan_cube`` grid to one
Python int, once per source vertex, and does all further bit algebra on ints.
"""

from __future__ import annotations

import numpy as np


def fan_cube(xs, ys, rows, nchan):
    """OR region-membership bitmasks into a (nchan, nx, ny) cube."""
    out = np.zeros((nchan, xs.size, ys.size), dtype=np.uint8)
    X = xs[:, None]
    Y = ys[None, :]
    for k in range(rows.shape[0]):
        c, bit, lox, hix, loy, hiy, has_excl, ex, ey = rows[k]
        mask = (X >= lox) & (X <= hix) & (Y >= loy) & (Y <= hiy)
        if has_excl:
            mask &= ~((X == ex) & (Y == ey))
        out[c][mask] |= np.uint8(bit)
    return out


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
