"""Backend kernels for the window sweep engine.

Two implementations of each hot kernel: plain vectorised numpy, and numba
``@njit`` loops.  The active backend is chosen at import time: numba when it
is importable, unless the environment variable ``KGCERT_BACKEND`` forces one
of ``numba`` / ``numpy``.  Everything downstream only uses the ``fan_cube``
and ``assoc_violation`` aliases, so the two paths stay interchangeable; the
test suite compares them when numba is installed.

Data conventions: grids are uint8 bitmasks of shape (channels, nx, ny) with
bit 0 marking the identity and bit d+1 a degree-d arrow.  Region rows are
int64 ``(channel, bit, lo_x, hi_x, lo_y, hi_y, has_exclusion, ex, ey)`` with
infinities clipped to +-2**62 (window coordinates are tiny so the clipped
bounds are equivalent).  The engine converts each ``fan_cube`` grid to one
Python int, once per source vertex, and does all further bit algebra on ints.
"""

from __future__ import annotations

import os

import numpy as np

_env = os.environ.get("KGCERT_BACKEND", "").strip().lower()
if _env not in ("", "numba", "numpy"):
    raise RuntimeError(f"KGCERT_BACKEND must be 'numba' or 'numpy', got {_env!r}")

_numba_njit = None
if _env != "numpy":
    try:
        from numba import njit as _numba_njit
    except ImportError:  # pragma: no cover - depends on environment
        _numba_njit = None
        if _env == "numba":
            raise RuntimeError("KGCERT_BACKEND=numba but numba is not importable")

HAS_NUMBA = _numba_njit is not None
BACKEND = "numba" if HAS_NUMBA else "numpy"


def fan_cube_numpy(xs, ys, rows, nchan):
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


def _assoc_violation_numpy(ebits, srcs, dsts, degs, indptr, max_degree):
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


def assoc_violation_numpy(ebits, srcs, dsts, degs, indptr, max_degree):
    return _assoc_violation_numpy(ebits, srcs, dsts, degs, indptr, max_degree)


if HAS_NUMBA:

    @_numba_njit(cache=True)
    def _fan_cube_numba(xs, ys, rows, nchan):  # pragma: no cover - jit
        nx = xs.size
        ny = ys.size
        out = np.zeros((nchan, nx, ny), dtype=np.uint8)
        for k in range(rows.shape[0]):
            c = rows[k, 0]
            bit = np.uint8(rows[k, 1])
            lox, hix, loy, hiy = rows[k, 2], rows[k, 3], rows[k, 4], rows[k, 5]
            has_excl, ex, ey = rows[k, 6], rows[k, 7], rows[k, 8]
            for ix in range(nx):
                x = xs[ix]
                if x < lox or x > hix:
                    continue
                for iy in range(ny):
                    y = ys[iy]
                    if y < loy or y > hiy:
                        continue
                    if has_excl and x == ex and y == ey:
                        continue
                    out[c, ix, iy] |= bit
        return out

    @_numba_njit(cache=True)
    def _assoc_violation_numba(ebits, srcs, dsts, degs, indptr, max_degree):  # pragma: no cover - jit
        narr = srcs.size
        for a in range(narr):
            u = srcs[a]
            v = dsts[a]
            p = degs[a]
            for b in range(indptr[v], indptr[v + 1]):
                w = dsts[b]
                q = degs[b]
                pq = p + q
                if pq <= max_degree:
                    epq = (ebits[u, w] >> (pq + 1)) & 1
                else:
                    epq = 0
                for cidx in range(indptr[w], indptr[w + 1]):
                    tv = dsts[cidx]
                    s = degs[cidx]
                    tot = pq + s
                    if tot > max_degree:
                        continue
                    e3 = (ebits[u, tv] >> (tot + 1)) & 1
                    if e3 == 0:
                        continue
                    eqs = (ebits[v, tv] >> (q + s + 1)) & 1
                    if eqs != epq:
                        return np.array([u, v, w, tv, p, q, s], dtype=np.int64)
        return np.full(7, -1, dtype=np.int64)

    def fan_cube_numba(xs, ys, rows, nchan):
        return _fan_cube_numba(xs, ys, rows, nchan)

    def assoc_violation_numba(ebits, srcs, dsts, degs, indptr, max_degree):
        res = _assoc_violation_numba(ebits, srcs, dsts, degs, indptr, max_degree)
        if res[0] < 0:
            return None
        return tuple(int(x) for x in res)

else:  # pragma: no cover - depends on environment
    fan_cube_numba = None
    assoc_violation_numba = None


if BACKEND == "numba":
    fan_cube = fan_cube_numba
    assoc_violation = assoc_violation_numba
else:
    fan_cube = fan_cube_numpy
    assoc_violation = assoc_violation_numpy
