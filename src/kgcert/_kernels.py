"""The fan rasteriser of the window sweep engine.

``fan_cube`` rasterises the arrow fan of one source vertex into a cube: one
byte per window cell, bit 0 for the identity (never set here) and bit d+1
for a degree-d arrow.  Byte ``(c*nx + ix)*ny + iy`` holds the cell of
channel c at window point (ix, iy), the layout of a C-ordered uint8 array of
shape (nchan, nx, ny) (see :mod:`kgcert.engine`).

Each row is ``(channel, bit, region, exclude)``: the fan entry's channel
index, its degree bit, its region of target coordinates, and the source
coordinate when the entry excludes its source (else None).  Fan regions are
boxes: a region with a finite difference bound raises ``MalformedModel``,
because a box rasteriser would cover it wrongly.

A box clipped to the window is ``k`` consecutive x-rows of the same y-run
of ``len`` cells.  Both repetitions are built without division, by
``_repeat``: the run is ``bit`` repeated ``len`` times every 8 bits, and the
block is the run repeated ``k`` times every ``8*ny`` bits.  ``_repeat``
doubles its copies while they fit, then ORs in one copy of them shifted to
end at the ``k``-th place; the two overlap only in equal copies, and no
copy carries into the next because each is below ``2**stride``.  That is
about ``log2(k)`` shifts and ORs, where the geometric-series form
``run * ((1 << 8*ny*k) - 1) // ((1 << 8*ny) - 1)`` divides a ``k*ny``-byte
int, several times the cost at the benchmark's windows.  An exclusion
clears the bit at the source cell when that cell lies in the clipped box.

The result is the cube's little-endian bytes as a read-only ``memoryview``
with ``nbytes == nchan*nx*ny``; the engine reads it back with
``int.from_bytes(..., "little")``.  A buffer rather than an int, because the
benchmark's tracer (``perfbench/tracer.py``) wraps this function, by module
and name, and counts the bytes each call builds with ``.nbytes``.
"""

from __future__ import annotations

from .errors import MalformedModel
from .regions import NEG_INF, POS_INF


def _repeat(unit: int, stride: int, k: int) -> int:
    """unit repeated k >= 1 times, every stride bits, for 0 <= unit < 2**stride."""
    block, n = unit, 1
    while 2 * n <= k:
        block |= block << stride * n
        n *= 2
    if n < k:
        block |= block << stride * (k - n)  # copies k-n..k-1; k - n <= n, so no gap
    return block


def fan_cube(x0: int, nx: int, y0: int, ny: int, nchan: int, rows) -> memoryview:
    """OR the rows' bits over their regions, clipped to the window
    [x0, x0+nx-1] x [y0, y0+ny-1], into a cube of nchan channels."""
    row_bits = 8 * ny
    cube = 0
    for c, bit, reg, exclude in rows:
        if reg.lo_d != NEG_INF or reg.hi_d != POS_INF:
            raise MalformedModel(f"fan region {reg!r} is not a box")
        ix0 = max(reg.lo_x - x0, 0)
        ix1 = min(reg.hi_x - x0, nx - 1)
        iy0 = max(reg.lo_y - y0, 0)
        iy1 = min(reg.hi_y - y0, ny - 1)
        if ix0 > ix1 or iy0 > iy1:
            continue
        block = _repeat(_repeat(bit, 8, iy1 - iy0 + 1), row_bits, ix1 - ix0 + 1)
        if exclude is not None:
            ex, ey = exclude[0] - x0, exclude[1] - y0
            if ix0 <= ex <= ix1 and iy0 <= ey <= iy1:
                block ^= bit << 8 * ((ex - ix0) * ny + ey - iy0)
        cube |= block << 8 * ((c * nx + ix0) * ny + iy0)
    return memoryview(cube.to_bytes(nchan * nx * ny, "little")).toreadonly()
