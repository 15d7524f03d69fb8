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

A box clipped to the window is the cells of ``k`` consecutive x-rows and
one y-run of ``len`` cells.  Its y-run picks a column mask from a table that
the caller owns (the engine keeps one per window): the mask of the y-run
``[iy0, iy1]`` over all ``nx`` x-rows, bit 0 of each cell, built once by
``_repeat``.  The box is then that mask ANDed with its contiguous x-range
``(1 << 8*ny*(ix1+1)) - (1 << 8*ny*ix0)``, times its bit (a power of two
below 256, so no product leaves its cell), shifted to its channel: a
subtraction, an AND, a product and a shift, where building the
box itself costs about ``log2(len) + log2(k)`` shifts and ORs.  The table
holds at most ``ny*(ny+1)/2`` masks, one per y-run.  ``_repeat`` doubles
its copies while they fit, then ORs in one copy of them shifted to end at
the ``k``-th place; the two overlap only in equal copies, and no copy
carries into the next because each is below ``2**stride``.  An exclusion
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


def fan_cube(x0: int, nx: int, y0: int, ny: int, nchan: int, rows, columns: dict) -> memoryview:
    """OR the rows' bits over their regions, clipped to the window
    [x0, x0+nx-1] x [y0, y0+ny-1], into a cube of nchan channels.  columns
    is the window's table of column masks, keyed by (iy0, iy1); masks that
    a row needs and the table lacks are added to it."""
    row_bits = 8 * ny
    cube = 0
    x1, y1 = x0 + nx - 1, y0 + ny - 1
    for c, bit, reg, exclude in rows:
        lo_x, hi_x, lo_y, hi_y, lo_d, hi_d = reg
        if lo_d != NEG_INF or hi_d != POS_INF:
            raise MalformedModel(f"fan region {reg!r} is not a box")
        # the box clipped to the window, in window indices; conditional
        # expressions pick what max and min would, without their calls
        ix0 = lo_x - x0 if lo_x > x0 else 0
        ix1 = hi_x - x0 if hi_x < x1 else nx - 1
        iy0 = lo_y - y0 if lo_y > y0 else 0
        iy1 = hi_y - y0 if hi_y < y1 else ny - 1
        if ix0 > ix1 or iy0 > iy1:
            continue
        column = columns.get((iy0, iy1))
        if column is None:
            column = columns[iy0, iy1] = _repeat(_repeat(1, 8, iy1 - iy0 + 1) << 8 * iy0, row_bits, nx)
        block = (column & ((1 << row_bits * (ix1 + 1)) - (1 << row_bits * ix0))) * bit
        if exclude is not None:
            ex, ey = exclude[0] - x0, exclude[1] - y0
            if ix0 <= ex <= ix1 and iy0 <= ey <= iy1:
                block ^= bit << 8 * (ex * ny + ey)
        cube |= block << 8 * c * nx * ny
    return memoryview(cube.to_bytes(nchan * nx * ny, "little")).toreadonly()
