"""The fan rasteriser of the window sweep engine.

``fan_cube`` rasterises the arrow fan of one source vertex into a cube: one
byte per window cell, bit 0 for the identity (never set here) and bit d+1
for a degree-d arrow.  Byte ``(c*nx + ix)*ny + iy`` holds the cell of
channel c at window point (ix, iy), the layout of a C-ordered uint8 array of
shape (nchan, nx, ny) (see :mod:`kgcert.engine`).

Each row is ``(channel, bit, region, exclude)``: the fan entry's channel
index, its degree bit, its region of target coordinates, and the source
coordinate when the entry excludes its source (else None).  Fan regions are
boxes: a region with a finite difference bound raises ``ValueError``,
because a box rasteriser would cover it wrongly.

A box clipped to the window is ``k`` consecutive x-rows of the same y-run.
One run of ``len`` cells of ``bit`` is ``bit * ((1 << 8*len) - 1) // 255``;
repeating it every ``8*ny`` bits is one more multiplication by the
geometric series ``((1 << 8*ny*k) - 1) // ((1 << 8*ny) - 1)``, free of
carries because the run is below ``2**(8*ny)``.  An exclusion clears the
bit at the source cell when that cell lies in the clipped box.

The result is the cube's little-endian bytes as a read-only ``memoryview``
with ``nbytes == nchan*nx*ny``; the engine reads it back with
``int.from_bytes(..., "little")``.  A buffer rather than an int, because the
benchmark's tracer (``perfbench/tracer.py``) wraps this function, by module
and name, and counts the bytes each call builds with ``.nbytes``.
"""

from __future__ import annotations

from .regions import NEG_INF, POS_INF


def fan_cube(x0: int, nx: int, y0: int, ny: int, nchan: int, rows) -> memoryview:
    """OR the rows' bits over their regions, clipped to the window
    [x0, x0+nx-1] x [y0, y0+ny-1], into a cube of nchan channels."""
    row_bits = 8 * ny
    row_unit = (1 << row_bits) - 1
    cube = 0
    for c, bit, reg, exclude in rows:
        if reg.lo_d != NEG_INF or reg.hi_d != POS_INF:
            raise ValueError(f"fan region {reg!r} is not a box")
        ix0 = max(reg.lo_x - x0, 0)
        ix1 = min(reg.hi_x - x0, nx - 1)
        iy0 = max(reg.lo_y - y0, 0)
        iy1 = min(reg.hi_y - y0, ny - 1)
        if ix0 > ix1 or iy0 > iy1:
            continue
        run = bit * ((1 << 8 * (iy1 - iy0 + 1)) - 1) // 255
        block = run * ((1 << row_bits * (ix1 - ix0 + 1)) - 1) // row_unit
        if exclude is not None:
            ex, ey = exclude[0] - x0, exclude[1] - y0
            if ix0 <= ex <= ix1 and iy0 <= ey <= iy1:
                block ^= bit << 8 * ((ex - ix0) * ny + ey - iy0)
        cube |= block << 8 * ((c * nx + ix0) * ny + iy0)
    return memoryview(cube.to_bytes(nchan * nx * ny, "little")).toreadonly()
