"""OBJ / PLY export of grid-sampled surfaces with singular-node bookkeeping.

OBJ text is 'v %.9g %.9g %.9g' and 'f %d %d %d' lines ending in '\n', formatted
in numpy a block of rows at a time; PLY is binary little-endian.  Of the vertex
text this module supplies only the 9-digit rule: grid.NumberText lays it out.
"""
from __future__ import annotations

import numpy as np

from .grid import Grid2D, NumberText, save_json
from .surface import SurfaceMap


class MeshFormatError(ValueError):
    pass


def _project(S: SurfaceMap):
    """The R^3 vertices: an R^4 surface drops x4, whose range goes to the sidecar."""
    if S.ambient_dim == 3:
        return S.coords, {}
    x4 = S.coords[3]
    return S.coords[:3], {"x4_range": [float(x4.min()), float(x4.max())]}


def grid_triangles(grid: Grid2D, good: np.ndarray):
    """Two triangles per grid quad, (a, b, c) and (a, c, d) with a = (ix, iy),
    b = (ix + 1, iy), c = (ix + 1, iy + 1), d = (ix, iy + 1), quads row by row;
    quads touching a bad node are skipped and counted as holes.

    A periodic axis of the grid is stitched: its last column/row closes back to the first.
    """
    nx, ny = grid.nx, grid.ny
    ix = np.arange(nx if grid.periodic_x else nx - 1)
    iy = np.arange(ny if grid.periodic_y else ny - 1)[:, None]
    ix1, iy1 = (ix + 1) % nx, (iy + 1) % ny
    ok = good[iy, ix] & good[iy, ix1] & good[iy1, ix] & good[iy1, ix1]
    a, b, c, d = (v[ok] for v in (iy * nx + ix, iy * nx + ix1, iy1 * nx + ix1, iy1 * nx + ix))
    tris = np.stack([a, b, c, a, c, d], axis=1).astype(np.int64, copy=False)
    return tris.reshape(-1, 3), int(ok.size - np.count_nonzero(ok))


def export_mesh(S: SurfaceMap, path, fmt: str) -> dict:
    """Write the surface as a triangulated mesh file in format fmt (a key of
    FORMATS) plus a JSON sidecar, and return the sidecar's record (keys sorted):
    the mesh's own figures and S.diagnostics.

    An R^4 surface is drawn by its first three coordinates.  Periodic axes of
    the grid are stitched.  Nodes that are masked or not finite leave holes.
    The triangles come from whole arrays and the files are written a block of
    rows at a time; both match the per-element writers kept in the tests byte
    for byte.
    """
    if fmt not in FORMATS:
        raise MeshFormatError(f"unsupported format {fmt!r}")
    verts3, extra = _project(S)
    g = S.grid
    good = np.ones((g.ny, g.nx), dtype=bool)
    if S.mask is not None:
        good &= ~S.mask
    finite = np.isfinite(verts3).all(axis=0)
    good &= finite
    tris, holes = grid_triangles(g, good)
    pts = verts3.reshape(3, -1).T
    path = str(path)
    FORMATS[fmt](path, pts, tris)
    meta = {
        "format": fmt,
        "grid": g.meta(),
        "basepoint": [float(v) for v in S.basepoint],
        "n_vertices": pts.shape[0],
        "n_triangles": tris.shape[0],
        "holes": holes,
        "flagged_nodes": int(np.sum(~good)),
        **extra, **S.diagnostics,
    }
    record = dict(sorted(meta.items()))
    save_json(path + ".json", record)
    return record


_BLOCK = 4096                                          # rows formatted at a time
_P10 = np.array([float(10 ** k) for k in range(23)])   # exact in float64


_TEXT = NumberText(9, -14, 30, b"\0 ", b"%.9g")       # 'v' fills the first lead of a line


def _vertex_text(v):
    """'v %.9g %.9g %.9g' lines of v (n, 3) as template words, value by value: (3 n, 4).

    The nine digits are rint(|v| 10^(8 - e)) with e = floor(log10 |v|). That
    is exact unless 10^(8 - e) is beyond 10^22, log10 is off by one or the
    scaled value lies within 1e-6 of a rounding tie; such values, and
    non-finite ones, are formatted by '%' itself."""
    v = v.ravel()
    with np.errstate(all="ignore"):
        a = np.abs(v)
        e = np.floor(np.log10(a))
        ok = np.abs(8 - e) <= 22                       # False at 0, inf and nan
        e = np.where(ok, e, 0).astype(np.int32)
        y = a * _P10[np.maximum(8 - e, 0)] / _P10[np.maximum(e - 8, 0)]
        m = np.rint(y)
        ok &= (y >= 1e8) & (m < 1e9) & (np.abs(y - np.floor(y) - 0.5) > 1e-6)
    w = _TEXT.cells(np.where(ok, m, 0).astype(np.int64), _TEXT.row(e, np.signbit(v)), ok | (a == 0), v)
    w[0, ::3] |= ord("v")
    w[-1, 2::3] |= ord("\n") << 48                    # the line end after z
    return w.T


def _face_text(tris):
    """'f %d %d %d' lines of tris + 1 (n, 3) as bytes, 0 where no byte prints."""
    k = (tris + 1).ravel()
    width = len(str(k.max())) + 3                     # lead, digits and line end
    out = np.zeros((len(k), width), np.uint8)
    out[::3, 0] = ord("f")
    out[:, 1] = ord(" ")
    out[2::3, -1] = ord("\n")
    m = k.astype(np.int32 if width <= 12 else np.int64)
    for j in range(width - 2, 1, -1):
        q = m // 10
        out[:, j] = (m - 10 * q + 48) * (k >= 10 ** (width - 2 - j))
        m = q
    return out


def _write_obj(path, pts, tris):
    """'v %.9g %.9g %.9g' and 'f %d %d %d' lines, formatted in numpy _BLOCK rows at
    a time into fixed-width cells whose unprinted bytes are 0 and dropped."""
    with open(path, "wb") as fh:
        for rows, text in ((pts, _vertex_text), (tris, _face_text)):
            for s in range(0, len(rows), _BLOCK):
                fh.write(text(rows[s:s + _BLOCK]).tobytes().translate(None, b"\0"))


def _write_ply(path, pts, tris):
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {pts.shape[0]}\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"element face {tris.shape[0]}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    )
    faces = np.empty(len(tris), dtype=[("n", "u1"), ("v", "<i4", (3,))])   # packed, 13 bytes
    faces["n"] = 3
    faces["v"] = tris
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pts.astype("<f4").tobytes())
        fh.write(faces.tobytes())


# the mesh formats (gen-surface --format), each with its writer
FORMATS = {"obj": _write_obj, "ply": _write_ply}
