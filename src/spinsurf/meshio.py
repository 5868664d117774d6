"""OBJ / PLY export of grid-sampled surfaces with singular-node bookkeeping."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .surface import SurfaceMap


class MeshFormatError(ValueError):
    pass


@dataclass
class MeshStats:
    n_vertices: int
    n_triangles: int
    n_holes: int
    files: list


def _project(S: SurfaceMap):
    """The R^3 vertices: an R^4 surface drops x4, whose range goes to the sidecar."""
    if S.ambient_dim == 3:
        return S.coords, {}
    x4 = S.coords[3]
    return S.coords[:3], {"x4_range": [float(x4.min()), float(x4.max())]}


def grid_triangles(nx: int, ny: int, good: np.ndarray, stitch_x: bool = False,
                   stitch_y: bool = False):
    """Two triangles per grid quad, (a, b, c) and (a, c, d) with a = (ix, iy),
    b = (ix + 1, iy), c = (ix + 1, iy + 1), d = (ix, iy + 1), quads row by row;
    quads touching a bad node are skipped and counted as holes.

    Periodic stitching closes the last column/row back to the first.
    """
    ix = np.arange(nx if stitch_x else nx - 1)
    iy = np.arange(ny if stitch_y else ny - 1)[:, None]
    ix1, iy1 = (ix + 1) % nx, (iy + 1) % ny
    ok = good[iy, ix] & good[iy, ix1] & good[iy1, ix] & good[iy1, ix1]
    a, b, c, d = (v[ok] for v in (iy * nx + ix, iy * nx + ix1, iy1 * nx + ix1, iy1 * nx + ix))
    tris = np.stack([a, b, c, a, c, d], axis=1).astype(np.int64, copy=False)
    return tris.reshape(-1, 3), int(ok.size - np.count_nonzero(ok))


def export_mesh(S: SurfaceMap, path, fmt: str = "obj",
                metadata: dict | None = None) -> MeshStats:
    """Write the surface as a triangulated OBJ or PLY file plus a JSON sidecar.

    An R^4 surface is drawn by its first three coordinates.  Periodic axes of
    the grid are stitched.  Nodes that are masked or not finite leave holes.
    The files are built from whole arrays and match the per-element writers
    kept in the tests byte for byte.
    """
    if fmt not in ("obj", "ply"):
        raise MeshFormatError(f"unsupported format {fmt!r}")
    verts3, extra = _project(S)
    g = S.grid
    good = np.ones((g.ny, g.nx), dtype=bool)
    if S.mask is not None:
        good &= ~S.mask
    finite = np.isfinite(verts3).all(axis=0)
    good &= finite
    tris, holes = grid_triangles(g.nx, g.ny, good, g.periodic_x, g.periodic_y)
    pts = verts3.reshape(3, -1).T
    path = str(path)
    if fmt == "obj":
        _write_obj(path, pts, tris)
    else:
        _write_ply(path, pts, tris)
    meta = {
        "format": fmt,
        "grid": g.meta(),
        "basepoint": [float(v) for v in S.basepoint],
        "n_vertices": int(pts.shape[0]),
        "n_triangles": int(tris.shape[0]),
        "holes": holes,
        "flagged_nodes": int(np.sum(~good)),
    }
    meta.update(extra)
    meta.update(S.diagnostics or {})
    if metadata:
        meta.update(metadata)
    sidecar = path + ".json"
    with open(sidecar, "w") as fh:
        json.dump(_jsonable(meta), fh, indent=1, sort_keys=True)
    return MeshStats(pts.shape[0], tris.shape[0], holes, [path, sidecar])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_obj(path, pts, tris):
    with open(path, "w") as fh:
        for line, rows in (("v %.9g %.9g %.9g\n", pts), ("f %d %d %d\n", tris + 1)):
            for s in range(0, len(rows), 4096):     # one format string per block
                block = rows[s:s + 4096]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))


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
