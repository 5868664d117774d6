import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsurf import (SpinorField, SurfaceMap, catalog, constant_field,
                      export_mesh, field_from_function, integrate_surface_r3,
                      invert_surface, make_grid, smatrix_to_surface)
from spinsurf import grid, meshio
from spinsurf.grid import json_text
from spinsurf.meshio import MeshFormatError, grid_triangles
from spinsurf.moutard import heat_smatrix_values
from test_grid import assert_node_text_is_percent_17g


# Per-element loop versions of the triangulation and the writers: the reference
# the array-built ones must match index for index and byte for byte.

def loop_grid_triangles(nx, ny, good, stitch_x=False, stitch_y=False):
    tris = []
    holes = 0
    mx = nx if stitch_x else nx - 1
    my = ny if stitch_y else ny - 1
    for iy in range(my):
        iy1 = (iy + 1) % ny
        for ix in range(mx):
            ix1 = (ix + 1) % nx
            if not (good[iy, ix] and good[iy, ix1] and good[iy1, ix] and good[iy1, ix1]):
                holes += 1
                continue
            a, b, c, d = iy * nx + ix, iy * nx + ix1, iy1 * nx + ix1, iy1 * nx + ix
            tris.append((a, b, c))
            tris.append((a, c, d))
    return np.asarray(tris, dtype=np.int64).reshape(-1, 3), holes


def loop_write_obj(path, pts, tris):
    with open(path, "w") as fh:
        for x, y, z in pts:
            fh.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for a, b, c in tris:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def loop_write_ply(path, pts, tris):
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {pts.shape[0]}\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"element face {tris.shape[0]}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pts.astype("<f4").tobytes())
        for a, b, c in tris:
            fh.write(struct.pack("<B3i", 3, a, b, c))


def read_obj_counts(path):
    nv = nf = 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                nv += 1
            elif line.startswith("f "):
                nf += 1
    return nv, nf


def euler_characteristic(tris: np.ndarray) -> int:
    """V - E + F over referenced vertices with unique undirected edges."""
    edges = set()
    for a, b, c in tris:
        for e in ((a, b), (b, c), (c, a)):
            edges.add((min(e), max(e)))
    return len(np.unique(tris)) - len(edges) + tris.shape[0]


def _plane(n=5):
    g = make_grid((-1, 1, -1, 1), (n, n))
    psi = SpinorField(constant_field(g, 1.0), constant_field(g, 0.0))
    return integrate_surface_r3(psi)


def test_plane_triangle_count(tmp_path):
    rec = export_mesh(_plane(5), tmp_path / "p.obj", "obj")
    assert rec["n_triangles"] == 32
    assert rec["n_vertices"] == 25
    nv, nf = read_obj_counts(tmp_path / "p.obj")
    assert (nv, nf) == (25, 32)


def test_obj_metadata_sidecar(tmp_path):
    # the sidecar's extra figures arrive through the map's diagnostics
    S = _plane(5)
    S.diagnostics["tag"] = "plane"
    rec = export_mesh(S, tmp_path / "p.obj", "obj")
    meta = json.loads((tmp_path / "p.obj.json").read_text())
    assert meta["tag"] == "plane" and meta["path_defect"] == S.diagnostics["path_defect"]
    assert meta["n_triangles"] == 32
    assert meta["holes"] == 0
    assert json_text(rec) == json.dumps(meta)   # export_mesh returns the record it wrote


def test_disk_euler_characteristic():
    good = np.ones((5, 5), dtype=bool)
    tris, holes = grid_triangles(make_grid((-1, 1, -1, 1), (5, 5)), good)
    assert holes == 0
    assert euler_characteristic(tris) == 1      # disk


def test_catenoid_watertight_strip(tmp_path):
    g = make_grid((-1.2, 1.2, 0, 2 * np.pi), (32, 64), periodicity=(False, True))
    s = 1 / np.sqrt(2)
    psi = SpinorField(field_from_function(g, lambda z: s * np.exp(z / 2)),
                      field_from_function(g, lambda z: s * np.exp(-np.conj(z) / 2)))
    cat = integrate_surface_r3(psi)
    rec = export_mesh(cat, tmp_path / "cat.ply", "ply")
    assert rec["holes"] == 0
    tris, _ = grid_triangles(g, np.ones((g.ny, g.nx), bool))    # g is periodic in y
    assert euler_characteristic(tris) == 0       # cylinder


def test_ply_binary_layout(tmp_path):
    rec = export_mesh(_plane(5), tmp_path / "p.ply", "ply")
    blob = (tmp_path / "p.ply").read_bytes()
    header_end = blob.index(b"end_header\n") + len(b"end_header\n")
    header = blob[:header_end].decode()
    assert "format binary_little_endian 1.0" in header
    assert f"element vertex {rec['n_vertices']}" in header
    body = blob[header_end:]
    assert len(body) == rec["n_vertices"] * 12 + rec["n_triangles"] * (1 + 12)
    x0, y0, z0 = struct.unpack("<3f", body[:12])
    assert (x0, y0, z0) == pytest.approx((1.0, 1.0, 0.0), abs=1e-6)  # x1=-y, x2=-x at corner


def test_inverted_singular_surface_has_hole(tmp_path):
    # inverted quadratic-datum surface at the singular configuration passes
    # through the origin at z = 0: that node is flagged and the mesh has holes
    sol = catalog("s1", c=1j)
    g = make_grid((-1, 1, -1, 1), (17, 17))    # node exactly at z = 0
    M = heat_smatrix_values(sol.f, g, -0.5)
    S = smatrix_to_surface(M)
    inv = invert_surface(S)
    assert inv.mask is not None and inv.mask[8, 8]
    rec = export_mesh(inv, tmp_path / "inv.obj", "obj")
    assert rec["holes"] == 4                    # the four quads at the node
    meta = json.loads((tmp_path / "inv.obj.json").read_text())
    assert meta["holes"] == 4
    export_mesh(inv, tmp_path / "inv.ply", "ply")
    tris, _ = loop_grid_triangles(17, 17, ~inv.mask)
    pts = inv.coords[:3].reshape(3, -1).T
    loop_write_obj(tmp_path / "ref.obj", pts, tris)
    loop_write_ply(tmp_path / "ref.ply", pts, tris)
    for ext in ("obj", "ply"):
        assert (tmp_path / f"inv.{ext}").read_bytes() == (tmp_path / f"ref.{ext}").read_bytes()


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(MeshFormatError):
        export_mesh(_plane(5), tmp_path / "p.stl", "stl")


def test_r4_drop4_projection(tmp_path):
    g = make_grid((-1, 1, -1, 1), (9, 9))
    sol = catalog("s1", c=1.0)
    S = smatrix_to_surface(heat_smatrix_values(sol.f, g, 0.1))
    rec = export_mesh(S, tmp_path / "g.obj", "obj")
    assert rec["n_triangles"] == 2 * 8 * 8
    meta = json.loads((tmp_path / "g.obj.json").read_text())
    assert meta["x4_range"] == [S.coords[3].min(), S.coords[3].max()]


@pytest.mark.parametrize("nx,ny", [(7, 5), (4, 9), (13, 11)])
@pytest.mark.parametrize("stitch_x", [False, True])
@pytest.mark.parametrize("stitch_y", [False, True])
def test_grid_triangles_match_loop_oracle(nx, ny, stitch_x, stitch_y):
    # the grid's periodic axes, and only they, are stitched
    g = make_grid((-1, 1, -1, 1), (nx, ny), (stitch_x, stitch_y))
    rng = np.random.default_rng(nx * 100 + ny)
    for p_bad in (0.0, 0.05, 0.3, 1.0):
        good = rng.random((ny, nx)) >= p_bad
        tris, holes = grid_triangles(g, good)
        ref, ref_holes = loop_grid_triangles(nx, ny, good, stitch_x, stitch_y)
        assert tris.dtype == ref.dtype and tris.shape == ref.shape
        assert np.array_equal(tris, ref)
        assert holes == ref_holes and type(holes) is int


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_export_bytes_match_loop_writers(tmp_path, fmt):
    # awkward values: NaN (a hole), signed zero, huge (inf as float32), tiny;
    # 4,402 vertices and about 8,500 faces span several 4,096-row blocks
    g = make_grid((-1, 1, -0.5, 0.5), (71, 62))
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(3, 62, 71)) * np.array([1.0, 1e3, 1e-3])[:, None, None]
    coords[0, 2, 3] = np.nan
    coords[1, 0, 0] = -0.0
    coords[2, 5, 7] = 1e300
    coords[0, 6, 1] = 1e-7
    coords[2, 4, 4] = -1e-7
    mask = np.zeros((62, 71), bool)
    mask[6, 9] = mask[0, 5] = mask[61, 70] = True
    S = SurfaceMap(g, coords, mask)
    with np.errstate(over="ignore"):         # 1e300 does not fit a float32
        rec = export_mesh(S, tmp_path / f"s.{fmt}", fmt)
        pts = coords.reshape(3, -1).T
        good = np.isfinite(coords).all(axis=0) & ~mask
        tris, holes = loop_grid_triangles(71, 62, good)
        (loop_write_obj if fmt == "obj" else loop_write_ply)(tmp_path / f"ref.{fmt}", pts, tris)
    assert (rec["n_triangles"], rec["holes"]) == (len(tris), holes) and holes > 0
    assert (tmp_path / f"s.{fmt}").read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()


# The OBJ writer formats in numpy; '%' (the loop writer's f-strings) is the
# reference for every value, and for every number of rows around a block.

def obj_bytes(write, pts, tris, tmp_path):
    path = tmp_path / "w.obj"
    write(path, np.asarray(pts, float).reshape(-1, 3), np.asarray(tris, np.int64).reshape(-1, 3))
    return path.read_bytes()


def assert_obj_matches_loop(pts, tris, tmp_path):
    assert (obj_bytes(meshio._write_obj, pts, tris, tmp_path)
            == obj_bytes(loop_write_obj, pts, tris, tmp_path))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=3, max_size=90).map(lambda v: v[:len(v) // 3 * 3]))
def test_obj_vertex_text_is_percent_9g(tmp_path_factory, values):
    assert_obj_matches_loop(values, [], tmp_path_factory.mktemp("obj"))


def test_obj_vertex_text_at_rounding_edges(tmp_path):
    rng = np.random.default_rng(7)
    digits = rng.integers(10**8, 10**9, 600)
    halfway = (digits + 0.5) * 10.0 ** rng.integers(-14, 16, 600)      # ties at the 9th digit
    near = (digits + 0.5 + rng.choice([-1e-7, 1e-7, -1e-6, 1e-6], 600)) * 1e-3
    edges = [999999999.5, 9.9999999995e-5, 1e-5, 1e-4, 0.0001234567895, 1e22, 1e23, -1e23,
             1e100, 1e-100, -1e-100, 1e-320, -5e-324, 1.7976931348623157e308,
             99999999.95, 999999999.0, 1e9, 1e8, 123456789.0, 0.5, 2.5, 0.1, 0.3,
             0.0, -0.0, np.nan, np.inf, -np.inf, 12.0, 1.2e-4, 1.2e-5]
    tens = 10.0 ** np.arange(-15, 25)                                   # log10's edges
    values = np.concatenate([halfway, -halfway, near, edges, edges[::-1],
                             np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)])
    assert_obj_matches_loop(values[:len(values) // 3 * 3], [], tmp_path)


def test_every_row_of_both_text_templates(tmp_path, monkeypatch):
    # n digits 2345..., none 0, at every exponent of each writer's template and both
    # signs, all formatted in numpy ('%' is switched off): the OBJ half holds every
    # (digits kept, e, sign) row.  A leading 1 would not do: float('1e23') < 10^23.
    def values(P, e_lo, e_hi):
        return [s * float(f"{('234567891' * 2)[:n]}e{e - n + 1}") for n in range(1, P + 1)
                for e in range(e_lo, e_hi + 1) for s in (1, -1)]

    node, vertex = values(17, -6, 16), values(9, -14, 30)
    assert (len(node), len(vertex)) == (782, 810)
    monkeypatch.setattr(grid._NODE, "fmt", None)
    monkeypatch.setattr(meshio._TEXT, "fmt", None)
    assert_node_text_is_percent_17g(node, tmp_path / "v.csv")
    assert_obj_matches_loop(vertex, [], tmp_path)


@pytest.mark.parametrize("n", [0, 1, meshio._BLOCK - 1, meshio._BLOCK, meshio._BLOCK + 1])
def test_obj_writer_across_block_edges(tmp_path, n):
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-6, 7, (n, 3))
    assert_obj_matches_loop(pts, rng.integers(0, max(n, 1), (n, 3)), tmp_path)


def test_obj_face_indices_of_one_to_six_digits(tmp_path):
    # indices are 0-based and written plus one: 1 to 999,999
    printed = [k for p in range(1, 7) for k in (10**(p - 1), 10**p - 1)]
    assert_obj_matches_loop(np.zeros((1, 3)), np.resize(printed, 15) - 1, tmp_path)
    for p in range(1, 7):                        # runs of p-digit indices, one width a block
        assert_obj_matches_loop(np.zeros((1, 3)), np.arange(10**(p - 1), 10**p)[:297] - 1, tmp_path)


def test_obj_export_formats_one_block_at_a_time(tmp_path):
    # 128^2: 16,384 vertices and 32,258 faces.  Blocked, the export peaks near
    # 2.3 MiB; formatting the whole mesh at once takes about 6.5 MiB.
    g = make_grid((-1, 1, -1, 1), (128, 128))
    rng = np.random.default_rng(9)
    S = SurfaceMap(g, rng.normal(size=(3, 128, 128)), None)
    tracemalloc.start()
    try:
        export_mesh(S, tmp_path / "b.obj", "obj")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
