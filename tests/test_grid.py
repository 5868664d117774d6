import numpy as np
import pytest

from spinsurf import (ComplexField, Form1, constant_field, field_from_function,
                      integrate2d, load_complexfield_csv, make_grid,
                      save_complexfield_csv, wirtinger_derivative)
from spinsurf.grid import (GridConfigError, MaskError, SchemeError, antiderivative,
                           save_nodes_csv)


# Node paths and a trapezoidal line integral along them: the reference that
# antiderivative's vectorised L-path sums are compared against.

class PathError(ValueError):
    pass


def lpath(grid, start, end, order="x_first"):
    """Axis-aligned L-shaped node path between two (ix, iy) nodes."""
    ix0, iy0 = start
    ix1, iy1 = end
    path = [(ix0, iy0)]
    def walk_x(iy):
        step = 1 if ix1 >= ix0 else -1
        for ix in range(ix0 + step, ix1 + step, step):
            path.append((ix, iy))
    def walk_y(ix):
        step = 1 if iy1 >= iy0 else -1
        for iy in range(iy0 + step, iy1 + step, step):
            path.append((ix, iy))
    if order == "x_first":
        walk_x(iy0)
        walk_y(ix1)
    elif order == "y_first":
        walk_y(ix0)
        walk_x(iy1)
    else:
        raise ValueError(f"unknown order {order!r}")
    return path


def rect_loop(ix0, iy0, ix1, iy1):
    """Closed rectangular loop through the four corner nodes."""
    p = [(ix, iy0) for ix in range(ix0, ix1 + 1)]
    p += [(ix1, iy) for iy in range(iy0 + 1, iy1 + 1)]
    p += [(ix, iy1) for ix in range(ix1 - 1, ix0 - 1, -1)]
    p += [(ix0, iy) for iy in range(iy1 - 1, iy0 - 1, -1)]
    return p


def path_integrate(form, path) -> complex:
    """Trapezoidal line integral of p dz + q dzbar along a grid node path."""
    grid = form.grid
    path = list(path)
    if len(path) < 2:
        return 0.0 + 0.0j
    p, q = form.p.values, form.q.values
    total = 0.0 + 0.0j
    for (ixa, iya), (ixb, iyb) in zip(path[:-1], path[1:]):
        if abs(ixb - ixa) + abs(iyb - iya) != 1:
            raise PathError(f"non-adjacent nodes {(ixa, iya)} -> {(ixb, iyb)}")
        za, zb = grid.node_z(ixa, iya), grid.node_z(ixb, iyb)
        dzseg = zb - za
        pm = (p[iya, ixa] + p[iyb, ixb]) / 2
        qm = (q[iya, ixa] + q[iyb, ixb]) / 2
        total += pm * dzseg + qm * np.conj(dzseg)
    return complex(total)


def test_make_grid_corner_node():
    g = make_grid((-1, 1, -1, 1), (5, 5))
    assert g.node_z(0, 0) == -1 - 1j


def test_make_grid_periodic_spacing():
    g = make_grid((0, 2 * np.pi, 0, 2 * np.pi), (64, 64), True)
    assert g.hx == pytest.approx(2 * np.pi / 64)


def test_make_grid_node_count():
    g = make_grid((-30, 30, -30, 30), (512, 512))
    assert g.node_count() == 262144


def test_make_grid_rejects_degenerate():
    with pytest.raises(GridConfigError):
        make_grid((1, 1, 0, 1), (8, 8))
    with pytest.raises(GridConfigError):
        make_grid((0, 1, 0, 1), (3, 8))


def test_wirtinger_quadratic_exact():
    g = make_grid((-1, 1, -1, 1), (32, 32))
    f = field_from_function(g, lambda z: z ** 2)
    d = wirtinger_derivative(f, "z")
    zm = g.zmesh()
    assert np.max(np.abs(d.values - 2 * zm)) < 1e-12


def test_wirtinger_kills_holomorphic_in_zbar():
    g = make_grid((-1, 1, -1, 1), (16, 16))
    f = field_from_function(g, lambda z: z)
    d = wirtinger_derivative(f, "zbar")
    assert d.max_abs() < 1e-13


def test_wirtinger_spectral_exponential():
    g = make_grid((0, 2 * np.pi, 0, 2 * np.pi), (32, 32), True)
    f = field_from_function(g, lambda z: np.exp(1j * z.real))
    d = wirtinger_derivative(f, "z", "spectral")
    ref = 0.5j * np.exp(1j * g.zmesh().real)
    assert np.max(np.abs(d.values - ref)) < 1e-12


def test_wirtinger_central2_order():
    # halving h reduces the max error on e^z by >= 3.5
    errs = []
    for n in (33, 65):
        g = make_grid((-1, 1, -1, 1), (n, n))
        f = field_from_function(g, np.exp)
        d = wirtinger_derivative(f, "z")
        errs.append(np.max(np.abs(d.values - np.exp(g.zmesh()))))
    assert errs[0] / errs[1] >= 3.5


def test_wirtinger_rejects_spectral_on_nonperiodic():
    g = make_grid((-1, 1, -1, 1), (8, 8))
    f = constant_field(g, 1.0)
    with pytest.raises(SchemeError):
        wirtinger_derivative(f, "z", "spectral")


def test_integrate2d_constant():
    g = make_grid((0, 1, 0, 1), (16, 16))
    assert integrate2d(constant_field(g, 1.0)) == pytest.approx(1.0)


def test_integrate2d_sech2():
    g = make_grid((-20, 20, 0, 2 * np.pi), (1001, 32))
    f = field_from_function(g, lambda z: 1 / np.cosh(z.real) ** 2 / 4)
    assert integrate2d(f).real == pytest.approx(np.pi, abs=1e-8)


def test_integrate2d_s1_norm():
    from spinsurf import catalog, square_grid
    sol = catalog("s1", c=1.0)
    g = square_grid(30.0, 513)
    val = integrate2d(sol.U_field(g, 1.0).abs2()).real
    assert val == pytest.approx(2 * np.pi, rel=1e-2)


def test_integrate2d_mask_policy():
    g = make_grid((0, 1, 0, 1), (8, 8))
    vals = np.ones((8, 8), dtype=complex)
    mask = np.zeros((8, 8), dtype=bool)
    mask[3, 3] = True
    f = ComplexField(g, vals, mask)
    with pytest.raises(MaskError):
        integrate2d(f)
    assert integrate2d(f, "neighbor_mean") == pytest.approx(1.0)


def test_integrate2d_nonnegative_property():
    rng = np.random.default_rng(7)
    g = make_grid((-1, 1, -1, 1), (16, 16))
    f = ComplexField(g, rng.random((16, 16)).astype(complex))
    assert integrate2d(f).real >= 0


def test_path_integrate_dz():
    g = make_grid((0, 1, 0, 1), (11, 11))
    form = Form1(constant_field(g, 1.0), constant_field(g, 0.0))
    path = [(i, 0) for i in range(11)]
    assert path_integrate(form, path) == pytest.approx(1.0)


def test_path_integrate_dzbar_vertical():
    g = make_grid((0, 1, 0, 1), (11, 11))
    form = Form1(constant_field(g, 0.0), constant_field(g, 1.0))
    path = [(0, i) for i in range(11)]
    assert path_integrate(form, path) == pytest.approx(-1j)


def test_path_integrate_closed_loop_of_closed_form():
    g = make_grid((-1, 1, -1, 1), (21, 21))
    f = field_from_function(g, lambda z: z + np.conj(z))
    form = Form1(f, f)
    loop = rect_loop(2, 3, 15, 17)
    # linear integrand: trapezoid is exact, loop integral vanishes to rounding
    assert abs(path_integrate(form, loop)) < 1e-12


def test_closed_loop_h2_property():
    # a smooth closed form integrates to O(h^2 * loop length) around any loop
    vals = {}
    for n in (41, 81):
        g = make_grid((-1, 1, -1, 1), (n, n))
        F = lambda z: np.exp(0.7 * z + 0.3 * np.conj(z))   # p_zbar = q_z
        p = field_from_function(g, lambda z: 0.7 * F(z))
        q = field_from_function(g, lambda z: 0.3 * F(z))
        loop = rect_loop(n // 8, n // 5, n - n // 8, n - n // 3)
        vals[n] = abs(path_integrate(Form1(p, q), loop))
    assert vals[41] / vals[81] >= 3.5      # O(h^2)
    assert vals[81] < 1e-3


def test_path_integrate_rejects_nonadjacent():
    g = make_grid((0, 1, 0, 1), (8, 8))
    form = Form1(constant_field(g, 1.0), constant_field(g, 0.0))
    with pytest.raises(PathError):
        path_integrate(form, [(0, 0), (2, 0)])


def test_lpath_orders():
    g = make_grid((0, 1, 0, 1), (8, 8))
    p = lpath(g, (1, 1), (4, 3), "x_first")
    assert p[0] == (1, 1) and p[-1] == (4, 3)
    assert all(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 for a, b in zip(p, p[1:]))
    q = lpath(g, (4, 3), (1, 1), "y_first")
    assert q[0] == (4, 3) and q[-1] == (1, 1)


def test_antiderivative_path_independence():
    # closed form p = z, q = conj(z): both L-path orders agree to O(h^2)
    g = make_grid((-1, 1, -1, 1), (41, 41))
    p = field_from_function(g, lambda z: z)
    q = field_from_function(g, np.conj)
    a1 = antiderivative(Form1(p, q), (20, 20), "x_first")
    a2 = antiderivative(Form1(p, q), (20, 20), "y_first")
    assert np.max(np.abs(a1.values - a2.values)) < 1e-12


@pytest.mark.parametrize("order", ["x_first", "y_first"])
def test_antiderivative_matches_lpath_integral(order):
    # a form that is not closed, so the two path orders differ: each node of the
    # vectorised antiderivative equals the line integral along its own L-path
    g = make_grid((-1, 1.5, -0.5, 1), (23, 17))
    p = field_from_function(g, lambda z: np.exp(0.8 * z) + np.abs(z) ** 2)
    q = field_from_function(g, lambda z: np.sin(np.conj(z)) * z)
    form, base = Form1(p, q), (7, 11)
    F = antiderivative(form, base, order)
    for node in [(0, 0), (22, 16), (7, 0), (0, 11), (15, 3), (7, 11)]:
        ref = path_integrate(form, lpath(g, base, node, order))
        assert abs(F.values[node[1], node[0]] - ref) < 1e-13


def test_complexfield_csv_roundtrip(tmp_path):
    g = make_grid((-1, 1, -1, 1), (9, 7))
    f = field_from_function(g, lambda z: z ** 2 + 1j)
    path = tmp_path / "f.csv"
    save_complexfield_csv(f, path)
    back = load_complexfield_csv(path)
    assert back.grid == g
    assert np.max(np.abs(back.values - f.values)) < 1e-15


def _savetxt_bytes(path, header, fmt, data):
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt=fmt)
    return path.read_bytes()


def test_node_csv_writer_matches_savetxt(tmp_path):
    g = make_grid((-1, 1, -1, 1), (9, 7))
    vals = field_from_function(g, lambda z: z ** 3 + 1j / 3).values
    vals.flat[:8] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), np.nan,
                     complex(1e300, -2.5e-308), complex(-7.3e17, np.nan), np.inf]
    mask = np.zeros((7, 9), dtype=bool)
    mask[3, 4] = mask[0, 8] = True
    other = field_from_function(g, lambda z: 1e-200 / (z + 5)).values
    ix = np.tile(np.arange(9), 7)
    iy = np.repeat(np.arange(7), 9)
    a, b = vals.ravel(), other.ravel()

    save_complexfield_csv(ComplexField(g, vals, mask), tmp_path / "f.csv")
    expect = _savetxt_bytes(tmp_path / "ref1.csv", "ix,iy,re,im", ["%d", "%d", "%.17g", "%.17g"],
                            np.column_stack([ix, iy, a.real, a.imag]))
    assert (tmp_path / "f.csv").read_bytes() == expect

    save_nodes_csv(tmp_path / "two.csv", g, "ix,iy,re1,im1,re2,im2", vals, other)
    expect = _savetxt_bytes(tmp_path / "ref2.csv", "ix,iy,re1,im1,re2,im2",
                            ["%d", "%d"] + ["%.17g"] * 4,
                            np.column_stack([ix, iy, a.real, a.imag, b.real, b.imag]))
    assert (tmp_path / "two.csv").read_bytes() == expect
