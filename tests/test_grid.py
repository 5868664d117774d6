import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsurf import (ComplexField, SpinorField, SurfaceMap, constant_field,
                      field_from_function, make_grid, save_complexfield_csv, willmore,
                      wirtinger_derivative)
from spinsurf.grid import (_TEXT_VALUES, GridConfigError, MaskError, Spectral, _digits,
                           antiderivative, closedness_defect, json_text, mask_patches,
                           save_json, save_nodes_csv)


def quadrature_sum(vals, hx, hy, periodic_x=False, periodic_y=False):
    """Trapezoid sum of a (ny, nx) array, the rectangle rule along periodic axes,
    weighted along x, then along y, in place: the oracle of willmore's integral and
    of dsii.l2_norm_sq's raw one."""
    wx, wy = np.full(vals.shape[1], hx), np.full(vals.shape[0], hy)
    if not periodic_x:
        wx[0] = wx[-1] = hx / 2
    if not periodic_y:
        wy[0] = wy[-1] = hy / 2
    tmp = vals * wx
    tmp *= wy[:, None]
    return np.sum(tmp)


# The per-node neighbour-mean rule: the oracle that grid.mask_patches, and every
# sum that patches masked nodes, is compared against bit for bit.

def neighbor_mean(vals, mask, iy, ix):
    """Mean of vals over the unmasked 8-neighbours of node (iy, ix) (0 when it has
    none), summed in row order."""
    ny, nx = mask.shape
    acc, cnt = 0.0, 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            jy, jx = iy + dy, ix + dx
            if (dy == 0 and dx == 0) or not (0 <= jy < ny and 0 <= jx < nx):
                continue
            if not mask[jy, jx]:
                acc += vals[jy, jx]
                cnt += 1
    return acc / cnt if cnt else 0.0


def neighbor_mean_patched(vals, mask):
    """Copy of vals with each masked node set to its neighbor_mean."""
    out = vals.copy()
    for iy, ix in zip(*np.nonzero(mask)):
        out[iy, ix] = neighbor_mean(vals, mask, iy, ix)
    return out


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


def xy_parts(p, q):
    """(gx, gy) of the 1-form p dz + q dzbar = gx dx + gy dy, as antiderivative
    and closedness_defect take it."""
    return p + q, 1j * (p - q)


def path_integrate(form, path) -> complex:
    """Trapezoidal line integral of p dz + q dzbar, form = (p, q) ComplexFields,
    along a grid node path."""
    grid = form[0].grid
    path = list(path)
    if len(path) < 2:
        return 0.0 + 0.0j
    p, q = (f.values for f in form)
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
    assert g.nx * g.ny == 262144


def test_make_grid_rejects_degenerate():
    with pytest.raises(GridConfigError):
        make_grid((1, 1, 0, 1), (8, 8))
    with pytest.raises(GridConfigError):
        make_grid((0, 1, 0, 1), (3, 8))


def test_grid_is_a_frozen_value(monkeypatch):
    # merged_mask compares grids by value; spectral is cached on the instance
    built = []
    init = Spectral.__init__
    monkeypatch.setattr(Spectral, "__init__", lambda sp, g: built.append(g) or init(sp, g))
    g = make_grid((-1, 1, -2, 2), (8, 16), True)
    same = make_grid((-1.0, 1.0, -2.0, 2.0), (8, 16), True)
    assert g == same and not g != same and hash(g) == hash(same) and len({g, same}) == 1
    for other in (make_grid((-1, 1, -2, 2), (8, 16), (True, False)),
                  make_grid((-1, 1, -2, 3), (8, 16), True), make_grid((-1, 1, -2, 2), (16, 8), True)):
        assert g != other and not g == other
    assert g != g.meta() and g != tuple(g.meta().values())
    for name in ("nx", "x_min", "periodic_x", "spectral", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g.meta() == same.meta() and g.nx == 8 and "spectral" not in vars(g)
    sp = g.spectral
    assert g.spectral is sp and built == [g]          # the second read is cached
    assert same.spectral is not sp and built == [g, same]


@pytest.mark.parametrize("shape", [(4, 4), (), (16, 15)], ids=["small", "scalar", "one-short"])
def test_a_mask_must_have_the_grid_shape(shape):
    g = make_grid((-2, 2, -2, 2), (16, 16))
    mask = np.zeros(shape, bool)
    with pytest.raises(GridConfigError, match="mask shape"):
        ComplexField(g, np.ones((16, 16)), mask=mask)
    with pytest.raises(GridConfigError, match="mask shape"):
        SpinorField.from_values(g, np.ones((2, 16, 16), complex), mask)
    with pytest.raises(GridConfigError, match="mask shape"):
        SurfaceMap(g, np.zeros((3, 16, 16)), mask=mask)
    good = np.zeros((16, 16), bool)
    assert ComplexField(g, np.ones((16, 16)), mask=good.astype(int)).mask.dtype == bool
    assert SpinorField.from_values(g, np.ones((2, 16, 16), complex), good).mask is good
    assert SurfaceMap(g, np.zeros((3, 16, 16)), mask=good).mask is good


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
    # the grid's Fourier symbols give d/dz = (d/dx - i d/dy) / 2 of a periodic
    # exponential to rounding
    g = make_grid((0, 2 * np.pi, 0, 2 * np.pi), (32, 32), True)
    f = field_from_function(g, lambda z: np.exp(1j * z.real))
    sp = g.spectral
    d = np.fft.ifft2((sp.ikx + sp.ky[:, None]) / 2 * np.fft.fft2(f.values))
    ref = 0.5j * np.exp(1j * g.zmesh().real)
    assert np.max(np.abs(d - ref)) < 1e-12


def test_wirtinger_central2_order():
    # halving h reduces the max error on e^z by >= 3.5
    errs = []
    for n in (33, 65):
        g = make_grid((-1, 1, -1, 1), (n, n))
        f = field_from_function(g, np.exp)
        d = wirtinger_derivative(f, "z")
        errs.append(np.max(np.abs(d.values - np.exp(g.zmesh()))))
    assert errs[0] / errs[1] >= 3.5


# ---------------------------------------------------------------------------
# oracles: the derivative, closedness and L-path formulas written out plainly


def _ref_d(v, h, periodic, axis):
    """Central difference along axis; one-sided second order at open edges."""
    if periodic:
        return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2 * h)
    v = np.moveaxis(v, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return np.moveaxis(out, 0, axis)


def _ref_wirtinger(g, v, direction):
    fx, fy = _ref_d(v, g.hx, g.periodic_x, -1), _ref_d(v, g.hy, g.periodic_y, -2)
    return (fx - 1j * fy) / 2 if direction == "z" else (fx + 1j * fy) / 2


def _random_form(g, seed, mask=None):
    """(p, q) ComplexFields of random values."""
    rng = np.random.default_rng(seed)
    p, q = rng.normal(size=(2, g.ny, g.nx)) + 1j * rng.normal(size=(2, g.ny, g.nx))
    return ComplexField(g, p, mask), ComplexField(g, q, mask)


_ORACLE_GRIDS = {
    "open": make_grid((-1, 1.5, -0.5, 1), (37, 23)),
    "periodic": make_grid((0, 2 * np.pi, 0, 2 * np.pi), (32, 32), True),
    "periodic_x": make_grid((-1, 2, 0, 1), (16, 40), (True, False)),
    "periodic_y": make_grid((-1, 2, 0, 1), (24, 12), (False, True)),
}


@pytest.mark.parametrize("name", list(_ORACLE_GRIDS))
@pytest.mark.parametrize("direction", ["z", "zbar"])
def test_wirtinger_matches_oracle_bitwise(name, direction):
    g = _ORACLE_GRIDS[name]
    f = _random_form(g, 1)[0]
    got = wirtinger_derivative(f, direction).values
    assert np.array_equal(got, _ref_wirtinger(g, f.values, direction))


@pytest.mark.parametrize("name", list(_ORACLE_GRIDS) + ["masked"])
def test_closedness_defect_matches_four_derivative_oracle(name):
    # d_zbar p - d_z q from four Wirtinger derivatives, max over unmasked nodes
    g = _ORACLE_GRIDS["open" if name == "masked" else name]
    mask = None
    if name == "masked":
        mask = np.zeros((g.ny, g.nx), dtype=bool)
        mask[4, 8:11] = mask[3:6, 9] = True
    pf, qf = _random_form(g, 2, mask)
    p, q = pf.values, qf.values
    if name == "masked":
        p[4, 9] = 1e6          # enters the defect at the four masked neighbours
    r = np.abs(_ref_wirtinger(g, p, "zbar") - _ref_wirtinger(g, q, "z"))
    ref = np.max(r if mask is None else r[~mask])
    scale = max(np.max(np.abs(p)), np.max(np.abs(q))) / min(g.hx, g.hy)
    assert abs(closedness_defect(g, *xy_parts(p, q), mask) - ref) <= 1e-14 * scale
    if name == "masked":
        assert np.max(r) > 2 * ref          # the mask decides the answer


def test_closedness_defect_of_stacked_forms_is_the_largest():
    # forms stacked on leading axes: the largest of their defects, to the bit
    g = _ORACLE_GRIDS["periodic_y"]
    mask = np.zeros((g.ny, g.nx), dtype=bool)
    mask[5, 3] = True
    forms = [xy_parts(*(f.values for f in _random_form(g, 10 + k))) for k in range(3)]
    gx, gy = (np.stack(parts) for parts in zip(*forms))
    each = [closedness_defect(g, fx, fy, mask) for fx, fy in forms]
    assert closedness_defect(g, gx, gy, mask) == max(each)
    assert closedness_defect(g, gx.reshape(3, 1, g.ny, g.nx), gy.reshape(3, 1, g.ny, g.nx),
                             None) == max(closedness_defect(g, fx, fy, None) for fx, fy in forms)


def _ref_cumtrapz_from(vals, h, i0, axis=-1):
    moved = np.moveaxis(vals, axis, -1)
    seg = (moved[..., :-1] + moved[..., 1:]) * (h / 2)
    cum = np.zeros_like(moved)
    cum[..., 1:] = np.cumsum(seg, axis=-1)
    cum = cum - cum[..., i0:i0 + 1]
    return np.moveaxis(cum, -1, axis)


def _ref_antiderivative(g, gx, gy, base, order):
    ix0, iy0 = base
    if order == "x_first":
        row = _ref_cumtrapz_from(gx[iy0, :], g.hx, ix0)
        return row[None, :] + _ref_cumtrapz_from(gy, g.hy, iy0, 0)
    col = _ref_cumtrapz_from(gy[:, ix0], g.hy, iy0)
    return col[:, None] + _ref_cumtrapz_from(gx, g.hx, ix0, 1)


@pytest.mark.parametrize("order", ["x_first", "y_first"])
@pytest.mark.parametrize("base", [(2, 2), (9, 4), (36, 22), (30, 11)])
def test_antiderivative_matches_oracle_bitwise(order, base):
    # real and complex forms, one alone and three stacked on a leading axis: each
    # integral to the bit, from the centre node base of an odd or even grid
    ix, iy = base
    g = make_grid((-1, 1.5, -0.5, 1), (2 * ix + ix % 2, 2 * iy + iy % 2))
    assert g.centre == base
    pf, qf = _random_form(g, 4)
    for gx, gy in ((pf.values, qf.values), (pf.values.real, qf.values.imag)):
        got = antiderivative(g, gx, gy, order)
        assert got.dtype == gx.dtype
        assert np.array_equal(got, _ref_antiderivative(g, gx, gy, base, order))
        # written over the part whose centre row (column) it reads first
        parts = [gx.copy(), gy.copy()]
        own = parts[0 if order == "x_first" else 1]
        assert antiderivative(g, *parts, order, out=own) is own
        assert np.array_equal(own, _ref_antiderivative(g, gx, gy, base, order))
        stack = [np.stack([a, 2.0 * a, a[::-1]]) for a in (gx, gy)]
        got = antiderivative(g, *stack, order)
        for k in range(3):
            assert np.array_equal(got[k], _ref_antiderivative(g, stack[0][k], stack[1][k],
                                                              base, order))


@pytest.mark.parametrize("order", ["x_first", "y_first"])
@pytest.mark.parametrize("name", list(_ORACLE_GRIDS))
def test_real_antiderivative_is_the_real_part_of_antiderivative(name, order):
    # the real form 2 Re p dx - 2 Im p dy of p dz + conj(p) dzbar, three forms at
    # once, against the complex integral of each: equal to the bit, and so is the
    # L-path defect
    g = _ORACLE_GRIDS[name]
    ps = [_random_form(g, 6 + k)[0].values for k in range(3)]
    xz = np.stack(ps)
    other_order = "y_first" if order == "x_first" else "x_first"
    got = antiderivative(g, 2.0 * xz.real, -2.0 * xz.imag, order)
    other = antiderivative(g, 2.0 * xz.real, -2.0 * xz.imag, other_order)
    for k, p in enumerate(ps):
        ref = antiderivative(g, *xy_parts(p, np.conj(p)), order)
        alt = antiderivative(g, *xy_parts(p, np.conj(p)), other_order)
        assert np.array_equal(got[k], ref.real)
        assert np.max(np.abs(got[k] - other[k])) == np.max(np.abs(ref - alt))


@pytest.mark.parametrize("name", list(_ORACLE_GRIDS))
@pytest.mark.parametrize("dtype", [float, complex])
def test_quadrature_sum_matches_two_temporary_form_bitwise(name, dtype):
    # the oracle on a real and a complex array, and willmore on a real-valued and a
    # complex-valued field: four times the oracle's sum of the complex |U|^2
    g = _ORACLE_GRIDS[name]
    vals = _random_form(g, 5)[0].values
    vals = np.abs(vals) ** 2 if dtype is float else vals
    wx = np.full(g.nx, g.hx)
    wy = np.full(g.ny, g.hy)
    if not g.periodic_x:
        wx[0] = wx[-1] = g.hx / 2
    if not g.periodic_y:
        wy[0] = wy[-1] = g.hy / 2
    ref = np.sum((vals * wx[None, :]) * wy[:, None])
    got = quadrature_sum(vals, g.hx, g.hy, g.periodic_x, g.periodic_y)
    assert got == ref and type(got) is type(ref)
    U = ComplexField(g, vals)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # random values: no decay
        W = willmore(U)
    abs2 = np.abs(U.values) ** 2 + 0j
    assert W == 4.0 * float(np.sum((abs2 * wx[None, :]) * wy[:, None]).real)
    assert type(W) is float


def test_willmore_constant():
    g = make_grid((0, 1, 0, 1), (16, 16))
    with pytest.warns(UserWarning, match="open boundary"):
        assert willmore(constant_field(g, 1.0)) == pytest.approx(4.0)


def test_willmore_sech2():
    g = make_grid((-20, 20, 0, 2 * np.pi), (1001, 32))
    f = field_from_function(g, lambda z: 1 / np.cosh(z.real) / 2)
    with pytest.warns(UserWarning, match="open boundary"):      # the edges y = 0, 2 pi
        assert willmore(f) == pytest.approx(4 * np.pi, abs=4e-8)


def test_willmore_s1_norm():
    from spinsurf import catalog, square_grid
    sol = catalog("s1", c=1.0)
    g = square_grid(30.0, 513)
    assert willmore(sol.U_field(g, 1.0)) == pytest.approx(8 * np.pi, rel=1e-2)


def test_willmore_mask_policy():
    # the masked node holds the mean of its neighbours, whatever it held
    g = make_grid((0, 1, 0, 1), (8, 8))
    vals = np.ones((8, 8), dtype=complex)
    vals[3, 3] = np.nan
    mask = np.zeros((8, 8), dtype=bool)
    mask[3, 3] = True
    f = ComplexField(g, vals, mask)
    with pytest.warns(UserWarning, match="open boundary"):
        assert willmore(f) == pytest.approx(4.0)


@st.composite
def masked_grids(draw):
    """(values, mask): a random (ny, nx) grid, real or complex, whose masked nodes
    hold NaN; some masks are dense enough to leave nodes with no unmasked
    neighbour, and any corner may be masked."""
    ny, nx = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((ny, nx)) < draw(st.sampled_from([0.05, 0.3, 0.6, 0.9, 1.0]))
    for iy, ix in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
        mask[iy, ix] |= draw(st.booleans())
    vals = rng.standard_normal((ny, nx))
    if draw(st.booleans()):
        vals = vals + 1j * rng.standard_normal((ny, nx))
    vals[mask] = np.nan
    return vals, mask


@settings(max_examples=300, deadline=None)
@given(masked_grids(), st.sampled_from(["values", "abs2"]))
def test_mask_patches_match_the_per_node_rule_bit_for_bit(grid, of):
    vals, mask = grid
    f = (lambda v: v) if of == "values" else (lambda v: v.real**2 + v.imag**2)
    rows, cols, means = mask_patches(vals, mask, f)
    want_rows, want_cols = np.nonzero(mask)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    ref = neighbor_mean_patched(f(vals), mask)[mask]
    assert means.dtype == ref.dtype and means.tobytes() == ref.tobytes()
    if of == "values":
        U = ComplexField(make_grid((0, 1, 0, 1), vals.shape[::-1]), vals, mask)
        got = U.patched()
        assert got.mask is None
        assert got.values.tobytes() == neighbor_mean_patched(U.values, mask).tobytes()


def test_willmore_nonnegative_property():
    rng = np.random.default_rng(7)
    g = make_grid((-1, 1, -1, 1), (16, 16))
    f = ComplexField(g, rng.random((16, 16)).astype(complex))
    with pytest.warns(UserWarning, match="open boundary"):
        assert willmore(f) >= 0


def test_path_integrate_dz():
    g = make_grid((0, 1, 0, 1), (11, 11))
    form = (constant_field(g, 1.0), constant_field(g, 0.0))
    path = [(i, 0) for i in range(11)]
    assert path_integrate(form, path) == pytest.approx(1.0)


def test_path_integrate_dzbar_vertical():
    g = make_grid((0, 1, 0, 1), (11, 11))
    form = (constant_field(g, 0.0), constant_field(g, 1.0))
    path = [(0, i) for i in range(11)]
    assert path_integrate(form, path) == pytest.approx(-1j)


def test_path_integrate_closed_loop_of_closed_form():
    g = make_grid((-1, 1, -1, 1), (21, 21))
    f = field_from_function(g, lambda z: z + np.conj(z))
    form = (f, f)
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
        vals[n] = abs(path_integrate((p, q), loop))
    assert vals[41] / vals[81] >= 3.5      # O(h^2)
    assert vals[81] < 1e-3


def test_path_integrate_rejects_nonadjacent():
    g = make_grid((0, 1, 0, 1), (8, 8))
    form = (constant_field(g, 1.0), constant_field(g, 0.0))
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
    gx, gy = xy_parts(p.values, q.values)
    a1 = antiderivative(g, gx, gy, "x_first")
    a2 = antiderivative(g, gx, gy, "y_first")
    assert np.max(np.abs(a1 - a2)) < 1e-12


@pytest.mark.parametrize("order", ["x_first", "y_first"])
def test_antiderivative_matches_lpath_integral(order):
    # a form that is not closed, so the two path orders differ: each node of the
    # vectorised antiderivative equals the line integral along its own L-path
    g = make_grid((-1, 1.5, -0.5, 1), (23, 17))
    p = field_from_function(g, lambda z: np.exp(0.8 * z) + np.abs(z) ** 2)
    q = field_from_function(g, lambda z: np.sin(np.conj(z)) * z)
    base = g.centre
    assert base == (11, 8)
    F = antiderivative(g, *xy_parts(p.values, q.values), order)
    for node in [(0, 0), (22, 16), (11, 0), (0, 8), (15, 3), (11, 8)]:
        ref = path_integrate((p, q), lpath(g, base, node, order))
        assert abs(F[node[1], node[0]] - ref) < 1e-13


def test_complexfield_csv_roundtrip(tmp_path):
    # the CSV holds every node (ix, iy, re, im) to the bit, the sidecar the grid
    # and the masked nodes as [ix, iy]
    g = make_grid((-1, 1, -1, 1), (9, 7))
    f = field_from_function(g, lambda z: z ** 2 + 1j / 3)
    f.mask = np.zeros((7, 9), dtype=bool)
    f.mask[2, 5] = f.mask[6, 0] = True
    path = tmp_path / "f.csv"
    save_complexfield_csv(f, path)
    assert path.read_text().splitlines()[0] == "ix,iy,re,im"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    ix, iy = data[:, 0].astype(int), data[:, 1].astype(int)
    assert np.array_equal(data[:, 2] + 1j * data[:, 3], f.values[iy, ix])
    assert sorted(zip(iy, ix)) == [(j, i) for j in range(7) for i in range(9)]
    meta = json.loads((tmp_path / "f.csv.json").read_text())
    assert sorted(meta.pop("masked_nodes")) == [[0, 6], [5, 2]]
    assert meta == g.meta()


def _strict_loads(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_rule_reads_numpy_complex_paths_and_non_finite_values(tmp_path):
    # one rule for every file and printed line: numpy scalars as Python values, a
    # complex number as [re, im], a path as its text, a tuple as a list and a
    # non-finite float as null, at any depth
    path = Path("out") / "U.csv"
    record = {"n": np.int64(7), "ok": np.bool_(True), "h": np.float32(0.25),
              "c": 1.5 - 2j, "nc": np.complex128(3j), "path": path,
              "grid": (np.int64(33), 33), "t": [np.nan, np.float64(np.inf), -np.inf],
              "deep": [{"x": (complex(np.nan, 1.0),)}], "none": None, "tag": "s2"}
    want = {"n": 7, "ok": True, "h": 0.25, "c": [1.5, -2.0], "nc": [0.0, 3.0],
            "path": str(path), "grid": [33, 33], "t": [None, None, None],
            "deep": [{"x": [[None, 1.0]]}], "none": None, "tag": "s2"}
    save_json(tmp_path / "r.json", record)
    for text in (json_text(record), (tmp_path / "r.json").read_text()):
        got = _strict_loads(text)
        assert got == want and list(got) == list(record)       # the record's key order
        assert [type(got[k]) for k in ("n", "ok", "h")] == [int, bool, float]
    assert "\n" not in json_text(record)
    # finite plain values: the text json itself writes, one line or indent 1
    plain = {"b": [1, -0.0, 2.5e-300, "x", None, False], "a": {"z": 1e300, "y": []}}
    assert json_text(plain) == json.dumps(plain)
    save_json(tmp_path / "p.json", plain)
    assert (tmp_path / "p.json").read_text() == json.dumps(plain, indent=1)


def _savetxt_bytes(path, header, fmt, data):
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt=fmt)
    return path.read_bytes()


def _savetxt_oracle(path, header, *columns):
    ny, nx = columns[0].shape
    parts = [p for c in columns for p in (c.ravel().real, c.ravel().imag)]
    data = np.column_stack([np.tile(np.arange(nx), ny), np.repeat(np.arange(ny), nx), *parts])
    return _savetxt_bytes(path, header, ["%d", "%d"] + ["%.17g"] * len(parts), data)


def _awkward_values(rng, shape):
    """Complex values whose text is long, short, signed, subnormal or not finite."""
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    vals = vals + 1j * rng.normal(size=shape)
    special = [0.0, -0.0, complex(-0.0, 0.0), np.nan, np.inf, -np.inf, 5e-324,
               complex(1e300, -2.5e-308), complex(-7.3e17, np.nan), 0.1, 1.0, -12345.0]
    k = min(len(special), vals.size)
    vals.reshape(-1)[rng.choice(vals.size, k, replace=False)] = special[:k]
    return vals


def test_node_csv_writer_matches_savetxt(tmp_path):
    g = make_grid((-1, 1, -1, 1), (9, 7))
    vals = field_from_function(g, lambda z: z ** 3 + 1j / 3).values
    vals.flat[:8] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), np.nan,
                     complex(1e300, -2.5e-308), complex(-7.3e17, np.nan), np.inf]
    mask = np.zeros((7, 9), dtype=bool)
    mask[3, 4] = mask[0, 8] = True
    other = field_from_function(g, lambda z: 1e-200 / (z + 5)).values

    save_complexfield_csv(ComplexField(g, vals, mask), tmp_path / "f.csv")
    expect = _savetxt_oracle(tmp_path / "ref1.csv", "ix,iy,re,im", vals)
    assert (tmp_path / "f.csv").read_bytes() == expect

    save_nodes_csv(tmp_path / "two.csv", "ix,iy,re1,im1,re2,im2", vals, other)
    expect = _savetxt_oracle(tmp_path / "ref2.csv", "ix,iy,re1,im1,re2,im2", vals, other)
    assert (tmp_path / "two.csv").read_bytes() == expect

    # the row text depends on nx and on how many digits ix and iy take: one row,
    # one column, four-digit iy, three columns
    rng = np.random.default_rng(23)
    for ny, nx, ncols in [(1, 40, 1), (40, 1, 1), (1, 1, 2), (1100, 12, 1), (6, 11, 3)]:
        cols = [_awkward_values(rng, (ny, nx)) for _ in range(ncols)]
        header = ",".join(["ix", "iy"] + [f"{p}{j}" for j in range(ncols) for p in ("re", "im")])
        save_nodes_csv(tmp_path / "got.csv", header, *cols)
        expect = _savetxt_oracle(tmp_path / "ref.csv", header, *cols)
        assert (tmp_path / "got.csv").read_bytes() == expect, (ny, nx, ncols)

    # 257 x 129 with a masked node, which changes only the sidecar: its CSV row
    # holds what the node holds
    g = make_grid((-3, 3, -2, 2), (257, 129))
    vals = _awkward_values(rng, (129, 257))
    mask = np.zeros((129, 257), dtype=bool)
    mask[64, 128] = True
    save_complexfield_csv(ComplexField(g, vals, mask), tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == _savetxt_oracle(tmp_path / "ref.csv",
                                                                 "ix,iy,re,im", vals)
    assert json.loads((tmp_path / "m.csv.json").read_text())["masked_nodes"] == [[128, 64]]

    # a column of the digit rule's edge values, a float32 one, and rows wider than a block
    edges = np.empty((9, 31), complex)
    edges.real, edges.imag = np.resize(_edge_values(), (2, 9, 31))
    cols = [edges, _awkward_values(rng, (9, 31)), rng.normal(size=(9, 31)).astype(np.float32)]
    save_nodes_csv(tmp_path / "got.csv", "ix,iy,re0,im0,re1,im1,re2,im2", *cols)
    expect = _savetxt_oracle(tmp_path / "ref.csv", "ix,iy,re0,im0,re1,im1,re2,im2", *cols)
    assert (tmp_path / "got.csv").read_bytes() == expect
    wide = _awkward_values(rng, (3, 1500))
    assert 2 * 1500 > _TEXT_VALUES
    save_nodes_csv(tmp_path / "wide.csv", "ix,iy,re,im", wide)
    assert (tmp_path / "wide.csv").read_bytes() == _savetxt_oracle(tmp_path / "ref.csv",
                                                                    "ix,iy,re,im", wide)


# The node writer's digit rule against '%.17g' itself, value by value

def _edge_values():
    """Powers of ten and their neighbours, signed zeros, infinities, nan, subnormals
    and the extreme doubles."""
    tens = np.array([float(f"1e{k}") for k in range(-8, 19)])
    return np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), -tens,
                           [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.2250738585072009e-308, 2.2250738585072014e-308,
                            1.7976931348623157e308, -1.7976931348623157e308,
                            9.9999999999999995e-7, 99999999999999999.0, 0.1, 0.5, 1e-5]])


def assert_node_text_is_percent_17g(values, path):
    vals = np.asarray(values, float).ravel()
    vals = np.r_[vals, [0.0] * (vals.size % 2)]            # re, im, re, im, ...
    save_nodes_csv(path, "ix,iy,re,im", vals.view(complex)[None, :])
    expect = b"".join(b"%d,0,%.17g,%.17g\n" % (ix, re, im)
                      for ix, (re, im) in enumerate(vals.reshape(-1, 2).tolist()))
    assert path.read_bytes() == b"ix,iy,re,im\n" + expect


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_node_text_of_any_bit_pattern(tmp_path_factory, bits):
    values = np.array(bits, np.uint64).view(np.float64)
    assert_node_text_is_percent_17g(values, tmp_path_factory.mktemp("csv") / "v.csv")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-8, 18), st.booleans()), min_size=1, max_size=64))
def test_node_text_of_log_uniform_values(tmp_path_factory, draws):
    values = [(-1) ** neg * 10.0 ** u for u, neg in draws]
    assert_node_text_is_percent_17g(values, tmp_path_factory.mktemp("csv") / "v.csv")


def test_digit_rule_leaves_to_percent_only_what_it_cannot_prove():
    # away from the decades' edges, every 10^-6 <= |x| < 10^17 gets its digits in numpy
    rng = np.random.default_rng(37)
    x = (rng.uniform(1.01, 9.99, 20_000) * 10.0 ** rng.integers(-6, 17, 20_000)
         * rng.choice([-1.0, 1.0], 20_000))
    assert _digits(x)[2].all()
    left = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 9.9e-7, -1e17, 1e300, -1e-300]
    assert not _digits(np.array(left))[2].any()


def test_node_text_at_the_digit_rules_edges(tmp_path):
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    logu = 10.0 ** rng.uniform(-8, 18, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    # ties: M 2^-(k+1) with M odd, below 2^53, is half-way between two k-bit fractions
    half = [(rng.integers(1, 2**53, 2000) | 1) * 2.0 ** -(k + 1) for k in range(23)]
    for values in [bits, logu, *half, _edge_values()]:
        assert_node_text_is_percent_17g(values, tmp_path / "v.csv")
