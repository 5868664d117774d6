import warnings

import numpy as np
import pytest

from spinsurf import (ComplexField, SpinorField, SurfaceMap, catalog,
                      constant_field, discrete_mean_curvature,
                      field_from_function, gauss_map, integrate_surface_r3,
                      integrate_surface_r4, invert_surface, make_grid,
                      measured_e2alpha, named_spinor, smatrix_to_surface,
                      spinor_metric, weier_derivatives, willmore)
from spinsurf.grid import partials, wirtinger_derivative
from spinsurf.hierarchy import soliton_potential
from spinsurf.moutard import heat_datum_fields, heat_smatrix_values


def _plane_spinor(grid):
    return SpinorField(constant_field(grid, 1.0), constant_field(grid, 0.0))


def _enneper_spinor(grid):
    return SpinorField(constant_field(grid, 1.0), field_from_function(grid, np.conj))


def test_named_spinors_are_the_closed_forms_bitwise():
    g = make_grid((-1.2, 1.2, 0, 2 * np.pi), (24, 40), (False, True))
    r = 1 / np.sqrt(2.0)
    catenoid = SpinorField(field_from_function(g, lambda z: r * np.exp(z / 2)),
                           field_from_function(g, lambda z: r * np.exp(-np.conj(z) / 2)))
    for name, ref in (("plane", _plane_spinor(g)), ("enneper", _enneper_spinor(g)),
                      ("catenoid", catenoid)):
        assert named_spinor(name, g).values.tobytes() == ref.values.tobytes(), name
    with pytest.raises(KeyError):
        named_spinor("helicoid", g)


def test_plane_surface_coordinates():
    g = make_grid((-1, 1, -1, 1), (33, 33))
    S = integrate_surface_r3(_plane_spinor(g))
    zm = g.zmesh()
    assert np.max(np.abs(S.coords[0] + zm.imag)) < 1e-12   # x1 = -y
    assert np.max(np.abs(S.coords[1] + zm.real)) < 1e-12   # x2 = -x
    assert np.max(np.abs(S.coords[2])) < 1e-12             # x3 = const


def test_enneper_mean_curvature_vanishes():
    g = make_grid((-1, 1, -1, 1), (96, 96))
    S = integrate_surface_r3(_enneper_spinor(g))
    H = discrete_mean_curvature(S)
    assert np.nanmax(np.abs(H)) < 5e-3


def test_metric_identity_r3():
    g = make_grid((-1, 1, -1, 1), (128, 128))
    psi = _enneper_spinor(g)
    S = integrate_surface_r3(psi)
    e2a = measured_e2alpha(S)
    spin = spinor_metric(psi)
    assert np.max(np.abs(e2a - spin) / spin) < 1e-3


def test_r4_reduces_to_r3_for_real_potential():
    g = make_grid((-1, 1, -1, 1), (48, 48))
    psi = _enneper_spinor(g)
    S3 = integrate_surface_r3(psi)
    S4 = integrate_surface_r4(psi, psi)
    assert np.max(np.abs(S4.coords[:3] - S3.coords)) < 1e-12
    assert np.ptp(S4.coords[3]) < 1e-12


def test_plane_r4_constant_products():
    g = make_grid((-1, 1, -1, 1), (32, 32))
    psi = _plane_spinor(g)
    S4 = integrate_surface_r4(psi, psi)
    e2a = spinor_metric(psi, psi)
    assert np.max(np.abs(e2a - 1.0)) < 1e-14


def test_metric_identity_r4_graph():
    g = make_grid((-2, 2, -2, 2), (96, 96))
    sol = catalog("s1", c=1.0)
    psi0, phi0 = heat_datum_fields(sol.f, g, 0.3)
    S4 = integrate_surface_r4(psi0, phi0)
    e2a = measured_e2alpha(S4)
    spin = spinor_metric(psi0, phi0)
    assert np.max(np.abs(e2a - spin) / spin) < 1e-10    # polynomial data: exact


def test_graph_surface_is_graph():
    g = make_grid((-2, 2, -2, 2), (64, 64))
    sol = catalog("s1", c=1.0)
    t = 0.3
    psi0, phi0 = heat_datum_fields(sol.f, g, t)
    zm = g.zmesh()
    zb = g.node_z(*g.centre)
    fb = complex(sol.f.eval(z=zb, t=t, c=1.0))
    bp = (zb.real, zb.imag, fb.real, fb.imag)
    S4 = integrate_surface_r4(psi0, phi0)
    S4.coords += np.array(bp)[:, None, None]
    fv = sol.f.eval(z=zm, t=t, c=1.0)
    assert np.max(np.abs(S4.coords[0] + 1j * S4.coords[1] - zm)) < 1e-10
    assert np.max(np.abs(S4.coords[2] + 1j * S4.coords[3] - fv)) < 1e-10


def test_willmore_zero():
    g = make_grid((-1, 1, -1, 1), (16, 16))
    assert willmore(constant_field(g, 0.0)) == 0.0


def test_willmore_soliton_strip():
    g = make_grid((-25.0, 25.0, 0.0, 2 * np.pi), (2001, 16), periodicity=(False, True))
    pot = soliton_potential(1)
    vals = np.tile(pot.u, (g.ny, 1)).astype(complex)
    U = ComplexField(g, vals)
    assert willmore(U) == pytest.approx(4 * np.pi, abs=1e-6)


def test_willmore_clifford():
    from scipy.integrate import quad
    g = make_grid((0, 2 * np.pi, 0, 2 * np.pi), (256, 64), True)
    s = np.sqrt(2.0)
    U = field_from_function(g, lambda z: np.sin(z.real) / (2 * s * (np.sin(z.real) - s)))
    oracle, _ = quad(lambda x: (np.sin(x) / (2 * s * (np.sin(x) - s))) ** 2,
                     0, 2 * np.pi, epsabs=1e-13)
    expect = 4 * 2 * np.pi * oracle
    assert willmore(U) == pytest.approx(expect, rel=1e-10)
    assert willmore(U) == pytest.approx(2 * np.pi ** 2, rel=1e-12)


def test_willmore_phase_invariance():
    g = make_grid((-2, 2, -2, 2), (64, 64))
    U = field_from_function(g, lambda z: 1 / (1 + np.abs(z) ** 2))
    W1 = willmore(U)
    W2 = willmore(U.like(np.exp(0.7j) * U.values))
    assert W1 == pytest.approx(W2, rel=0, abs=1e-12)


def test_willmore_ignores_what_a_masked_node_holds():
    # the sum patches the masked pole and the truncation check's maxima skip it, so
    # the value and the warning do not depend on what the node holds
    g = make_grid((-3, 3, -3, 3), (129, 129))
    U = catalog("s1", c=1j).U_field(g, -0.5)
    assert U.mask is not None and U.mask.sum() == 1
    for junk in (0.0, np.nan, 1e300):
        vals = U.values.copy()
        vals[U.mask] = junk
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)      # |1e300|^2 would overflow
            with pytest.warns(UserWarning, match=r"boundary is 0\.1; truncation tail est 1\.13$"):
                assert willmore(ComplexField(g, vals, U.mask)) == 11.521698531117362


# The arithmetic the surface figures had before they read surface.fundamental_form,
# kept as the tests' oracle: x^k_z as complex fields by wirtinger_derivative, and the
# mean curvature from np.gradient, NaN on a 2-node border along every axis.


def surface_dz(S):
    """(dim, ny, nx) array of x^k_z of the map, by wirtinger_derivative."""
    return np.stack([wirtinger_derivative(ComplexField(S.grid, c.astype(complex)), "z").values
                     for c in S.coords])


def _gauss_map_reference(S):
    xz = surface_dz(S)
    norm2 = np.sum(np.abs(xz) ** 2, axis=0)
    ok = ~(norm2 <= 1e-12 * max(float(norm2.max()), 1.0))
    return float(np.max(np.abs(np.sum(xz * xz, axis=0))[ok] / norm2[ok])) if ok.any() else 0.0


def _gradient_mean_curvature(S):
    g, P = S.grid, S.coords
    Px = np.gradient(P, g.hx, axis=2, edge_order=2)
    Py = np.gradient(P, g.hy, axis=1, edge_order=2)
    Pxx = np.gradient(Px, g.hx, axis=2, edge_order=2)
    Pxy = np.gradient(Px, g.hy, axis=1, edge_order=2)
    Pyy = np.gradient(Py, g.hy, axis=1, edge_order=2)
    E, F, G = np.sum(Px * Px, axis=0), np.sum(Px * Py, axis=0), np.sum(Py * Py, axis=0)
    W = E * G - F * F
    bad = ~(W > 1e-12 * np.max(W, initial=0.0, where=np.isfinite(W)))
    W[bad] = 1.0
    A = (G * Pxx - 2 * F * Pxy + E * Pyy) / (2 * W)
    ax, ay = np.sum(A * Px, axis=0), np.sum(A * Py, axis=0)
    Hvec = A - (G * ax - F * ay) / W * Px - (E * ay - F * ax) / W * Py
    if S.ambient_dim == 3:
        H = np.sum(Hvec * np.cross(Px, Py, axis=0), axis=0) / np.sqrt(W)
    else:
        H = np.linalg.norm(Hvec, axis=0)
    H[bad] = np.nan
    H[:2, :] = H[-2:, :] = H[:, :2] = H[:, -2:] = np.nan
    if S.mask is not None:
        H[S.mask] = np.nan
    return H


def _open_grid_surfaces(n):
    g = make_grid((-3, 3, -3, 3), (n, n))
    f = catalog("s1", c=1.0).f
    yield "enneper", integrate_surface_r3(named_spinor("enneper", g))
    yield "s1", integrate_surface_r4(*heat_datum_fields(f, g, 0.0))
    yield "s1-invert", invert_surface(smatrix_to_surface(heat_smatrix_values(f, g, 0.0)))


@pytest.mark.parametrize("n", [64, 128])
def test_surface_figures_match_the_reference_arithmetic_on_open_grids(n):
    # one difference scheme moves the figures by rounding alone
    for name, S in _open_grid_surfaces(n):
        H, ref = discrete_mean_curvature(S), _gradient_mean_curvature(S)
        assert np.array_equal(np.isnan(H), np.isnan(ref)), name
        finite = np.isfinite(ref)
        assert np.max(np.abs(H[finite] - ref[finite])) <= 1e-12, name
        assert gauss_map(S) == pytest.approx(_gauss_map_reference(S), rel=0, abs=1e-12), name
        e2a_ref = 2.0 * np.sum(np.abs(surface_dz(S)) ** 2, axis=0)
        assert np.max(np.abs(measured_e2alpha(S) - e2a_ref) / e2a_ref) <= 1e-14, name


def test_curvature_covers_a_periodic_axis():
    # the y-periodic catenoid: H at every node off the open x-axis's 2-node border,
    # the seam rows included, converging at second order
    means = []
    for nx, ny in ((32, 64), (64, 128), (128, 256)):
        g = make_grid((-1.2, 1.2, 0.0, 6.2831853), (nx, ny), (False, True))
        H = discrete_mean_curvature(integrate_surface_r3(named_spinor("catenoid", g)))
        assert np.isfinite(H[:, 2:nx - 2]).all()
        assert np.isnan(H[:, :2]).all() and np.isnan(H[:, nx - 2:]).all()
        means.append(np.mean(np.abs(H[:, 2:nx - 2])))
    assert 3.5 <= means[0] / means[1] <= 4.6 and 3.5 <= means[1] / means[2] <= 4.6


def _gauss_points(S):
    """Per-node representative of (x^1_z : ... : x^n_z), normalized where x_z does
    not vanish: the projective point whose quadric residual gauss_map measures."""
    xz = surface_dz(S)
    norm2 = np.sum(np.abs(xz) ** 2, axis=0)
    degenerate = norm2 <= 1e-12 * max(float(norm2.max()), 1.0)
    return xz / np.sqrt(np.where(degenerate, 1.0, norm2))


def _gauss_spinor_ratio(S):
    """The R^3 Gauss map as a projective spinor (a : b), read from the quadric
    point by whichever of -i x1_z - x2_z and -i x1_z + x2_z is larger."""
    z1, z2, z3 = surface_dz(S)
    a2 = -1j * z1 - z2
    b2 = -1j * z1 + z2
    use_a = np.abs(a2) >= np.abs(b2)
    return np.where(use_a, a2, z3), np.where(use_a, z3, b2)


def test_gauss_map_plane_point():
    g = make_grid((-1, 1, -1, 1), (16, 16))
    S = integrate_surface_r3(_plane_spinor(g))
    pt = _gauss_points(S)[:, 8, 8]
    ref = np.array([0.5j, -0.5, 0.0])
    ref = ref / np.linalg.norm(ref)
    assert np.max(np.abs(pt - ref)) < 1e-10
    assert gauss_map(S) < 1e-12


def test_gauss_map_quadric_residual_smooth():
    g = make_grid((-1, 1, -1, 1), (128, 128))
    S = integrate_surface_r3(_enneper_spinor(g))
    assert gauss_map(S) <= 1e-3


def test_gauss_map_spinor_recovery():
    g = make_grid((-1, 1, -1, 1), (64, 64))
    psi = _enneper_spinor(g)
    S = integrate_surface_r3(psi)
    a, b = _gauss_spinor_ratio(S)
    # projective match with (psi1 : conj(psi2)) away from the boundary
    p1 = psi.psi1.values
    p2b = np.conj(psi.psi2.values)
    cross = np.abs(a * p2b - b * p1)[4:-4, 4:-4]
    scale = (np.abs(a) * np.abs(p2b) + np.abs(b) * np.abs(p1))[4:-4, 4:-4]
    assert np.max(cross / scale) < 1e-3


def test_curvature_plane_zero():
    g = make_grid((-1, 1, -1, 1), (32, 32))
    S = integrate_surface_r3(_plane_spinor(g))
    H = discrete_mean_curvature(S)
    assert np.nanmax(np.abs(H)) < 1e-8


def test_curvature_minimal_order():
    res = {}
    for n in (64, 128):
        g = make_grid((-1, 1, -1, 1), (n, n))
        S = integrate_surface_r3(_enneper_spinor(g))
        res[n] = np.nanmax(np.abs(discrete_mean_curvature(S)))
    assert res[64] / res[128] >= 3.0


def test_curvature_sphere():
    # stereographic conformal parametrization of the radius-R sphere
    R = 2.0
    g = make_grid((-1.5, 1.5, -1.5, 1.5), (96, 96))
    zm = g.zmesh()
    r2 = np.abs(zm) ** 2
    coords = np.stack([2 * zm.real, 2 * zm.imag, r2 - 1]) * (R / (1 + r2))
    S = SurfaceMap(g, coords)
    H = discrete_mean_curvature(S)
    med = np.nanmedian(np.abs(H))
    assert med == pytest.approx(1 / R, rel=1e-2)


def test_curvature_r4_norm():
    # |H| from the mean curvature vector on the minimal graph: ~ 0
    g = make_grid((-2, 2, -2, 2), (96, 96))
    sol = catalog("s1", c=1.0)
    psi0, phi0 = heat_datum_fields(sol.f, g, 0.0)
    S4 = integrate_surface_r4(psi0, phi0)
    H = discrete_mean_curvature(S4)
    assert np.nanmax(H) < 1e-10



def _sphere(g, R=2.0):
    """Stereographic radius-R sphere: not minimal, signed H = +1/R."""
    zm = g.zmesh()
    r2 = np.abs(zm) ** 2
    coords = np.stack([2 * zm.real, 2 * zm.imag, r2 - 1]) * (R / (1 + r2))
    return coords, np.full(r2.shape, 1 / R)


def _paraboloid(g, reparam=True):
    """z = (x^2 + y^2)/2 over (x, y) = (sinh u + v/2, sinh v): neither conformal
    (F != 0, P_uv != 0) nor polynomial in the grid coordinates; reparam=False is
    the plain graph."""
    zm = g.zmesh()
    u, v = zm.real, zm.imag
    x, y = (np.sinh(u) + v / 2, np.sinh(v)) if reparam else (u, v)
    r2 = x * x + y * y
    return np.stack([x, y, r2 / 2]), (2 + r2) / (2 * (1 + r2) ** 1.5)


_EMBED = {"r3": lambda c: c,
          "r4_x4_zero": lambda c: np.stack([c[0], c[1], c[2], 0 * c[0]]),
          "r4_x124": lambda c: np.stack([c[0], c[1], 0 * c[0], c[2]])}


def _embedded(g, coords, embedding):
    c = _EMBED[embedding](coords)
    return SurfaceMap(g, c)


@pytest.mark.parametrize("embedding", sorted(_EMBED))
@pytest.mark.parametrize("surface,box", [(_sphere, 1.5), (_paraboloid, 1.0)],
                         ids=["sphere", "paraboloid"])
def test_curvature_nonminimal_order(surface, box, embedding):
    # R^3: signed H; R^4 (the same surface in a 3-space): |H|
    errs = []
    for n in (48, 96, 192):
        g = make_grid((-box, box, -box, box), (n, n))
        coords, exact = surface(g)
        H = discrete_mean_curvature(_embedded(g, coords, embedding))
        errs.append(np.nanmax(np.abs(H - exact)))
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5
    assert errs[2] < 1e-3


@pytest.mark.parametrize("embedding", sorted(_EMBED))
def test_curvature_plain_paraboloid_graph_exact(embedding):
    # quadratic coordinates: the differences are exact, so only rounding is left
    for n in (48, 96, 192):
        g = make_grid((-1, 1, -1, 1), (n, n))
        coords, exact = _paraboloid(g, reparam=False)
        H = discrete_mean_curvature(_embedded(g, coords, embedding))
        assert np.isnan(H[:2]).all() and np.isnan(H[:, -2:]).all()
        assert np.isfinite(H[2:-2, 2:-2]).all()
        assert np.max(np.abs(H[2:-2, 2:-2] - exact[2:-2, 2:-2])) < 1e-11


def test_invert_point_examples():
    g = make_grid((0, 1, 0, 1), (4, 4))
    mk = lambda p: SurfaceMap(g, np.tile(np.asarray(p, float)[:, None, None], (1, 4, 4)))
    inv1 = invert_surface(mk([1, 0, 0, 0]))
    assert np.allclose(inv1.coords[:, 0, 0], [-1, 0, 0, 0])
    inv2 = invert_surface(mk([0, 0, 0, 2]))
    assert np.allclose(inv2.coords[:, 0, 0], [0, 0, 0, 0.5])


def test_invert_involution():
    rng = np.random.default_rng(9)
    g = make_grid((0, 1, 0, 1), (8, 8))
    coords = rng.normal(size=(4, 8, 8)) + 2.0
    S = SurfaceMap(g, coords)
    back = invert_surface(invert_surface(S))
    assert np.max(np.abs(back.coords - coords)) < 1e-12


def test_invert_flags_origin():
    g = make_grid((0, 1, 0, 1), (4, 4))
    coords = np.ones((4, 4, 4))
    coords[:, 1, 1] = 0.0
    S = SurfaceMap(g, coords)
    inv = invert_surface(S)
    assert inv.mask is not None and inv.mask[1, 1]


def test_smatrix_surface_roundtrip():
    g = make_grid((-1, 1, -1, 1), (16, 16))
    sol = catalog("s1", c=1.0)
    M = heat_smatrix_values(sol.f, g, 0.2)
    x1, x2, x3, x4 = smatrix_to_surface(M).coords
    # the dictionary's column (a, b) = (i x3 + x4, x1 - i x2)
    assert np.max(np.abs(M.values - np.stack([1j * x3 + x4, x1 - 1j * x2]))) < 1e-12


def test_path_independence_defect_small():
    g = make_grid((-1, 1, -1, 1), (64, 64))
    S = integrate_surface_r3(_enneper_spinor(g))
    assert S.diagnostics["path_defect"] < 1e-10   # polynomial integrands: exact


def test_weier_derivatives_r3_fourth_component():
    g = make_grid((-1, 1, -1, 1), (16, 16))
    psi = _enneper_spinor(g)
    xz = weier_derivatives(psi, psi)
    assert np.max(np.abs(xz[3])) < 1e-15


def test_bad_spinor_raises_nonclosed_error():
    from spinsurf.surface import SurfaceIntegrationError
    g = make_grid((-1, 1, -1, 1), (48, 48))
    rng = np.random.default_rng(2)
    bad = SpinorField(ComplexField(g, rng.normal(size=(48, 48)) * 3 + 0j),
                      ComplexField(g, rng.normal(size=(48, 48)) * 3 + 0j))
    with pytest.raises(SurfaceIntegrationError):
        integrate_surface_r3(bad)


def test_nonfinite_spinor_raises_nonclosed_error():
    # a NaN entry makes the path defect NaN, which the gate must refuse
    from spinsurf.surface import SurfaceIntegrationError
    g = make_grid((-1, 1, -1, 1), (16, 16))
    psi = _enneper_spinor(g)
    psi.values[1, 5, 7] = np.nan
    with pytest.raises(SurfaceIntegrationError):
        integrate_surface_r3(psi)
    with pytest.raises(SurfaceIntegrationError):
        integrate_surface_r4(psi, psi)


def test_gauge_equivalent_data_give_same_surface():
    # the gauge move by a holomorphic h: psi -> (e^h psi1, e^conj(h) psi2),
    # phi -> (e^-h phi1, e^-conj(h) phi2)
    g = make_grid((-1, 1, -1, 1), (48, 48))
    sol = catalog("s1", c=1.0)
    psi0, phi0 = heat_datum_fields(sol.f, g, 0.1)
    h = field_from_function(g, lambda z: 0.3 * z - 0.2j).values
    e = np.stack([np.exp(h), np.exp(np.conj(h))])
    psi2 = SpinorField.from_values(g, psi0.values * e, psi0.mask)
    phi2 = SpinorField.from_values(g, phi0.values / e, phi0.mask)
    S1 = integrate_surface_r4(psi0, phi0)
    S2 = integrate_surface_r4(psi2, phi2)
    assert np.max(np.abs(S1.coords - S2.coords)) < 1e-12


# the map's partials in real arithmetic give d/dz of the complex-field operation,
# to the bit, on open and singly periodic grids
_PERIODICITY = {"open": (False, False), "periodic-x": (True, False), "periodic-y": (False, True)}


@pytest.mark.parametrize("per", sorted(_PERIODICITY))
def test_real_surface_dz_matches_wirtinger_derivative(per):
    g = make_grid((-1.0, 1.3, -0.8, 1.1), (37, 29), _PERIODICITY[per])
    coords = np.random.default_rng(11).normal(size=(4, 29, 37))
    Px, Py = partials(g, coords)
    for k in range(4):
        ref = wirtinger_derivative(ComplexField(g, coords[k].astype(complex)), "z").values
        assert np.array_equal((Px[k] - 1j * Py[k]) / 2, ref)
