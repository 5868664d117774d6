import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from spinsurf import (BiPoly, C, ComplexField, Z, catalog, constant_field, dsii_residual_exact,
                      exact_solution, field_from_function, heat_extend, l2_norm_sq,
                      make_grid, poly_equal, singular_times, square_grid,
                      to_halved_v_form, willmore, wirtinger_derivative)
from spinsurf import dsii
from spinsurf.dsii import (DecayError, ExactSolution, InvalidDatumError, NormResult, OzawaData,
                           re_v_from_u)
from spinsurf.evolve import DsiiEvolver
from spinsurf.exactpoly import T, ZBAR, RationalFn
from spinsurf.grid import _BLOCK, Grid2D, GridConfigError, MaskError, row_blocks
from test_grid import neighbor_mean_patched, quadrature_sum


# oracles and measuring tools: the closed-form V printed for the quadratic datum,
# and the residual of the DSII evolution on a centred time stencil


def s1_displayed_V() -> RationalFn:
    """4 conj(f)/rho - 2 (2 z conj(f) + zbar)^2 / rho^2 for f = z^2 + 2 i t + c."""
    f = Z * Z + 2j * T + C
    fb = f.conj()
    rho = Z * ZBAR + f * fb
    return RationalFn(4 * fb, rho) - RationalFn(2 * (2 * Z * fb + ZBAR) ** 2, rho * rho)


@dataclass
class ResidualReport:
    max_norm: float
    l2_norm: float


def dsii_rhs(U: ComplexField, V: ComplexField) -> ComplexField:
    """i (U_zz + U_zbzb + (V + conj V) U)."""
    Uzz = wirtinger_derivative(wirtinger_derivative(U, "z"), "z")
    Ubb = wirtinger_derivative(wirtinger_derivative(U, "zbar"), "zbar")
    re2V = ComplexField(U.grid, V.values + np.conj(V.values), V.mask)
    return 1j * (Uzz + Ubb + re2V * U)


def dsii_residual(U_stencil, V: ComplexField, dt: float) -> ResidualReport:
    """Residual of the canonical DSII evolution on a centred 3-slice time stencil,
    off a 2-node margin."""
    Um, U0, Up = U_stencil
    Ut = (Up.values - Um.values) / (2 * dt)
    r = (Ut - dsii_rhs(U0, V).values)[2:-2, 2:-2]
    h = U0.grid.hx * U0.grid.hy
    return ResidualReport(float(np.max(np.abs(r))),
                          float(np.sqrt(np.sum(np.abs(r) ** 2) * h)))


# the physical (focusing) form of a z-side field, X = 2y, Y = 2x, T = 2t and
# W = U / sqrt(2): a measuring tool for the focusing-equation residual, and the
# grid-transposing route that OzawaData.U0_zside is checked against bit for bit


class PhysicalForm:
    U_phys: ComplexField          # field entering the focusing equation
    phi: ComplexField             # potential of the Poisson problem (z-side scale)
    grid_phys: Grid2D
    rev_residual: float           # Re V - (2|U|^2 - 4 phi_X), z-side quantities
    ozeq_residual: float | None

    def __init__(self, U_phys, phi, grid_phys, rev_residual, ozeq_residual=None):
        self.U_phys, self.phi, self.grid_phys = U_phys, phi, grid_phys
        self.rev_residual, self.ozeq_residual = rev_residual, ozeq_residual


def physical_grid_of(grid: Grid2D) -> Grid2D:
    """The (X, Y) = (2y, 2x) image of a z-plane grid."""
    return Grid2D(2 * grid.y_min, 2 * grid.y_max, 2 * grid.x_min, 2 * grid.x_max,
                  grid.ny, grid.nx, grid.periodic_y, grid.periodic_x)


def _swap_scale(values: np.ndarray) -> np.ndarray:
    # (X, Y) = (2y, 2x): the physical array indexed [iY, iX] is the transpose
    return values.T.copy()


def physical_form(U: ComplexField, V: ComplexField, U_stencil=None, dt=None):
    """Transform to the focusing variables X = 2y, Y = 2x.

    Enforces/reports Re V = 2|U|^2 - 4 phi_X with Delta phi = d_X |U|^2 (z-side
    fields on the physical grid).  With a 3-slice z-side time stencil the
    residual of the focusing equation

        i W_T - W_XX + W_YY = -4 |W|^2 W + 8 phi'_X W,   W = U / sqrt(2), T = 2t

    is also evaluated (phi' = phi / 2).
    """
    gp = physical_grid_of(U.grid)
    Uz_phys = ComplexField(gp, _swap_scale(U.values))
    n = np.abs(Uz_phys.values) ** 2
    sp = gp.spectral
    # RHS is d_X of a periodic field, so its mean vanishes and the Poisson
    # problem is always solvable in the zero-mean gauge.
    phi_hat = sp.ikx * np.fft.fft2(n) * sp.lap_inv
    phi = np.fft.ifft2(phi_hat).real
    phi_X = np.fft.ifft2(sp.ikx * np.fft.fft2(phi)).real
    ReV_phys = _swap_scale(V.values).real
    ReV_phys = ReV_phys - ReV_phys.mean()        # match the zero-mean spectral gauge
    target = 2 * n - 4 * phi_X
    target = target - target.mean()
    rev_residual = float(np.max(np.abs(ReV_phys - target)))

    ozeq = None
    if U_stencil is not None:
        if dt is None:
            raise ValueError("dt required with a stencil")
        Wm, W0, Wp = (_swap_scale(s.values) / np.sqrt(2) for s in U_stencil)
        W_T = (Wp - Wm) / (2 * dt) / 2.0          # T = 2t
        W = ComplexField(gp, W0)
        Wxx = _d2(W.values, gp.hx, axis=1)
        Wyy = _d2(W.values, gp.hy, axis=0)
        phi_p_X = phi_X / 2.0
        lhs = 1j * W_T - Wxx + Wyy
        rhsq = -4 * np.abs(W0) ** 2 * W0 + 8 * phi_p_X * W0
        ozeq = float(np.max(np.abs(lhs - rhsq)))
    return PhysicalForm(ComplexField(gp, _swap_scale(U.values) / np.sqrt(2)),
                        ComplexField(gp, phi.astype(complex)), gp, rev_residual, ozeq)


def _d2(vals: np.ndarray, h: float, axis: int) -> np.ndarray:
    return (np.roll(vals, -1, axis=axis) - 2 * vals + np.roll(vals, 1, axis=axis)) / h**2


def test_exact_solution_linear_datum_trivial():
    sol = exact_solution(heat_extend(Z))
    assert sol.U.num.nterms == 0          # z f' - f = 0


def test_exact_solution_constant_datum_norm():
    # f = 1: U = -i/(|z|^2+1), squared L2 norm = pi (analytic radial integral)
    sol = exact_solution(BiPoly.const(1.0))
    g = square_grid(60.0, 1025)
    nr = l2_norm_sq(sol.U_field(g, 0.0))
    assert nr.value == pytest.approx(np.pi, rel=1e-2)


def test_exact_solution_rejects_non_heat():
    with pytest.raises(InvalidDatumError):
        exact_solution(Z * Z)             # missing the 2it term


@pytest.mark.parametrize("build", [
    lambda: catalog("s1", c=np.nan),
    lambda: catalog("s1", c=np.inf),
    lambda: catalog("s1", c=complex(1, np.inf)),
    lambda: catalog("s2", c=complex(np.nan, 1)),
    lambda: exact_solution(heat_extend(Z * Z + np.nan * Z)),
    lambda: exact_solution(heat_extend(Z * Z + C), c=-np.inf),
], ids=["s1-nan", "s1-inf", "s1-1+inf-i", "s2-nan+i", "nan-coefficient", "symbolic-c-inf"])
def test_exact_solution_refuses_a_non_finite_datum(build):
    # a NaN or infinite coefficient of f, or c, built a solution whose exact identity
    # then read False, as if the identity had failed
    with pytest.raises(InvalidDatumError, match="must be finite"):
        build()


def test_catalog_s1_formula():
    sol = catalog("s1", c="symbolic")
    from spinsurf.exactpoly import C, T, ZBAR
    num = 1j * (Z * Z - 2j * T - C)
    f = Z * Z + 2j * T + C
    den = Z * ZBAR + f * f.conj()
    assert poly_equal(sol.U.num, num)
    assert poly_equal(sol.U.den, den)


def test_catalog_s1_point_values():
    sol = catalog("s1", c=1.0)
    assert complex(sol.U.eval(z=0.0, t=0.0, c=1.0)) == pytest.approx(-1j)
    sol0 = catalog("s1", c=0.0)
    assert complex(sol0.U.eval(z=0.0, t=1.0, c=0.0)) == pytest.approx(0.5)


def test_catalog_s2_formula():
    sol = catalog("s2", c="symbolic")
    from spinsurf.exactpoly import C, T
    num = 1j * (3 * Z ** 4 + 12j * (T * (Z * Z)) + 12 * (T * T) - C)
    assert poly_equal(sol.U.num, num)


def test_catalog_ozawa_norm():
    oz = OzawaData(1.0, -1.0)
    g = square_grid(40.0, 1025)
    nr = l2_norm_sq(oz.U0_field(g))
    assert nr.value == pytest.approx(2 * np.pi, rel=1e-2)
    assert oz.blowup_time == pytest.approx(1.0)


def test_ozawa_zside_datum_maps_the_physical_one():
    # U(x, y) = sqrt(2) W(2y, 2x), so the z-side norm is half the physical 2 pi
    oz = OzawaData(1.0, -1.0)
    g = make_grid((-20.0, 20.0, -16.0, 16.0), (321, 257))
    U = oz.U0_zside(g)
    for ix, iy in ((3, 7), (200, 31), (160, 128)):
        z = g.node_z(ix, iy)
        X, Y = 2 * z.imag, 2 * z.real
        W = np.exp(0.25j * (X**2 - Y**2)) / (1 + (X**2 + Y**2) / 2)
        assert U.values[iy, ix] == pytest.approx(np.sqrt(2) * W, abs=1e-14)
    assert l2_norm_sq(oz.U0_zside(square_grid(20.0, 513))).value == pytest.approx(np.pi, rel=1e-2)
    # U0_zside evaluates W at (2y, 2x) straight from the z-plane nodes; the route it
    # replaced sampled W on physical_grid_of(g) and transposed back.  2 ys() is that
    # grid's xs() to the bit, so the bytes agree, zero signs included
    boxes = ((-10.0, 10.0, -10.0, 10.0), (-3.0, 5.0, -2.0, 2.0), (1.5, 7.25, -6.0, 0.3))
    for a, b in ((1.0, -1.0), (0.7, 0.3), (-1.3, 2.0), (2.5, 0.0)):
        oz = OzawaData(a, b)
        for bounds in boxes:
            for nx, ny in ((64, 64), (33, 48), (48, 33), (21, 17)):
                for periodic in (False, True):
                    g = make_grid(bounds, (nx, ny), periodic)
                    old = np.sqrt(2) * _swap_scale(oz.U0_field(physical_grid_of(g)).values)
                    new = oz.U0_zside(g).values
                    assert new.shape == (ny, nx)
                    assert new.tobytes() == old.tobytes(), (a, b, bounds, nx, ny, periodic)


def test_catalog_unknown_name():
    # the catalog holds the DSII solutions only; Ozawa's datum is OzawaData(a, b)
    for name in ("s3", "ozawa"):
        with pytest.raises(KeyError):
            catalog(name)


def test_dsii_residual_zero_case():
    g = square_grid(2.0, 32)
    zero = ComplexField(g, np.zeros((32, 32), complex))
    rep = dsii_residual([zero, zero, zero], zero, 1e-3)
    assert rep.max_norm == 0.0


def test_dsii_residual_s1_convergence():
    sol = catalog("s1", c=1.0)
    dt = 1e-5
    tt = 0.3
    res = {}
    for n in (256, 512):
        g = square_grid(20.0, n)
        sten = [sol.U_field(g, tt - dt), sol.U_field(g, tt), sol.U_field(g, tt + dt)]
        res[n] = dsii_residual(sten, sol.V_field(g, tt), dt).max_norm
    assert res[256] / res[512] >= 3.0


def test_dsii_residual_exact_zero():
    for name in ("s1", "s2"):
        sol = catalog(name, c="symbolic")
        ev, co = dsii_residual_exact(sol)
        assert ev.nterms == 0
        assert co.nterms == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dsii_identity_random_heat_datum(seed):
    # small Gaussian-integer data keep every product inside the exact float
    # range, so the residual numerators cancel to the zero polynomial
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(1, 5))
    coef = {(k, 0, 0, 0, 0): complex(rng.integers(-2, 3), rng.integers(-2, 3))
            for k in range(deg)}
    coef[(deg, 0, 0, 0, 0)] = 1.0
    coef[(0, 0, 0, 1, 0)] = 1.0          # symbolic c term
    f = heat_extend(BiPoly(coef))
    ev, co = dsii_residual_exact(exact_solution(f))
    assert ev.nterms == 0
    assert co.nterms == 0


def test_dsii_wrong_normalization_fails():
    sol = catalog("s1", c="symbolic")
    ev, co = dsii_residual_exact(sol, kappa_evol=2.0, kappa_cons=1.0)
    assert ev.nterms > 0 and co.nterms > 0


def test_halved_v_form():
    # (U, V/2) satisfies the variant with doubled coupling and halved constraint
    sol = catalog("s1", c="symbolic")
    V2 = to_halved_v_form(sol)
    U, Ub = sol.U, sol.U.conj()
    Ut = U.wirtinger("t")
    lap = U.wirtinger("z").wirtinger("z") + U.wirtinger("zbar").wirtinger("zbar")
    ev = Ut - 1j * (lap + 2 * (V2 + V2.conj()) * U)
    co = V2.wirtinger("zbar") - (U * Ub).wirtinger("z")
    assert ev.num.nterms == 0
    assert co.num.nterms == 0


def test_displayed_V_identity():
    sol = catalog("s1", c="symbolic")
    assert s1_displayed_V().equals(2j * sol.a.wirtinger("z"))


def _re_v(U):
    """re_v_from_u of a field, into fresh arrays."""
    ny, nx = U.values.shape
    return re_v_from_u(U.values, U.grid.spectral, np.empty((ny, nx // 2 + 1), complex),
                       np.empty((ny, nx)))


def test_v_from_u_zero():
    g = square_grid(5.0, 32, periodic=True)
    zero = ComplexField(g, np.zeros((32, 32), complex))
    assert np.max(np.abs(_re_v(zero))) < 1e-14


def test_v_from_u_real_constant():
    g = square_grid(5.0, 32, periodic=True)
    U = ComplexField(g, np.full((32, 32), 0.7, complex))
    assert np.max(np.abs(_re_v(U))) < 1e-12


def test_v_from_u_matches_exact_s1():
    # the evolver's multiplier 2 (kx^2 - ky^2) / k^2 on |U|^2 against Re V of the
    # exact solution, after removing the additive (zero-mean) gauge
    sol = catalog("s1", c=1.0)
    g = square_grid(30.0, 512, periodic=True)
    re_v = _re_v(sol.U_field(g, 0.25))
    re_vex = sol.V_field(g, 0.25).values.real
    diff = re_v - re_vex
    diff -= diff.mean()
    assert np.max(np.abs(diff)) / np.max(np.abs(re_vex)) < 1e-3


def test_v_from_u_requires_periodic():
    from spinsurf.grid import SchemeError
    g = square_grid(5.0, 32)
    U = ComplexField(g, np.zeros((32, 32), complex))
    with pytest.raises(SchemeError):
        _re_v(U)


def test_grid_spectral_is_cached_and_read_only():
    from spinsurf.grid import SchemeError
    g = make_grid((-3, 5, -2, 2), (48, 32), True)
    sp = g.spectral
    assert g.spectral is sp
    assert sp.kx.shape == (48,) and sp.ky.shape == (32,)
    assert "re_v" not in vars(sp)            # 2-D multipliers are built on first use
    assert sp.re_v.shape == (32, 25) and sp.lap_inv.shape == (32, 48)
    for name in ("kx", "ky", "ikx", "re_v", "lap_inv"):
        arr = getattr(sp, name)
        assert getattr(sp, name) is arr
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    with pytest.raises(SchemeError):
        square_grid(5.0, 32).spectral


def test_spectral_consumers_match_inline_formulas():
    # the wavenumber and multiplier formulas each consumer used to build for
    # itself, written out here; non-square, off-centre grid
    sol = catalog("s1", c=1.0 + 0.5j)
    g = make_grid((-20, 24, -18, 18), (96, 80), True)
    U, V = sol.U_field(g, 0.2), sol.V_field(g, 0.2)

    def wavenumbers(grid):
        kx = 2 * np.pi * np.fft.fftfreq(grid.nx, d=grid.hx)
        ky = 2 * np.pi * np.fft.fftfreq(grid.ny, d=grid.hy)
        return kx[None, :], ky[:, None]

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    kx, ky = wavenumbers(g)
    n_hat = np.fft.fft2(np.abs(U.values) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = 2.0 * (kx**2 - ky**2) / (kx**2 + ky**2)
    mult[0, 0] = 0.0
    assert close(_re_v(U), np.fft.ifft2(mult * n_hat).real)

    pf = physical_form(U, V)
    kx, ky = wavenumbers(pf.grid_phys)
    n = np.abs(U.values.T) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = (1j * kx) * np.fft.fft2(n) / (-(kx**2 + ky**2))
    phi_hat[0, 0] = 0.0
    phi = np.fft.ifft2(phi_hat).real
    assert close(pf.phi.values, phi)
    phi_X = np.fft.ifft2(1j * kx * np.fft.fft2(phi)).real
    rev = V.values.T.real - V.values.real.mean()
    target = 2 * n - 4 * phi_X
    target -= target.mean()
    assert abs(pf.rev_residual - np.max(np.abs(rev - target))) <= 1e-13 * np.max(np.abs(rev))


def test_physical_form_zero():
    g = square_grid(5.0, 32, periodic=True)
    zero = ComplexField(g, np.zeros((32, 32), complex))
    pf = physical_form(zero, zero)
    assert np.max(np.abs(pf.phi.values)) < 1e-14
    assert pf.rev_residual < 1e-14


def test_physical_form_s1_converges():
    sol = catalog("s1", c=1.0)
    dt = 1e-4
    tt = 0.25
    res = {}
    for n in (256, 512):
        g = square_grid(30.0, n, periodic=True)
        sten = [sol.U_field(g, tt - dt), sol.U_field(g, tt), sol.U_field(g, tt + dt)]
        pf = physical_form(sten[1], sol.V_field(g, tt), U_stencil=sten, dt=dt)
        res[n] = pf.ozeq_residual
        assert pf.rev_residual < 2e-2
    assert res[256] / res[512] >= 2.5


def test_physical_grid_roundtrip():
    g = make_grid((-3, 3, -2, 2), (64, 48), True)
    gp = physical_grid_of(g)
    assert (gp.x_min, gp.x_max) == (-4, 4)     # X = 2y
    assert (gp.y_min, gp.y_max) == (-6, 6)     # Y = 2x
    back = physical_grid_of(gp)
    # applying the map twice rescales by 4 but restores the orientation
    assert (back.nx, back.ny) == (g.nx, g.ny)


def test_l2_norm_catalog_values():
    g = square_grid(30.0, 769)
    s1 = catalog("s1", c=1.0)
    for t in (0.0, 0.5, 1.0):
        assert l2_norm_sq(s1.U_field(g, t)).value == pytest.approx(2 * np.pi, rel=1e-2)
    s1i = catalog("s1", c=1j)
    assert l2_norm_sq(s1i.U_field(g, -0.5)).value == pytest.approx(np.pi, rel=1e-2)
    g10 = square_grid(10.0, 1025)
    s2 = catalog("s2", c=12.0)
    assert l2_norm_sq(s2.U_field(g10, 0.3)).value == pytest.approx(4 * np.pi, rel=1e-2)
    g10f = square_grid(10.0, 2049)
    assert l2_norm_sq(s2.U_field(g10f, 1.0)).value == pytest.approx(3 * np.pi, rel=1e-2)


def test_l2_norm_time_independence_property():
    # first integral: the squared norm is t-independent on regular intervals
    sol = catalog("s1", c=1.0 + 0.3j)
    g = square_grid(30.0, 513)
    vals = [l2_norm_sq(sol.U_field(g, t)).value for t in (-0.4, -0.1, 0.2, 0.5, 0.9)]
    assert (max(vals) - min(vals)) / np.mean(vals) < 5e-3


def test_l2_norm_decay_guard():
    g = square_grid(5.0, 64)
    U = field_from_function(g, lambda z: np.ones_like(z))
    with pytest.raises(DecayError):
        l2_norm_sq(U)


def test_singular_times_s1():
    for tau in (1.0, -0.6):
        ev = singular_times(catalog("s1", c=1j * tau))
        assert len(ev) == 1
        assert ev[0].t_sing == pytest.approx(-tau / 2, abs=1e-14)
        assert ev[0].coefficient == 1j           # exactly i a2 / (1 + |a1|^2), a1 = 0
        assert ev[0].as_dict()["z"] == [0.0, 0.0]


def test_singular_times_s1_smooth_cases():
    assert singular_times(catalog("s1", c=1.0 + 0.5j)) == []
    # perturbing c off the imaginary axis removes the singularity
    for delta in (1e-3, -1e-2, 0.1):
        assert singular_times(catalog("s1", c=delta + 1j)) == []


def test_singular_times_s2():
    ev = singular_times(catalog("s2", c=12.0))
    ts = sorted(e.t_sing for e in ev)
    assert ts == [pytest.approx(-1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12)]
    assert [e.coefficient for e in ev] == [12, -12]     # exactly -12 t_s


@pytest.mark.parametrize("name, c, t_sing", [("s1", 0.5j, -0.25), ("s1", 0.75j, -0.375),
                                             ("s1", 1.25j, -0.625), ("s2", 12.0, -1.0),
                                             ("s2", 12.0, 1.0)])
def test_singular_instant_masks_exactly_the_origin(name, c, t_sing):
    # |z|^2 + |f|^2 vanishes only at z = 0, where its value must cancel to exactly 0
    sol = catalog(name, c=c)
    g = square_grid(3.0, 65)
    assert g.node_z(32, 32) == 0
    U = sol.U_field(g, t_sing)
    origin = np.zeros((65, 65), bool)
    origin[32, 32] = True
    assert U.mask is not None and np.array_equal(U.mask, origin)
    assert U.values[32, 32] == 0 and np.all(np.isfinite(U.values))
    for t in (t_sing - 0.1, t_sing + 0.05):
        assert sol.U_field(g, t).mask is None


_ROUNDED_TAU = -0.7706729129463723


@pytest.mark.parametrize("tau", [_ROUNDED_TAU, -1.2142645217311379, 1.0, -0.6])
def test_singular_instant_masks_the_origin_where_rho_rounds(tau):
    # s1 with c = i tau at t = -tau/2, where f(0, t) specialises to exactly 0.  For
    # _ROUNDED_TAU, the expanded rho's constant term rounds to -1.1e-16 instead, so
    # on_grid of the expanded U leaves the pole unmasked (U reads -0 there).
    # The samplers form rho as a sum of squares, which is exactly 0 there in every case.
    sol, t = catalog("s1", c=1j * tau), -tau / 2
    assert sol.f._specialise(t, sol.c)[0][0] == 0
    assert (sol.U.den._specialise(t, sol.c)[0][0] == 0) == (tau != _ROUNDED_TAU)
    g = square_grid(3.0, 33)
    assert g.node_z(16, 16) == 0
    origin = np.zeros((33, 33), bool)
    origin[16, 16] = True
    assert (sol.U.on_grid(g, t, sol.c).mask is None) == (tau == _ROUNDED_TAU)
    for v_field, field in ((False, sol.U_field(g, t)), (True, sol.V_field(g, t))):
        assert np.array_equal(field.mask, origin) and field.values[16, 16] == 0
        values, mask = _field_oracle(sol, g, t, v_field)
        assert np.array_equal(field.values.view(np.uint64), values.view(np.uint64))
        assert np.array_equal(mask, origin)


def test_singular_times_persistent_rejected():
    sol = exact_solution(heat_extend(Z ** 3))   # f = z^3 + 6itz: f(0, t) == 0 for all t
    with pytest.raises(InvalidDatumError, match="vanishes identically"):
        singular_times(sol)


def test_symbolic_c_is_never_sampled_as_zero():
    # c is needed exactly when f depends on c or conj(c), for fields and ledger alike
    sol = catalog("s1", c="symbolic")
    g = square_grid(2.0, 16)
    for sample in (lambda: sol.U_field(g, 0.3), lambda: sol.V_field(g, 0.3),
                   lambda: singular_times(sol)):
        with pytest.raises(InvalidDatumError, match="numeric"):
            sample()
    free = exact_solution(heat_extend(Z * Z + 1))           # no c: nothing to supply
    assert free.U_field(g, 0.3).values.shape == (16, 16)
    assert singular_times(free) == []
    given = exact_solution(heat_extend(Z * Z + C), c=2.0)   # any number is a numeric c
    assert np.array_equal(given.U_field(g, 0.3).values, catalog("s1", c=2).U_field(g, 0.3).values)


def radial_limit(sol: ExactSolution, t_sing: float):
    """The oracle for the ledger's closed-form coefficient:
    lim_{r->0} U(r e^{i phi}, t) e^{-2 i phi}, Richardson-extrapolated in r^2 at two
    radii over 8 angles.  Returns (mean over the angles, largest deviation from it)."""
    phis = np.arange(8) * (2 * np.pi / 8) + 0.123
    r1, r2 = 1e-3, 5e-4
    ests = [sol.U.eval(z=r * np.exp(1j * phis), t=t_sing, c=sol.c) * np.exp(-2j * phis)
            for r in (r1, r2)]
    w = (r1 / r2) ** 2
    extr = (w * ests[1] - ests[0]) / (w - 1.0)
    coeff = complex(np.mean(extr))
    return coeff, float(np.max(np.abs(extr - coeff)))


def test_radial_limit_matches_angular_form():
    coeff, spread = radial_limit(catalog("s1", c=1j), -0.5)
    assert abs(coeff - 1j) < 1e-6
    assert spread < 1e-6


@pytest.mark.parametrize("sol, n_events", [
    (catalog("s1", c=1j), 1), (catalog("s1", c=-0.6j), 1), (catalog("s2", c=12.0), 2),
    # a1 != 0: the 1 + |a1|^2 denominator, and an O(r) term the r^2 step leaves behind
    (exact_solution(heat_extend(Z * Z + 0.7 * Z + 1j)), 1),
    (exact_solution(heat_extend(0.3 * Z**3 + Z * Z + 0.7 * Z + 1j)), 1)],
    ids=["s1-c=i", "s1-c=-0.6i", "s2-c=12", "heat-a1=0.7", "heat-cubic"])
def test_singular_coefficient_is_the_radial_limit(sol, n_events):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = singular_times(sol)
    assert len(ev) == n_events
    for e in ev:
        coeff, _ = radial_limit(sol, e.t_sing)
        assert abs(e.coefficient - coeff) <= 1e-6 * abs(coeff)


def test_singular_times_refuses_an_f_of_zbar():
    f = Z * Z + 2j * T + 1j + 0.1 * ZBAR       # f_t = i f_zz, but f depends on zbar
    with pytest.raises(InvalidDatumError, match="zbar"):
        singular_times(exact_solution(f))


def test_singular_times_refuses_an_f_of_zbar_before_seeking_a_root():
    # f(0, t) = 2 i t + 1 has no real root, so only the zbar rule, run before any root
    # is sought, refuses this f
    f = Z * Z + 2j * T + 1 + 0.1 * ZBAR        # f_t = i f_zz, but f depends on zbar
    with pytest.raises(InvalidDatumError, match="zbar"):
        singular_times(exact_solution(f))
    assert singular_times(exact_solution(Z * Z + 2j * T + 1)) == []


def test_den_positive_away_from_origin():
    # den = |z|^2 + |f|^2 > 0 for z != 0 (sum of squared moduli)
    sol = catalog("s1", c=1j)
    g = square_grid(3.0, 64)
    den = sol.U.den.eval(z=g.zmesh(), t=-0.5, c=1j)
    zm = g.zmesh()
    assert np.all(den.real[np.abs(zm) > 1e-12] > 0)


def _field_oracle(sol, grid, t, v_field):
    """The whole-mesh form of the samplers: f and N = i (z f' - f) (U) or f, f' and f''
    (V) by BiPoly.eval on the z-mesh; rho = x^2 + y^2 + (Re f)^2 + (Im f)^2, its exact
    zeros masked and read as 0; 1/rho applied through the float view; the operations
    in the samplers' order."""
    zm = grid.zmesh()
    kw = {"t": t, "c": sol.c}
    f = sol.f.eval(z=zm, **kw)
    rho = zm.real * zm.real + zm.imag * zm.imag + f.real * f.real + f.imag * f.imag
    bad = rho == 0
    rho[bad] = 1.0
    inv = np.repeat(1.0 / rho, 2, axis=1)

    def over_rho(w):
        return (w.view(np.float64) * inv).view(np.complex128)

    if v_field:
        fp = sol.f.wirtinger("z")
        fb = np.conj(f)
        a = over_rho(fp.wirtinger("z").eval(z=zm, **kw) * fb)
        b = over_rho(fp.eval(z=zm, **kw) * fb + np.conj(zm))
        values = (a - b * b) * 2
    else:
        values = over_rho(sol.U.num.eval(z=zm, **kw))
    if not bad.any():
        return values, None
    values[bad] = 0.0
    return values, bad


def _assert_fields_match_oracle(sol, g, t):
    for v_field, field in ((False, sol.U_field(g, t)), (True, sol.V_field(g, t))):
        values, mask = _field_oracle(sol, g, t, v_field)
        assert np.array_equal(field.values.view(np.uint64), values.view(np.uint64))
        assert (field.mask is None) == (mask is None)
        assert mask is None or np.array_equal(field.mask, mask)


@pytest.mark.parametrize("name, c, t, bounds, nx, ny, periodic, partial", [
    ("s1", 0.7 - 0.4j, 0.2, (-1.3, 2.1, -0.4, 0.9), 397, 61, False, True),
    ("s1", 1.1 + 0.3j, 0.45, (-30, 30, -30, 30), 769, 769, False, True),
    ("s2", 9 + 1j, -0.3, (-2, 2, -1, 1), None, 5, False, False),       # nx > _BLOCK
    ("s1", 1.0, 0.1, (-30, 30, -30, 30), 256, 256, True, False),       # the evolver grid
], ids=["off-centre", "769", "wide", "periodic-256"])
def test_fields_bitwise_equal_to_full_mesh_oracle(name, c, t, bounds, nx, ny, periodic,
                                                  partial):
    g = make_grid(bounds, (nx or _BLOCK + 9, ny), periodic)
    rows = max(1, _BLOCK // g.nx)          # rows per block of the row walk
    assert g.ny > rows and bool(g.ny % rows) == partial    # several blocks
    _assert_fields_match_oracle(catalog(name, c=c), g, t)


@pytest.mark.parametrize("name, c, t", [("s1", 0.8j, -0.4), ("s2", 12.0, 1.0),
                                        ("s2", 12.0, -1.0)])
def test_singular_fields_bitwise_equal_to_oracle_past_the_first_block(name, c, t):
    g = make_grid((-3, 3, -3, 3), (257, 129))
    assert g.node_z(128, 64) == 0 and 64 >= 2 * (_BLOCK // 257)
    sol = catalog(name, c=c)
    _assert_fields_match_oracle(sol, g, t)
    U = sol.U_field(g, t)
    assert U.mask is not None and U.mask.sum() == 1 and U.mask[64, 128]


def _walked(monkeypatch, sample, grid, t):
    """sample(grid, t), and the stop row of each row walk it ran."""
    stops = []

    def recording(nx, stop, start=0):
        stops.append(stop)
        return row_blocks(nx, stop, start)
    monkeypatch.setattr(dsii, "row_blocks", recording)
    return sample(grid, t), stops


@pytest.mark.parametrize("sol, t, bounds, n, half", [
    (catalog("s1", c=0.7 - 0.4j), 0.3, (-7.5, 7.5, -7.5, 7.5), 16, True),
    (catalog("s2", c=9 + 1j), -0.2, (-7.5, 7.5, -7.5, 7.5), 16, True),
    (catalog("s2", c=12.0), 1.0, (-2, 2, -2, 2), 33, True),            # z = 0 masked
    # U = -i / rho: every node has a zero part, sampled again in two blocks of nodes
    (exact_solution(heat_extend(BiPoly.const(1.0))), 0.3, (-4, 4, -4, 4), 129, True),
    (exact_solution(heat_extend(0.3 * Z**3 + Z * Z + 0.7 * Z + 1j)), 0.2, (-3, 3, -3, 3), 33,
     False),                                                          # odd powers of z
    (catalog("s1", c=0.7 - 0.4j), 0.3, (-3, 2, -3, 3), 33, False),    # symmetric in y only
], ids=["s1-even-n", "s2-even-n", "s2-singular", "constant-f", "odd-f", "y-symmetric-only"])
def test_half_walk_is_bitwise_the_direct_walk(monkeypatch, sol, t, bounds, n, half):
    # an even f on point-symmetric nodes walks ceil(ny/2) rows and reflects the rest;
    # anything else walks every row.  Either way the fields are the oracle's to the bit
    g = make_grid(bounds, (n, n))
    for v_field, sample in ((False, sol.U_field), (True, sol.V_field)):
        field, stops = _walked(monkeypatch, sample, g, t)
        assert stops == [(n + 1) // 2 if half else n]
        values, mask = _field_oracle(sol, g, t, v_field)
        assert np.array_equal(field.values.view(np.uint64), values.view(np.uint64))
        assert (field.mask is None) == (mask is None)
        assert mask is None or np.array_equal(field.mask, mask)


def test_half_walk_samples_the_mirror_of_a_zero_part_directly(monkeypatch):
    # s1 with c = -1 at t = 0: V is real on the axis x = 0, where the direct walk
    # reads Im V = +0 at some (0, y) and -0 at (0, -y).  The values are point-symmetric,
    # their bits are not, so a reflection alone would write the wrong zeros
    sol, g = catalog("s1", c=-1.0), square_grid(3.0, 33)
    values, _ = _field_oracle(sol, g, 0.0, True)
    mirror = values[::-1, ::-1].copy()
    assert np.array_equal(values, mirror)
    assert not np.array_equal(values.view(np.uint64), mirror.view(np.uint64))
    field, stops = _walked(monkeypatch, sol.V_field, g, 0.0)
    assert stops == [17]
    assert np.array_equal(field.values.view(np.uint64), values.view(np.uint64))


@pytest.mark.parametrize("name, c, t, half_width, n", [
    ("s1", 0.9 - 0.3j, 0.37, 30.0, 769), ("s1", 0.8j, -0.4, 30.0, 769),
    ("s2", 9 + 2j, 0.2, 10.0, 1025), ("s2", 12.0, 1.0, 10.0, 1025),
    ("s1", 0.9 - 0.3j, 0.37, 3.0, 257)],
    ids=["s1-769", "s1-769-singular", "s2-1025", "s2-1025-singular", "s1-257"])
def test_fields_workload_grids_take_the_half_walk(monkeypatch, name, c, t, half_width, n):
    # perfbench's fields grids: no value tells the half walk from the full one
    sol = catalog(name, c=c)
    for sample in (sol.U_field, sol.V_field):
        _, stops = _walked(monkeypatch, sample, square_grid(half_width, n), t)
        assert stops == [(n + 1) // 2]


def test_masked_node_reads_zero_where_the_numerator_does_not_vanish():
    # on_grid's rule: a node where the denominator is exactly 0 reads 0, whatever the
    # numerator holds there, and the other nodes are num / den
    g = make_grid((-3, 3, -3, 3), (257, 129))
    rf = RationalFn(1 + Z, Z * ZBAR)
    U = rf.on_grid(g, 0.0)
    assert U.mask.sum() == 1 and U.mask[64, 128] and U.values[64, 128] == 0
    zm = g.zmesh()
    den = rf.den.eval(z=zm)
    den[64, 128] = 1.0
    values = rf.num.eval(z=zm) / den
    values[64, 128] = 0.0
    assert np.array_equal(U.values.view(np.uint64), values.view(np.uint64))


def test_field_peak_memory_stays_near_the_output():
    # no full-size mesh, numerator or denominator beside the output
    sol, g = catalog("s2", c=12), square_grid(10.0, 1025)
    for sample, t in ((sol.U_field, 0.3), (sol.U_field, 1.0), (sol.V_field, 0.3),
                      (sol.V_field, 1.0)):
        tracemalloc.start()
        try:
            F = sample(g, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * F.values.nbytes
        del F


def _mp_fields(name, x, y, t, c):
    """U = i (z f' - f) / rho and V = 2 (f'' conj(f) / rho - ((zbar + f' conj(f)) / rho)^2)
    in 40-digit mpmath at the float inputs, from f's closed form."""
    import mpmath as mp
    with mp.workdps(40):
        z, t, c = mp.mpc(x, y), mp.mpf(t), mp.mpc(c)
        if name == "s1":
            f, fp, fpp = z**2 + 2j * t + c, 2 * z, mp.mpc(2)
        else:
            f, fp, fpp = z**4 + 12j * t * z**2 - 12 * t**2 + c, 4 * z**3 + 24j * t * z, \
                12 * z**2 + 24j * t
        rho = abs(z)**2 + abs(f)**2
        U = 1j * (z * fp - f) / rho
        V = 2 * (fpp * mp.conj(f) / rho - ((mp.conj(z) + fp * mp.conj(f)) / rho) ** 2)
        return complex(U), complex(V)


@pytest.mark.parametrize("name, c, t", [("s1", 1j, -0.49), ("s1", 1j, -0.51),
                                        ("s2", 12.0, 0.99), ("s2", 12.0, 1.01)])
def test_fields_near_a_singular_instant_hold_every_digit(name, c, t):
    # t is 0.01 from t_s, on either side; at the 9 nodes nearest z = 0 the expanded
    # numerators and rho, rho^2 cancelled to relative errors of 1e-10 to 3e-9 in V
    sol, g = catalog(name, c=c), square_grid(5.0, 513)
    U, V = sol.U_field(g, t).values, sol.V_field(g, t).values
    xs, ys = g.xs(), g.ys()
    for iy in range(255, 258):
        for ix in range(255, 258):
            u, v = _mp_fields(name, xs[ix], ys[iy], t, c)
            assert abs(U[iy, ix] - u) <= 1e-14 * abs(u)
            assert abs(V[iy, ix] - v) <= 1e-14 * abs(v)


def test_fields_refuse_an_f_of_zbar():
    sol = exact_solution(Z * Z + 2j * T + 1j + 0.1 * ZBAR)    # f_t = i f_zz, f of zbar
    g = square_grid(2.0, 16)
    for sample in (sol.U_field, sol.V_field):
        with pytest.raises(InvalidDatumError, match="zbar"):
            sample(g, 0.1)


def _l2_norm_sq_oracle(U, require_decay=True):
    """The whole-grid form: full-size |U|^2, patched copy, its peak and boundary ring
    (over the unmasked nodes, as the masked ones hold their patch), quadrature_sum
    over the full box and over a sub-box copy."""
    g = U.grid
    u2 = U.values.real**2 + U.values.imag**2
    if U.mask is not None and U.mask.any():
        u2 = neighbor_mean_patched(u2, U.mask)
    ring = np.sqrt(np.concatenate([u2[0, :], u2[-1, :], u2[:, 0], u2[:, -1]]))
    xs, ys = g.xs(), g.ys()
    rb2 = np.concatenate([xs**2 + ys[0]**2, xs**2 + ys[-1]**2,
                          xs[0]**2 + ys**2, xs[-1]**2 + ys**2])
    peak = float(np.sqrt(np.max(u2)))
    raw = float(quadrature_sum(u2, g.hx, g.hy, g.periodic_x, g.periodic_y))
    Cdec = float(np.max(ring * rb2))
    R1 = min(g.x_max, -g.x_min, g.y_max, -g.y_min)
    if R1 <= 0:                         # z = 0 not inside the box: no sub-box, no decay
        if require_decay:
            raise DecayError("z = 0 is not inside the box")
        return NormResult(raw, raw, np.inf, False)
    decay_ok = peak == 0.0 or float(np.max(ring)) <= peak / 10.0
    if require_decay and not decay_ok:
        raise DecayError("no O(1/r^2) boundary decay")
    R2 = 0.7 * R1
    selx = np.abs(xs) <= R2
    sely = np.abs(ys) <= R2
    if selx.sum() >= 8 and sely.sum() >= 8:
        I1, I2 = raw, float(quadrature_sum(u2[np.ix_(sely, selx)], g.hx, g.hy))
        value = (I1 * R1**2 - I2 * R2**2) / (R1**2 - R2**2)
    else:
        value = raw
    return NormResult(float(value), float(raw), float(np.pi * Cdec**2 / R1**2), bool(decay_ok))


def _decay_error_or_result(norm, U):
    try:
        return norm(U)
    except DecayError:
        return None


def _assert_norm_matches_oracle(U):
    # only the summation order differs: value and raw to 1e-14, the boundary
    # figures bitwise, and DecayError on the same fields
    got, ref = _decay_error_or_result(l2_norm_sq, U), _decay_error_or_result(_l2_norm_sq_oracle, U)
    assert (got is None) == (ref is None)
    got, ref = l2_norm_sq(U, require_decay=False), _l2_norm_sq_oracle(U, require_decay=False)
    assert got.value == pytest.approx(ref.value, rel=1e-14, abs=0)
    assert got.raw == pytest.approx(ref.raw, rel=1e-14, abs=0)
    assert got.tail_bound == ref.tail_bound and got.decay_ok == ref.decay_ok
    return got


@pytest.mark.parametrize("name, c, t, bounds, nx, ny, periodic, masked", [
    ("s1", 1.0, 0.5, (-30, 30, -30, 30), 769, 769, False, None),
    ("s2", 12.0, 0.3, (-10, 10, -10, 10), 1025, 1025, False, None),
    ("s1", 1j, -0.5, (-30, 30, -30, 30), 769, 769, False, (384, 384)),
    ("s2", 12.0, 1.0, (-10, 10, -10, 10), 1025, 1025, False, (512, 512)),
    ("s2", 12.0, -1.0, (-10, 10, -10, 10), 1025, 1025, False, (512, 512)),
    ("s1", 1.0, 0.1, (-30, 30, -30, 30), 256, 256, True, None),
    ("s2", 9 + 1j, -0.3, (-2, 2, -2, 2), None, 21, False, None),           # nx > _BLOCK
    ("s1", 1j, -0.5, (-3, 3, -3, 3), 257, 125, False, (62, 128)),         # first row of a block
    ("s1", 1j, -0.5, (-3, 3, -3, 3), 257, 123, False, (61, 128)),         # last row of a block
    ("s1", 1j, -0.5, (0, 3, -3, 3), 129, 129, False, (64, 0)),            # on the left edge
    ("s2", 12.0, 1.0, (0, 2, 0, 2), 65, 65, False, (0, 0)),               # in a corner
    ("s1", 1.0, 0.5, (-3, 3, -3, 3), 10, 10, False, None),              # no 8-node sub-box
    ("s1", 1.0, 0.5, (-3, 3, -3, 3), 128, 10, False, None),             # none along y
    ("s1", 1.0, 0.5, (-5, -1, -3, 3), 64, 64, False, None),             # R1 <= 0
], ids=["s1-769", "s2-1025", "s1-singular", "s2-singular+", "s2-singular-", "periodic-256",
        "wide", "block-first-row", "block-last-row", "edge", "corner", "small-10x10",
        "flat-128x10", "negative-x"])
def test_l2_norm_matches_whole_grid_oracle(name, c, t, bounds, nx, ny, periodic, masked):
    g = make_grid(bounds, (nx or _BLOCK + 9, ny), periodic)
    U = catalog(name, c=c).U_field(g, t)
    assert (U.mask is None) == (masked is None)
    assert masked is None or (U.mask.sum() == 1 and U.mask[masked])
    _assert_norm_matches_oracle(U)


@pytest.mark.parametrize("values", [
    lambda z: np.ones_like(z),                              # no decay
    lambda z: np.zeros_like(z),                             # zero peak
    lambda z: 1 / (1 + np.abs(z) ** 2),                     # O(1/r^2)
    lambda z: np.exp(-np.abs(z) ** 2) + 0.2 * np.exp(-np.abs(z - 4.5) ** 2),  # a bump at the edge
], ids=["constant", "zero", "inverse-square", "edge-bump"])
def test_l2_norm_raises_decay_error_where_the_oracle_does(values):
    for g in (square_grid(5.0, 64), make_grid((-4, 4, -3, 3), (97, 41), (True, False))):
        _assert_norm_matches_oracle(field_from_function(g, values))


def test_l2_norm_peak_memory_stays_far_below_the_field():
    # |U|^2 lives in row blocks: no full-size real array and no sub-box copy
    sol, g = catalog("s2", c=12), square_grid(10.0, 1025)
    for t in (0.3, 1.0):
        U = sol.U_field(g, t)
        tracemalloc.start()
        try:
            l2_norm_sq(U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * U.values.nbytes
        del U


def test_l2_norm_rejects_a_non_finite_unmasked_node():
    g = square_grid(30.0, 257)
    U = catalog("s1", c=1j).U_field(g, -0.5)
    assert U.mask is not None and U.mask.sum() == 1
    vals = U.values.copy()
    vals[3, 5], vals[200, 100] = np.nan, np.inf + 1j          # two rows, two blocks
    for require_decay in (True, False):
        with pytest.raises(MaskError, match=r"not finite on 2 unmasked node\(s\)"):
            l2_norm_sq(ComplexField(g, vals, U.mask), require_decay=require_decay)
    # a masked node is patched from its neighbours whatever it holds
    vals = U.values.copy()
    vals[U.mask] = np.nan
    assert np.isfinite(_assert_norm_matches_oracle(ComplexField(g, vals, U.mask)).value)


_NAN, _INF = float("nan"), float("inf")
_G8 = make_grid((-3, 3, -3, 3), (8, 8))


@pytest.mark.parametrize("build, error", [
    (lambda: make_grid((-3, _INF, -3, 3), (8, 8)), GridConfigError),
    (lambda: make_grid((_NAN, 3, -3, 3), (8, 8)), GridConfigError),
    (lambda: DsiiEvolver(_G8, _NAN), ValueError),
    (lambda: DsiiEvolver(_G8, _INF), ValueError),
    (lambda: OzawaData(_NAN, -1), InvalidDatumError),
    (lambda: OzawaData(1, -_INF), InvalidDatumError),
    (lambda: catalog("s1", c=_NAN).U_field(_G8, 0.0), InvalidDatumError),
    (lambda: catalog("s1", c=_INF).V_field(_G8, 0.0), InvalidDatumError),
    (lambda: catalog("s1", c=1 + _INF * 1j).U_field(_G8, 0.0), InvalidDatumError),
    (lambda: catalog("s1").U.on_grid(_G8, 0.0, _NAN), InvalidDatumError),
    (lambda: catalog("s1").U_field(_G8, _NAN), InvalidDatumError),
    (lambda: singular_times(catalog("s2", c=_NAN)), InvalidDatumError),
], ids=["x_max-inf", "x_min-nan", "dt-nan", "dt-inf", "ozawa-a-nan", "ozawa-b-inf", "c-nan",
        "c-inf", "c-im-inf", "on_grid-c-nan", "t-nan", "singular_times-c-nan"])
def test_library_refuses_non_finite_numbers(build, error):
    # a grid bound, a time step, a datum, t or c that is nan or infinite is refused by name
    with pytest.raises(error, match="finite"):
        build()


@pytest.mark.parametrize("c, bounds", [(1e300, (-3, 3, -3, 3)), (1e200, (-3, 3, -3, 3)),
                                       (1.0, (-2e77, 2e77, 0, 2e77))],
                         ids=["c-1e300", "c-1e200", "last-row"])
@pytest.mark.parametrize("field", ["U_field", "V_field"])
def test_an_overflowing_rho_is_refused_not_sampled_as_zero(c, bounds, field, monkeypatch):
    # finite data whose rho = |z|^2 + |f|^2 overflows on the grid would read U = 0 and
    # V = 0 there; on the last grid only the far corners of the last row overflow, so
    # at one row a block only the last block meets it
    g = make_grid(bounds, (16, 16))
    for block in (_BLOCK, g.nx):
        monkeypatch.setattr("spinsurf.grid._BLOCK", block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDatumError, match=r"rho = \|z\|\^2 \+ \|f\|\^2 is not finite"):
                getattr(catalog("s1", c=c), field)(g, 0.0)


def _norm_fields(r: NormResult) -> tuple:
    return (r.value, r.raw, r.tail_bound, r.decay_ok)


def test_l2_norm_peak_ignores_what_a_masked_node_holds():
    # the peak is taken after patching: a NaN or an overflowing |U|^2 on the masked
    # node neither raises DecayError nor clears decay_ok
    g = square_grid(30.0, 257)
    U = catalog("s1", c=1j).U_field(g, -0.5)
    assert U.mask is not None and U.mask.sum() == 1
    for junk in (np.nan, 1e300):
        vals = U.values.copy()
        vals[U.mask] = junk
        for require_decay in (True, False):
            with np.errstate(over="ignore"):                    # |1e300|^2 overflows
                got = l2_norm_sq(ComplexField(g, vals, U.mask), require_decay=require_decay)
            want = l2_norm_sq(U, require_decay=require_decay)
            assert _norm_fields(got) == _norm_fields(want) and got.decay_ok


@pytest.mark.parametrize("value", [1e-170, 0.0])
def test_a_field_whose_square_underflows_is_checked_for_decay(value):
    # |U|^2 = 1e-340 underflows to 0: the quadrature reads the peak and ring again from
    # U scaled by a power of 2, so the undecayed constant field fails the decay check
    # and willmore warns of truncation; a zero field passes and does not warn
    U = constant_field(square_grid(3.0, 32), value)
    got = l2_norm_sq(U, require_decay=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        willmore(U)
    if value:
        assert not got.decay_ok
        assert [str(w.message).split(";")[0] for w in caught] == ["|U| at open boundary is 1e-170"]
        with pytest.raises(DecayError, match="boundary max 1e-170 vs peak 1e-170"):
            l2_norm_sq(U)
    else:
        assert got.decay_ok and not caught


@pytest.mark.parametrize("at", [(64, 0), (0, 0)], ids=["edge", "corner"])
def test_l2_norm_ring_ignores_what_a_masked_edge_node_holds(at):
    # the boundary ring reads the neighbour-mean patch of a masked node, as the
    # interior pass does, so tail_bound and decay_ok do not see the junk.  A box
    # with z = 0, the sampler's one masked node, on its edge has no tail bound
    # (R1 = 0), so the edge node is masked by hand, beside the centre's mask
    g = square_grid(3.0, 129)
    U = catalog("s1", c=1j).U_field(g, -0.5)
    mask = U.mask.copy()
    mask[at] = True
    clean = _assert_norm_matches_oracle(ComplexField(g, U.values, mask))
    assert np.isfinite(clean.tail_bound)
    for junk in (np.nan, 1e300):
        vals = U.values.copy()
        vals[mask] = junk
        with np.errstate(over="ignore"):
            got = l2_norm_sq(ComplexField(g, vals, mask), require_decay=False)
        assert _norm_fields(got) == _norm_fields(clean)


@pytest.mark.parametrize("bounds", [(1, 3, 1, 3), (0.5, 2, -1, 1), (-1, 1, 0, 2)],
                         ids=["beside-the-origin", "origin-outside-left", "origin-on-edge"])
def test_l2_norm_extrapolates_only_about_an_origin_inside_the_box(bounds):
    # R1 = min(x_max, -x_min, y_max, -y_min) <= 0: a sub-box about z = 0 does not fit,
    # so the value is the raw box integral, with no tail bound and no decay claim
    # (the Richardson step used to read a corner of the box, and R1 = 0 divided by 0)
    U = catalog("s1", c=1.0).U_field(make_grid(bounds, (65, 65)), 0.1)
    got = _assert_norm_matches_oracle(U)
    assert got.value == got.raw > 0 and got.tail_bound == np.inf and not got.decay_ok
    assert got.raw == pytest.approx(quadrature_sum(np.abs(U.values) ** 2, U.grid.hx, U.grid.hy),
                                    rel=1e-14)
    with pytest.raises(DecayError, match="z = 0 is not inside the box"):
        l2_norm_sq(U)
