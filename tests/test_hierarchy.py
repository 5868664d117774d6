import warnings

import numpy as np
import pytest

from spinsurf import (ComplexField, Potential1D, clifford_potential, make_grid,
                      mkdv_reduction_identity, mkdv_rhs_1d, mkdv_soliton,
                      mnv_residual, mnv_rhs, soliton_potential, square_grid,
                      v_from_constraint_mnv, willmore_bound_check,
                      wirtinger_derivative)
from spinsurf import hierarchy, verify, willmore
from spinsurf.grid import MaskError
from test_evolve import spectral_wirtinger


def _zero_field(g):
    return ComplexField(g, np.zeros((g.ny, g.nx), complex))


def _constraint_max(U, V, interior=0):
    """max |V_zb - (U^2)_z|, off an interior margin."""
    r = np.abs(wirtinger_derivative(V, "zbar").values - wirtinger_derivative(U * U, "z").values)
    return float(np.max(r[interior:r.shape[0] - interior, interior:r.shape[1] - interior]))


def test_package_exports_of_the_lazy_hierarchy():
    # spinsurf loads hierarchy on first use of one of these names
    import spinsurf
    names = ("Potential1D", "clifford_potential", "mkdv_reduction_identity",
             "mkdv_rhs_1d", "mkdv_soliton", "mnv_residual", "mnv_rhs",
             "soliton_potential", "v_from_constraint_mnv", "willmore_bound_check")
    for name in names:
        assert getattr(spinsurf, name) is getattr(hierarchy, name)
        assert name in dir(spinsurf)
    assert {"catalog", "__version__"} <= set(dir(spinsurf))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        spinsurf.nope


def test_mnv_zero():
    g = square_grid(5.0, 32, periodic=True)
    z = _zero_field(g)
    V = v_from_constraint_mnv(z)
    assert mnv_residual([z, z, z], 1e-3, V) == 0.0
    assert _constraint_max(z, V) == 0.0


def test_mnv_equals_mkdv_on_x_only_fields():
    # 2-D mNV right-hand side with V = U^2 on x-only data equals the mKdV
    # right-hand side to scheme accuracy
    g = make_grid((-12, 12, 0, 2 * np.pi), (801, 8), periodicity=(False, True))
    x = g.zmesh().real
    u = 1 / np.cosh(x)
    U = ComplexField(g, u.astype(complex))
    V = ComplexField(g, (u ** 2).astype(complex))
    rhs2d = mnv_rhs(U, V).values[3, 8:-8].real
    rhs1d = mkdv_rhs_1d(u[3], g.hx)[8:-8]
    assert np.max(np.abs(rhs2d - rhs1d)) < 5e-4


@pytest.mark.parametrize("profile", ["sech", "soliton", "bump"])
def test_mkdv_reduction_identity_order(profile):
    fns = {"sech": lambda x: 1 / np.cosh(x),
           "soliton": lambda x: mkdv_soliton(x),
           "bump": lambda x: 0.8 * np.exp(-0.5 * x * x)}
    res = {}
    for n in (801, 1601):
        x = np.linspace(-12, 12, n)
        res[n] = mkdv_reduction_identity(Potential1D(x, fns[profile](x)))
    assert res[801] / res[1601] >= 3.2
    assert res[1601] < 1e-3


@pytest.mark.parametrize("profile, n, want", [
    ("sech", 801, "0.0004549991536284548"), ("sech", 1601, "0.00011438352919346251"),
    ("soliton", 801, "0.00033744643498914706"), ("soliton", 1601, "8.469580151522493e-05"),
    ("bump", 801, "0.00016881008540625686"), ("bump", 1601, "4.228911028036908e-05"),
])
def test_mkdv_reduction_identity_is_pinned(profile, n, want):
    # the identity's values to the bit: a y-constant field has zero y-differences,
    # so the strip's height does not enter them
    fns = {"sech": lambda x: 1.0 / np.cosh(x), "soliton": mkdv_soliton,
           "bump": lambda x: 0.8 * np.exp(-0.5 * x * x)}
    x = np.linspace(-12.0, 12.0, n)
    assert repr(mkdv_reduction_identity(Potential1D(x, fns[profile](x)))) == want


def test_mkdv_reduction_identity_zero():
    x = np.linspace(-10, 10, 401)
    assert mkdv_reduction_identity(Potential1D(x, np.zeros_like(x))) == 0.0


def test_mnv_soliton_residual_converges():
    dt = 1e-5
    res = {}
    for n in (256, 512):
        g = make_grid((-15, 15, 0, 2 * np.pi), (n, 16), periodicity=(False, True))
        x = g.zmesh().real

        def U_at(t):
            return ComplexField(g, mkdv_soliton(x, t).astype(complex))

        V = ComplexField(g, (mkdv_soliton(x, 0.0) ** 2).astype(complex))
        res[n] = mnv_residual([U_at(-dt), U_at(0.0), U_at(dt)], dt, V=V, interior=4)
        assert _constraint_max(U_at(0.0), V, interior=4) < 1e-2
    assert res[256] / res[512] >= 3.2


def test_constraint_inversions():
    g = make_grid((0, 2 * np.pi, 0, 2 * np.pi), (64, 64), True)
    U = ComplexField(g, np.cos(g.zmesh().real) + 0j)
    V = v_from_constraint_mnv(U)
    lhs = spectral_wirtinger(V, "zbar").values
    rhs = spectral_wirtinger(U * U, "z").values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_constraint_inversion_matches_two_pass_form():
    # one multiplier m_z / m_zb against (U^2)_z formed spectrally and then divided
    # by m_zb = (i kx - ky) / 2, on a non-square grid with every mode occupied
    g = make_grid((-3, 5, -2, 2), (48, 40), True)
    rng = np.random.default_rng(3)
    U = ComplexField(g, rng.normal(size=(40, 48)) + 1j * rng.normal(size=(40, 48)))
    sp = g.spectral
    rhs = spectral_wirtinger(U * U, "z").values
    two_pass = np.fft.ifft2(2.0 * (sp.ikx + sp.ky[:, None]) * sp.lap_inv * np.fft.fft2(rhs))
    V = v_from_constraint_mnv(U).values
    assert np.max(np.abs(V - two_pass)) <= 1e-14 * np.max(np.abs(two_pass))


def test_soliton_willmore_equalities():
    for N in (1, 2, 3):
        chk = willmore_bound_check(soliton_potential(N), N, 4 * np.pi * N * N)
        assert abs(chk["value"] - 4 * np.pi * N * N) <= 1e-6
        assert chk["pass"] is True


@pytest.mark.parametrize("pot, N", [(soliton_potential(1), 1), (soliton_potential(2), 2),
                                    (soliton_potential(3), 3), (clifford_potential(), None)],
                         ids=["soliton-1", "soliton-2", "soliton-3", "clifford"])
def test_willmore_check_value_is_willmore_on_the_strip(pot, N):
    # one Willmore value: the check's W is surface.willmore of the strip field, to the
    # bit, and neither strip warns of truncation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert willmore_bound_check(pot, N, 0.0)["value"] == willmore(pot.strip())


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "u2-overflows"])
@pytest.mark.parametrize("periodic", [False, True])
def test_willmore_check_refuses_a_non_finite_potential(bad, periodic):
    # a U^2 that is not finite at a node, so on each of the strip's 4 rows, is the
    # quadrature's MaskError, a ValueError
    x = np.linspace(-5.0, 5.0, 101)
    u = 1 / np.cosh(x)
    u[37] = bad
    with np.errstate(over="ignore"):
        with pytest.raises(MaskError, match=r"not finite on 4 unmasked node\(s\)"):
            willmore_bound_check(Potential1D(x, u, periodic), None, 0.0)
    assert issubclass(MaskError, ValueError)


def test_willmore_check_refuses_a_potential_whose_integral_overflows():
    # every U^2 is finite, but their sum is not: refused, not a value of inf that passes
    x = np.linspace(-25.0, 25.0, 2001)
    with pytest.raises(MaskError, match=r"the integral of \|U\|\^2 overflows"):
        willmore_bound_check(Potential1D(x, 1e154 / np.cosh(x)), None, 0.0)


def test_clifford_value_vs_quadrature_oracle():
    from scipy.integrate import quad
    s = np.sqrt(2.0)
    oracle, err = quad(lambda x: (np.sin(x) / (2 * s * (np.sin(x) - s))) ** 2,
                       0, 2 * np.pi, epsabs=1e-13)
    chk = willmore_bound_check(clifford_potential(), None, 2 * np.pi ** 2)
    assert chk["value"] == pytest.approx(4 * 2 * np.pi * oracle, rel=1e-10)
    # the Clifford torus is the equality case of Marques-Neves' bound W >= 2 pi^2
    assert chk["value"] == pytest.approx(2 * np.pi ** 2, rel=1e-12)
    assert chk["bound"] == 2 * np.pi ** 2 and chk["pass"] is True


def test_clifford_closed_form_is_the_quadrature():
    # verify's Clifford oracle is the closed form int_0^{2 pi} U^2 dx = pi / 4
    from scipy.integrate import quad

    from spinsurf.verify import suite_willmore
    s = np.sqrt(2.0)
    value, _ = quad(lambda x: (np.sin(x) / (2 * s * (np.sin(x) - s))) ** 2,
                    0, 2 * np.pi, epsabs=1e-13)
    assert value == pytest.approx(np.pi / 4, rel=1e-14)
    rec, = (r for r in suite_willmore() if r.name.startswith("clifford grid vs closed form"))
    assert rec.passed and (rec.lo + rec.hi) / 2 == pytest.approx(8 * np.pi * value, rel=1e-14)
    assert rec.hi - rec.lo == pytest.approx(2e-10 * 8 * np.pi * value, rel=1e-4)


def test_clifford_potential_smooth():
    pot = clifford_potential()
    # denominator bounded away from zero by sqrt(2) - 1
    s = np.sqrt(2.0)
    assert np.min(np.abs(np.sin(pot.x) - s)) >= s - 1
    assert np.all(np.isfinite(pot.u))


def test_willmore_check_bound_flag():
    # a potential strictly below the N=2 bound fails the check
    chk = willmore_bound_check(soliton_potential(1), 2, 16 * np.pi)
    assert list(chk) == ["value", "bound", "pass", "N"] and chk["N"] == 2
    assert chk["pass"] is False
    assert chk["bound"] == 16 * np.pi


def test_willmore_check_torus_bound_can_fail():
    # the Clifford potential meets 2 pi^2 within the 1e-9 slack; 0.999 of it, whose W
    # is 0.998 of 2 pi^2, does not (the check used to compare it with 0)
    pot = clifford_potential()
    assert willmore_bound_check(pot, None, 2 * np.pi ** 2)["pass"] is True
    low = willmore_bound_check(Potential1D(pot.x, 0.999 * pot.u, periodic=True), None,
                               2 * np.pi ** 2)
    assert low["pass"] is False and low["value"] < 0.999 * low["bound"]


def test_potential1d_validation():
    with pytest.raises(ValueError):
        Potential1D(np.arange(4.0), np.arange(5.0))


def test_mkdv_soliton_is_soliton_potential_at_t0():
    pot = soliton_potential(1)
    assert np.max(np.abs(mkdv_soliton(pot.x) - pot.u)) < 1e-12


def test_strip_grid_shape():
    # the x nodes times [0, 2 pi) strip of the sphere-bound checks: 4 rows, periodic
    # in y, and in x for a periodic potential, whose x range ends a step past its nodes
    for pot in (soliton_potential(1), clifford_potential()):
        U = pot.strip()
        g = U.grid
        assert (g.nx, g.ny, g.periodic_x, g.periodic_y) == (pot.x.size, 4, pot.periodic, True)
        assert np.array_equal(g.xs(), pot.x) and (g.y_min, g.y_max) == (0.0, 2 * np.pi)
        assert np.array_equal(U.values, np.tile(pot.u, (4, 1))) and U.mask is None
    assert clifford_potential().strip().grid.x_max == 2 * np.pi


def test_criterion_9_rejects_a_sign_flipped_mnv_rhs(monkeypatch):
    # the reduction suite runs the exported mnv_rhs, so an error there fails it
    def flipped(U, V):           # mnv_rhs with the sign of both 3 U_z V terms flipped
        d, Vb = wirtinger_derivative, V.conj()
        return (hierarchy._dz3(U, "z") - 3 * d(U, "z") * V + 1.5 * U * d(V, "z")
                + hierarchy._dz3(U, "zbar") - 3 * d(U, "zbar") * Vb + 1.5 * U * d(Vb, "zbar"))

    assert all(r.passed for r in verify.suite_reduction())
    monkeypatch.setattr(hierarchy, "mnv_rhs", flipped)
    results = verify.suite_reduction()
    # every check but the constraint solve's, which reads no mnv_rhs
    assert len(results) == 9
    assert [r.passed for r in results] == [False] * 8 + [True]


def test_exact_soliton_residual_rejects_a_reversed_clock(monkeypatch):
    # the soliton run backwards: its stencil's U_t has the wrong sign
    soliton = hierarchy.mkdv_soliton
    monkeypatch.setattr(verify, "mkdv_soliton", lambda x, t=0.0: soliton(x, -t))
    failed = {r.name: r.value for r in verify.suite_reduction() if not r.passed}
    assert failed == pytest.approx({"mNV residual O(h^2) [exact mKdV soliton]": 1.0,
                                    "mNV residual at nx=1600 [exact mKdV soliton]": 0.125},
                                   rel=1e-2)
