"""Named verification suites: each check evaluates a measured value against a
target at a stated tolerance.  The acceptance criteria of the package are the
union of these suites at their reference scales; the test suite and the CLI
both drive the functions below.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dirac import SpinorField, dirac_residual_norm
from .dsii import catalog, dsii_exact_identity_holds, l2_norm_sq, singular_times
from .evolve import evolve, grid_norm_sq
from .exactpoly import C, T, Z, heat_extend, poly_equal
from .grid import constant_field, field_from_function, make_grid, square_grid
from .hierarchy import (clifford_potential, mkdv_reduction_identity,
                        mkdv_soliton, Potential1D, soliton_potential,
                        willmore_bound_check)
from .moutard import (MoutardTransform, heat_datum_fields, heat_smatrix_values,
                      moutard_exact)
from .surface import (discrete_mean_curvature, gauss_map, integrate_surface_r3,
                      integrate_surface_r4, invert_surface, measured_e2alpha,
                      smatrix_to_surface, spinor_metric)

TWO_PI = 2 * np.pi


@dataclass
class CheckResult:
    name: str
    value: float
    target: float
    tol: float
    passed: bool
    detail: str = ""
    runtime_s: float = 0.0

    def __post_init__(self):
        # plain Python types, whatever numpy scalars the checks hand in, so that
        # as_dict() always serialises
        self.value, self.target, self.tol = float(self.value), float(self.target), float(self.tol)
        self.passed = bool(self.passed)

    def as_dict(self):
        return {"name": self.name, "value": self.value, "target": self.target,
                "tol": self.tol, "pass": self.passed, "detail": self.detail,
                "runtime_s": round(self.runtime_s, 3)}

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"[{flag}] {self.name}: value={self.value:.6g} "
                f"target={self.target:.6g} tol={self.tol:.2g} ({self.runtime_s:.2f}s)")


def _timed(fn):
    def wrapper(*a, **kw):
        t0 = time.perf_counter()
        out = fn(*a, **kw)
        dt = time.perf_counter() - t0
        for r in out:
            if r.runtime_s == 0.0:
                r.runtime_s = dt / max(len(out), 1)
        return out
    return wrapper


def _rel_check(name, value, target, tol, detail="") -> CheckResult:
    err = abs(value - target) / max(abs(target), 1e-300)
    return CheckResult(name, value, target, tol, err <= tol, detail)


def _abs_check(name, value, tol, detail="") -> CheckResult:
    return CheckResult(name, value, 0.0, tol, abs(value) <= tol, detail)


# ---------------------------------------------------------------------------
# criterion 1: exact DSII identity


@_timed
def suite_symbolic() -> list[CheckResult]:
    out = []
    t0 = time.perf_counter()
    for name in ("s1", "s2"):
        sol = catalog(name, c="symbolic")
        ok = dsii_exact_identity_holds(sol)
        out.append(CheckResult(f"symbolic DSII identity ({name}, symbolic c)",
                               1.0 if ok else 0.0, 1.0, 0.0, ok))
    # heat extensions match the closed forms
    f1 = heat_extend(Z * Z + C)
    f2 = heat_extend(Z ** 4 + C)
    ref1 = Z * Z + 2j * T + C
    ref2 = Z ** 4 + 12j * (T * Z * Z) - 12 * (T * T) + C
    out.append(CheckResult("heat_extend quadratic datum", 1.0 if poly_equal(f1, ref1) else 0.0,
                           1.0, 0.0, poly_equal(f1, ref1)))
    out.append(CheckResult("heat_extend quartic datum", 1.0 if poly_equal(f2, ref2) else 0.0,
                           1.0, 0.0, poly_equal(f2, ref2)))
    elapsed = time.perf_counter() - t0
    out.append(CheckResult("symbolic suite runtime < 10 s", elapsed, 10.0, 0.0,
                           elapsed < 10.0))
    return out


# ---------------------------------------------------------------------------
# criteria 2-3: norm quantization


@_timed
def suite_norms() -> list[CheckResult]:
    out = []
    g30 = square_grid(30.0, 769)
    s1 = catalog("s1", c=1.0)
    for t in (0.0, 0.5, 1.0):
        nr = l2_norm_sq(s1.U_field(g30, t))
        out.append(_rel_check(f"norm s1 c=1 t={t}", nr.value, TWO_PI, 1e-2))
    s1i = catalog("s1", c=1j)
    nr = l2_norm_sq(s1i.U_field(g30, -0.5))
    out.append(_rel_check("norm s1 c=i t=-1/2 (singular, masked node)",
                          nr.value, np.pi, 1e-2))
    g10 = square_grid(10.0, 1025)
    g10f = square_grid(10.0, 2049)
    s2 = catalog("s2", c=12.0)
    nr = l2_norm_sq(s2.U_field(g10, 0.3))
    out.append(_rel_check("norm s2 c=12 t=0.3 (regular)", nr.value, 4 * np.pi, 1e-2))
    for t in (1.0, -1.0):
        nr = l2_norm_sq(s2.U_field(g10f, t))
        out.append(_rel_check(f"norm s2 c=12 t={t} (singular)", nr.value, 3 * np.pi, 1e-2))
    oz = catalog("ozawa", a=1.0, b=-1.0)
    g40 = square_grid(40.0, 1025)
    nr = l2_norm_sq(oz.U0_field(g40))
    out.append(_rel_check("norm ozawa (1,-1) at t=0", nr.value, TWO_PI, 1e-2))
    return out


# ---------------------------------------------------------------------------
# criterion 4: singularity ledger


@_timed
def suite_singularities() -> list[CheckResult]:
    out = []
    for tau in (1.0, -0.6):
        sol = catalog("s1", c=1j * tau)
        ev = singular_times(sol)
        ok = len(ev) == 1 and abs(ev[0].t_sing - (-tau / 2)) < 1e-12
        out.append(CheckResult(f"singular time s1 c={tau}i", ev[0].t_sing if ev else np.nan,
                               -tau / 2, 1e-12, ok))
        if ev:
            out.append(_abs_check(f"asymptotic coeff s1 c={tau}i (vs i)",
                                  abs(ev[0].coefficient - 1j), 1e-3))
    sol = catalog("s1", c=1.0 + 0.5j)
    out.append(CheckResult("no singular times for non-imaginary c",
                           len(singular_times(sol)), 0.0, 0.0,
                           len(singular_times(sol)) == 0))
    s2 = catalog("s2", c=12.0)
    ev = singular_times(s2)
    ts = sorted(e.t_sing for e in ev)
    ok = len(ts) == 2 and abs(ts[0] + 1.0) < 1e-12 and abs(ts[1] - 1.0) < 1e-12
    out.append(CheckResult("singular times s2 c=12 (+-1)", ts[0] if ts else np.nan,
                           -1.0, 1e-12, ok))
    for e in ev:
        target = -12 * e.t_sing
        out.append(_abs_check(f"asymptotic coeff s2 t={e.t_sing:g} (vs -12t)",
                              abs(e.coefficient - target), 1e-3))
    return out


# ---------------------------------------------------------------------------
# criterion 5: Willmore equalities


@_timed
def suite_willmore() -> list[CheckResult]:
    out = []
    for N in (1, 2, 3):
        chk = willmore_bound_check(soliton_potential(N), N)
        target = 4 * np.pi * N * N
        out.append(CheckResult(f"soliton N={N} Willmore equality", chk.value,
                               target, 1e-6, abs(chk.value - target) <= 1e-6,
                               detail="4 int U^2 = 4 pi N^2 (abs tol)"))
    from scipy.integrate import quad
    s = np.sqrt(2.0)
    oracle, _ = quad(lambda x: (np.sin(x) / (2 * s * (np.sin(x) - s))) ** 2,
                     0.0, 2 * np.pi, epsabs=1e-13)
    chk = willmore_bound_check(clifford_potential(), None)
    out.append(_rel_check("clifford grid vs adaptive quadrature oracle",
                          chk.value, 4 * TWO_PI * oracle, 1e-10))
    out.append(_rel_check("clifford Willmore (reported vs 2 pi^2)", chk.value,
                          2 * np.pi ** 2, 1e-8,
                          detail="reported, not asserted by the bound check"))
    return out


# ---------------------------------------------------------------------------
# Dirac-operator residual convergence


@_timed
def suite_dirac() -> list[CheckResult]:
    out = []
    sol = catalog("s1", c=1.0)
    psis, phis = moutard_exact(sol.f).inverted_surface_spinors()
    res_d, res_v = {}, {}
    for n in (64, 128, 256):
        g = make_grid((0.3, 2.3, 0.2, 2.2), (n, n))
        psi, phi = psis.on_grid(g, 0.2), phis.on_grid(g, 0.2)
        U = sol.U_field(g, 0.2)
        res_d[n] = dirac_residual_norm(U, psi, interior=1)
        res_v[n] = dirac_residual_norm(U, phi, interior=1, vee=True)
    for res, tag in ((res_d, "D"), (res_v, "Dvee")):
        r1 = res[64] / res[128]
        r2 = res[128] / res[256]
        out.append(CheckResult(
            f"{tag} residual convergence table (64->128->256)", r2, 4.0, 0.25,
            r1 >= 3.0 and r2 >= 3.4,
            detail=f"residuals {res[64]:.3g} -> {res[128]:.3g} -> {res[256]:.3g}"))
    # minimal-surface data: residual at rounding level on quadratic samples
    g = make_grid((-1, 1, -1, 1), (64, 64))
    psi_min = SpinorField(field_from_function(g, lambda z: z ** 2 + 1),
                          field_from_function(g, lambda z: np.conj(z) ** 2))
    out.append(_abs_check("minimal data residual (U = 0, quadratic samples)",
                          dirac_residual_norm(constant_field(g, 0.0), psi_min), 1e-11))
    return out


# ---------------------------------------------------------------------------
# criterion 6: Weierstrass consistency


def _enneper_spinor(grid) -> SpinorField:
    return SpinorField(constant_field(grid, 1.0),
                       field_from_function(grid, np.conj))


@_timed
def suite_weierstrass() -> list[CheckResult]:
    out = []
    res = {}
    for n in (128, 256):
        g = make_grid((-1, 1, -1, 1), (n, n))
        S = integrate_surface_r3(_enneper_spinor(g))
        gm = gauss_map(S)
        e2a_meas = measured_e2alpha(S)
        e2a_spin = spinor_metric(_enneper_spinor(g)).e2alpha
        merr = float(np.max(np.abs(e2a_meas - e2a_spin) / np.abs(e2a_spin)))
        H = discrete_mean_curvature(S)
        hmax = float(np.nanmax(np.abs(H)))
        res[n] = (gm.rel_residual, merr, hmax)
    conf128 = res[128][0]
    out.append(_abs_check("conformality residual (Enneper, 128^2)", conf128, 1e-3))
    out.append(CheckResult("conformality halves with h^2 (order ratio)",
                           res[128][0] / max(res[256][0], 1e-300), 4.0, 0.15,
                           res[128][0] / max(res[256][0], 1e-300) >= 3.4))
    out.append(CheckResult("metric identity order ratio (R3)",
                           res[128][1] / max(res[256][1], 1e-300), 4.0, 0.15,
                           res[128][1] / max(res[256][1], 1e-300) >= 3.4))
    out.append(CheckResult("minimal-surface curvature -> 0 at O(h^2)",
                           res[128][2] / max(res[256][2], 1e-300), 4.0, 0.2,
                           res[128][2] / max(res[256][2], 1e-300) >= 3.0))
    # R4 graph data (product-metric identity)
    for n in (128,):
        g = make_grid((-2, 2, -2, 2), (n, n))
        psi0, phi0 = heat_datum_fields(catalog("s1", c=1.0).f, g, 0.3)
        S4 = integrate_surface_r4(psi0, phi0)
        gm4 = gauss_map(S4)
        e2a_meas = measured_e2alpha(S4)
        e2a_spin = spinor_metric(psi0, phi0).e2alpha
        merr4 = float(np.max(np.abs(e2a_meas - e2a_spin) / np.abs(e2a_spin)))
        out.append(_abs_check(f"conformality residual (R4 graph, {n}^2)",
                              gm4.rel_residual, 1e-3))
        out.append(_abs_check(f"R4 product-metric identity rel error ({n}^2)",
                              merr4, 5e-3))
    return out


# ---------------------------------------------------------------------------
# criterion 7: Moutard correctness


def _plane_background(n: int):
    g = make_grid((0.4, 2.4, 0.3, 2.3), (n, n))
    one = constant_field(g, 1.0)
    zero = constant_field(g, 0.0)
    psi0 = SpinorField(one, zero)
    zb = g.node_z(g.nx // 2, g.ny // 2)
    C0 = np.array([[0, 1j * np.conj(zb)], [1j * zb, 0]])   # S(0) = 0 anchoring
    return g, psi0, C0


@_timed
def suite_moutard() -> list[CheckResult]:
    out = []
    # exact rational identities: K-matrix recovers the heat-polynomial data
    for name in ("s1", "s2"):
        sol = catalog(name, c="symbolic")
        ex = moutard_exact(sol.f)
        okW = ex.W.equals(sol.U)
        oka = ex.a.equals(sol.a)
        out.append(CheckResult(f"exact K-matrix W == U ({name})", float(okW), 1.0, 0.0, okW))
        out.append(CheckResult(f"exact K-matrix a == a ({name})", float(oka), 1.0, 0.0, oka))

    # plane datum: transformed-spinor Dirac residual halves at O(h^2)
    resid = {}
    for n in (48, 96):
        g, psi0, C0 = _plane_background(n)
        ctx = MoutardTransform.from_background(psi0, psi0, C0)
        psi = SpinorField(field_from_function(g, lambda z: np.exp(0.4 * z)),
                          constant_field(g, 0.0))
        phi = SpinorField(field_from_function(g, lambda z: np.exp(0.3 * z)),
                          constant_field(g, 0.0))
        psit, phit = ctx.transform(psi, phi)
        Ut, _ = ctx.transformed_potentials(constant_field(g, 0.0))
        resid[n] = max(dirac_residual_norm(Ut, psit, interior=1),
                       dirac_residual_norm(Ut, phit, interior=1, vee=True))
    ratio = resid[48] / max(resid[96], 1e-300)
    out.append(CheckResult("plane-datum Dirac residual O(h^2) ratio", ratio, 4.0,
                           0.25, ratio >= 3.0,
                           detail=f"resid {resid[48]:.3g} -> {resid[96]:.3g}"))

    # s1 background: closed-form transformed spinor residual halves at O(h^2)
    sol = catalog("s1", c=1.0)
    ex = moutard_exact(sol.f)
    psit_exact = ex.tilde_psi_for_linear_datum()
    resid = {}
    for n in (64, 128):
        g = make_grid((-1.5, 1.5, -1.2, 1.8), (n, n))
        psit = psit_exact.on_grid(g, 0.2)
        Ut = sol.U_field(g, 0.2)
        resid[n] = dirac_residual_norm(Ut, psit, interior=1)
    ratio = resid[64] / max(resid[128], 1e-300)
    out.append(CheckResult("s1-background Dirac residual O(h^2) ratio", ratio, 4.0,
                           0.25, ratio >= 3.0,
                           detail=f"resid {resid[64]:.3g} -> {resid[128]:.3g}"))

    # the U~ surface is the inverted surface
    n = 96
    g = make_grid((0.3, 2.3, 0.2, 2.2), (n, n))
    t = 0.2
    Sm = heat_smatrix_values(sol.f, g, t)
    S_bg = smatrix_to_surface(Sm)
    S_inv = invert_surface(S_bg)
    psis, phis = (q.on_grid(g, t) for q in ex.inverted_surface_spinors())
    bx, by = g.nx // 2, g.ny // 2
    bp = S_inv.coords[:, by, bx]
    S_til = integrate_surface_r4(psis, phis, basepoint=bp, base_node=(bx, by))
    diff = float(np.max(np.abs(S_til.coords - S_inv.coords)))
    scale = float(np.max(np.abs(S_inv.coords)))
    out.append(_abs_check("U~ surface equals inverted surface (rel)", diff / scale, 5e-4,
                          detail=f"abs diff {diff:.3g}, scale {scale:.3g}"))
    return out


# ---------------------------------------------------------------------------
# criterion 8: evolver cross-check


@_timed
def suite_evolver(n: int = 256, t_end: float = 0.1, dt: float = 1e-4) -> list[CheckResult]:
    out = []
    g = square_grid(30.0, n, periodic=True)
    sol = catalog("s1", c=1.0)
    U0 = sol.U_field(g, 0.0)
    t0 = time.perf_counter()
    traj = evolve(U0, t_end, dt)
    elapsed = time.perf_counter() - t0
    Uex = sol.U_field(g, traj.times[-1])
    err = np.sqrt(grid_norm_sq(traj.final - Uex))
    rel = float(err / np.sqrt(grid_norm_sq(Uex)))
    drift = abs(traj.norms[-1] - traj.norms[0]) / traj.norms[0]
    out.append(_abs_check(f"evolver rel L2 error vs exact ({n}^2, dt={dt:g})", rel, 1e-2))
    out.append(_abs_check("evolver norm drift over run", drift, 1e-3))
    out.append(CheckResult("evolver runtime < 300 s", elapsed, 300.0, 0.0,
                           elapsed < 300.0))
    return out


# ---------------------------------------------------------------------------
# criterion 9: mKdV reduction


@_timed
def suite_reduction() -> list[CheckResult]:
    out = []
    profiles = {
        "sech": lambda x: 1.0 / np.cosh(x),
        "soliton N=1": lambda x: mkdv_soliton(x),
        "gauss-bump": lambda x: 0.8 * np.exp(-0.5 * x * x),
    }
    for name, fn in profiles.items():
        res = {}
        for n in (801, 1601):
            x = np.linspace(-12.0, 12.0, n)
            res[n] = mkdv_reduction_identity(Potential1D(x, fn(x)))
        ratio = res[801] / max(res[1601], 1e-300)
        out.append(CheckResult(f"mKdV reduction identity O(h^2) [{name}]", ratio,
                               4.0, 0.3, ratio >= 3.2 and res[1601] < 1e-3,
                               detail=f"resid {res[801]:.3g} -> {res[1601]:.3g}"))
    return out


SUITES = {
    "symbolic": suite_symbolic,
    "norms": suite_norms,
    "singularities": suite_singularities,
    "willmore": suite_willmore,
    "dirac": suite_dirac,
    "weierstrass": suite_weierstrass,
    "moutard": suite_moutard,
    "evolver": suite_evolver,
    "reduction": suite_reduction,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key]())
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name]()


def print_table(results) -> None:
    width = max(len(r.name) for r in results) + 2
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}} {flag}  value={r.value:.8g} target={r.target:.8g} "
              f"tol={r.tol:.2g}")
    n_fail = sum(not r.passed for r in results)
    print(f"-- {len(results) - n_fail}/{len(results)} checks passed")
