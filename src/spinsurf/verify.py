"""Named verification suites.  Each check is one record (name, value, lo, hi)
and one rule: it passes when lo <= value <= hi, both bounds inclusive, so a NaN
value fails.  The verdict is computed from the record, never handed in, and a
check with several conditions is one record per condition.  The acceptance
criteria of the package are the union of these suites at their reference
scales; the test suite and the CLI both drive the functions below.
"""
from __future__ import annotations

import time
from functools import partial

import numpy as np

from .dirac import SpinorField, dirac_residual_norm
from .dsii import (OzawaData, catalog, dsii_exact_identity_holds, exact_solution,
                   l2_norm_sq, singular_times)
from .evolve import evolve, run_summary
from .exactpoly import C, T, Z, heat_extend, poly_equal
from .grid import (ComplexField, constant_field, field_from_function, make_grid,
                   masked_max_abs, merged_mask, square_grid)
from .hierarchy import (clifford_potential, mkdv_reduction_identity,
                        mkdv_soliton, mnv_residual, Potential1D, soliton_potential,
                        v_from_constraint_mnv, willmore_bound_check)
from .moutard import (MoutardTransform, heat_datum_fields, heat_smatrix_values,
                      moutard_exact, time_offset_integral)
from .surface import (discrete_mean_curvature, gauss_map, integrate_surface_r3,
                      integrate_surface_r4, invert_surface, measured_e2alpha,
                      named_spinor, smatrix_to_surface, spinor_metric)

TWO_PI = 2 * np.pi


class CheckResult:
    name: str
    value: float
    lo: float
    hi: float
    detail: str
    runtime_s: float

    def __init__(self, name, value, lo, hi, detail=""):
        # plain Python floats, whatever numpy scalars or bools the checks hand in
        self.name, self.value, self.lo, self.hi = name, float(value), float(lo), float(hi)
        self.detail, self.runtime_s = detail, 0.0
        self._made = time.perf_counter()        # for _timed

    @property
    def passed(self) -> bool:
        return self.lo <= self.value <= self.hi

    def __str__(self):
        return (f"{'PASS' if self.passed else 'FAIL'}  value={self.value:.15g} "
                f"in [{self.lo:.15g}, {self.hi:.15g}]")

    def as_dict(self):
        """The record for verify.json."""
        return {"name": self.name, "value": self.value, "lo": self.lo, "hi": self.hi,
                "pass": self.passed, "detail": self.detail,
                "runtime_s": round(self.runtime_s, 3)}


def _timed(fn):
    """Each record's runtime_s: the time since the suite's previous record was made,
    or since the suite started for its first: a suite's records sum to its wall time
    up to its last record."""
    def wrapper(*a, **kw):
        prev = time.perf_counter()
        out = fn(*a, **kw)
        for r in sorted(out, key=lambda r: r._made):
            r.runtime_s, prev = r._made - prev, r._made
        return out
    return wrapper


def _near(name, value, target, tol, detail="") -> CheckResult:
    """value within tol·|target| of target."""
    return CheckResult(name, value, target - tol * abs(target), target + tol * abs(target), detail)


def _order(name, coarse, fine, lo, hi) -> CheckResult:
    """The convergence ratio coarse/fine of two residuals in [lo, hi]; a zero fine
    residual reads inf, which no window holds."""
    return CheckResult(name, coarse / fine if fine else np.inf, lo, hi,
                       f"resid {coarse:.3g} -> {fine:.3g}")


# ---------------------------------------------------------------------------
# criterion 1: exact DSII identity


@_timed
def suite_symbolic() -> list[CheckResult]:
    out = []
    t0 = time.perf_counter()
    for name in ("s1", "s2"):
        ok = dsii_exact_identity_holds(catalog(name, c="symbolic"))
        out.append(CheckResult(f"symbolic DSII identity ({name}, symbolic c)", ok, 1, 1))
    # heat extensions match the closed forms
    out.append(CheckResult("heat_extend quadratic datum",
                           poly_equal(heat_extend(Z * Z + C), Z * Z + 2j * T + C), 1, 1))
    out.append(CheckResult("heat_extend quartic datum",
                           poly_equal(heat_extend(Z ** 4 + C),
                                      Z ** 4 + 12j * (T * Z * Z) - 12 * (T * T) + C), 1, 1))
    out.append(CheckResult("symbolic suite runtime <= 10 s", time.perf_counter() - t0, 0, 10))
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
        out.append(_near(f"norm s1 c=1 t={t}", nr.value, TWO_PI, 1e-2))
    s1i = catalog("s1", c=1j)
    nr = l2_norm_sq(s1i.U_field(g30, -0.5))
    out.append(_near("norm s1 c=i t=-1/2 (singular, masked node)", nr.value, np.pi, 1e-2))
    g10 = square_grid(10.0, 1025)
    g10f = square_grid(10.0, 2049)
    s2 = catalog("s2", c=12.0)
    nr = l2_norm_sq(s2.U_field(g10, 0.3))
    out.append(_near("norm s2 c=12 t=0.3 (regular)", nr.value, 4 * np.pi, 1e-2))
    for t in (1.0, -1.0):
        nr = l2_norm_sq(s2.U_field(g10f, t))
        out.append(_near(f"norm s2 c=12 t={t} (singular)", nr.value, 3 * np.pi, 1e-2))
    oz = OzawaData(1.0, -1.0)
    g40 = square_grid(40.0, 1025)
    nr = l2_norm_sq(oz.U0_field(g40))
    out.append(_near("norm ozawa (1,-1) at t=0", nr.value, TWO_PI, 1e-2))
    return out


# ---------------------------------------------------------------------------
# criterion 4: singularity ledger


@_timed
def suite_singularities() -> list[CheckResult]:
    out = []
    for tau in (1.0, -0.6):
        ev = singular_times(catalog("s1", c=1j * tau))
        out.append(CheckResult(f"singular event count s1 c={tau}i", len(ev), 1, 1))
        out.append(CheckResult(f"singular time s1 c={tau}i", ev[0].t_sing if ev else np.nan,
                               -tau / 2 - 1e-12, -tau / 2 + 1e-12))
        if ev:
            out.append(CheckResult(f"asymptotic coeff s1 c={tau}i (vs i)",
                                   abs(ev[0].coefficient - 1j), 0, 1e-12))
    # a1 = 0.7 != 0: f(z, -1/2) = 0.7 z + z^2, so A = i a2 / (1 + |a1|^2) = i / 1.49
    ev = singular_times(exact_solution(heat_extend(Z * Z + 0.7 * Z + 1j)))
    out.append(CheckResult("singular event count heat a1=0.7", len(ev), 1, 1))
    out.append(CheckResult("singular time heat a1=0.7", ev[0].t_sing if ev else np.nan,
                           -0.5 - 1e-12, -0.5 + 1e-12))
    out.append(CheckResult("asymptotic coeff heat a1=0.7 (vs i/1.49)",
                           abs((ev[0].coefficient if ev else np.nan) - 1j / 1.49), 0, 1e-12))
    out.append(CheckResult("no singular times for non-imaginary c",
                           len(singular_times(catalog("s1", c=1.0 + 0.5j))), 0, 0))
    ev = singular_times(catalog("s2", c=12.0))
    ts = sorted(e.t_sing for e in ev) + [np.nan, np.nan]
    out.append(CheckResult("singular event count s2 c=12", len(ev), 2, 2))
    for t, target in zip(ts, (-1.0, 1.0)):
        out.append(CheckResult(f"singular time s2 c=12 ({target:+g})", t,
                               target - 1e-12, target + 1e-12))
    for e in ev:
        out.append(CheckResult(f"asymptotic coeff s2 t={e.t_sing:g} (vs -12t)",
                               abs(e.coefficient + 12 * e.t_sing), 0, 1e-12))
    return out


# ---------------------------------------------------------------------------
# criterion 5: Willmore equalities


@_timed
def suite_willmore() -> list[CheckResult]:
    out = []
    for N in (1, 2, 3):
        target = 4 * np.pi * N * N
        chk = willmore_bound_check(soliton_potential(N), N, target)
        out.append(CheckResult(f"soliton N={N} Willmore equality", chk["value"],
                               target - 1e-6, target + 1e-6, "4 int U^2 = 4 pi N^2 +- 1e-6"))
    # Closed form of int_0^{2 pi} U^2 dx for U = sin x / (2 s (sin x - s)), s = sqrt 2:
    # U^2 = sin^2 x / (8 (s - sin x)^2), and with u = sin x,
    # u^2 / (s - u)^2 = 1 - 2 s / (s - u) + s^2 / (s - u)^2.  For a > |b|,
    # int_0^{2 pi} dx / (a + b sin x) = 2 pi / sqrt(a^2 - b^2) and
    # int_0^{2 pi} dx / (a + b sin x)^2 = 2 pi a / (a^2 - b^2)^{3/2}.  With a = s, b = -1
    # (a^2 - b^2 = 1) the three terms give 2 pi - 4 s pi + 2 s^3 pi = 2 pi, as s^3 = 2 s,
    # so int U^2 dx = 2 pi / 8 = pi / 4.
    oracle = np.pi / 4
    chk = willmore_bound_check(clifford_potential(), None, 2 * np.pi ** 2)
    out.append(_near("clifford grid vs closed form 8 pi int U^2 = 2 pi^2",
                     chk["value"], 4 * TWO_PI * oracle, 1e-10))
    out.append(_near("clifford Willmore vs torus bound 2 pi^2", chk["value"], chk["bound"],
                     1e-8, "Marques-Neves: the equality case of willmore-check's bound"))
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
        out.append(_order(f"{tag} residual order ratio 64->128", res[64], res[128], 3.0, 5.0))
        out.append(_order(f"{tag} residual order ratio 128->256", res[128], res[256], 3.4, 5.0))
    # minimal-surface data: residual at rounding level on quadratic samples
    g = make_grid((-1, 1, -1, 1), (64, 64))
    psi_min = SpinorField(field_from_function(g, lambda z: z ** 2 + 1),
                          field_from_function(g, lambda z: np.conj(z) ** 2))
    out.append(CheckResult("minimal data residual (U = 0, quadratic samples)",
                           dirac_residual_norm(constant_field(g, 0.0), psi_min), 0, 1e-11))
    return out


# ---------------------------------------------------------------------------
# criterion 6: Weierstrass consistency


@_timed
def suite_weierstrass() -> list[CheckResult]:
    out = []
    res = {}
    for n in (128, 256):
        g = make_grid((-1, 1, -1, 1), (n, n))
        S = integrate_surface_r3(named_spinor("enneper", g))
        e2a_meas = measured_e2alpha(S)
        e2a_spin = spinor_metric(named_spinor("enneper", g))
        merr = float(np.max(np.abs(e2a_meas - e2a_spin) / np.abs(e2a_spin)))
        H = discrete_mean_curvature(S)
        hmax = float(np.nanmax(np.abs(H)))
        res[n] = (gauss_map(S), merr, hmax)
    out.append(CheckResult("conformality residual (Enneper, 128^2)", res[128][0], 0, 1e-3))
    out.append(_order("conformality halves with h^2 (order ratio)", res[128][0], res[256][0],
                      3.4, 4.6))
    out.append(_order("metric identity order ratio (R3)", res[128][1], res[256][1], 3.4, 4.6))
    out.append(_order("minimal-surface curvature -> 0 at O(h^2)", res[128][2], res[256][2],
                      3.2, 4.8))
    # R4 graph data (product-metric identity)
    for n in (128,):
        g = make_grid((-2, 2, -2, 2), (n, n))
        psi0, phi0 = heat_datum_fields(catalog("s1", c=1.0).f, g, 0.3)
        S4 = integrate_surface_r4(psi0, phi0)
        e2a_meas = measured_e2alpha(S4)
        e2a_spin = spinor_metric(psi0, phi0)
        merr4 = float(np.max(np.abs(e2a_meas - e2a_spin) / np.abs(e2a_spin)))
        out.append(CheckResult(f"conformality residual (R4 graph, {n}^2)",
                               gauss_map(S4), 0, 1e-3))
        out.append(CheckResult(f"R4 product-metric identity rel error ({n}^2)", merr4, 0, 5e-3))
    return out


# ---------------------------------------------------------------------------
# criterion 7: Moutard correctness


def _plane_background(n: int):
    g = make_grid((0.4, 2.4, 0.3, 2.3), (n, n))
    psi0 = named_spinor("plane", g)
    zb = g.node_z(*g.centre)
    C0 = np.array([[0, 1j * np.conj(zb)], [1j * zb, 0]])   # S(0) = 0 anchoring
    return g, psi0, C0


@_timed
def suite_moutard() -> list[CheckResult]:
    out = []
    # exact rational identities: K-matrix recovers the heat-polynomial data
    for name in ("s1", "s2"):
        sol = catalog(name, c="symbolic")
        ex = moutard_exact(sol.f)
        out.append(CheckResult(f"exact K-matrix W == U ({name})", ex.W.equals(sol.U), 1, 1))
        out.append(CheckResult(f"exact K-matrix a == a ({name})", ex.a.equals(sol.a), 1, 1))

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
    out.append(_order("plane-datum Dirac residual O(h^2) ratio", resid[48], resid[96],
                      3.0, 5.0))
    # the ratio alone passes a wrong partner matrix (+S0^* reads 9.9e-2 -> 3.0e-2)
    out.append(CheckResult("plane-datum Dirac residual at 96^2", resid[96], 0, 1e-2))

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
    out.append(_order("s1-background Dirac residual O(h^2) ratio", resid[64], resid[128],
                      3.0, 5.0))

    # the partner side through MoutardTransform on a background with W != 0:
    # phi = (1, 0) integrates exactly, so phi~ meets its closed form to rounding
    n, t = 96, 0.2
    g = make_grid((-1.5, 1.5, -1.2, 1.8), (n, n))
    zb = g.node_z(*g.centre)
    C0 = heat_smatrix_values(sol.f, g, t).at(*g.centre)
    ctx = MoutardTransform.from_background(*heat_datum_fields(sol.f, g, t), C0)
    _, phit = ctx.transform(SpinorField(field_from_function(g, lambda z: z), constant_field(g, 0.0)),
                            SpinorField(constant_field(g, 1.0), constant_field(g, 0.0)),
                            constBP=np.array([[1j * zb, 0], [0, -1j * np.conj(zb)]]))
    ref = ex.tilde_phi_for_identity_datum().on_grid(g, t).values
    err = float(np.max(np.abs(phit.values - ref)) / np.max(np.abs(ref)))
    out.append(CheckResult(f"s1-background phi~ vs exact ({n}^2, rel)", err, 0, 1e-12))

    # the U~ surface is the inverted surface
    n = 96
    g = make_grid((0.3, 2.3, 0.2, 2.2), (n, n))
    t = 0.2
    Sm = heat_smatrix_values(sol.f, g, t)
    S_bg = smatrix_to_surface(Sm)
    S_inv = invert_surface(S_bg)
    psis, phis = (q.on_grid(g, t) for q in ex.inverted_surface_spinors())
    S_til = integrate_surface_r4(psis, phis)
    S_til.coords += S_inv.basepoint[:, None, None]
    diff = float(np.max(np.abs(S_til.coords - S_inv.coords)))
    scale = float(np.max(np.abs(S_inv.coords)))
    out.append(CheckResult("U~ surface equals inverted surface (rel)", diff / scale, 0, 5e-4,
                           f"abs diff {diff:.3g}, scale {scale:.3g}"))

    # the time-augmented route across the singular instant t_s (s2: t_s = 1, s1 with
    # c = i: t_s = -1/2): S0 at t from the closed form's constant at t0 and the offset
    # Gamma int omega1 dt, and K's W against U at t
    box = (-2.0, 2.0, -1.7, 2.3)
    s2 = catalog("s2", c=12.0)
    for t in (0.8, 0.98, 1.02, 1.2):
        err = {n: _route_error(s2, make_grid(box, (n, n)), 0.7, t) for n in (128, 256)}
        out.append(_order(f"s2 route 0.7 -> {t} W vs U O(h^2) ratio", err[128], err[256],
                          3.0, 6.0))
        out.append(CheckResult(f"s2 route 0.7 -> {t} W vs U 256^2 (rel)", err[256], 0, 5e-4))
    s1i, g = catalog("s1", c=1j), make_grid(box, (128, 128))
    err = max(_route_error(s1i, g, -0.7, t) for t in (-0.6, -0.52, -0.48, -0.3))
    out.append(CheckResult("s1 c=i route across -1/2 W vs U (rel)", err, 0, 1e-12,
                           "from t0 = -0.7, largest over t = -0.6, -0.52, -0.48, -0.3 at 128^2"))
    return out


def _route_error(sol, g, t0: float, t: float) -> float:
    """The time-augmented Moutard route from t0 to t on sol's heat datum: max |W - U|
    at t over the nodes that neither field masks, relative to max |U| there.  S0's
    constant is the closed-form S at grid.centre at t0 plus time_offset_integral over
    81 samples of [t0, t]."""
    fields = partial(heat_datum_fields, sol.f)
    C = (heat_smatrix_values(sol.f, g, t0).at(*g.centre)
         + time_offset_integral(fields, g, np.linspace(t0, t, 81)))
    W = MoutardTransform.from_background(*fields(g, t), C).kdata.W
    U = sol.U_field(g, t)
    mask = merged_mask(U, W)
    return masked_max_abs(W.values - U.values, mask) / masked_max_abs(U.values, mask)


# ---------------------------------------------------------------------------
# criterion 8: evolver cross-check


@_timed
def suite_evolver() -> list[CheckResult]:
    n, t_end, dt = 256, 0.1, 1e-4
    out = []
    g = square_grid(30.0, n, periodic=True)
    sol = catalog("s1", c=1.0)
    U0 = sol.U_field(g, 0.0)
    t0 = time.perf_counter()
    traj = evolve(U0, t_end, dt)
    elapsed = time.perf_counter() - t0
    summary = run_summary(traj, sol)
    out.append(CheckResult(f"evolver rel L2 error vs exact ({n}^2, dt={dt:g})",
                           summary["rel_l2_error_vs_exact"], 0, 1e-2))
    out.append(CheckResult("evolver norm drift over run", summary["norm_drift_rel"], 0, 1e-3))
    out.append(CheckResult("evolver runtime <= 300 s", elapsed, 0, 300))
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
        out.append(_order(f"mKdV reduction identity O(h^2) [{name}]", res[801], res[1601],
                          3.2, 5.2))
        out.append(CheckResult(f"mKdV reduction identity at n=1601 [{name}]", res[1601],
                               0, 1e-3))
    # the exact travelling soliton through mnv_residual on a periodic strip,
    # with the reduction's V = U^2 and a centred 3-slice stencil (dt = 1e-3);
    # v_from_constraint_mnv's V, in the zero-mean gauge, leaves 1.6e-2 at every nx
    res = {}
    for nx in (800, 1600):
        g = make_grid((-12.0, 12.0, 0.0, TWO_PI), (nx, 24), True)
        U = [ComplexField(g, np.broadcast_to(mkdv_soliton(g.xs(), t), (24, nx)))
             for t in (-1e-3, 0.0, 1e-3)]
        res[nx] = mnv_residual(U, 1e-3, V=U[1] * U[1], interior=8)
    out.append(_order("mNV residual O(h^2) [exact mKdV soliton]", res[800], res[1600],
                      3.5, 4.5))
    out.append(CheckResult("mNV residual at nx=1600 [exact mKdV soliton]", res[1600], 0, 2e-4))
    # the spectral constraint solve in its zero-mean gauge: V = U^2 - mean(U^2)
    u2 = U[1].values ** 2
    out.append(CheckResult("v_from_constraint_mnv = U^2 - mean [exact mKdV soliton]",
                           np.max(np.abs(v_from_constraint_mnv(U[1]).values - (u2 - u2.mean()))),
                           0, 1e-12))
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
        print(f"{r.name:<{width}} {r}")
    n_fail = sum(not r.passed for r in results)
    print(f"-- {len(results) - n_fail}/{len(results)} checks passed")
