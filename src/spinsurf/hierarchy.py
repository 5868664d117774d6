"""Residual checkers for the mNV / NV flows, the mKdV reduction identity,
soliton and Clifford-torus potentials, and Willmore bound checks.

x-only reduction convention: d = db = (1/2) d/dx, so U_zzz + U_zbzbzb =
(1/4) U_xxx, which reproduces the mKdV form U_t = (1/4) U_xxx + 6 U_x U^2
with V = U^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, Grid2D, make_grid, wirtinger_derivative


@dataclass
class Potential1D:
    """Real potential samples U(x) on a uniform 1-D grid."""

    x: np.ndarray
    u: np.ndarray
    tag: str = "custom"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.x.shape != self.u.shape:
            raise ValueError("x and u must have the same shape")

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])


def soliton_potential(N: int, half_width: float = 25.0, n: int = 2001) -> Potential1D:
    """U_N(x) = N / (2 cosh x); Willmore equality case of the sphere bound."""
    x = np.linspace(-half_width, half_width, n)
    return Potential1D(x, N / (2 * np.cosh(x)), tag=f"soliton({N})")


def clifford_potential(n: int = 2048) -> Potential1D:
    """U(x) = sin x / (2 sqrt2 (sin x - sqrt2)) on [0, 2 pi) (periodic sampling)."""
    x = np.arange(n) * (2 * np.pi / n)
    s = np.sqrt(2.0)
    return Potential1D(x, np.sin(x) / (2 * s * (np.sin(x) - s)), tag="clifford")


def mkdv_soliton(x, t: float = 0.0, k: float = 1.0) -> np.ndarray:
    """Travelling solution of U_t = (1/4) U_xxx + 6 U_x U^2:
    U = (k/2) sech(k (x + k^2 t / 4)); at t = 0, k = 1 this is the N=1
    soliton potential."""
    return (k / 2) / np.cosh(k * (np.asarray(x) + k * k * t / 4))


# ---------------------------------------------------------------------------
# 2-D flow right-hand sides


def _dz3(U: ComplexField, direction: str, scheme: str) -> ComplexField:
    d1 = wirtinger_derivative(U, direction, scheme)
    d2 = wirtinger_derivative(d1, direction, scheme)
    return wirtinger_derivative(d2, direction, scheme)


def mnv_rhs(U: ComplexField, V: ComplexField, scheme: str = "central2") -> ComplexField:
    """(U_zzz + 3 U_z V + (3/2) U V_z) + (U_zbzbzb + 3 U_zb Vb + (3/2) U Vb_zb)."""
    Uz = wirtinger_derivative(U, "z", scheme)
    Uzb = wirtinger_derivative(U, "zbar", scheme)
    Vb = V.conj()
    term1 = _dz3(U, "z", scheme) + 3 * Uz * V \
        + 1.5 * U * wirtinger_derivative(V, "z", scheme)
    term2 = _dz3(U, "zbar", scheme) + 3 * Uzb * Vb \
        + 1.5 * U * wirtinger_derivative(Vb, "zbar", scheme)
    return term1 + term2


def nv_rhs(U: ComplexField, V: ComplexField, scheme: str = "central2") -> ComplexField:
    """U_zzz + U_zbzbzb + (V U)_z + (Vb U)_zb."""
    Vb = V.conj()
    return _dz3(U, "z", scheme) + _dz3(U, "zbar", scheme) \
        + wirtinger_derivative(V * U, "z", scheme) \
        + wirtinger_derivative(Vb * U, "zbar", scheme)


def _constraint_invert(rhs: ComplexField) -> ComplexField:
    """Spectral solve of V_zb = rhs on a periodic grid (zero-mean gauge)."""
    g = rhs.grid
    sp = g.spectral
    # 1 / m_zb = 4 m_z / (4 m_z m_zb) = 2 (i kx + ky) * (-1 / k^2)
    inv_mzb = 2.0 * (sp.ikx + sp.ky[:, None]) * sp.lap_inv
    return ComplexField(g, np.fft.ifft2(inv_mzb * np.fft.fft2(rhs.values)))


def v_from_constraint_mnv(U: ComplexField, scheme: str = "spectral") -> ComplexField:
    """V with V_zb = (U^2)_z."""
    U2 = U * U
    return _constraint_invert(wirtinger_derivative(U2, "z", scheme))


def v_from_constraint_nv(U: ComplexField, scheme: str = "spectral") -> ComplexField:
    """V with V_zb = 3 U_z."""
    return _constraint_invert(3 * wirtinger_derivative(U, "z", scheme))


@dataclass
class FlowResidual:
    max_norm: float
    constraint_max: float


def _flow_residual(rhs_fn, v_fn, cons_rhs_fn, U_stencil, V, dt, scheme,
                   interior) -> FlowResidual:
    if len(U_stencil) != 3:
        raise ValueError("need slices (t-dt, t, t+dt)")
    Um, U0, Up = U_stencil
    if V is None:
        V = v_fn(U0)
    cres = np.abs(wirtinger_derivative(V, "zbar", scheme).values
                  - cons_rhs_fn(U0, scheme).values)
    Ut = (Up.values - Um.values) / (2 * dt)
    r = np.abs(Ut - rhs_fn(U0, V, scheme).values)
    if interior:
        r = r[interior:-interior, interior:-interior]
        cres = cres[interior:-interior, interior:-interior]
    return FlowResidual(float(np.max(r)), float(np.max(cres)))


def _mnv_cons_rhs(U, scheme):
    return wirtinger_derivative(U * U, "z", scheme)


def _nv_cons_rhs(U, scheme):
    return 3 * wirtinger_derivative(U, "z", scheme)


def mnv_residual(U_stencil, dt: float, V: ComplexField | None = None,
                 scheme: str = "spectral", interior: int = 0) -> FlowResidual:
    """Residual of the modified Novikov-Veselov flow on a 3-slice stencil."""
    return _flow_residual(mnv_rhs, v_from_constraint_mnv, _mnv_cons_rhs,
                          U_stencil, V, dt, scheme, interior)


def nv_residual(U_stencil, dt: float, V: ComplexField | None = None,
                scheme: str = "spectral", interior: int = 0) -> FlowResidual:
    """Residual of the Novikov-Veselov flow on a 3-slice stencil."""
    return _flow_residual(nv_rhs, v_from_constraint_nv, _nv_cons_rhs,
                          U_stencil, V, dt, scheme, interior)


# ---------------------------------------------------------------------------
# x-only reduction


def mkdv_rhs_1d(u: np.ndarray, h: float) -> np.ndarray:
    """(1/4) u_xxx + 6 u_x u^2 with direct stencils."""
    ux = np.gradient(u, h, edge_order=2)
    uxxx = np.empty_like(u)
    uxxx[2:-2] = (u[4:] - 2 * u[3:-1] + 2 * u[1:-3] - u[:-4]) / (2 * h**3)
    uxxx[:2] = uxxx[2]
    uxxx[-2:] = uxxx[-3]
    return 0.25 * uxxx + 6 * ux * u * u


def mnv_rhs_xonly(u: np.ndarray, h: float) -> np.ndarray:
    """mNV right-hand side on x-only data with V = U^2 and d = (1/2) d/dx."""
    dx = lambda a: np.gradient(a, h, edge_order=2)
    v = u * u
    half = 0.125 * dx(dx(dx(u))) + 3 * (0.5 * dx(u)) * v + 1.5 * u * (0.5 * dx(v))
    return 2 * half


def mkdv_reduction_identity(U: Potential1D, margin: int = 4) -> float:
    """max |RHS_mNV(U, V=U^2) - RHS_mKdV(U)|; vanishes up to scheme error."""
    a = mnv_rhs_xonly(U.u, U.h)
    b = mkdv_rhs_1d(U.u, U.h)
    d = np.abs(a - b)
    return float(np.max(d[margin:-margin]))


# ---------------------------------------------------------------------------
# Willmore bounds


@dataclass
class WillmoreCheck:
    value: float
    bound: float
    passed: bool
    n_claim: int | None

    def as_dict(self):
        return {"value": self.value, "bound": self.bound, "pass": self.passed,
                "N": self.n_claim}


def willmore_value_1d(U: Potential1D, y_span: float = 2 * np.pi,
                      periodic_x: bool = False) -> float:
    """4 * int U^2 dx dy over the strip x-range x [0, y_span]."""
    u2 = U.u.astype(float) ** 2
    if periodic_x:
        ix = float(np.sum(u2) * U.h)
    else:
        ix = float(np.trapezoid(u2, dx=U.h))
    if not np.isfinite(ix):
        raise ValueError("divergent integral")
    return 4.0 * ix * y_span


def willmore_bound_check(U: Potential1D, N: int | None = None,
                         tol: float = 1e-9) -> WillmoreCheck:
    """Check 4 int U^2 >= 4 pi N^2 (sphere bound; equality at soliton potentials)."""
    periodic = U.tag == "clifford"
    value = willmore_value_1d(U, periodic_x=periodic)
    if N is None:
        return WillmoreCheck(value, 0.0, True, None)
    bound = 4 * np.pi * N * N
    return WillmoreCheck(value, bound, value >= bound - tol * max(bound, 1.0), N)


def strip_grid(half_width: float = 25.0, nx: int = 2001, ny: int = 64) -> Grid2D:
    """x-line times [0, 2 pi] strip used by the sphere-bound checks."""
    return make_grid((-half_width, half_width, 0.0, 2 * np.pi), (nx, ny),
                     periodicity=(False, True))
