"""The mNV flow (right-hand side, constraint and residual), its mKdV reduction
identity, soliton and Clifford-torus potentials, and Willmore bound checks.

x-only reduction convention: d = db = (1/2) d/dx, so U_zzz + U_zbzbzb =
(1/4) U_xxx, which reproduces the mKdV form U_t = (1/4) U_xxx + 6 U_x U^2
with V = U^2.  A potential enters the 2-D code as Potential1D.strip, its x-only
field over its x nodes times [0, 2 pi): the reduction identity (criterion 9) runs
mnv_rhs itself on it, and the bound check's W is surface.willmore of it.
"""
from __future__ import annotations

import numpy as np

from .grid import ComplexField, make_grid, wirtinger_derivative
from .surface import willmore


class Potential1D:
    """Real potential samples U(x) on a uniform 1-D grid; periodic ones omit the period's end."""

    x: np.ndarray
    u: np.ndarray
    periodic: bool

    def __init__(self, x, u, periodic=False):
        self.x = np.asarray(x, dtype=float)
        self.u = np.asarray(u, dtype=float)
        if self.x.shape != self.u.shape:
            raise ValueError("x and u must have the same shape")
        self.periodic = periodic

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def strip(self) -> ComplexField:
        """U as an x-only field over its x nodes times [0, 2 pi): 4 rows, periodic in
        y, and periodic in x (the range ending a step past the last node) when U is."""
        x, n = self.x, self.x.size
        g = make_grid((x[0], x[-1] + self.h if self.periodic else x[-1], 0, 2 * np.pi),
                      (n, 4), (self.periodic, True))
        return ComplexField(g, np.broadcast_to(self.u, (4, n)))


def soliton_potential(N: int) -> Potential1D:
    """U_N(x) = N / (2 cosh x) on 2001 nodes over [-25, 25]; Willmore equality case."""
    x = np.linspace(-25.0, 25.0, 2001)
    return Potential1D(x, N / (2 * np.cosh(x)))


def clifford_potential() -> Potential1D:
    """U(x) = sin x / (2 sqrt2 (sin x - sqrt2)) on 2048 periodic nodes of [0, 2 pi)."""
    x = np.arange(2048) * (2 * np.pi / 2048)
    s = np.sqrt(2.0)
    return Potential1D(x, np.sin(x) / (2 * s * (np.sin(x) - s)), periodic=True)


def mkdv_soliton(x, t: float = 0.0) -> np.ndarray:
    """Travelling solution of U_t = (1/4) U_xxx + 6 U_x U^2:
    U = (1/2) sech(x + t / 4); at t = 0 this is the N=1 soliton potential."""
    return 0.5 / np.cosh(np.asarray(x) + t / 4)


# ---------------------------------------------------------------------------
# the mNV flow: central differences, and a spectral constraint solve


def _dz3(U: ComplexField, direction: str) -> ComplexField:
    d1 = wirtinger_derivative(U, direction)
    d2 = wirtinger_derivative(d1, direction)
    return wirtinger_derivative(d2, direction)


def mnv_rhs(U: ComplexField, V: ComplexField) -> ComplexField:
    """(U_zzz + 3 U_z V + (3/2) U V_z) + (U_zbzbzb + 3 U_zb Vb + (3/2) U Vb_zb)."""
    Uz = wirtinger_derivative(U, "z")
    Uzb = wirtinger_derivative(U, "zbar")
    Vb = V.conj()
    term1 = _dz3(U, "z") + 3 * Uz * V + 1.5 * U * wirtinger_derivative(V, "z")
    term2 = _dz3(U, "zbar") + 3 * Uzb * Vb + 1.5 * U * wirtinger_derivative(Vb, "zbar")
    return term1 + term2


def v_from_constraint_mnv(U: ComplexField) -> ComplexField:
    """V with V_zb = (U^2)_z on a periodic grid, zero-mean gauge, by one spectral
    multiplier: V^ = (m_z / m_zb) (U^2)^."""
    g = U.grid
    sp = g.spectral
    # m_z / m_zb = (i kx + ky) / (i kx - ky) = (i kx + ky)^2 * (-1 / k^2)
    ratio = (sp.ikx + sp.ky[:, None]) ** 2 * sp.lap_inv
    return ComplexField(g, np.fft.ifft2(ratio * np.fft.fft2(U.values * U.values)))


def mnv_residual(U_stencil, dt: float, V: ComplexField, interior: int = 0) -> float:
    """max |U_t - mnv_rhs(U, V)| of the modified Novikov-Veselov flow on a centred
    3-slice stencil (t-dt, t, t+dt), V being the middle slice's, off an interior
    margin."""
    if len(U_stencil) != 3:
        raise ValueError("need slices (t-dt, t, t+dt)")
    Um, U0, Up = U_stencil
    Ut = (Up.values - Um.values) / (2 * dt)
    r = np.abs(Ut - mnv_rhs(U0, V).values)
    if interior:
        r = r[interior:-interior, interior:-interior]
    return float(np.max(r))


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


def mkdv_reduction_identity(U: Potential1D) -> float:
    """max |mnv_rhs(U, V=U^2) - RHS_mKdV(U)| off 4 nodes at each end; vanishes up
    to scheme error.  The mNV side is the library's own mnv_rhs, run on U.strip()
    (row 0 read)."""
    Uf = U.strip()
    a = mnv_rhs(Uf, Uf * Uf).values[0]
    b = mkdv_rhs_1d(U.u, U.h)
    d = np.abs(a - b)
    return float(np.max(d[4:-4]))


# ---------------------------------------------------------------------------
# Willmore bounds


def willmore_bound_check(U: Potential1D, N: int | None, bound: float) -> dict:
    """The Willmore bound check of U: {"value", "bound", "pass", "N"}, value =
    surface.willmore(U.strip()), that is 4 int U^2 dx dy over the strip, passing at
    value >= bound - 1e-9 max(bound, 1).  The caller states the bound: 4 pi N^2 for
    N solitons (the sphere bound, equality at soliton potentials), 2 pi^2 for a torus
    (Marques-Neves, equality at the Clifford torus), where N is None.  MaskError (a
    ValueError) for a potential whose U^2 is not finite."""
    value = willmore(U.strip())
    return {"value": value, "bound": bound,
            "pass": value >= bound - 1e-9 * max(bound, 1.0), "N": N}

