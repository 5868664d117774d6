"""Weierstrass integration of spinors to surfaces in R^3 / R^4, metric, Willmore,
Gauss map, discrete curvature and quaternionic inversion.

Coordinate derivative fields (the closed forms being integrated):

    x1_z = (i/2)(conj(phi2) conj(psi2) + phi1 psi1)
    x2_z = (1/2)(conj(phi2) conj(psi2) - phi1 psi1)
    x3_z = (1/2)(conj(phi2) psi1 + phi1 conj(psi2))
    x4_z = (i/2)(conj(phi2) psi1 - phi1 conj(psi2))

and x^k = x^k(P0) + int (x^k_z dz + conj(x^k_z) dzbar); the R^3 case is phi = psi
(then x4_z vanishes identically).

The forms and the maps are real, so they are integrated and differentiated in
real arithmetic: x^k = x^k(P0) + int (2 Re x^k_z dx - 2 Im x^k_z dy) by
grid.antiderivative on real arrays, and x^k_z = (x^k_x - i x^k_y) / 2 by
grid.real_wirtinger_z.  Every nonzero value rounds as it would in complex
arithmetic.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dirac import SpinorField, dirac_residual_norm
from .grid import (ComplexField, Grid2D, antiderivative, integrate2d, masked_max_abs,
                   real_wirtinger_z)


class SurfaceIntegrationError(RuntimeError):
    pass


@dataclass
class SurfaceMap:
    """R^3- or R^4-valued map over a grid; coords has shape (dim, ny, nx)."""

    grid: Grid2D
    coords: np.ndarray
    basepoint: np.ndarray
    mask: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        self.basepoint = np.asarray(self.basepoint, dtype=float)
        if self.coords.ndim != 3 or self.coords.shape[0] not in (3, 4):
            raise ValueError("coords must have shape (3 or 4, ny, nx)")

    @property
    def ambient_dim(self) -> int:
        return self.coords.shape[0]

    def diameter(self) -> float:
        spans = [np.ptp(self.coords[k]) for k in range(self.ambient_dim)]
        return float(np.sqrt(np.sum(np.square(spans))))


@dataclass
class MetricData:
    """Conformal factor e^{2 alpha}."""

    e2alpha: np.ndarray


def weier_derivatives(psi: SpinorField, phi: SpinorField | None = None):
    """The four x^k_z fields as (4, ny, nx) complex array."""
    if phi is None:
        phi = psi
    (p1, p2), (f1, f2) = psi.values, phi.values
    f2b, p2b = np.conj(f2), np.conj(p2)
    x1 = 0.5j * (f2b * p2b + f1 * p1)
    x2 = 0.5 * (f2b * p2b - f1 * p1)
    x3 = 0.5 * (f2b * p1 + f1 * p2b)
    x4 = 0.5j * (f2b * p1 - f1 * p2b)
    return np.stack([x1, x2, x3, x4])


def integrate_surface_r4(psi: SpinorField, phi: SpinorField, basepoint=(0, 0, 0, 0),
                         base_node=None, U: ComplexField | None = None,
                         residual_tol: float = 1e-3) -> SurfaceMap:
    """Integrate the four closed forms to a surface in R^4.

    If U is supplied the Dirac residuals of psi (for D) and phi (for Dvee) are
    measured and a warning issued above residual_tol.  The L-path defect
    (x-first vs y-first) is recorded; above 0.02 max|x^k_z| it is an error.
    """
    grid = psi.grid
    if base_node is None:
        base_node = (grid.nx // 2, grid.ny // 2)
    if U is not None:
        rd = dirac_residual_norm(U, psi, interior=1)
        rv = dirac_residual_norm(U, phi, interior=1, vee=True)
        scale = max(psi.max_abs(), phi.max_abs(), 1.0)
        if max(rd, rv) > residual_tol * scale:
            warnings.warn(f"Dirac residuals large before integration: D {rd:.3g}, Dvee {rv:.3g}")
    xz = weier_derivatives(psi, phi)
    gx, gy = 2.0 * xz.real, -2.0 * xz.imag          # the real forms x^k_z dz + c.c.
    coords = antiderivative(grid, gx, gy, base_node, "x_first")
    alt = antiderivative(grid, gx, gy, base_node, "y_first")
    maxdef = float(np.max(np.abs(coords - alt)))
    # valid spinor data sit orders of magnitude below this (O(h^2) defect)
    defect_tol = 0.02 * max(float(np.max(np.abs(xz))), 1e-300)
    if maxdef > defect_tol:
        raise SurfaceIntegrationError(
            f"path-dependence defect {maxdef:.3g} exceeds {defect_tol:.3g}; form not closed")
    ix0, iy0 = base_node
    coords = coords - coords[:, iy0, ix0][:, None, None] + np.asarray(basepoint, float)[:, None, None]
    return SurfaceMap(grid, coords, np.asarray(basepoint, float),
                      diagnostics={"path_defect": maxdef, "base_node": tuple(base_node)})


def integrate_surface_r3(psi: SpinorField, U: ComplexField | None = None,
                         residual_tol: float = 1e-3) -> SurfaceMap:
    """R^3 Weierstrass representation: the phi = psi reduction (x^4 is constant),
    anchored to the origin at the centre node."""
    s4 = integrate_surface_r4(psi, psi, U=U, residual_tol=residual_tol)
    x4span = float(np.ptp(s4.coords[3]))
    diag = dict(s4.diagnostics, x4_span=x4span)
    return SurfaceMap(s4.grid, s4.coords[:3], s4.basepoint[:3], s4.mask, diag)


def spinor_metric(psi: SpinorField, phi: SpinorField | None = None) -> MetricData:
    """e^{2 alpha} from the spinors: (|psi1|^2+|psi2|^2) (|phi1|^2+|phi2|^2)."""
    a = np.abs(psi.psi1.values) ** 2 + np.abs(psi.psi2.values) ** 2
    b = a if phi is None else np.abs(phi.psi1.values) ** 2 + np.abs(phi.psi2.values) ** 2
    return MetricData(a * b)


def surface_dz(S: SurfaceMap) -> np.ndarray:
    """(dim, ny, nx) array of x^k_z, from the central differences of the map."""
    return np.stack([real_wirtinger_z(S.grid, c) for c in S.coords])


def measured_e2alpha(S: SurfaceMap) -> np.ndarray:
    """Conformal factor from the map itself: 2 sum_k |x^k_z|^2."""
    xz = surface_dz(S)
    return 2.0 * np.sum(np.abs(xz) ** 2, axis=0)


@dataclass
class GaussMapResult:
    points: np.ndarray                      # (dim, ny, nx), normalized representative
    rel_residual: float                     # max |sum_k (x^k_z)^2| / sum_k |x^k_z|^2
    spinor_ratio: np.ndarray | None = None  # (2, ny, nx) projective (a : b), dim 3 only


def gauss_map(S: SurfaceMap) -> GaussMapResult:
    """Per-node projective point (x^1_z : ... : x^n_z) with quadric residual."""
    xz = surface_dz(S)
    norm2 = np.sum(np.abs(xz) ** 2, axis=0)
    scale = float(norm2.max())
    degenerate = norm2 <= 1e-12 * max(scale, 1.0)
    amp = np.sqrt(np.where(degenerate, 1.0, norm2))
    points = xz / amp
    quad = np.sum(xz * xz, axis=0)
    ok = ~degenerate
    rel = float(np.max(np.abs(quad)[ok] / norm2[ok])) if ok.any() else 0.0
    spinor = None
    if S.ambient_dim == 3:
        z1, z2, z3 = xz
        a2 = -1j * z1 - z2
        b2 = -1j * z1 + z2
        use_a = np.abs(a2) >= np.abs(b2)
        top = np.where(use_a, a2, z3)
        bot = np.where(use_a, z3, b2)
        spinor = np.stack([top, bot])
    return GaussMapResult(points, rel, spinor)


def willmore(U: ComplexField) -> float:
    """Willmore value 4 * int |U|^2 dx dy over the grid.

    A truncation warning with a |U| ~ C/r^2 tail estimate is issued when the
    field has not decayed at the open (non-periodic) edges; the edge and interior
    maxima skip masked nodes."""
    val = 4.0 * integrate2d(U.abs2().patched()).real
    v, m = U.values, U.mask

    def side(s):
        return masked_max_abs(v[s], None if m is None else m[s])

    edges = []
    if not U.grid.periodic_y:
        edges += [side(np.s_[0, :]), side(np.s_[-1, :])]
    if not U.grid.periodic_x:
        edges += [side(np.s_[:, 0]), side(np.s_[:, -1])]
    boundary = max(edges) if edges else 0.0
    interior = U.max_abs()
    if interior > 0 and boundary > 1e-3 * interior:
        gr = U.grid
        r2 = max(gr.x_max - gr.x_min, gr.y_max - gr.y_min) / 2
        tail = 4 * np.pi * boundary**2 * r2**2
        warnings.warn(f"|U| at open boundary is {boundary:.3g}; truncation tail est {tail:.3g}")
    return val


# ---------------------------------------------------------------------------
# discrete mean curvature


def discrete_mean_curvature(S: SurfaceMap) -> np.ndarray:
    """Mean curvature from the map alone, through its fundamental forms.

    With P_x, P_y, P_xx, P_xy, P_yy from np.gradient (second order), E, F, G the
    first fundamental form and W = EG - F^2, the mean curvature vector is the
    normal part of A = (G P_xx - 2F P_xy + E P_yy) / (2W); the tangent part
    a P_x + b P_y solves [[E, F], [F, G]] (a, b) = (A.P_x, A.P_y).  No conformal
    parametrization is assumed.  R^3: the signed H.n with n = P_x x P_y / sqrt(W);
    R^4: |H|.  NaN on a 2-node border (its stencils reach the one-sided edge
    differences), at masked nodes and where W <= 1e-12 max W.
    """
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


# ---------------------------------------------------------------------------
# quaternionic inversion and the S-matrix coordinate dictionary


def smatrix_to_surface(M: SpinorField) -> SurfaceMap:
    """The (4, ny, nx) surface read from S-matrix columns (a, b): x1 = Re b,
    x2 = -Im b, x3 = Im a, x4 = Re a; its basepoint is the centre node's point."""
    a, b = M.values
    coords = np.stack([b.real, -b.imag, a.imag, a.real])
    return SurfaceMap(M.grid, coords, coords[:, M.grid.ny // 2, M.grid.nx // 2], M.mask)


def invert_surface(S: SurfaceMap) -> SurfaceMap:
    """Quaternionic inversion x -> reflection(x) / |x|^2, i.e. the matrix inverse
    of the S-matrix; equals inversion composed with (x1,x2,x3,x4)->(-x1,-x2,-x3,x4)."""
    dim = S.ambient_dim
    c = S.coords
    norm2 = np.sum(c * c, axis=0)
    eps = 1e-9 * max(S.diameter(), 1e-300)
    bad = norm2 < eps * eps
    safe = np.where(bad, 1.0, norm2)
    out = np.empty_like(c)
    out[0] = -c[0] / safe
    out[1] = -c[1] / safe
    out[2] = -c[2] / safe
    if dim == 4:
        out[3] = c[3] / safe
    out[:, bad] = 0.0
    mask = bad | (S.mask if S.mask is not None else False)
    ix0, iy0 = S.grid.nx // 2, S.grid.ny // 2
    return SurfaceMap(S.grid, out, out[:, iy0, ix0].copy(),
                      mask if np.any(mask) else None,
                      diagnostics={"inverted_from": True, "flagged": int(np.sum(bad))})
