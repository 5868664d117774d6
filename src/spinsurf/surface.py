"""Weierstrass integration of spinors to surfaces in R^3 / R^4, metric, Willmore,
Gauss map, discrete curvature and quaternionic inversion.

Coordinate derivative fields (the closed forms being integrated):

    x1_z = (i/2)(conj(phi2) conj(psi2) + phi1 psi1)
    x2_z = (1/2)(conj(phi2) conj(psi2) - phi1 psi1)
    x3_z = (1/2)(conj(phi2) psi1 + phi1 conj(psi2))
    x4_z = (i/2)(conj(phi2) psi1 - phi1 conj(psi2))

and x^k = int_P0 (x^k_z dz + conj(x^k_z) dzbar) from P0 = grid.centre; the R^3
case is phi = psi (then x4_z vanishes identically).

The forms and the maps are real, so they are integrated and differentiated in
real arithmetic: x^k = int_P0 (2 Re x^k_z dx - 2 Im x^k_z dy) by
grid.antiderivative on real arrays.  e^{2 alpha}, the Gauss map and the mean
curvature read one first fundamental form (fundamental_form, on grid.partials):
x^k_z = (x^k_x - i x^k_y) / 2, so sum_k |x^k_z|^2 = (E + G) / 4.
"""
from __future__ import annotations

import warnings

import numpy as np

from .dirac import SpinorField
from .grid import (ComplexField, Grid2D, antiderivative, axis_weights, constant_field,
                   field_from_function, grid_mask, masked_max_abs, partials)


class SurfaceIntegrationError(RuntimeError):
    pass


class SurfaceMap:
    """R^3- or R^4-valued map over a grid; coords has shape (dim, ny, nx) and mask,
    if given, (ny, nx).  Its basepoint is its point at grid.centre, the node the
    Weierstrass forms are integrated from."""

    grid: Grid2D
    coords: np.ndarray
    mask: np.ndarray | None
    diagnostics: dict

    def __init__(self, grid, coords, mask=None, diagnostics=None):
        self.grid = grid
        self.coords = np.asarray(coords, dtype=float)
        if self.coords.ndim != 3 or self.coords.shape[0] not in (3, 4):
            raise ValueError("coords must have shape (3 or 4, ny, nx)")
        self.mask = grid_mask(grid, mask)
        self.diagnostics = {} if diagnostics is None else diagnostics

    @property
    def basepoint(self) -> np.ndarray:
        ix, iy = self.grid.centre
        return self.coords[:, iy, ix]

    @property
    def ambient_dim(self) -> int:
        return self.coords.shape[0]

    def diameter(self) -> float:
        spans = [np.ptp(self.coords[k]) for k in range(self.ambient_dim)]
        return float(np.sqrt(np.sum(np.square(spans))))


_R = 1 / np.sqrt(2.0)

# the named spinor data (gen-surface --spinor): the plane, Enneper's surface and
# the catenoid, whose surface closes up over a period 2 pi in y
SPINORS = {
    "plane": lambda g: (constant_field(g, 1.0), constant_field(g, 0.0)),
    "enneper": lambda g: (constant_field(g, 1.0), field_from_function(g, np.conj)),
    "catenoid": lambda g: (field_from_function(g, lambda z: _R * np.exp(z / 2)),
                           field_from_function(g, lambda z: _R * np.exp(-np.conj(z) / 2))),
}


def named_spinor(name: str, grid: Grid2D) -> SpinorField:
    """The SPINORS datum name on grid; KeyError for an unknown name."""
    return SpinorField(*SPINORS[name](grid))


def weier_derivatives(psi: SpinorField, phi: SpinorField):
    """The four x^k_z fields as (4, ny, nx) complex array."""
    (p1, p2), (f1, f2) = psi.values, phi.values
    f2b, p2b = np.conj(f2), np.conj(p2)
    x1 = 0.5j * (f2b * p2b + f1 * p1)
    x2 = 0.5 * (f2b * p2b - f1 * p1)
    x3 = 0.5 * (f2b * p1 + f1 * p2b)
    x4 = 0.5j * (f2b * p1 - f1 * p2b)
    return np.stack([x1, x2, x3, x4])


def integrate_surface_r4(psi: SpinorField, phi: SpinorField) -> SurfaceMap:
    """Integrate the four closed forms to a surface in R^4, 0 at grid.centre.

    The L-path defect (x-first vs y-first) is recorded; above 0.02 max|x^k_z| it
    is an error.  Whether psi and phi solve the Dirac equations is not checked
    here: gen-surface checks its spinors against the zero potential before it
    integrates them.
    """
    grid = psi.grid
    xz = weier_derivatives(psi, phi)
    gx, gy = 2.0 * xz.real, -2.0 * xz.imag          # the real forms x^k_z dz + c.c.
    coords = antiderivative(grid, gx, gy, "x_first")
    alt = antiderivative(grid, gx, gy, "y_first")
    maxdef = float(np.max(np.abs(coords - alt)))
    # valid spinor data sit orders of magnitude below this (O(h^2) defect)
    defect_tol = 0.02 * max(float(np.max(np.abs(xz))), 1e-300)
    if not maxdef <= defect_tol:                    # NaN fails too
        raise SurfaceIntegrationError(
            f"path-dependence defect {maxdef:.3g} exceeds {defect_tol:.3g}; form not closed")
    return SurfaceMap(grid, coords, diagnostics={"path_defect": maxdef, "base_node": grid.centre})


def integrate_surface_r3(psi: SpinorField) -> SurfaceMap:
    """R^3 Weierstrass representation: the phi = psi reduction (x^4 is constant),
    anchored to the origin at the centre node."""
    s4 = integrate_surface_r4(psi, psi)
    x4span = float(np.ptp(s4.coords[3]))
    diag = dict(s4.diagnostics, x4_span=x4span)
    return SurfaceMap(s4.grid, s4.coords[:3], s4.mask, diag)


def spinor_metric(psi: SpinorField, phi: SpinorField | None = None) -> np.ndarray:
    """e^{2 alpha} from the spinors: (|psi1|^2+|psi2|^2) (|phi1|^2+|phi2|^2)."""
    a = np.abs(psi.psi1.values) ** 2 + np.abs(psi.psi2.values) ** 2
    b = a if phi is None else np.abs(phi.psi1.values) ** 2 + np.abs(phi.psi2.values) ** 2
    return a * b


def fundamental_form(S: SurfaceMap):
    """(P_x, P_y, E, F, G): the map's partials, (dim, ny, nx) each, from
    grid.partials, and its first fundamental form E = P_x.P_x, F = P_x.P_y,
    G = P_y.P_y, (ny, nx) each."""
    Px, Py = partials(S.grid, S.coords)
    return Px, Py, np.sum(Px * Px, axis=0), np.sum(Px * Py, axis=0), np.sum(Py * Py, axis=0)


def measured_e2alpha(S: SurfaceMap) -> np.ndarray:
    """Conformal factor from the map itself: 2 sum_k |x^k_z|^2 = (E + G) / 2."""
    _, _, E, _, G = fundamental_form(S)
    return (E + G) / 2


def gauss_map(S: SurfaceMap) -> float:
    """The quadric residual of the projective Gauss map (x^1_z : ... : x^n_z),
    max |sum_k (x^k_z)^2| / sum_k |x^k_z|^2 = max |E - G - 2i F| / (E + G): zero
    for a conformal map.  Nodes where E + G <= 1e-12 max(max(E + G), 4) (x_z
    vanishes) are left out.  The edge nodes of an open axis are not, so the
    one-sided differences taken there can set the maximum (on the README's
    surfaces they do)."""
    _, _, E, F, G = fundamental_form(S)
    norm = E + G
    ok = ~(norm <= 1e-12 * max(float(norm.max()), 4.0))
    return float(np.max(np.hypot(E - G, 2 * F)[ok] / norm[ok])) if ok.any() else 0.0


def willmore(U: ComplexField) -> float:
    """Willmore value 4 * int |U|^2 dx dy over the grid, by the trapezoid rule (the
    rectangle rule along periodic axes), each masked node holding its patch.

    A truncation warning with a |U| ~ C/r^2 tail estimate is issued when the
    field has not decayed at the open (non-periodic) edges; the edge and interior
    maxima skip masked nodes."""
    g, v, m = U.grid, U.values, U.mask
    weighted = U.abs2().patched().values * axis_weights(g.nx, g.hx, g.periodic_x)
    weighted *= axis_weights(g.ny, g.hy, g.periodic_y)[:, None]
    val = 4.0 * float(np.sum(weighted).real)

    def side(s):
        return masked_max_abs(v[s], None if m is None else m[s])

    edges = []
    if not g.periodic_y:
        edges += [side(np.s_[0, :]), side(np.s_[-1, :])]
    if not g.periodic_x:
        edges += [side(np.s_[:, 0]), side(np.s_[:, -1])]
    boundary = max(edges) if edges else 0.0
    interior = U.max_abs()
    if interior > 0 and boundary > 1e-3 * interior:
        r2 = max(g.x_max - g.x_min, g.y_max - g.y_min) / 2
        tail = 4 * np.pi * boundary**2 * r2**2
        warnings.warn(f"|U| at open boundary is {boundary:.3g}; truncation tail est {tail:.3g}")
    return val


# ---------------------------------------------------------------------------
# discrete mean curvature


def discrete_mean_curvature(S: SurfaceMap) -> np.ndarray:
    """Mean curvature from the map alone, through its fundamental forms.

    With P_x, P_y, E, F, G from fundamental_form, P_xx, P_xy, P_yy the partials
    of P_x and P_y by the same differences and W = EG - F^2, the mean curvature
    vector is the normal part of A = (G P_xx - 2F P_xy + E P_yy) / (2W); the
    tangent part a P_x + b P_y solves [[E, F], [F, G]] (a, b) = (A.P_x, A.P_y).
    No conformal parametrization is assumed.  R^3: the signed H.n with
    n = P_x x P_y / sqrt(W); R^4: |H|.  NaN on a 2-node border along each open
    axis (its stencils reach the one-sided edge differences), none along a
    periodic one, at masked nodes and where W <= 1e-12 max W.
    """
    g = S.grid
    Px, Py, E, F, G = fundamental_form(S)
    Pxx, Pxy = partials(g, Px)
    Pyy = partials(g, Py)[1]
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
    if not g.periodic_y:
        H[:2, :] = H[-2:, :] = np.nan
    if not g.periodic_x:
        H[:, :2] = H[:, -2:] = np.nan
    if S.mask is not None:
        H[S.mask] = np.nan
    return H


# ---------------------------------------------------------------------------
# quaternionic inversion and the S-matrix coordinate dictionary


def smatrix_to_surface(M: SpinorField) -> SurfaceMap:
    """The (4, ny, nx) surface read from S-matrix columns (a, b): x1 = Re b,
    x2 = -Im b, x3 = Im a, x4 = Re a; its basepoint reads S at grid.centre."""
    a, b = M.values
    return SurfaceMap(M.grid, np.stack([b.real, -b.imag, a.imag, a.real]), M.mask)


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
    return SurfaceMap(S.grid, out, mask if np.any(mask) else None,
                      diagnostics={"inverted_from": True, "flagged": int(np.sum(bad))})
