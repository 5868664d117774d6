"""Quaternionic Moutard transformation: the forms omega / omega1, the surface
matrix S, the K matrix, transformed spinors and DSII potential updates.

Fixed conventions (selected by requiring closedness of omega and the recovery
of the heat-polynomial potentials, see tests):

    Gamma = [[0, 1], [-1, 0]],  P1 = diag(1, 0),  P2 = diag(0, 1)
    X^T   = plain matrix transpose inside omega and K (the conjugate-transpose
            candidate fails closedness; the tests build it to show so)
    omega(Phi,Psi)  = -(i/2)(Phi^T s3 Psi + Phi^T Psi) dz
                      -(i/2)(Phi^T s3 Psi - Phi^T Psi) dzbar
                    = -i Phi^T P1 Psi dz + i Phi^T P2 Psi dzbar
    omega1(Phi,Psi) = (Phi_z^T P1 + Phi_zbar^T P2) Psi - Phi^T (P1 Psi_z + P2 Psi_zbar)
    S(Phi,Psi)      = Gamma * int omega  (+ Gamma * int omega1 dt when
                      time-augmented), + integration constant
    K(Phi,Psi)      = Psi S^-1 Gamma Phi^T Gamma^-1 = Psi S^-1 Phi^*
                    = [[i conj(W), a], [-conj(a), -i W]]
    U~ = U + W,  V~ = V + 2 i a_z.

Storage: one quaternion algebra throughout.  The spinors psi, phi are their
quaternion extensions Psi, Phi, and S, S^-1 and K are quaternions
[[a, -conj(b)], [b, conj(a)]] per node too; each is held as its column (a, b), a
SpinorField on the grid and an exactpoly.RQuat in the exact layer.  Gamma omega1
is a quaternion, and so are the x and y parts of Gamma omega, dz + dzbar and
i(dz - dzbar): omega returns column 0 of Gamma omega as the 1-forms of its two
entries (its dz and dzbar parts alone are not quaternions), omega1 returns
column 0 of Gamma omega1 as a SpinorField, and build_S integrates the two
entries of omega.  The one general 2x2 value entering quaternion storage,
build_S's integration constant, is checked for the quaternion pattern there, and
a violation raises NormalizationError.

Exact layer: for a heat-polynomial background, moutard_exact forms the chain
in exactpoly.RQuat, and the closed-form spinors (heat_datum_spinors, the
transformed and inverted spinors of ExactMoutardData) are RQuats that reach a
grid through RQuat.on_grid; heat_datum_fields is the sampled heat_datum_spinors.

Swapped-order time term: omega1 is antisymmetric under argument swap combined
with transposition, so the augmented partner matrix is S(Psi,Phi) =
Gamma S(Phi,Psi)^T Gamma = -S(Phi,Psi)^*, which is exactly the
normalization condition required of the pair.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dirac import SpinorField, quaternion_defect
from .exactpoly import BiPoly, RQuat, RationalFn, T, Z, ZBAR, heat_extend
from .grid import (ComplexField, Form1, Grid2D, antiderivative,
                   closedness_defect, save_nodes_csv, wirtinger_derivative)


class ClosednessError(RuntimeError):
    pass


class NormalizationError(RuntimeError):
    pass


PATTERN_TOL = 1e-8        # quaternion-pattern defect allowed, relative to max(|value|, 1)
_MIN_DET = 1e-12          # S^-1 masks nodes with det S below this x max(|S|, 1)^2


def _check_quaternion(m: np.ndarray, what: str):
    """NormalizationError unless the 2x2 matrix m, about to be stored as its column 0,
    is a quaternion to PATTERN_TOL x max(|m|, 1)."""
    defect = quaternion_defect(m)
    scale = max(float(np.max(np.abs(m))), 1.0)
    if not defect <= PATTERN_TOL * scale:             # NaN fails too
        raise NormalizationError(f"{what} is not a quaternion [[a, -conj(b)], [b, conj(a)]]: "
                                 f"defect {defect:.3g} (tol {PATTERN_TOL * scale:.3g})")


def omega(Phi: SpinorField, Psi: SpinorField) -> tuple[Form1, Form1]:
    """Column 0 of Gamma omega(Phi, Psi), as the 1-forms of its entries (a, b): with
    Phi = (pa, pb), Psi = (sa, sb),
        a = i conj(pb) sa dz + i conj(pa) sb dzbar,  b = i pa sa dz - i pb sb dzbar.
    Column 1 is (-conj(b), conj(a)) as 1-forms, so its closedness defect and
    integral are those of column 0 by symmetry."""
    grid, mask = Phi.grid, Phi._mask_with(Psi)         # GridConfigError on a grid mismatch
    (pa, pb), (sa, sb) = Phi.values, Psi.values
    return tuple(Form1(ComplexField(grid, dz, mask), ComplexField(grid, dzb, mask))
                 for dz, dzb in ((_product(1j, np.conj(pb), sa), _product(1j, np.conj(pa), sb)),
                                 (_product(1j, pa, sa), _product(-1j, pb, sb))))


def omega1(Phi: SpinorField, Psi: SpinorField) -> SpinorField:
    """Column 0 of Gamma omega1(Phi, Psi), the dt part of S's time augmentation:
    (m1, -m0), m0 and m1 being the entries (0, 0) and (1, 0) of omega1.
    With Phi = (pa, pb), Psi = (sa, sb) and conj(f)_z = conj(f_zbar),
        m0 = pa_z sa + pb_zbar sb - (pa sa_z + pb sb_zbar),
        m1 = conj(pa_z) sb - conj(pb_zbar) sa - (conj(pa) sb_zbar - conj(pb) sa_z)."""
    grid, mask = Phi.grid, Phi._mask_with(Psi)
    paz, saz = (wirtinger_derivative(X.psi1, "z").values for X in (Phi, Psi))
    pbzb, sbzb = (wirtinger_derivative(X.psi2, "zbar").values for X in (Phi, Psi))
    (pa, pb), (sa, sb) = Phi.values, Psi.values
    m0 = (paz * sa + pbzb * sb) - (pa * saz + pb * sbzb)
    m1 = (np.conj(paz) * sb - np.conj(pbzb) * sa) - (np.conj(pa) * sbzb - np.conj(pb) * saz)
    return SpinorField.from_values(grid, np.stack([m1, -m0]), mask)


@dataclass
class SMatrix:
    """Integrated surface matrix S = Gamma * int(omega [+ omega1 dt]) + constant."""

    S: SpinorField
    constant: np.ndarray
    base_node: tuple
    time_augmented: bool = False
    loop_defect: float = 0.0

    @property
    def grid(self) -> Grid2D:
        return self.S.grid

    def det(self) -> ComplexField:
        return self.S.det()

    def to_json(self) -> str:
        g, S = self.grid, self.S.mat()
        payload = {
            "grid": g.meta(),
            "base_node": list(self.base_node),
            "constant": [[_c2l(self.constant[i, j]) for j in range(2)] for i in range(2)],
            "time_augmented": self.time_augmented,
            "loop_defect": self.loop_defect,
            "entries": {f"e{i + 1}{j + 1}": [S.values[i, j].real.tolist(),
                                             S.values[i, j].imag.tolist()]
                        for i in range(2) for j in range(2)},
        }
        return json.dumps(payload)


def _c2l(v):
    return [float(np.real(v)), float(np.imag(v))]


def build_S(Phi: SpinorField, Psi: SpinorField, base_node=None, constant=None,
            time_offset: np.ndarray | None = None) -> SMatrix:
    """Spatial integration of Gamma * omega(Phi, Psi) along L-paths.

    `constant` is the value added after anchoring the integral to zero at the
    base node; `time_offset` adds the accumulated Gamma * int omega1 dt
    contribution when assembling a time-augmented S at fixed t.  Their sum must
    be a quaternion (NormalizationError otherwise).

    Only column 0 of Gamma omega, what omega returns, is checked and integrated.
    """
    grid = Phi.grid
    if base_node is None:
        base_node = (grid.nx // 2, grid.ny // 2)
    C = np.zeros((2, 2), dtype=complex) if constant is None else np.asarray(constant, complex)
    if time_offset is not None:
        C = C + np.asarray(time_offset, dtype=complex)
    _check_quaternion(C, "S constant")
    forms = omega(Phi, Psi)
    defect = max(closedness_defect(f) for f in forms)
    scale = max([1.0] + [c.max_abs() for f in forms for c in (f.p, f.q)])
    defect_tol = 100.0 * max(grid.hx, grid.hy) ** 2
    if not defect <= defect_tol * scale:              # NaN fails too
        raise ClosednessError(f"omega not closed: defect {defect:.3g} (tol {defect_tol * scale:.3g})")
    vals = np.empty((2, grid.ny, grid.nx), dtype=complex)
    for k, form in enumerate(forms):
        np.add(antiderivative(form, base_node).values, C[k, 0], out=vals[k])
    return SMatrix(SpinorField.from_values(grid, vals, forms[0].p.mask), C, tuple(base_node),
                   time_augmented=time_offset is not None, loop_defect=defect)


def _product(c: complex, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c * x * y, left to right, in one buffer."""
    out = c * x
    out *= y
    return out


def time_offset_integral(phi_of_t, psi_of_t, t_grid, base_node) -> np.ndarray:
    """Gamma * int_0^T omega1 dt at the base node, trapezoid over the t samples.

    phi_of_t / psi_of_t map a time to the spinors.
    """
    ix, iy = base_node
    vals = [omega1(phi_of_t(t), psi_of_t(t)).at(ix, iy) for t in t_grid]
    return np.trapezoid(vals, t_grid, axis=0)


def normalize_S_pair(SA: SMatrix, SB: SMatrix):
    """Adjust SB's constant so Gamma SA^-1 Gamma = (SB^-1)^T, i.e.
    SB = Gamma SA^T Gamma = -SA^* (the quaternion conjugate).

    Returns (SB_adjusted, C, residual).  The optimal constant is the mean of
    -SA^* - SB over the grid (closed-form least squares).
    """
    target = SpinorField.from_values(SA.grid, -SA.S.conj().values, SA.S.mask)
    ca, cb = (target - SB.S).values.mean(axis=(1, 2))
    C = np.array([[ca, -np.conj(cb)], [cb, np.conj(ca)]])
    S = SpinorField.from_values(SB.grid, SB.S.values + np.array([ca, cb])[:, None, None], SB.S.mask)
    SBn = SMatrix(S, SB.constant + C, SB.base_node, SB.time_augmented, SB.loop_defect)
    res = (target - S).max_abs()
    scale = max(SA.S.max_abs(), 1.0)
    if res > 1e-8 * scale:
        raise NormalizationError(f"normalization residual {res:.3g} exceeds 1e-08 x scale")
    return SBn, C, res


@dataclass
class KData:
    """W and a extracted from K = Psi S^-1 Gamma Phi^T Gamma^-1."""

    W: ComplexField
    a: ComplexField


def k_matrix(Psi: SpinorField, S: SMatrix | SpinorField, Phi: SpinorField) -> KData:
    """Extract (W, a) from K = Psi S^-1 Phi^* = [[i conj(W), a], [-conj(a), -i W]]."""
    Sm = S.S if isinstance(S, SMatrix) else S
    return _kdata(Psi, Sm.inv(min_det=_MIN_DET * max(Sm.max_abs(), 1.0) ** 2), Phi)


def _kdata(Psi: SpinorField, Sinv: SpinorField, Phi: SpinorField) -> KData:
    """(W, a) of K = Psi S^-1 Phi^* from S^-1."""
    K = Psi @ Sinv @ Phi.conj()
    ka, kb = K.values
    W = ComplexField(Sinv.grid, 1j * np.conj(ka), K.mask)
    a = ComplexField(Sinv.grid, -np.conj(kb), K.mask)
    return KData(W, a)


# ---------------------------------------------------------------------------
# the transformation


@dataclass
class MoutardTransform:
    """Context for transforming solutions on a fixed background (Psi0, Phi0)."""

    Psi0: SpinorField                  # the caller's background spinors, not copied
    Phi0: SpinorField
    S0: SMatrix                        # S(Phi0, Psi0), invertible where used
    SB0: SMatrix                       # S(Psi0, Phi0), normalized partner
    kdata: KData
    S0_inv: SpinorField                # S0^-1 and SB0^-1, nodes with det below
    SB0_inv: SpinorField               # _MIN_DET max(|S0|, 1)^2 masked

    @classmethod
    def from_background(cls, psi0: SpinorField, phi0: SpinorField, constant0,
                        base_node=None, time_offset=None) -> "MoutardTransform":
        S0 = build_S(phi0, psi0, base_node=base_node, constant=constant0,
                     time_offset=time_offset)
        SB0, _, _ = normalize_S_pair(S0, build_S(psi0, phi0, base_node=S0.base_node))
        eps = _MIN_DET * max(S0.S.max_abs(), 1.0) ** 2      # as in k_matrix
        S0_inv = S0.S.inv(min_det=eps)
        kdata = _kdata(psi0, S0_inv, phi0)
        return cls(psi0, phi0, S0, SB0, kdata, S0_inv, SB0.S.inv(min_det=eps))

    def transform(self, psi: SpinorField, phi: SpinorField, constP=None,
                  constBP=None) -> tuple[SpinorField, SpinorField]:
        """Moutard-transform another solution pair of the same background.

        The integration constants of S(Phi0, Psi) / S(Psi0, Phi) default to the
        right-linear extension C0 * Psi0(b)^-1 Psi(b), which makes the map
        linear in (Psi, Phi) and annihilates the background pair exactly;
        any other quaternion constant shifts the output by another solution.
        """
        return (_transform_side(self.Phi0, self.Psi0, self.S0, self.S0_inv, psi, constP),
                _transform_side(self.Psi0, self.Phi0, self.SB0, self.SB0_inv, phi, constBP))

    def transformed_potentials(self, U: ComplexField, V: ComplexField | None = None):
        return moutard_dsii(U, V, self.kdata)


def _transform_side(A0: SpinorField, B0: SpinorField, S: SMatrix, S_inv: SpinorField,
                    X: SpinorField, const) -> SpinorField:
    """X - B0 S^-1 S(A0, X): Psi~ from (Phi0, Psi0, S0) and Phi~ from (Psi0, Phi0,
    SB0).  One side at a time, so that the two sides' temporaries are never alive
    together."""
    if const is None:
        bx, by = S.base_node
        const = S.constant @ np.linalg.solve(B0.at(bx, by), X.at(bx, by))
    SX = build_S(A0, X, base_node=S.base_node, constant=const)
    return X - B0 @ S_inv @ SX.S


def moutard_spinors(psi0: SpinorField, phi0: SpinorField, psi: SpinorField,
                    phi: SpinorField, constant0, base_node=None):
    """One-shot wrapper: background + pair in, transformed pair out."""
    ctx = MoutardTransform.from_background(psi0, phi0, constant0, base_node)
    return ctx.transform(psi, phi)


def moutard_dsii(U: ComplexField | None, V: ComplexField | None, kdata: KData):
    """Potential update: U~ = U + W, V~ = V + 2 i a_z."""
    W, a = kdata.W, kdata.a
    Ut = W if U is None else U + W
    az = wirtinger_derivative(a, "z")
    Vt = 2j * az if V is None else V + 2j * az
    return Ut, Vt


def save_kdata_csv(kd: KData, csv_path):
    save_nodes_csv(csv_path, kd.W.grid, "ix,iy,reW,imW,rea,ima", kd.W.values, kd.a.values)


# ---------------------------------------------------------------------------
# exact (rational-arithmetic) layer for heat-polynomial backgrounds


def heat_antiderivative(f: BiPoly) -> BiPoly:
    """The heat z-antiderivative: F' = f, F_t = i F_zz, F(0, 0) = 0.

    The t-dependence is regenerated by heat_extend from f(., 0)."""
    f0 = BiPoly({k: v for k, v in f.coef.items() if k[2] == 0})
    prim = BiPoly({(k[0] + 1, 0, 0, k[3], k[4]): v / (k[0] + 1)
                   for k, v in f0.coef.items()})
    F = heat_extend(prim)
    if not (F.wirtinger("z") - f).is_zero(1e-12, max(f.max_abs(), 1.0)):
        raise ValueError("datum was not a heat polynomial")
    return F


@dataclass
class ExactMoutardData:
    """Closed-form Moutard chain for the trivial background with heat datum f; the
    spinors and matrices are quaternions stored as their column (a, b)."""

    f: BiPoly
    S0: RQuat
    K: RQuat
    W: RationalFn
    a: RationalFn
    Psi0: RQuat
    Phi0: RQuat

    def tilde_psi_for_linear_datum(self) -> RQuat:
        """Transformed spinor of psi = (z, 0) (anti-heat datum h = z)."""
        f = self.f
        F1 = heat_antiderivative(f)
        SP = RQuat(Z * Z * 0.5 - 1j * T, 1j * (Z * f - F1))
        return RQuat(Z, 0) - self.Psi0 @ self.S0.inv() @ SP

    def tilde_phi_for_identity_datum(self) -> RQuat:
        """Transformed phi = (1, 0) through the normalized partner matrix -S0^*."""
        return RQuat(1, 0) - self.Phi0 @ (-self.S0.conj()).inv() @ RQuat(1j * Z, 0)

    def inverted_surface_spinors(self) -> tuple[RQuat, RQuat]:
        """Psi0 S0^-1 and -Phi0 S0 / det S0."""
        Phis = -(self.Phi0 @ self.S0)
        det = self.S0.det()
        return self.Psi0 @ self.S0.inv(), RQuat(Phis.a / det, Phis.b / det)


def heat_datum_spinors(f: BiPoly) -> tuple[RQuat, RQuat]:
    """Background spinors of the graph surface of a heat polynomial:
    psi0 = (0, 1), phi0 = (f', i)."""
    return RQuat(BiPoly.zero(), 1), RQuat(f.wirtinger("z"), 1j * BiPoly.const(1.0))


def moutard_exact(f: BiPoly) -> ExactMoutardData:
    """Exact K-matrix chain on the trivial background for heat datum f.

    S0 = [[i conj(f), -z],[zbar, -i f]] closes the spatial and time parts of
    Gamma * int(omega + omega1) with zero constants; K = Psi0 S0^-1 Phi0^* then
    recovers the heat-polynomial potentials W = i(z f' - f)/rho,
    a = -i(zbar + f' conj(f))/rho.
    """
    S0 = RQuat(1j * f.conj(), ZBAR)
    Psi0, Phi0 = heat_datum_spinors(f)
    K = Psi0 @ S0.inv() @ Phi0.conj()
    return ExactMoutardData(f, S0, K, 1j * K.a.conj(), -K.b.conj(), Psi0, Phi0)


def heat_datum_fields(f: BiPoly, grid: Grid2D, t: float) -> tuple[SpinorField, SpinorField]:
    """heat_datum_spinors(f) sampled on a grid at time t."""
    psi0, phi0 = heat_datum_spinors(f)
    return psi0.on_grid(grid, t), phi0.on_grid(grid, t)


def heat_smatrix_values(f: BiPoly, grid: Grid2D, t: float) -> SpinorField:
    """Closed-form S(Phi0, Psi0) = [[i conj(f), -z],[zbar, -i f]] sampled on a grid,
    stored as its column (i conj(f), zbar); f is sampled by RationalFn.on_grid."""
    fv = RationalFn(f).on_grid(grid, t).values
    return SpinorField.from_values(grid, np.stack([1j * np.conj(fv), np.conj(grid.zmesh())]),
                                   None)
