"""Quaternionic Moutard transformation: the forms omega / omega1, the surface
matrix S, the K matrix, transformed spinors and DSII potential updates.

Fixed conventions (selected by requiring closedness of omega and the recovery
of the heat-polynomial potentials, see tests):

    Gamma = [[0, 1], [-1, 0]],  P1 = diag(1, 0),  P2 = diag(0, 1)
    X^T   = plain matrix transpose inside omega and K (the conjugate-transpose
            candidate fails closedness; omega keeps it behind a switch)
    omega(Phi,Psi)  = -(i/2)(Phi^T s3 Psi + Phi^T Psi) dz
                      -(i/2)(Phi^T s3 Psi - Phi^T Psi) dzbar
                    = -i Phi^T P1 Psi dz + i Phi^T P2 Psi dzbar
    S(Phi,Psi)      = Gamma * int omega  (+ Gamma * int omega1 dt when
                      time-augmented), + integration constant
    K(Phi,Psi)      = Psi S^-1 Gamma Phi^T Gamma^-1 = Psi S^-1 Phi^*
                    = [[i conj(W), a], [-conj(a), -i W]]
    U~ = U + W,  V~ = V + 2 i a_z.

Storage: the spinor extensions Psi, Phi, the matrices S, S^-1 and K and the
transformed spinors are quaternions [[a, -conj(b)], [b, conj(a)]] per node and
are held as QuatField (a, b).  The x and y parts of Gamma omega, dz + dzbar and
i(dz - dzbar), are quaternions too, so build_S forms and integrates column 0
of Gamma omega only; the dz and dzbar parts alone are not quaternions, so
omega, omega1 and MatForm1 stay general Mat2Field.  A general 2x2 value
entering quaternion storage (an integration constant, or an S sampled as a
Mat2Field) is checked for the quaternion pattern there, and a violation raises
NormalizationError.

Swapped-order time term: omega1 is antisymmetric under argument swap combined
with transposition, so the augmented partner matrix is S(Psi,Phi) =
Gamma S(Phi,Psi)^T Gamma = -S(Phi,Psi)^*, which is exactly the
normalization condition required of the pair.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dirac import GAMMA, Mat2Field, QuatField, SpinorField, quaternion_defect, quaternionize
from .exactpoly import (BiPoly, GAMMA_EXACT, RMat2, RationalFn, T, Z, ZBAR, _sample_mesh,
                        heat_extend)
from .grid import (ComplexField, Form1, Grid2D, _merge_masks, antiderivative,
                   closedness_defect, constant_field, save_nodes_csv, wirtinger_derivative)


class ClosednessError(RuntimeError):
    pass


class NormalizationError(RuntimeError):
    pass


_P1 = np.array([[1.0, 0.0], [0.0, 0.0]])
_P2 = np.array([[0.0, 0.0], [0.0, 1.0]])
PATTERN_TOL = 1e-8        # quaternion-pattern defect allowed, relative to max(|value|, 1)
_MIN_DET = 1e-12          # S^-1 masks nodes with det S below this x max(|S|, 1)^2


def _check_quaternion(m: np.ndarray, what: str, mask=None) -> float:
    """The quaternion-pattern defect of a general 2x2 value (one matrix, or one per
    node) about to be stored as its column 0; NormalizationError above tolerance."""
    defect = quaternion_defect(m, mask)
    if mask is not None:
        m = np.where(mask, 0.0, m)
    scale = max(float(np.max(np.abs(m))), 1.0)
    if not defect <= PATTERN_TOL * scale:             # NaN fails too
        raise NormalizationError(f"{what} is not a quaternion [[a, -conj(b)], [b, conj(a)]]: "
                                 f"defect {defect:.3g} (tol {PATTERN_TOL * scale:.3g})")
    return defect


@dataclass
class MatForm1:
    """Matrix-valued 1-form: dz and dzbar coefficient matrices."""

    dz: Mat2Field
    dzb: Mat2Field

    def form1(self, i: int, j: int) -> Form1:
        return Form1(self.dz.entry(i, j), self.dzb.entry(i, j))

    def max_closedness_defect(self) -> float:
        return max(closedness_defect(self.form1(i, j))
                   for i in range(2) for j in range(2))


def omega(Phi: QuatField, Psi: QuatField, convention: str = "transpose") -> MatForm1:
    """The closed matrix 1-form pairing Phi and Psi, as general matrices."""
    if Phi.grid != Psi.grid:
        raise ValueError("grid mismatch")
    Pt = Phi.mat().transpose()
    if convention == "conj_transpose":
        Pt = Mat2Field(Pt.grid, np.conj(Pt.values), Pt.mask)
    elif convention != "transpose":
        raise ValueError(f"unknown convention {convention!r}")
    g, Psi = Phi.grid, Psi.mat()
    dz = Pt @ (Mat2Field.constant(g, -1j * _P1) @ Psi)
    dzb = Pt @ (Mat2Field.constant(g, 1j * _P2) @ Psi)
    return MatForm1(dz, dzb)


def omega1(Phi: QuatField, Psi: QuatField) -> Mat2Field:
    """dt coefficient of the time augmentation of S(Phi, Psi)."""
    Phi, Psi = Phi.mat(), Psi.mat()
    P1 = Mat2Field.constant(Phi.grid, _P1)
    P2 = Mat2Field.constant(Phi.grid, _P2)
    left = (Phi.wirtinger("z").transpose() @ P1
            + Phi.wirtinger("zbar").transpose() @ P2) @ Psi
    right = Phi.transpose() @ (P1 @ Psi.wirtinger("z")
                               + P2 @ Psi.wirtinger("zbar"))
    return left - right


@dataclass
class SMatrix:
    """Integrated surface matrix S = Gamma * int(omega [+ omega1 dt]) + constant."""

    S: QuatField
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


def build_S(Phi: QuatField, Psi: QuatField, base_node=None, constant=None,
            time_offset: np.ndarray | None = None) -> SMatrix:
    """Spatial integration of Gamma * omega(Phi, Psi) along L-paths.

    `constant` is the value added after anchoring the integral to zero at the
    base node; `time_offset` adds the accumulated Gamma * int omega1 dt
    contribution when assembling a time-augmented S at fixed t.  Their sum must
    be a quaternion (NormalizationError otherwise).

    Only column 0 of Gamma omega is formed and integrated: with
    Phi = (pa, pb), Psi = (sa, sb) it is (i conj(pb) sa dz + i conj(pa) sb dzbar,
    i pa sa dz - i pb sb dzbar).  Column 1 is (-conj, conj) of it as a 1-form, so
    its closedness defect and integral are those of column 0 by symmetry.
    """
    grid = Phi.grid
    if Psi.grid != grid:
        raise ValueError("grid mismatch")
    if base_node is None:
        base_node = (grid.nx // 2, grid.ny // 2)
    C = np.zeros((2, 2), dtype=complex) if constant is None else np.asarray(constant, complex)
    if time_offset is not None:
        C = C + np.asarray(time_offset, dtype=complex)
    _check_quaternion(C, "S constant")
    mask = _merge_masks(Phi.mask, Psi.mask)
    (pa, pb), (sa, sb) = Phi.values, Psi.values
    forms = [Form1(ComplexField(grid, dz, mask), ComplexField(grid, dzb, mask))
             for dz, dzb in ((_product(1j, np.conj(pb), sa), _product(1j, np.conj(pa), sb)),
                             (_product(1j, pa, sa), _product(-1j, pb, sb)))]
    defect = max(closedness_defect(f) for f in forms)
    scale = max([1.0] + [c.max_abs() for f in forms for c in (f.p, f.q)])
    defect_tol = 100.0 * max(grid.hx, grid.hy) ** 2
    if not defect <= defect_tol * scale:              # NaN fails too
        raise ClosednessError(f"omega not closed: defect {defect:.3g} (tol {defect_tol * scale:.3g})")
    vals = np.empty((2, grid.ny, grid.nx), dtype=complex)
    for k, form in enumerate(forms):
        np.add(antiderivative(form, base_node).values, C[k, 0], out=vals[k])
    return SMatrix(QuatField(grid, vals, mask), C, tuple(base_node),
                   time_augmented=time_offset is not None, loop_defect=defect)


def _product(c: complex, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c * x * y, left to right, in one buffer."""
    out = c * x
    out *= y
    return out


def time_offset_integral(phi_of_t, psi_of_t, t_grid, base_node) -> np.ndarray:
    """Gamma * int_0^T omega1 dt at the base node, trapezoid over the t samples.

    phi_of_t / psi_of_t map a time to the quaternion spinor extensions.
    """
    ix, iy = base_node
    vals = [GAMMA @ omega1(phi_of_t(t), psi_of_t(t)).at(ix, iy) for t in t_grid]
    return np.trapezoid(vals, t_grid, axis=0)


def normalize_S_pair(SA: SMatrix, SB: SMatrix):
    """Adjust SB's constant so Gamma SA^-1 Gamma = (SB^-1)^T, i.e.
    SB = Gamma SA^T Gamma = -SA^* (the quaternion conjugate).

    Returns (SB_adjusted, C, residual).  The optimal constant is the mean of
    -SA^* - SB over the grid (closed-form least squares).
    """
    target = QuatField(SA.grid, -SA.S.conj().values, SA.S.mask)
    ca, cb = (target - SB.S).values.mean(axis=(1, 2))
    C = np.array([[ca, -np.conj(cb)], [cb, np.conj(ca)]])
    S = QuatField(SB.grid, SB.S.values + np.array([ca, cb])[:, None, None], SB.S.mask)
    SBn = SMatrix(S, SB.constant + C, SB.base_node, SB.time_augmented, SB.loop_defect)
    res = (target - S).max_abs()
    scale = max(SA.S.max_abs(), 1.0)
    if res > 1e-8 * scale:
        raise NormalizationError(f"normalization residual {res:.3g} exceeds 1e-08 x scale")
    return SBn, C, res


@dataclass
class KData:
    """W and a extracted from K = Psi S^-1 Gamma Phi^T Gamma^-1.

    pattern_residual is the quaternion-pattern defect of S where it entered
    quaternion storage: 0 for an S built by build_S."""

    W: ComplexField
    a: ComplexField
    pattern_residual: float


def k_matrix(Psi: QuatField, S: SMatrix | QuatField | Mat2Field, Phi: QuatField) -> KData:
    """Extract (W, a) from K = Psi S^-1 Phi^* = [[i conj(W), a], [-conj(a), -i W]].

    A general S (a Mat2Field, e.g. from heat_smatrix_values) must have the
    quaternion pattern to PATTERN_TOL x max(|S|, 1); NormalizationError otherwise.
    """
    Sm = S.S if isinstance(S, SMatrix) else S
    residual = 0.0
    if isinstance(Sm, Mat2Field):
        residual = _check_quaternion(Sm.values, "S", Sm.mask)
        Sm = QuatField(Sm.grid, Sm.values[:, 0].copy(), Sm.mask)
    return _kdata(Psi, Sm.inv(min_det=_MIN_DET * max(Sm.max_abs(), 1.0) ** 2), Phi, residual)


def _kdata(Psi: QuatField, Sinv: QuatField, Phi: QuatField, residual: float) -> KData:
    """(W, a) of K = Psi S^-1 Phi^* from S^-1."""
    K = Psi @ Sinv @ Phi.conj()
    ka, kb = K.values
    W = ComplexField(Sinv.grid, 1j * np.conj(ka), K.mask)
    a = ComplexField(Sinv.grid, -np.conj(kb), K.mask)
    return KData(W, a, residual)


# ---------------------------------------------------------------------------
# the transformation


@dataclass
class MoutardTransform:
    """Context for transforming solutions on a fixed background (Psi0, Phi0)."""

    Psi0: QuatField
    Phi0: QuatField
    S0: SMatrix                        # S(Phi0, Psi0), invertible where used
    SB0: SMatrix                       # S(Psi0, Phi0), normalized partner
    kdata: KData
    S0_inv: QuatField                  # S0^-1 and SB0^-1, nodes with det below
    SB0_inv: QuatField                 # _MIN_DET max(|S0|, 1)^2 masked

    @classmethod
    def from_background(cls, psi0: SpinorField, phi0: SpinorField, constant0,
                        base_node=None, time_offset=None) -> "MoutardTransform":
        Psi0 = quaternionize(psi0)
        Phi0 = Psi0 if phi0 is psi0 else quaternionize(phi0)    # nothing writes into them
        S0 = build_S(Phi0, Psi0, base_node=base_node, constant=constant0,
                     time_offset=time_offset)
        SB0, _, _ = normalize_S_pair(S0, build_S(Psi0, Phi0, base_node=S0.base_node))
        eps = _MIN_DET * max(S0.S.max_abs(), 1.0) ** 2      # as in k_matrix
        S0_inv = S0.S.inv(min_det=eps)
        kdata = _kdata(Psi0, S0_inv, Phi0, 0.0)
        return cls(Psi0, Phi0, S0, SB0, kdata, S0_inv, SB0.S.inv(min_det=eps))

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


def _transform_side(A0: QuatField, B0: QuatField, S: SMatrix, S_inv: QuatField,
                    chi: SpinorField, const) -> SpinorField:
    """X - B0 S^-1 S(A0, X) for X = quaternionize(chi): Psi~ from (Phi0, Psi0, S0)
    and Phi~ from (Psi0, Phi0, SB0).  One side at a time, so that the two sides'
    temporaries are never alive together."""
    X = quaternionize(chi)
    if const is None:
        bx, by = S.base_node
        const = S.constant @ np.linalg.solve(B0.at(bx, by), X.at(bx, by))
    SX = build_S(A0, X, base_node=S.base_node, constant=const)
    return (X - B0 @ S_inv @ SX.S).spinor()


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
    """Closed-form Moutard chain for the trivial background with heat datum f."""

    f: BiPoly
    S0: RMat2
    K: RMat2
    W: RationalFn
    a: RationalFn
    psi0: tuple
    phi0: tuple

    def tilde_psi_for_linear_datum(self) -> tuple[RationalFn, RationalFn]:
        """Transformed spinor of psi = (z, 0) (anti-heat datum h = z)."""
        f = self.f
        F1 = heat_antiderivative(f)
        SP = RMat2([[RationalFn(Z * Z * 0.5 - 1j * T), RationalFn(1j * (ZBAR * f.conj() - F1.conj()))],
                    [RationalFn(1j * (Z * f - F1)), RationalFn(ZBAR * ZBAR * 0.5 + 1j * T)]])
        Psi = RMat2([[RationalFn(Z), 0], [0, RationalFn(ZBAR)]])
        Psi0 = _quat_exact(*self.psi0)
        Psit = Psi - Psi0 * self.S0.inv() * SP
        return Psit[0, 0], Psit[1, 0]

    def tilde_phi_for_identity_datum(self) -> tuple[RationalFn, RationalFn]:
        """Transformed phi = (1, 0) through the normalized partner matrix."""
        SB = GAMMA_EXACT * self.S0.transpose() * GAMMA_EXACT
        SBP = RMat2([[RationalFn(1j * Z), 0], [0, RationalFn(-1j * ZBAR)]])
        Phi = RMat2([[1, 0], [0, 1]])
        Phi0 = _quat_exact(*self.phi0)
        Phit = Phi - Phi0 * SB.inv() * SBP
        return Phit[0, 0], Phit[1, 0]

    def inverted_surface_spinors(self):
        Psi0 = _quat_exact(*self.psi0)
        Phi0 = _quat_exact(*self.phi0)
        Psis = Psi0 * self.S0.inv()
        Phis = -(Phi0 * self.S0) * (RationalFn(1) / self.S0.det())
        return (Psis[0, 0], Psis[1, 0]), (Phis[0, 0], Phis[1, 0])


def _quat_exact(p1, p2) -> RMat2:
    p1 = p1 if isinstance(p1, RationalFn) else RationalFn(p1)
    p2 = p2 if isinstance(p2, RationalFn) else RationalFn(p2)
    return RMat2([[p1, -p2.conj()], [p2, p1.conj()]])


def heat_datum_spinors(f: BiPoly):
    """Background spinors of the graph surface of a heat polynomial:
    psi0 = (0, 1), phi0 = (f', i)."""
    return (RationalFn(BiPoly.zero()), RationalFn(1)), \
        (RationalFn(f.wirtinger("z")), RationalFn(1j * BiPoly.const(1.0)))


def moutard_exact(f: BiPoly) -> ExactMoutardData:
    """Exact K-matrix chain on the trivial background for heat datum f.

    S0 = [[i conj(f), -z],[zbar, -i f]] closes the spatial and time parts of
    Gamma * int(omega + omega1) with zero constants; K then recovers the
    heat-polynomial potentials W = i(z f' - f)/rho, a = -i(zbar + f' conj(f))/rho.
    """
    fb = f.conj()
    S0 = RMat2([[RationalFn(1j * fb), RationalFn(-Z)],
                [RationalFn(ZBAR), RationalFn(-1j * f)]])
    psi0, phi0 = heat_datum_spinors(f)
    Psi0 = _quat_exact(*psi0)
    Phi0 = _quat_exact(*phi0)
    K = Psi0 * S0.inv() * GAMMA_EXACT * Phi0.transpose() * GAMMA_EXACT.inv()
    W = 1j * K[1, 1]
    a = K[0, 1]
    return ExactMoutardData(f, S0, K, W, a, psi0, phi0)


def heat_datum_fields(f: BiPoly, grid: Grid2D, t: float, cval=None):
    """Sample the background spinors and their quaternion extensions on a grid."""
    kw = {"t": float(t)}
    if cval is not None:
        kw["c"] = complex(cval)
    phi1, _ = _sample_mesh(grid.xs(), grid.ys(), f.wirtinger("z")._specialise(**kw))
    psi0 = SpinorField(constant_field(grid, 0.0), constant_field(grid, 1.0))
    phi0 = SpinorField(ComplexField(grid, phi1), constant_field(grid, 1j))
    return psi0, phi0


def heat_smatrix_values(f: BiPoly, grid: Grid2D, t: float, cval=None) -> Mat2Field:
    """Closed-form S(Phi0, Psi0) = [[i conj(f), -z],[zbar, -i f]] sampled on a grid."""
    kw = {"t": float(t)}
    if cval is not None:
        kw["c"] = complex(cval)
    zm = grid.zmesh()
    fv = f.eval(z=zm, **kw)
    return Mat2Field.from_values(grid, 1j * np.conj(fv), -zm, np.conj(zm), -1j * fv)
