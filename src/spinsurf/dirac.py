"""Spinor fields, the Dirac operators D and Dvee, quaternionic extension, gauge moves.

Operator conventions (component form, rows fixed):

    D   = [[0, d],[-db, 0]] + [[U, 0],[0, conj(U)]]
    D psi  = ( d psi2 + U psi1,  -db psi1 + conj(U) psi2 )
    Dvee   : U and conj(U) swapped on the diagonal.

The row expansion is validated against the metric / conformality identities of
the Weierstrass representation in the test suite rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (ComplexField, Grid2D, GridConfigError, _merge_masks,
                   save_nodes_csv, wirtinger_derivative)


class GaugeError(ValueError):
    pass


@dataclass
class SpinorField:
    """Pair (psi1, psi2) on a shared grid."""

    psi1: ComplexField
    psi2: ComplexField

    def __post_init__(self):
        if self.psi1.grid != self.psi2.grid:
            raise GridConfigError("spinor components must share the grid")

    @property
    def grid(self) -> Grid2D:
        return self.psi1.grid

    def max_abs(self) -> float:
        return max(self.psi1.max_abs(), self.psi2.max_abs())


@dataclass
class PotentialPair:
    """Dirac potential U and optional DSII auxiliary field V."""

    U: ComplexField
    V: ComplexField | None = None
    real_u: bool = False

    def __post_init__(self):
        if self.real_u:
            im = float(np.max(np.abs(self.U.values.imag)))
            scale = max(self.U.max_abs(), 1.0)
            if im > 1e-10 * scale:
                raise ValueError(f"R3 mode requires real U; max|Im U| = {im:g}")

    @property
    def grid(self) -> Grid2D:
        return self.U.grid


def _empty(grid: Grid2D) -> np.ndarray:
    return np.empty((2, 2, grid.ny, grid.nx), dtype=np.complex128)


@dataclass
class Mat2Field:
    """2x2 complex matrix per node: values[i, j] is entry (i, j), shape (2, 2, ny, nx).

    For general values, such as the dz and dzbar parts of the Moutard form
    omega; fields that are quaternions throughout are held as QuatField.

    One mask covers all four entries: the union of the masks of the fields the
    matrix was built from.  values may be a read-only broadcast view (see
    constant), so operations always write into fresh arrays.
    """

    grid: Grid2D
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.values.shape != (2, 2, self.grid.ny, self.grid.nx):
            raise GridConfigError(f"matrix values shape {self.values.shape} does not fit the grid")

    def _mask_with(self, other: "Mat2Field"):
        if other.grid != self.grid:
            raise GridConfigError("grid mismatch")
        return _merge_masks(self.mask, other.mask)

    def entry(self, i: int, j: int) -> ComplexField:
        return ComplexField(self.grid, self.values[i, j], self.mask)

    @classmethod
    def from_values(cls, grid: Grid2D, v11, v12, v21, v22, mask=None) -> "Mat2Field":
        vals = _empty(grid)
        vals[0, 0], vals[0, 1], vals[1, 0], vals[1, 1] = v11, v12, v21, v22
        return cls(grid, vals, mask)

    @classmethod
    def constant(cls, grid: Grid2D, m) -> "Mat2Field":
        """The same matrix at every node, as a zero-stride view of m."""
        m = np.asarray(m, dtype=np.complex128)
        return cls(grid, np.broadcast_to(m[:, :, None, None], (2, 2, grid.ny, grid.nx)))

    def __matmul__(self, other: "Mat2Field") -> "Mat2Field":
        mask = self._mask_with(other)
        A, B = self.values, other.values
        out = _empty(self.grid)
        for i in range(2):
            for k in range(2):
                np.multiply(A[i, 0], B[0, k], out=out[i, k])
                out[i, k] += A[i, 1] * B[1, k]
        return Mat2Field(self.grid, out, mask)

    def __add__(self, other: "Mat2Field") -> "Mat2Field":
        return Mat2Field(self.grid, self.values + other.values, self._mask_with(other))

    def __sub__(self, other: "Mat2Field") -> "Mat2Field":
        return Mat2Field(self.grid, self.values - other.values, self._mask_with(other))

    def transpose(self) -> "Mat2Field":
        return Mat2Field(self.grid, self.values.transpose(1, 0, 2, 3), self.mask)

    def det(self) -> ComplexField:
        v = self.values
        return ComplexField(self.grid, v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0], self.mask)

    def inv(self, min_det: float = 0.0) -> "Mat2Field":
        """Adjugate over determinant; nodes with |det| < min_det join the mask
        and are divided by 1 instead."""
        dv = self.det().values
        mask = self.mask
        if min_det > 0.0:
            bad = np.abs(dv) < min_det
            if bad.any():
                mask = _merge_masks(mask, bad)
                dv[bad] = 1.0
        v, out = self.values, _empty(self.grid)
        np.divide(v[1, 1], dv, out=out[0, 0])
        np.divide(v[0, 0], dv, out=out[1, 1])
        np.negative(dv, out=dv)
        np.divide(v[0, 1], dv, out=out[0, 1])
        np.divide(v[1, 0], dv, out=out[1, 0])
        return Mat2Field(self.grid, out, mask)

    def wirtinger(self, direction: str) -> "Mat2Field":
        out = _empty(self.grid)
        for i in range(2):
            for j in range(2):
                out[i, j] = wirtinger_derivative(self.entry(i, j), direction).values
        return Mat2Field(self.grid, out, self.mask)

    def at(self, ix: int, iy: int) -> np.ndarray:
        return np.array(self.values[:, :, iy, ix])

    def max_abs(self) -> float:
        return max(self.entry(i, j).max_abs() for i in range(2) for j in range(2))


def quaternion_defect(m: np.ndarray, mask=None) -> float:
    """max(|m11 - conj(m00)|, |m01 + conj(m10)|) over the 2x2 matrices m[i, j] (one
    matrix, or one per node with mask nodes skipped): 0 exactly when every
    matrix is a quaternion [[a, -conj(b)], [b, conj(a)]]."""
    r = np.maximum(np.abs(m[1, 1] - np.conj(m[0, 0])), np.abs(m[0, 1] + np.conj(m[1, 0])))
    if mask is not None:
        r = np.where(mask, 0.0, r)
    return float(np.max(r))


@dataclass
class QuatField:
    """A quaternion [[a, -conj(b)], [b, conj(a)]] per node, stored as values = (a, b)
    of shape (2, ny, nx): column 0 of the 2x2 matrix, which fixes the rest.

    Products, differences, conjugates and inverses of quaternions are
    quaternions, so they are formed on (a, b) alone: a product takes four complex
    multiplies, and the inverse is exact, the conjugate (conj(a), -b) over
    |a|^2 + |b|^2 = det.  The mask is handled as in Mat2Field, and operations
    write into fresh arrays, so fields may share values.
    """

    grid: Grid2D
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.values.shape != (2, self.grid.ny, self.grid.nx):
            raise GridConfigError(f"quaternion values shape {self.values.shape} does not fit the grid")

    def _mask_with(self, other: "QuatField"):
        if other.grid != self.grid:
            raise GridConfigError("grid mismatch")
        return _merge_masks(self.mask, other.mask)

    def __matmul__(self, other: "QuatField") -> "QuatField":
        """(a, b)(c, d) = (a c - conj(b) d, b c + conj(a) d)."""
        mask = self._mask_with(other)
        (a, b), (c, d) = self.values, other.values
        out = np.empty_like(self.values)
        tmp = np.conj(b)
        tmp *= d
        np.multiply(a, c, out=out[0])
        out[0] -= tmp
        np.conj(a, out=tmp)
        tmp *= d
        np.multiply(b, c, out=out[1])
        out[1] += tmp
        return QuatField(self.grid, out, mask)

    def __sub__(self, other: "QuatField") -> "QuatField":
        return QuatField(self.grid, self.values - other.values, self._mask_with(other))

    def conj(self) -> "QuatField":
        """The quaternion conjugate (conj(a), -b): the conjugate transpose of the
        matrix, and Gamma Q^T Gamma^-1."""
        out = np.empty_like(self.values)
        np.conj(self.values[0], out=out[0])
        np.negative(self.values[1], out=out[1])
        return QuatField(self.grid, out, self.mask)

    def norm2(self) -> np.ndarray:
        """|a|^2 + |b|^2 per node, the determinant (real)."""
        v = self.values
        return (v.real ** 2 + v.imag ** 2).sum(axis=0)

    def det(self) -> ComplexField:
        return ComplexField(self.grid, self.norm2(), self.mask)

    def inv(self, min_det: float = 0.0) -> "QuatField":
        """conj() / (|a|^2 + |b|^2); nodes with det < min_det join the mask
        and are divided by 1 instead."""
        n2 = self.norm2()
        mask = self.mask
        if min_det > 0.0:
            bad = n2 < min_det
            if bad.any():
                mask = _merge_masks(mask, bad)
                n2[bad] = 1.0
        out = self.conj()
        out.values /= n2
        out.mask = mask
        return out

    def mat(self) -> Mat2Field:
        """The general 2x2 matrix field [[a, -conj(b)], [b, conj(a)]]."""
        a, b = self.values
        return Mat2Field.from_values(self.grid, a, -np.conj(b), b, np.conj(a), self.mask)

    def at(self, ix: int, iy: int) -> np.ndarray:
        a, b = self.values[:, iy, ix]
        return np.array([[a, -np.conj(b)], [b, np.conj(a)]])

    def max_abs(self) -> float:
        return max(ComplexField(self.grid, v, self.mask).max_abs() for v in self.values)

    def spinor(self) -> SpinorField:
        """(a, b) as a spinor; its entries are copies, so the field can be freed."""
        a, b = self.values
        return SpinorField(ComplexField(self.grid, a.copy(), self.mask),
                           ComplexField(self.grid, b.copy(), self.mask))


def quaternionize(psi: SpinorField) -> QuatField:
    """Psi = [[psi1, -conj(psi2)],[psi2, conj(psi1)]] per node, stored as (psi1, psi2)."""
    return QuatField(psi.grid, np.stack([psi.psi1.values, psi.psi2.values]),
                     _merge_masks(psi.psi1.mask, psi.psi2.mask))


GAMMA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def apply_D(U: PotentialPair | ComplexField, psi: SpinorField) -> SpinorField:
    """Residual of the Dirac operator: (d psi2 + U psi1, -db psi1 + conj(U) psi2)."""
    Uf = U.U if isinstance(U, PotentialPair) else U
    if Uf.grid != psi.grid:
        raise GridConfigError("potential and spinor grids differ")
    r1 = wirtinger_derivative(psi.psi2, "z") + Uf * psi.psi1
    r2 = -wirtinger_derivative(psi.psi1, "zbar") + Uf.conj() * psi.psi2
    return SpinorField(r1, r2)


def apply_Dvee(U: PotentialPair | ComplexField, phi: SpinorField) -> SpinorField:
    """Residual of the formally conjugate operator (conj(U) and U on the diagonal)."""
    Uf = U.U if isinstance(U, PotentialPair) else U
    if Uf.grid != phi.grid:
        raise GridConfigError("potential and spinor grids differ")
    r1 = wirtinger_derivative(phi.psi2, "z") + Uf.conj() * phi.psi1
    r2 = -wirtinger_derivative(phi.psi1, "zbar") + Uf * phi.psi2
    return SpinorField(r1, r2)


def dirac_residual_norm(U, psi, interior: int = 0, vee: bool = False) -> float:
    """max |D psi| over the grid, optionally skipping a boundary margin."""
    r = (apply_Dvee if vee else apply_D)(U, psi)
    v = np.maximum(np.abs(r.psi1.values), np.abs(r.psi2.values))
    mask = _merge_masks(r.psi1.mask, r.psi2.mask)
    if mask is not None:
        v = np.where(mask, 0.0, v)
    if interior:
        v = v[interior:-interior, interior:-interior]
    return float(np.max(v))


def sigma(psi: SpinorField) -> SpinorField:
    """Antiinvolution (psi1, psi2) -> (-conj(psi2), conj(psi1)); sigma^2 = -1."""
    return SpinorField(-psi.psi2.conj(), psi.psi1.conj())


def gauge_transform(psi: SpinorField, phi: SpinorField, U: ComplexField,
                    h: ComplexField):
    """Gauge move by a holomorphic h: psi1 -> e^h psi1, psi2 -> e^conj(h) psi2,
    phi1 -> e^-h phi1, phi2 -> e^-conj(h) phi2, U -> e^(conj(h)-h) U."""
    dbh = wirtinger_derivative(h, "zbar")
    hscale = max(h.max_abs(), 1.0)
    interior = dbh.values[1:-1, 1:-1] if not h.grid.periodic else dbh.values
    defect = float(np.max(np.abs(interior)))
    if defect > 1e-6 * hscale:
        raise GaugeError(f"h is not holomorphic: max|db h| = {defect:g}")
    eh = np.exp(h.values)
    ehb = np.exp(np.conj(h.values))
    g = h.grid
    psi_t = SpinorField(psi.psi1.like(psi.psi1.values * eh),
                        psi.psi2.like(psi.psi2.values * ehb))
    phi_t = SpinorField(phi.psi1.like(phi.psi1.values / eh),
                        phi.psi2.like(phi.psi2.values / ehb))
    U_t = ComplexField(g, U.values * ehb / eh, U.mask)
    return psi_t, phi_t, U_t


def save_spinorfield_csv(psi: SpinorField, csv_path, meta_path=None):
    """CSV columns ix, iy, re1, im1, re2, im2 with a JSON grid sidecar."""
    save_nodes_csv(csv_path, psi.grid, "ix,iy,re1,im1,re2,im2", psi.psi1.values,
                   psi.psi2.values, meta=psi.grid.meta(), meta_path=meta_path)
