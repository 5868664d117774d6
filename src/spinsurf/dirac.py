"""Spinor fields, the Dirac operators D and Dvee, quaternionic extension.

Operator conventions (component form, rows fixed):

    D   = [[0, d],[-db, 0]] + [[U, 0],[0, conj(U)]]
    D psi  = ( d psi2 + U psi1,  -db psi1 + conj(U) psi2 )
    Dvee   : U and conj(U) swapped on the diagonal, i.e. D with conj(U).

The row expansion is validated against the metric / conformality identities of
the Weierstrass representation in the test suite rather than assumed.
"""
from __future__ import annotations

import numpy as np

from .grid import (ComplexField, Grid2D, GridConfigError, grid_mask, masked_max_abs,
                   merged_mask, row_blocks, row_max_abs, wirtinger_derivative,
                   wirtinger_rows)


_MIN_DET = 1e-12          # SpinorField.inv masks nodes with det below this x max(|S|, 1)^2


def _empty(grid: Grid2D) -> np.ndarray:
    return np.empty((2, 2, grid.ny, grid.nx), dtype=np.complex128)


class Mat2Field:
    """2x2 complex matrix per node: values[i, j] is entry (i, j), shape (2, 2, ny, nx).

    For general values; quaternion fields are held as SpinorField.  The package
    itself computes nothing with it: only the tests' general-matrix oracles and
    perfbench's span tracer use it.

    One mask covers all four entries: the union of the masks of the fields the
    matrix was built from.  values may be a read-only broadcast view (see
    constant), so operations always write into fresh arrays.
    """

    grid: Grid2D
    values: np.ndarray
    mask: np.ndarray | None

    def __init__(self, grid, values, mask=None):
        if values.shape != (2, 2, grid.ny, grid.nx):
            raise GridConfigError(f"matrix values shape {values.shape} does not fit the grid")
        self.grid, self.values, self.mask = grid, values, mask

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
        mask = merged_mask(self, other)
        A, B = self.values, other.values
        out = _empty(self.grid)
        for i in range(2):
            for k in range(2):
                np.multiply(A[i, 0], B[0, k], out=out[i, k])
                out[i, k] += A[i, 1] * B[1, k]
        return Mat2Field(self.grid, out, mask)

    def __add__(self, other: "Mat2Field") -> "Mat2Field":
        return Mat2Field(self.grid, self.values + other.values, merged_mask(self, other))

    def __sub__(self, other: "Mat2Field") -> "Mat2Field":
        return Mat2Field(self.grid, self.values - other.values, merged_mask(self, other))

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
                mask = bad if mask is None else mask | bad
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
        return masked_max_abs(self.values, self.mask)


def quaternion_defect(m: np.ndarray) -> float:
    """max(|m11 - conj(m00)|, |m01 + conj(m10)|) over the 2x2 matrices m[i, j] (one
    matrix, or one per node): 0 exactly when every matrix is a quaternion
    [[a, -conj(b)], [b, conj(a)]]."""
    r = np.maximum(np.abs(m[1, 1] - np.conj(m[0, 0])), np.abs(m[0, 1] + np.conj(m[1, 0])))
    return float(np.max(r))


class SpinorField:
    """A spinor psi = (psi1, psi2) on a grid, which is also its quaternionic extension
    Psi = [[psi1, -conj(psi2)], [psi2, conj(psi1)]] per node: values (psi1, psi2) of
    shape (2, ny, nx) are column 0 of the 2x2 matrix, which fixes the rest.  The
    Moutard pipeline's S-matrices, their inverses and K are held the same way.

    One mask covers both components: the union of the masks they were built from.
    Products, conjugates and inverses of quaternions are quaternions, so they are
    formed on (psi1, psi2) alone (qmul and qconj on values, and inv): a product
    takes four complex multiplies, and the inverse is exact, the conjugate
    (conj(psi1), -psi2) over |psi1|^2 + |psi2|^2 = det.  Operations write into
    fresh arrays (inv into out if given), so fields may share values.
    """

    def __init__(self, psi1: ComplexField, psi2: ComplexField):
        self.mask = merged_mask(psi1, psi2)
        self.grid = psi1.grid
        self.values = np.stack([psi1.values, psi2.values])

    @classmethod
    def from_values(cls, grid: Grid2D, values: np.ndarray,
                    mask: np.ndarray | None) -> "SpinorField":
        """The field with values (psi1, psi2) of shape (2, ny, nx), not copied, and
        mask None or of shape (ny, nx)."""
        if values.shape != (2, grid.ny, grid.nx):
            raise GridConfigError(f"spinor values shape {values.shape} does not fit the grid")
        out = cls.__new__(cls)
        out.grid, out.values, out.mask = grid, values, grid_mask(grid, mask)
        return out

    @property
    def psi1(self) -> ComplexField:
        return ComplexField(self.grid, self.values[0], self.mask)

    @property
    def psi2(self) -> ComplexField:
        return ComplexField(self.grid, self.values[1], self.mask)

    def inv(self, out: np.ndarray | None = None) -> "SpinorField":
        """The conjugate over det = |a|^2 + |b|^2, one row block at a time, into out
        (which may be values) or a fresh array; nodes with det below _MIN_DET
        max(|S|, 1)^2 (|S| over the unmasked nodes) join the mask and are divided by 1."""
        g, v, bad = self.grid, self.values, None
        min_det = _MIN_DET * max(self.max_abs(), 1.0) ** 2
        out = np.empty_like(v) if out is None else out
        for r in row_blocks(g.nx, g.ny):
            n2 = _norm2(v[:, r])
            if (low := n2 < min_det).any():
                bad = np.zeros((g.ny, g.nx), dtype=bool) if bad is None else bad
                bad[r] = low
                n2[low] = 1.0
            qconj(v[:, r], out[:, r])
            out[:, r] /= n2
        mask = self.mask if bad is None else (bad if self.mask is None else self.mask | bad)
        return SpinorField.from_values(g, out, mask)

    def at(self, ix: int, iy: int) -> np.ndarray:
        a, b = self.values[:, iy, ix]
        return np.array([[a, -np.conj(b)], [b, np.conj(a)]])

    def max_abs(self) -> float:
        return row_max_abs(lambda r: self.values[:, r], self.mask, range(self.grid.ny),
                           self.grid.nx)


def qmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product of quaternion columns x = (a, b) and y = (c, d), arrays of shape
    (2, ...): (a c - conj(b) d, b c + conj(a) d), in a fresh array."""
    (a, b), (c, d) = x, y
    out = np.empty_like(x)
    tmp = np.conj(b)
    tmp *= d
    np.multiply(a, c, out=out[0])
    out[0] -= tmp
    np.conj(a, out=tmp)
    tmp *= d
    np.multiply(b, c, out=out[1])
    out[1] += tmp
    return out


def qconj(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The conjugate (conj(a), -b) of the quaternion column x = (a, b), into out or a
    fresh array."""
    out = np.empty_like(x) if out is None else out
    np.conj(x[0], out=out[0])
    np.negative(x[1], out=out[1])
    return out


def _norm2(x: np.ndarray) -> np.ndarray:
    """|a|^2 + |b|^2 of the quaternion column x = (a, b)."""
    return (x.real ** 2 + x.imag ** 2).sum(axis=0)


def dirac_residual_norm(U, psi, interior: int = 0, vee: bool = False) -> float:
    """max |D psi| (|Dvee psi| when vee) over the unmasked nodes, optionally skipping
    a boundary margin.  Each block of rows of (d psi2 + u psi1, -db psi1 + conj(u) psi2),
    u = U (conj(U) when vee), is formed and reduced in turn."""
    mask, g = merged_mask(U, psi), psi.grid          # GridConfigError on a grid mismatch
    (p1, p2), cols = psi.values, slice(interior, g.nx - interior)

    def block(rows):
        u = U.values[rows]
        uc = np.conj(u)
        u1, u2 = (uc, u) if vee else (u, uc)
        out = np.empty((2,) + u.shape, dtype=complex)
        np.add(wirtinger_rows(g, p2, "z", rows), u1 * p1[rows], out=out[0])
        r2 = wirtinger_rows(g, p1, "zbar", rows)
        np.negative(r2, out=r2)
        np.add(r2, u2 * p2[rows], out=out[1])
        return out[..., cols]

    return row_max_abs(block, None if mask is None else mask[:, cols],
                       range(interior, g.ny - interior), g.nx)
