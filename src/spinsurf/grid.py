"""Complex-plane grids, Wirtinger derivatives, quadrature and path integration.

Conventions: z = x + i y, d = (d/dx - i d/dy)/2 (derivative with respect to z),
db = (d/dx + i d/dy)/2 (with respect to zbar).  Field values are stored as
arrays of shape (ny, nx) indexed values[iy, ix].

One difference scheme: central differences, one-sided second order at open
edges (Spectral holds the Fourier symbols that the evolver and the constraint
solves apply themselves).  One path integral and one closedness test, both for
a 1-form gx dx + gy dy with real or complex gx, gy of shape (..., ny, nx): the
form p dz + q dzbar is gx = p + q, gy = i (p - q).

One mask rule: a sum reads each masked node as the mean of its unmasked 8-neighbours
(mask_patches), a maximum skips it (masked_max_abs), and integrate2d refuses it.

One block rule: a full-grid reduction or product allocates no full-size
temporary.  It streams over row_blocks, blocks of whole rows of about _BLOCK
nodes, and writes into its result or reduces block by block (row_max_abs); each
node sees the same operations in the same order as on the whole grid, so the
values do not depend on the blocks.  Here closedness_defect and every field's
max_abs follow it; wirtinger_derivative, real_wirtinger_z, quadrature_sum and
ComplexField.abs2 do not yet.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridConfigError(ValueError):
    pass


class SchemeError(ValueError):
    pass


class MaskError(ValueError):
    pass


class Spectral:
    """Read-only wavenumbers and dt-independent multipliers of a doubly periodic
    grid, for fft2 arrays [iy, ix] (re_v: rfft2); the 2-D ones are built on first
    use.  ikx is the symbol of d/dx (i ky[:, None] that of d/dy); re_v =
    2 (kx^2 - ky^2) / k^2 is the real part of 2 m_z / m_zb, which solves
    V_zb = 2 n_z; lap_inv = -1/k^2."""

    def __init__(self, grid: Grid2D):
        if not grid.periodic:
            raise SchemeError("spectral operators need a doubly periodic grid")
        self.kx = 2 * np.pi * np.fft.fftfreq(grid.nx, d=grid.hx)
        self.ky = 2 * np.pi * np.fft.fftfreq(grid.ny, d=grid.hy)
        self.ikx = 1j * self.kx
        for a in vars(self).values():
            a.flags.writeable = False

    @cached_property
    def re_v(self) -> np.ndarray:
        kr, ky = self.kx[: self.kx.size // 2 + 1], self.ky[:, None]   # rfft2 columns, up to sign
        return _zero_mean_ratio(2.0 * (kr**2 - ky**2), kr**2 + ky**2)

    @cached_property
    def lap_inv(self) -> np.ndarray:
        return _zero_mean_ratio(1.0, -(self.kx**2 + self.ky[:, None] ** 2))


def _zero_mean_ratio(num, den) -> np.ndarray:      # read-only, mean mode (0 / 0) set to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    out[0, 0] = 0.0
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular sampling of a z-plane domain."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    periodic_x: bool = False
    periodic_y: bool = False

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise GridConfigError("degenerate bounds")
        if self.nx < 4 or self.ny < 4:
            raise GridConfigError("resolution must be >= 4 per axis")

    @property
    def hx(self) -> float:
        n = self.nx if self.periodic_x else self.nx - 1
        return (self.x_max - self.x_min) / n

    @property
    def hy(self) -> float:
        n = self.ny if self.periodic_y else self.ny - 1
        return (self.y_max - self.y_min) / n

    @property
    def periodic(self) -> bool:
        return self.periodic_x and self.periodic_y

    def xs(self) -> np.ndarray:
        return self.x_min + self.hx * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y_min + self.hy * np.arange(self.ny)

    def zmesh(self) -> np.ndarray:
        """Complex node coordinates, shape (ny, nx)."""
        return self.xs()[None, :] + 1j * self.ys()[:, None]

    def node_z(self, ix: int, iy: int) -> complex:
        return self.x_min + ix * self.hx + 1j * (self.y_min + iy * self.hy)

    spectral = cached_property(Spectral)      # built on first use, then cached

    def meta(self) -> dict:
        return {
            "x_min": self.x_min, "x_max": self.x_max,
            "y_min": self.y_min, "y_max": self.y_max,
            "nx": self.nx, "ny": self.ny,
            "periodic_x": self.periodic_x, "periodic_y": self.periodic_y,
        }


def make_grid(bounds, resolution, periodicity=False) -> Grid2D:
    """Build a Grid2D from (x_min, x_max, y_min, y_max), (nx, ny) and periodic flags."""
    x_min, x_max, y_min, y_max = bounds
    if np.isscalar(resolution):
        nx = ny = int(resolution)
    else:
        nx, ny = resolution
    if isinstance(periodicity, bool):
        px = py = periodicity
    else:
        px, py = periodicity
    return Grid2D(float(x_min), float(x_max), float(y_min), float(y_max),
                  int(nx), int(ny), bool(px), bool(py))


def square_grid(half_width: float, n: int, periodic: bool = False) -> Grid2D:
    return make_grid((-half_width, half_width, -half_width, half_width), (n, n), periodic)


@dataclass
class ComplexField:
    """Complex values sampled over a Grid2D.  mask marks singular/flagged nodes."""

    grid: Grid2D
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.ny, self.grid.nx):
            raise GridConfigError(
                f"values shape {self.values.shape} != grid shape {(self.grid.ny, self.grid.nx)}")
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)

    def like(self, values) -> "ComplexField":
        return ComplexField(self.grid, values, self.mask)

    def conj(self) -> "ComplexField":
        return self.like(np.conj(self.values))

    def abs2(self) -> "ComplexField":
        """|values|^2; a masked node holds 0, so what it held is never squared."""
        vals = self.values if self.mask is None else np.where(self.mask, 0, self.values)
        return self.like(np.abs(vals) ** 2)

    def max_abs(self) -> float:
        return row_max_abs(lambda r: self.values[r], self.mask, range(self.grid.ny),
                           self.grid.nx)

    def patched(self) -> "ComplexField":
        """The field with no mask, each masked node holding its mask_patches mean."""
        vals = self.values
        if self.mask is not None:
            rows, cols, means = mask_patches(vals, self.mask, lambda v: v)
            vals = vals.copy()
            vals[rows, cols] = means
        return ComplexField(self.grid, vals)

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def __rmul__(self, other):
        return self._binop(other, np.multiply)

    def _binop(self, other, op):
        if isinstance(other, ComplexField):
            mask = merged_mask(self, other)            # GridConfigError before any arithmetic
            return ComplexField(self.grid, op(self.values, other.values), mask)
        return self.like(op(self.values, other))


_BLOCK = 8192        # nodes per block: a block's values and work buffers stay in cache


def row_blocks(nx: int, stop: int, start: int = 0) -> list[slice]:
    """Rows start:stop of an nx-wide grid in blocks of max(1, _BLOCK // nx) whole
    rows, in row order: the blocks every full-grid reduction and product streams
    over."""
    step = max(1, _BLOCK // nx)
    return [slice(r, min(r + step, stop)) for r in range(start, stop, step)]


def masked_max_abs(values: np.ndarray, mask: np.ndarray | None) -> float:
    """max |values| over the unmasked nodes of (..., ny, nx) values; 0 when every
    node is masked."""
    if mask is not None and mask.any():
        if mask.all():
            return 0.0
        values = values[..., ~mask]
    return float(np.max(np.abs(values)))


def row_max_abs(block, mask: np.ndarray | None, rows: range, nx: int) -> float:
    """masked_max_abs of (..., ny, ncols) values over the given rows, one row block at
    a time: block(r) returns rows r of the values, and mask is their (ny, ncols) mask
    or None.  Maxima are exact and NaN propagates, so this is masked_max_abs of the
    whole array to the bit, and no full-size value or |value| array exists."""
    peak = 0.0
    for r in row_blocks(nx, rows.stop, rows.start):
        peak = np.maximum(peak, masked_max_abs(block(r), None if mask is None else mask[r]))
    return float(peak)


def merged_mask(*fields) -> np.ndarray | None:
    """The union of the masks of fields (None when none has one); GridConfigError
    unless they share the grid."""
    if any(f.grid != fields[0].grid for f in fields[1:]):
        raise GridConfigError("grid mismatch")
    out = None
    for m in (f.mask for f in fields if f.mask is not None):
        out = m if out is None else out | m
    return out


def mask_patches(values: np.ndarray, mask: np.ndarray, f):
    """Rows, columns (in row order) and patch values of the masked nodes of a
    (ny, nx) grid: the mean of f over a node's unmasked 8-neighbours, summed in
    row order, or 0 when it has none.  f acts elementwise on the gathered
    neighbour values alone, so no full-size f(values) is formed, and what a masked
    node holds is never read."""
    ny, nx = mask.shape
    rows, cols = np.divmod(np.flatnonzero(mask), nx)    # 2-D nonzero is 20x slower
    acc, cnt = 0.0, 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):                           # the node itself is masked
            jy, jx = rows + dy, cols + dx
            ok = (jy >= 0) & (jy < ny) & (jx >= 0) & (jx < nx)
            ok[ok] = ~mask[jy[ok], jx[ok]]
            gathered = f(values[jy[ok], jx[ok]])
            term = np.zeros(rows.size, gathered.dtype)
            term[ok] = gathered
            acc, cnt = acc + term, cnt + ok
    return rows, cols, acc / np.maximum(cnt, 1)


def field_from_function(grid: Grid2D, fn) -> ComplexField:
    """Sample fn(z) over the grid; non-finite values become masked nodes."""
    vals = np.asarray(fn(grid.zmesh()), dtype=np.complex128)
    bad = ~np.isfinite(vals)
    if bad.any():
        vals = vals.copy()
        vals[bad] = 0.0
        return ComplexField(grid, vals, bad)
    return ComplexField(grid, vals)


def constant_field(grid: Grid2D, value) -> ComplexField:
    return ComplexField(grid, np.full((grid.ny, grid.nx), value, dtype=np.complex128))


# ---------------------------------------------------------------------------
# derivatives


# numpy divides a complex array by a real scalar as a multiply by its reciprocal,
# so the "*= 1 / (2 h)" below is "/ (2 h)" to the bit, at a fraction of the cost.


def _ddx(values: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    values = np.ascontiguousarray(values)
    out = np.empty_like(values)
    # one pass over the flattened rows; the two edge columns it gets wrong
    # (they difference across a row break) are rewritten below
    np.subtract(values.reshape(-1)[2:], values.reshape(-1)[:-2], out=out.reshape(-1)[1:-1])
    if periodic:
        np.subtract(values[..., 1], values[..., -1], out=out[..., 0])
        np.subtract(values[..., 0], values[..., -2], out=out[..., -1])
    else:                       # one-sided second order at the edges
        out[..., 0] = -3 * values[..., 0] + 4 * values[..., 1] - values[..., 2]
        out[..., -1] = 3 * values[..., -1] - 4 * values[..., -2] + values[..., -3]
    out *= 1.0 / (2 * h)
    return out


def _ddy(values: np.ndarray, h: float, periodic: bool, rows: slice = slice(None)) -> np.ndarray:
    """d/dy of (..., ny, nx) values on the rows `rows` (a step-1 slice), each row
    formed as it is when all rows are."""
    ny = values.shape[-2]
    r0, r1, _ = rows.indices(ny)
    out = np.empty(values.shape[:-2] + (r1 - r0, values.shape[-1]), values.dtype)
    lo, hi = max(r0, 1), min(r1, ny - 1)          # the central rows among them
    if lo < hi:
        np.subtract(values[..., lo + 1:hi + 1, :], values[..., lo - 1:hi - 1, :],
                    out=out[..., lo - r0:hi - r0, :])
    if r0 == 0:
        if periodic:
            np.subtract(values[..., 1, :], values[..., -1, :], out=out[..., 0, :])
        else:
            out[..., 0, :] = -3 * values[..., 0, :] + 4 * values[..., 1, :] - values[..., 2, :]
    if r1 == ny:
        if periodic:
            np.subtract(values[..., 0, :], values[..., -2, :], out=out[..., -1, :])
        else:
            out[..., -1, :] = 3 * values[..., -1, :] - 4 * values[..., -2, :] + values[..., -3, :]
    out *= 1.0 / (2 * h)
    return out


def wirtinger_rows(grid: Grid2D, values: np.ndarray, direction: str,
                   rows: slice = slice(None)) -> np.ndarray:
    """d/dz (direction "z") or d/dzbar of (..., ny, nx) values on the rows `rows`."""
    fx = _ddx(values[..., rows, :], grid.hx, grid.periodic_x)
    fy = _ddy(values, grid.hy, grid.periodic_y, rows)
    if direction == "z":          # (fx - i fy) / 2, formed in place in fx
        fx.real += fy.imag
        fx.imag -= fy.real
    else:                         # (fx + i fy) / 2
        fx.real -= fy.imag
        fx.imag += fy.real
    fx *= 0.5
    return fx


def wirtinger_derivative(f: ComplexField, direction: str = "z") -> ComplexField:
    """d f / dz or d f / dzbar from central differences (one-sided at open edges)."""
    if direction not in ("z", "zbar"):
        raise ValueError(f"unknown direction {direction!r}")
    return f.like(wirtinger_rows(f.grid, f.values, direction))


def real_wirtinger_z(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """d f / dz = (f_x - i f_y) / 2 of a real (ny, nx) array f, from the central
    differences of wirtinger_derivative taken in real arithmetic; every nonzero
    value rounds as wirtinger_derivative of f as a complex field does."""
    out = np.empty(values.shape, dtype=complex)
    np.multiply(_ddx(values, grid.hx, grid.periodic_x), 0.5, out=out.real)
    np.multiply(_ddy(values, grid.hy, grid.periodic_y), -0.5, out=out.imag)
    return out


# ---------------------------------------------------------------------------
# quadrature


def _axis_weights(n: int, h: float, periodic: bool) -> np.ndarray:
    w = np.full(n, h)
    if not periodic:
        w[0] = w[-1] = h / 2
    return w


def quadrature_sum(vals: np.ndarray, hx: float, hy: float, periodic_x: bool = False,
                   periodic_y: bool = False):
    """Trapezoid sum of a (ny, nx) array; rectangle rule along periodic axes."""
    wx = _axis_weights(vals.shape[1], hx, periodic_x)
    wy = _axis_weights(vals.shape[0], hy, periodic_y)
    tmp = vals * wx
    tmp *= wy[:, None]
    return np.sum(tmp)


def integrate2d(f: ComplexField) -> complex:
    """Trapezoid (non-periodic) / rectangle (periodic) quadrature of f over the grid;
    MaskError on a masked node (f.patched() has none)."""
    if f.mask is not None and f.mask.any():
        raise MaskError("field has masked nodes; integrate its patched() field")
    g = f.grid
    return complex(quadrature_sum(f.values, g.hx, g.hy, g.periodic_x, g.periodic_y))


# ---------------------------------------------------------------------------
# path integration


def antiderivative(grid: Grid2D, gx: np.ndarray, gy: np.ndarray, basepoint,
                   order: str, out: np.ndarray | None = None) -> np.ndarray:
    """F(P) = int_{P0}^{P} (gx dx + gy dy) along L-paths from the basepoint node
    (ix, iy), for real or complex gx, gy of shape (..., ny, nx), vectorised over
    all nodes and leading axes, into out or a fresh array.

    x_first runs along the basepoint row and then up/down each column; y_first
    the other way round.  For p dz + q dzbar, gx = p + q and gy = i (p - q).
    out may be gx under x_first (gy under y_first): the basepoint row (column)
    is integrated before out is written."""
    ix0, iy0 = basepoint
    if order == "x_first":
        edge = _cumtrapz_from(gx[..., iy0, :], grid.hx, ix0)[..., None, :]
        out = _cumtrapz_from(gy, grid.hy, iy0, axis=-2, out=out)
    elif order == "y_first":
        edge = _cumtrapz_from(gy[..., ix0], grid.hy, iy0)[..., None]
        out = _cumtrapz_from(gx, grid.hx, ix0, axis=-1, out=out)
    else:
        raise ValueError(f"unknown order {order!r}")
    out += edge
    return out


def _cumtrapz_from(vals: np.ndarray, h: float, i0: int, axis: int = -1,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative trapezoid along axis, anchored to zero at index i0, into out (not
    vals) or a fresh array."""
    out = np.empty_like(vals) if out is None else out
    moved, cum = np.moveaxis(vals, axis, -1), np.moveaxis(out, axis, -1)
    seg = cum[..., 1:]
    np.add(moved[..., :-1], moved[..., 1:], out=seg)
    seg *= h / 2
    cum[..., 0] = 0.0
    np.cumsum(seg, axis=-1, out=seg)
    cum -= cum[..., i0:i0 + 1].copy()
    return out


def closedness_defect(grid: Grid2D, gx: np.ndarray, gy: np.ndarray, mask) -> float:
    """Half the largest |d gx / dy - d gy / dx| over the unmasked nodes (mask may
    be None) of gx dx + gy dy, gx, gy of shape (..., ny, nx): the discrete
    exterior-derivative residual, which for p dz + q dzbar is max |d_zbar p - d_z q|.
    Formed and reduced one row block at a time."""
    def block(r):
        d = _ddy(gx, grid.hy, grid.periodic_y, r)
        d -= _ddx(gy[..., r, :], grid.hx, grid.periodic_x)
        return d

    return 0.5 * row_max_abs(block, mask, range(grid.ny), grid.nx)


# ---------------------------------------------------------------------------
# serialization


def save_csv(csv_path, header: str, lines, newline="\n"):
    """The one CSV writer: the header line, then lines, each line end written as newline."""
    with open(csv_path, "w", newline=newline) as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def save_nodes_csv(csv_path, header: str, *columns):
    """Per node of the (ny, nx) columns: ix, iy, then re and im of each, as np.savetxt
    prints them with "%d" and "%.17g"; a grid row is one % of a text built once."""
    nx, k = columns[0].shape[1], 2 * len(columns)
    row = "".join(f"{ix},\0" + ",%.17g" * k + "\n" for ix in range(nx))   # \0 is iy
    vals = [0.0] * (k * nx)                     # re, im of each column, node after node

    def lines():
        for iy, rows in enumerate(zip(*columns)):
            for j, r in enumerate(rows):
                vals[2 * j::k], vals[2 * j + 1::k] = r.real.tolist(), r.imag.tolist()
            yield row.replace("\0", str(iy)) % tuple(vals)

    save_csv(csv_path, header, lines())


def save_complexfield_csv(f: ComplexField, csv_path):
    """CSV columns ix, iy, re, im plus a JSON sidecar with grid metadata."""
    meta = f.grid.meta()
    if f.mask is not None:
        meta["masked_nodes"] = [[int(a), int(b)] for b, a in zip(*np.nonzero(f.mask))]
    save_nodes_csv(csv_path, "ix,iy,re,im", f.values)
    with open(str(csv_path) + ".json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
