"""Complex-plane grids, Wirtinger derivatives, quadrature and path integration.

Conventions: z = x + i y, d = (d/dx - i d/dy)/2 (derivative with respect to z),
db = (d/dx + i d/dy)/2 (with respect to zbar).  Field values are stored as
arrays of shape (ny, nx) indexed values[iy, ix].

One difference scheme, which the surface figures read through partials: central
differences, periodic along a periodic axis, one-sided second order at an open
edge (Spectral holds the evolver's Fourier symbols; hierarchy.mkdv_rhs_1d keeps
np.gradient as the independent 1-D side of its identity).

One path integral with one closedness rule, for a 1-form gx dx + gy dy with real or
complex gx, gy of shape (..., ny, nx) (the form p dz + q dzbar is gx = p + q,
gy = i (p - q)): antiderivative integrates it along x-first L-paths and raises
ClosednessError when its path defect, the largest distance from the y-first
integral, exceeds 0.01 max sqrt(|gx|^2 + |gy|^2).  Every Weierstrass surface and
every Moutard S is integrated so, and surface.check_seams raises the same error for
a map that does not close up along a periodic axis.

One mask rule: a sum and its ring and peak read each masked node as the mean of its
unmasked 8-neighbours (mask_patches), any other maximum skips it (masked_max_abs),
and the evolver's norm (evolve.grid_norm_sq) refuses it.  A path integral and its
defect read every node, masked or not.

One block rule: a full-grid reduction or product allocates no full-size
temporary.  It streams over row_blocks, blocks of whole rows of about _BLOCK
nodes, and writes into its result or reduces block by block (row_max_abs); each
node sees the same operations in the same order as on the whole grid, so the
values do not depend on the blocks.  Here antiderivative (beside its output),
SpinorField.max_abs and abs2_quadrature, the one |U|^2 quadrature (of willmore, 1-D
strips included, l2_norm_sq and grid_norm_sq), follow it; wirtinger_derivative and
partials do not yet.
"""
from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import PurePath

import numpy as np


class GridConfigError(ValueError):
    pass


class SchemeError(ValueError):
    pass


class MaskError(ValueError):
    pass


class ClosednessError(RuntimeError):
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


class Grid2D:
    """Uniform rectangular sampling of a z-plane domain.  Frozen: grids with equal
    fields compare and hash equal, assigning or deleting an attribute raises
    AttributeError, and spectral is built once per instance."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    periodic_x: bool
    periodic_y: bool

    def __init__(self, x_min, x_max, y_min, y_max, nx, ny, periodic_x=False,
                 periodic_y=False):
        if not all(map(math.isfinite, (x_min, x_max, y_min, y_max))):
            raise GridConfigError("bounds must be finite")
        if not (x_max > x_min and y_max > y_min):
            raise GridConfigError("degenerate bounds")
        if nx < 4 or ny < 4:
            raise GridConfigError("resolution must be >= 4 per axis")
        self.__dict__.update(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max,
                             nx=nx, ny=ny, periodic_x=periodic_x, periodic_y=periodic_y)

    def _key(self) -> tuple:
        return (self.x_min, self.x_max, self.y_min, self.y_max, self.nx, self.ny,
                self.periodic_x, self.periodic_y)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"Grid2D is frozen: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Grid2D is frozen: cannot delete {name!r}")

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

    @property
    def centre(self) -> tuple[int, int]:
        """The node (ix, iy) that antiderivative, and so every surface and S, anchors at."""
        return self.nx // 2, self.ny // 2

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
        """The grid's record, keys sorted."""
        return {"nx": self.nx, "ny": self.ny,
                "periodic_x": self.periodic_x, "periodic_y": self.periodic_y,
                "x_max": self.x_max, "x_min": self.x_min,
                "y_max": self.y_max, "y_min": self.y_min}


def make_grid(bounds, resolution, periodicity=False) -> Grid2D:
    """Build a Grid2D from (x_min, x_max, y_min, y_max), (nx, ny) and periodic flags."""
    x_min, x_max, y_min, y_max = bounds
    nx, ny = resolution
    if isinstance(periodicity, bool):
        px = py = periodicity
    else:
        px, py = periodicity
    return Grid2D(float(x_min), float(x_max), float(y_min), float(y_max),
                  int(nx), int(ny), bool(px), bool(py))


def square_grid(half_width: float, n: int, periodic: bool = False) -> Grid2D:
    return make_grid((-half_width, half_width, -half_width, half_width), (n, n), periodic)


class ComplexField:
    """Complex values sampled over a Grid2D.  mask marks singular/flagged nodes."""

    grid: Grid2D
    values: np.ndarray
    mask: np.ndarray | None

    def __init__(self, grid, values, mask=None):
        self.grid = grid
        self.values = np.asarray(values, dtype=np.complex128)
        if self.values.shape != (grid.ny, grid.nx):
            raise GridConfigError(
                f"values shape {self.values.shape} != grid shape {(grid.ny, grid.nx)}")
        self.mask = grid_mask(grid, mask)

    def like(self, values) -> "ComplexField":
        return ComplexField(self.grid, values, self.mask)

    def conj(self) -> "ComplexField":
        return self.like(np.conj(self.values))

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


def grid_mask(grid: Grid2D, mask) -> np.ndarray | None:
    """mask as a bool array (None stays None); GridConfigError unless its shape is
    the grid's (ny, nx)."""
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (grid.ny, grid.nx):
        raise GridConfigError(f"mask shape {mask.shape} != grid shape {(grid.ny, grid.nx)}")
    return mask


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


def ddx(values: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    """d/dx of (..., ny, nx) values whose columns are h apart."""
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


def ddy(values: np.ndarray, h: float, periodic: bool, rows: slice = slice(None)) -> np.ndarray:
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
    fx = ddx(values[..., rows, :], grid.hx, grid.periodic_x)
    fy = ddy(values, grid.hy, grid.periodic_y, rows)
    if direction == "z":          # (fx - i fy) / 2, formed in place in fx
        fx.real += fy.imag
        fx.imag -= fy.real
    else:                         # (fx + i fy) / 2
        fx.real -= fy.imag
        fx.imag += fy.real
    fx *= 0.5
    return fx


def wirtinger_derivative(f: ComplexField, direction: str) -> ComplexField:
    """d f / dz or d f / dzbar from central differences (one-sided at open edges)."""
    if direction not in ("z", "zbar"):
        raise ValueError(f"unknown direction {direction!r}")
    return f.like(wirtinger_rows(f.grid, f.values, direction))


def partials(grid: Grid2D, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of real or complex (..., ny, nx) values: the central differences
    of wirtinger_derivative, so that (f_x - i f_y) / 2 of a real f is its d/dz."""
    return (ddx(values, grid.hx, grid.periodic_x), ddy(values, grid.hy, grid.periodic_y))


# ---------------------------------------------------------------------------
# quadrature


def axis_weights(n: int, h: float, periodic: bool) -> np.ndarray:
    """Trapezoid weights of n nodes h apart; the rectangle rule's if periodic."""
    w = np.full(n, h)
    if not periodic:
        w[0] = w[-1] = h / 2
    return w


def abs2_quadrature(U: ComplexField, box: tuple | None) -> tuple[float, float, float, np.ndarray]:
    """The one quadrature of |U|^2: (I, I_box, peak, ring), I the trapezoid rule of
    int |U|^2 dx dy (the rectangle rule along a periodic axis), I_box the trapezoid
    rule over the nodes x0:x1, y0:y1 of box = (x0, x1, y0, y1) (0.0 for None), peak
    the largest |U| and ring |U| on the top, bottom, left and right sides.  One
    pass over row_blocks forms |U|^2 = re^2 + im^2, writes each masked node's
    mask_patches mean and sums the rows by np.einsum, which rounds a row alike in any
    block (BLAS does not).  MaskError on a non-finite |U|^2 at an unmasked node or
    an integral that overflows.  Where the squared peak is below the smallest normal
    float, |U|^2 has underflowed, and the peak and ring are read again from U scaled
    by the power of 2 that brings its largest unmasked |U| into [1/2, 1)."""
    g, vals, mask = U.grid, U.values, U.mask
    ny, nx = vals.shape
    x0, x1, y0, y1 = box or (0, 0, 0, 0)
    wx, wy = axis_weights(nx, g.hx, g.periodic_x), axis_weights(ny, g.hy, g.periodic_y)
    wx_in, wy_in = (axis_weights(x1 - x0, g.hx, False), axis_weights(y1 - y0, g.hy, False)
                    ) if box else (None, np.empty(0))
    blocks = row_blocks(nx, ny)
    u2, sq = np.empty((2, blocks[0].stop, nx))
    rows, rows_in, ring2 = np.empty(ny), np.empty(y1 - y0), np.empty(2 * (nx + ny))
    left, right = ring2[2 * nx:2 * nx + ny], ring2[2 * nx + ny:]
    peak2, bad = 0.0, 0
    with np.errstate(over="ignore"):                    # an overflow is refused as a NaN is
        py, px, pv = ((np.empty(0, np.intp),) * 3 if mask is None
                      else mask_patches(vals, mask, lambda w: w.real**2 + w.imag**2))
        patched = np.searchsorted(py, [r.start for r in blocks] + [ny]).tolist()
        for k, r in enumerate(blocks):
            v, b, t = vals[r], u2[:r.stop - r.start], sq[:r.stop - r.start]
            np.multiply(v.real, v.real, out=b)
            b += np.multiply(v.imag, v.imag, out=t)
            lo, hi = patched[k], patched[k + 1]
            if lo < hi:
                b[py[lo:hi] - r.start, px[lo:hi]] = pv[lo:hi]
            left[r], right[r] = b[:, 0], b[:, -1]
            if r.start == 0:
                ring2[:nx] = b[0]
            if r.stop == ny:
                ring2[nx:2 * nx] = b[-1]
            if not np.isfinite(bmax := b.max()):
                bad += np.count_nonzero(~np.isfinite(b) & (True if mask is None else ~mask[r]))
            peak2 = np.maximum(peak2, bmax)
            np.einsum("ij,j->i", b, wx, out=rows[r])
            lo, hi = max(r.start, y0), min(r.stop, y1)
            if lo < hi:
                np.einsum("ij,j->i", b[lo - r.start:hi - r.start, x0:x1], wx_in,
                          out=rows_in[lo - y0:hi - y0])
    total = float(np.einsum("i,i->", wy, rows))
    if bad or not np.isfinite(total):
        raise MaskError(f"|U|^2 is not finite on {bad} unmasked node(s)" if bad
                        else "the integral of |U|^2 overflows")
    peak, ring = float(np.sqrt(peak2)), np.sqrt(ring2)
    if peak2 < np.finfo(float).tiny and (top := masked_max_abs(vals, mask)) > 0:
        k, scaled = math.frexp(top)[1], np.empty_like(vals)
        with np.errstate(over="ignore"):              # only a masked node can overflow
            np.ldexp(vals.real, -k, out=scaled.real)
            np.ldexp(vals.imag, -k, out=scaled.imag)
        _, _, peak, ring = abs2_quadrature(ComplexField(g, scaled, mask), None)
        peak, ring = math.ldexp(peak, k), np.ldexp(ring, k)
    return total, float(np.einsum("i,i->", wy_in, rows_in)), peak, ring


# ---------------------------------------------------------------------------
# path integration


_PATH_TOL = 0.01     # path defect allowed, relative to max sqrt(|gx|^2 + |gy|^2)


def antiderivative(grid: Grid2D, gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, float]:
    """(F, defect) for the 1-form gx dx + gy dy, real or complex gx, gy of shape
    (..., ny, nx): F(P) = int_{P0}^{P} (gx dx + gy dy) along the x-first L-path from
    P0 = grid.centre (along the centre row, then up or down each column), written
    over gy, and its path defect, max |F - G| over every node, G the y-first
    integral (up or down the centre column, then along each row).  For
    p dz + q dzbar, gx = p + q and gy = i (p - q).

    The one closedness rule: ClosednessError unless the defect is at most
    _PATH_TOL max sqrt(|gx|^2 + |gy|^2) over the nodes (a NaN fails too).  The
    columns are integrated in place (_cumtrapz_columns); then, one row block at a
    time, they are anchored at the centre row, the centre row's integral is added
    and G, the row integrals of gx plus F's centre column, is compared.  So no
    full-size temporary exists, and F and the defect are the whole-grid trapezoid
    sums to the bit."""
    ix0, iy0 = grid.centre
    edge = _cumtrapz_from(gx[..., iy0, :], grid.hx, ix0)[..., None, :]
    blocks = row_blocks(grid.nx, grid.ny)
    work = np.empty(gy.shape[:-2] + (blocks[0].stop, grid.nx), complex)
    tol = _PATH_TOL * _cumtrapz_columns(gx, gy, grid.hy, work)
    anchor = gy[..., iy0:iy0 + 1, :].copy()
    buf = work if gy.dtype == work.dtype else np.empty(work.shape, gy.dtype)
    defect = 0.0
    for r in blocks:
        b = gy[..., r, :]
        b -= anchor
        b += edge
        g = _cumtrapz_from(gx[..., r, :], grid.hx, ix0, out=buf[..., :r.stop - r.start, :])
        g += b[..., ix0:ix0 + 1]
        g -= b
        defect = np.maximum(defect, masked_max_abs(g, None))
    defect = float(defect)
    if not defect <= tol:                             # NaN fails too
        raise ClosednessError(
            f"path-dependence defect {defect:.3g} exceeds {tol:.3g}; form not closed")
    return gy, defect


def _cumtrapz_columns(gx: np.ndarray, out: np.ndarray, h: float, mag: np.ndarray) -> float:
    """The cumulative trapezoid down each column of out from row 0, in place, one
    row block at a time, each block carrying the running sums and the last row of
    values of the one before; returns max |(|gx|, |out|)| over the nodes, as np.abs
    forms it in mag, a complex block buffer, read before out is written."""
    ny, nx = out.shape[-2:]
    scale, last = 0.0, None
    for r in row_blocks(nx, ny):
        b, m = out[..., r, :], mag[..., :r.stop - r.start, :]
        np.abs(gx[..., r, :], out=m.real)
        np.abs(b, out=m.imag)
        scale = np.maximum(scale, np.max(np.abs(m)))
        first, tail = b[..., :1, :], b[..., -1:, :].copy()
        np.add(b[..., :-1, :], b[..., 1:, :], out=b[..., 1:, :])
        if last is None:
            first[...] = 0.0
            seg = b[..., 1:, :]
            seg *= h / 2
        else:
            np.add(last, first, out=first)
            seg = b
            seg *= h / 2
            first += out[..., r.start - 1:r.start, :]
        np.cumsum(seg, axis=-2, out=seg)
        last = tail
    return float(scale)


def _cumtrapz_from(vals: np.ndarray, h: float, i0: int, out: np.ndarray | None = None
                   ) -> np.ndarray:
    """Cumulative trapezoid along the last axis, anchored to zero at index i0, into
    out (not vals; its last two axes contiguous) or a fresh array.  The pair sums
    run over the last two axes as one flat run, as ddx's differences do, and the
    first column, which pairs across a row break, is zeroed before the scaling."""
    out = np.empty(vals.shape, vals.dtype) if out is None else out
    v, o = (a.reshape(a.shape[:-2] + (-1,)) for a in (vals, out))
    np.add(v[..., :-1], v[..., 1:], out=o[..., 1:])
    out[..., 0] = 0.0
    o *= h / 2
    np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
    out -= out[..., i0:i0 + 1].copy()
    return out


# ---------------------------------------------------------------------------
# serialization: numbers are formatted in numpy by NumberText as 64-bit words of
# template bytes whose unprinted bytes are 0 and dropped by bytes.translate


def save_csv(csv_path, header: str, lines):
    """The one CSV writer: the header line, with its line end, then lines, bytes."""
    with open(csv_path, "wb") as fh:
        fh.write(header.encode())
        fh.writelines(lines)


def _plain(obj):
    """obj as the one JSON rule reads it: dicts, lists and tuples item by item, a
    numpy scalar as its Python value, a complex number as [re, im], a path as its
    text and a non-finite float as None.  Keys keep the record's order."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return [_plain(obj.real), _plain(obj.imag)]
    if isinstance(obj, PurePath):
        return str(obj)
    return obj


def json_text(obj) -> str:
    """The one JSON rule on one line: strict JSON (no NaN or Infinity) of _plain(obj)."""
    return json.dumps(_plain(obj), allow_nan=False)


def save_json(path, obj):
    """The one JSON writer: the rule's strict JSON of obj, indent 1."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_plain(obj), indent=1, allow_nan=False))


def _words(texts, n: int) -> np.ndarray:
    """Little-endian 64-bit words of byte strings, zero-padded to n bytes."""
    return np.array(texts, f"S{n}").view("<u8")


class NumberText:
    """fmt % x ('%.Pg', P = 4 k + 1) of floats as template words: the one text layout,
    built once per writer; its digit rule supplies each value's P digits D and row i.

    A value is 2 + (P - 1) / 4 words: lead, sign and '0.000' | digits four at a time,
    each followed by a slot | digit P, a slot, 'e+dd', a free byte for a line end and
    P where digit P is nonzero.  Row i = row(e, x < 0) holds the front and exponent
    of e in [e_lo, e_hi]; rows above e_hi print as e_hi.  Digit word j's slot j holds
    the place of its last nonzero digit, and (last, i) picks the digits kept, the
    front and the dot."""

    def __init__(self, P: int, e_lo: int, e_hi: int, lead: bytes, fmt: bytes):
        nd, d, n2 = (P - 1) // 4, np.arange(10, dtype="<u8"), np.arange(100)
        self.n, self.e_lo, self.fmt = nd + 2, e_lo, lead + fmt
        self.neg = neg = 1 << (e_hi - e_lo).bit_length()               # rows of one sign
        self.e = e = np.minimum(np.arange(2 * neg) % neg + e_lo, e_hi)  # e of row i
        self._divs = [10 ** (P - 4 * j - 4) for j in range(nd)]          # digits 1 to 4 j + 4 of D
        l2 = np.where(n2 % 10 > 0, 2, n2 > 0)                            # place of the last nonzero
        l4 = np.where(l2 > 0, l2 + 2, l2[:, None]).ravel()               # digit of 00-99, 0000-9999
        d2 = n2 // 10 + 48 | n2 % 10 + 48 << 16
        self._d4 = ((d2[:, None] | d2 << 32).ravel()                     # digit k, then slot k
                    | (l4 * 0x1000100010001 + 0xC000800040000 << 8) * (l4 > 0)).astype("<u8")
        self._dp = d + 48 | np.uint64(P << 56) * (d > 0)                 # digit P, then P if not 0
        point = np.where((e >= -4) & (e < P), np.maximum(e + 1, 0), 1)   # digits before the dot
        digit = np.r_[8:8 * nd + 8:2, 8 * nd + 8]                        # byte of digit 1, ..., P
        keep, dot = np.zeros((2, P + 1, e.size, 8 * nd + 16), np.uint8)  # [last, i, byte]
        last = np.arange(P + 1)[:, None]
        keep[..., digit] = (np.arange(P) < np.maximum(last, point)[..., None]) * np.uint8(255)
        rows = [(lead + b"-" * (i >= neg) + b"0.000"[:1 - k] * (-4 <= k < 0)).ljust(8 * nd + 10, b"\0")
                + b"e%+03d" % k * (k < -4 or k >= P) for i, k in enumerate(e.tolist())]
        dot[:] = _words(rows, 8 * nd + 16).view(np.uint8).reshape(e.size, -1)   # front, exponent
        last, i = np.nonzero((last > point) & (point > 0))
        dot[last, i, digit[point[i] - 1] + 1] = ord(".")
        self._keep, self._dot = (t.view("<u8").reshape(-1, nd + 2).T.copy() for t in (keep, dot))

    def row(self, e, neg):
        """Row i of exponents e and signs neg (x < 0), as intp."""
        return (e - self.e_lo + self.neg * neg).astype(np.intp)

    def cells(self, D, i, fast, v) -> np.ndarray:
        """The words of lead + fmt % x for each x of v, word by word: (n,) + v.shape.
        Where fast, D (int64) holds x's P digits (0 for a zero of row e = 0) and i its
        row; fmt itself formats the rest.  i is overwritten."""
        n = self.n
        w = np.empty((n,) + v.shape, "<u8")
        q = w[1:].view(np.int64)                       # q[j] is read by the take that overwrites it
        for qj, div in zip(q, self._divs):             # digits 1-4, 1-8, ..., 1-(P-1) of D
            np.floor_divide(D, div, out=qj)
        np.subtract(D, q[n - 3] * 10, out=q[n - 2])     # digit P
        q[1:n - 2] -= q[:n - 3] * 10000                 # digits 5-8, 9-12, ...
        np.take(self._dp, q[n - 2], out=w[n - 1], mode="clip")
        last = w[n - 1].view(np.uint8)[..., 7::8]
        for j in range(n - 2):
            np.take(self._d4, q[j], out=w[1 + j], mode="clip")
            last = np.maximum(last, w[1 + j].view(np.uint8)[..., 2 * j + 1::8])
        i += np.multiply(last, self.e.size, dtype=np.intp)
        buf = np.take(self._keep, i, 1, mode="clip")
        w &= buf
        w |= np.take(self._dot, i, 1, out=buf, mode="clip")
        if not fast.all():                             # lead and '%' text; the last word stays 0
            w[:, ~fast] = _words([self.fmt % x for x in v[~fast].tolist()], 8 * n).reshape(-1, n).T
        return w


_NODE = NumberText(17, -6, 16, b",", b"%.17g")                  # the node CSV's text
_TEXT_VALUES = 1600          # floats formatted at a time, in whole rows: about 120 bytes each at peak
_P10 = np.array([float(10 ** (16 - e)) for e in _NODE.e.tolist()])     # b, exact in float64
_P10H = _P10 * 134217729.0 - (_P10 * 134217729.0 - _P10)     # Veltkamp's split b = bh + bl
_P10L = _P10 - _P10H


def _digits(v):
    """D, the row i of _NODE and whether D holds x's 17 digits, for each x of v.

    An e outside [-6, 16] picks, through i & 63, the b of an e that differs by a
    multiple of 32 (or b = 1 above 16), so the product misses [10^16, 10^17)."""
    with np.errstate(all="ignore"):
        a = np.abs(v)
        i = _NODE.row(np.floor(np.log10(a)), v < 0) & 63
        ah = a * 134217729.0                           # Veltkamp's split a = ah + al
        ah = ah - (ah - a)
        al = a - ah
        p = a * _P10[i]
        err = ah * _P10H[i] - p + ah * _P10L[i] + al * _P10H[i] + al * _P10L[i]
        lo = p - 1e16 + err                            # |x| b - 10^16, its sign exact
        # 0 <= lo < 9e16, compared as bits: those of a nan or a negative lo are above
        ok = lo.view(np.uint64) < np.float64(9e16).view(np.uint64)
        D = p.astype(np.int64) + np.rint(err).astype(np.int64)
    return D, i, ok


def save_nodes_csv(csv_path, header: str, *columns):
    """Per node of the (ny, nx) columns: ix, iy, then re and im of each, as np.savetxt
    prints them with "%d" and "%.17g", formatted in numpy a few grid rows at a time.

    With e = floor(log10 |x|) in [-6, 16], (p, err) = TwoProduct(|x|, 10^(16 - e))
    by Dekker's split products (numpy has no fused multiply-add) is exact, as
    10^(16 - e) <= 10^22 is.  p >= 10^16 > 2^53 is an even integer, so
    D = p + rint(err) is the product rounded half to even, as '%' rounds: x's 17
    digits.  '%' itself formats the rest: 0, subnormal and non-finite values, e
    outside [-6, 16], and where log10 was off by one, so that p + err < 10^16 or
    D >= 10^17."""
    ny, nx = columns[0].shape
    k, wx = 2 * len(columns), len(str(nx - 1))
    nw = (wx + len(str(ny - 1)) + 8) // 8               # words of 'ix,iy'
    ixw = _words([b"%d," % ix for ix in range(nx)], 8 * nw).reshape(nx, nw)
    iyw = _words([b"\0" * (wx + 1) + b"%d" % iy for iy in range(ny)], 8 * nw).reshape(ny, nw)
    step = max(1, _TEXT_VALUES // (k * nx))

    def lines():
        for s in range(0, ny, step):
            rows = slice(s, s + step)
            v = np.stack([p for c in columns for p in (c[rows].real, c[rows].imag)], -1, dtype=float)
            w = _NODE.cells(*_digits(v), v)              # word by word: numpy buffers strided operands
            del v
            w[5, ..., -1] |= ord("\n") << 48
            text = np.empty(w.shape[1:3] + (nw + 6 * k,), "<u8")
            text[..., :nw] = ixw | iyw[rows, None]
            np.copyto(text[..., nw:].reshape(w.shape[1:] + (6,)), np.moveaxis(w, 0, -1))
            del w                                       # each copy below frees the one before
            text = text.tobytes()
            yield text.translate(None, b"\0")
            del text

    save_csv(csv_path, header + "\n", lines())


def save_complexfield_csv(f: ComplexField, csv_path):
    """CSV columns ix, iy, re, im plus a JSON sidecar with grid metadata, keys
    sorted: a masked field's [ix, iy] nodes first."""
    masked = {} if f.mask is None else {"masked_nodes": np.argwhere(f.mask)[:, ::-1].tolist()}
    save_nodes_csv(csv_path, "ix,iy,re,im", f.values)
    save_json(str(csv_path) + ".json", {**masked, **f.grid.meta()})
