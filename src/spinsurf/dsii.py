"""Exact Davey-Stewartson II solutions from heat polynomials, their exact residual
numerators, nonlocal constraint inversion, physical form, norms and singularity
analysis.

Canonical normalization (fixed for the whole package):

    U_t = i (U_zz + U_zbzb + (V + conj(V)) U),     V_zb = 2 (|U|^2)_z      (*)

The heat-polynomial family

    U = i (z f' - f) / rho,   a = -i (zbar + f' conj(f)) / rho,   V = 2 i a_z,
    rho = |z|^2 + |f|^2,      f_t = i f_zz,

satisfies (*) exactly as a rational identity -- checked in exact arithmetic by
dsii_residual_exact.  (The commonly quoted variant with the coupling doubled
and the constraint halved is reached by relabelling V -> V/2, see
to_halved_v_form.)

U_field/V_field sample through RationalFn.on_grid, masking the zeros of rho
(V's extra poles: rho^2 can miss one by rounding) and z = 0 where f(0, t) is
exactly 0 (rho's expanded constant term can miss it); they and the singularity
ledger follow exactpoly's one rule for c.  The ledger is exact: a singular
instant is a real root t_s of f(0, t), and the blow-up coefficient is
i a2 / (1 + |a1|^2), read off f(z, t_s) = a1 z + a2 z^2 + ...
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactpoly import (BiPoly, C, InvalidDatumError, RationalFn, Z, ZBAR,
                        heat_extend, heat_residual)
from .grid import ComplexField, Grid2D, MaskError, _axis_weights, mask_patches, row_blocks


class DecayError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# exact solutions


@dataclass
class ExactSolution:
    """A DSII solution built from a heat polynomial f(z, t)."""

    f: BiPoly
    U: RationalFn
    a: RationalFn
    V: RationalFn
    c: complex | None = None          # None: symbolic
    name: str = "custom"

    @property
    def den(self) -> BiPoly:
        """rho, the pole set of every field of the family."""
        return self.U.den

    def U_field(self, grid: Grid2D, t: float) -> ComplexField:
        return self._origin_masked(self.U.on_grid(grid, t, self.c), t)

    def V_field(self, grid: Grid2D, t: float) -> ComplexField:
        return self._origin_masked(self.V.on_grid(grid, t, self.c, poles=self.den), t)

    def _origin_masked(self, field: ComplexField, t: float) -> ComplexField:
        """field, with its node z = 0 (if the grid has one) masked and read as 0 when
        f(0, t) specialises to exactly 0: rho's expanded constant term |f(0, t)|^2
        can miss that zero by rounding."""
        ix, iy = np.flatnonzero(field.grid.xs() == 0), np.flatnonzero(field.grid.ys() == 0)
        if ix.size and iy.size and self.f._specialise(t, self.c).get(0, {}).get(0, 0) == 0:
            if field.mask is None:
                field.mask = np.zeros(field.values.shape, dtype=bool)
            field.mask[iy[0], ix[0]], field.values[iy[0], ix[0]] = True, 0
        return field


def exact_solution(f: BiPoly, name: str = "custom", c=None) -> ExactSolution:
    """DSII solution built from a heat polynomial f (f_t = i f_zz exactly)."""
    hr = heat_residual(f)
    if not hr.is_zero(1e-12, max(f.max_abs(), 1.0)):
        raise InvalidDatumError("datum does not satisfy f_t = i f_zz")
    fb = f.conj()
    fp = f.wirtinger("z")
    rho = Z * ZBAR + f * fb
    U = RationalFn(1j * (Z * fp - f), rho)
    a = RationalFn(-1j * (ZBAR + fp * fb), rho)
    V = 2j * a.wirtinger("z")
    return ExactSolution(f, U, a, V, c=c, name=name)


def to_halved_v_form(sol: ExactSolution) -> RationalFn:
    """V for the variant normalization U_t = i(.. + 2(V+Vb)U), V_zb = (|U|^2)_z."""
    return sol.V * 0.5


@dataclass
class OzawaData:
    """Ozawa blow-up initial datum on the physical (X, Y) grid."""

    a: float
    b: float

    def __post_init__(self):
        if self.a == 0:
            raise InvalidDatumError("ozawa: a must be nonzero")

    @property
    def blowup_time(self) -> float:
        return -self.a / self.b if self.b != 0 else float("inf")

    def U0_field(self, grid: Grid2D) -> ComplexField:
        zm = grid.zmesh()
        X, Y = zm.real, zm.imag
        a, b = self.a, self.b
        vals = np.exp(-1j * b / (4 * a) * (X**2 - Y**2)) \
            / (a * (1 + ((X / a) ** 2 + (Y / a) ** 2) / 2))
        return ComplexField(grid, vals)

    def U0_zside(self, grid: Grid2D) -> ComplexField:
        """The datum in the evolver's z-side variables on a z-plane grid:
        U(x, y) = sqrt(2) W(2y, 2x), sampled through physical_grid_of."""
        W = self.U0_field(physical_grid_of(grid))
        return ComplexField(grid, np.sqrt(2) * _swap_scale(W.values))


def catalog(name: str, c=1.0, a: float = 1.0, b: float = -1.0):
    """Named exact data: 's1' (quadratic), 's2' (quartic), 'ozawa' (initial field);
    c = "symbolic" keeps c a variable of f."""
    if name in ("s1", "s2"):
        c = None if isinstance(c, str) and c == "symbolic" else complex(c)
        z_part = Z * Z if name == "s1" else Z ** 4
        f = heat_extend(z_part + (C if c is None else c * BiPoly.const(1.0)))
        return exact_solution(f, name=name, c=c)
    if name == "ozawa":
        return OzawaData(a, b)
    raise KeyError(f"unknown catalog entry {name!r}")


# ---------------------------------------------------------------------------
# exact residual numerators


def dsii_residual_exact(sol: ExactSolution, kappa_evol: float = 1.0,
                        kappa_cons: float = 2.0):
    """Exact-arithmetic residual numerators of the DSII system for an ExactSolution.

    Returns (evolution_numerator, constraint_numerator) as BiPolys over the
    common denominator rho^3; both are the zero polynomial for heat-polynomial
    data under the canonical normalization (kappa_evol=1, kappa_cons=2).

    The quotient rule is expanded by hand so every product keeps one small
    factor: this bounds the coefficient growth (exactness of the float
    arithmetic on integer data) and the term-count blowup.
    """
    N = sol.U.num                # i (z f' - f)
    rho = sol.U.den              # |z|^2 + |f|^2, formally self-conjugate
    M = sol.a.num                # -i (zbar + f' conj f)
    dzp = lambda p: p.wirtinger("z")
    dbp = lambda p: p.wirtinger("zbar")
    dtp = lambda p: p.wirtinger("t")

    numV = 2j * (dzp(M) * rho - M * dzp(rho))    # V = numV / rho^2
    numVb = numV.conj()
    Nb = N.conj()

    term_t = (dtp(N) * rho - N * dtp(rho)) * rho

    def second(d):
        return (d(d(N)) * rho - N * d(d(rho))) * rho \
            - 2 * d(rho) * (d(N) * rho - N * d(rho))

    evol = term_t - 1j * (second(dzp) + second(dbp)
                          + kappa_evol * (numV + numVb) * N)
    cons = (dbp(numV) * rho - 2 * numV * dbp(rho)) \
        - kappa_cons * ((dzp(N) * Nb + N * dzp(Nb)) * rho - 2 * (N * Nb) * dzp(rho))
    return evol, cons


def dsii_exact_identity_holds(sol: ExactSolution) -> bool:
    """True when both residual numerators vanish; exact cancellation for
    Gaussian-integer data, a relative threshold against the ~rho^3 coefficient
    growth otherwise."""
    ev, co = dsii_residual_exact(sol)
    if ev.nterms == 0 and co.nterms == 0:
        return True
    scale = max(sol.U.num.max_abs(), sol.U.den.max_abs(), 1.0) ** 3
    return ev.is_zero(1e-12, scale) and co.is_zero(1e-12, scale)


# ---------------------------------------------------------------------------
# the nonlocal constraint


def re_v_from_u(U: ComplexField) -> np.ndarray:
    """Re V directly: multiplier 2 (kx^2 - ky^2)/k^2 on |U|^2 (zero-mean gauge)."""
    ny, nx = U.values.shape
    return re_v_into(U.values, U.grid.spectral, np.empty((ny, nx // 2 + 1), complex),
                     np.empty((ny, nx)))


def re_v_into(u: np.ndarray, sp, n_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """re_v_from_u on the array u into the real array out, through the scratch
    array n_hat (rfft2 layout); irfft2 runs as two in-place passes (its out is ignored)."""
    n = np.multiply(u.real, u.real, out=out)
    n += u.imag**2
    np.fft.rfftn(n, out=n_hat)
    n_hat *= sp.re_v
    np.fft.ifft(n_hat, axis=0, out=n_hat)
    return np.fft.irfft(n_hat, n=u.shape[1], axis=1, out=out)


# ---------------------------------------------------------------------------
# physical (focusing) form


@dataclass
class PhysicalForm:
    U_phys: ComplexField          # field entering the focusing equation
    phi: ComplexField             # potential of the Poisson problem (z-side scale)
    grid_phys: Grid2D
    rev_residual: float           # Re V - (2|U|^2 - 4 phi_X), z-side quantities
    ozeq_residual: float | None = None


def physical_grid_of(grid: Grid2D) -> Grid2D:
    """The (X, Y) = (2y, 2x) image of a z-plane grid."""
    return Grid2D(2 * grid.y_min, 2 * grid.y_max, 2 * grid.x_min, 2 * grid.x_max,
                  grid.ny, grid.nx, grid.periodic_y, grid.periodic_x)


def _swap_scale(values: np.ndarray) -> np.ndarray:
    # (X, Y) = (2y, 2x): the physical array indexed [iY, iX] is the transpose
    return values.T.copy()


def physical_form(U: ComplexField, V: ComplexField, U_stencil=None, dt=None):
    """Transform to the focusing variables X = 2y, Y = 2x.

    Enforces/reports Re V = 2|U|^2 - 4 phi_X with Delta phi = d_X |U|^2 (z-side
    fields on the physical grid).  With a 3-slice z-side time stencil the
    residual of the focusing equation

        i W_T - W_XX + W_YY = -4 |W|^2 W + 8 phi'_X W,   W = U / sqrt(2), T = 2t

    is also evaluated (phi' = phi / 2).
    """
    gp = physical_grid_of(U.grid)
    Uz_phys = ComplexField(gp, _swap_scale(U.values))
    n = Uz_phys.abs2()
    sp = gp.spectral
    # RHS is d_X of a periodic field, so its mean vanishes and the Poisson
    # problem is always solvable in the zero-mean gauge.
    phi_hat = sp.ikx * np.fft.fft2(n.values.real) * sp.lap_inv
    phi = np.fft.ifft2(phi_hat).real
    phi_X = np.fft.ifft2(sp.ikx * np.fft.fft2(phi)).real
    ReV_phys = _swap_scale(V.values).real
    ReV_phys = ReV_phys - ReV_phys.mean()        # match the zero-mean spectral gauge
    target = 2 * n.values.real - 4 * phi_X
    target = target - target.mean()
    rev_residual = float(np.max(np.abs(ReV_phys - target)))

    ozeq = None
    if U_stencil is not None:
        if dt is None:
            raise ValueError("dt required with a stencil")
        Wm, W0, Wp = (_swap_scale(s.values) / np.sqrt(2) for s in U_stencil)
        W_T = (Wp - Wm) / (2 * dt) / 2.0          # T = 2t
        W = ComplexField(gp, W0)
        Wxx = _d2(W.values, gp.hx, axis=1)
        Wyy = _d2(W.values, gp.hy, axis=0)
        phi_p_X = phi_X / 2.0
        lhs = 1j * W_T - Wxx + Wyy
        rhsq = -4 * np.abs(W0) ** 2 * W0 + 8 * phi_p_X * W0
        ozeq = float(np.max(np.abs(lhs - rhsq)))
    return PhysicalForm(ComplexField(gp, _swap_scale(U.values) / np.sqrt(2)),
                        ComplexField(gp, phi.astype(complex)), gp, rev_residual, ozeq)


def _d2(vals: np.ndarray, h: float, axis: int) -> np.ndarray:
    return (np.roll(vals, -1, axis=axis) - 2 * vals + np.roll(vals, 1, axis=axis)) / h**2


# ---------------------------------------------------------------------------
# norms with tail handling


@dataclass
class NormResult:
    value: float            # Richardson-extrapolated quadrature of |U|^2
    raw: float              # plain full-box quadrature
    tail_bound: float       # analytic bound from the boundary decay constant
    decay_ok: bool


def l2_norm_sq(U: ComplexField, require_decay: bool = True) -> NormResult:
    """int |U|^2 dx dy with O(1/r^2) decay verification and 1/R^2 Richardson tail
    extrapolation between the full box and an inner sub-box of 0.7 its half-width.

    One pass over grid.row_blocks forms |U|^2, its
    maximum, its boundary ring and the trapezoid row sums of both boxes: no
    full-size array exists.  Masked (singular) nodes are patched by mask_patches
    with the 8-neighbour mean of |U|^2; it stays bounded at the catalog
    singularities, so the patch is O(h^2) accurate.  The peak and the ring are
    read from the patched blocks, so neither reads what a masked node holds.  A
    non-finite |U|^2 on an unmasked node raises MaskError."""
    g, vals, mask = U.grid, U.values, U.mask
    ny, nx = vals.shape
    xs, ys = g.xs(), g.ys()
    R1 = min(g.x_max, -g.x_min, g.y_max, -g.y_min) if g.x_min < 0 else min(g.x_max, g.y_max)
    R2 = 0.7 * R1
    sx = np.flatnonzero(np.abs(xs) <= R2)        # the sub-box: one index range per axis
    sy = np.flatnonzero(np.abs(ys) <= R2)
    inner = sx.size >= 8 and sy.size >= 8
    x0, x1, y0, y1 = (sx[0], sx[-1] + 1, sy[0], sy[-1] + 1) if inner else (0, 0, 0, 0)
    wx = _axis_weights(nx, g.hx, g.periodic_x)
    wx_in = _axis_weights(x1 - x0, g.hx, False) if inner else None
    py, px, pv = ((np.empty(0, np.intp),) * 3 if mask is None
                  else mask_patches(vals, mask, lambda w: w.real**2 + w.imag**2))

    blocks = row_blocks(nx, ny)
    patched = np.searchsorted(py, [r.start for r in blocks] + [ny]).tolist()  # block k: [k:k + 2]
    u2, sq = np.empty((2, blocks[0].stop, nx))
    rows, rows_in = np.empty(ny), np.empty(y1 - y0)     # weighted row sums
    ring2 = np.empty(2 * (nx + ny))                     # top, bottom, left, right sides
    left, right = ring2[2 * nx:2 * nx + ny], ring2[2 * nx + ny:]
    top, bad = 0.0, 0
    for k, block in enumerate(blocks):
        v, r = vals[block], block.start
        n = len(v)
        b, t = u2[:n], sq[:n]
        np.multiply(v.real, v.real, out=b)
        np.multiply(v.imag, v.imag, out=t)
        b += t
        lo, hi = patched[k], patched[k + 1]
        if lo < hi:
            b[py[lo:hi] - r, px[lo:hi]] = pv[lo:hi]
        left[r:r + n], right[r:r + n] = b[:, 0], b[:, -1]
        if r == 0:
            ring2[:nx] = b[0]
        if r + n == ny:
            ring2[nx:2 * nx] = b[-1]
        bmax = b.max()
        if not np.isfinite(bmax):
            bad += np.count_nonzero(~np.isfinite(b) if mask is None
                                    else ~np.isfinite(b) & ~mask[block])
        top = np.maximum(top, bmax)
        np.matmul(b, wx, out=rows[r:r + n])
        lo, hi = max(r, y0), min(r + n, y1)
        if lo < hi:
            np.matmul(b[lo - r:hi - r, x0:x1], wx_in, out=rows_in[lo - y0:hi - y0])
    if bad:
        raise MaskError(f"|U|^2 is not finite on {bad} unmasked node(s)")
    peak = float(np.sqrt(top))
    raw = float(_axis_weights(ny, g.hy, g.periodic_y) @ rows)

    ring = np.sqrt(ring2)
    rb2 = np.concatenate([xs**2 + ys[0]**2, xs**2 + ys[-1]**2,
                          xs[0]**2 + ys**2, xs[-1]**2 + ys**2])
    Cdec = float(np.max(ring * rb2))            # |U| <= C / r^2 on the boundary
    decay_ok = peak == 0.0 or float(np.max(ring)) <= peak / 10.0
    if require_decay and not decay_ok:
        raise DecayError(f"no O(1/r^2) boundary decay: boundary max {np.max(ring):.3g} "
                         f"vs peak {peak:.3g}")

    if inner:
        I1, I2 = raw, float(_axis_weights(y1 - y0, g.hy, False) @ rows_in)
        value = (I1 * R1**2 - I2 * R2**2) / (R1**2 - R2**2)
    else:
        value = raw
    tail = np.pi * Cdec**2 / R1**2
    return NormResult(float(value), float(raw), float(tail), bool(decay_ok))


# ---------------------------------------------------------------------------
# singularity ledger


@dataclass
class SingularEvent:
    t_sing: float
    location: complex
    coefficient: complex      # exact A in U ~ A e^{2 i phi} along z = r e^{i phi}, r -> 0

    def as_dict(self):
        return {"t_sing": self.t_sing, "z": [self.location.real, self.location.imag],
                "coeff": [self.coefficient.real, self.coefficient.imag]}


def _t_poly_at_origin(sol: ExactSolution):
    """Coefficients of f(0, t) as a complex polynomial in t (ascending): the z-free
    terms of f with t's exponent moved to z's place, specialised to sol.c."""
    f0 = BiPoly({(dt_, 0, 0, dc, dcb): v for (dz_, dzb, dt_, dc, dcb), v in sol.f.coef.items()
                 if not (dz_ or dzb)})
    coeffs = f0._specialise(c=sol.c)[0]
    return np.array([coeffs.get(k, 0.0) for k in range(max(coeffs) + 1)], dtype=complex)


def _real_roots_of_complex_poly(coeffs: np.ndarray):
    """Real t with P(t) = 0 for a complex-coefficient polynomial (both parts vanish).

    Degree <= 2 uses closed forms (exact for the catalog); otherwise companion
    eigenvalues with |Im| <= 1e-10 max(1, |roots|)."""

    def real_roots(arr):
        arr = np.trim_zeros(np.asarray(arr, dtype=float), "b")
        if len(arr) == 0:
            return "all"
        if len(arr) == 1:
            return []
        if len(arr) == 2:
            return [-arr[0] / arr[1]]
        if len(arr) == 3:
            a0, a1, a2 = arr
            disc = a1 * a1 - 4 * a2 * a0
            if disc < 0:
                return []
            sq = np.sqrt(disc)
            return [(-a1 - sq) / (2 * a2), (-a1 + sq) / (2 * a2)]
        roots = np.roots(arr[::-1])
        scale = max(1.0, float(np.max(np.abs(roots))))
        return [r.real for r in roots if abs(r.imag) <= 1e-10 * scale]

    rp = real_roots(np.real(coeffs))
    rq = real_roots(np.imag(coeffs))
    if rp == "all" and rq == "all":
        raise InvalidDatumError("f(0, t) vanishes identically; persistent singularity at z=0")
    if rp == "all":
        cand = rq
    elif rq == "all":
        cand = rp
    else:
        scale = max(float(np.max(np.abs(coeffs))), 1.0)
        deg = len(coeffs) - 1
        cand = [r for r in rp
                if abs(np.polyval(coeffs[::-1], r)) <= 1e-9 * scale * max(1.0, abs(r)) ** deg]
    return sorted(set(round(float(r), 14) for r in cand))


def singular_times(sol: ExactSolution) -> list[SingularEvent]:
    """All real (t, z=0) zeros of |z|^2 + |f|^2, each with the exact coefficient
    A = i a2 / (1 + |a1|^2) of U ~ A e^{2 i phi}: with f(z, t_s) = a1 z + a2 z^2 + ...,
    z f' - f = a2 z^2 + ... and rho = (1 + |a1|^2) |z|^2 + ...  a1, a2 are read off f
    at t_s under the one rule for c.  InvalidDatumError for an f that depends on
    zbar, whose z-Taylor coefficients do not give A."""
    if sol.f.depends_on("zbar"):
        raise InvalidDatumError("singular_times needs f free of zbar")
    events = []
    for r in _real_roots_of_complex_poly(_t_poly_at_origin(sol)):
        row = sol.f._specialise(r, sol.c)[0]
        a1, a2 = row.get(1, 0.0), row.get(2, 0.0)
        events.append(SingularEvent(float(r), 0j, 1j * a2 / (1 + abs(a1)**2)))
    return events
