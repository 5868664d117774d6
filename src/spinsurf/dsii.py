"""Exact Davey-Stewartson II solutions from heat polynomials, their exact residual
numerators, nonlocal constraint inversion, Ozawa's blow-up datum, norms and
singularity analysis.

Canonical normalization (fixed for the whole package):

    U_t = i (U_zz + U_zbzb + (V + conj(V)) U),     V_zb = 2 (|U|^2)_z      (*)

The heat-polynomial family

    U = i (z f' - f) / rho,   a = -i (zbar + f' conj(f)) / rho,   V = 2 i a_z,
    rho = |z|^2 + |f|^2,      f_t = i f_zz,

satisfies (*) exactly as a rational identity -- checked in exact arithmetic by
dsii_residual_exact.  (The commonly quoted variant with the coupling doubled
and the constraint halved is reached by relabelling V -> V/2, see
to_halved_v_form.)

U_field/V_field sample from the z-rows of f and its z-derivatives, not from the
expanded U and V (whose numerators and rho, rho^2 cancel near a singular
instant): rho = x^2 + y^2 + |f|^2 is a sum of squares, exactly 0 where and only
where z = 0 and f(0, t) specialises to exactly 0, and those nodes form the
mask.  For an f even in z (the catalog's s1 and s2) on a grid whose nodes are
point-symmetric to the bit (a box centred on 0 with exact node coordinates, as a
dyadic spacing gives), U and V are even and half the rows are sampled: the other
half is their reflection, which IEEE round to nearest gives to the bit up to the
sign of a zero part, and nodes with a zero part are sampled directly
(ExactSolution._sample).  The expanded U and a stay for the exact residual, which
forms V's numerator itself.  The samplers and the singularity ledger read f
through exactpoly's API alone (BiPoly.z_row, BiPoly.t_coefficients_at_origin),
under its rules for c and for zbar.  The ledger is exact: a singular instant is
a real root t_s of f(0, t), and the blow-up coefficient is i a2 / (1 + |a1|^2),
read off f(z, t_s) = a1 z + a2 z^2 + ...

Ozawa's blow-up datum W is stated in the physical variables X = 2y, Y = 2x,
T = 2t of the focusing system; OzawaData.U0_zside is where it is relabelled to
the variables of (*), U(x, y) = sqrt(2) W(2y, 2x) at t = T/2.
"""
from __future__ import annotations

import cmath

import numpy as np

from .exactpoly import (BiPoly, C, InvalidDatumError, RationalFn, Z, ZBAR, heat_extend,
                        heat_residual, horner)
from .grid import ComplexField, Grid2D, abs2_quadrature, row_blocks


class DecayError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# exact solutions


class ExactSolution:
    """A DSII solution built from a heat polynomial f(z, t)."""

    f: BiPoly
    U: RationalFn
    a: RationalFn                     # V = 2 i a_z is not expanded; see to_halved_v_form
    c: complex | None                 # None: symbolic

    def __init__(self, f, U, a, c=None):
        self.f, self.U, self.a, self.c = f, U, a, c

    def U_field(self, grid: Grid2D, t: float) -> ComplexField:
        return self._sample(grid, t, v_field=False)

    def V_field(self, grid: Grid2D, t: float) -> ComplexField:
        return self._sample(grid, t, v_field=True)

    def _sample(self, grid: Grid2D, t: float, v_field: bool) -> ComplexField:
        """U = N / rho, or V = 2 (f'' conj(f) / rho - (rho_z / rho)^2) if v_field, at time
        t on the grid's nodes, with N = i (z f' - f) and rho_z = zbar + f' conj(f), formed
        from the one-variable z-rows of f and N, or of f, f' and f'', over
        grid.row_blocks.  rho = x^2 + y^2 + (Re f)^2 + (Im f)^2 is a sum of squares: it
        is exactly 0 where, and only where, z = 0 and f(0, t) specialises to exactly 0,
        and those nodes read 0 and form the mask; InvalidDatumError where it is not
        finite (it overflows).  1/rho multiplies through the float view.  c and zbar
        follow BiPoly.z_row's rules: InvalidDatumError for an f of zbar, which has no
        z-row.

        When f's z-row has only even powers of z and the nodes are point-symmetric to
        the bit (xs[::-1] == -xs and ys[::-1] == -ys), U and V are even, U(-z) = U(z):
        the walk covers rows 0 .. ceil(ny/2) - 1, and row i past them is row ny-1-i
        reversed, as is the mask.  That is the direct walk's value to the bit.  Round
        to nearest is symmetric in sign, so at -z each step (the Horner rows, rho,
        rho_z, 1/rho) is its value at z or exactly its negative, except for the sign
        of an exact 0: x - x is +0 at z and at -z, and on the axis x = +0 stands in for
        -0.  Such a sign reaches a field value only as the sign of a zero real or
        imaginary part, so the mirror of each node with a zero part is sampled
        directly, in chunks of the walk's size (one node as two copies, as BiPoly.eval)."""
        t = float(t)
        fp = self.f.wirtinger("z")
        polys = (self.f, fp, fp.wirtinger("z")) if v_field else (self.f, self.U.num)
        f_row, *rows = (p.z_row(t, self.c) for p in polys)
        xs, ys = grid.xs(), grid.ys()
        x2, y2 = xs * xs, ys * ys
        nx, ny = xs.size, ys.size
        half = ((ny + 1) // 2 if all(k % 2 == 0 for k in f_row)
                and np.array_equal(xs[::-1], -xs) and np.array_equal(ys[::-1], -ys) else ny)
        blocks = row_blocks(nx, half)
        out = np.empty((ny, nx), dtype=np.complex128)
        z, f, *w = np.empty((3 if v_field else 2, blocks[0].stop * nx), dtype=np.complex128)
        rho, hit = np.empty(z.size), np.empty(2 * z.size, dtype=bool)

        def nodes(n, acc):
            """The field at z[:n] into acc, with rho[:n] holding x^2 + y^2; returns the
            nodes where rho is exactly 0, or None."""
            zk, fk, rk = z[:n], f[:n], rho[:n]
            horner(f_row, zk, fk)
            sq = acc.view(np.float64)[:n]                  # acc is free until N or f''
            with np.errstate(over="ignore"):           # refused below
                rk += np.square(fk.real, out=sq)
                rk += np.square(fk.imag, out=sq)
            if not np.isfinite(rk.max()):
                raise InvalidDatumError(f"rho = |z|^2 + |f|^2 is not finite on the grid at t={t:g}")
            pole = None if rk.all() else rk == 0
            if pole is not None:
                rk[pole] = 1.0
            horner(rows[-1], zk, acc)                      # N for U, f'' for V
            if v_field:
                wk = w[0][:n]
                horner(rows[0], zk, wk)                    # f'
                np.conj(fk, out=fk)
                acc *= fk
                wk *= fk
                wk += np.conj(zk, out=zk)                  # rho_z
            inv = fk.view(np.float64).reshape(n, 2)       # f is free: 1/rho, twice a node
            np.divide(1.0, rk, out=inv[:, 0])
            inv[:, 1] = inv[:, 0]
            inv = inv.reshape(-1)
            np.multiply(acc.view(np.float64), inv, out=acc.view(np.float64))
            if v_field:
                np.multiply(wk.view(np.float64), inv, out=wk.view(np.float64))
                wk *= wk
                acc -= wk
                acc *= 2
            if pole is not None:
                acc[pole] = 0.0
            return pole

        z.real.reshape(-1, nx)[...] = xs               # each block sets only Im z
        mask, zeros = None, []
        for r in blocks:
            o = out[r]
            np.copyto(z[:o.size].imag.reshape(o.shape), ys[r, None])
            np.add(x2[None, :], y2[r, None], out=rho[:o.size].reshape(o.shape))
            pole = nodes(o.size, o.reshape(-1))
            if pole is not None:
                mask = np.zeros(out.shape, dtype=bool) if mask is None else mask
                mask[r] = pole.reshape(o.shape)
            part = o[:max(0, ny - half - r.start)].view(np.float64).reshape(-1)
            zero = np.equal(part, 0, out=hit[:part.size])     # in the rows to reflect
            if zero.any():                     # the nodes with a zero part; two parts: twice
                zeros.append(r.start * nx + (np.flatnonzero(zero) >> 1))
        out[half:] = out[:ny - half][::-1, ::-1]
        if mask is not None:
            mask[half:] = mask[:ny - half][::-1, ::-1]
        if zeros:                                      # a 0 part's sign can differ at -z
            k = out.size - 1 - np.concatenate(zeros)   # (i, j) -> (ny-1-i, nx-1-j)
            for s in range(0, k.size, z.size):
                ks = k[s:s + z.size]
                ks = np.repeat(ks, 2) if ks.size == 1 else ks
                n, (iy, ix) = ks.size, np.divmod(ks, nx)
                z[:n].real, z[:n].imag = xs[ix], ys[iy]
                np.add(x2[ix], y2[iy], out=rho[:n])
                acc = np.empty(n, dtype=np.complex128)
                nodes(n, acc)
                out.reshape(-1)[ks] = acc
        return ComplexField(grid, out, mask)


def exact_solution(f: BiPoly, c=None) -> ExactSolution:
    """DSII solution built from a heat polynomial f (f_t = i f_zz exactly);
    InvalidDatumError for a non-finite coefficient of f or a non-finite c."""
    if not (f.is_finite() and cmath.isfinite(0 if c is None else c)):
        raise InvalidDatumError("the coefficients of f and c must be finite")
    hr = heat_residual(f)
    if not hr.is_zero(max(f.max_abs(), 1.0)):
        raise InvalidDatumError("datum does not satisfy f_t = i f_zz")
    fb = f.conj()
    fp = f.wirtinger("z")
    rho = Z * ZBAR + f * fb
    U = RationalFn(1j * (Z * fp - f), rho)
    a = RationalFn(-1j * (ZBAR + fp * fb), rho)
    return ExactSolution(f, U, a, c=c)


def to_halved_v_form(sol: ExactSolution) -> RationalFn:
    """V for the variant normalization U_t = i(.. + 2(V+Vb)U), V_zb = (|U|^2)_z."""
    return 2j * sol.a.wirtinger("z") * 0.5


class OzawaData:
    """Ozawa's blow-up datum W(X, Y) in the physical variables X = 2y, Y = 2x, T = 2t."""

    a: float
    b: float

    def __init__(self, a, b):
        if a == 0:
            raise InvalidDatumError("ozawa: a must be nonzero")
        if not np.isfinite((a, b)).all():
            raise InvalidDatumError("ozawa: a and b must be finite")
        self.a, self.b = a, b

    @property
    def blowup_time(self) -> float:
        return -self.a / self.b if self.b != 0 else float("inf")

    def _W(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        a, b = self.a, self.b
        return np.exp(-1j * b / (4 * a) * (X**2 - Y**2)) \
            / (a * (1 + ((X / a) ** 2 + (Y / a) ** 2) / 2))

    def U0_field(self, grid: Grid2D) -> ComplexField:
        """W(X, Y) on a grid whose nodes are (X, Y)."""
        zm = grid.zmesh()
        return ComplexField(grid, self._W(zm.real, zm.imag))

    def U0_zside(self, grid: Grid2D) -> ComplexField:
        """The datum in the evolver's z-side variables on a z-plane grid:
        U(x, y) = sqrt(2) W(2y, 2x), evaluated at the scaled and swapped nodes."""
        zm = grid.zmesh()
        return ComplexField(grid, np.sqrt(2) * self._W(2 * zm.imag, 2 * zm.real))


def catalog(name: str, c=1.0) -> ExactSolution:
    """The named DSII solutions: 's1' (f = z^2 + c at t = 0) and 's2' (z^4 + c);
    c = "symbolic" keeps c a variable of f.  KeyError for any other name."""
    if name not in ("s1", "s2"):
        raise KeyError(f"unknown catalog entry {name!r}")
    c = None if isinstance(c, str) and c == "symbolic" else complex(c)
    z_part = Z * Z if name == "s1" else Z ** 4
    f = heat_extend(z_part + (C if c is None else c * BiPoly.const(1.0)))
    return exact_solution(f, c=c)


# ---------------------------------------------------------------------------
# exact residual numerators


def dsii_residual_exact(sol: ExactSolution, kappa_evol: float = 1.0,
                        kappa_cons: float = 2.0):
    """Exact-arithmetic residual numerators of the DSII system for an ExactSolution.

    Returns (evolution_numerator, constraint_numerator) as BiPolys over the
    common denominator rho^3; both are the zero polynomial for heat-polynomial
    data under the canonical normalization (kappa_evol=1, kappa_cons=2).  The kappas
    stay for the variant normalization, a mutant that the identity must reject.

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
    return ev.is_zero(scale) and co.is_zero(scale)


# ---------------------------------------------------------------------------
# the nonlocal constraint


def re_v_from_u(u: np.ndarray, sp, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Re V of the field values u into the real array out, and returned: the multiplier
    sp.re_v = 2 (kx^2 - ky^2)/k^2 (zero-mean gauge) of u's grid.spectral on |u|^2.
    The complex array scratch, of at least ny (nx // 2 + 1) elements, holds |Im u|^2
    and then the rfft2 half-spectrum in its leading elements; irfft2 runs as two
    in-place passes (its out is ignored)."""
    (ny, nx), buf = u.shape, scratch.reshape(-1)
    n = np.multiply(u.real, u.real, out=out)
    n += np.square(u.imag, out=buf.view(np.float64)[: n.size].reshape(n.shape))
    n_hat = buf[: ny * (nx // 2 + 1)].reshape(ny, nx // 2 + 1)
    np.fft.rfftn(n, out=n_hat)
    n_hat *= sp.re_v
    np.fft.ifft(n_hat, axis=0, out=n_hat)
    return np.fft.irfft(n_hat, n=nx, axis=1, out=out)


# ---------------------------------------------------------------------------
# norms with tail handling


class NormResult:
    value: float            # Richardson-extrapolated quadrature of |U|^2
    raw: float              # plain full-box quadrature
    tail_bound: float       # analytic bound from the boundary decay constant; inf if none
    decay_ok: bool

    def __init__(self, value, raw, tail_bound, decay_ok):
        self.value, self.raw, self.tail_bound, self.decay_ok = value, raw, tail_bound, decay_ok


def l2_norm_sq(U: ComplexField, require_decay: bool = True) -> NormResult:
    """int |U|^2 dx dy with O(1/r^2) decay verification and 1/R^2 Richardson tail
    extrapolation between the full box and an inner sub-box of 0.7 its half-width.
    The half-width is R1 = min(x_max, -x_min, y_max, -y_min), the largest square
    about z = 0 inside the box.  When R1 <= 0, z = 0 is on the box's edge or outside
    it: there is no sub-box and no decay about z = 0 to check, so the value is the
    raw box integral, decay_ok is False (DecayError if require_decay) and
    tail_bound is inf.

    Both integrals, the peak and the boundary ring are grid.abs2_quadrature's: a
    masked (singular) node holds the 8-neighbour mean of |U|^2, which stays bounded at
    the catalog singularities, so the patch is O(h^2) accurate."""
    g = U.grid
    xs, ys = g.xs(), g.ys()
    R1 = min(g.x_max, -g.x_min, g.y_max, -g.y_min)
    R2 = 0.7 * R1
    sx = np.flatnonzero(np.abs(xs) <= R2)        # the sub-box: one index range per axis
    sy = np.flatnonzero(np.abs(ys) <= R2)
    inner = R1 > 0 and sx.size >= 8 and sy.size >= 8
    raw, I2, peak, ring = abs2_quadrature(U, (sx[0], sx[-1] + 1, sy[0], sy[-1] + 1)
                                          if inner else None)
    rb2 = np.concatenate([xs**2 + ys[0]**2, xs**2 + ys[-1]**2,
                          xs[0]**2 + ys**2, xs[-1]**2 + ys**2])
    Cdec = float(np.max(ring * rb2))            # |U| <= C / r^2 on the boundary
    decay_ok = R1 > 0 and (peak == 0.0 or float(np.max(ring)) <= peak / 10.0)
    if require_decay and not decay_ok:
        raise DecayError("z = 0 is not inside the box" if R1 <= 0 else
                         f"no O(1/r^2) boundary decay: boundary max {np.max(ring):.3g} "
                         f"vs peak {peak:.3g}")

    value = (raw * R1**2 - I2 * R2**2) / (R1**2 - R2**2) if inner else raw
    tail = np.pi * Cdec**2 / R1**2 if R1 > 0 else np.inf
    return NormResult(float(value), float(raw), float(tail), bool(decay_ok))


# ---------------------------------------------------------------------------
# singularity ledger


class SingularEvent:
    """A singular instant of an ExactSolution; its location is always z = 0."""

    t_sing: float
    coefficient: complex      # exact A in U ~ A e^{2 i phi} along z = r e^{i phi}, r -> 0

    def __init__(self, t_sing, coefficient):
        self.t_sing, self.coefficient = t_sing, coefficient

    def as_dict(self):
        return {"t_sing": self.t_sing, "z": [0.0, 0.0], "coeff": self.coefficient}


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
    at t_s under the one rule for c.  InvalidDatumError, before any root is sought,
    for an f of zbar (BiPoly.z_row's rule), whose z-Taylor coefficients do not give A."""
    events = []
    for r in _real_roots_of_complex_poly(sol.f.t_coefficients_at_origin(sol.c)):
        row = sol.f.z_row(r, sol.c)
        a1, a2 = row.get(1, 0.0), row.get(2, 0.0)
        events.append(SingularEvent(float(r), 1j * a2 / (1 + abs(a1)**2)))
    return events
