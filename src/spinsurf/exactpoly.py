"""Exact polynomial / rational calculus in (z, zbar, t) with optional parameters (c, cbar).

z and zbar are independent formal variables; the formal conjugate swaps
z <-> zbar and c <-> cbar and conjugates coefficients (t stays real).
Coefficients are complex numbers; the catalog data are Gaussian integers,
for which all arithmetic here is exact.

Evaluation specialises t, c and cbar = conj(c) first (BiPoly._specialise, which
holds the one rule for c: None only for a polynomial free of c and cbar,
InvalidDatumError otherwise), then runs nested Horner over the remaining
(z, zbar = conj(z)) table, outer in zbar and inner in z.  RationalFn.on_grid and
RQuat.on_grid take a closed form to a grid: they stream over blocks of grid rows
and mask the exact zeros of the denominator; eval is for point sets.  The DSII
fields U and V reach a grid from f's z-row instead (dsii.ExactSolution), through
the one-variable _horner.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .dirac import SpinorField
from .grid import _BLOCK, ComplexField, Grid2D, merged_mask, row_blocks

VARS = ("z", "zbar", "t", "c", "cbar")
_VAR_INDEX = {name: VARS.index(name) for name in VARS}
_ZERO_KEY = (0, 0, 0, 0, 0)
_ONE = {_ZERO_KEY: 1}


class HeatDatumError(ValueError):
    pass


class InvalidDatumError(ValueError):
    """Data that define no solution, or a symbolic c where a numeric one is needed."""


class PoleError(ZeroDivisionError):
    """A RationalFn evaluated where its denominator is exactly 0."""


class BiPoly:
    """Polynomial with complex coefficients, exponent keys (dz, dzbar, dt, dc, dcbar)."""

    __slots__ = ("coef",)

    def __init__(self, coef=None):
        self.coef = {}
        if coef:
            for key, val in coef.items():
                key = self._norm_key(key)
                val = complex(val)
                if val != 0:
                    self.coef[key] = self.coef.get(key, 0) + val
            self.coef = {k: v for k, v in self.coef.items() if v != 0}

    @staticmethod
    def _norm_key(key):
        key = tuple(int(e) for e in key)
        if len(key) != 5 or any(e < 0 for e in key):
            raise ValueError(f"bad exponent key {key}")
        return key

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, value):
        res, value = cls(), complex(value)
        if value != 0:
            res.coef = {_ZERO_KEY: 0 + value}       # 0 + value: as the constructor sums
        return res

    @classmethod
    def variable(cls, name):
        key = [0] * 5
        key[_VAR_INDEX[name]] = 1
        return cls({tuple(key): 1.0})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self.coef)
        for k, v in other.coef.items():
            s = out.get(k, 0) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        res = BiPoly()
        res.coef = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = BiPoly()
        res.coef = {k: -v for k, v in self.coef.items()}
        return res

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            if isinstance(other, RationalFn):
                return NotImplemented
            z = complex(other)
            res = BiPoly()
            if z != 0:
                res.coef = {k: v * z for k, v in self.coef.items()}
            return res
        # a factor 1 (a RationalFn's implicit denominator): for finite v the loop's
        # 0 + v * 1 is 0 + v, bit for bit (both set a zero part's sign to +)
        p = self if other.coef == _ONE else other if self.coef == _ONE else None
        if p is not None and all(map(cmath.isfinite, p.coef.values())):
            res = BiPoly()
            res.coef = {k: 0 + v for k, v in p.coef.items() if v != 0}
            return res
        out, items = {}, tuple(other.coef.items())
        for k1, v1 in self.coef.items():
            for k2, v2 in items:
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3], k1[4] + k2[4])
                s = out.get(k, 0) + v1 * v2
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        res = BiPoly()
        res.coef = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = BiPoly.const(1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def wirtinger(self, var: str) -> "BiPoly":
        """Formal partial derivative; z and zbar are independent."""
        i = _VAR_INDEX[var]
        out = {}
        for k, v in self.coef.items():
            if k[i] == 0:
                continue
            nk = list(k)
            nk[i] -= 1
            out[tuple(nk)] = v * k[i]
        res = BiPoly()
        res.coef = out
        return res

    def conj(self) -> "BiPoly":
        """Formal conjugate: swap z<->zbar and c<->cbar, conjugate coefficients."""
        out = {}
        for (a, b, dt, dc, dcb), v in self.coef.items():
            out[(b, a, dt, dcb, dc)] = v.conjugate()
        res = BiPoly()
        res.coef = out
        return res

    # -- queries -----------------------------------------------------------

    def eval(self, z=0.0, t=0.0, c=None):
        """Evaluate at z, its conjugate zbar, t, c and its conjugate cbar; c follows
        _specialise's rule.  Specialises t, c, cbar once, then runs nested Horner over
        cache-sized blocks of the flattened z.  Returns an array of z's shape, or a
        complex for scalar z."""
        table = self._specialise(t, c)
        z = np.asarray(z, dtype=np.complex128)
        out = np.empty(z.shape, dtype=np.complex128)
        flat, acc_flat = z.reshape(-1), out.reshape(-1)
        part, zb = np.empty((2, min(_BLOCK, z.size)), dtype=np.complex128)
        for s in range(0, z.size, _BLOCK):         # one cache-sized block at a time
            zk = flat[s:s + _BLOCK]
            zbk = np.conj(zk, out=zb[:zk.size])
            _horner_block(table, zk, zbk, acc_flat[s:s + _BLOCK], part[:zk.size])
        return out if out.ndim else complex(out)

    def _specialise(self, t=0.0, c=None) -> dict:
        """{zbar exponent: {z exponent: coefficient}} at fixed t, c, cbar = conj(c); summed
        in storage order, so a constant term that cancels at a singular instant is exactly
        0.  The rule for c: c = None is allowed only when the polynomial does not depend
        on c or cbar, InvalidDatumError otherwise, and for a non-finite t or c."""
        if c is None and (self.depends_on("c") or self.depends_on("cbar")):
            raise InvalidDatumError("the polynomial depends on c, which needs a numeric value")
        if not all(cmath.isfinite(x) for x in (t, c) if x is not None):
            raise InvalidDatumError("t and c must be finite")
        cb = None if c is None else np.conjugate(c)
        table = {}
        for (dz, dzb, dt, dc, dcb), v in self.coef.items():
            for x, e in ((t, dt), (c, dc), (cb, dcb)):
                if e:
                    v = v * x ** e
            row = table.setdefault(dzb, {})
            row[dz] = row.get(dz, 0.0) + v
        return table or {0: {0: 0j}}

    def depends_on(self, var) -> bool:
        i = _VAR_INDEX[var]
        return any(k[i] for k in self.coef)

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coef.values()), default=0.0)

    def is_zero(self, ref: float) -> bool:
        """Every coefficient within 1e-12 ref of 0."""
        return self.max_abs() <= 1e-12 * ref

    @property
    def nterms(self) -> int:
        return len(self.coef)

    def __eq__(self, other):
        return self.coef == _as_poly(other).coef

    def __hash__(self):
        return hash(frozenset(self.coef.items()))

    def __repr__(self):
        if not self.coef:
            return "BiPoly(0)"
        parts = []
        for k in sorted(self.coef):
            mono = "*".join(f"{VARS[i]}^{k[i]}" for i in range(5) if k[i])
            parts.append(f"({self.coef[k]:.6g})" + ("*" + mono if mono else ""))
        return "BiPoly(" + " + ".join(parts) + ")"


def _horner(row: dict, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k row[k] z^k by Horner's rule, in place into out."""
    n = max(row)
    if n:
        np.multiply(z, row[n], out=out)
    else:
        out.fill(row[0])
    for k in range(n - 1, -1, -1):
        if k in row:
            out += row[k]
        if k:
            out *= z
    return out


def _horner_block(table: dict, z, zbar, out, part) -> np.ndarray:
    """A table by nested Horner, outer in zbar, inner in z, into out; part is scratch."""
    top = max(table)
    _horner(table[top], z, out)
    for b in range(top - 1, -1, -1):
        out *= zbar
        if b in table:
            out += _horner(table[b], z, part)
    return out


def _sample_mesh(xs, ys, num: dict, den: dict | None, out: np.ndarray | None = None):
    """Table num, over the table den if given, on the mesh xs[None, :] + 1j * ys[:, None],
    over grid.row_blocks, into out or a fresh array: no full-size mesh or denominator
    exists.  Returns (values, mask): nodes where den is exactly 0 read 0 and form the
    mask, or None."""
    blocks = row_blocks(xs.size, ys.size)
    out = np.empty((ys.size, xs.size), dtype=np.complex128) if out is None else out
    buf = np.empty((4, blocks[0].stop * xs.size), dtype=np.complex128)
    mask = None
    for r in blocks:
        rows = out[r]
        z, zbar, d, part = buf[:, :rows.size]
        acc = rows.reshape(-1)
        np.add(xs[None, :], 1j * ys[r, None], out=z.reshape(rows.shape))
        np.conj(z, out=zbar)
        _horner_block(num, z, zbar, acc, part)
        pole = None if den is None else _horner_block(den, z, zbar, d, part) == 0
        if pole is not None and pole.any():
            mask = np.zeros(out.shape, dtype=bool) if mask is None else mask
            mask[r] = pole.reshape(rows.shape)
            d[pole], acc[pole] = 1.0, 0.0
        if den is not None:
            np.divide(acc, d, out=acc)
    return out, mask


def _as_poly(x) -> BiPoly:
    return x if isinstance(x, BiPoly) else BiPoly.const(x)


# convenience generators
Z = BiPoly.variable("z")
ZBAR = BiPoly.variable("zbar")
T = BiPoly.variable("t")
C = BiPoly.variable("c")


def poly_equal(p: BiPoly, q: BiPoly) -> bool:
    """p == q to 1e-12 of their largest coefficient (at least 1)."""
    ref = max(p.max_abs(), q.max_abs(), 1.0)
    return (p - q).is_zero(ref)


class RationalFn:
    """Quotient of BiPolys; arithmetic is cross-multiplied, no gcd reduction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = _as_poly(num)
        self.den = _as_poly(den if den is not None else 1.0)
        if self.den.nterms == 0:
            raise ZeroDivisionError("zero denominator")

    def __add__(self, other):
        other = _as_rational(other)
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_rational(other))

    def __mul__(self, other):
        other = _as_rational(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rational(other)
        if other.num.nterms == 0:
            raise ZeroDivisionError("division by zero rational")
        return RationalFn(self.num * other.den, self.den * other.num)

    def wirtinger(self, var: str) -> "RationalFn":
        """Quotient rule, z and zbar treated as independent."""
        dn = self.num.wirtinger(var)
        dd = self.den.wirtinger(var)
        return RationalFn(dn * self.den - self.num * dd, self.den * self.den)

    def conj(self) -> "RationalFn":
        return RationalFn(self.num.conj(), self.den.conj())

    def eval(self, **kw):
        den = self.den.eval(**kw)
        if poles := np.count_nonzero(den == 0):
            raise PoleError(f"denominator is 0 at {poles} of {np.size(den)} point(s)")
        return self.num.eval(**kw) / den

    def on_grid(self, grid: Grid2D, t: float, c=None) -> ComplexField:
        """The function at time t on the grid's nodes, streamed in row blocks; c follows
        BiPoly._specialise's rule.  Nodes where the denominator is exactly 0 read 0 and
        form the mask.  A denominator that is the constant 1 is not sampled."""
        return ComplexField(grid, *self._sample(grid, t, c))

    def _sample(self, grid: Grid2D, t: float, c, out: np.ndarray | None = None):
        """(values, mask) of on_grid, the values into out or a fresh array."""
        t = float(t)
        den = None if self.den.coef == {_ZERO_KEY: 1} else self.den._specialise(t, c)
        return _sample_mesh(grid.xs(), grid.ys(), self.num._specialise(t, c), den, out)

    def equals(self, other) -> bool:
        other = _as_rational(other)
        lhs = self.num * other.den
        rhs = other.num * self.den
        return poly_equal(lhs, rhs)

    def __repr__(self):
        return f"RationalFn({self.num!r} / {self.den!r})"


def _as_rational(x) -> RationalFn:
    if isinstance(x, RationalFn):
        return x
    return RationalFn(_as_poly(x))


def heat_extend(initial: BiPoly) -> BiPoly:
    """Extend a z-polynomial to f(z, t) with f(z, 0) = initial and f_t = i f_zz.

    Closed form: f = sum_m (i t)^m / m! * d_z^{2m} initial.
    """
    initial = _as_poly(initial)
    if initial.depends_on("zbar") or initial.depends_on("cbar") or initial.depends_on("t"):
        raise HeatDatumError("heat datum must be a polynomial in z (and c) only")
    out = BiPoly.zero()
    deriv = initial
    m = 0
    while deriv.nterms:
        out = out + deriv * (1j ** m / math.factorial(m)) * (T ** m)
        deriv = deriv.wirtinger("z").wirtinger("z")
        m += 1
    return out


def heat_residual(f: BiPoly) -> BiPoly:
    """f_t - i f_zz; identically zero for heat polynomials."""
    return f.wirtinger("t") - 1j * f.wirtinger("z").wirtinger("z")


class RQuat:
    """A quaternion [[a, -conj(b)], [b, conj(a)]] of RationalFns, stored as its column
    (a, b): the exact twin of dirac.SpinorField, for the exact Moutard algebra."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = _as_rational(a), _as_rational(b)

    def __matmul__(self, other: "RQuat") -> "RQuat":
        """(a, b)(c, d) = (a c - conj(b) d, b c + conj(a) d)."""
        a, b, c, d = self.a, self.b, other.a, other.b
        return RQuat(a * c - b.conj() * d, b * c + a.conj() * d)

    def __sub__(self, other: "RQuat") -> "RQuat":
        return RQuat(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "RQuat":
        return RQuat(-self.a, -self.b)

    def conj(self) -> "RQuat":
        """The quaternion conjugate (conj(a), -b): the conjugate transpose."""
        return RQuat(self.a.conj(), -self.b)

    def det(self) -> RationalFn:
        return self.a * self.a.conj() + self.b * self.b.conj()

    def inv(self) -> "RQuat":
        """conj() / det()."""
        d = self.det()
        return RQuat(self.a.conj() / d, -self.b / d)

    def on_grid(self, grid: Grid2D, t: float, c=None) -> SpinorField:
        """Both entries as RationalFn.on_grid samples them, into one (2, ny, nx)
        array; the mask is the union of theirs.  c stays, as in its twin
        RationalFn.on_grid: the one rule for c, for closed forms that keep c symbolic."""
        vals = np.empty((2, grid.ny, grid.nx), dtype=np.complex128)
        parts = [ComplexField(grid, *f._sample(grid, t, c, v))
                 for f, v in zip((self.a, self.b), vals)]
        return SpinorField.from_values(grid, vals, merged_mask(*parts))
