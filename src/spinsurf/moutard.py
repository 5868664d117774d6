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
    S(Phi,Psi)      = Gamma * int omega + integration constant (time-augmented:
                      + Gamma * int omega1 dt, added to the constant at fixed t)
    K(Phi,Psi)      = Psi S^-1 Gamma Phi^T Gamma^-1 = Psi S^-1 Phi^*
                    = [[i conj(W), a], [-conj(a), -i W]]
    U~ = U + W,  V~ = V + 2 i a_z.

Storage: one quaternion algebra throughout.  The spinors psi, phi are their
quaternion extensions Psi, Phi, and S, S^-1 and K are quaternions
[[a, -conj(b)], [b, conj(a)]] per node too; each is held as its column (a, b), a
SpinorField on the grid and an exactpoly.RQuat in the exact layer.  Gamma omega1
is a quaternion.  Gamma omega = G dz + H dzbar = X dx + Y dy with X = G + H and
Y = i (G - H); X and Y are quaternions, G and H alone are not.  omega returns
column 0 of X and of Y, omega1 column 0 of Gamma omega1, each as a SpinorField,
and build_S integrates omega's two entries as one stacked 1-form through
grid.antiderivative, which refuses it by its path defect when it is not closed.
The one general 2x2 value entering quaternion storage, build_S's integration
constant, is checked for the quaternion pattern there, and a violation raises
NormalizationError.

Exact layer: for a heat-polynomial background, moutard_exact forms the chain
in exactpoly.RQuat, and the closed-form spinors (heat_datum_spinors, the
transformed and inverted spinors of ExactMoutardData) are RQuats that reach a
grid through RQuat.on_grid; heat_datum_fields is the sampled heat_datum_spinors.
The datum f is read through exactpoly's API alone (heat_antiderivative is there).

Time augmentation: on a background that moves with t (heat_datum_fields at t), S at
t takes the constant S(t0) + Gamma int_t0^t omega1 dt at grid.centre.
time_offset_integral forms the offset by the trapezoid rule over the caller's t
samples, reading omega1 on a 5x5 patch centred on grid.centre's node to the bit
(_centre_patch), so its cost does not grow with the grid; verify.suite_moutard
carries the s1 and s2 data through their singular instants by it.

Partner matrix: Phi~ is formed through S(Psi0, Phi0) = Gamma S0^T Gamma = -S0^*,
the column (-conj(a), b) of S0's (a, b), with constant -C0^H and inverse
-(S0^-1)^*.  Both layers form it so and integrate nothing for it: for any spinor
arrays, omega's and omega1's columns swap to their conjugates, so the integrated
S(Psi0, Phi0) is -S0^* up to a constant (the tests integrate it to show so).

Memory: a MoutardTransform holds S0^-1, K's (W, a), C0 (S0's value at
grid.centre, where every S anchors) and the background spinors it was given.
build_S returns S as one SpinorField over the buffer of omega's y part; S0 is
inverted in place, -(S0^-1)^* is formed one row block at a time where a
transform reads it, and each transformed spinor is written over its S(A0, X).
"""
from __future__ import annotations

import math

import numpy as np

from .dirac import SpinorField, qconj, qmul, quaternion_defect
from .exactpoly import BiPoly, RQuat, RationalFn, T, Z, ZBAR, heat_antiderivative
from .grid import (ComplexField, Grid2D, antiderivative, make_grid, merged_mask,
                   row_blocks, wirtinger_derivative)


class NormalizationError(RuntimeError):
    pass


PATTERN_TOL = 1e-8        # quaternion-pattern defect allowed, relative to max(|value|, 1)


def _check_quaternion(m: np.ndarray, what: str):
    """NormalizationError unless the 2x2 matrix m, about to be stored as its column 0,
    is a quaternion to PATTERN_TOL x max(|m|, 1)."""
    defect = quaternion_defect(m)
    scale = max(float(np.max(np.abs(m))), 1.0)
    if not defect <= PATTERN_TOL * scale:             # NaN fails too
        raise NormalizationError(f"{what} is not a quaternion [[a, -conj(b)], [b, conj(a)]]: "
                                 f"defect {defect:.3g} (tol {PATTERN_TOL * scale:.3g})")


def omega(Phi: SpinorField, Psi: SpinorField) -> tuple[SpinorField, SpinorField]:
    """Column 0 of the x part and of the y part of Gamma omega(Phi, Psi), for
    Gamma omega = X dx + Y dy.  With Phi = (pa, pb), Psi = (sa, sb), the dz and
    dzbar parts of column 0's entries (a, b) are
        p = (i conj(pb) sa, i pa sa),  q = (i conj(pa) sb, -i pb sb),
    and X = p + q, Y = i (p - q) (dz = dx + i dy).  X and Y are quaternions, so
    their column 1s, and the path defects and integrals of those, follow
    from column 0.  p is formed in X and q in a block buffer, one row block at a
    time."""
    grid, mask = Phi.grid, merged_mask(Phi, Psi)       # GridConfigError on a grid mismatch
    (pa, pb), (sa, sb) = Phi.values, Psi.values
    # Y first: build_S writes S over Y and frees X, which leaves no hole below S
    Y, X = (np.empty((2, grid.ny, grid.nx), dtype=complex) for _ in range(2))
    blocks = row_blocks(grid.nx, grid.ny)
    buf = np.empty((2, blocks[0].stop, grid.nx), dtype=complex)
    for r in blocks:
        p, q, y = X[:, r], buf[:, :r.stop - r.start], Y[:, r]
        _product(1j, np.conj(pb[r], out=p[0]), sa[r], p[0])
        _product(1j, pa[r], sa[r], p[1])
        _product(1j, np.conj(pa[r], out=q[0]), sb[r], q[0])
        _product(-1j, pb[r], sb[r], q[1])
        np.subtract(p, q, out=y)
        y *= 1j
        p += q
    return SpinorField.from_values(grid, X, mask), SpinorField.from_values(grid, Y, mask)


def omega1(Phi: SpinorField, Psi: SpinorField) -> SpinorField:
    """Column 0 of Gamma omega1(Phi, Psi), the dt part of S's time augmentation:
    (m1, -m0), m0 and m1 being the entries (0, 0) and (1, 0) of omega1.
    With Phi = (pa, pb), Psi = (sa, sb) and conj(f)_z = conj(f_zbar),
        m0 = pa_z sa + pb_zbar sb - (pa sa_z + pb sb_zbar),
        m1 = conj(pa_z) sb - conj(pb_zbar) sa - (conj(pa) sb_zbar - conj(pb) sa_z)."""
    grid, mask = Phi.grid, merged_mask(Phi, Psi)
    paz, saz = (wirtinger_derivative(X.psi1, "z").values for X in (Phi, Psi))
    pbzb, sbzb = (wirtinger_derivative(X.psi2, "zbar").values for X in (Phi, Psi))
    (pa, pb), (sa, sb) = Phi.values, Psi.values
    m0 = (paz * sa + pbzb * sb) - (pa * saz + pb * sbzb)
    m1 = (np.conj(paz) * sb - np.conj(pbzb) * sa) - (np.conj(pa) * sbzb - np.conj(pb) * saz)
    return SpinorField.from_values(grid, np.stack([m1, -m0]), mask)


def build_S(Phi: SpinorField, Psi: SpinorField, constant) -> SpinorField:
    """S = Gamma * int omega(Phi, Psi) + constant, integrated along L-paths.

    `constant` is the value added after anchoring the integral to zero at
    grid.centre, so S there reads its column 0.  A time-augmented S at fixed t
    takes the accumulated Gamma * int omega1 dt (time_offset_integral) added to
    it.  It must be a quaternion (NormalizationError otherwise).

    Only column 0 of Gamma omega's x and y parts X, Y (what omega returns) is
    integrated, by grid.antiderivative, whose path defect rule refuses a form
    X dx + Y dy that is not closed (grid.ClosednessError); masked nodes enter it
    as any other node.
    """
    C = np.asarray(constant, complex)
    _check_quaternion(C, "S constant")
    X, Y = omega(Phi, Psi)
    vals, _ = antiderivative(Phi.grid, X.values, Y.values)
    vals += C[:, 0, None, None]
    return SpinorField.from_values(Phi.grid, vals, X.mask)


def _product(c: complex, x: np.ndarray, y: np.ndarray, out: np.ndarray):
    """c * x * y, left to right, into out (x may be out)."""
    np.multiply(c, x, out=out)
    out *= y


def _centre_patch(grid: Grid2D) -> Grid2D:
    """The 5x5 grid whose centre node is grid.node_z(*grid.centre), c, to the bit, with
    grid's spacing h to rounding.  Along each axis its bounds are c -+ d, d the odd
    multiple of w nearest 2h, w the lower of c's lowest set bit and u = 2^-53 of the
    binade above |c| + 4h.  When w >= u / 2, c -+ d are multiples of w (even ones if
    w < u) below 2^53 u, so exact, and the centre node lo + 2 (hi - lo) / 4 is c; the
    centre node of a grid of at least 16 nodes along the axis has w >= u / 2."""
    zc = grid.node_z(*grid.centre)
    bounds = []
    for c, h in ((zc.real, grid.hx), (zc.imag, grid.hy)):
        w = math.ldexp(1.0, math.frexp(abs(c) + 4 * h)[1] - 53)
        p, q = abs(c).as_integer_ratio()
        w = min(w, (p & -p) / q) if p else w
        d = (2 * math.floor(h / w) + 1) * w
        bounds += [c - d, c + d]
    return make_grid(bounds, (5, 5))


def time_offset_integral(fields, grid: Grid2D, t_grid) -> np.ndarray:
    """Gamma * int omega1 dt over the t samples at grid.centre, where build_S adds its
    constant: the trapezoid over t_grid of omega1 read at the centre of a 5x5 patch
    around that node (_centre_patch), so its cost does not grow with the grid.
    fields(grid, t) maps a grid and a time to the background spinors (psi, phi)."""
    patch = _centre_patch(grid)
    ws = [omega1(phi, psi).at(*patch.centre) for psi, phi in (fields(patch, t) for t in t_grid)]
    return np.trapezoid(ws, t_grid, axis=0)


class KData:
    """W and a extracted from K = Psi S^-1 Gamma Phi^T Gamma^-1."""

    W: ComplexField
    a: ComplexField

    def __init__(self, W, a):
        self.W, self.a = W, a


def _partner(q: np.ndarray) -> np.ndarray:
    """-Q^* = Gamma Q^T Gamma: the column (-conj(a), b) of the quaternion columns
    q = (a, b), an array of shape (2, ...), in a fresh array."""
    out = np.empty_like(q)
    np.negative(np.conj(q[0], out=out[0]), out=out[0])
    out[1] = q[1]
    return out


def k_matrix(Psi: SpinorField, Sinv: SpinorField, Phi: SpinorField) -> KData:
    """(W, a) of K = Psi S^-1 Phi^* = [[i conj(W), a], [-conj(a), -i W]] from S^-1
    (Sinv): W = i conj(ka) and a = -conj(kb) of K's column (ka, kb), formed one row
    block of K at a time."""
    grid, mask = Sinv.grid, merged_mask(Psi, Sinv, Phi)
    W, a = np.empty((2, grid.ny, grid.nx), dtype=complex)
    for r in row_blocks(grid.nx, grid.ny):
        ka, kb = qmul(qmul(Psi.values[:, r], Sinv.values[:, r]), qconj(Phi.values[:, r]))
        np.multiply(1j, np.conj(ka), out=W[r])
        np.negative(np.conj(kb, out=kb), out=a[r])
    return KData(ComplexField(grid, W, mask), ComplexField(grid, a, mask))


# ---------------------------------------------------------------------------
# the transformation


class MoutardTransform:
    """Context for transforming solutions on a fixed background (Psi0, Phi0): only
    what transform and transformed_potentials read (see Memory above)."""

    Psi0: SpinorField                  # the caller's background spinors, not copied
    Phi0: SpinorField
    C0: np.ndarray                     # S0's constant; the partner's is -C0^H
    kdata: KData
    S0_inv: SpinorField                # SpinorField.inv's singular nodes masked

    def __init__(self, Psi0, Phi0, C0, kdata, S0_inv):
        self.Psi0, self.Phi0, self.C0 = Psi0, Phi0, C0
        self.kdata, self.S0_inv = kdata, S0_inv

    @classmethod
    def from_background(cls, psi0: SpinorField, phi0: SpinorField,
                        constant0) -> "MoutardTransform":
        """The context of S0 = S(Phi0, Psi0) with the constant C0 = constant0, which
        S0 reads at grid.centre.  A time-augmented S0 at fixed t takes constant0
        with the accumulated Gamma * int omega1 dt (time_offset_integral) added to
        it."""
        S0 = build_S(phi0, psi0, constant=constant0)
        S0_inv = S0.inv(out=S0.values)                 # S0 is ours: inverted in place
        return cls(psi0, phi0, np.asarray(constant0, dtype=complex),
                   k_matrix(psi0, S0_inv, phi0), S0_inv)

    def transform(self, psi: SpinorField, phi: SpinorField, constP=None,
                  constBP=None) -> tuple[SpinorField, SpinorField]:
        """Moutard-transform another solution pair of the same background.

        The integration constants of S(Phi0, Psi) / S(Psi0, Phi) default to the
        right-linear extension C0 * Psi0(b)^-1 Psi(b), which makes the map
        linear in (Psi, Phi) and annihilates the background pair exactly;
        any other quaternion constant shifts the output by another solution
        (constP: the closed-form Psi~ test; constBP: verify's closed-form phi~ check).
        """
        return (self._transform_side(self.Phi0, self.Psi0, self.C0, False, psi, constP),
                self._transform_side(self.Psi0, self.Phi0, -self.C0.conj().T, True, phi,
                                     constBP))

    def _transform_side(self, A0: SpinorField, B0: SpinorField, C: np.ndarray,
                        partner: bool, X: SpinorField, const) -> SpinorField:
        """X - B0 S^-1 S(A0, X), S having the constant C: Psi~ from (Phi0, Psi0, S0)
        and Phi~ from (Psi0, Phi0, SB0 = -S0^*), SB0^-1 = _partner(S0^-1); both anchor
        at grid.centre, as S0 does.  One side at a time, B0 S^-1 S(A0, X) one row
        block at a time, and the result written over S(A0, X)."""
        if const is None:
            b = X.grid.centre
            const = C @ np.linalg.solve(B0.at(*b), X.at(*b))
        SX = build_S(A0, X, constant=const)
        S_inv, out = self.S0_inv.values, SX.values
        mask = merged_mask(X, B0, self.S0_inv, SX)
        for r in row_blocks(X.grid.nx, X.grid.ny):
            s = _partner(S_inv[:, r]) if partner else S_inv[:, r]
            np.subtract(X.values[:, r], qmul(qmul(B0.values[:, r], s), out[:, r]),
                        out=out[:, r])
        return SpinorField.from_values(X.grid, out, mask)

    def transformed_potentials(self, U: ComplexField) -> tuple[ComplexField, ComplexField]:
        """(U + W, 2 i a_z) for the background potential U: the DSII potential
        update U~ = U + W, V~ = V + 2 i a_z, with V~ less the background's V."""
        return U + self.kdata.W, 2j * wirtinger_derivative(self.kdata.a, "z")


# ---------------------------------------------------------------------------
# exact (rational-arithmetic) layer for heat-polynomial backgrounds


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

    def __init__(self, f, S0, K, W, a, Psi0, Phi0):
        self.f, self.S0, self.K, self.W, self.a = f, S0, K, W, a
        self.Psi0, self.Phi0 = Psi0, Phi0

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
