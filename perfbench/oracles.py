"""Closed forms the benchmark checks spinsurf against.

Everything here is written out by hand with numpy alone and never calls
spinsurf, so a fault in the library cannot also hide in its own reference.
Conventions follow the package: z = x + iy, fields indexed [iy, ix].
"""
from __future__ import annotations

import numpy as np

# int |U|^2 dx dy for the heat-polynomial family (the paper's quantised norms)
NORM_S1 = 2 * np.pi             # quadratic datum, regular instant
NORM_S1_SINGULAR = np.pi        # quadratic datum at its one-point singularity
NORM_S2 = 4 * np.pi             # quartic datum, regular instant
NORM_S2_SINGULAR = 3 * np.pi    # quartic datum at its one-point singularity


def zmesh(box, n, periodic=False, rows=slice(None)):
    """Node coordinates of an n x n grid on box = (x0, x1, y0, y1), or of the
    given slice of its rows."""
    x0, x1, y0, y1 = box
    m = n if periodic else n - 1
    xs = x0 + (x1 - x0) / m * np.arange(n)
    ys = y0 + (y1 - y0) / m * np.arange(n)
    return xs[None, :] + 1j * ys[rows, None]


# -- heat polynomials f_t = i f_zz --------------------------------------------


def s1_f(z, t, c):
    """Quadratic datum z^2 + c extended in time."""
    return z * z + 2j * t + c


def s1_fp(z, t, c):
    return 2 * z


def s2_f(z, t, c):
    """Quartic datum z^4 + c extended in time."""
    return z**4 + 12j * t * z * z - 12 * t * t + c


def s2_fp(z, t, c):
    return 4 * z**3 + 24j * t * z


def dsii_U(z, f, fp):
    """U = i (z f' - f) / (|z|^2 + |f|^2); NaN where both vanish (a singularity)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return 1j * (z * fp - f) / (np.abs(z) ** 2 + np.abs(f) ** 2)


def s1_U(z, t, c):
    return dsii_U(z, s1_f(z, t, c), s1_fp(z, t, c))


def s2_U(z, t, c):
    return dsii_U(z, s2_f(z, t, c), s2_fp(z, t, c))


def s1_V(z, t, c):
    """V = 4 conj(f)/rho - 2 (2 z conj(f) + conj(z))^2 / rho^2 for the quadratic datum."""
    f = s1_f(z, t, c)
    fb = np.conj(f)
    rho = np.abs(z) ** 2 + np.abs(f) ** 2
    return 4 * fb / rho - 2 * (2 * z * fb + np.conj(z)) ** 2 / rho**2


def s1_singularity(tau):
    """(t, coefficient) of the one singular instant of z^2 + i tau: f(0, t) = 0 at
    t = -tau/2, where U ~ i e^{2 i phi} as z = r e^{i phi} -> 0."""
    return [(-tau / 2, 1j)]


def s2_singularities(c):
    """(t, coefficient) pairs of z^4 + c for real c > 0: -12 t^2 + c = 0 at
    t = -+sqrt(c/12), where U ~ -12 t e^{2 i phi}."""
    r = float(np.sqrt(c / 12))
    return [(-r, 12 * r + 0j), (r, -12 * r + 0j)]


# -- surfaces --------------------------------------------------------------------


def enneper(z):
    """Enneper surface of the spinor (1, conj z): (x1, x2, x3), up to a constant."""
    w = z**3 / 3
    return np.stack([-(w + z).imag, (w - z).real, (z * z).real])


def graph(z, f):
    """The R^4 graph (x, y, Re f, Im f) of the heat polynomial, first three axes."""
    return np.stack([z.real, z.imag, f.real])


def inverted_graph(z, f):
    """Quaternionic inversion of the graph: -(x, y, Re f) / (x^2 + y^2 + |f|^2)."""
    r2 = np.abs(z) ** 2 + np.abs(f) ** 2
    return -graph(z, f) / r2


# -- Ozawa's self-similar blow-up -------------------------------------------------


def ozawa_W(X, Y, T, a, b):
    """Ozawa's solution of the focusing system in the physical variables (X, Y, T)."""
    s = a + b * T
    return np.exp(-1j * b * (X * X - Y * Y) / (4 * s)) / (s * (1 + (X * X + Y * Y) / (2 * s * s)))


def ozawa_U(z, t, a, b):
    """The same solution on the z-side: U(x, y, t) = sqrt(2) W(2y, 2x, 2t)."""
    return np.sqrt(2) * ozawa_W(2 * z.imag, 2 * z.real, 2 * t, a, b)
