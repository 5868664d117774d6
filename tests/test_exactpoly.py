import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsurf import (BiPoly, C, RQuat, RationalFn, T, Z, ZBAR, heat_extend,
                      heat_residual, poly_equal)
from spinsurf.exactpoly import HeatDatumError, InvalidDatumError, PoleError
from test_dsii import s1_displayed_V


def test_wirtinger_formal_derivative():
    p = (Z * Z) * ZBAR
    assert poly_equal(p.wirtinger("z"), 2 * (Z * ZBAR))


def test_eval_substitution():
    # f = z^2 + 2it + c at z=0, t=1, c=0 -> 2i
    p = Z * Z + 2j * T + C
    assert p.eval(z=0.0, t=1.0, c=0.0) == pytest.approx(2j)


def test_t_derivative_of_t_free():
    p = Z * ZBAR
    assert p.wirtinger("t").nterms == 0


def test_conj_swaps_z_and_c():
    p = 2j * (Z * C)
    q = p.conj()
    assert poly_equal(q, -2j * (ZBAR * BiPoly.variable("cbar")))


def test_eval_defaults_conjugates():
    p = Z * ZBAR          # |z|^2
    assert p.eval(z=3 + 4j) == pytest.approx(25.0)


_exponents = st.tuples(*[st.integers(0, 8)] * 5)
_gaussian = st.builds(complex, st.integers(-9, 9), st.integers(-9, 9))
_polys = st.dictionaries(_exponents, _gaussian, max_size=12).map(BiPoly)
_points = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
_point_arrays = st.lists(_points, min_size=1, max_size=8).map(np.array)
_eval_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _per_monomial(p, z, zbar, t, c, cbar):
    """sum_k v_k z^a zbar^b t^dt c^dc cbar^dcb term by term, and the largest |term|."""
    total, largest = 0j, 0.0
    for (a, b, dt, dc, dcb), v in p.coef.items():
        term = v * z**a * zbar**b * t**dt * c**dc * cbar**dcb
        total = total + term
        largest = np.maximum(largest, np.abs(term))
    return total, largest


def _assert_close(got, ref, largest):
    assert np.all(np.abs(got - ref) <= 1e-12 * largest + 1e-300)


@_eval_settings
@given(p=_polys, z=_point_arrays, t=st.floats(-1.5, 1.5), c=_points)
def test_eval_matches_per_monomial_sum(p, z, t, c):
    got = p.eval(z=z, t=t, c=c)
    assert isinstance(got, np.ndarray) and got.shape == z.shape
    _assert_close(got, *_per_monomial(p, z, np.conj(z), t, c, np.conj(c)))


@_eval_settings
@given(p=_polys, z=_points, t=st.floats(-1.5, 1.5), c=_points)
def test_eval_scalar_z_matches_per_monomial_sum(p, z, t, c):
    got = p.eval(z=z, t=t, c=c)
    assert type(got) is complex
    _assert_close(got, *_per_monomial(p, z, z.conjugate(), t, c, c.conjugate()))


def test_eval_across_blocks_matches_per_monomial_sum():
    # more nodes than one Horner pass takes, in a shape that leaves a partial block
    from spinsurf import catalog
    from spinsurf.grid import _BLOCK
    p = (2j * catalog("s2", c="symbolic").a.wirtinger("z")).den     # V's denominator
    rng = np.random.default_rng(5)
    shape = (2 * _BLOCK // 13 + 3, 13)
    z = rng.uniform(-1.5, 1.5, shape) + 1j * rng.uniform(-1.5, 1.5, shape)
    assert z.size > 2 * _BLOCK and z.size % _BLOCK
    ref = _per_monomial(p, z, np.conj(z), 0.3, 2 - 1j, 2 + 1j)
    _assert_close(p.eval(z=z, t=0.3, c=2 - 1j), *ref)


_ring_polys = st.dictionaries(st.tuples(*[st.integers(0, 4)] * 5), _gaussian,
                              max_size=6).map(BiPoly)


@_eval_settings
@given(p=_ring_polys, q=_ring_polys, r=_ring_polys)
def test_ring_axioms_hold_exactly(p, q, r):
    # Gaussian-integer coefficients: every product and sum is exact in floats
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (q + r) * p == q * p + r * p


@_eval_settings
@given(p=_polys, q=_polys)
def test_conj_is_an_involution_and_multiplicative(p, q):
    assert p.conj().conj() == p
    assert (p * q).conj() == p.conj() * q.conj()


def _abs_sum(p, z, t, c):
    """sum |v| |z|^(a+b) |t|^dt |c|^(dc+dcb): bounds every partial sum."""
    az, ac = np.abs(z), abs(c)
    return sum((abs(v) * az ** (a + b) * abs(t) ** dt * ac ** (dc + dcb)
                for (a, b, dt, dc, dcb), v in p.coef.items()), np.zeros(np.shape(z)))


def _assert_eval_respects_product_and_conj(p, q, z, t, c):
    kw = {"z": z, "t": t, "c": c}
    scale = _abs_sum(p, z, t, c)
    err = np.abs((p * q).eval(**kw) - p.eval(**kw) * q.eval(**kw))
    assert np.all(err <= 1e-12 * scale * _abs_sum(q, z, t, c) + 1e-300)
    # the formal conjugate swaps z, zbar and c, cbar: at zbar = conj z and cbar = conj c,
    # conj(p)(z, c) = conj(p(z, c))
    ref = np.conj(p.eval(**kw))
    assert np.all(np.abs(p.conj().eval(**kw) - ref) <= 1e-12 * scale + 1e-300)


@_eval_settings
@given(p=_polys, q=_polys, z=_point_arrays, t=st.floats(-1.5, 1.5), c=_points)
def test_eval_respects_product_and_conj(p, q, z, t, c):
    _assert_eval_respects_product_and_conj(p, q, z, t, c)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(p=_polys, q=_polys, seed=st.integers(0, 2**32 - 1), t=st.floats(-1.5, 1.5),
       c=_points)
def test_eval_respects_product_and_conj_across_blocks(p, q, seed, t, c):
    from spinsurf.grid import _BLOCK
    rng = np.random.default_rng(seed)
    n = 2 * _BLOCK + 37                    # three blocks, the last a partial one
    z = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
    _assert_eval_respects_product_and_conj(p, q, z, t, c)


def test_eval_zero_and_constant_have_the_shape_of_z():
    z = np.linspace(-1, 1, 12).reshape(3, 4) * (1 + 0.5j)
    for p, value in ((BiPoly.zero(), 0), (BiPoly.const(2 - 3j), 2 - 3j)):
        got = p.eval(z=z, t=0.4, c=1j)
        assert got.shape == z.shape and np.all(got == value)
        assert p.eval(z=0.5, t=0.4) == value


def test_rational_wirtinger_quotient_rule():
    r = RationalFn(BiPoly.const(1.0), Z)
    d = r.wirtinger("z")
    assert d.equals(RationalFn(BiPoly.const(-1.0), Z * Z))


def test_rational_wirtinger_zbar_of_abs2():
    r = RationalFn(Z * ZBAR)
    assert r.wirtinger("zbar").equals(RationalFn(Z))


def test_displayed_V_matches_2i_daz():
    # the closed-form V printed for the quadratic datum equals 2 i a_z
    from spinsurf import catalog, to_halved_v_form
    sol = catalog("s1", c="symbolic")
    assert s1_displayed_V().equals(2j * sol.a.wirtinger("z"))
    assert s1_displayed_V().equals(2 * to_halved_v_form(sol))


def test_heat_extend_quadratic():
    assert poly_equal(heat_extend(Z * Z + C), Z * Z + 2j * T + C)


def test_heat_extend_quartic():
    ref = Z ** 4 + 12j * (T * (Z * Z)) - 12 * (T * T) + C
    assert poly_equal(heat_extend(Z ** 4 + C), ref)


def test_heat_extend_stationary():
    assert poly_equal(heat_extend(Z), Z)


def test_heat_extend_rejects_zbar():
    with pytest.raises(HeatDatumError):
        heat_extend(ZBAR)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heat_identity_property(seed):
    # random integer datum: heat_extend output satisfies f_t - i f_zz == 0 exactly
    rng = np.random.default_rng(seed)
    coef = {(k, 0, 0, 0, 0): complex(rng.integers(-5, 6), rng.integers(-5, 6))
            for k in range(rng.integers(2, 7))}
    f = heat_extend(BiPoly(coef))
    assert heat_residual(f).nterms == 0


def test_mul_then_t_derivative():
    assert (Z * ZBAR).wirtinger("t").nterms == 0


def test_pow_and_scale():
    p = (Z + 1) ** 3
    q = Z ** 3 + 3 * (Z * Z) + 3 * Z + BiPoly.const(1.0)
    assert poly_equal(p, q)


def test_rationalfn_arithmetic():
    a = RationalFn(Z, Z * ZBAR + 1)
    b = RationalFn(ZBAR, Z * ZBAR + 1)
    s = a + b
    assert s.equals(RationalFn(Z + ZBAR, Z * ZBAR + 1))
    p = a * b
    assert p.equals(RationalFn(Z * ZBAR, (Z * ZBAR + 1) ** 2))


def test_rationalfn_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFn(Z, BiPoly.zero())


def test_rationalfn_eval_at_a_pole_raises_pole_error():
    from spinsurf import catalog
    U = catalog("s1", c=1j).U                  # |z|^2 + |f|^2 vanishes at z = 0, t = -1/2
    with pytest.raises(PoleError, match="at 1 of 1 point"):
        U.eval(z=0.0, t=-0.5)
    with pytest.raises(PoleError, match="at 2 of 4 point") as err:
        U.eval(z=np.array([0.0, 0.5, 1 + 1j, 0.0]), t=-0.5)
    assert isinstance(err.value, ZeroDivisionError)
    assert np.all(np.isfinite(U.eval(z=np.array([0.5, 1 + 1j]), t=-0.5)))
    assert np.isfinite(U.eval(z=0.0, t=-0.4))


def test_a_symbolic_c_is_never_read_as_zero():
    # one rule for c, in eval and on_grid: c = None only for a polynomial free of c and c̄
    from spinsurf import make_grid
    from spinsurf.dsii import InvalidDatumError as DsiiInvalidDatumError
    g = make_grid((-1, 1, -1, 1), (8, 9))
    f = Z * Z + 2j * T + C
    r = RationalFn(f, Z * ZBAR + 1)
    for sample in (lambda: f.eval(z=0.5, t=0.1), lambda: f.conj().eval(z=0.5),
                   lambda: r.eval(z=0.5), lambda: r.on_grid(g, 0.1),
                   lambda: RationalFn(Z, f).on_grid(g, 0.1),     # c in the denominator only
                   lambda: RQuat(Z, f).on_grid(g, 0.1)):
        with pytest.raises(InvalidDatumError, match="numeric"):
            sample()
    assert InvalidDatumError is DsiiInvalidDatumError
    zm = g.zmesh()
    assert np.array_equal(r.on_grid(g, 0.1, c=0.0).values, r.eval(z=zm, t=0.1, c=0.0))
    assert np.array_equal(RQuat(Z, f).on_grid(g, 0.1, 2j).values[1], f.eval(z=zm, t=0.1, c=2j))
    assert RQuat(Z, ZBAR + T).on_grid(g, 0.1).mask is None


def test_rquat_inverse():
    Q = RQuat(RationalFn(Z), RationalFn(1 + 2j * ZBAR * T, Z + C))
    for one in (Q @ Q.inv(), Q.inv() @ Q):
        assert one.a.equals(RationalFn(1))
        assert one.b.num.is_zero(1.0)


def test_rquat_conj_det_and_product():
    # the column (a, b) stands for [[a, -conj(b)], [b, conj(a)]]: check the product,
    # conj and det against that matrix, entry by entry
    P = RQuat(RationalFn(Z * Z + 1j * T), RationalFn(2j * ZBAR + C))
    Q = RQuat(RationalFn(BiPoly.const(1.0) - ZBAR), RationalFn(Z * C, 1 + Z * ZBAR))

    def mat(X):
        return [[X.a, -X.b.conj()], [X.b, X.a.conj()]]

    (p00, p01), (p10, p11) = mat(P)
    (q00, q01), (q10, q11) = mat(Q)
    PQ = P @ Q
    assert PQ.a.equals(p00 * q00 + p01 * q10)
    assert PQ.b.equals(p10 * q00 + p11 * q10)
    assert P.det().equals(p00 * p11 - p01 * p10)
    (c00, c01), (c10, c11) = mat(P.conj())           # the conjugate transpose
    assert c00.equals(p00.conj()) and c01.equals(p10.conj())
    assert c10.equals(p01.conj()) and c11.equals(p11.conj())
    assert (P @ Q).conj().a.equals((Q.conj() @ P.conj()).a)
    assert (P @ Q).det().equals(P.det() * Q.det())
    assert (-P).b.equals(-P.b) and (P - Q).a.equals(P.a - Q.a)
