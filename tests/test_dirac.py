import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsurf import (ComplexField, PotentialPair, SpinorField, apply_D,
                      apply_Dvee, catalog, constant_field, dirac_residual_norm,
                      field_from_function, gauge_transform, make_grid,
                      save_spinorfield_csv, sigma, wirtinger_derivative)
from spinsurf.dirac import GAMMA, GaugeError, Mat2Field
from spinsurf.grid import GridConfigError
from spinsurf.moutard import moutard_exact


@pytest.fixture
def grid():
    return make_grid((-1, 1, -1, 1), (48, 48))


def _spinor(grid, f1, f2):
    return SpinorField(field_from_function(grid, f1), field_from_function(grid, f2))


def test_apply_D_minimal_data(grid):
    # U = 0: psi1 holomorphic, psi2 antiholomorphic gives residual ~ 0
    # (quadratic data, on which the central stencils are exact)
    psi = _spinor(grid, lambda z: z ** 2 + 1, lambda z: np.conj(z) ** 2)
    U = constant_field(grid, 0.0)
    assert dirac_residual_norm(U, psi) < 1e-11


def test_apply_D_zbar_component(grid):
    # psi = (zbar, 0), U = 0: residual rows are (0, -1)
    psi = _spinor(grid, np.conj, lambda z: 0 * z)
    r = apply_D(constant_field(grid, 0.0), psi)
    assert r.psi1.max_abs() < 1e-12
    assert np.max(np.abs(r.psi2.values + 1.0)) < 1e-11


def test_apply_D_exact_nonzero_potential():
    # inverted-surface spinors solve the transformed Dirac equation exactly;
    # the residual is pure finite-difference truncation, O(h^2)
    sol = catalog("s1", c=1.0)
    ex = moutard_exact(sol.f)
    psis, _ = ex.inverted_surface_spinors()
    res = {}
    for n in (64, 128):
        g = make_grid((0.3, 2.3, 0.2, 2.2), (n, n))
        psi = psis.on_grid(g, 0.2)
        res[n] = dirac_residual_norm(sol.U_field(g, 0.2), psi, interior=1)
    assert res[64] / res[128] >= 3.3


def test_apply_Dvee_equals_D_for_real_U(grid):
    U = field_from_function(grid, lambda z: np.exp(-np.abs(z) ** 2))
    psi = _spinor(grid, lambda z: np.exp(z), lambda z: np.conj(z))
    rd = apply_D(U, psi)
    rv = apply_Dvee(U, psi)
    assert np.max(np.abs(rd.psi1.values - rv.psi1.values)) < 1e-13
    assert np.max(np.abs(rd.psi2.values - rv.psi2.values)) < 1e-13


def test_apply_Dvee_constant(grid):
    phi = SpinorField(constant_field(grid, 1.0), constant_field(grid, 0.0))
    r = apply_Dvee(constant_field(grid, 0.0), phi)
    assert max(r.psi1.max_abs(), r.psi2.max_abs()) < 1e-13


def test_apply_Dvee_is_D_with_conjugate_potential():
    # bitwise against the component formula (d phi2 + conj(U) phi1, -db phi1 + U phi2),
    # masks included
    g = make_grid((-1, 1, -0.8, 1.2), (33, 29))
    rng = np.random.default_rng(29)

    def field(mask_share):
        v = rng.normal(size=(g.ny, g.nx)) + 1j * rng.normal(size=(g.ny, g.nx))
        return ComplexField(g, v, rng.random((g.ny, g.nx)) < mask_share)

    U, phi = field(0.1), SpinorField(field(0.05), field(0.05))
    r1 = wirtinger_derivative(phi.psi2, "z") + U.conj() * phi.psi1
    r2 = -wirtinger_derivative(phi.psi1, "zbar") + U * phi.psi2
    rv = apply_Dvee(U, phi)
    assert np.array_equal(rv.values.view(np.uint64), np.stack([r1.values, r2.values]).view(np.uint64))
    assert np.array_equal(rv.mask, r1.mask | r2.mask) and rv.mask.any()
    assert np.array_equal(apply_Dvee(PotentialPair(U), phi).values, rv.values)


def test_sigma_involution_exact(grid):
    rng = np.random.default_rng(3)
    psi = SpinorField(ComplexField(grid, rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))),
                      ComplexField(grid, rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))))
    s2 = sigma(sigma(psi))
    assert np.array_equal(s2.psi1.values, -psi.psi1.values)
    assert np.array_equal(s2.psi2.values, -psi.psi2.values)


def test_sigma_basis(grid):
    psi = SpinorField(constant_field(grid, 1.0), constant_field(grid, 0.0))
    s = sigma(psi)
    assert s.psi1.max_abs() < 1e-15
    assert np.max(np.abs(s.psi2.values - 1.0)) < 1e-15


def test_sigma_commutes_with_real_D(grid):
    # for real U, D(sigma psi) is the sigma-image (up to conjugation) of D psi
    U = field_from_function(grid, lambda z: 0.5 / np.cosh(z.real))
    rng = np.random.default_rng(11)

    def smooth():
        k = rng.integers(1, 3)
        return lambda z: np.exp(0.3 * k * z) + 0.2 * np.conj(z) ** 2

    psi = _spinor(grid, smooth(), smooth())
    r = apply_D(U, psi)
    rs = apply_Dvee(U, sigma(psi))
    # D sigma psi = (conj of -r2, conj of r1) with Dvee = D for real U
    assert np.max(np.abs(rs.psi1.values + np.conj(r.psi2.values))) < 1e-12
    assert np.max(np.abs(rs.psi2.values - np.conj(r.psi1.values))) < 1e-12


def test_quaternionize_identity(grid):
    q = SpinorField(constant_field(grid, 1.0), constant_field(grid, 0.0))
    assert np.max(np.abs(q.at(3, 4) - np.eye(2))) < 1e-15


def test_quaternionize_j_element(grid):
    q = SpinorField(constant_field(grid, 0.0), constant_field(grid, 1.0))
    assert np.max(np.abs(q.at(0, 0) - np.array([[0, -1], [1, 0]]))) < 1e-15


def test_quaternionize_det_is_metric(grid):
    psi = _spinor(grid, lambda z: z, lambda z: np.conj(z) + 2)
    det = psi.det().values
    e_alpha = np.abs(psi.psi1.values) ** 2 + np.abs(psi.psi2.values) ** 2
    assert np.max(np.abs(det - e_alpha)) < 1e-12


def test_quaternionize_respects_multiplication(grid):
    # matrix product of two quaternion extensions is the extension of the
    # quaternion product (random samples)
    rng = np.random.default_rng(5)
    shape = (grid.ny, grid.nx)
    a = SpinorField(ComplexField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape)),
                    ComplexField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape)))
    b = SpinorField(ComplexField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape)),
                    ComplexField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape)))
    prod = a @ b
    # quaternion product components: (a1 b1 - conj(a2) b2, a2 b1 + conj(a1) b2)
    c1 = a.psi1.values * b.psi1.values - np.conj(a.psi2.values) * b.psi2.values
    c2 = a.psi2.values * b.psi1.values + np.conj(a.psi1.values) * b.psi2.values
    direct = SpinorField(ComplexField(grid, c1), ComplexField(grid, c2))
    assert np.max(np.abs(prod.values - direct.values)) < 1e-12


def test_spinor_constructor_stacks_components_and_merges_masks(grid):
    rng = np.random.default_rng(17)
    shape = (grid.ny, grid.nx)
    m1, m2 = rng.random(shape) < 0.1, rng.random(shape) < 0.1
    p1 = ComplexField(grid, rng.normal(size=shape) + 0j, m1)
    p2 = ComplexField(grid, rng.normal(size=shape) + 0j, m2)
    psi = SpinorField(p1, p2)
    assert psi.values.shape == (2, grid.ny, grid.nx)
    assert np.array_equal(psi.values[0], p1.values) and np.array_equal(psi.values[1], p2.values)
    assert np.array_equal(psi.mask, m1 | m2)
    assert SpinorField(p1, constant_field(grid, 0.0)).mask is m1
    assert SpinorField(constant_field(grid, 1.0), constant_field(grid, 0.0)).mask is None
    # the components are views of values, under the merged mask
    for k, comp in enumerate((psi.psi1, psi.psi2)):
        assert np.shares_memory(comp.values, psi.values[k])
        assert comp.mask is psi.mask
    psi.psi2.values[3, 4] = 7.0
    assert psi.values[1, 3, 4] == 7.0 and p2.values[3, 4] != 7.0
    with pytest.raises(GridConfigError):
        SpinorField(p1, constant_field(make_grid((-1, 1, -1, 1), (48, 40)), 0.0))
    with pytest.raises(GridConfigError):
        SpinorField.from_values(grid, psi.values[:, :-1], None)


def test_gauge_identity(grid):
    psi = _spinor(grid, lambda z: np.exp(z), lambda z: np.conj(z))
    U = field_from_function(grid, lambda z: np.abs(z) ** 2)
    h = constant_field(grid, 0.0)
    p2, f2, U2 = gauge_transform(psi, psi, U, h)
    assert np.max(np.abs(p2.psi1.values - psi.psi1.values)) < 1e-15
    assert np.max(np.abs(U2.values - U.values)) < 1e-15


def test_gauge_constant_phase_preserves_absU(grid):
    psi = _spinor(grid, lambda z: np.exp(z), lambda z: np.conj(z))
    U = field_from_function(grid, lambda z: 1 / (1 + np.abs(z) ** 2))
    h = constant_field(grid, 0.7j)
    _, _, U2 = gauge_transform(psi, psi, U, h)
    assert np.max(np.abs(np.abs(U2.values) - np.abs(U.values))) < 1e-14


def test_gauge_preserves_dirac_residual_order():
    res = {}
    for n in (48, 96):
        g = make_grid((-1, 1, -1, 1), (n, n))
        psi = SpinorField(field_from_function(g, lambda z: np.exp(0.5 * z)),
                          field_from_function(g, lambda z: np.conj(z) ** 2))
        U = constant_field(g, 0.0)
        h = field_from_function(g, lambda z: z)
        p2, f2, U2 = gauge_transform(psi, psi, U, h)
        res[n] = dirac_residual_norm(U2, p2, interior=1)
    assert res[48] / res[96] >= 3.3


def test_gauge_invariant_products(grid):
    # the four bilinear products entering the R^4 coordinate derivatives are
    # exactly invariant
    psi = _spinor(grid, lambda z: np.exp(z), lambda z: np.conj(z) + 1)
    phi = _spinor(grid, lambda z: z ** 2 + 1, lambda z: 2 * np.conj(z))
    U = field_from_function(grid, lambda z: z * 0 + 0.3)
    h = field_from_function(grid, lambda z: 0.2 * z - 0.1j)
    p2, f2, _ = gauge_transform(psi, phi, U, h)

    def products(ps, ph):
        f2b = np.conj(ph.psi2.values)
        p2b = np.conj(ps.psi2.values)
        return (f2b * p2b, ph.psi1.values * ps.psi1.values,
                f2b * ps.psi1.values, ph.psi1.values * p2b)

    for before, after in zip(products(psi, phi), products(p2, f2)):
        assert np.max(np.abs(before - after)) < 1e-12


def test_gauge_rejects_nonholomorphic(grid):
    psi = _spinor(grid, lambda z: z, lambda z: 0 * z)
    U = constant_field(grid, 0.0)
    h = field_from_function(grid, np.conj)
    with pytest.raises(GaugeError):
        gauge_transform(psi, psi, U, h)


def test_potential_pair_real_mode(grid):
    U = constant_field(grid, 1.0)
    PotentialPair(U, real_u=True)
    with pytest.raises(ValueError):
        PotentialPair(constant_field(grid, 1j), real_u=True)


def test_mat2field_inverse(grid):
    zm = grid.zmesh()
    M = Mat2Field.from_values(grid, zm, 0 * zm, 0 * zm, np.conj(zm))
    prod = M @ M.inv(min_det=1e-6)
    vals = prod.values[0, 0][np.abs(zm) > 0.1]
    assert np.max(np.abs(vals - 1.0)) < 1e-10


def test_mat2field_ops_match_per_node_linalg():
    g = make_grid((-1, 1, -1, 1), (12, 10))
    rng = np.random.default_rng(11)

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    A = Mat2Field(g, rand(2, 2, g.ny, g.nx), rng.random((g.ny, g.nx)) < 0.2)
    B = Mat2Field(g, rand(2, 2, g.ny, g.nx), rng.random((g.ny, g.nx)) < 0.2)
    C = Mat2Field.constant(g, rand(2, 2))
    assert C.values.strides[2:] == (0, 0) and C.mask is None

    def nodes(M):                       # (ny, nx, 2, 2) stack for np.linalg
        return np.moveaxis(M.values, (0, 1), (2, 3))

    for X, Y in ((A, B), (A, C), (C, B)):
        prod, total = X @ Y, X + Y
        np.testing.assert_allclose(nodes(prod), nodes(X) @ nodes(Y), rtol=0, atol=1e-13)
        np.testing.assert_allclose(nodes(total), nodes(X) + nodes(Y), rtol=0, atol=0)
        union = (X.mask if X.mask is not None else False) | (Y.mask if Y.mask is not None else False)
        assert np.array_equal(prod.mask, union) and np.array_equal(total.mask, union)
    for X in (A, C):
        np.testing.assert_allclose(nodes(X.inv()), np.linalg.inv(nodes(X)), rtol=1e-9)
    assert np.array_equal(A.inv().mask, A.mask)
    small = np.abs(A.det().values) < 1.0
    assert small.any() and np.array_equal(A.inv(min_det=1.0).mask, A.mask | small)


def test_spinor_csv(tmp_path, grid):
    psi = _spinor(grid, lambda z: z, np.conj)
    path = tmp_path / "psi.csv"
    save_spinorfield_csv(psi, path)
    header = path.read_text().splitlines()[0]
    assert header == "ix,iy,re1,im1,re2,im2"
    assert (tmp_path / "psi.csv.json").exists()


# quaternion storage against the general 2x2 matrix field

_QG = make_grid((-1, 1, -1, 1), (5, 4))


def _random_quat(seed, exponent, zero_share, mask_share):
    rng = np.random.default_rng(seed)
    shape = (2, _QG.ny, _QG.nx)
    v = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** exponent
    v[rng.random(shape) < zero_share] = 0.0
    mask = rng.random(shape[1:]) < mask_share
    return SpinorField.from_values(_QG, v, mask if mask.any() else None)


_quats = st.builds(_random_quat, st.integers(0, 2 ** 32 - 1), st.integers(-3, 3),
                   st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.2]))
_quat_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _size(*qs):
    return np.prod([np.max(np.abs(q.values)) for q in qs])


@_quat_settings
@given(p=_quats, q=_quats)
def test_quat_product_matches_mat2field(p, q):
    pq, general = p @ q, p.mat() @ q.mat()
    assert np.max(np.abs(pq.mat().values - general.values)) <= 1e-15 * _size(p, q)
    assert np.array_equal(pq.mask, general.mask)


@_quat_settings
@given(p=_quats, q=_quats, r=_quats)
def test_quat_product_is_associative(p, q, r):
    assert np.max(np.abs(((p @ q) @ r).values - (p @ (q @ r)).values)) <= 1e-14 * _size(p, q, r)


@_quat_settings
@given(q=_quats)
def test_quat_inverse_is_exact(q):
    n2 = q.norm2()
    ok = n2 > 0
    with np.errstate(invalid="ignore"):               # 0 / 0 at zero quaternions
        qinv, general = q.inv(), q.mat().inv()
    one = (q @ qinv).values
    assert np.max(np.abs(one[0][ok] - 1.0), initial=0.0) <= 1e-15
    assert np.max(np.abs(one[1][ok]), initial=0.0) <= 1e-15
    np.testing.assert_allclose(qinv.mat().values[..., ok], general.values[..., ok], rtol=1e-13)
    small = n2 < 10.0 ** -6
    want = q.mask if not small.any() else small if q.mask is None else q.mask | small
    got = q.inv(min_det=10.0 ** -6).mask
    assert got is want is None or np.array_equal(got, want)


@_quat_settings
@given(p=_quats, q=_quats)
def test_quat_norm_is_multiplicative(p, q):
    np.testing.assert_allclose((p @ q).norm2(), p.norm2() * q.norm2(), rtol=1e-13, atol=0)
    np.testing.assert_allclose(p.det().values, p.mat().det().values, rtol=1e-13, atol=0)


@_quat_settings
@given(q=_quats)
def test_gamma_transpose_is_quaternion_conjugate(q):
    # Gamma Q^T Gamma^-1 = Q^*, exactly: what lets k_matrix drop its Gamma products
    g, ginv = Mat2Field.constant(_QG, GAMMA), Mat2Field.constant(_QG, -GAMMA)
    assert np.array_equal((g @ q.mat().transpose() @ ginv).values, q.conj().mat().values)
