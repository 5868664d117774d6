import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsurf import (ComplexField, SpinorField, catalog, constant_field, dirac_residual_norm,
                      field_from_function, make_grid, wirtinger_derivative)
from spinsurf.dirac import Mat2Field, _norm2, qconj, qmul
from spinsurf.grid import GridConfigError, masked_max_abs
from spinsurf.moutard import moutard_exact
from test_streams import oracle_apply_D

GAMMA = np.array([[0.0, 1.0], [-1.0, 0.0]])      # the quaternion j as a real 2 x 2 matrix


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
    zero = constant_field(grid, 0.0)
    r = oracle_apply_D(zero, psi)
    assert np.max(np.abs(r.psi1.values)) < 1e-12
    assert np.max(np.abs(r.psi2.values + 1.0)) < 1e-11
    assert abs(dirac_residual_norm(zero, psi) - 1.0) < 1e-11


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
    rd = oracle_apply_D(U, psi)
    rv = oracle_apply_D(U.conj(), psi)
    assert np.max(np.abs(rd.psi1.values - rv.psi1.values)) < 1e-13
    assert np.max(np.abs(rd.psi2.values - rv.psi2.values)) < 1e-13
    assert abs(dirac_residual_norm(U, psi) - dirac_residual_norm(U, psi, vee=True)) < 1e-13


def test_apply_Dvee_constant(grid):
    phi = SpinorField(constant_field(grid, 1.0), constant_field(grid, 0.0))
    assert dirac_residual_norm(constant_field(grid, 0.0), phi, vee=True) < 1e-13


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
    r2 = U * phi.psi2 - wirtinger_derivative(phi.psi1, "zbar")
    mask = r1.mask | r2.mask
    assert mask.any() and not mask.all()
    rv = dirac_residual_norm(U, phi, vee=True)
    assert rv == masked_max_abs(np.stack([r1.values, r2.values]), mask)
    assert rv != masked_max_abs(np.stack([r1.values, r2.values]), None)


def sigma(psi: SpinorField) -> SpinorField:
    """Antiinvolution (psi1, psi2) -> (-conj(psi2), conj(psi1)); sigma^2 = -1."""
    return SpinorField.from_values(psi.grid, np.stack([-np.conj(psi.values[1]),
                                                       np.conj(psi.values[0])]), psi.mask)


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
    assert np.max(np.abs(s.psi1.values)) < 1e-15
    assert np.max(np.abs(s.psi2.values - 1.0)) < 1e-15


def test_sigma_commutes_with_real_D(grid):
    # for real U, D(sigma psi) is the sigma-image (up to conjugation) of D psi
    U = field_from_function(grid, lambda z: 0.5 / np.cosh(z.real))
    rng = np.random.default_rng(11)

    def smooth():
        k = rng.integers(1, 3)
        return lambda z: np.exp(0.3 * k * z) + 0.2 * np.conj(z) ** 2

    psi = _spinor(grid, smooth(), smooth())
    r = oracle_apply_D(U, psi)
    rs = oracle_apply_D(U.conj(), sigma(psi))
    # D sigma psi = (conj of -r2, conj of r1) with Dvee = D for real U
    assert np.max(np.abs(rs.psi1.values + np.conj(r.psi2.values))) < 1e-12
    assert np.max(np.abs(rs.psi2.values - np.conj(r.psi1.values))) < 1e-12
    assert abs(dirac_residual_norm(U, sigma(psi), vee=True) - dirac_residual_norm(U, psi)) < 1e-12


def test_quaternionize_identity(grid):
    q = SpinorField(constant_field(grid, 1.0), constant_field(grid, 0.0))
    assert np.max(np.abs(q.at(3, 4) - np.eye(2))) < 1e-15


def test_quaternionize_j_element(grid):
    q = SpinorField(constant_field(grid, 0.0), constant_field(grid, 1.0))
    assert np.max(np.abs(q.at(0, 0) - np.array([[0, -1], [1, 0]]))) < 1e-15


def test_quaternionize_det_is_metric(grid):
    psi = _spinor(grid, lambda z: z, lambda z: np.conj(z) + 2)
    det = _norm2(psi.values)
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
    prod = qmul(a.values, b.values)
    # quaternion product components: (a1 b1 - conj(a2) b2, a2 b1 + conj(a1) b2)
    c1 = a.psi1.values * b.psi1.values - np.conj(a.psi2.values) * b.psi2.values
    c2 = a.psi2.values * b.psi1.values + np.conj(a.psi1.values) * b.psi2.values
    direct = SpinorField(ComplexField(grid, c1), ComplexField(grid, c2))
    assert np.max(np.abs(prod - direct.values)) < 1e-12


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


def test_a_grid_mismatch_is_a_grid_config_error():
    # the mask merge runs before the arithmetic, so a product of fields on two grids
    # never reaches numpy's broadcast error; dirac_residual_norm merges its masks first too
    U = constant_field(make_grid((-1, 1, -1, 1), (32, 32)), 1.0)
    g = make_grid((-1, 1, -1, 1), (48, 40))
    with pytest.raises(GridConfigError, match="grid mismatch"):
        U * constant_field(g, 2.0)
    with pytest.raises(GridConfigError, match="grid mismatch"):
        dirac_residual_norm(U, SpinorField(constant_field(g, 1.0), constant_field(g, 0.0)))


def gauge_transform(psi: SpinorField, phi: SpinorField, U: ComplexField, h: ComplexField):
    """Gauge move by h: psi1 -> e^h psi1, psi2 -> e^conj(h) psi2, phi1 -> e^-h phi1,
    phi2 -> e^-conj(h) phi2, U -> e^(conj(h)-h) U; it maps solutions of D to
    solutions when h is holomorphic."""
    eh, ehb = np.exp(h.values), np.exp(np.conj(h.values))
    psi_t = SpinorField(psi.psi1.like(psi.psi1.values * eh), psi.psi2.like(psi.psi2.values * ehb))
    phi_t = SpinorField(phi.psi1.like(phi.psi1.values / eh), phi.psi2.like(phi.psi2.values / ehb))
    return psi_t, phi_t, ComplexField(h.grid, U.values * ehb / eh, U.mask)


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


def test_gauge_rejects_nonholomorphic():
    # the move keeps D psi = 0 only for holomorphic h: h = z keeps the residual
    # O(h^2), h = conj(z) leaves an O(1) residual at every resolution
    res = {}
    for n in (48, 96):
        g = make_grid((-1, 1, -1, 1), (n, n))
        psi = SpinorField(field_from_function(g, lambda z: np.exp(0.5 * z)),
                          field_from_function(g, lambda z: np.conj(z) ** 2))
        U = constant_field(g, 0.0)
        for name, fn in (("z", lambda z: z), ("zbar", np.conj)):
            p2, _, U2 = gauge_transform(psi, psi, U, field_from_function(g, fn))
            res[name, n] = dirac_residual_norm(U2, p2, interior=1)
    assert res["z", 48] / res["z", 96] >= 3.3
    assert res["zbar", 48] > 1.0 and res["zbar", 96] > 1.0


def test_mat2field_inverse(grid):
    zm = grid.zmesh()
    M = Mat2Field.from_values(grid, zm, 0 * zm, 0 * zm, np.conj(zm))
    prod = M @ M.inv()
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


def test_mat2field_inv_masks_exactly_the_nodes_below_its_det_rule():
    # SpinorField.inv's rule: |det| below 1e-12 max(|M|, 1)^2 over the unmasked
    # nodes; here |M| = 4, and the masked node's 100 does not count
    g = make_grid((-1, 1, -1, 1), (6, 5))
    rng = np.random.default_rng(7)
    shape = (2, 2, g.ny, g.nx)
    v = rng.uniform(0.5, 1.0, shape) * np.exp(2j * np.pi * rng.random(shape))
    v[0, 0, 0, 0], v[1, 1, 4, 5] = 4.0, 100.0
    min_det = 1e-12 * 4.0 ** 2
    v[:, :, 1, 2] = [[min_det * (1 - 1e-6), 0], [0, 1]]     # det just below
    v[:, :, 3, 1] = [[min_det * (1 + 1e-6), 0], [0, 1]]     # det just above
    masked = np.zeros((g.ny, g.nx), bool)
    masked[4, 5] = True
    inv = Mat2Field(g, v.copy(), masked).inv()
    want = masked.copy()
    want[1, 2] = True
    assert np.array_equal(inv.mask, want)
    # the masked node is its adjugate, divided by 1; the others are inverted
    assert np.array_equal(inv.at(2, 1), [[1, 0], [0, min_det * (1 - 1e-6)]])
    ok = ~want
    np.testing.assert_allclose(np.moveaxis(inv.values, (0, 1), (2, 3))[ok],
                               np.linalg.inv(np.moveaxis(v, (0, 1), (2, 3))[ok]), rtol=1e-12)


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


def quat_mat(q: SpinorField) -> Mat2Field:
    """The general 2x2 matrix field [[a, -conj(b)], [b, conj(a)]] of the quaternion
    column (a, b), under q's mask: the oracle that quaternion storage is checked on."""
    a, b = q.values
    return Mat2Field.from_values(q.grid, a, -np.conj(b), b, np.conj(a), q.mask)


def _quat(values, mask=None) -> SpinorField:
    return SpinorField.from_values(_QG, values, mask)


def _size(*qs):
    return np.prod([np.max(np.abs(q.values)) for q in qs])


@_quat_settings
@given(p=_quats, q=_quats)
def test_quat_product_matches_mat2field(p, q):
    pq, general = _quat(qmul(p.values, q.values)), quat_mat(p) @ quat_mat(q)
    assert np.max(np.abs(quat_mat(pq).values - general.values)) <= 1e-15 * _size(p, q)


@_quat_settings
@given(p=_quats, q=_quats, r=_quats)
def test_quat_product_is_associative(p, q, r):
    left = qmul(qmul(p.values, q.values), r.values)
    right = qmul(p.values, qmul(q.values, r.values))
    assert np.max(np.abs(left - right)) <= 1e-14 * _size(p, q, r)


@_quat_settings
@given(q=_quats)
def test_quat_inverse_is_exact(q):
    n2 = _norm2(q.values)
    small = n2 < 1e-12 * max(q.max_abs(), 1.0) ** 2   # inv's singular nodes
    ok = ~small
    qinv, general = q.inv(), quat_mat(q).inv()        # zero quaternions: divided by 1
    one = qmul(q.values, qinv.values)
    assert np.max(np.abs(one[0][ok] - 1.0), initial=0.0) <= 1e-15
    assert np.max(np.abs(one[1][ok]), initial=0.0) <= 1e-15
    np.testing.assert_allclose(quat_mat(qinv).values[..., ok], general.values[..., ok], rtol=1e-13)
    want = q.mask if not small.any() else small if q.mask is None else q.mask | small
    for got in (qinv.mask, general.mask):             # one singular-node rule
        assert got is want is None or np.array_equal(got, want)


def test_inv_masks_exactly_the_nodes_below_its_det_rule():
    # det = |a|^2 + |b|^2 below 1e-12 max(|S|, 1)^2 over the unmasked nodes: here
    # |S| = 4, and the masked node's 100 does not count
    g = make_grid((-1, 1, -1, 1), (6, 5))
    rng = np.random.default_rng(7)
    v = rng.uniform(0.5, 1.0, (2, g.ny, g.nx)) * np.exp(2j * np.pi * rng.random((2, g.ny, g.nx)))
    v[0, 0, 0], v[0, 4, 5] = 4.0, 100.0
    min_det = 1e-12 * 4.0 ** 2
    v[:, 1, 2] = np.sqrt(min_det) * (1 - 1e-6), 0.0          # just below
    v[:, 3, 1] = np.sqrt(min_det) * (1 + 1e-6), 0.0          # just above
    n2 = _norm2(v)
    assert n2[1, 2] < min_det <= n2[3, 1]
    masked = np.zeros((g.ny, g.nx), bool)
    masked[4, 5] = True
    inv = SpinorField.from_values(g, v.copy(), masked).inv()
    want = masked.copy()
    want[1, 2] = True
    assert np.array_equal(inv.mask, want)
    n2[1, 2] = 1.0                                           # a masked node is divided by 1
    assert (qconj(v) / n2).tobytes() == inv.values.tobytes()


@_quat_settings
@given(p=_quats, q=_quats)
def test_quat_norm_is_multiplicative(p, q):
    np.testing.assert_allclose(_norm2(qmul(p.values, q.values)),
                               _norm2(p.values) * _norm2(q.values), rtol=1e-13, atol=0)
    np.testing.assert_allclose(_norm2(p.values), quat_mat(p).det().values, rtol=1e-13, atol=0)


@_quat_settings
@given(q=_quats)
def test_gamma_transpose_is_quaternion_conjugate(q):
    # Gamma Q^T Gamma^-1 = Q^*, exactly: what lets k_matrix drop its Gamma products
    g, ginv = Mat2Field.constant(_QG, GAMMA), Mat2Field.constant(_QG, -GAMMA)
    assert np.array_equal((g @ quat_mat(q).transpose() @ ginv).values,
                          quat_mat(_quat(qconj(q.values), q.mask)).values)
