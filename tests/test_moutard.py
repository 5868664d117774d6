from functools import partial

import numpy as np
import pytest

from spinsurf import (BiPoly, C, ComplexField, RationalFn, SpinorField, T, Z, ZBAR,
                      antiderivative, catalog, constant_field, dirac_residual_norm,
                      exact_solution, field_from_function, heat_extend, make_grid)
from spinsurf.dirac import _norm2, qconj
from spinsurf.exactpoly import InvalidDatumError, heat_antiderivative
from spinsurf.grid import ClosednessError
from spinsurf.moutard import (MoutardTransform, NormalizationError, _centre_patch, _partner,
                              build_S, heat_datum_fields, heat_datum_spinors,
                              heat_smatrix_values, k_matrix, moutard_exact, omega, omega1,
                              time_offset_integral)
from test_dirac import GAMMA, quat_mat
from test_grid import XDY_BOXES, XDY_SIZES, _ref_antiderivative


def _plane_ctx(n=48, lo=0.4, hi=2.4):
    g = make_grid((lo, hi, lo - 0.1, hi - 0.1), (n, n))
    one, zero = constant_field(g, 1.0), constant_field(g, 0.0)
    psi0 = SpinorField(one, zero)
    bx, by = g.nx // 2, g.ny // 2
    zb = g.node_z(bx, by)
    C0 = np.array([[0, 1j * np.conj(zb)], [1j * zb, 0]])
    return g, psi0, MoutardTransform.from_background(psi0, psi0, C0)


def _S0(ctx):
    """S0 = S(Phi0, Psi0) of a context, integrated as from_background integrates it
    (bitwise); the context keeps only S0^-1."""
    return build_S(ctx.Phi0, ctx.Psi0, constant=ctx.C0)


def test_omega_identity_example():
    # Psi = Phi = identity: Gamma*omega has dz part [[0,0],[i,0]], dzbar part [[0,i],[0,0]],
    # so its column 0 is (0, i dz) = (0, i dx - dy); column 1, (-conj, conj) of it,
    # is (i dzbar, 0)
    g = make_grid((-1, 1, -1, 1), (8, 8))
    I2 = SpinorField(constant_field(g, 1.0), constant_field(g, 0.0))
    X, Y = omega(I2, I2)
    assert list(X.values[:, 3, 2]) == [0, 1j]
    assert list(Y.values[:, 3, 2]) == [0, -1]
    gdz, gdzb = _oracle_gamma_omega(I2, I2)
    assert np.allclose(gdz.at(2, 3), [[0, 0], [1j, 0]])
    assert np.allclose(gdzb.at(2, 3), [[0, 1j], [0, 0]])


def test_omega_closed_for_solutions():
    # both omega(Phi,Psi) and omega(Psi,Phi) are closed when the Dirac
    # equations hold (trivial potential, holomorphic/antiholomorphic data)

    def defect_at(n, a, b):
        gg = make_grid((-1, 1, -1, 1), (n, n))
        aa = SpinorField(field_from_function(gg, a[0]), field_from_function(gg, a[1]))
        bb = SpinorField(field_from_function(gg, b[0]), field_from_function(gg, b[1]))
        X, Y = omega(aa, bb)
        return antiderivative(gg, X.values, Y.values)[1]

    fns_psi = (lambda z: np.exp(0.5 * z), lambda z: np.conj(z) ** 2)
    fns_phi = (lambda z: z ** 2 + 1, lambda z: np.exp(-0.3 * np.conj(z)))
    for a, b in ((fns_phi, fns_psi), (fns_psi, fns_phi)):
        d64 = defect_at(64, a, b)
        d128 = defect_at(128, a, b)
        assert d64 / d128 >= 3.3      # an O(h^2) path defect for exact solutions


def test_conj_transpose_convention_fails_closedness():
    # the alternative reading of the transpose is not closed on the
    # quadratic-datum background, which is why omega uses the plain transpose:
    # antiderivative refuses it by its path defect
    g = make_grid((-1, 1, -1, 1), (64, 64))
    sol = catalog("s1", c=1.0)
    psi0, phi0 = heat_datum_fields(sol.f, g, 0.2)
    plain = _max_path_defect(*_oracle_gamma_omega(phi0, psi0, False))
    assert plain < 1e-10                         # linear entries: exact
    with pytest.raises(ClosednessError, match="path-dependence defect"):
        _max_path_defect(*_oracle_gamma_omega(phi0, psi0, True))
    X, Y = omega(phi0, psi0)
    _, col0 = antiderivative(g, X.values, Y.values)
    assert col0 == pytest.approx(plain, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("bounds, n, c", [((-1.5, 1.5, -1.2, 1.8), (256, 256), None),
                                          ((-2, 2, -1, 1), (8200, 4), 0.3 - 2j),
                                          ((0.4, 2.4, 0.3, 2.3), (300, 97), 1j)])
def test_heat_datum_fields_bitwise_equal_to_full_mesh_eval(bounds, n, c):
    # the row-block walk gives f_z exactly as BiPoly.eval over the full z-mesh does;
    # data with a numeric c are sampled from heat_datum_spinors with that c
    g = make_grid(bounds, n)
    if c is None:
        f = catalog("s1", c=1.0 + 0.2j).f
        psi0, phi0 = heat_datum_fields(f, g, 0.2)
    else:
        f = exact_solution(heat_extend(Z ** 4 + C), c=c).f
        psi0, phi0 = (q.on_grid(g, 0.2, c) for q in heat_datum_spinors(f))
    ref = f.wirtinger("z").eval(z=g.zmesh(), t=0.2, c=c)
    assert np.array_equal(phi0.psi1.values.view(np.uint64), ref.view(np.uint64))
    assert np.all(psi0.psi1.values == 0) and np.all(psi0.psi2.values == 1)
    assert np.all(phi0.psi2.values == 1j)
    assert psi0.mask is None and phi0.mask is None


def _rquat_oracle(q, g, t):
    """Each entry on the full z-mesh by BiPoly.eval, exact zeros of its denominator
    read 0; the mask is the union of the entries' zeros."""
    zm, vals, mask = g.zmesh(), [], np.zeros((g.ny, g.nx), bool)
    for rf in (q.a, q.b):
        num, den = rf.num.eval(z=zm, t=t), rf.den.eval(z=zm, t=t)
        pole = den == 0
        den[pole], num[pole] = 1.0, 0.0
        vals.append(num / den)
        mask |= pole
    return np.stack(vals), (mask if mask.any() else None)


@pytest.mark.parametrize("c, t, bounds, n, pole", [
    (1.0, 0.2, (0.3, 2.3, 0.2, 2.2), (64, 64), None),
    (1j, -0.5, (-1, 1, -1, 1), (33, 17), (8, 16)),           # z = 0 is a node: rho = 0
    (1j, -0.5, (-2, 2, -1, 1), (8193, 5), (2, 4096)),        # nx > _BLOCK
])
def test_rquat_on_grid_bitwise_equal_to_full_mesh_eval(c, t, bounds, n, pole):
    g = make_grid(bounds, n)
    ex = moutard_exact(catalog("s1", c=c).f)
    psis, phis = ex.inverted_surface_spinors()
    for q in (ex.K, ex.tilde_psi_for_linear_datum(), ex.tilde_phi_for_identity_datum(),
              psis, phis):
        got = q.on_grid(g, t)
        values, mask = _rquat_oracle(q, g, t)
        assert np.array_equal(got.values.view(np.uint64), values.view(np.uint64))
        assert (got.mask is None) == (mask is None)
        assert mask is None or (np.array_equal(got.mask, mask) and mask.sum() == 1
                                and mask[pole] and np.all(got.values[:, mask] == 0))


def test_sampling_a_symbolic_c_needs_a_value():
    # one rule for c: InvalidDatumError wherever the sampled polynomial depends on c
    f = catalog("s1", c="symbolic").f                       # z^2 + 2it + c
    g = make_grid((-1, 1, -1, 1), (16, 16))
    with pytest.raises(InvalidDatumError, match="numeric"):
        heat_smatrix_values(f, g, 0.2)
    S = heat_smatrix_values(heat_extend(Z * Z + 0.5), g, 0.2)
    assert np.array_equal(S.values, heat_smatrix_values(catalog("s1", c=0.5).f, g, 0.2).values)
    # f' = 4z^3 + 24itz does not depend on c, so the background needs none
    psi0, phi0 = heat_datum_fields(catalog("s2", c="symbolic").f, g, 0.2)
    ref = heat_datum_fields(catalog("s2", c=12.0).f, g, 0.2)
    assert np.array_equal(phi0.values, ref[1].values) and np.array_equal(psi0.values, ref[0].values)


def test_heat_antiderivative_refuses_a_datum_that_is_not_heat():
    # f = t: f_t = 1 but i f_zz = 0, so no heat F has F_z = f; the exact layer's
    # one error for a bad datum, as heat_extend and exact_solution raise
    with pytest.raises(InvalidDatumError, match="not a heat polynomial"):
        heat_antiderivative(T)


def test_omega1_vanishes_for_constants():
    g = make_grid((-1, 1, -1, 1), (16, 16))
    I2 = SpinorField(constant_field(g, 1.0), constant_field(g, 0.0))
    w1 = omega1(I2, I2)
    assert w1.max_abs() < 1e-12


def _random_spinor(g, rng):
    return SpinorField(*(ComplexField(g, rng.normal(size=(g.ny, g.nx))
                                      + 1j * rng.normal(size=(g.ny, g.nx))) for _ in range(2)))


def _oracle_xy_parts(gdz, gdzb):
    """The x and y parts of the general matrix 1-form gdz dz + gdzb dzbar."""
    return gdz.values + gdzb.values, 1j * (gdz.values - gdzb.values)


@pytest.mark.parametrize("name", ["s1", "plane"])
def test_omega_column0_matches_general_matrix_oracle(name):
    # bitwise (up to the sign of 0) on both backgrounds: column 0 of the x and y
    # parts of the general Gamma omega
    _, g, psi0, phi0, _ = next(b for b in _backgrounds() if b[0] == name)
    for Phi, Psi in ((phi0, psi0), (psi0, phi0)):
        gx, gy = _oracle_xy_parts(*_oracle_gamma_omega(Phi, Psi))
        X, Y = omega(Phi, Psi)
        assert np.array_equal(X.values, gx[:, 0])
        assert np.array_equal(Y.values, gy[:, 0])


def test_build_S_checks_and_integrates_once(monkeypatch):
    import spinsurf.moutard as mo
    calls = []
    for name in ("omega", "antiderivative"):
        fn = getattr(mo, name)
        monkeypatch.setattr(mo, name,
                            lambda *a, _fn=fn, _n=name, **k: calls.append(_n) or _fn(*a, **k))
    _, g, psi0, phi0, C0 = next(_backgrounds(32))
    build_S(phi0, psi0, constant=C0)
    assert calls == ["omega", "antiderivative"]


def test_build_S_gate_scale_is_the_largest_dz_or_dzbar_part():
    # the gate's scale, max sqrt(|X|^2 + |Y|^2) = sqrt(2) max sqrt(|p|^2 + |q|^2), is
    # sqrt(2) max(|p|, |q|) over the dz and dzbar parts, to rounding, when either
    # spinor has a vanishing component (one of p, q is then 0 in each entry), as on
    # both backgrounds; otherwise it lies between that and 2 max(|p|, |q|)
    def scales(Phi, Psi):
        gdz, gdzb = _oracle_gamma_omega(Phi, Psi)
        X, Y = omega(Phi, Psi)
        return (np.max(np.hypot(np.abs(X.values), np.abs(Y.values))),
                max(np.max(np.abs(gdz.values[:, 0])), np.max(np.abs(gdzb.values[:, 0]))))

    for _, g, psi0, phi0, _ in _backgrounds(32):
        for pair in ((phi0, psi0), (psi0, phi0)):
            xy, pq = scales(*pair)
            assert xy == pytest.approx(np.sqrt(2) * pq, rel=4e-16)
    rng = np.random.default_rng(5)
    xy, pq = scales(_random_spinor(g, rng), _random_spinor(g, rng))
    assert np.sqrt(2) * pq < xy <= 2 * pq


def test_omega_column0_matches_oracle_on_non_solutions():
    # on spinors that solve nothing the oracle multiplies in another operand order,
    # which may round differently where the complex product fuses a multiply-add
    rng = np.random.default_rng(7)
    g = make_grid((-1, 1, -0.5, 1.5), (40, 33))
    Phi, Psi = _random_spinor(g, rng), _random_spinor(g, rng)
    gx, gy = _oracle_xy_parts(*_oracle_gamma_omega(Phi, Psi))
    X, Y = omega(Phi, Psi)
    assert _rel(X.values, gx[:, 0]) < 1e-15
    assert _rel(Y.values, gy[:, 0]) < 1e-15


@pytest.mark.parametrize("seed", [0, 1])
def test_omega1_matches_general_matrix_oracle(seed):
    # on random spinors that solve nothing: Gamma omega1 is a quaternion to the last
    # bit, and omega1's column is its column 0
    from spinsurf.dirac import Mat2Field, quaternion_defect
    rng = np.random.default_rng(seed)
    g = make_grid((-1, 1, -0.5, 1.5), (40, 33))
    Phi, Psi = _random_spinor(g, rng), _random_spinor(g, rng)
    ref = (Mat2Field.constant(g, GAMMA) @ _oracle_omega1(Phi, Psi)).values
    assert quaternion_defect(ref) == 0.0
    assert _rel(omega1(Phi, Psi).values, ref[:, 0]) < 1e-14


def test_build_S_plane_closed_form():
    g, psi0, ctx = _plane_ctx()
    zm = g.zmesh()
    S = quat_mat(_S0(ctx)).values
    assert np.max(np.abs(S[0, 0])) < 1e-12
    assert np.max(np.abs(S[0, 1] - 1j * np.conj(zm))) < 1e-12
    assert np.max(np.abs(S[1, 0] - 1j * zm)) < 1e-12
    assert np.max(np.abs(S[1, 1])) < 1e-12


def test_plane_S_reads_as_plane_surface():
    from spinsurf import smatrix_to_surface
    g, psi0, ctx = _plane_ctx()
    S = smatrix_to_surface(_S0(ctx))
    zm = g.zmesh()
    assert np.max(np.abs(S.coords[0] + zm.imag)) < 1e-12    # x1 = -y
    assert np.max(np.abs(S.coords[1] + zm.real)) < 1e-12    # x2 = -x
    assert np.max(np.abs(S.coords[2])) < 1e-12
    assert np.max(np.abs(S.coords[3])) < 1e-12


def test_plane_S_determinant():
    # det S = |z|^2 (the squared distance to the origin; S is a quaternion,
    # so its determinant is the squared norm of the surface point)
    g, psi0, ctx = _plane_ctx()
    zm = g.zmesh()
    assert np.max(np.abs(_norm2(_S0(ctx).values) - np.abs(zm) ** 2)) < 1e-12


def test_build_S_rejects_non_solution():
    g = make_grid((-1, 1, -1, 1), (48, 48))
    bad = SpinorField(field_from_function(g, np.conj),
                      field_from_function(g, lambda z: z))
    I2 = SpinorField(constant_field(g, 1.0), constant_field(g, 0.0))
    with pytest.raises(ClosednessError):
        build_S(I2, bad, np.zeros((2, 2)))


@pytest.mark.parametrize("n", XDY_SIZES)
@pytest.mark.parametrize("box", list(XDY_BOXES))
def test_build_S_refuses_x_dy(box, n):
    # Phi = (1, 1), Psi = (-x/2, x/2): column 0 of Gamma omega is x dy and -i x dx,
    # whose scale is max |x|, as for x dy alone
    g = make_grid(XDY_BOXES[box], (n, n))
    x = field_from_function(g, np.real)
    Phi = SpinorField(constant_field(g, 1.0), constant_field(g, 1.0))
    Psi = SpinorField(x * -0.5, x * 0.5)
    X, Y = omega(Phi, Psi)
    assert np.array_equal(X.values[0], 0 * x.values) and np.array_equal(Y.values[0], x.values)
    with pytest.raises(ClosednessError, match="path-dependence defect .* exceeds"):
        build_S(Phi, Psi, np.zeros((2, 2)))


def _plane_spinor_masked_at(g, node, value):
    one = constant_field(g, 1.0)
    one.values[node[1], node[0]] = value
    one.mask = np.zeros((g.ny, g.nx), dtype=bool)
    one.mask[node[1], node[0]] = True
    return SpinorField(one, constant_field(g, 0.0))


def test_build_S_rejects_a_masked_nan_node():
    # the path defect reads every node, masked or not: NaN
    g = make_grid((0.4, 2.4, 0.3, 2.3), (32, 32))
    Psi = _plane_spinor_masked_at(g, (5, 7), np.nan)
    I2 = SpinorField(constant_field(g, 1.0), constant_field(g, 0.0))
    with pytest.raises(ClosednessError, match="nan"):
        build_S(I2, Psi, np.zeros((2, 2)))


def test_build_S_carries_the_merged_input_mask():
    g = make_grid((0.4, 2.4, 0.3, 2.3), (32, 32))
    Phi = _plane_spinor_masked_at(g, (5, 7), 1.0)
    Psi = _plane_spinor_masked_at(g, (20, 3), 1.0)
    S = build_S(Phi, Psi, np.zeros((2, 2)))
    want = np.zeros((g.ny, g.nx), dtype=bool)
    want[7, 5] = want[3, 20] = True
    assert np.array_equal(S.mask, want)
    assert np.all(np.isfinite(S.values))


def test_normalize_pair_symmetric_case():
    g, psi0, ctx = _plane_ctx()
    # symmetric background: the normalized partner equals Gamma S^T Gamma
    from spinsurf.dirac import Mat2Field
    gm = Mat2Field.constant(g, GAMMA)
    S0 = _S0(ctx)
    target = gm @ quat_mat(S0).transpose() @ gm
    SB0 = SpinorField.from_values(g, -qconj(S0.values), S0.mask)     # -S0^*
    assert (target - quat_mat(SB0)).max_abs() < 1e-10


def _integrated_partner_offset(SA, SB):
    """The offset SB - (-SA^*) of an integrated partner's column SB from the one
    from_background forms out of SA's, as (its mean, its spread about the mean)."""
    a, b = SA
    diff = SB - np.stack([-np.conj(a), b])
    mean = diff.mean(axis=(1, 2))
    return mean, np.max(np.abs(diff - mean[:, None, None]))


@pytest.mark.parametrize("seed", [0, 1])
def test_normalize_pair_random_solutions(seed):
    # the partner from_background forms, -S0^*, is S(Psi0, Phi0) integrated, up to
    # one constant quaternion: C0^H, as S(Psi0, Phi0) is anchored to 0 at the base
    rng = np.random.default_rng(seed)
    g = make_grid((-1, 1, -1, 1), (32, 32))
    a, b, c, d = (rng.normal() + 1j * rng.normal() for _ in range(4))
    psi0 = SpinorField(field_from_function(g, lambda z: a * np.exp(0.4 * z) + b),
                       field_from_function(g, lambda z: c * np.conj(z) + d))
    phi0 = SpinorField(field_from_function(g, lambda z: b * z + a),
                       field_from_function(g, lambda z: d * np.exp(0.2 * np.conj(z))))
    C0 = np.array([[1.0, 0.2], [-0.2, 1.0]])
    SA = build_S(phi0, psi0, constant=C0)
    SB = build_S(psi0, phi0, np.zeros((2, 2)))
    mean, spread = _integrated_partner_offset(SA.values, SB.values)
    scale = SA.max_abs()
    assert spread <= 1e-12 * scale
    assert np.max(np.abs(mean - C0.conj().T[:, 0])) <= 1e-12 * scale
    # the identity needs no Dirac equation: on random arrays omega is not closed,
    # and its x-first L-path integrals (the oracle's: antiderivative refuses them)
    # still pair up
    psi, phi = (SpinorField(*(ComplexField(g, rng.normal(size=(32, 32))
                                           + 1j * rng.normal(size=(32, 32)))
                              for _ in range(2))) for _ in range(2))
    with pytest.raises(ClosednessError):
        build_S(phi, psi, np.zeros((2, 2)))

    SA, SB = (_ref_antiderivative(g, *(F.values for F in omega(*pair)), g.centre, "x_first")
              for pair in ((phi, psi), (psi, phi)))
    mean, spread = _integrated_partner_offset(SA, SB)
    assert spread <= 1e-12 * np.max(np.abs(SA))
    assert np.max(np.abs(mean)) <= 1e-12 * np.max(np.abs(SA))


def test_k_matrix_plane_example():
    g, psi0, ctx = _plane_ctx()
    zm = g.zmesh()
    assert np.max(np.abs(ctx.kdata.W.values)) < 1e-12
    assert np.max(np.abs(ctx.kdata.a.values + 1j / zm)) < 1e-12


def test_k_matrix_of_closed_form_S_reproduces_exact_potentials():
    # K from the sampled closed-form S recovers W = U and a of the heat datum
    g = make_grid((-2, -0.5, 0.5, 2), (40, 40))
    sol = catalog("s1", c=1.0)
    psi0, phi0 = heat_datum_fields(sol.f, g, 0.15)
    Sm = heat_smatrix_values(sol.f, g, 0.15)
    U = sol.U_field(g, 0.15).values
    a = sol.a.eval(z=g.zmesh(), t=0.15, c=1.0)
    kd = k_matrix(psi0, Sm.inv(), phi0)
    assert _rel(kd.W.values, U) < 1e-13
    assert _rel(kd.a.values, a) < 1e-13


def test_build_S_rejects_a_non_quaternion_constant():
    g, psi0, ctx = _plane_ctx(32)
    with pytest.raises(NormalizationError):
        build_S(ctx.Phi0, ctx.Psi0, constant=np.diag([1.0, 2.0]))
    C0 = ctx.C0
    build_S(ctx.Phi0, ctx.Psi0, constant=C0 + np.diag([1j, -1j]))
    with pytest.raises(NormalizationError):
        build_S(ctx.Phi0, ctx.Psi0, constant=C0 + np.diag([1j, 1j]))


@pytest.mark.parametrize("name", ["s1", "plane"])
def test_x_and_y_parts_of_gamma_omega_are_quaternions(name):
    # what lets build_S integrate column 0 only: the x and y parts of Gamma omega
    # are quaternions to the last bit, while the dz and dzbar parts are not
    from spinsurf.dirac import quaternion_defect
    g, psi0, phi0, _ = next((g, p, f, c) for n, g, p, f, c in _backgrounds() if n == name)
    for pair in ((phi0, psi0), (psi0, phi0)):
        gdz, gdzb = (m.values for m in _oracle_gamma_omega(*pair))
        parts = {"dz": gdz, "dzbar": gdzb, "x": gdz + gdzb, "y": 1j * (gdz - gdzb)}
        assert quaternion_defect(parts["x"]) == 0.0
        assert quaternion_defect(parts["y"]) == 0.0
        for key in ("dz", "dzbar"):
            assert quaternion_defect(parts[key]) > 0.5 * np.max(np.abs(parts[key]))


def test_moutard_dsii_plane():
    g, psi0, ctx = _plane_ctx()
    zero = constant_field(g, 0.0)
    Ut, Vt = ctx.transformed_potentials(zero)
    zm = g.zmesh()
    assert np.max(np.abs(Ut.values)) < 1e-12
    interior = np.s_[2:-2, 2:-2]
    assert np.max(np.abs((Vt.values + 2 / zm ** 2)[interior])) < 5e-4


def test_moutard_self_transform_annihilates():
    g, psi0, ctx = _plane_ctx()
    psit, phit = ctx.transform(psi0, psi0)
    assert psit.max_abs() < 1e-13
    assert phit.max_abs() < 1e-13


def test_moutard_plane_residual_order():
    res = {}
    for n in (48, 96):
        g, psi0, ctx = _plane_ctx(n)
        psi = SpinorField(field_from_function(g, lambda z: np.exp(0.4 * z)),
                          constant_field(g, 0.0))
        phi = SpinorField(field_from_function(g, lambda z: np.exp(0.3 * z)),
                          constant_field(g, 0.0))
        psit, phit = ctx.transform(psi, phi)
        Ut, _ = ctx.transformed_potentials(constant_field(g, 0.0))
        res[n] = max(dirac_residual_norm(Ut, psit, interior=1),
                     dirac_residual_norm(Ut, phit, interior=1, vee=True))
    assert res[48] / res[96] >= 3.0


def test_moutard_real_reduction_keeps_U_real():
    # U real, Phi0 = Psi0, Phi = Psi: the transformed potential stays real
    g, psi0, ctx = _plane_ctx()
    Ut, _ = ctx.transformed_potentials(constant_field(g, 0.0))
    assert np.max(np.abs(Ut.values.imag)) < 1e-12


def test_context_inverts_S0_and_SB0_once(monkeypatch):
    # from_background integrates and inverts S0 only (S0^-1 also forms K); the
    # partner SB0 = -S0^* takes the constant -C0^H, and transform reads
    # SB0^-1 = -(S0^-1)^* off S0^-1 by _partner
    calls, builds = [], []
    inv = SpinorField.inv
    monkeypatch.setattr(SpinorField, "inv",
                        lambda self, *a, **k: calls.append(1) or inv(self, *a, **k))
    import spinsurf.moutard as moutard_mod
    build = moutard_mod.build_S
    monkeypatch.setattr(moutard_mod, "build_S",
                        lambda *a, **k: builds.append(1) or build(*a, **k))
    g, psi0, ctx = _plane_ctx(32)
    assert (len(calls), len(builds)) == (1, 1)
    psi = SpinorField(field_from_function(g, lambda z: np.exp(0.4 * z)), constant_field(g, 0.0))
    ctx.transform(psi, psi)
    ctx.transform(psi, psi)
    assert (len(calls), len(builds)) == (1, 5)
    monkeypatch.undo()
    S0 = _S0(ctx)
    assert np.array_equal(ctx.S0_inv.values, S0.inv().values)
    SB0 = SpinorField.from_values(g, -qconj(S0.values), S0.mask)     # -S0^*
    bx, by = g.centre
    constBP = -ctx.C0.conj().T @ np.linalg.solve(ctx.Phi0.at(bx, by), psi.at(bx, by))
    assert np.array_equal(ctx.transform(psi, psi)[1].values,
                          ctx.transform(psi, psi, constBP=constBP)[1].values)
    assert np.array_equal(_partner(ctx.S0_inv.values), SB0.inv().values)
    kd = k_matrix(ctx.Psi0, S0.inv(), ctx.Phi0)
    assert np.array_equal(kd.W.values, ctx.kdata.W.values)
    assert np.array_equal(kd.a.values, ctx.kdata.a.values)


def test_moutard_spinors_wrapper():
    # a context built and used once produces tilde solutions of the transformed operator
    res = {}
    for n in (32, 64):
        g, psi0, ctx = _plane_ctx(n)                  # from_background on the plane
        psi = SpinorField(field_from_function(g, lambda z: z),
                          constant_field(g, 0.0))
        psit, phit = ctx.transform(psi, psi)
        Ut = constant_field(g, 0.0)
        res[n] = dirac_residual_norm(Ut, psit, interior=1)
    assert res[32] / res[64] >= 3.0


def test_exact_moutard_recovers_heat_potentials():
    for name in ("s1", "s2"):
        sol = catalog(name, c="symbolic")
        ex = moutard_exact(sol.f)
        assert ex.W.equals(sol.U)
        assert ex.a.equals(sol.a)


def test_exact_tilde_spinors_solve_dirac():
    sol = catalog("s1", c=1.0)
    ex = moutard_exact(sol.f)
    psit_exact = ex.tilde_psi_for_linear_datum()
    res = {}
    for n in (64, 128):
        g = make_grid((-1.5, 1.5, -1.2, 1.8), (n, n))
        psit = psit_exact.on_grid(g, 0.2)
        res[n] = dirac_residual_norm(sol.U_field(g, 0.2), psit, interior=1)
    assert res[64] / res[128] >= 3.0


def test_exact_tilde_phi_solves_dvee():
    sol = catalog("s1", c=1.0)
    ex = moutard_exact(sol.f)
    phit_exact = ex.tilde_phi_for_identity_datum()
    res = {}
    for n in (64, 128):
        g = make_grid((-1.5, 1.5, -1.2, 1.8), (n, n))
        phit = phit_exact.on_grid(g, 0.2)
        res[n] = dirac_residual_norm(sol.U_field(g, 0.2), phit, interior=1, vee=True)
    assert res[64] / res[128] >= 3.0


def test_numeric_pipeline_matches_exact_tilde():
    # the transform on sampled background data reproduces the closed-form
    # transformed spinor to O(h^2)
    sol = catalog("s1", c=1.0)
    ex = moutard_exact(sol.f)
    psit_exact = ex.tilde_psi_for_linear_datum()
    t = 0.2
    errs = {}
    for n in (48, 96):
        g = make_grid((-1.5, 1.5, -1.2, 1.8), (n, n))
        psi0, phi0 = heat_datum_fields(sol.f, g, t)
        bx, by = g.nx // 2, g.ny // 2
        zb = g.node_z(bx, by)
        fb = complex(sol.f.eval(z=zb, t=t, c=1.0))
        C0 = np.array([[1j * np.conj(fb), -zb], [np.conj(zb), -1j * fb]])
        ctx = MoutardTransform.from_background(psi0, phi0, C0)
        psi = SpinorField(field_from_function(g, lambda z: z), constant_field(g, 0.0))
        phi = SpinorField(constant_field(g, 1.0), constant_field(g, 0.0))
        # constants for S(Phi0, Psi) / S(Psi0, Phi) from the closed forms
        F1 = heat_antiderivative(sol.f)
        F1b = complex(F1.eval(z=zb, t=t, c=1.0))
        CP = np.array([[zb ** 2 / 2 - 1j * t, 1j * (np.conj(zb) * np.conj(fb) - np.conj(F1b))],
                       [1j * (zb * fb - F1b), np.conj(zb) ** 2 / 2 + 1j * t]])
        CBP = np.array([[1j * zb, 0], [0, -1j * np.conj(zb)]])
        psit, phit = ctx.transform(psi, phi, constP=CP, constBP=CBP)
        errs[n] = np.max(np.abs(psit.values - psit_exact.on_grid(g, t).values))
    assert errs[48] / errs[96] >= 3.0
    assert errs[96] < 5e-3


def test_time_offset_integral_matches_closed_form():
    # Gamma int omega1 dt, read on the 5x5 patch centred on the grid's centre node to
    # the bit, reproduces the t-dependence of the closed-form
    # S = [[i conj(f), -z], [zbar, -i f]] there: 1.1e-16 (s1), 7.1e-15 and 1.2e-14
    # (s2 at 128^2 and 256^2, |S| about 11.5), bounded at 1e-13
    for name, c, box, n, t0, t1, samples in [
            ("s1", 1.0, (-1.0, 1.0, -1.0, 1.0), 32, 0.0, 0.4, 161),
            ("s2", 12.0, (-2.0, 2.0, -1.7, 2.3), 128, 0.7, 1.2, 81),
            ("s2", 12.0, (-2.0, 2.0, -1.7, 2.3), 256, 0.7, 1.2, 81)]:
        sol = catalog(name, c=c)
        g = make_grid(box, (n, n))
        patch = _centre_patch(g)
        assert patch.node_z(*patch.centre) == g.node_z(*g.centre)
        off = time_offset_integral(partial(heat_datum_fields, sol.f), g,
                                   np.linspace(t0, t1, samples))
        expect = (heat_smatrix_values(sol.f, g, t1).at(*g.centre)
                  - heat_smatrix_values(sol.f, g, t0).at(*g.centre))
        assert np.max(np.abs(off - expect)) < 1e-13, (name, n)


@pytest.mark.parametrize("box", [(-2.0, 2.0, -1.7, 2.3), (-1.5, 1.5, -1.2, 1.8),
                                 (0.3, 2.3, 0.2, 2.2), (-15.0, 15.0, -15.0, 15.0),
                                 (1000.0, 1001.0, -3.3, -0.1)])
def test_centre_patch_centre_node_is_the_grids(box):
    # the patch that time_offset_integral reads omega1 on is centred on the grid's
    # centre node to the bit, with the grid's spacing to rounding, at every size
    # from 16 to 300 nodes and at the suites' sizes
    for n in [*range(16, 301), 511, 512, 513, 769, 1025]:
        for g in (make_grid(box, (n, n + 3)), make_grid(box, (n + 1, n), True)):
            p = _centre_patch(g)
            assert (p.nx, p.ny) == (5, 5)
            assert p.node_z(*p.centre) == g.node_z(*g.centre)
            assert p.xs()[2] + 1j * p.ys()[2] == g.node_z(*g.centre)
            assert abs(p.hx / g.hx - 1) < 1e-9 and abs(p.hy / g.hy - 1) < 1e-9


def test_plane_background_shares_one_quaternion_field():
    g, psi0, ctx = _plane_ctx(32)
    assert ctx.Phi0 is ctx.Psi0
    # the same background given as two distinct objects builds two fields
    phi0 = SpinorField(psi0.psi1.like(psi0.psi1.values.copy()),
                       psi0.psi2.like(psi0.psi2.values.copy()))
    bx, by = g.nx // 2, g.ny // 2
    zb = g.node_z(bx, by)
    C0 = np.array([[0, 1j * np.conj(zb)], [1j * zb, 0]])
    apart = MoutardTransform.from_background(psi0, phi0, C0)
    assert apart.Phi0 is not apart.Psi0
    zero = constant_field(g, 0.0)
    psi = SpinorField(field_from_function(g, lambda z: np.exp(0.3 * z)), zero)
    phi = SpinorField(field_from_function(g, lambda z: np.exp(0.4 * z)), zero)
    ctx.Psi0.values.flags.writeable = False      # any in-place write would raise
    shared, separate = ctx.transform(psi, phi), apart.transform(psi, phi)
    for s_out, a_out in zip(shared, separate):
        assert np.array_equal(s_out.psi1.values, a_out.psi1.values)
        assert np.array_equal(s_out.psi2.values, a_out.psi2.values)
    assert np.array_equal(ctx.kdata.W.values, apart.kdata.W.values)


def test_inverted_surface_spinors_and_surface():
    from spinsurf import integrate_surface_r4, invert_surface, smatrix_to_surface
    sol = catalog("s1", c=1.0)
    ex = moutard_exact(sol.f)
    t = 0.2
    n = 96
    g = make_grid((0.3, 2.3, 0.2, 2.2), (n, n))
    Sm = heat_smatrix_values(sol.f, g, t)
    S_inv = invert_surface(smatrix_to_surface(Sm))
    psis, phis = (q.on_grid(g, t) for q in ex.inverted_surface_spinors())
    S_til = integrate_surface_r4(psis, phis)
    S_til.coords += S_inv.basepoint[:, None, None]
    scale = np.max(np.abs(S_inv.coords))
    # quadrature tolerance: trapezoid error of the rational integrands at this h
    assert np.max(np.abs(S_til.coords - S_inv.coords)) / scale < 5e-4


# ---------------------------------------------------------------------------
# the general-matrix forms, pipeline and exact chain that quaternion storage
# replaced, kept as oracles

_P1 = np.array([[1.0, 0.0], [0.0, 0.0]])
_P2 = np.array([[0.0, 0.0], [0.0, 1.0]])


def _oracle_gamma_omega(Phi, Psi, conj_transpose=False):
    """dz and dzbar parts of Gamma omega(Phi, Psi) as general matrix fields; with
    conj_transpose, those of the candidate that reads Phi^T as Phi's conjugate
    transpose."""
    from spinsurf.dirac import Mat2Field
    g = Phi.grid
    Pt = quat_mat(Phi).transpose()
    if conj_transpose:
        Pt = Mat2Field(g, np.conj(Pt.values), Pt.mask)
    Psi, gm = quat_mat(Psi), Mat2Field.constant(g, GAMMA)
    dz = Pt @ (Mat2Field.constant(g, -1j * _P1) @ Psi)
    dzb = Pt @ (Mat2Field.constant(g, 1j * _P2) @ Psi)
    return gm @ dz, gm @ dzb


def _oracle_omega1(Phi, Psi):
    """omega1(Phi, Psi) as a general matrix field, from all sixteen derivatives."""
    from spinsurf.dirac import Mat2Field
    Phi, Psi = quat_mat(Phi), quat_mat(Psi)
    P1, P2 = Mat2Field.constant(Phi.grid, _P1), Mat2Field.constant(Phi.grid, _P2)
    left = (Phi.wirtinger("z").transpose() @ P1
            + Phi.wirtinger("zbar").transpose() @ P2) @ Psi
    right = Phi.transpose() @ (P1 @ Psi.wirtinger("z") + P2 @ Psi.wirtinger("zbar"))
    return left - right


def _max_path_defect(gdz, gdzb):
    """The largest path defect of the four entries of a matrix 1-form, or
    ClosednessError."""
    return antiderivative(gdz.grid, *_oracle_xy_parts(gdz, gdzb))[1]


def _oracle_build_S(Phi, Psi, constant=None):
    """All four entries of Gamma omega(Phi, Psi) integrated as general matrices."""
    from spinsurf.dirac import Mat2Field
    gx, gy = _oracle_xy_parts(*_oracle_gamma_omega(Phi, Psi))
    C = np.zeros((2, 2), dtype=complex) if constant is None else np.asarray(constant, complex)
    vals = _ref_antiderivative(Phi.grid, gx, gy, Phi.grid.centre, "x_first") + C[:, :, None, None]
    return Mat2Field(Phi.grid, vals), C


def _oracle_moutard(psi0, phi0, C0, psi, phi):
    """from_background, k_matrix and transform on general 2x2 matrix fields."""
    from spinsurf.dirac import Mat2Field
    Psi0, Phi0 = quat_mat(psi0), quat_mat(phi0)
    g = Psi0.grid
    b = (g.nx // 2, g.ny // 2)
    gm = Mat2Field.constant(g, GAMMA)
    S0, C0 = _oracle_build_S(phi0, psi0, C0)
    SB, _ = _oracle_build_S(psi0, phi0)
    target = gm @ S0.transpose() @ gm
    CB = (target - SB).values.mean(axis=(2, 3))
    SB0 = SB + Mat2Field.constant(g, CB)
    K = Psi0 @ S0.inv() @ gm @ Phi0.transpose() @ Mat2Field.constant(g, -GAMMA)
    Psi, Phi = quat_mat(psi), quat_mat(phi)
    constP = C0 @ np.linalg.solve(Psi0.at(*b), Psi.at(*b))
    constBP = CB @ np.linalg.solve(Phi0.at(*b), Phi.at(*b))
    SP, _ = _oracle_build_S(phi0, psi, constP)
    SBP, _ = _oracle_build_S(psi0, phi, constBP)
    Psit = Psi - Psi0 @ S0.inv() @ SP
    Phit = Phi - Phi0 @ SB0.inv() @ SBP
    return {"C": C0, "base_node": b, "S": S0.values,
            "W": 1j * K.values[1, 1], "a": K.values[0, 1],
            "psit": Psit.values[:, 0], "phit": Phit.values[:, 0]}


class _RMat2:
    """2x2 matrix over RationalFn, for the general-matrix exact chain."""

    def __init__(self, entries):
        self.a = [[x if isinstance(x, RationalFn) else RationalFn(x) for x in row]
                  for row in entries]

    def __getitem__(self, ij):
        return self.a[ij[0]][ij[1]]

    def __mul__(self, other):
        if isinstance(other, _RMat2):
            return _RMat2([[self.a[i][0] * other.a[0][j] + self.a[i][1] * other.a[1][j]
                            for j in range(2)] for i in range(2)])
        return _RMat2([[self.a[i][j] * other for j in range(2)] for i in range(2)])

    def __sub__(self, other):
        return _RMat2([[self.a[i][j] - other.a[i][j] for j in range(2)] for i in range(2)])

    def __neg__(self):
        return _RMat2([[-self.a[i][j] for j in range(2)] for i in range(2)])

    def det(self):
        return self.a[0][0] * self.a[1][1] - self.a[0][1] * self.a[1][0]

    def inv(self):
        d = self.det()
        return _RMat2([[self.a[1][1] / d, -self.a[0][1] / d],
                       [-self.a[1][0] / d, self.a[0][0] / d]])

    def transpose(self):
        return _RMat2([[self.a[0][0], self.a[1][0]], [self.a[0][1], self.a[1][1]]])


def _oracle_exact_chain(f):
    """moutard_exact's chain on general 2x2 rational matrices: K = Psi0 S0^-1 Gamma
    Phi0^T Gamma^-1, W = i K11, a = K01, the partner matrix Gamma S0^T Gamma, and
    column 0 of each transformed and inverted spinor."""
    def quat(p1, p2):
        p1, p2 = RationalFn(p1), RationalFn(p2)
        return _RMat2([[p1, -p2.conj()], [p2, p1.conj()]])

    G = _RMat2([[0, 1], [-1, 0]])
    fb, F1 = f.conj(), heat_antiderivative(f)
    S0 = _RMat2([[1j * fb, -Z], [ZBAR, -1j * f]])
    Psi0, Phi0 = quat(BiPoly.zero(), 1), quat(f.wirtinger("z"), 1j * BiPoly.const(1.0))
    K = Psi0 * S0.inv() * G * Phi0.transpose() * G.inv()
    SP = _RMat2([[Z * Z * 0.5 - 1j * T, 1j * (ZBAR * fb - F1.conj())],
                 [1j * (Z * f - F1), ZBAR * ZBAR * 0.5 + 1j * T]])
    Psit = _RMat2([[Z, 0], [0, ZBAR]]) - Psi0 * S0.inv() * SP
    SBP = _RMat2([[1j * Z, 0], [0, -1j * ZBAR]])
    Phit = _RMat2([[1, 0], [0, 1]]) - Phi0 * (G * S0.transpose() * G).inv() * SBP
    Psis = Psi0 * S0.inv()
    Phis = -(Phi0 * S0) * (RationalFn(1) / S0.det())
    return {"K": K, "W": 1j * K[1, 1], "a": K[0, 1],
            **{k: (M[0, 0], M[1, 0]) for k, M in
               (("psit", Psit), ("phit", Phit), ("psis", Psis), ("phis", Phis))}}


def _backgrounds(n=64):
    sol = catalog("s1", c=1.0)
    gs = make_grid((-1.5, 1.5, -1.2, 1.8), (n, n))
    zb = gs.node_z(n // 2, n // 2)
    fb = complex(sol.f.eval(z=zb, t=0.2, c=1.0))
    psi0, phi0 = heat_datum_fields(sol.f, gs, 0.2)
    yield "s1", gs, psi0, phi0, np.array([[1j * np.conj(fb), -zb], [np.conj(zb), -1j * fb]])
    gp = make_grid((0.4, 2.4, 0.3, 2.3), (n, n))
    psi0 = SpinorField(constant_field(gp, 1.0), constant_field(gp, 0.0))
    zb = gp.node_z(n // 2, n // 2)
    yield "plane", gp, psi0, psi0, np.array([[0, 1j * np.conj(zb)], [1j * zb, 0]])


def _rel(x, ref, scale=None):
    return np.max(np.abs(x - ref)) / (np.max(np.abs(ref)) if scale is None else scale)


@pytest.mark.parametrize("name", ["s1", "plane"])
def test_quaternion_pipeline_matches_general_matrix_oracle(name):
    g, psi0, phi0, C0 = next((g, p, f, c) for n, g, p, f, c in _backgrounds() if n == name)
    zero = constant_field(g, 0.0)
    psi = SpinorField(field_from_function(g, lambda z: np.exp(0.4 * z)), zero)
    phi = SpinorField(field_from_function(g, lambda z: np.exp(0.3 * z)), zero)
    ref = _oracle_moutard(psi0, phi0, C0, psi, phi)
    ctx = MoutardTransform.from_background(psi0, phi0, C0)
    psit, phit = ctx.transform(psi, phi)
    assert np.array_equal(quat_mat(_S0(ctx)).values, ref["S"])    # bitwise, up to the sign of 0
    assert np.array_equal(ctx.C0, ref["C"])
    assert g.centre == ref["base_node"]
    k_scale = max(np.max(np.abs(ref["W"])), np.max(np.abs(ref["a"])))
    assert _rel(ctx.kdata.W.values, ref["W"], k_scale) < 1e-13
    assert _rel(ctx.kdata.a.values, ref["a"], k_scale) < 1e-13
    for out, want in ((psit, ref["psit"]), (phit, ref["phit"])):
        assert _rel(np.stack([out.psi1.values, out.psi2.values]), want) < 1e-13


@pytest.mark.parametrize("c", ["symbolic", 0.3 - 2j])
@pytest.mark.parametrize("name", ["s1", "s2"])
def test_exact_chain_matches_general_matrix_oracle(name, c):
    f = catalog(name, c=c).f
    ex, ref = moutard_exact(f), _oracle_exact_chain(f)
    assert ex.W.equals(ref["W"])
    assert ex.a.equals(ref["a"])
    # K is the quaternion [[i conj(W), a], [-conj(a), -i W]] of the general K
    K = ref["K"]
    assert ex.K.a.equals(K[0, 0]) and ex.K.b.equals(K[1, 0])
    assert K[1, 1].equals(ex.K.a.conj()) and K[0, 1].equals(-ex.K.b.conj())
    (psis, phis) = ex.inverted_surface_spinors()
    for got, key in ((ex.tilde_psi_for_linear_datum(), "psit"),
                     (ex.tilde_phi_for_identity_datum(), "phit"),
                     (psis, "psis"), (phis, "phis")):
        assert got.a.equals(ref[key][0]) and got.b.equals(ref[key][1]), key


def test_traced_moutard_benchmark_run():
    # the benchmark's tracer looks up Mat2Field.__matmul__/.inv, build_S, k_matrix
    # and MoutardTransform.from_background/.transform by name
    import json
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "moutard",
                          "--seconds", "1", "--trace", "1"],
                         cwd=root, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout.strip().splitlines()[-1])["correct"] is True
