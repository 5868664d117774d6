"""The row-block streams against their whole-grid oracles, bit for bit.

antiderivative, dirac_residual_norm, omega, the K chain and the transform
sides run one grid.row_blocks block at a time.  The oracles below are
the whole-array forms they replaced: the same operations in the same order on
full-size temporaries.  So the streamed values must equal them to the bit on
every grid shape, periodicity and mask, whatever the block boundaries.
"""
import tracemalloc
import warnings
from functools import partial, reduce

import numpy as np
import pytest

from spinsurf import (ComplexField, SpinorField, catalog, clifford_potential, constant_field,
                      field_from_function, grid_norm_sq, l2_norm_sq, make_grid,
                      save_complexfield_csv, soliton_potential, willmore, wirtinger_derivative)
from spinsurf.dirac import dirac_residual_norm, qconj, qmul
from spinsurf.grid import (_BLOCK, ClosednessError, antiderivative, masked_max_abs, merged_mask,
                           row_blocks)
from spinsurf.moutard import (MoutardTransform, _partner, build_S, heat_datum_fields,
                              heat_datum_spinors, omega)
from test_grid import _ref_antiderivative, _ref_path_defect


def oracle_apply_D(U, psi):
    """D psi = (d psi2 + U psi1, -db psi1 + conj(U) psi2) on the whole grid (Dvee psi
    for conj(U) in place of U), under the merged mask."""
    r1 = wirtinger_derivative(psi.psi2, "z") + U * psi.psi1
    r2 = U.conj() * psi.psi2 - wirtinger_derivative(psi.psi1, "zbar")
    return SpinorField(r1, r2)


def oracle_product(*qs):
    """The quaternion product of SpinorFields, left to right, each a whole-grid array,
    under their merged mask."""
    return SpinorField.from_values(qs[0].grid, reduce(qmul, [q.values for q in qs]),
                                   merged_mask(*qs))


def oracle_residual_norm(U, psi, interior, vee):
    r = oracle_apply_D(U.conj() if vee else U, psi)
    w = slice(interior, -interior or None)
    return masked_max_abs(r.values[:, w, w], None if r.mask is None else r.mask[w, w])


def oracle_omega(Phi, Psi):
    (pa, pb), (sa, sb) = Phi.values, Psi.values
    p = np.stack([1j * np.conj(pb) * sa, 1j * pa * sa])
    q = np.stack([1j * np.conj(pa) * sb, -1j * pb * sb])
    gy = p - q
    gy *= 1j
    p += q
    return p, gy


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_mask(a, b):
    return (a is None and b is None) or (a is not None and b is not None
                                         and np.array_equal(a, b))


# (bounds, (nx, ny), periodicity); every grid but the smallest spans several blocks
_GRIDS = {
    "open": ((-1, 1.5, -0.5, 1), (100, 300), False),            # ny % rows per block != 0
    "periodic": ((0, 2 * np.pi, 0, 2 * np.pi), (96, 200), True),
    "periodic_x": ((-1, 2, 0, 1), (120, 150), (True, False)),
    "periodic_y": ((-1, 2, 0, 1), (90, 190), (False, True)),
    "wide": ((-2, 2, -1, 1), (_BLOCK + 9, 4), False),           # nx > _BLOCK: one row a block
    "wide_periodic": ((-2, 2, -1, 1), (_BLOCK + 9, 5), True),
    "smallest": ((-1, 1, -1, 1), (4, 4), False),
    "smallest_periodic": ((-1, 1, -1, 1), (4, 4), True),
}


def _case(name, mask_kind, seed=0):
    bounds, shape, periodic = _GRIDS[name]
    g = make_grid(bounds, shape, periodic)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(5, 2, g.ny, g.nx)) + 1j * rng.normal(size=(5, 2, g.ny, g.nx))
    mask = None
    if mask_kind != "none":
        mask = rng.random((g.ny, g.nx)) < 0.05
        if mask_kind == "block":             # the second block entirely masked
            blocks = row_blocks(g.nx, g.ny)
            mask[blocks[min(1, len(blocks) - 1)]] = True
    return g, vals, mask


_CASES = [(name, kind) for name in _GRIDS for kind in ("none", "scattered", "block")]


def test_the_cases_cover_the_block_shapes():
    rows = {name: [r.stop - r.start for r in row_blocks(shape[0], shape[1])]
            for name, (_, shape, _) in _GRIDS.items()}
    assert len(set(rows["open"])) == 2 and len(rows["open"]) > 2    # a short last block
    assert rows["wide"] == [1, 1, 1, 1]
    assert rows["smallest"] == [4]


@pytest.mark.parametrize("name,kind", _CASES)
def test_closedness_defect_equals_the_whole_grid_oracle(name, kind):
    # antiderivative's integral and path defect against the two whole-grid L-path
    # integrals, on a nearly closed form whose low bits are random; the rule reads
    # every node, so a NaN at the mask's nodes is refused, as the oracle's defect is NaN
    g, vals, mask = _case(name, kind)
    gx, gy = 1.0 + 1e-6 * vals[0], 0.5j + 1e-6 * vals[1]
    if mask is not None:
        gy[:, mask] = np.nan
        assert np.isnan(_ref_path_defect(g, gx, gy))
        with pytest.raises(ClosednessError, match="defect nan"):
            antiderivative(g, gx, gy)
        return
    for fx, fy in ((gx, gy), (gx[0], gy[0])):
        F, defect = antiderivative(g, fx, fy.copy())
        assert _same_bits(F, _ref_antiderivative(g, fx, fy, g.centre, "x_first"))
        assert _same_bits(defect, _ref_path_defect(g, fx, fy))


@pytest.mark.parametrize("name,kind", _CASES)
def test_dirac_residual_equals_the_whole_grid_oracle(name, kind):
    g, vals, mask = _case(name, kind, seed=1)
    U = ComplexField(g, vals[0, 0], mask)
    psi = SpinorField.from_values(g, vals[1], None)
    for vee in (False, True):
        for interior in (0, 1, 2):
            if 2 * interior >= min(g.nx, g.ny):
                continue                       # no node left to reduce over
            got = dirac_residual_norm(U, psi, interior=interior, vee=vee)
            assert _same_bits(got, oracle_residual_norm(U, psi, interior, vee)), (vee, interior)


@pytest.mark.parametrize("name,kind", _CASES)
def test_omega_equals_the_whole_grid_oracle(name, kind):
    g, vals, mask = _case(name, kind, seed=2)
    Phi = SpinorField.from_values(g, vals[0], mask)
    Psi = SpinorField.from_values(g, vals[1], None)
    X, Y = omega(Phi, Psi)
    gx, gy = oracle_omega(Phi, Psi)
    assert _same_bits(X.values, gx) and _same_bits(Y.values, gy)
    assert _same_mask(X.mask, mask) and _same_mask(Y.mask, mask)


def test_k_chain_and_transform_sides_equal_the_whole_grid_products():
    # the s1 background on a grid of several blocks with a short last one; the
    # oracles are the quaternion products, each a whole-grid array
    sol = catalog("s1", c=1.0)
    g = make_grid((-1.5, 1.5, -1.2, 1.8), (100, 300))
    psi0, phi0 = heat_datum_fields(sol.f, g, 0.2)
    bx, by = g.nx // 2, g.ny // 2
    zb = g.node_z(bx, by)
    fb = complex(sol.f.eval(z=zb, t=0.2, c=1.0))
    ctx = MoutardTransform.from_background(
        psi0, phi0, np.array([[1j * np.conj(fb), -zb], [np.conj(zb), -1j * fb]]))
    phi0_conj = SpinorField.from_values(g, qconj(phi0.values), phi0.mask)
    K = oracle_product(psi0, ctx.S0_inv, phi0_conj)
    assert _same_bits(ctx.kdata.W.values, 1j * np.conj(K.values[0]))
    assert _same_bits(ctx.kdata.a.values, -np.conj(K.values[1]))
    assert _same_mask(ctx.kdata.W.mask, K.mask) and _same_mask(ctx.kdata.a.mask, K.mask)

    zero = constant_field(g, 0.0)
    mask = np.zeros((g.ny, g.nx), dtype=bool)
    mask[row_blocks(g.nx, g.ny)[1]] = mask[5, 7] = True
    psi = SpinorField(field_from_function(g, lambda z: np.exp(0.3 * z)), zero)
    phi = SpinorField(field_from_function(g, lambda z: np.exp(0.4 * z)), zero)
    psi.mask = mask
    SB0_inv = SpinorField.from_values(g, _partner(ctx.S0_inv.values), ctx.S0_inv.mask)
    sides = ((phi0, psi0, ctx.C0, ctx.S0_inv, psi),
             (psi0, phi0, -ctx.C0.conj().T, SB0_inv, phi))
    for got, (A0, B0, C, S_inv, X) in zip(ctx.transform(psi, phi), sides):
        const = C @ np.linalg.solve(B0.at(bx, by), X.at(bx, by))
        prod = oracle_product(B0, S_inv, build_S(A0, X, constant=const))
        assert _same_bits(got.values, X.values - prod.values)
        assert _same_mask(got.mask, merged_mask(X, prod))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_reductions_allocate_no_full_size_temporary():
    # numpy reports its buffers to tracemalloc; the whole-grid forms allocate
    # (2, ny, nx) temporaries, 2 MiB at 256^2
    g = make_grid((-1, 1, -1, 1), (256, 256))
    rng = np.random.default_rng(4)
    gx, gy, p = (rng.normal(size=(2, 256, 256)) + 1j * rng.normal(size=(2, 256, 256))
                 for _ in range(3))
    mask = rng.random((256, 256)) < 0.01
    U = ComplexField(g, gx[0], mask)
    psi = SpinorField.from_values(g, p, None)
    fx, fy = 1.0 + 1e-6 * gx, 0.5j + 1e-6 * gy               # nearly closed
    limit = g.ny * g.nx * np.dtype(complex).itemsize         # one (ny, nx) complex array
    for fn in (lambda: antiderivative(g, fx, fy),
               lambda: dirac_residual_norm(U, psi, interior=1),
               lambda: dirac_residual_norm(U, psi, vee=True)):
        assert _peak_bytes(fn) < limit


def test_node_csv_writer_holds_one_row_at_a_time(tmp_path):
    # at 257^2, whole-grid ix and iy arrays take 1 MiB and a copy of the real
    # parts 0.5 MiB; the writer holds a block of whole rows, three here, and
    # its text and work arrays, about 200 KiB
    g = make_grid((-3, 3, -3, 3), (257, 257))
    rng = np.random.default_rng(5)
    U = ComplexField(g, rng.normal(size=(257, 257)) + 1j * rng.normal(size=(257, 257)))
    assert _peak_bytes(lambda: save_complexfield_csv(U, tmp_path / "U.csv")) < 2**18



# The Moutard round at 256^2, where one (2, ny, nx) complex array is 2 MiB
_ARRAY = 2 * 256 * 256 * np.dtype(complex).itemsize


def _s1_background_256():
    sol = catalog("s1", c=1.0)
    g = make_grid((-1.5, 1.5, -1.2, 1.8), (256, 256))
    zb = g.node_z(g.nx // 2, g.ny // 2)
    fb = complex(sol.f.eval(z=zb, t=0.2, c=1.0))
    C0 = np.array([[1j * np.conj(fb), -zb], [np.conj(zb), -1j * fb]])
    return sol, g, heat_datum_fields(sol.f, g, 0.2), C0


def test_heat_datum_fields_sample_into_the_output():
    # RQuat.on_grid samples both entries of each spinor into one array
    sol, g, _, _ = _s1_background_256()
    assert _peak_bytes(lambda: heat_datum_fields(sol.f, g, 0.2)) < 2.5 * _ARRAY


def test_from_background_keeps_S0_inv_and_K_only():
    # build_S integrates over omega's y part and S0 is inverted in place; the
    # context keeps S0^-1 and K's (W, a), not S0 or the partner's inverse
    _, _, (psi0, phi0), C0 = _s1_background_256()
    tracemalloc.start()
    try:
        ctx = MoutardTransform.from_background(psi0, phi0, C0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.S0_inv.values.nbytes == _ARRAY
    assert kept < 2.25 * _ARRAY
    assert peak < 3 * _ARRAY


def test_transform_writes_each_side_over_its_S(monkeypatch):
    # each transformed spinor is written over its S(A0, X), and the partner's
    # inverse is formed one row block at a time
    import spinsurf.moutard as mo
    _, g, (psi0, phi0), C0 = _s1_background_256()
    ctx = MoutardTransform.from_background(psi0, phi0, C0)
    zero = constant_field(g, 0.0)
    psi = SpinorField(field_from_function(g, lambda z: np.exp(0.3 * z)), zero)
    phi = SpinorField(field_from_function(g, lambda z: np.exp(0.4 * z)), zero)
    assert _peak_bytes(lambda: ctx.transform(psi, phi)) < 4 * _ARRAY
    built = []

    def build_S(*a, _build=mo.build_S, **k):
        built.append(_build(*a, **k))
        return built[-1]

    monkeypatch.setattr(mo, "build_S", build_S)
    outs = ctx.transform(psi, phi)
    assert len(built) == 2 and all(out.values is S.values for out, S in zip(outs, built))


# The block rule itself: a value does not depend on how the rows are split.  Each
# case runs under three grid._BLOCK values: one row a block, seven rows (an odd
# count) and the whole grid in one block, against the default.
_BLOCK_CASES = {
    # BLAS dgemv row sums rounded this norm by the rows a call got
    "open": ("s2", 11 + 2j, 0.2, (-10, 10, -10, 10), (1025, 1025), False),
    "periodic": ("s1", 1.0, 0.1, (-30, 30, -30, 30), (256, 256), True),
    "masked": ("s1", 1j, -0.5, (-3, 3, -3, 3), (257, 125), False),
    # 16 mirrored nodes with a zero part, re-sampled 5, 5, 5 and 1 at a time at one
    # row a block: a one-node chunk
    "one-node-chunk": ("s1", -1.0, 0.0, (-3, 3, -3, 3), (5, 33), False),
}


def _block_outputs(sol, g, t):
    U, V = sol.U_field(g, t), sol.V_field(g, t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)         # the truncation warning
        W = willmore(U)
    nr = l2_norm_sq(U, require_decay=False)
    # the exact layer's samplers: RationalFn.on_grid on U's expanded form and on a,
    # RQuat.on_grid on the graph's spinors psi0 = (0, 1) and phi0 = (f', i),
    # BiPoly.eval on 1, 2 and many points, the streamed Dirac residual of phi0
    # against U, and antiderivative's S0 = Gamma int omega(phi0, psi0) and its defect
    Ur, ar = (f.on_grid(g, t, sol.c) for f in (sol.U, sol.a))
    psi, phi = (q.on_grid(g, t, sol.c) for q in heat_datum_spinors(sol.f))
    S0, defect = antiderivative(g, *(f.values for f in omega(phi, psi)))
    z = g.zmesh()[g.ny // 3]
    out = {"U": U.values.tobytes(), "V": V.values.tobytes(), "willmore": W,
           "value": nr.value, "raw": nr.raw, "tail_bound": nr.tail_bound,
           "masks": [None if f.mask is None else f.mask.tobytes() for f in (U, V, Ur, ar, phi)],
           "on_grid": [f.values.tobytes() for f in (Ur, ar, phi)],
           "eval": [np.asarray(sol.f.eval(z=p, t=t, c=sol.c)).tobytes()
                    for p in (z[0], z[:2], z)],
           "dirac": [dirac_residual_norm(U, phi, interior, vee)
                     for interior, vee in ((0, False), (2, True))],
           "S0": S0.tobytes(), "path_defect": defect}
    if g.periodic:
        out["grid_norm_sq"] = grid_norm_sq(U)
    return out


# the 1-D potentials' W: willmore on their 4-row strips, open and periodic in x
_STRIPS = {"soliton-2-strip": lambda: soliton_potential(2), "clifford-strip": clifford_potential}


@pytest.mark.parametrize("case", list(_BLOCK_CASES) + list(_STRIPS))
def test_values_do_not_depend_on_the_blocks(case, monkeypatch):
    if case in _STRIPS:
        U = _STRIPS[case]().strip()
        g, outputs = U.grid, partial(willmore, U)
    else:
        name, c, t, bounds, n, periodic = _BLOCK_CASES[case]
        g, sol = make_grid(bounds, n, periodic), catalog(name, c=c)
        outputs = partial(_block_outputs, sol, g, t)
    want = outputs()
    if case in _BLOCK_CASES:
        # one |U|^2 quadrature: willmore and, on a doubly periodic unmasked grid, the
        # evolver's norm are l2_norm_sq's raw integral to the bit
        assert want["willmore"] == 4 * want["raw"]
        assert want.get("grid_norm_sq", want["raw"]) == want["raw"]
        assert (want["masks"][0] is not None) == (case == "masked")
    if case == "one-node-chunk":             # 16 = 3 nx + 1 mirrored nodes with a zero part
        for f in (sol.U_field(g, t), sol.V_field(g, t)):
            parts = f.values[:g.ny // 2].view(np.float64).reshape(g.ny // 2, g.nx, 2)
            assert np.count_nonzero((parts == 0).any(-1)) == 3 * g.nx + 1
    for block in (g.nx, 7 * g.nx, g.nx * g.ny):
        monkeypatch.setattr("spinsurf.grid._BLOCK", block)
        assert outputs() == want, block
