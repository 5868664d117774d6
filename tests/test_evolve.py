import csv
import functools
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinsurf import (ComplexField, SpinorField, catalog, constant_field,
                      evolve, field_from_function, grid_norm_sq, make_grid,
                      square_grid, wirtinger_derivative, write_trajectory)
from spinsurf.dsii import re_v_into
from spinsurf.evolve import (BlowupAbort, DsiiEvolver, EvolverState, Trajectory, run_summary,
                             step_count)
from spinsurf.grid import MaskError, SchemeError
from spinsurf.moutard import moutard_exact


def test_zero_stays_zero():
    g = square_grid(5.0, 64, periodic=True)
    U0 = constant_field(g, 0.0)
    traj = evolve(U0, 0.05, 1e-3, snapshot_every=10)
    assert all(n == 0 for n in traj.norms)
    assert traj.snapshots[-1][1].max_abs() == 0.0


def test_negative_snapshot_count_is_refused():
    g = square_grid(5.0, 16, periodic=True)
    with pytest.raises(ValueError, match="snapshot_every must be >= 0, got -1"):
        evolve(constant_field(g, 0.0), 0.01, 1e-3, snapshot_every=-1)


def test_linear_dispersion_phase():
    # forced V = 0 (constant |U|): plane wave picks up exp(-i (k^2 - l^2) t / 2)
    g = make_grid((0, 2 * np.pi, 0, 2 * np.pi), (64, 64), True)
    k, l = 3.0, 1.0
    U0 = field_from_function(g, lambda z: np.exp(1j * (k * z.real + l * z.imag)))
    n_steps, dt = 50, 1e-3
    traj = evolve(U0, n_steps * dt, dt, snapshot_every=10**9)
    T = traj.times[-1]
    expect = U0.values * np.exp(-1j * (k**2 - l**2) * T / 2)
    got = traj.snapshots[-1][1].values
    # |U| constant => Re V = 0 identically => the run is exactly linear
    assert np.max(np.abs(np.abs(got) - 1.0)) < 1e-12
    assert np.max(np.abs(got - expect)) < 1e-10


def test_linear_substep_norm_conserved():
    g = square_grid(10.0, 128, periodic=True)
    rng = np.random.default_rng(0)
    U = ComplexField(g, rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128)))
    ev = DsiiEvolver(g, 1e-3)
    assert np.max(np.abs(np.abs(ev.half_phase) - 1.0)) < 1e-15
    before = grid_norm_sq(U)
    # the linear half step as run forms it: spectrum times half_phase, in that order
    after = grid_norm_sq(ComplexField(g, np.fft.ifftn(np.fft.fftn(U.values) * ev.half_phase)))
    assert after == pytest.approx(before, rel=1e-13)


def test_s1_short_run_accuracy():
    sol = catalog("s1", c=1.0)
    g = square_grid(30.0, 256, periodic=True)
    U0 = sol.U_field(g, 0.0)
    traj = evolve(U0, 0.02, 1e-4, snapshot_every=10**9)
    Uex = sol.U_field(g, traj.times[-1])
    err = np.sqrt(grid_norm_sq(ComplexField(g, traj.snapshots[-1][1].values - Uex.values)))
    rel = err / np.sqrt(grid_norm_sq(Uex))
    assert rel < 5e-3
    drift = abs(traj.norms[-1] - traj.norms[0]) / traj.norms[0]
    assert drift < 1e-10


def test_dt_halving_second_order():
    # self-convergence against a fine-dt reference run isolates the splitting
    # error from the (shared) spatial truncation
    sol = catalog("s1", c=1.0)
    g = square_grid(30.0, 128, periodic=True)
    U0 = sol.U_field(g, 0.0)
    final = {}
    for dt in (8e-4, 4e-4, 1e-4):
        traj = evolve(U0, 0.04, dt, snapshot_every=10**9)
        final[dt] = traj.snapshots[-1][1].values
    e1 = np.sqrt(grid_norm_sq(ComplexField(g, final[8e-4] - final[1e-4])))
    e2 = np.sqrt(grid_norm_sq(ComplexField(g, final[4e-4] - final[1e-4])))
    assert e1 / e2 >= 3.5


def test_evolving_matches_exact_within_order():
    # evolving then evaluating equals evaluating the exact solution at t_end
    sol = catalog("s1", c=1.0)
    g = square_grid(30.0, 256, periodic=True)
    U0 = sol.U_field(g, 0.0)
    traj = evolve(U0, 0.04, 2e-4, snapshot_every=10**9)
    ref = sol.U_field(g, traj.times[-1])
    rel = np.sqrt(grid_norm_sq(ComplexField(g, traj.snapshots[-1][1].values - ref.values))
                  / grid_norm_sq(ref))
    assert rel < 1e-2


def test_evolver_rejects_nonperiodic():
    g = square_grid(5.0, 32)
    with pytest.raises(SchemeError):
        DsiiEvolver(g, 1e-3)


def test_blowup_abort():
    g = square_grid(5.0, 32, periodic=True)
    U0 = constant_field(g, 1e300)       # overflow in the nonlinear phase
    state = EvolverState(np.fft.fftn(U0.values), 0.0, g)
    ev = DsiiEvolver(g, 1e-3)
    with pytest.raises(BlowupAbort):
        for _ in range(5):
            state = ev.step(state)


@pytest.mark.parametrize("poison", ["overflow", "nan-node"])
def test_evolve_aborts_on_blowup(poison):
    g = square_grid(5.0, 32, periodic=True)
    if poison == "overflow":
        U0 = constant_field(g, 1e300)       # overflow in the nonlinear phase
    else:
        vals = field_from_function(g, lambda z: np.exp(-np.abs(z) ** 2)).values.copy()
        vals[7, 11] = np.nan
        U0 = ComplexField(g, vals)
    with pytest.warns(UserWarning, match="non-finite"):
        traj = evolve(U0, 5e-3, 1e-3)
    assert traj.aborted
    assert traj.abort_reason == "non-finite field at t=0.001"
    assert traj.times == [0.0]
    assert np.array_equal(traj.final.values, U0.values, equal_nan=True)


def test_evolver_state_is_its_spectrum():
    assert list(inspect.signature(EvolverState).parameters) == ["U_hat", "t", "grid"]


def test_grid_norm_sq_refuses_an_open_grid_and_a_masked_field():
    # the rectangle rule of an evolver field: no trapezoid, no patch
    U = field_from_function(square_grid(5.0, 16), lambda z: np.exp(-np.abs(z) ** 2))
    with pytest.raises(SchemeError, match="doubly periodic"):
        grid_norm_sq(U)
    g = square_grid(5.0, 16, periodic=True)
    mask = np.zeros((16, 16), dtype=bool)
    mask[3, 4] = True
    with pytest.raises(MaskError):
        grid_norm_sq(ComplexField(g, np.ones((16, 16)), mask))


def test_run_summary_is_the_evolve_commands_summary(tmp_path):
    from spinsurf.cli import main
    assert main(["evolve", "--from", "s1", "--c", "1", "--grid", "32x32", "--box=-10:10:-10:10",
                 "--t-end", "0.01", "--dt", "1e-3", "--out", str(tmp_path)]) == 0
    sol = catalog("s1", c=1.0)
    g = make_grid((-10.0, 10.0, -10.0, 10.0), (32, 32), True)
    summary = run_summary(evolve(sol.U_field(g, 0.0), 0.01, 1e-3), sol)
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written == summary and list(written) == list(summary)
    assert list(summary) == ["steps", "norm_drift_rel", "aborted", "rel_l2_error_vs_exact"]


def test_an_aborted_runs_summary_has_no_exact_keys():
    g = square_grid(5.0, 32, periodic=True)
    with pytest.warns(UserWarning, match="non-finite"):
        traj = evolve(constant_field(g, 1e300), 5e-3, 1e-3)
    summary = run_summary(traj, catalog("s1", c=1.0))
    assert list(summary) == ["steps", "norm_drift_rel", "aborted"]     # the drift: inf / inf
    assert summary["steps"] == 0 and summary["aborted"] is True


def test_evolve_rejects_masked_datum():
    g = square_grid(5.0, 32, periodic=True)
    U0 = field_from_function(g, lambda z: np.exp(-np.abs(z) ** 2))
    mask = np.zeros(U0.values.shape, dtype=bool)
    mask[3, 4] = True
    with pytest.raises(MaskError):
        evolve(ComplexField(g, U0.values, mask), 5e-3, 1e-3)


def test_write_trajectory(tmp_path):
    g = square_grid(5.0, 32, periodic=True)
    U0 = field_from_function(g, lambda z: np.exp(-np.abs(z) ** 2))
    traj = evolve(U0, 0.01, 1e-3, snapshot_every=5)
    manifest = write_trajectory(traj, tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "norms.csv").exists()
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert len(data["times"]) == 11
    for snap in data["snapshots"]:
        assert (tmp_path / snap["file"]).exists()


def test_norms_csv_is_what_csv_writer_prints(tmp_path):
    # the python csv module's text: "\r\n" line ends, fields as "%.17g" prints them
    times = [0.0, 1e-3, 0.1 + 0.2, -2.5e-308, 1e17, np.float64(7.0)]
    norms = [6.283185307179586, 0.0, -0.0, np.inf, np.nan, np.float64(1 / 3)]
    write_trajectory(Trajectory(times, norms, [], None), tmp_path)
    with open(tmp_path / "oracle.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "norm_sq"])
        wr.writerows([f"{t:.17g}", f"{n:.17g}"] for t, n in zip(times, norms))
    assert (tmp_path / "norms.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("t0, t_end, dt", [(0.0, 0.1, 0.03), (0.0, 0.1, 0.3),
                                           (0.0, -0.1, 1e-2), (0.0, 0.0, 1e-3),
                                           (0.2, 0.1, 1e-2), (0.0, 0.1, 1e-4 * (1 + 1e-8)),
                                           (0.0, 0.1, 0.0), (0.0, -0.1, -1e-2)])
def test_evolve_refuses_a_span_of_no_whole_number_of_steps(t0, t_end, dt):
    # 3.33 steps, 0.33 steps, backwards, none, backwards from t0, 1e-8 short of 1000,
    # dt = 0, and 10 whole steps of a negative dt
    g = square_grid(5.0, 16, periodic=True)
    with pytest.raises(ValueError, match=r"t0=.* t_end=.* dt="):
        evolve(constant_field(g, 0.0), t_end, dt, t0=t0)


@pytest.mark.parametrize("t0, t_end, dt, n", [(0.0, 1e-3, 1e-300, "1e+297"),
                                              (0.0, 0.5, 1e-9, "500000000"),
                                              (1.0, 2.0, 1e-9, "1000000000")])
def test_step_count_refuses_a_count_no_whole_number_test_can_reject(t0, t_end, dt, n):
    # from 1e-9 n >= 0.5 on, every span passes as within 1e-9 n of a whole number;
    # just below, the count is still run
    why = rf"t0={t0:g} to t_end={t_end:g} .* dt={dt:g}: n={re.escape(n)} "
    with pytest.raises(ValueError, match=why):
        step_count(t0, t_end, dt)
    assert step_count(0.0, 0.5, 2e-9) == 250_000_000


@pytest.mark.parametrize("t0, t_end, dt, n", [(0.0, 0.3, 1e-3, 300), (0.0, 0.1, 1e-4, 1000),
                                              (-0.7, -0.3, 4e-3, 100), (0.0, 0.02, 0.02, 1),
                                              (0.0, 0.5, 1e-2, 50)])
def test_evolve_runs_the_whole_steps_asked_for(t0, t_end, dt, n):
    # (t_end - t0) / dt is off a whole number by rounding only: 299.99999999999994 etc.
    # The k-th time is t0 + k dt, not a running sum (which ends 50 steps of 1e-2 at
    # 0.5000000000000002, where s1 with c = -i is no longer exactly singular)
    g = square_grid(5.0, 16, periodic=True)
    traj = evolve(constant_field(g, 0.0), t_end, dt, t0=t0)
    assert len(traj.times) == n + 1
    assert traj.times == [t0 + k * dt for k in range(n + 1)]
    assert traj.times[-1] == pytest.approx(t_end, abs=1e-12)


# the linear problems psi_t = A psi, phi_t = Avee phi of the DSII flow, on a centred
# time stencil: a measuring tool for the closed-form Moutard spinors


def spectral_wirtinger(f: ComplexField, direction: str) -> ComplexField:
    """d f / dz or d f / dzbar from the grid's Fourier symbols (periodic grids)."""
    sp = f.grid.spectral          # d/dx, d/dy have the symbols i kx, i ky
    ky = sp.ky[:, None]
    sym = (sp.ikx + ky) / 2 if direction == "z" else (sp.ikx - ky) / 2
    return f.like(np.fft.ifft2(sym * np.fft.fft2(f.values)))


def _apply_A(psi: SpinorField, U: ComplexField, V: ComplexField,
             wirtinger, vee: bool) -> SpinorField:
    """A = i [[-d^2 - V, Ub db - Ub_zb],[U d - U_z, db^2 + Vb]];
    Avee = -i with U <-> Ub swapped in the off-diagonal entries; the derivatives
    are wirtinger(f, direction)."""
    d = lambda f: wirtinger(f, "z")
    db = lambda f: wirtinger(f, "zbar")
    p1, p2 = psi.psi1, psi.psi2
    Ub = U.conj()
    Vb = V.conj()
    if not vee:
        r1 = Ub * db(p2) - db(Ub) * p2 - d(d(p1)) - V * p1
        r2 = U * d(p1) - d(U) * p1 + db(db(p2)) + Vb * p2
        return SpinorField(1j * r1, 1j * r2)
    r1 = U * db(p2) - db(U) * p2 - d(d(p1)) - V * p1
    r2 = Ub * d(p1) - d(Ub) * p1 + db(db(p2)) + Vb * p2
    return SpinorField(-1j * r1, -1j * r2)


def spinor_evolution_residual(psi_stencil, U: ComplexField, V: ComplexField,
                              dt: float, which: str = "A",
                              wirtinger=wirtinger_derivative, interior: int = 2) -> float:
    """max |psi_t - A psi| (or Avee) on a centred 3-slice stencil."""
    pm, p0, pp = psi_stencil
    Ap = _apply_A(p0, U, V, wirtinger, vee=(which == "Avee"))
    r = np.abs((pp.values - pm.values) / (2 * dt) - Ap.values).max(axis=0)
    if interior:
        r = r[interior:-interior, interior:-interior]
    return float(np.max(r))


def test_spinor_evolution_constant_zero_potential():
    g = square_grid(2.0, 48)
    one = constant_field(g, 1.0)
    psi = SpinorField(one, one)
    zero = constant_field(g, 0.0)
    r = spinor_evolution_residual([psi, psi, psi], zero, zero, 1e-3)
    assert r < 1e-13


def test_spinor_evolution_dispersion_oracle():
    # U = V = 0, psi1 = e^{ikx}: A reduces to -i d^2 and the phase is e^{i k^2 t/4}
    g = make_grid((0, 2 * np.pi, 0, 2 * np.pi), (64, 64), True)
    k = 2.0
    base = field_from_function(g, lambda z: np.exp(1j * k * z.real))
    zero = constant_field(g, 0.0)
    dt = 1e-4

    def at(t):
        return SpinorField(base.like(base.values * np.exp(1j * k * k * t / 4)), zero)

    r = spinor_evolution_residual([at(-dt), at(0.0), at(dt)], zero, zero, dt,
                                  wirtinger=spectral_wirtinger, interior=0)
    assert r < 1e-7


@pytest.mark.parametrize("which", ["A", "Avee"])
def test_spinor_evolution_moutard_family(which):
    # closed-form Moutard-transformed spinors satisfy the linear problems of
    # the transformed potentials; residual decreases at O(h^2)
    sol = catalog("s1", c=1.0)
    ex = moutard_exact(sol.f)
    spinor = ex.tilde_psi_for_linear_datum() if which == "A" \
        else ex.tilde_phi_for_identity_datum()
    res = {}
    for n in (96, 192):
        g = make_grid((-1.5, 1.5, -1.2, 1.8), (n, n))
        dt = 1e-5
        stencil = [spinor.on_grid(g, t) for t in (0.2 - dt, 0.2, 0.2 + dt)]
        U = sol.U_field(g, 0.2)
        V = sol.V_field(g, 0.2)
        res[n] = spinor_evolution_residual(stencil, U, V, dt, which=which)
    assert res[96] / res[192] >= 3.3


def _unfused_strang(U0, dt, n_steps):
    """Textbook Strang splitting: half linear, nonlinear, half linear, each step."""
    g = U0.grid
    kx = 2 * np.pi * np.fft.fftfreq(g.nx, d=g.hx)[None, :]
    ky = 2 * np.pi * np.fft.fftfreq(g.ny, d=g.hy)[:, None]
    half = np.exp(1j * (ky**2 - kx**2) * dt / 4.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = 2.0 * (kx**2 - ky**2) / (kx**2 + ky**2)
    mult[0, 0] = 0.0
    u = U0.values
    norms = [g.hx * g.hy * np.sum(np.abs(u) ** 2)]
    for _ in range(n_steps):
        u = np.fft.ifft2(half * np.fft.fft2(u))
        rev = np.fft.ifft2(mult * np.fft.fft2(np.abs(u) ** 2)).real
        u = np.exp(2j * dt * rev) * u
        u = np.fft.ifft2(half * np.fft.fft2(u))
        norms.append(g.hx * g.hy * np.sum(np.abs(u) ** 2))
    return u, np.array(norms)


def test_evolve_matches_unfused_strang_reference():
    g = square_grid(30.0, 128, periodic=True)
    U0 = catalog("s1", c=1.0).U_field(g, 0.0)
    dt, n_steps = 1e-4, 50
    traj = evolve(U0, n_steps * dt, dt)
    ref, ref_norms = _unfused_strang(U0, dt, n_steps)
    assert np.max(np.abs(traj.final.values - ref)) / np.max(np.abs(ref)) <= 1e-12
    assert np.max(np.abs(np.array(traj.norms) - ref_norms)) / ref_norms.max() <= 1e-12


def test_repeated_step_matches_evolve():
    g = square_grid(30.0, 64, periodic=True)
    U0 = catalog("s1", c=1.0).U_field(g, 0.0)
    dt, n_steps = 2e-4, 20
    ev = DsiiEvolver(g, dt)
    state = EvolverState(np.fft.fftn(U0.values), 0.0, g)
    for _ in range(n_steps):
        state = ev.step(state)
    final = evolve(U0, n_steps * dt, dt).final.values
    assert np.max(np.abs(state.U.values - final)) / np.max(np.abs(final)) <= 1e-12


def test_callback_states_do_not_share_arrays():
    g = square_grid(30.0, 64, periodic=True)
    U0 = catalog("s1", c=1.0).U_field(g, 0.0)
    seen = []
    traj = evolve(U0, 5e-3, 1e-3, callback=lambda s: seen.append((s.U, s.U.values.copy())))
    assert len(seen) == 5
    arrays = [U0.values] + [U.values for U, _ in seen]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    # no later step wrote into a state handed out earlier
    for U, copy in seen:
        assert np.array_equal(U.values, copy)
    assert traj.final is seen[-1][0]


def _evolve_forming_U_every_step(U0, dt, n_steps):
    """The earlier DsiiEvolver.run loop, which formed U by an inverse FFT after
    every step: the fields U0, U1, ..., U_n_steps."""
    g = U0.grid
    sp = g.spectral
    half_phase = np.exp(1j * (sp.ky[:, None] ** 2 - sp.kx**2) * dt / 4.0)
    w, theta = np.empty((g.ny, g.nx), dtype=complex), np.empty((g.ny, g.nx))
    n_hat = np.empty((g.ny, g.nx // 2 + 1), dtype=complex)
    w_hat = half_phase * np.fft.fft2(U0.values)
    fields = [U0.values]
    for _ in range(n_steps):
        np.fft.ifftn(w_hat, out=w)
        re_v_into(w, sp, n_hat, theta)
        theta *= 2 * dt
        np.cos(theta, out=w_hat.real)
        np.sin(theta, out=w_hat.imag)
        w *= w_hat
        np.fft.fftn(w, out=w_hat)
        w_hat *= half_phase
        fields.append(np.fft.ifftn(w_hat, out=np.empty_like(w)))
        w_hat *= half_phase
    return fields


def test_evolve_is_bitwise_the_loop_forming_U_every_step():
    g = square_grid(30.0, 128, periodic=True)
    U0 = catalog("s1", c=1.0).U_field(g, 0.0)
    dt, n_steps = 1e-4, 50
    traj = evolve(U0, n_steps * dt, dt, snapshot_every=10)
    ref = _evolve_forming_U_every_step(U0, dt, n_steps)
    assert [t for t, _ in traj.snapshots] == traj.times[::10]
    for (_, U), u in zip(traj.snapshots, ref[::10], strict=True):
        assert np.array_equal(U.values, u)
    assert np.array_equal(traj.final.values, ref[-1])
    # norms by Parseval from the spectrum, against the rectangle rule on the field
    for n, u in zip(traj.norms, ref, strict=True):
        assert n == pytest.approx(grid_norm_sq(ComplexField(g, u)), rel=1e-13, abs=0)


def test_norms_match_the_plain_sum_of_abs2():
    # the BLAS-free sums against numpy's own, on a contiguous field and on a
    # transposed (non-contiguous) one; their order of summation differs
    g = square_grid(5.0, 64, periodic=True)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    for vals in (u, u.T):
        ref = g.hx * g.hy * np.sum(np.abs(vals) ** 2)
        assert grid_norm_sq(ComplexField(g, vals)) == pytest.approx(ref, rel=1e-13, abs=0)
        assert EvolverState(np.fft.fftn(vals), 0.0, g).norm_sq == pytest.approx(
            ref, rel=1e-13, abs=0)


def test_state_forms_U_once_and_only_when_read(monkeypatch):
    g = square_grid(30.0, 64, periodic=True)
    U0 = catalog("s1", c=1.0).U_field(g, 0.0)
    dt, n_steps = 2e-4, 20
    state = DsiiEvolver(g, dt).step(EvolverState(np.fft.fftn(U0.values), 0.0, g))
    first = state.U
    assert state.U is first
    assert np.array_equal(first.values, np.fft.ifftn(state.U_hat))
    # count the fields formed by a run that reads no snapshot and has no callback
    formed = []
    form = EvolverState.U.func

    def counted(self):
        formed.append(self.t)
        return form(self)

    lazy = functools.cached_property(counted)
    lazy.__set_name__(EvolverState, "U")
    monkeypatch.setattr(EvolverState, "U", lazy)
    traj = evolve(U0, n_steps * dt, dt)
    assert formed == [traj.times[-1]]
    assert len(traj.times) == n_steps + 1


def test_traced_evolve_benchmark_run():
    # the benchmark's tracer looks up DsiiEvolver.step, grid_norm_sq and
    # write_trajectory by name, and the workload checks the evolver's output
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "evolve",
                          "--seconds", "1", "--trace", "1"],
                         cwd=root, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout.strip().splitlines()[-1])["correct"] is True
