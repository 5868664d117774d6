import json

import numpy as np
import pytest

from spinsurf import (ComplexField, SpinorField, catalog, constant_field,
                      evolve, field_from_function, grid_norm_sq, make_grid,
                      spinor_evolution_residual, square_grid, write_trajectory)
from spinsurf.evolve import BlowupAbort, DsiiEvolver, EvolverState
from spinsurf.grid import SchemeError
from spinsurf.moutard import moutard_exact


def test_zero_stays_zero():
    g = square_grid(5.0, 64, periodic=True)
    U0 = constant_field(g, 0.0)
    traj = evolve(U0, 0.05, 1e-3, snapshot_every=10)
    assert all(n == 0 for n in traj.norms)
    assert traj.snapshots[-1][1].max_abs() == 0.0


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
    before = grid_norm_sq(U)
    after = grid_norm_sq(ComplexField(g, ev._linear_half(U.values)))
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
    state = EvolverState(U0, 0.0)
    ev = DsiiEvolver(g, 1e-3)
    with pytest.raises(BlowupAbort):
        for _ in range(5):
            state = ev.step(state)


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
                                  scheme="spectral", interior=0)
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
    state = EvolverState(U0, 0.0)
    for _ in range(n_steps):
        state = ev.step(state)
    final = evolve(U0, n_steps * dt, dt).final.values
    assert state.n_steps == n_steps
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
