"""Split-step spectral time integration of the DSII flow and residual checks for
the linear spinor problems psi_t = A psi / phi_t = Avee phi.

Strang splitting on a doubly periodic grid:
  * linear half step: exact Fourier phase exp(i (ky^2 - kx^2) dt / 2) for
    U_t = i (U_zz + U_zbzb) = (i/2)(U_xx - U_yy);
  * nonlinear step: pointwise phase exp(2 i Re V dt) with Re V recomputed
    spectrally from the constraint (frozen over the step).
Both substeps are unitary, so the discrete squared L2 norm is conserved to
rounding by construction.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsii import re_v_into
from .grid import (ComplexField, Grid2D, integrate2d, save_complexfield_csv,
                   wirtinger_derivative)
from .dirac import SpinorField


class BlowupAbort(RuntimeError):
    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


@dataclass
class EvolverState:
    U: ComplexField
    t: float
    n_steps: int = 0


def grid_norm_sq(U: ComplexField) -> float:
    g = U.grid
    if g.periodic and (U.mask is None or not U.mask.any()):    # rectangle rule, no mask
        return g.hx * g.hy * np.vdot(U.values, U.values).real
    return integrate2d(U.abs2()).real


class DsiiEvolver:
    """Strang steps on a fixed grid and dt, with the dt-dependent Fourier phase."""

    def __init__(self, grid: Grid2D, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.grid, self.dt = grid, dt
        sp = grid.spectral
        self.half_phase = np.exp(1j * (sp.ky[:, None] ** 2 - sp.kx**2) * dt / 4.0)

    def _linear_half(self, vals: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(self.half_phase * np.fft.fft2(vals))

    def run(self, state: EvolverState, n_steps: int):
        """Yield the n_steps states after state (BlowupAbort, with the last finite
        state, on a non-finite field); w_hat is the spectrum of U a half step on."""
        g, dt = self.grid, self.dt
        w, theta = np.empty((g.ny, g.nx), dtype=complex), np.empty((g.ny, g.nx))
        n_hat = np.empty((g.ny, g.nx // 2 + 1), dtype=complex)
        w_hat = self.half_phase * np.fft.fft2(state.U.values)
        for _ in range(n_steps):
            # non-finite intermediates are tolerated here; the guard below aborts
            with np.errstate(all="ignore"):
                np.fft.ifftn(w_hat, out=w)                # np.fft.ifft2 ignores out
                re_v_into(w, g.spectral, n_hat, theta)
                theta *= 2 * dt
                np.cos(theta, out=w_hat.real)             # w_hat, free until the fftn
                np.sin(theta, out=w_hat.imag)             # below, holds exp(i theta)
                w *= w_hat
                np.fft.fftn(w, out=w_hat)
                w_hat *= self.half_phase
                vals = np.fft.ifftn(w_hat, out=np.empty_like(w))
            if not np.all(np.isfinite(vals)):
                raise BlowupAbort(f"non-finite field at t={state.t + dt:g}", state)
            state = EvolverState(ComplexField(g, vals), state.t + dt, state.n_steps + 1)
            yield state
            w_hat *= self.half_phase

    # one step of run; perfbench/spans.py traces the evolver by this name
    def step(self, state: EvolverState) -> EvolverState:
        return next(self.run(state, 1))


@dataclass
class Trajectory:
    times: list
    norms: list
    snapshots: list          # (t, ComplexField) pairs when requested
    final: ComplexField      # field at times[-1]
    aborted: bool = False
    abort_reason: str = ""


def evolve(U0: ComplexField, t_end: float, dt: float, t0: float = 0.0,
           snapshot_every: int = 0, callback=None) -> Trajectory:
    """Repeated Strang stepping with norm monitoring."""
    ev = DsiiEvolver(U0.grid, dt)
    state = EvolverState(U0, t0)
    times, norms = [t0], [grid_norm_sq(U0)]
    snaps = [(t0, U0)] if snapshot_every else []
    n_total = int(round((t_end - t0) / dt))
    try:
        for k, state in enumerate(ev.run(state, n_total)):
            times.append(state.t)
            norms.append(grid_norm_sq(state.U))
            if snapshot_every and (k + 1) % snapshot_every == 0:
                snaps.append((state.t, state.U))
            if callback is not None:
                callback(state)
    except BlowupAbort as exc:
        warnings.warn(str(exc))
        return Trajectory(times, norms, snaps, state.U, aborted=True, abort_reason=str(exc))
    if snapshot_every and snaps[-1][0] != state.t:
        snaps.append((state.t, state.U))
    return Trajectory(times, norms, snaps, state.U)


def write_trajectory(traj: Trajectory, outdir) -> dict:
    """Snapshot CSVs plus a manifest JSON (times, norms, filenames)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, (t, fld) in enumerate(traj.snapshots):
        name = f"snapshot_{i:04d}.csv"
        save_complexfield_csv(fld, outdir / name)
        files.append({"t": t, "file": name})
    with open(outdir / "norms.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "norm_sq"])
        wr.writerows([f"{t:.17g}", f"{n:.17g}"] for t, n in zip(traj.times, traj.norms))
    manifest = {"times": traj.times, "norms": traj.norms, "snapshots": files,
                "aborted": traj.aborted, "abort_reason": traj.abort_reason}
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


# ---------------------------------------------------------------------------
# linear-problem residuals


def _apply_A(psi: SpinorField, U: ComplexField, V: ComplexField,
             scheme: str, vee: bool) -> SpinorField:
    """A = i [[-d^2 - V, Ub db - Ub_zb],[U d - U_z, db^2 + Vb]];
    Avee = -i with U <-> Ub swapped in the off-diagonal entries."""
    d = lambda f: wirtinger_derivative(f, "z", scheme)
    db = lambda f: wirtinger_derivative(f, "zbar", scheme)
    p1, p2 = psi.psi1, psi.psi2
    Ub = U.conj()
    Vb = V.conj()
    if not vee:
        r1 = -d(d(p1)) - V * p1 + Ub * db(p2) - db(Ub) * p2
        r2 = U * d(p1) - d(U) * p1 + db(db(p2)) + Vb * p2
        return SpinorField(1j * r1, 1j * r2)
    r1 = -d(d(p1)) - V * p1 + U * db(p2) - db(U) * p2
    r2 = Ub * d(p1) - d(Ub) * p1 + db(db(p2)) + Vb * p2
    return SpinorField(-1j * r1, -1j * r2)


def spinor_evolution_residual(psi_stencil, U: ComplexField, V: ComplexField,
                              dt: float, which: str = "A",
                              scheme: str = "central2", interior: int = 2) -> float:
    """max |psi_t - A psi| (or Avee) on a centred 3-slice stencil."""
    if which not in ("A", "Avee"):
        raise ValueError("which must be 'A' or 'Avee'")
    if len(psi_stencil) != 3:
        raise ValueError("need slices (t-dt, t, t+dt)")
    pm, p0, pp = psi_stencil
    Ap = _apply_A(p0, U, V, scheme, vee=(which == "Avee"))
    r1 = (pp.psi1.values - pm.psi1.values) / (2 * dt) - Ap.psi1.values
    r2 = (pp.psi2.values - pm.psi2.values) / (2 * dt) - Ap.psi2.values
    r = np.maximum(np.abs(r1), np.abs(r2))
    if interior:
        r = r[interior:-interior, interior:-interior]
    return float(np.max(r))
