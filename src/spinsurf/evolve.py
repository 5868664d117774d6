"""Split-step spectral time integration of the DSII flow.

Strang splitting on a doubly periodic grid:
  * linear half step: exact Fourier phase exp(i (ky^2 - kx^2) dt / 2) for
    U_t = i (U_zz + U_zbzb) = (i/2)(U_xx - U_yy);
  * nonlinear step: pointwise phase exp(2 i Re V dt) with Re V recomputed
    spectrally from the constraint (frozen over the step).
Both substeps are unitary, so the discrete squared L2 norm is conserved to
rounding by construction.

A state holds the spectrum U_hat = fftn(U) of its field, which the step forms
anyway; U itself costs one inverse FFT and is formed only when it is read (a
snapshot, the final field, a callback that looks at it).  Norms come from U_hat
by Parseval, so a run that reads no snapshot forms one field, the final one.
"""
from __future__ import annotations

import json
import math
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

from .dsii import re_v_into
from .grid import ComplexField, Grid2D, MaskError, integrate2d, save_complexfield_csv, save_csv


class BlowupAbort(RuntimeError):
    pass


class EvolverState:
    """The evolver's state at time t.  A state built from a field holds U; a state
    that DsiiEvolver.run yields holds only its spectrum U_hat = np.fft.fftn(U.values),
    which the step forms anyway.  The missing side costs one FFT, formed the first
    time it is read and then kept.  norm_sq comes from U_hat by Parseval."""

    def __init__(self, U: ComplexField | None, t: float, *,
                 U_hat: np.ndarray | None = None, grid: Grid2D | None = None):
        if (U is None) == (U_hat is None):
            raise ValueError("give exactly one of U and U_hat")
        self.grid = grid if U is None else U.grid
        self.t = t
        if U is not None:
            self.U = U
        else:
            self.U_hat = U_hat

    @cached_property
    def U(self) -> ComplexField:
        g = self.grid
        return ComplexField(g, np.fft.ifftn(self.U_hat, out=np.empty((g.ny, g.nx), complex)))

    @cached_property
    def U_hat(self) -> np.ndarray:
        return np.fft.fftn(self.U.values, out=np.empty(self.U.values.shape, complex))

    @property
    def norm_sq(self) -> float:
        """hx hy sum |U|^2, by Parseval from U_hat."""
        g = self.grid
        return g.hx * g.hy / (g.nx * g.ny) * _sum_abs2(self.U_hat)


def grid_norm_sq(U: ComplexField) -> float:
    g = U.grid
    if g.periodic and (U.mask is None or not U.mask.any()):    # rectangle rule, no mask
        return g.hx * g.hy * _sum_abs2(U.values)
    return integrate2d(U.abs2()).real


def _sum_abs2(a: np.ndarray) -> float:
    """sum |a|^2 over the float view, without BLAS: np.vdot's threaded zdotc
    rounds differently under each BLAS thread count."""
    f = a.ravel().view(np.float64)
    return float(np.einsum("i,i->", f, f))


class DsiiEvolver:
    """Strang steps on a fixed grid and dt, with the dt-dependent Fourier phase."""

    def __init__(self, grid: Grid2D, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.grid, self.dt = grid, dt
        sp = grid.spectral
        self.half_phase = np.exp(1j * (sp.ky[:, None] ** 2 - sp.kx**2) * dt / 4.0)

    def run(self, state: EvolverState, n_steps: int):
        """Yield the n_steps states after state, each holding U_hat only (BlowupAbort
        on a non-finite spectrum); the k-th is at state.t + k dt, not at a running
        sum of dt.  w_hat is the spectrum of U a half step on."""
        g, dt, t0 = self.grid, self.dt, state.t
        w, theta = np.empty((g.ny, g.nx), dtype=complex), np.empty((g.ny, g.nx))
        n_hat = np.empty((g.ny, g.nx // 2 + 1), dtype=complex)
        w_hat = state.U_hat * self.half_phase     # numpy's complex a*b and b*a round apart
        for k in range(1, n_steps + 1):
            # non-finite intermediates are tolerated here; the guard below aborts
            with np.errstate(all="ignore"):
                np.fft.ifftn(w_hat, out=w)                # np.fft.ifft2 ignores out
                re_v_into(w, g.spectral, n_hat, theta)
                theta *= 2 * dt
                np.cos(theta, out=w_hat.real)             # w_hat, free until the fftn
                np.sin(theta, out=w_hat.imag)             # below, holds exp(i theta)
                w *= w_hat
                np.fft.fftn(w, out=w_hat)
                U_hat = w_hat * self.half_phase
            if not np.all(np.isfinite(U_hat)):
                raise BlowupAbort(f"non-finite field at t={t0 + k * dt:g}")
            yield EvolverState(None, t0 + k * dt, U_hat=U_hat, grid=g)
            np.multiply(U_hat, self.half_phase, out=w_hat)

    # one step of run; perfbench/spans.py traces the evolver by this name
    def step(self, state: EvolverState) -> EvolverState:
        return next(self.run(state, 1))


class Trajectory:
    times: list
    norms: list
    snapshots: list          # (t, ComplexField) pairs when requested
    final: ComplexField      # field at times[-1]
    aborted: bool
    abort_reason: str

    def __init__(self, times, norms, snapshots, final, aborted=False, abort_reason=""):
        self.times, self.norms, self.snapshots, self.final = times, norms, snapshots, final
        self.aborted, self.abort_reason = aborted, abort_reason


def step_count(t0: float, t_end: float, dt: float) -> int:
    """The whole number n >= 1 of steps of dt > 0 from t0 to t_end: ValueError
    unless dt > 0, (t_end - t0) / dt is within 1e-9 n of n, and 1e-9 n < 0.5 (from
    there on that test would pass any step count)."""
    if not dt > 0:                                    # NaN too
        raise ValueError(f"t0={t0:.12g} to t_end={t_end:.12g} needs dt > 0, got dt={dt:.12g}")
    steps = (t_end - t0) / dt
    n = round(steps) if math.isfinite(steps) else 0
    span = f"t0={t0:.12g} to t_end={t_end:.12g} is {steps:.12g} steps of dt={dt:.12g}"
    if n < 1 or abs(steps - n) > 1e-9 * n:
        raise ValueError(f"{span}, not a whole number >= 1")
    if 1e-9 * n >= 0.5:
        raise ValueError(f"{span}: n={n:.12g} is too many to tell whole (1e-9 n >= 0.5)")
    return n


def evolve(U0: ComplexField, t_end: float, dt: float, t0: float = 0.0,
           snapshot_every: int = 0, callback=None) -> Trajectory:
    """Repeated Strang stepping over the step_count(t0, t_end, dt) steps from t0
    to t_end with norm monitoring.  Norms are read from each state's spectrum; a
    state's field is formed only for a snapshot, for final and when the callback
    reads state.U."""
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
    if U0.mask is not None and U0.mask.any():
        raise MaskError("the evolver steps every node; U0 has masked nodes")
    n_total = step_count(t0, t_end, dt)
    ev = DsiiEvolver(U0.grid, dt)
    state = EvolverState(U0, t0)
    times, norms = [t0], [state.norm_sq]
    snaps = [(t0, U0)] if snapshot_every else []
    try:
        for k, state in enumerate(ev.run(state, n_total)):
            times.append(state.t)
            norms.append(state.norm_sq)
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
    save_csv(outdir / "norms.csv", "t,norm_sq",
             (b"%.17g,%.17g\r\n" % tn for tn in zip(traj.times, traj.norms)), newline="\r\n")
    manifest = {"times": traj.times, "norms": traj.norms, "snapshots": files,
                "aborted": traj.aborted, "abort_reason": traj.abort_reason}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest

