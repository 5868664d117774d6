"""Split-step spectral time integration of the DSII flow.

Strang splitting on a doubly periodic grid:
  * linear half step: exact Fourier phase exp(i (ky^2 - kx^2) dt / 2) for
    U_t = i (U_zz + U_zbzb) = (i/2)(U_xx - U_yy);
  * nonlinear step: pointwise phase exp(2 i Re V dt) with Re V recomputed
    spectrally from the constraint (frozen over the step).
Both substeps are unitary, so the discrete squared L2 norm is conserved to
rounding by construction.

A state is the spectrum U_hat = fftn(U) of its field, which the step forms
anyway; U itself costs one inverse FFT and is formed only when it is read (a
snapshot, the final field, a callback that looks at it).  Norms come from U_hat
by Parseval, so a run that reads no snapshot forms one field, the final one.

DsiiEvolver.step is one Strang step and DsiiEvolver.run a loop over it.  A step
works in a fixed set of arrays, all the evolver's but one: half_phase, the field
w and the phase theta, and one spectrum, the step's only fresh array.  It starts
as U_hat times half_phase, holds |Im U|^2 and the constraint solve's
half-spectrum while it is free, then exp(i theta), and ends as the next state's
U_hat.  The state's Parseval norm, which the run records anyway, is the blow-up
guard; only a non-finite norm costs a pass over the spectrum.

One run summary (run_summary): the step count, the norm drift and the error
against an exact solution that `spinsurf evolve` writes as summary.json and
verify's criterion 8 reads.
"""
from __future__ import annotations

import math
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

from .dsii import re_v_from_u
from .grid import (ComplexField, Grid2D, MaskError, SchemeError, abs2_quadrature,
                   save_complexfield_csv, save_csv, save_json)


class BlowupAbort(RuntimeError):
    pass


class EvolverState:
    """The evolver's state at time t: the spectrum U_hat = np.fft.fftn(U.values) of
    its field U on grid, which the step forms anyway.  U costs one inverse FFT,
    formed the first time it is read and then kept, as is norm_sq, which comes from
    U_hat by Parseval."""

    def __init__(self, U_hat: np.ndarray, t: float, grid: Grid2D):
        self.U_hat, self.t, self.grid = U_hat, t, grid

    @cached_property
    def U(self) -> ComplexField:
        g = self.grid
        return ComplexField(g, np.fft.ifftn(self.U_hat, out=np.empty((g.ny, g.nx), complex)))

    @cached_property
    def norm_sq(self) -> float:
        """hx hy sum |U|^2, by Parseval from U_hat, summed over its float view without
        BLAS: np.vdot's threaded zdotc rounds differently under each BLAS thread count."""
        g, f = self.grid, self.U_hat.ravel().view(np.float64)
        return g.hx * g.hy / (g.nx * g.ny) * float(np.einsum("i,i->", f, f))


def grid_norm_sq(U: ComplexField) -> float:
    """int |U|^2 dx dy of an evolver field, grid.abs2_quadrature's rectangle rule:
    SchemeError unless its grid is doubly periodic, MaskError on a masked node."""
    if not U.grid.periodic:
        raise SchemeError("grid_norm_sq is the rectangle rule of a doubly periodic grid")
    if U.mask is not None and U.mask.any():
        raise MaskError("the evolver's norm reads every node; the field has masked nodes")
    return abs2_quadrature(U, None)[0]


class DsiiEvolver:
    """Strang steps on a fixed grid and dt, with the dt-dependent Fourier phase."""

    def __init__(self, grid: Grid2D, dt: float):
        if not 0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        self.grid, self.dt = grid, dt
        sp = grid.spectral
        half_phase = 1j * (sp.ky[:, None] ** 2 - sp.kx**2)
        half_phase *= dt
        half_phase /= 4.0
        self.half_phase = np.exp(half_phase, out=half_phase)
        sp.re_v                     # built now, before any step buffer exists
        self.w, self.theta = np.empty((grid.ny, grid.nx), complex), np.empty((grid.ny, grid.nx))

    def step(self, state: EvolverState, t: float) -> EvolverState:
        """The state one Strang step after state, at time t (BlowupAbort on a non-finite
        spectrum).  It writes the evolver's w and theta, which carry nothing between
        steps, and one fresh spectrum: state.U_hat times half_phase, then the
        constraint solve's scratch, then exp(i theta), then the new state's U_hat."""
        w, theta, half_phase = self.w, self.theta, self.half_phase
        # non-finite intermediates are tolerated here; the guard below aborts
        with np.errstate(all="ignore"):
            U_hat = state.U_hat * half_phase    # numpy's complex a*b and b*a round apart
            np.fft.ifftn(U_hat, out=w)                  # np.fft.ifft2 ignores out
            re_v_from_u(w, self.grid.spectral, U_hat, theta)    # U_hat, free, is its scratch
            theta *= 2 * self.dt
            np.cos(theta, out=U_hat.real)               # U_hat, still free until the
            np.sin(theta, out=U_hat.imag)               # fftn below, holds exp(i theta)
            w *= U_hat
            np.fft.fftn(w, out=U_hat)
            U_hat *= half_phase
        new = EvolverState(U_hat, t, self.grid)
        # a finite sum has finite terms; an overflowing sum of finite ones is no blow-up
        if not math.isfinite(new.norm_sq) and not np.all(np.isfinite(U_hat)):
            raise BlowupAbort(f"non-finite field at t={t:g}")
        return new

    def run(self, state: EvolverState, n_steps: int):
        """Yield the n_steps states after state, each by step; the k-th is at
        state.t + k dt, not at a running sum of dt.  The generator lets go of each
        state, the first one too, when the step after it ends, and computes nothing
        after its last yield."""
        t0 = state.t
        for k in range(1, n_steps + 1):
            state = self.step(state, t0 + k * self.dt)
            yield state


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
    reads state.U.  t0 stays for runs from a t0 != 0 (ROADMAP items 2 and 4)."""
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
    if U0.mask is not None and U0.mask.any():
        raise MaskError("the evolver steps every node; U0 has masked nodes")
    n_total = step_count(t0, t_end, dt)
    ev = DsiiEvolver(U0.grid, dt)
    state = EvolverState(np.fft.fftn(U0.values, out=np.empty(U0.values.shape, complex)), t0,
                         U0.grid)
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
        final = state.U if len(times) > 1 else U0       # no step done: the datum itself
        return Trajectory(times, norms, snaps, final, aborted=True, abort_reason=str(exc))
    if snapshot_every and snaps[-1][0] != state.t:
        snaps.append((state.t, state.U))
    return Trajectory(times, norms, snaps, state.U)


def run_summary(traj: Trajectory, exact=None) -> dict:
    """The run's summary: its step count, the relative drift of its norm and whether
    it aborted; for an exact solution and a run that did not abort, the relative L2
    error of the final field against exact's at the last time, whose poles at a
    singular instant (exact_masked_nodes of them) hold their patch."""
    n0 = traj.norms[0]
    summary = {"steps": len(traj.times) - 1,
               "norm_drift_rel": abs(traj.norms[-1] - n0) / max(n0, 1e-300),
               "aborted": traj.aborted}
    if exact is not None and not traj.aborted:
        Uex = exact.U_field(traj.final.grid, traj.times[-1])
        if Uex.mask is not None and Uex.mask.any():
            summary["exact_masked_nodes"] = int(np.count_nonzero(Uex.mask))
            Uex = Uex.patched()
        num = grid_norm_sq(traj.final - Uex)
        summary["rel_l2_error_vs_exact"] = float(np.sqrt(num / grid_norm_sq(Uex)))
    return summary


def write_trajectory(traj: Trajectory, outdir) -> dict:
    """Snapshot CSVs plus a manifest JSON (times, norms, filenames)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, (t, fld) in enumerate(traj.snapshots):
        name = f"snapshot_{i:04d}.csv"
        save_complexfield_csv(fld, outdir / name)
        files.append({"t": t, "file": name})
    save_csv(outdir / "norms.csv", "t,norm_sq\r\n",
             (b"%.17g,%.17g\r\n" % tn for tn in zip(traj.times, traj.norms)))
    manifest = {"times": traj.times, "norms": traj.norms, "snapshots": files,
                "aborted": traj.aborted, "abort_reason": traj.abort_reason}
    save_json(outdir / "manifest.json", manifest)
    return manifest

