"""spinsurf benchmark: one workload per process, checked outputs, one JSON line.

    python3 perfbench/run.py --workload {evolve,surface,fields,moutard} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from ./src.
A run sets up the workload 15 times (untraced) or once (traced), then runs
round(S / reference round cost) rounds, at least one.  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics without tracing, the per-layer metrics with it.
See perfbench/README.md.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import gc
import importlib
import json
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("cli", "dirac", "dsii", "evolve", "exactpoly", "grid", "meshio",
              "moutard", "surface")
N_SETUPS = 15


# Times are reported at a reference machine speed.  The calibration kernel
# below (FFTs, small and large array arithmetic and interpreted loops, like the
# workloads) runs at least twice a second between timed calls; a timed interval
# is scaled by CAL_REF_S over the median kernel time around it.
# This removes the drift of the host's speed, which on a shared 2-core VM moves
# raw times by up to 1.6x within a minute, from the comparison of two commits.
CAL_REF_S = 0.035
CAL_PERIOD_S = 0.5
_rng = np.random.default_rng(0)
_CAL_SMALL = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))
_CAL_LARGE = _rng.standard_normal((512, 512)) + 1j * _rng.standard_normal((512, 512))


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of numpy and interpreter work."""
    t = time.perf_counter()
    a = _CAL_SMALL
    for _ in range(4):
        np.fft.ifft2(np.fft.fft2(a))
        np.abs(np.exp(1j * a.real) * a) ** 2 + a.imag
    np.abs(_CAL_LARGE * _CAL_LARGE + _CAL_LARGE)
    x, d = 0, {}
    for j in range(40000):
        x += j * j
    for j in range(10000):
        d[j % 97] = d.get(j % 97, 0) + 1
    return time.perf_counter() - t


class Record:
    """What the timed phase did: timed intervals, operations, outcomes."""

    def __init__(self, work: Path):
        self.work = work
        self.cal_end, self.cal_s = [], []   # calibration end times and durations
        self.pieces = []                    # (start, raw s) of every timed interval
        self.steps = []                     # (start, raw s) of evolver steps
        self.ops = []                       # (first, end) piece ranges of operations
        self._op_first = 0
        self._open = None
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rss_mark = maxrss_mb()         # peak RSS when the program last ran
        self.rss_outside = 0.0              # rise of the peak outside timed calls

    def calibrate(self):
        now = time.perf_counter()
        if self._open is not None:          # split a running timed call around it
            self.pieces.append((self._open, now - self._open))
        self.cal_s.append(calibration_kernel())
        self.cal_end.append(time.perf_counter())
        if self._open is not None:
            self._open = self.cal_end[-1]

    def maybe_calibrate(self):
        if not self.cal_end or time.perf_counter() - self.cal_end[-1] >= CAL_PERIOD_S:
            self.calibrate()

    def timed(self, fn, *args, **kwargs):
        self.maybe_calibrate()
        self.mark_rss()
        self._open = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.pieces.append((self._open, time.perf_counter() - self._open))
            self._open = None
            self.rss_mark = maxrss_mb()

    def mark_rss(self):
        """Account any rise of the peak RSS since the program last ran: the
        checks and reading back did it, so peak_rss_mb would not be the
        program's own."""
        r = maxrss_mb()
        self.rss_outside += r - self.rss_mark
        self.rss_mark = r

    def step_callback(self):
        """An evolve() callback recording the interval between successive steps."""
        last = [None]

        def on_step(state):
            now = time.perf_counter()
            if last[0] is not None:
                self.steps.append((last[0], now - last[0]))
            self.maybe_calibrate()
            last[0] = time.perf_counter()
        return on_step

    def finish(self, checks, n_ops: int, known=()):
        """Account n_ops operations; they fail together if any check fails.
        `known` holds the checks that fail today because of a fault named in
        the README: their failure is counted but leaves the run correct, while
        a failed check in `checks` makes it incorrect."""
        if n_ops == 1 and not known:
            self.ops.append((self._op_first, len(self.pieces)))
        self._op_first = len(self.pieces)
        self.attempted += n_ops
        bad = [(c, "") for c in checks if not c.ok] + \
            [(c, " (known fault)") for c in known if not c.ok]
        if bad:
            self.failed += n_ops
            self.correct &= all(c.ok for c in checks)
            for c, tag in bad:
                print(f"check failed{tag}: {c.name}: {c.value:.6g} > {c.limit:.6g}",
                      file=sys.stderr)

    def scale(self, t: float) -> float:
        """Reference-speed factor for an interval starting at time t: the
        median of the five kernel times around it, so that one preempted
        kernel run does not skew the intervals next to it."""
        j = max(bisect.bisect_right(self.cal_end, t) - 1, 0)
        return CAL_REF_S / float(np.median(self.cal_s[max(j - 2, 0):j + 3]))

    def scaled(self, pieces) -> float:
        return sum(dt * self.scale(t) for t, dt in pieces)


def import_spinsurf():
    """A fresh import of spinsurf from ./src (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "spinsurf" or n.startswith("spinsurf.")]:
        del sys.modules[name]
    M = SimpleNamespace(**{n: importlib.import_module(f"spinsurf.{n}") for n in SUBMODULES})
    if Path(M.grid.__file__).resolve().parent != ROOT / "src" / "spinsurf":
        raise ImportError(f"spinsurf imported from {M.grid.__file__}, not ./src")
    return M


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spinsurf" / "__init__.py").is_file():
        print(f"no spinsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    warnings.simplefilter("ignore")     # library warnings are not part of the result

    wl = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / wl.round_s))
    data = wl.data(np.random.default_rng(args.seed), rounds)
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    rec = Record(work)
    tracer = None
    setups = []
    try:
        for _ in range(1 if args.trace else N_SETUPS):
            # drop the previous set-up and its spinsurf modules, which would
            # otherwise add 5-7 MB to peak_rss_mb
            M = state = None
            gc.collect()
            rec.calibrate()
            t = time.perf_counter()
            M = import_spinsurf()
            if args.trace:
                tracer = spans.Tracer()
                tracer.install()
            state = wl.setup(M, data)
            setups.append((t, time.perf_counter() - t))
        rec.calibrate()
        rec.rss_mark = maxrss_mb()
        if tracer:
            tracer.mark_setup_end()
        for k in range(rounds):
            try:
                wl.run_round(M, state, k, rec)
            except Exception:
                traceback.print_exc()
                rec.correct = False
                rec.attempted += 1
                rec.failed += 1
        rec.mark_rss()
        rec.calibrate()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.dump(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json",
                        workload=args.workload, seed=args.seed, rounds=rounds)

    run_s = rec.scaled(rec.pieces)
    op_ms = [rec.scaled(rec.pieces[a:b]) * 1e3 for a, b in rec.ops] + \
        [dt * rec.scale(t) * 1e3 for t, dt in rec.steps]
    print(f"raw: run_s {sum(dt for _, dt in rec.pieces):.4g}, calibration kernel "
          f"median {np.median(rec.cal_s) * 1e3:.4g} ms over {len(rec.cal_s)} runs",
          file=sys.stderr)
    print(f"peak RSS {maxrss_mb():.4g} MB, of which {rec.rss_outside:.3g} MB was added "
          f"outside the timed calls", file=sys.stderr)
    if args.trace:
        metrics = tracer.metrics(rounds, run_s, rec.scale)
    else:
        metrics = {
            "setup_s": {"value": float(np.median([dt * rec.scale(t) for t, dt in setups])),
                        "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_p50_ms": {"value": float(np.median(op_ms)), "unit": "ms"},
            "peak_rss_mb": {"value": maxrss_mb(), "unit": "MB"},
        }
    print(json.dumps({"correct": rec.correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
