"""Command-line interface: surface generation/export, exact-solution dumps,
DSII evolution and named verification suites.

Each subcommand takes only the options it reads.  The values of a JSON object
given by --config become option tokens ahead of the explicit flags, so argparse
reads each as its flag's text and an explicit flag wins.  gen-surface, solution,
evolve and verify write their resolved configuration into the output directory,
gen-surface once its path-defect gate has passed; willmore-check only prints.
All outputs are deterministic for a fixed configuration, but for verify's timings.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .dirac import dirac_residual_norm
from .dsii import OzawaData, catalog, l2_norm_sq, singular_times
from .evolve import evolve, run_summary, step_count, write_trajectory
from .grid import Grid2D, constant_field, json_text, make_grid, save_complexfield_csv, save_json
from .meshio import FORMATS, export_mesh
from .moutard import heat_datum_fields, heat_smatrix_values
from .surface import (SPINORS, SurfaceIntegrationError, discrete_mean_curvature, gauss_map,
                      integrate_surface_r3, integrate_surface_r4, invert_surface,
                      named_spinor, smatrix_to_surface, willmore)


def _finite(value):
    """value, unless it is NaN or infinite (an ArgumentTypeError)."""
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{value} is not a finite number")
    return value


def _parse_float(text: str) -> float:
    return _finite(float(text))


def _parse_box(text: str):
    parts = [_parse_float(p) for p in text.split(":")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("box is XMIN:XMAX:YMIN:YMAX")
    return tuple(parts)


def _parse_gridspec(text: str):
    a, _, b = text.lower().partition("x")
    return (int(a), int(b or a))


def _parse_complex(text: str) -> complex:
    return _finite(complex(text.replace(" ", "").replace("i", "j")))


def _grid_from_args(args) -> Grid2D:
    nx, ny = args.grid
    per = {None: (False, False), "both": (True, True),
           "x": (True, False), "y": (False, True)}[args.periodic]
    return make_grid(args.box, (nx, ny), per)


_SHARED = {
    "grid": dict(type=_parse_gridspec, default=(128, 128), help="NXxNY nodes"),
    "box": dict(type=_parse_box, default=(-3.0, 3.0, -3.0, 3.0),
                help="XMIN:XMAX:YMIN:YMAX"),
    "periodic": dict(nargs="?", const="both", default=None, choices=("both", "x", "y"),
                     help="periodic axes (bare flag means both)"),
    "out": dict(type=Path, default=Path("out")),
}


# the option each command cannot run without: checked after --config is read, so
# that a config file may supply it
_REQUIRED = {"solution": "solution", "willmore-check": "potential"}


# the names of verify.SUITES, sorted: verify, and the 1-D hierarchy it imports,
# load only when a suite runs
SUITE_NAMES = ("dirac", "evolver", "moutard", "norms", "reduction", "singularities",
               "symbolic", "weierstrass", "willmore")


def _add_shared(p, *names):
    """The shared options a subcommand reads, by name, then --config."""
    for name in names:
        p.add_argument(f"--{name}", **_SHARED[name])
    p.add_argument("--config", type=Path, default=None,
                   help="JSON defaults, overridden by explicit flags")


def _config_tokens(act, val) -> list:
    """The option tokens that give act's flag the --config value val, for argparse to
    read as it reads the flag: null none, where the flag's default is None; a bool
    the bare switch or none, for a switch; a string --flag=text; a number or a list
    of numbers the flag's text (a grid NXxNY, a box a:b:c:d, c re±imj), but not for
    a path.  Any other value is an ArgumentError."""
    flag = act.option_strings[0]
    if act.nargs == 0 and isinstance(val, bool):
        return [flag] if val else []
    if val is None and act.default is None:
        return []
    if isinstance(val, str):
        return [f"{flag}={val}"]
    numbers = val if isinstance(val, list) else [val]
    if act.type is Path or not all(type(x) in (int, float) for x in numbers):   # no bool
        raise argparse.ArgumentError(act, f"got {json_text(val)}")
    if isinstance(val, list) and act.type is _parse_complex and len(val) == 2:
        val = f"{val[0]}{val[1]:+}j"
    elif isinstance(val, list) and act.type in (_parse_gridspec, _parse_box):
        val = ("x" if act.type is _parse_gridspec else ":").join(map(str, val))
    return [f"{flag}={val}"]


def _config_argv(args, parser, argv) -> list:
    """argv with the --config file's values as option tokens right after the
    subcommand, so that argparse reads them as it reads the flags and an explicit
    flag, coming later, wins."""
    try:
        with open(args.config) as fh:
            defaults = json.load(fh)
    except (OSError, ValueError) as exc:      # a missing file, not JSON, not UTF-8
        parser.error(f"cannot read --config {args.config}: {exc}")
    if isinstance(defaults, dict) and set(defaults) == {"options", "subcommand"}:
        # a run's resolved_config.json
        if defaults["subcommand"] != args.subcommand:
            parser.error(f"{args.config} records a {defaults['subcommand']!r} run")
        defaults = defaults["options"]
        if isinstance(defaults, dict):    # not its out: a repeat must not overwrite the run
            defaults = {k: v for k, v in defaults.items() if k not in ("subcommand", "out")}
    if not isinstance(defaults, dict):
        parser.error(f"{args.config} is not a JSON object of options")
    sub = next(a for a in parser._actions if a.dest == "subcommand").choices[args.subcommand]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(defaults) - set(actions))
    if unknown:
        parser.error(f"unknown config key(s) in {args.config}: {', '.join(unknown)}")
    # only now that argv has parsed, so that an explicit flag's error keeps its usage line
    sub.exit_on_error = False
    tokens = []
    for key, val in defaults.items():
        act = actions[key]
        try:
            key_tokens = _config_tokens(act, val)
            sub.parse_args(key_tokens)
        except argparse.ArgumentError as exc:
            parser.error(f"{args.subcommand} needs {act.option_strings[0]} (or config key "
                         f"{key} in {args.config}) as its flag reads it; {exc.message}")
        tokens += key_tokens
    at = argv.index(args.subcommand) + 1
    return argv[:at] + tokens + argv[at:]


def _dirac_precheck(psi, phi, tol):
    """Warn when psi and phi are far from solving D psi = 0 and Dvee phi = 0 with the
    zero potential: when the larger residual, off a 1-node border, is above tol
    times max(|psi|, |phi|, 1).  At U = 0, D and Dvee give the same value to the
    bit, so an R^3 datum (phi is psi) is measured once."""
    zero = constant_field(psi.grid, 0.0)
    rd = dirac_residual_norm(zero, psi, interior=1)
    rv = rd if phi is psi else dirac_residual_norm(zero, phi, interior=1, vee=True)
    if max(rd, rv) > tol * max(psi.max_abs(), phi.max_abs(), 1.0):
        warnings.warn(f"Dirac residuals large before integration: D {rd:.3g}, Dvee {rv:.3g}")


def cmd_gen_surface(args) -> int:
    grid = _grid_from_args(args)
    tol = 1e-3 if args.tol is None else args.tol
    if args.from_dsii:
        sol = catalog(args.from_dsii, c=args.c)
        if args.invert:             # the inverted closed-form S: nothing to integrate
            S = invert_surface(smatrix_to_surface(heat_smatrix_values(sol.f, grid, args.t)))
        else:
            psi0, phi0 = heat_datum_fields(sol.f, grid, args.t)
            _dirac_precheck(psi0, phi0, tol)
            S = integrate_surface_r4(psi0, phi0)
        wil = willmore(sol.U_field(grid, args.t))
    else:
        psi = named_spinor(args.spinor, grid)
        _dirac_precheck(psi, psi, tol)
        S = integrate_surface_r3(psi)
        wil = 0.0
        if args.invert:
            S = invert_surface(S)
    H = discrete_mean_curvature(S)
    Hf = H[np.isfinite(H)]
    S.diagnostics.update({
        "willmore": float(wil),
        "conformality_residual": gauss_map(S),
        "curvature_abs_mean": float(np.mean(np.abs(Hf))) if Hf.size else None,
        "curvature_abs_max": float(np.max(np.abs(Hf))) if Hf.size else None,
    })
    _write_config(args)
    path = args.out / f"surface.{args.format}"
    rec = export_mesh(S, path, args.format)
    print(f"wrote {path}: {rec['n_vertices']} vertices, "
          f"{rec['n_triangles']} triangles, {rec['holes']} holes")
    print(f"willmore={rec['willmore']:.6g} conformality={rec['conformality_residual']:.3g}")
    return 0


def cmd_solution(args) -> int:
    grid = _grid_from_args(args)
    outdir = args.out
    if args.solution == "ozawa":
        oz = OzawaData(args.a, args.b)
        U = oz.U0_field(grid)
    else:
        sol = catalog(args.solution, c=args.c)
        U = sol.U_field(grid, args.t)
        save_complexfield_csv(sol.V_field(grid, args.t), outdir / "V.csv")
    save_complexfield_csv(U, outdir / "U.csv")
    nrm = l2_norm_sq(U, require_decay=False)    # a box too small for the decay: qualified
    qual = "" if nrm.decay_ok else " [box too small for a decayed norm]"
    if args.solution == "ozawa":
        events = {"norm_sq": nrm.value, "tail_bound": nrm.tail_bound,
                  "blowup_time": oz.blowup_time}
        line = json_text(events) + qual
    else:
        events = [e.as_dict() for e in singular_times(sol)]
        line = (f"norm_sq={nrm.value:.6g} (tail bound {nrm.tail_bound:.2g}){qual}; "
                f"{len(events)} singular event(s)")
    save_json(outdir / "events.json", events)
    print(line)
    return 0


def cmd_evolve(args) -> int:
    nx, ny = args.grid
    grid = make_grid(args.box, (nx, ny), True)    # spectral stepping: always periodic
    outdir = args.out
    if args.source == "zero":
        U0 = constant_field(grid, 0.0)
        exact = None
    elif args.source == "ozawa":
        oz = OzawaData(args.a, args.b)
        U0 = oz.U0_zside(grid)
        exact = None
        print(f"ozawa z-side blow-up time t = T/2 = {oz.blowup_time / 2:g}; "
              "resolution loss expected near it")
    else:
        sol = catalog(args.source, c=args.c)
        U0 = sol.U_field(grid, 0.0)
        exact = sol
    traj = evolve(U0, args.t_end, args.dt, snapshot_every=args.snapshot_every)
    write_trajectory(traj, outdir)
    summary = run_summary(traj, exact)
    save_json(outdir / "summary.json", summary)
    print(json_text(summary))
    return 0 if not traj.aborted else 3


def cmd_willmore_check(args) -> int:
    from .hierarchy import clifford_potential, soliton_potential, willmore_bound_check
    if args.potential == "soliton":
        pot = soliton_potential(args.n)
        chk = willmore_bound_check(pot, args.n)
    else:                                   # clifford
        pot = clifford_potential()
        chk = willmore_bound_check(pot, None)
    print(json_text(chk))
    return 0 if chk["pass"] else 1


def cmd_verify(args) -> int:
    from .verify import print_table, run_suite
    results = run_suite(args.suite)
    print_table(results)
    save_json(args.out / "verify.json", [r.as_dict() for r in results])
    return 0 if all(r.passed for r in results) else 1


def _write_config(args):
    """args.out/resolved_config.json: the subcommand and every option it read, in
    the form that --config reads back, keys sorted."""
    options = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}
    args.out.mkdir(parents=True, exist_ok=True)
    save_json(args.out / "resolved_config.json",
              {"options": options, "subcommand": args.subcommand})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spinsurf",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen-surface", help="integrate spinor data and export a mesh")
    _add_shared(g, "grid", "box", "periodic", "out")
    g.add_argument("--tol", type=_parse_float, default=None,
                   help="relative Dirac residual that warns (default 1e-3)")
    g.add_argument("--spinor", default="plane", choices=tuple(SPINORS))
    g.add_argument("--from-dsii", choices=("s1", "s2"), default=None)
    g.add_argument("--c", type=_parse_complex, default=1 + 0j)
    g.add_argument("--t", type=_parse_float, default=0.0)
    g.add_argument("--invert", action="store_true")
    g.add_argument("--format", choices=tuple(FORMATS), default="obj")
    g.set_defaults(func=cmd_gen_surface)

    s = sub.add_parser("solution", help="dump an exact DSII solution")
    _add_shared(s, "grid", "box", "periodic", "out")
    s.add_argument("--solution", choices=("s1", "s2", "ozawa"),
                   help="required, as a flag or a --config key")
    s.add_argument("--c", type=_parse_complex, default=1 + 0j)
    s.add_argument("--t", type=_parse_float, default=0.0)
    s.add_argument("--a", type=_parse_float, default=1.0)
    s.add_argument("--b", type=_parse_float, default=-1.0)
    s.set_defaults(func=cmd_solution)

    e = sub.add_parser("evolve", help="split-step DSII evolution on a doubly periodic grid")
    _add_shared(e, "grid", "box", "out")
    e.add_argument("--from", dest="source", default="s1",
                   choices=("s1", "s2", "zero", "ozawa"))
    e.add_argument("--c", type=_parse_complex, default=1 + 0j)
    e.add_argument("--a", type=_parse_float, default=1.0)
    e.add_argument("--b", type=_parse_float, default=-1.0)
    e.add_argument("--t-end", type=_parse_float, default=0.1)
    e.add_argument("--dt", type=_parse_float, default=1e-4)
    e.add_argument("--snapshot-every", type=int, default=0)
    e.set_defaults(func=cmd_evolve)

    w = sub.add_parser("willmore-check", help="sphere-bound check for 1-D potentials (prints only)")
    _add_shared(w)
    w.add_argument("--potential", choices=("soliton", "clifford"),
                   help="required, as a flag or a --config key")
    w.add_argument("--n", type=int, default=1)
    w.set_defaults(func=cmd_willmore_check)

    v = sub.add_parser("verify", help="run a named verification suite")
    _add_shared(v, "out")
    v.add_argument("--suite", default="all",
                   choices=SUITE_NAMES + ("all",))
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.config is not None:
        args = ap.parse_args(_config_argv(args, ap, argv))
    key = _REQUIRED.get(args.subcommand)
    if key and getattr(args, key) is None:
        ap.error(f"{args.subcommand} needs --{key} (or config key {key})")
    if args.subcommand == "gen-surface" and args.from_dsii and args.invert \
            and args.tol is not None:
        ap.error("gen-surface --from-dsii --invert integrates nothing, so it reads "
                 "no --tol (or config key tol)")
    # refused here, before any file is written
    try:
        if "grid" in vars(args):
            make_grid(args.box, args.grid)
        if args.subcommand == "evolve":
            step_count(0.0, args.t_end, args.dt)
            if args.snapshot_every < 0:
                ap.error(f"--snapshot-every must be >= 0, got {args.snapshot_every}")
        if args.subcommand == "willmore-check" and args.n < 1:
            ap.error(f"--n must be >= 1, got {args.n}")
        if "ozawa" in (getattr(args, "solution", None), getattr(args, "source", None)):
            OzawaData(args.a, args.b)
    except ValueError as exc:           # GridConfigError, InvalidDatumError too
        ap.error(str(exc))
    if "out" in vars(args) and args.func is not cmd_gen_surface:
        _write_config(args)
    try:
        return args.func(args)
    except SurfaceIntegrationError as exc:     # gen-surface's path-defect gate
        ap.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
