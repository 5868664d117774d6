"""Command-line interface: surface generation/export, exact-solution dumps,
DSII evolution and named verification suites.

Each subcommand takes only the options it reads.  A JSON config supplied via
--config is merged under explicit flags (flags win).  gen-surface, solution,
evolve and verify write their resolved configuration into the output
directory; willmore-check only prints.  All outputs are deterministic for a
fixed configuration.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .dirac import SpinorField
from .dsii import catalog, l2_norm_sq, singular_times
from .evolve import evolve, grid_norm_sq, write_trajectory
from .grid import (Grid2D, constant_field, field_from_function,
                   make_grid, save_complexfield_csv)
from .meshio import export_mesh
from .moutard import heat_datum_fields, heat_smatrix_values
from .surface import (discrete_mean_curvature, gauss_map, integrate_surface_r3,
                      integrate_surface_r4, invert_surface, smatrix_to_surface,
                      willmore)


@dataclass
class RunConfig:
    subcommand: str
    options: dict

    def write(self, outdir: Path):
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "resolved_config.json", "w") as fh:
            json.dump(asdict(self), fh, indent=1, sort_keys=True)


def _parse_box(text: str):
    parts = [float(p) for p in text.split(":")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("box is XMIN:XMAX:YMIN:YMAX")
    return tuple(parts)


def _parse_gridspec(text: str):
    a, _, b = text.lower().partition("x")
    return (int(a), int(b or a))


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", "").replace("i", "j"))


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


# the option each command cannot run without, and its choices: checked after the
# --config merge, so that a config file may supply it
_REQUIRED = {"solution": ("solution", ("s1", "s2", "ozawa")),
             "willmore-check": ("potential", ("soliton", "clifford"))}


def _add_shared(p, *names):
    """The shared options a subcommand reads, by name, then --config."""
    for name in names:
        p.add_argument(f"--{name}", **_SHARED[name])
    p.add_argument("--config", type=Path, default=None,
                   help="JSON defaults, overridden by explicit flags")


def _apply_config_file(args, parser, argv):
    if args.config is None:
        return args
    with open(args.config) as fh:
        defaults = json.load(fh)
    if set(defaults) == {"options", "subcommand"}:      # a run's resolved_config.json
        if defaults["subcommand"] != args.subcommand:
            parser.error(f"{args.config} records a {defaults['subcommand']!r} run")
        # not its out: a repeat must not overwrite the run it repeats
        defaults = {k: v for k, v in defaults["options"].items()
                    if k not in ("subcommand", "out")}
    unknown = sorted(set(defaults) - (set(vars(args)) - {"func", "subcommand"}))
    if unknown:
        parser.error(f"unknown config key(s) in {args.config}: {', '.join(unknown)}")
    explicit = _explicit_keys(args.subcommand, argv, defaults)
    for key, val in defaults.items():
        if key in explicit:
            continue
        cur = getattr(args, key)
        if isinstance(cur, tuple) and isinstance(val, list):
            val = tuple(val)
        if isinstance(cur, complex) and isinstance(val, list):     # [re, im], as recorded
            if len(val) != 2:
                parser.error(f"config key {key} in {args.config} is not [re, im]")
            val = complex(*val)
        if isinstance(cur, Path):
            val = Path(val)
        setattr(args, key, val)
    return args


def _explicit_keys(subcommand: str, argv, keys) -> set:
    """The keys whose option argv sets, however the flag is spelled (--from sets
    source): argv parsed again with those options' defaults set to a marker."""
    probe = build_parser()
    sub = next(a for a in probe._actions if isinstance(a, argparse._SubParsersAction))
    marker = object()
    sub.choices[subcommand].set_defaults(**dict.fromkeys(keys, marker))
    again = vars(probe.parse_args(argv))
    return {k for k in keys if again[k] is not marker}


def _spinor_source(name: str, grid: Grid2D) -> SpinorField:
    if name == "plane":
        return SpinorField(constant_field(grid, 1.0), constant_field(grid, 0.0))
    if name == "enneper":
        return SpinorField(constant_field(grid, 1.0),
                           field_from_function(grid, lambda z: np.conj(z)))
    if name == "catenoid":
        s = 1 / np.sqrt(2.0)
        return SpinorField(field_from_function(grid, lambda z: s * np.exp(z / 2)),
                           field_from_function(grid, lambda z: s * np.exp(-np.conj(z) / 2)))
    raise SystemExit(f"unknown spinor source {name!r}")


def cmd_gen_surface(args) -> int:
    grid = _grid_from_args(args)
    outdir = args.out
    RunConfig("gen-surface", _options(args)).write(outdir)
    if args.tol is None:
        args.tol = 1e-3
    if args.from_dsii:
        sol = catalog(args.from_dsii, c=args.c)
        psi0, phi0 = heat_datum_fields(sol.f, grid, args.t)
        U0 = constant_field(grid, 0.0)
        S = integrate_surface_r4(psi0, phi0, U=U0, residual_tol=args.tol)
        Ufield = sol.U_field(grid, args.t)
        wil = willmore(Ufield)
        if args.invert:
            Sm = heat_smatrix_values(sol.f, grid, args.t)
            S = smatrix_to_surface(Sm)
            S = invert_surface(S)
    else:
        psi = _spinor_source(args.spinor, grid)
        S = integrate_surface_r3(psi, U=constant_field(grid, 0.0),
                                 residual_tol=args.tol)
        wil = 0.0
        if args.invert:
            S = invert_surface(S)
    gm = gauss_map(S)
    H = discrete_mean_curvature(S)
    Hf = H[np.isfinite(H)]
    meta = {
        "willmore": float(wil),
        "conformality_residual": gm.rel_residual,
        "curvature_abs_mean": float(np.mean(np.abs(Hf))) if Hf.size else None,
        "curvature_abs_max": float(np.max(np.abs(Hf))) if Hf.size else None,
    }
    stats = export_mesh(S, outdir / f"surface.{args.format}", fmt=args.format,
                        metadata=meta)
    print(f"wrote {stats.files[0]}: {stats.n_vertices} vertices, "
          f"{stats.n_triangles} triangles, {stats.n_holes} holes")
    print(f"willmore={meta['willmore']:.6g} conformality={meta['conformality_residual']:.3g}")
    return 0


def cmd_solution(args) -> int:
    grid = _grid_from_args(args)
    outdir = args.out
    RunConfig("solution", _options(args)).write(outdir)
    if args.solution == "ozawa":
        oz = catalog("ozawa", a=args.a, b=args.b)
        U = oz.U0_field(grid)
        save_complexfield_csv(U, outdir / "U.csv")
        nrm = l2_norm_sq(U)
        info = {"norm_sq": nrm.value, "tail_bound": nrm.tail_bound,
                "blowup_time": oz.blowup_time}
        with open(outdir / "events.json", "w") as fh:
            json.dump(info, fh, indent=1)
        print(json.dumps(info))
        return 0
    sol = catalog(args.solution, c=args.c)
    U = sol.U_field(grid, args.t)
    V = sol.V_field(grid, args.t)
    save_complexfield_csv(U, outdir / "U.csv")
    save_complexfield_csv(V, outdir / "V.csv")
    events = [e.as_dict() for e in singular_times(sol)]
    with open(outdir / "events.json", "w") as fh:
        json.dump(events, fh, indent=1)
    nrm = l2_norm_sq(U, require_decay=False)
    qual = "" if nrm.decay_ok else " [box too small for a decayed norm]"
    print(f"norm_sq={nrm.value:.6g} (tail bound {nrm.tail_bound:.2g}){qual}; "
          f"{len(events)} singular event(s)")
    return 0


def cmd_evolve(args) -> int:
    nx, ny = args.grid
    grid = make_grid(args.box, (nx, ny), True)    # spectral stepping: always periodic
    outdir = args.out
    RunConfig("evolve", _options(args)).write(outdir)
    if args.source == "zero":
        U0 = constant_field(grid, 0.0)
        exact = None
    elif args.source == "ozawa":
        oz = catalog("ozawa", a=args.a, b=args.b)
        U0 = oz.U0_zside(grid)
        exact = None
        print(f"ozawa z-side blow-up time t = T/2 = {oz.blowup_time / 2:g}; "
              "resolution loss expected near it")
    else:
        sol = catalog(args.source, c=args.c)
        U0 = sol.U_field(grid, 0.0)
        exact = sol
    traj = evolve(U0, args.t_end, args.dt, snapshot_every=args.snapshot_every)
    manifest = write_trajectory(traj, outdir)
    drift = abs(traj.norms[-1] - traj.norms[0]) / max(traj.norms[0], 1e-300)
    summary = {"steps": len(traj.times) - 1, "norm_drift_rel": drift,
               "aborted": traj.aborted}
    if exact is not None and not traj.aborted:
        Uex = exact.U_field(grid, traj.times[-1])
        num = grid_norm_sq(traj.final - Uex)
        summary["rel_l2_error_vs_exact"] = float(np.sqrt(num / grid_norm_sq(Uex)))
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(summary))
    return 0 if not traj.aborted else 3


def cmd_willmore_check(args) -> int:
    from .hierarchy import clifford_potential, soliton_potential, willmore_bound_check
    if args.potential == "soliton":
        pot = soliton_potential(args.n)
        chk = willmore_bound_check(pot, args.n)
    else:                                   # clifford
        pot = clifford_potential()
        chk = willmore_bound_check(pot, None)
    print(json.dumps(chk.as_dict()))
    return 0 if chk.passed else 1


def cmd_verify(args) -> int:
    results = verify_mod.run_suite(args.suite)
    outdir = args.out
    RunConfig("verify", _options(args)).write(outdir)
    verify_mod.print_table(results)
    with open(outdir / "verify.json", "w") as fh:
        json.dump([r.as_dict() for r in results], fh, indent=1)
    return 0 if all(r.passed for r in results) else 1


def _options(args) -> dict:
    skip = {"func", "config"}
    out = {}
    for k, v in vars(args).items():
        if k in skip:
            continue
        if isinstance(v, Path):
            v = str(v)
        elif isinstance(v, complex):
            v = [v.real, v.imag]
        elif isinstance(v, tuple):
            v = list(v)
        out[k] = v
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spinsurf",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen-surface", help="integrate spinor data and export a mesh")
    _add_shared(g, "grid", "box", "periodic", "out")
    g.add_argument("--tol", type=float, default=None,
                   help="relative Dirac residual that warns (default 1e-3)")
    g.add_argument("--spinor", default="plane",
                   choices=("plane", "enneper", "catenoid"))
    g.add_argument("--from-dsii", choices=("s1", "s2"), default=None)
    g.add_argument("--c", type=_parse_complex, default=1 + 0j)
    g.add_argument("--t", type=float, default=0.0)
    g.add_argument("--invert", action="store_true")
    g.add_argument("--format", choices=("obj", "ply"), default="obj")
    g.set_defaults(func=cmd_gen_surface)

    s = sub.add_parser("solution", help="dump an exact DSII solution")
    _add_shared(s, "grid", "box", "periodic", "out")
    s.add_argument("--solution", choices=_REQUIRED["solution"][1],
                   help="required, as a flag or a --config key")
    s.add_argument("--c", type=_parse_complex, default=1 + 0j)
    s.add_argument("--t", type=float, default=0.0)
    s.add_argument("--a", type=float, default=1.0)
    s.add_argument("--b", type=float, default=-1.0)
    s.set_defaults(func=cmd_solution)

    e = sub.add_parser("evolve", help="split-step DSII evolution on a doubly periodic grid")
    _add_shared(e, "grid", "box", "out")
    e.add_argument("--from", dest="source", default="s1",
                   choices=("s1", "s2", "zero", "ozawa"))
    e.add_argument("--c", type=_parse_complex, default=1 + 0j)
    e.add_argument("--a", type=float, default=1.0)
    e.add_argument("--b", type=float, default=-1.0)
    e.add_argument("--t-end", type=float, default=0.1)
    e.add_argument("--dt", type=float, default=1e-4)
    e.add_argument("--snapshot-every", type=int, default=0)
    e.set_defaults(func=cmd_evolve)

    w = sub.add_parser("willmore-check", help="sphere-bound check for 1-D potentials (prints only)")
    _add_shared(w)
    w.add_argument("--potential", choices=_REQUIRED["willmore-check"][1],
                   help="required, as a flag or a --config key")
    w.add_argument("--n", type=int, default=1)
    w.set_defaults(func=cmd_willmore_check)

    v = sub.add_parser("verify", help="run a named verification suite")
    _add_shared(v, "out")
    v.add_argument("--suite", default="all",
                   choices=sorted(verify_mod.SUITES) + ["all"])
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    args = _apply_config_file(args, ap, argv)
    if args.subcommand in _REQUIRED:
        key, choices = _REQUIRED[args.subcommand]
        if getattr(args, key) not in choices:
            ap.error(f"{args.subcommand} needs --{key} (or config key {key}), "
                     f"one of {', '.join(choices)}; got {getattr(args, key)!r}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
