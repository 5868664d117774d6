import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import spinsurf.cli as cli
from spinsurf.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_gen_surface_plane(tmp_path, capsys):
    out = tmp_path / "plane"
    rc = main(["gen-surface", "--spinor", "plane", "--grid", "32x32",
               "--out", str(out)])
    assert rc == 0
    assert (out / "surface.obj").exists()
    meta = json.loads((out / "surface.obj.json").read_text())
    assert meta["willmore"] == 0.0
    assert meta["conformality_residual"] < 1e-10
    assert (out / "resolved_config.json").exists()


def test_gen_surface_from_dsii_and_invert(tmp_path):
    out1 = tmp_path / "graph"
    rc = main(["gen-surface", "--from-dsii", "s1", "--c", "1", "--t", "0",
               "--grid", "48x48", "--box=-2:2:-2:2", "--out", str(out1)])
    assert rc == 0
    meta = json.loads((out1 / "surface.obj.json").read_text())
    assert "x4_range" in meta            # R^4 graph exported with x4 dropped
    assert meta["willmore"] > 0

    out2 = tmp_path / "inv"
    rc = main(["gen-surface", "--from-dsii", "s1", "--c", "1", "--t", "0",
               "--grid", "48x48", "--box=-2:2:-2:2", "--invert",
               "--out", str(out2)])
    assert rc == 0
    meta2 = json.loads((out2 / "surface.obj.json").read_text())
    assert "flagged" in meta2


def test_solution_dump(tmp_path):
    out = tmp_path / "sol"
    rc = main(["solution", "--solution", "s1", "--c", "i", "--t", "-0.5",
               "--grid", "32x32", "--box=-3:3:-3:3", "--out", str(out)])
    assert rc == 0
    assert (out / "U.csv").exists()
    assert (out / "V.csv").exists()
    events = json.loads((out / "events.json").read_text())
    assert len(events) == 1
    assert events[0]["t_sing"] == pytest.approx(-0.5)


def test_solution_ozawa(tmp_path):
    out = tmp_path / "oz"
    rc = main(["solution", "--solution", "ozawa", "--a", "1", "--b", "-1",
               "--grid", "257x257", "--box=-40:40:-40:40", "--out", str(out)])
    assert rc == 0
    info = json.loads((out / "events.json").read_text())
    assert info["blowup_time"] == pytest.approx(1.0)
    assert info["norm_sq"] == pytest.approx(2 * np.pi, rel=2e-2)


def test_solution_ozawa_on_the_default_box(tmp_path, capsys):
    # the datum decays only like 2 / r^2: on the default box +-3 the norm is
    # qualified, not refused
    out = tmp_path / "oz"
    assert main(["solution", "--solution", "ozawa", "--a", "1", "--b", "-1",
                 "--grid", "33x33", "--out", str(out)]) == 0
    info = json.loads((out / "events.json").read_text())
    assert sorted(info) == ["blowup_time", "norm_sq", "tail_bound"]
    assert info["blowup_time"] == pytest.approx(1.0)
    assert capsys.readouterr().out.rstrip().endswith("[box too small for a decayed norm]")


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("solution", ["s1", "ozawa"])
@pytest.mark.parametrize("box", ["--box=-1:1:0:2", "--box=1:3:1:3"], ids=["origin-on-edge", "beside"])
def test_solution_on_a_box_not_around_the_origin(solution, box, tmp_path, capsys):
    # no sub-box about z = 0 fits: the raw box integral, qualified, and no tail bound,
    # which events.json writes as null
    out = tmp_path / solution
    assert main(["solution", "--solution", solution, "--grid", "33x33", box,
                 "--out", str(out)]) == 0
    line = capsys.readouterr().out.rstrip()
    assert "[box too small for a decayed norm]" in line
    events = _strict_json((out / "events.json").read_text())
    if solution == "ozawa":
        assert events["tail_bound"] is None and events["norm_sq"] > 0
    else:
        assert "tail bound inf" in line and events == []


def test_solution_ozawa_without_blowup_writes_strict_json(tmp_path):
    out = tmp_path / "oz"
    assert main(["solution", "--solution", "ozawa", "--a", "1", "--b", "0",
                 "--grid", "33x33", "--out", str(out)]) == 0
    assert _strict_json((out / "events.json").read_text())["blowup_time"] is None


def _keys_sorted(obj) -> bool:
    """Whether every object in obj, at any depth, has its keys in sorted order."""
    if isinstance(obj, dict):
        return list(obj) == sorted(obj) and all(map(_keys_sorted, obj.values()))
    return not isinstance(obj, list) or all(map(_keys_sorted, obj))


def test_every_command_writes_strict_json(tmp_path, capsys):
    # every JSON file and every printed JSON line of every command parses with NaN
    # and Infinity refused; resolved configs, node-CSV and mesh sidecars keep their
    # keys sorted
    runs = {
        "obj": ["gen-surface", "--grid", "33x33"],
        "ply": ["gen-surface", "--from-dsii", "s2", "--c", "12", "--t", "1", "--invert",
                "--grid", "33x33", "--format", "ply"],
        "s2": ["solution", "--solution", "s2", "--c", "12", "--t", "1", "--grid", "33x33",
               "--box=-2:2:-2:2"],
        "oz": ["solution", "--solution", "ozawa", "--b", "0", "--grid", "33x33"],
        "ev": ["evolve", "--grid", "32x32", "--box=-10:10:-10:10", "--t-end", "0.01",
               "--dt", "1e-3", "--snapshot-every", "3"],
        "verify": ["verify", "--suite", "symbolic"],
    }
    runs["again"] = ["solution", "--config", str(tmp_path / "s2" / "resolved_config.json")]
    printed = []
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0, name
        printed += capsys.readouterr().out.splitlines()
    assert main(["willmore-check", "--potential", "soliton"]) == 0
    printed += capsys.readouterr().out.splitlines()

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    decoder = json.JSONDecoder(parse_constant=refuse)
    # the Ozawa line (its JSON, then a qualifier), the evolve summary and willmore-check
    lines = [decoder.raw_decode(line)[0] for line in printed if line.startswith("{")]
    assert len(lines) == 3 and lines[0]["blowup_time"] is None
    files = {p.relative_to(tmp_path).as_posix(): decoder.decode(p.read_text())
             for p in sorted(tmp_path.rglob("*.json"))}
    assert len(files) == 25
    assert files["oz/events.json"]["blowup_time"] is None
    assert files["s2/U.csv.json"]["masked_nodes"] == [[16, 16]]
    assert files["again/U.csv.json"] == files["s2/U.csv.json"]
    sorted_kinds = ("resolved_config.json", ".csv.json", ".obj.json", ".ply.json")
    checked = [k for k in files if k.endswith(sorted_kinds)]
    assert len(checked) == 19 and all(_keys_sorted(files[k]) for k in checked)


def test_evolve_zero(tmp_path):
    out = tmp_path / "evz"
    rc = main(["evolve", "--from", "zero", "--grid", "32x32",
               "--box=-5:5:-5:5", "--t-end", "0.01", "--dt", "1e-3",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 10
    norms = (out / "norms.csv").read_text().splitlines()
    assert all(float(line.split(",")[1]) == 0.0 for line in norms[1:])


def test_evolve_s1_summary(tmp_path):
    out = tmp_path / "evs"
    rc = main(["evolve", "--from", "s1", "--c", "1", "--grid", "128x128",
               "--box=-30:30:-30:30", "--t-end", "0.01", "--dt", "5e-4",
               "--snapshot-every", "10", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rel_l2_error_vs_exact"] < 0.05
    assert summary["norm_drift_rel"] < 1e-6


def test_evolve_s1_error_without_snapshots(tmp_path):
    out = tmp_path / "evs"
    rc = main(["evolve", "--from", "s1", "--c", "1", "--grid", "64x64",
               "--box=-20:20:-20:20", "--t-end", "0.005", "--dt", "5e-4",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rel_l2_error_vs_exact"] < 0.05
    assert "exact_masked_nodes" not in summary


def test_evolve_up_to_a_singular_instant_patches_the_exact_pole(tmp_path):
    # s1 with c = -i is singular at t = 1/2, where the exact field masks its pole:
    # the error is taken against the field with that node set to its neighbour mean
    from spinsurf import catalog, evolve, make_grid
    from test_grid import neighbor_mean_patched
    out = tmp_path / "ev"
    rc = main(["evolve", "--from", "s1", "--c=-1i", "--grid", "64x64", "--box=-3:3:-3:3",
               "--t-end", "0.5", "--dt", "1e-2", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exact_masked_nodes"] == 1
    g = make_grid((-3, 3, -3, 3), (64, 64), True)
    sol = catalog("s1", c=-1j)
    final = evolve(sol.U_field(g, 0.0), 0.5, 1e-2).final.values
    Uex = sol.U_field(g, 0.5)
    ref = neighbor_mean_patched(Uex.values, Uex.mask)
    want = np.sqrt(np.sum(np.abs(final - ref) ** 2) / np.sum(np.abs(ref) ** 2))
    assert summary["rel_l2_error_vs_exact"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("argv, why", [
    (["gen-surface", "--grid", "3x3"], "resolution must be >= 4 per axis"),
    (["evolve", "--grid", "3x3"], "resolution must be >= 4 per axis"),
    (["solution", "--solution", "s1", "--box=1:0:0:1"], "degenerate bounds"),
    (["gen-surface", "--box=0:1:2:2"], "degenerate bounds"),
    (["solution", "--solution", "ozawa", "--a", "0"], "ozawa: a must be nonzero"),
    (["evolve", "--from", "ozawa", "--a", "0"], "ozawa: a must be nonzero"),
], ids=["gen-surface-grid", "evolve-grid", "solution-box", "gen-surface-box",
        "solution-ozawa", "evolve-ozawa"])
def test_bad_grid_box_or_datum_is_refused_before_any_file(argv, why, tmp_path, capsys):
    # argparse's one-line error and exit code 2, not a traceback after the config write
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert f"spinsurf: error: {why}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["solution", "--solution", "s1", "--t", "nan"], None),
    (["solution", "--solution", "s1", "--c", "nan"], None),
    (["solution", "--solution", "ozawa", "--a", "nan"], None),
    (["solution", "--solution", "ozawa", "--b", "inf"], None),
    (["solution", "--solution", "s1", "--box=-inf:inf:-1:1"], None),
    (["gen-surface", "--from-dsii", "s1", "--t", "nan"], None),
    (["gen-surface", "--tol", "nan"], None),
    (["evolve", "--from", "s1", "--c", "nan"], None),
    (["evolve", "--from", "ozawa", "--a", "inf"], None),
    (["solution", "--solution", "s1"], '{"t": NaN}'),
], ids=["solution-t", "solution-c", "solution-ozawa-a", "solution-ozawa-b", "solution-box",
        "gen-surface-t", "gen-surface-tol", "evolve-c", "evolve-ozawa-a", "config-nan"])
def test_non_finite_numbers_are_refused_before_any_file(argv, config, tmp_path, capsys):
    # argparse's error and exit code 2 where the number is read, not a NaN mesh, a
    # "blow-up" or a MaskError traceback after the CSVs
    out = tmp_path / "o"
    if config is not None:
        (tmp_path / "c.json").write_text(config)
        argv = argv + ["--config", str(tmp_path / "c.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--grid", "16x16", "--out", str(out)])
    assert exc.value.code == 2
    assert "is not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dt", ["0.03", "0.3", "0"])
def test_evolve_refuses_a_span_of_no_whole_number_of_steps(tmp_path, dt):
    # 0.1 / 0.03 and 0.1 / 0.3 steps, and no step at all: argparse's error, exit
    # code 2, and nothing written
    out = tmp_path / "ev"
    run = subprocess.run([sys.executable, "-m", "spinsurf.cli", "evolve", "--from", "s1",
                          "--grid", "32x32", "--box=-5:5:-5:5", "--t-end", "0.1",
                          "--dt", dt, "--out", str(out)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 2
    why = "needs dt > 0" if dt == "0" else "not a whole number >= 1"
    assert "spinsurf: error: t0=0 to t_end=0.1 " in run.stderr and why in run.stderr
    assert f"dt={dt}" in run.stderr and "Traceback" not in run.stderr
    assert not (out / "resolved_config.json").exists()
    assert not (out / "summary.json").exists()


def test_evolve_refuses_a_step_count_too_large_to_tell_whole(tmp_path):
    # 1e297 steps: within 1e-9 n of a whole number whatever the span, and no run
    # would finish them; in a subprocess, so that a regression times out
    out = tmp_path / "o"
    run = subprocess.run([sys.executable, "-m", "spinsurf.cli", "evolve", "--from", "s1",
                          "--grid", "16x16", "--t-end", "1e-3", "--dt", "1e-300",
                          "--out", str(out)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 2
    assert ("spinsurf: error: t0=0 to t_end=0.001 is 1e+297 steps of dt=1e-300: "
            "n=1e+297 ") in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_willmore_check_refuses_a_soliton_count_below_one(via, n, tmp_path, capsys):
    # soliton_potential(N) is the equality case of the bound only for N >= 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": n}))
    extra = ["--n", str(n)] if via == "flag" else ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(["willmore-check", "--potential", "soliton"] + extra)
    assert exc.value.code == 2
    assert f"--n must be >= 1, got {n}" in capsys.readouterr().err


def test_gen_surface_outputs_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["gen-surface", "--spinor", "enneper", "--grid", "24x24",
              "--format", "ply", "--out", str(out)])
    for name in ("surface.ply", "surface.ply.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_surface_catenoid_periodic_axis(tmp_path):
    out = tmp_path / "cat"
    rc = main(["gen-surface", "--spinor", "catenoid", "--periodic", "y",
               "--grid", "32x64", "--box=-1.2:1.2:0:6.2831853",
               "--out", str(out), "--format", "ply"])
    assert rc == 0
    meta = json.loads((out / "surface.ply.json").read_text())
    assert meta["n_triangles"] == 2 * 31 * 64      # stitched strip
    assert meta["conformality_residual"] < 2e-2


def test_gen_surface_accepts_the_inverted_catenoid_across_its_seam(tmp_path):
    # inversion keeps a closed map closed: each row's seam step stays within its
    # neighbours' (ratio 0.995-0.996 here), though the steps near the pole grow
    out = tmp_path / "cat-inv"
    rc = main(["gen-surface", "--spinor", "catenoid", "--periodic", "y", "--invert",
               "--grid", "32x64", "--box=-1.2:1.2:0:6.2831853", "--out", str(out)])
    assert rc == 0 and (out / "surface.obj").exists()


@pytest.mark.parametrize("periodic", ["both", "x", "y"])
@pytest.mark.parametrize("source", [["--spinor", "enneper"], ["--from-dsii", "s1"],
                                    ["--spinor", "enneper", "--invert"],
                                    ["--from-dsii", "s1", "--invert"]],
                         ids=["enneper", "s1-graph", "enneper-invert", "s1-graph-invert"])
def test_gen_surface_refuses_a_map_that_does_not_close_across_its_seam(source, periodic,
                                                                        tmp_path, capsys):
    # Enneper and the s1 graph do not close up along either axis: their last node
    # steps back across the box to the first.  Nor do their inversions, whose steps
    # near the pole outgrow the seam's gap.  Like any bad input, one error line,
    # exit 2 and no file, the resolved config included
    out = tmp_path / "m"
    with pytest.raises(SystemExit) as exc:
        main(["gen-surface", *source, "--periodic", periodic, "--grid", "64x64",
              "--out", str(out)])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    axis = "y" if periodic == "y" else "x"
    assert len(errors) == 1 and f"does not close up across its {axis} seam" in errors[0]
    assert not out.exists()


def test_evolve_ozawa_short(tmp_path, capsys):
    out = tmp_path / "oz"
    rc = main(["evolve", "--from", "ozawa", "--a", "1", "--b", "-1",
               "--grid", "64x64", "--box=-20:20:-20:20", "--t-end", "0.01",
               "--dt", "1e-3", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "z-side blow-up time t = T/2 = 0.5" in text


@pytest.mark.parametrize("n", [10**200, 10**400], ids=["1e200", "1e400"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_willmore_check_refuses_a_soliton_count_whose_bound_overflows(via, n, tmp_path,
                                                                      capsys):
    # 4 pi N^2 is not a finite float: U_N^2 would overflow (a MaskError), or N would not
    # convert to a float at all (an OverflowError)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": n}))
    extra = ["--n", str(n)] if via == "flag" else ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(["willmore-check", "--potential", "soliton"] + extra)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["spinsurf: error: --n is too large: its bound 4 pi N^2 is not a finite "
                      "float"]


@pytest.mark.parametrize("argv", [
    ["solution", "--solution", "s1", "--c", "1e300"],
    ["evolve", "--from", "s1", "--c", "1e200", "--t-end", "1e-3", "--dt", "1e-3"],
], ids=["solution", "evolve"])
def test_an_exact_datum_whose_rho_overflows_is_refused_before_any_file(argv, tmp_path,
                                                                        capsys):
    # rho = |z|^2 + |f|^2 overflows on every node: not an all-zero U.csv with
    # norm_sq=0, nor a ZeroDivisionError in run_summary after manifest.json
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--grid", "16x16", "--out", str(out)])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["spinsurf: error: rho = |z|^2 + |f|^2 is not finite on the grid at t=0"]
    assert not out.exists()


def test_willmore_check_cli(capsys):
    rc = main(["willmore-check", "--potential", "soliton", "--n", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert data["pass"] is True
    assert data["value"] == pytest.approx(16 * np.pi, abs=1e-6)


def test_willmore_check_writes_no_file(tmp_path, monkeypatch, capsys):
    # willmore-check has no --out: it prints, and main writes it no resolved config
    monkeypatch.chdir(tmp_path)
    assert main(["willmore-check", "--potential", "soliton", "--n", "1"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_verify_suite_exit_code(tmp_path):
    rc = main(["verify", "--suite", "reduction", "--out", str(tmp_path / "v")])
    assert rc == 0
    results = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert all(r["pass"] for r in results)


def test_verify_json_is_strict_with_non_finite_values(tmp_path, monkeypatch):
    # a NaN value (no event found) and an inf one (an order ratio over a zero fine
    # residual) both fail, and verify.json writes them as null, not NaN/Infinity
    from spinsurf import verify
    records = [verify.CheckResult("no event", np.nan, 0.0, 1.0),
               verify._order("ratio", coarse=1.0, fine=0.0, lo=3.0, hi=5.0)]
    monkeypatch.setitem(verify.SUITES, "reduction", lambda: records)
    assert main(["verify", "--suite", "reduction", "--out", str(tmp_path / "v")]) == 1

    def reject(name):
        raise ValueError(f"verify.json holds {name}")

    text = (tmp_path / "v" / "verify.json").read_text()
    results = json.loads(text, parse_constant=reject)
    assert [(r["name"], r["value"], r["pass"]) for r in results] == [
        ("no event", None, False), ("ratio", None, False)]


def test_unknown_suite_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope", "--out", str(tmp_path / "v")])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_suite_names_are_verify_suites():
    # cli lists the suites without importing verify
    from spinsurf import verify
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))


_LOADED = """
import json, sys
import spinsurf, spinsurf.cli
lazy = ("spinsurf.verify", "spinsurf.hierarchy")
seen = {"import": [m for m in lazy if m in sys.modules]}
for name, argv in (("gen-surface", ["gen-surface", "--grid", "16x16"]),
                   ("verify", ["verify", "--suite", "reduction"])):
    assert spinsurf.cli.main(argv + ["--out", sys.argv[1] + "/" + name]) == 0
    seen[name] = [m for m in lazy if m in sys.modules]
print(json.dumps(seen))
"""


def test_verify_and_hierarchy_load_only_when_run(tmp_path):
    run = subprocess.run([sys.executable, "-c", _LOADED, str(tmp_path)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.strip().splitlines()[-1])
    assert seen == {"import": [], "gen-surface": [],
                    "verify": ["spinsurf.verify", "spinsurf.hierarchy"]}


_WILLMORE = """
import json, sys
import spinsurf.cli
rc = spinsurf.cli.main(["verify", "--suite", "willmore", "--out", sys.argv[1]])
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_verify_willmore_runs_without_scipy(tmp_path):
    run = subprocess.run([sys.executable, "-c", _WILLMORE, str(tmp_path)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.strip().splitlines()[-1]) == [0, []]


def test_evolve_outputs_do_not_depend_on_blas_threads(tmp_path):
    # np.vdot's zdotc splits a long sum over BLAS threads, and its rounding with it
    files = {}
    for n in ("1", "2"):
        out = tmp_path / f"threads{n}"
        run = subprocess.run([sys.executable, "-m", "spinsurf.cli", "evolve", "--from", "s1",
                              "--c", "1", "--grid", "128x128", "--box=-15:15:-15:15",
                              "--t-end", "0.001", "--dt", "1e-4", "--out", str(out)],
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                                  "OPENBLAS_NUM_THREADS": n})
        assert run.returncode == 0, run.stderr
        files[n] = {f: (out / f).read_bytes()
                    for f in ("norms.csv", "manifest.json", "summary.json")}
    assert files["1"] == files["2"]


def test_reproducible_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["solution", "--solution", "s1", "--c", "1", "--t", "0.3",
              "--grid", "24x24", "--box=-2:2:-2:2", "--out", str(out)])
    assert (a / "U.csv").read_bytes() == (b / "U.csv").read_bytes()
    assert (a / "V.csv").read_bytes() == (b / "V.csv").read_bytes()


def test_config_file_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gird": [24, 24], "t": 0.3, "seed": 3}))
    out = tmp_path / "c"
    with pytest.raises(SystemExit) as exc:
        main(["solution", "--solution", "s1", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown config key(s)" in err and "gird, seed" in err
    assert not out.exists()


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": [24, 24], "box": [-2, 2, -2, 2],
                               "t": 0.3}))
    out = tmp_path / "c"
    rc = main(["solution", "--solution", "s1", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["options"]["grid"] == [24, 24]
    assert resolved["options"]["t"] == 0.3


def test_config_file_never_overrides_an_explicit_flag(tmp_path):
    # --from stores to source: a config key source must not win over it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"source": "zero", "c": [2.0, 0.0], "dt": 1e-3}))
    out = tmp_path / "e"
    rc = main(["evolve", "--from", "s1", "--c", "1", "--grid", "16x16", "--t-end", "2e-3",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    opts = json.loads((out / "resolved_config.json").read_text())["options"]
    assert opts["source"] == "s1" and opts["c"] == [1.0, 0.0] and opts["dt"] == 1e-3
    assert "rel_l2_error_vs_exact" in json.loads((out / "summary.json").read_text())


def test_config_file_reads_c_as_re_im(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": [2.0, 0.5]}))
    out = tmp_path / "c"
    assert main(["solution", "--solution", "s1", "--grid", "16x16", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["options"]["c"] == [2.0, 0.5]


def test_config_file_rejects_c_that_is_not_re_im(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": [2.0, 0.5, 1.0]}))
    with pytest.raises(SystemExit) as exc:
        main(["solution", "--solution", "s1", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert "config key c" in capsys.readouterr().err


def test_resolved_config_round_trips_through_config(tmp_path, monkeypatch):
    # a run's own resolved_config.json, fed back with a new --out, repeats the run
    monkeypatch.chdir(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solution", "--solution", "s1", "--c", "2+0.5i", "--t", "0.3",
                 "--grid", "24x20", "--box=-2:2:-1.5:1.5", "--periodic", "x",
                 "--out", str(a)]) == 0
    assert main(["solution", "--solution", "s1", "--config", str(a / "resolved_config.json"),
                 "--out", str(b)]) == 0
    for name in ("U.csv", "V.csv", "events.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    first, again = (json.loads((d / "resolved_config.json").read_text()) for d in (a, b))
    assert again["options"].pop("out") == str(b)
    first["options"].pop("out")
    assert again == first
    # the recorded out is not read back: without --out the repeat goes to out/
    a_csv = (a / "U.csv").read_bytes()
    assert main(["solution", "--solution", "s1",
                 "--config", str(a / "resolved_config.json")]) == 0
    assert (a / "U.csv").read_bytes() == a_csv
    assert (tmp_path / "out" / "U.csv").read_bytes() == a_csv


def test_config_supplies_the_required_options(tmp_path, monkeypatch, capsys):
    # a solution run's resolved_config.json replays with no --solution flag
    monkeypatch.chdir(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solution", "--solution", "s2", "--c", "12", "--t", "1",
                 "--grid", "17x17", "--out", str(a)]) == 0
    assert main(["solution", "--config", str(a / "resolved_config.json"),
                 "--out", str(b)]) == 0
    for name in ("U.csv", "V.csv", "events.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    cfg = tmp_path / "w.json"
    cfg.write_text(json.dumps({"potential": "clifford"}))
    assert main(["willmore-check", "--config", str(cfg)]) == 0
    capsys.readouterr()
    # with neither the flag nor a config key, or with a value outside the choices: exit 2
    cfg.write_text(json.dumps({"grid": [16, 16]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"solution": "s3"}))
    for argv in (["solution", "--out", str(tmp_path / "c")],
                 ["solution", "--config", str(cfg), "--out", str(tmp_path / "c")],
                 ["solution", "--config", str(bad), "--out", str(tmp_path / "c")],
                 ["willmore-check"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"needs --{'potential' if argv[0] == 'willmore-check' else 'solution'}" in err
    assert not (tmp_path / "c").exists()


def test_config_file_from_another_command_is_rejected(tmp_path, capsys):
    a = tmp_path / "v"
    assert main(["verify", "--suite", "reduction", "--out", str(a)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["solution", "--solution", "s1", "--config", str(a / "resolved_config.json"),
              "--out", str(tmp_path / "s")])
    assert exc.value.code == 2
    assert "records a 'verify' run" in capsys.readouterr().err


def test_check_results_hold_python_types():
    # a record holds Python floats and bools whatever numpy scalars a check hands in
    # (e.g. the evolver's norm drift), and a bool check's value reads 1.0
    from spinsurf.verify import CheckResult, _near, _order
    for r in (CheckResult("x", np.float64(1e-4), 0, 1e-3),
              _near("y", np.float64(2.0), np.float64(2.0), 1e-2),
              _order("z", np.float64(5.0), np.float64(1.25), np.float64(3.0), 5.0),
              CheckResult("w", np.bool_(True), 1, 1)):
        d = r.as_dict()
        assert type(d["pass"]) is bool and d["pass"] is True
        assert all(type(d[k]) is float for k in ("value", "lo", "hi"))
        json.dumps(d)


def test_check_window_is_inclusive_and_fails_nan_and_a_zero_fine_residual():
    from spinsurf.verify import CheckResult, _order
    lo, hi = 3.0, 5.0
    assert CheckResult("lo", lo, lo, hi).passed and CheckResult("hi", hi, lo, hi).passed
    for value in (np.nan, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
        assert not CheckResult("x", value, lo, hi).passed
        assert CheckResult("x", value, lo, hi).as_dict()["pass"] is False
    # a zero fine residual measures no order (a floor rule passed its 1e300 ratio)
    r = _order("ratio", coarse=1.0, fine=0.0, lo=3.0, hi=5.0)
    assert not r.passed and r.detail == "resid 1 -> 0"


def test_timed_suite_times_each_check_on_its_own():
    # each record's runtime_s is the time since the record made before it (or since
    # the suite started), whatever order the suite returns them in
    from spinsurf.verify import CheckResult, _timed

    @_timed
    def toy():
        time.sleep(0.05)
        first = CheckResult("first", 0, 0, 1)
        time.sleep(0.2)
        return [CheckResult("second", 0, 0, 1), first]

    t0 = time.perf_counter()
    second, first = toy()
    wall = time.perf_counter() - t0
    assert 0.05 <= first.runtime_s < 0.15
    assert 0.2 <= second.runtime_s < 0.3
    assert first.runtime_s + second.runtime_s <= wall


_SOL = ["solution", "--solution", "s1", "--grid", "16x16"]
_EVOLVE = ["evolve", "--from", "zero", "--grid", "16x16", "--t-end", "0.01", "--dt", "1e-3"]


@pytest.mark.parametrize("argv, config, want", [
    (_SOL, {"c": "2+1i"}, {"c": [2.0, 1.0]}),
    (_SOL, {"t": "0.25"}, {"t": 0.25}),
    (_SOL, {"t": "soon"}, None),
    (["verify"], {"suite": "nope"}, None),
    (["gen-surface", "--grid", "16x16"], {"format": "stl"}, None),
    (["gen-surface", "--grid", "16x16"], {"spinor": "torus"}, None),
    (_EVOLVE, {"snapshot_every": 2.5}, None),
    (_EVOLVE, {"snapshot_every": True}, None),
    (_EVOLVE, {"snapshot_every": 5}, {"snapshot_every": 5}),
    (["solution", "--solution", "s1"], {"grid": [16.5, 16]}, None),
    (["solution", "--solution", "s1"], {"grid": [16, True]}, None),
    (["solution", "--solution", "s1"], {"grid": [16, 16, 16]}, None),
    (["solution", "--solution", "s1"], {"grid": [16, 17]}, {"grid": [16, 17]}),
    (_SOL, {"box": [-2, 2, -2, "2"]}, None),
    (_SOL, {"box": [-2, 2, -2, 2]}, {"box": [-2.0, 2.0, -2.0, 2.0]}),
    (_SOL, {"t": 1}, {"t": 1.0}),
    (_SOL, {"t": False}, None),
    (_SOL, {"t": None}, None),
    (_SOL, {"c": 2}, {"c": [2.0, 0.0]}),
    (_SOL, {"c": [2, 1]}, {"c": [2.0, 1.0]}),
    (_SOL, {"c": [2, 1, 0]}, None),
    (_SOL, {"c": True}, None),
    (["gen-surface", "--grid", "16x16"], {"tol": None}, {"tol": None}),
    (["gen-surface", "--grid", "16x16"], {"invert": 1}, None),
    (["gen-surface", "--grid", "16x16"], {"spinor": None}, None),
], ids=["c", "t", "t-unparsed", "suite", "format", "spinor",
        "snapshot-float", "snapshot-bool", "snapshot-int", "grid-float", "grid-bool",
        "grid-three", "grid-ints", "box-string", "box-ints", "t-int", "t-bool", "t-null",
        "c-number", "c-pair", "c-triple", "c-bool", "tol-null", "invert-int",
        "spinor-null"])
def test_config_values_take_their_flags_type_and_choices(argv, config, want, tmp_path, capsys):
    # a config string reads as its flag's string reads, and any other value passes
    # only as what the flag's parser could return; a value that the flag would
    # refuse is argparse's error, exit code 2, before any file is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    argv = argv + ["--config", str(cfg), "--out", str(out)]
    if want is None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"config key {next(iter(config))}" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert main(argv) == 0
        opts = json.loads((out / "resolved_config.json").read_text())["options"]
        assert {k: opts[k] for k in want} == want
        assert all(type(opts[k]) is type(v) for k, v in want.items())


@pytest.mark.parametrize("via", ["flag", "config"])
def test_evolve_refuses_a_negative_snapshot_count(via, tmp_path, capsys):
    # (k + 1) % -1 == 0 would write a snapshot at every step
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"snapshot_every": -1}))
    out = tmp_path / "ev"
    extra = ["--snapshot-every", "-1"] if via == "flag" else ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--from", "zero", "--grid", "16x16", "--t-end", "0.01", "--dt", "1e-3",
              "--out", str(out)] + extra)
    assert exc.value.code == 2
    assert "--snapshot-every must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solution", "--solution", "s1", "--tol", "1"],
    ["evolve", "--tol", "1"],
    ["evolve", "--periodic", "x"],
    ["willmore-check", "--potential", "soliton", "--tol", "1"],
    ["willmore-check", "--potential", "soliton", "--grid", "64x64"],
    ["willmore-check", "--potential", "soliton", "--box=-1:1:-1:1"],
    ["willmore-check", "--potential", "soliton", "--periodic"],
    ["willmore-check", "--potential", "soliton", "--out", "w"],
    ["verify", "--suite", "reduction", "--tol", "1"],
    ["verify", "--suite", "reduction", "--grid", "64x64"],
    ["verify", "--suite", "reduction", "--box=-1:1:-1:1"],
    ["verify", "--suite", "reduction", "--periodic", "y"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, key", [
    (["evolve"], "tol"),
    (["evolve"], "periodic"),
    (["solution", "--solution", "s1"], "tol"),
    (["verify", "--suite", "reduction"], "grid"),
    (["willmore-check", "--potential", "soliton"], "out"),
    (["solution", "--solution", "s1", "--grid", "16x16"], "config"),
])
def test_config_file_with_a_removed_key_is_rejected(argv, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "x"}))
    out = tmp_path / "c"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(cfg)] + (["--out", str(out)] if key != "out" else []))
    assert exc.value.code == 2
    assert f"unknown config key(s) in {cfg}: {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, why", [
    (None, "cannot read --config"),
    ("{not json", "cannot read --config"),
    ("[1, 2]", "is not a JSON object of options"),
    ('{"subcommand": "solution", "options": [1, 2]}', "is not a JSON object of options"),
], ids=["missing", "not-json", "list", "options-list"])
def test_bad_config_file_is_refused_by_name(text, why, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["solution", "--solution", "s1", "--grid", "16x16", "--config", str(cfg),
              "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "spinsurf: error: " in err and why in err and str(cfg) in err
    assert not out.exists()


@pytest.mark.parametrize("argv, keys", [
    (["gen-surface", "--grid", "16x16"],
     "box c format from_dsii grid invert out periodic spinor subcommand t tol"),
    (["solution", "--solution", "s1", "--grid", "16x16"],
     "a b box c grid out periodic solution subcommand t"),
    (["evolve", "--from", "zero", "--grid", "16x16", "--t-end", "2e-3", "--dt", "1e-3"],
     "a b box c dt grid out snapshot_every source subcommand t_end"),
    (["verify", "--suite", "reduction"], "out subcommand suite"),
])
def test_resolved_config_lists_only_the_options_read(argv, keys, tmp_path):
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert sorted(resolved["options"]) == keys.split()


def test_gen_surface_keeps_periodic_and_tol(tmp_path):
    out = tmp_path / "cat"
    rc = main(["gen-surface", "--spinor", "catenoid", "--periodic", "y", "--tol", "1e-2",
               "--grid", "16x32", "--box=-1.2:1.2:0:6.2831853", "--out", str(out)])
    assert rc == 0
    opts = json.loads((out / "resolved_config.json").read_text())["options"]
    assert opts["periodic"] == "y" and opts["tol"] == 1e-2
    assert json.loads((out / "surface.obj.json").read_text())["n_triangles"] == 2 * 15 * 32


def _precheck(argv, out):
    """The Dirac pre-check's warning texts from one gen-surface run, and whether the
    run went on to write its mesh (on a coarse grid the path defect refuses it: exit
    code 2, and no file written)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            wrote = main(["gen-surface", *argv, "--out", str(out)]) == 0
        except SystemExit as exc:
            assert exc.code == 2 and not out.exists()
            wrote = False
    return [str(w.message) for w in caught if "Dirac" in str(w.message)], wrote


# the largest Dirac residual relative to the spinors' size, against the 1e-3 level:
# s2 at 16^2 2.1e-3 (Dvee), the catenoid at 16^2 2.7e-3, s2 at 32^2 4.9e-4, Enneper
# exact; --tol 1e-2 is above each.  The pre-check runs before the integration,
# whose path defect then refuses both 16^2 data on the default box
_S2 = ["--from-dsii", "s2", "--c", "12"]
_CAT = ["--spinor", "catenoid"]


@pytest.mark.parametrize("argv, warned, wrote", [
    (_S2 + ["--grid", "16x16"], "D 0, Dvee 0.64", False),
    (_CAT + ["--grid", "16x16"], "D 0.00865, Dvee 0.00865", False),
    (_S2 + ["--grid", "16x16", "--tol", "1e-2"], None, False),
    (_CAT + ["--grid", "16x16", "--tol", "1e-2"], None, False),
    (_S2 + ["--grid", "16x16", "--box=-1:1:-1:1"], "D 0, Dvee 0.0711", True),
    (_S2 + ["--grid", "32x32"], None, True),
    (["--spinor", "enneper", "--grid", "16x16"], None, True),
    (["--spinor", "enneper", "--grid", "32x32"], None, True),
])
def test_gen_surface_dirac_precheck_warns_above_its_level(argv, warned, wrote, tmp_path):
    want = [] if warned is None else [f"Dirac residuals large before integration: {warned}"]
    assert _precheck(argv, tmp_path / "m") == (want, wrote)


@pytest.mark.parametrize("argv", [_CAT + ["--grid", "32x32"], _S2 + ["--grid", "16x16"]],
                         ids=["catenoid-32", "s2-16"])
def test_gen_surface_refuses_a_path_defect_like_any_bad_input(argv, tmp_path):
    # the path-defect gate (0.02 max|x^k_z|) refuses both: argparse's exit code 2 and
    # one error line naming the defect, not a traceback after resolved_config.json
    out = tmp_path / "m"
    run = subprocess.run([sys.executable, "-m", "spinsurf.cli", "gen-surface", *argv,
                          "--out", str(out)], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 2, run.stderr
    errors = [line for line in run.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("spinsurf: error: path-dependence defect ")
    assert "Traceback" not in run.stderr
    assert not out.exists()


def test_gen_surface_measures_an_r3_datum_once(tmp_path, monkeypatch):
    # at U = 0, D and Dvee give the same residual to the bit, so phi = psi is
    # measured once; an R^4 datum is measured for both
    from spinsurf import dirac_residual_norm
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("vee", False))
        return dirac_residual_norm(*args, **kwargs)
    for name, mod in list(sys.modules.items()):
        if name.startswith("spinsurf") and getattr(mod, "dirac_residual_norm", None) \
                is dirac_residual_norm:
            monkeypatch.setattr(mod, "dirac_residual_norm", counted)
    assert _precheck(_CAT + ["--grid", "16x16"], tmp_path / "cat")[0] != []
    assert calls == [False]
    calls.clear()
    assert _precheck(_S2 + ["--grid", "16x16"], tmp_path / "s2")[0] != []
    assert calls == [False, True]
    g = cli.make_grid((-3.0, 3.0, -3.0, 3.0), (16, 16))
    psi, zero = cli.named_spinor("catenoid", g), cli.constant_field(g, 0.0)
    assert dirac_residual_norm(zero, psi, interior=1) == \
        dirac_residual_norm(zero, psi, interior=1, vee=True)


# SHA-256 of the mesh files (not the JSON sidecars) as written at commit 3b3a32b;
# a change to how spinors, S-matrices or meshes are stored must keep every byte
_MESH_SHA256 = {
    ("enneper", "obj"): "142b4e4ace3a429ac4188134c3a4522a732213a13c7c76c9f540d7a7477a6310",
    ("enneper", "ply"): "4f60a128ccae57fa27a0a60a39a3c5a55c31df57b30b972ddd641d660910a690",
    ("s1-invert", "obj"): "0eb09f3d78578e2100e337021bc6fef26de5ccb3730cfe4ba54186fdb866407d",
    ("s1-invert", "ply"): "69a7d53f8227118cbab74704361fe5c6fed7b267f826b0ac393a2ea9a4ec5f8c",
}


# SHA-256 of the JSON sidecars of the same runs and of the s1 graph: path_defect,
# conformality_residual and the curvature figures must keep every bit when the
# arithmetic that forms them changes.  Recorded again when the three figures came
# to read one first fundamental form from grid.partials: the Enneper and s1
# curvature_abs_mean, the s1 and s1-invert conformality_residual and the s1-invert
# curvature_abs_max moved by rounding alone (test_surface.py holds the earlier
# arithmetic as its oracle).  Recorded again when willmore came to read the one |U|^2
# quadrature (grid.abs2_quadrature): the s1 and s1-invert willmore moved by rounding
# alone, 24.0541477385555 -> 24.054147738555493.  The Enneper pins recorded again when
# integrate_surface_r3 stopped integrating x^4 and its sidecars lost the x4_span key
_SIDECAR_SHA256 = {
    ("enneper", "obj"): "3df1f07f519fc682912c57e0575917c28a538a0cb971dd9f8e169f366b79e8fc",
    ("enneper", "ply"): "89efce2fbd9df2a755d0a2aeee662fb1a2ec591bd4d37306a7eef7041610e874",
    ("s1", "ply"): "e0b6abd86904b36f4031ba1125d432a6cdb3abd93b88110494087d7d8a865e7f",
    ("s1-invert", "obj"): "f6ec84120ea7a4c8e9b2011ba1a4bbc1af593a649b9fef71b30d2d4ea4ba5eb3",
    ("s1-invert", "ply"): "79bc6e5f4289c949b2b08ef6bf1086d9bd9b9f408ba81de1cba4845e40475094",
}

_PINNED_SOURCES = {"enneper": ["--spinor", "enneper"], "s1": ["--from-dsii", "s1"],
                   "s1-invert": ["--from-dsii", "s1", "--invert"]}


def _pinned_run(source, fmt, out):
    assert main(["gen-surface", *_PINNED_SOURCES[source], "--grid", "64x64",
                 "--format", fmt, "--out", str(out)]) == 0
    return out / f"surface.{fmt}"


@pytest.mark.parametrize("source, fmt", sorted(_MESH_SHA256))
def test_gen_surface_mesh_bytes_are_pinned(source, fmt, tmp_path):
    mesh = _pinned_run(source, fmt, tmp_path / "m")
    assert hashlib.sha256(mesh.read_bytes()).hexdigest() == _MESH_SHA256[source, fmt]


@pytest.mark.parametrize("source, fmt", sorted(_SIDECAR_SHA256))
def test_gen_surface_sidecar_bytes_are_pinned(source, fmt, tmp_path):
    sidecar = Path(str(_pinned_run(source, fmt, tmp_path / "m")) + ".json")
    assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == _SIDECAR_SHA256[source, fmt]


# SHA-256 of the CSV and JSON outputs of a solution dump and of a short evolve
# run, as written at commit 4609e45, re-recorded where the values moved: the
# evolve norms.csv and manifest.json when the evolver's norms became a BLAS-free
# sum and again when the k-th state's time became t0 + k dt (the last time reads
# 0.01, not 0.010000000000000002), and V.csv when V was sampled from f's z-row (972
# of its 1089 values move by at most 5.7e-16 relative).  A change to how CSVs are
# formatted must keep every byte
_CSV_RUNS = {
    "solution": ["solution", "--solution", "s1", "--c", "i", "--t", "-0.5",
                 "--grid", "33x33", "--box=-3:3:-3:3"],
    # a singular instant, z = 0 masked; an even node count; V's zero parts on x = 0
    "solution-s2-singular": ["solution", "--solution", "s2", "--c", "12", "--t", "1",
                             "--grid", "33x33", "--box=-2:2:-2:2"],
    "solution-s1-16x16": ["solution", "--solution", "s1", "--grid", "16x16",
                          "--box=-7.5:7.5:-7.5:7.5"],
    "solution-s1-zero-parts": ["solution", "--solution", "s1", "--c", "-1", "--grid", "33x33",
                               "--box=-3:3:-3:3"],
    "evolve": ["evolve", "--from", "s1", "--c", "1", "--grid", "32x32", "--box=-10:10:-10:10",
               "--t-end", "0.01", "--dt", "1e-3", "--snapshot-every", "5"],
}
_CSV_SHA256 = {
    ("solution", "U.csv"): "9ae87e267c5e0e4e022383dc9efb321588b8113ab94fcb2175ad443ce073312c",
    ("solution", "V.csv"): "6fd710e08a4578706ac56982ab8b3cbcad0163c567c0ae4a80b8fc9df70f7af9",
    ("solution", "events.json"): "b85cdb4ee8271660b4bfd483a933cd92ca547b2279246bd2faeac52cd6849403",
    ("solution-s2-singular", "U.csv"):
        "0f9582a1f105cbbf51f57a76cec092a9b1a16c4372ac11e5adb4c6f7fb30953e",
    ("solution-s2-singular", "V.csv"):
        "b4a0c8defe659cb81769b469a307b89276fe0bbdce0c7fcc1d9d2a4c4e72bbcc",
    ("solution-s2-singular", "events.json"):
        "d30e0f88d2595ffd3b26bdab61c8f299b2e1f90435e6cf4a3b0c237f6af81e3d",
    ("solution-s1-16x16", "U.csv"):
        "f3f88a31783c58ecf7e00bb6bdc1889e86f0c0f4e4cbbb5ffd90203d1fe0aba6",
    ("solution-s1-16x16", "V.csv"):
        "c3242315a33c2695b2c7741ba72606faa7ff7e4634103e1bed72b30c42532779",
    ("solution-s1-16x16", "events.json"):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("solution-s1-zero-parts", "U.csv"):
        "0b21f29959895847123f0b36ab1cf345d68e2b74edb0c9c4cbb69b36637261f9",
    ("solution-s1-zero-parts", "V.csv"):
        "4decd173f6306f1a4da3c4afe6ddec191d131b9e2d6954a071476e42876adab5",
    ("solution-s1-zero-parts", "events.json"):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("evolve", "snapshot_0000.csv"):
        "9fef4815d950a2473f9825d92d4babfdba671ffec9489963a54a153ff958406b",
    ("evolve", "snapshot_0001.csv"):
        "768fdf8d637ddde9d82fd4c28a6ffd7e043b35d12ab1bd72be5df24f457ec3b1",
    ("evolve", "snapshot_0002.csv"):
        "24f197104c15174ec891a00e65c019325b3aa285f20ae9a5a095697f9d2f59af",
    ("evolve", "norms.csv"): "9b5bdc2b9e1af6ee8148e68e3620779ac1fc5dd226014876b0a15e699d0e4835",
    ("evolve", "manifest.json"): "4801fdaa987a9bf12bc565b82df5bbe1f644c0f9512de727375cdbd25d2065b6",
}


@pytest.mark.parametrize("run", sorted(_CSV_RUNS))
def test_csv_bytes_are_pinned(run, tmp_path):
    out = tmp_path / run
    assert main(_CSV_RUNS[run] + ["--out", str(out)]) == 0
    pinned = {name: sha for (r, name), sha in _CSV_SHA256.items() if r == run}
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(
        n for n in pinned if n.endswith(".csv"))
    for name, sha in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha, name


def test_gen_surface_invert_integrates_nothing(tmp_path, monkeypatch):
    # the exported surface is the inverted closed-form S; no spinor surface is formed
    def refuse(*args, **kwargs):
        raise AssertionError("integration under --from-dsii --invert")
    monkeypatch.setattr(cli, "integrate_surface_r4", refuse)
    monkeypatch.setattr(cli, "heat_datum_fields", refuse)
    mesh = _pinned_run("s1-invert", "ply", tmp_path / "m")
    assert hashlib.sha256(mesh.read_bytes()).hexdigest() == _MESH_SHA256["s1-invert", "ply"]


@pytest.mark.parametrize("via", ["flag", "config"])
def test_gen_surface_invert_from_dsii_refuses_tol(via, tmp_path, capsys):
    # the inverted closed-form S is not integrated, so no Dirac residual is checked
    out = tmp_path / "m"
    argv = ["gen-surface", "--from-dsii", "s1", "--invert", "--grid", "16x16",
            "--out", str(out)]
    if via == "flag":
        argv += ["--tol", "1e-2"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-2}))
        argv += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "reads no --tol" in capsys.readouterr().err
    assert not out.exists()
    # without --tol the run works and records tol as null, so its resolved
    # config repeats it; a --spinor surface is integrated before it is inverted
    assert main(argv[:-2]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["options"]["tol"] is None
    assert main(["gen-surface", "--config", str(out / "resolved_config.json"),
                 "--out", str(tmp_path / "again")]) == 0
    assert main(["gen-surface", "--spinor", "enneper", "--invert", "--tol", "1e-2",
                 "--grid", "16x16", "--out", str(tmp_path / "e")]) == 0
