import json

import numpy as np
import pytest

from spinsurf.cli import main


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


def test_evolve_ozawa_short(tmp_path, capsys):
    out = tmp_path / "oz"
    rc = main(["evolve", "--from", "ozawa", "--a", "1", "--b", "-1",
               "--grid", "64x64", "--box=-20:20:-20:20", "--t-end", "0.01",
               "--dt", "1e-3", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "z-side blow-up time t = T/2 = 0.5" in text


def test_willmore_check_cli(capsys):
    rc = main(["willmore-check", "--potential", "soliton", "--n", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert data["pass"] is True
    assert data["value"] == pytest.approx(16 * np.pi, abs=1e-6)


def test_verify_suite_exit_code(tmp_path):
    rc = main(["verify", "--suite", "reduction", "--out", str(tmp_path / "v")])
    assert rc == 0
    results = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert all(r["pass"] for r in results)


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


def test_check_results_hold_python_types():
    # numpy scalars from a check (e.g. the evolver's norm drift) must not reach
    # verify.json: json cannot serialise numpy.bool_
    from spinsurf.verify import CheckResult, _abs_check, _rel_check
    for r in (_abs_check("x", np.float64(1e-4), 1e-3),
              _rel_check("y", np.float64(2.0), np.float64(2.0), 1e-2),
              CheckResult("z", np.float64(5.0), 4.0, np.float64(0.25), np.float64(5.0) >= 3.0)):
        d = r.as_dict()
        assert type(d["pass"]) is bool and d["pass"] is True
        assert all(type(d[k]) is float for k in ("value", "target", "tol"))
        json.dumps(d)


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
