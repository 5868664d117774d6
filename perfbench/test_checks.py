"""Each benchmark check accepts spinsurf's output and rejects a wrong answer.

    python3 -m pytest perfbench/test_checks.py

A check that cannot fail is no evidence, so every test below feeds one check
both the program's answer and a plausible wrong one.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks as ck                      # noqa: E402
import oracles as orc                    # noqa: E402
import run                               # noqa: E402
import workloads as wl                   # noqa: E402


@pytest.fixture(scope="module")
def M():
    return run.import_spinsurf()


def test_oracles_import_numpy_only():
    tree = ast.parse((HERE / "oracles.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert names <= {"numpy", "__future__"}


def test_norm_check_rejects_two_percent(M):
    g = M.grid.square_grid(wl.F1_BOX, wl.F1_N)
    value = M.dsii.l2_norm_sq(M.dsii.catalog("s1", c=1.0 + 0.5j).U_field(g, 0.3)).value
    assert ck.norm("s1", value, orc.NORM_S1).ok
    assert not ck.norm("s1", 1.02 * value, orc.NORM_S1).ok
    assert not ck.norm("s1", 0.98 * value, orc.NORM_S1).ok


def test_field_check_rejects_halved_v(M):
    g = M.grid.square_grid(3.0, 65)
    sol = M.dsii.catalog("s1", c=0.7 - 0.4j)
    ref = orc.s1_V(orc.zmesh((-3.0, 3.0, -3.0, 3.0), 65), 0.2, 0.7 - 0.4j)
    assert ck.field("V", sol.V_field(g, 0.2).values, ref).ok
    halved = M.dsii.to_halved_v_form(sol)
    assert not ck.field("V", halved.eval(z=g.zmesh(), t=0.2, c=0.7 - 0.4j), ref).ok


def test_event_check_rejects_wrong_time_or_coefficient(M):
    ev = M.dsii.singular_times(M.dsii.catalog("s2", c=wl.S2_SING_C))
    got = [(e.t_sing, e.coefficient) for e in ev]
    expected = orc.s2_singularities(wl.S2_SING_C)
    assert ck.events("s2", got, expected).ok
    assert not ck.events("s2", [(t, -c) for t, c in got], expected).ok
    assert not ck.events("s2", [(1.01 * t, c) for t, c in got], expected).ok
    assert not ck.events("s2", got[:1], expected).ok


def test_singular_field_checks_reject_unmasked_node(M):
    g = M.grid.square_grid(wl.F1_BOX, 129)
    U = M.dsii.catalog("s1", c=1j).U_field(g, -0.5)
    box = (-wl.F1_BOX, wl.F1_BOX) * 2
    oracle = lambda z: orc.s1_U(z, -0.5, 1j)            # noqa: E731
    assert all(c.ok for c in wl.singular_field_checks("s1", U, oracle, box, 129))
    U.mask = None
    assert not all(c.ok for c in wl.singular_field_checks("s1", U, oracle, box, 129))


def test_block_field_check_matches_whole_grid_and_rejects_shifted_field(M):
    n, box = 200, (-3.0, 3.0, -2.0, 4.0)
    g = M.grid.make_grid(box, (n, n))
    U = M.dsii.catalog("s2", c=7 + 2j).U_field(g, 0.1).values
    oracle = lambda z: orc.s2_U(z, 0.1, 7 + 2j)         # noqa: E731
    whole = ck.field("s2", U, oracle(orc.zmesh(box, n)))
    blocked, bad = ck.field_blocks("s2", U, oracle, box, n)
    assert whole.ok and blocked.ok and not bad.any()
    assert blocked.value == pytest.approx(whole.value, rel=1e-12, abs=1e-18)
    assert not ck.field_blocks("s2", np.roll(U, 1, axis=0), oracle, box, n)[0].ok


def test_evolve_check_rejects_unevolved_field(M):
    c = 0.8 + 0.0j
    g = M.grid.square_grid(wl.EV_BOX, wl.EV_N, periodic=True)
    U0 = M.dsii.catalog("s1", c=c).U_field(g, 0.0)
    t_end = wl.EV_STEPS * wl.EV_DT
    traj = M.evolve.evolve(U0, t_end, wl.EV_DT, snapshot_every=wl.EV_STEPS)
    ref = orc.s1_U(orc.zmesh((-wl.EV_BOX, wl.EV_BOX) * 2, wl.EV_N, periodic=True), t_end, c)
    assert ck.field_l2("s1", traj.snapshots[-1][1].values, ref, 1e-2).ok
    assert not ck.field_l2("s1", U0.values, ref, 1e-2).ok


def test_ozawa_check_accepts_mapped_and_rejects_unmapped_datum(M):
    """The window check passes on the z-side datum U = sqrt(2) W(2y, 2x) and
    fails on the physical datum W(x, y) that the CLI feeds the evolver today."""
    n, box = wl.OZ_N, wl.OZ_BOX
    g = M.grid.square_grid(box, n, periodic=True)
    z = orc.zmesh((-box, box) * 2, n, periodic=True)
    finals = {}
    for name, U0 in (("mapped", orc.ozawa_U(z, 0.0, 1.0, -1.0)),
                     ("unmapped", orc.ozawa_W(z.real, z.imag, 0.0, 1.0, -1.0))):
        traj = M.evolve.evolve(M.grid.ComplexField(g, U0), wl.OZ_T, wl.OZ_DT,
                               snapshot_every=round(wl.OZ_T / wl.OZ_DT))
        finals[name] = traj.snapshots[-1][1].values
    assert wl.ozawa_window(finals["mapped"], z, wl.OZ_T).ok
    assert not wl.ozawa_window(finals["unmapped"], z, wl.OZ_T).ok


def test_aborted_or_short_ozawa_run_makes_the_run_incorrect():
    """Only the window check is excused as the known fault: a run that exits
    non-zero, aborts or stops early fails the benchmark run, even with the
    exact solution in its last snapshot."""
    z = orc.zmesh((-wl.OZ_BOX, wl.OZ_BOX) * 2, wl.OZ_N, periodic=True)

    def outcome(code, aborted, t, U):
        man = {"aborted": aborted, "snapshots": [{"t": 0.0, "file": "s0"},
                                                 {"t": t, "file": "s1"}]}
        rec = run.Record(Path("."))
        checks, known = wl.ozawa_checks(code, man, lambda f: U(t))
        rec.finish(checks, n_ops=1, known=known)
        return rec.correct, rec.failed

    exact = lambda t: orc.ozawa_U(z, t, 1.0, -1.0)     # noqa: E731
    wrong = lambda t: orc.ozawa_W(z.real, z.imag, t, 1.0, -1.0)   # noqa: E731
    assert outcome(0, False, wl.OZ_T, exact) == (True, 0)
    assert outcome(0, False, wl.OZ_T, wrong) == (True, 1)       # the fault of today
    assert outcome(3, True, 0.1, exact) == (False, 1)
    assert outcome(3, False, wl.OZ_T, exact) == (False, 1)
    assert outcome(0, True, wl.OZ_T, exact) == (False, 1)
    assert outcome(0, False, 0.0, exact) == (False, 1)


@pytest.fixture(scope="module")
def surface_run(M, tmp_path_factory):
    rec = run.Record(tmp_path_factory.mktemp("surface"))
    d = SimpleNamespace(x0=0.2, y0=-0.3, c=-0.9 + 0.4j, t=0.25)
    wl.surface_round(M, SimpleNamespace(data=[d]), 0, rec)
    return rec, d


def test_surface_checks_pass_on_program_output(surface_run):
    rec, _ = surface_run
    assert rec.correct and rec.failed == 0 and rec.attempted == 1


def test_mesh_check_rejects_mesh_shifted_by_one_node(surface_run):
    rec, d = surface_run
    n, b = wl.SF_N, wl.SF_N // 2
    verts, nf = ck.read_obj(rec.work / "enneper" / "surface.obj")
    ref = orc.enneper(orc.zmesh((d.x0 - 1, d.x0 + 1, d.y0 - 1, d.y0 + 1), n))
    ref = ref - ref[:, b, b][:, None, None]
    h2 = (2.0 / (n - 1)) ** 2
    assert all(c.ok for c in ck.mesh("enneper", verts, nf, ref, n, h2))
    shifted = np.roll(ref, 1, axis=2)
    assert not all(c.ok for c in ck.mesh("enneper", verts, nf, shifted, n, h2))
    assert not all(c.ok for c in ck.mesh("enneper", verts[:-n], nf, ref, n, h2))


def test_inverted_graph_check_rejects_uninverted_graph(surface_run):
    rec, d = surface_run
    n = wl.SF_N
    z = orc.zmesh(wl.SF_GRAPH_BOX, n)
    f = orc.s1_f(z, d.t, d.c)
    verts, nf = ck.read_ply(rec.work / "inverted" / "surface.ply")
    ref = orc.inverted_graph(z, f)
    tol = 1e-6 * np.abs(ref).max()
    assert all(c.ok for c in ck.mesh("inv", verts, nf, ref, n, tol))
    assert not all(c.ok for c in ck.mesh("inv", verts, nf, -ref, n, tol))
    assert not all(c.ok for c in ck.mesh("inv", verts, nf, orc.graph(z, f), n, tol))


def test_moutard_checks_reject_untransformed_spinors(M):
    rec = run.Record(Path("."))
    d = SimpleNamespace(c=0.9 + 0.3j, t=0.1, alpha=0.4, beta=0.3)
    st = wl.moutard_setup(M, [d])
    wl.moutard_round(M, st, 0, rec)
    assert rec.correct and rec.failed == 0
    g = st.gs
    zero = M.grid.constant_field(g, 0.0)
    psi = M.dirac.SpinorField(M.grid.field_from_function(g, lambda z: np.exp(0.4 * z)), zero)
    W = orc.s1_U(orc.zmesh(wl.MO_S1_BOX, wl.MO_N), d.t, d.c)
    r_prog = M.dirac.dirac_residual_norm(M.grid.ComplexField(g, W), psi, interior=1)
    out = wl.moutard_checks("s1", g, W, W, psi, psi, r_prog, d)
    assert not next(c for c in out if c.name == "s1 Dirac residual O(h^2)").ok
    other = SimpleNamespace(c=d.c + 0.01, t=d.t)
    out = wl.moutard_checks("s1", g, W, W, psi, psi, r_prog, other)
    assert not next(c for c in out if c.name == "s1 K-matrix W vs exact U").ok
