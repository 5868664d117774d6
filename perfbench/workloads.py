"""The four workloads: seeded data, set-up, and one round of operations each.

A workload is a (data, setup, run_round) triple.  data(rng, rounds) draws every
seeded parameter up front, setup(M, data) builds what the timed phase needs
from the freshly imported spinsurf modules M, and run_round(M, state, k, rec)
performs round k: it times its calls into spinsurf through rec.timed, then
checks the outputs against oracles.py and reports them through rec.finish.
Sizes and step counts are fixed; the seed changes only datum parameters, and
only inside ranges where every check holds.
"""
from __future__ import annotations

import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import checks as ck
import oracles as orc


@dataclass(frozen=True)
class Workload:
    data: callable
    setup: callable
    run_round: callable
    round_s: float      # reference cost of one round on a 2-core x86-64 VM


def _cli(M, rec, argv):
    """spinsurf.cli.main in-process, its console output sent to stderr."""
    with redirect_stdout(sys.stderr):
        return rec.timed(M.cli.main, [str(a) for a in argv])


def _complex_arg(c: complex) -> str:
    return f"{c.real:.17g}{c.imag:+.17g}i"


def _box_arg(box) -> str:
    return "--box=" + ":".join(f"{v:.17g}" for v in box)


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# -- evolve: Strang steps of the spectral DSII evolver ----------------------------

EV_N, EV_BOX, EV_DT, EV_STEPS = 256, 30.0, 1e-4, 200
OZ_N, OZ_BOX, OZ_DT, OZ_T, OZ_WINDOW = 256, 12.0, 1e-3, 0.3, 3.0


def evolve_data(rng, rounds):
    # Re c away from 0 keeps the s1 datum resolved on the 256^2 grid
    return [complex(_signed(rng, 0.8, 1.5), rng.uniform(-1.0, 1.0)) for _ in range(rounds)]


def evolve_setup(M, data):
    grid = M.grid.square_grid(EV_BOX, EV_N, periodic=True)
    U0 = [M.dsii.catalog("s1", c=c).U_field(grid, 0.0) for c in data]
    return SimpleNamespace(grid=grid, U0=U0, data=data)


def evolve_round(M, st, k, rec):
    c = st.data[k]
    traj = rec.timed(M.evolve.evolve, st.U0[k], EV_STEPS * EV_DT, EV_DT,
                     snapshot_every=EV_STEPS, callback=rec.step_callback())
    out = rec.work / "s1"
    rec.timed(M.evolve.write_trajectory, traj, out)
    t_end = EV_STEPS * EV_DT
    man = ck.read_json(out / "manifest.json")
    last = man["snapshots"][-1]
    z = orc.zmesh((-EV_BOX, EV_BOX, -EV_BOX, EV_BOX), EV_N, periodic=True)
    U = ck.read_field_csv(out / last["file"], EV_N)
    rec.finish([ck.count("s1 not aborted", man["aborted"], False),
                ck.field("s1 final time", last["t"], t_end),
                ck.field_l2("s1 final field vs exact", U, orc.s1_U(z, last["t"], c), 1e-2)],
               n_ops=EV_STEPS)

    # Ozawa's blow-up through the CLI; fails today (physical datum fed to the
    # z-side evolver) and stays in the workload as a failed operation
    out = rec.work / "ozawa"
    code = _cli(M, rec, ["evolve", "--from", "ozawa", "--a", 1, "--b", -1,
                         "--grid", f"{OZ_N}x{OZ_N}", _box_arg((-OZ_BOX, OZ_BOX) * 2),
                         "--t-end", OZ_T, "--dt", OZ_DT,
                         "--snapshot-every", round(OZ_T / OZ_DT), "--out", out])
    man = ck.read_json(out / "manifest.json")
    checks, known = ozawa_checks(code, man, lambda f: ck.read_field_csv(out / f, OZ_N))
    rec.finish(checks, n_ops=1, known=known)


def ozawa_checks(code, man, read_snapshot):
    """(ordinary checks, known-fault checks) of the Ozawa CLI run.  Only the
    window check fails today; a run that exits non-zero, aborts or stops short
    of OZ_T fails an ordinary check and makes the benchmark run incorrect."""
    last = man["snapshots"][-1]
    checks = [ck.count("ozawa exit code", code, 0),
              ck.count("ozawa not aborted", man["aborted"], False),
              ck.field("ozawa final time", last["t"], OZ_T)]
    z = orc.zmesh((-OZ_BOX, OZ_BOX, -OZ_BOX, OZ_BOX), OZ_N, periodic=True)
    return checks, [ozawa_window(read_snapshot(last["file"]), z, last["t"])]


def ozawa_window(U, z, t, tol=1e-2):
    """Relative L2 distance to Ozawa's solution (a, b) = (1, -1) in |z| < 3."""
    return ck.field_l2("ozawa window vs exact", U, orc.ozawa_U(z, t, 1.0, -1.0), tol,
                       where=np.abs(z) < OZ_WINDOW)


# -- surface: gen-surface on Enneper, a heat-polynomial graph and its inversion ----

SF_N = 128
SF_GRAPH_BOX = (-2.0, 2.0, -2.0, 2.0)


def surface_data(rng, rounds):
    return [SimpleNamespace(x0=rng.uniform(-0.5, 0.5), y0=rng.uniform(-0.5, 0.5),
                            c=complex(_signed(rng, 0.5, 1.5), rng.uniform(-1.0, 1.0)),
                            t=rng.uniform(-0.5, 0.5))
            for _ in range(rounds)]


def surface_setup(M, data):
    return SimpleNamespace(data=data)


def surface_round(M, st, k, rec):
    d = st.data[k]
    common = ["--grid", f"{SF_N}x{SF_N}"]
    enn_box = (d.x0 - 1, d.x0 + 1, d.y0 - 1, d.y0 + 1)
    dsii = ["--from-dsii", "s1", "--c=" + _complex_arg(d.c), f"--t={d.t!r}",
            _box_arg(SF_GRAPH_BOX)] + common
    w = rec.work
    codes = [_cli(M, rec, ["gen-surface", "--spinor", "enneper", _box_arg(enn_box),
                           "--format", "obj", "--out", w / "enneper"] + common),
             _cli(M, rec, ["gen-surface", "--format", "ply", "--out", w / "graph"] + dsii),
             _cli(M, rec, ["gen-surface", "--invert", "--format", "ply",
                           "--out", w / "inverted"] + dsii)]
    rec.finish(surface_checks(w, d, codes), n_ops=1)


def surface_checks(w, d, codes):
    n, b = SF_N, SF_N // 2
    out = [ck.count("gen-surface exit codes 0", codes == [0, 0, 0], True)]
    h = 2.0 / (n - 1)
    z = orc.zmesh((d.x0 - 1, d.x0 + 1, d.y0 - 1, d.y0 + 1), n)
    ref = orc.enneper(z)
    ref = ref - ref[:, b, b][:, None, None]
    verts, nf = ck.read_obj(w / "enneper" / "surface.obj")
    out += ck.mesh("enneper", verts, nf, ref, n, h * h)
    meta = ck.read_json(w / "enneper" / "surface.obj.json")
    out.append(ck.Check("enneper |H| max", meta["curvature_abs_max"] <= 10 * h * h,
                        meta["curvature_abs_max"], 10 * h * h))
    z = orc.zmesh(SF_GRAPH_BOX, n)
    f = orc.s1_f(z, d.t, d.c)
    ref = orc.graph(z, f)
    ref = ref - ref[:, b, b][:, None, None]
    verts, nf = ck.read_ply(w / "graph" / "surface.ply")
    out += ck.mesh("graph", verts, nf, ref, n, 1e-6 * max(1.0, np.abs(ref).max()))
    ref = orc.inverted_graph(z, f)
    verts, nf = ck.read_ply(w / "inverted" / "surface.ply")
    out += ck.mesh("inverted graph", verts, nf, ref, n, 1e-6 * max(1.0, np.abs(ref).max()))
    return out


# -- fields: exact DSII fields, norms, singular instants, a CSV dump -------------

F1_N, F1_BOX = 769, 30.0          # s1 fields
F2_N, F2_BOX = 1025, 10.0         # s2 fields
FD_N, FD_BOX = 257, 3.0           # solution CLI dump
S2_SING_C = 12.0                  # singular instants t = -1, 1


def fields_data(rng, rounds):
    return [SimpleNamespace(c1=complex(_signed(rng, 0.5, 1.5), rng.uniform(-1.0, 1.0)),
                            t1=rng.uniform(0.0, 1.0),
                            tau=_signed(rng, 0.5, 1.5),
                            c2=complex(rng.uniform(6.0, 18.0), rng.uniform(-6.0, 6.0)),
                            t2=rng.uniform(-0.5, 0.5))
            for _ in range(rounds)]


def fields_setup(M, data):
    cat = M.dsii.catalog
    return SimpleNamespace(
        g1=M.grid.square_grid(F1_BOX, F1_N), g2=M.grid.square_grid(F2_BOX, F2_N),
        s1=[cat("s1", c=d.c1) for d in data], s1i=[cat("s1", c=1j * d.tau) for d in data],
        s2=[cat("s2", c=d.c2) for d in data], s2sing=cat("s2", c=S2_SING_C), data=data)


def fields_round(M, st, k, rec):
    d = st.data[k]
    box1, box2 = (-F1_BOX, F1_BOX) * 2, (-F2_BOX, F2_BOX) * 2
    norm = M.dsii.l2_norm_sq
    out = []

    U = rec.timed(st.s1[k].U_field, st.g1, d.t1)
    V = rec.timed(st.s1[k].V_field, st.g1, d.t1)
    nr = rec.timed(norm, U)
    out += [ck.field_blocks("s1 U", U.values, lambda z: orc.s1_U(z, d.t1, d.c1), box1, F1_N)[0],
            ck.field_blocks("s1 V", V.values, lambda z: orc.s1_V(z, d.t1, d.c1), box1, F1_N)[0],
            ck.norm("s1 norm 2pi", nr.value, orc.NORM_S1)]
    del U, V

    U = rec.timed(st.s2[k].U_field, st.g2, d.t2)
    nr = rec.timed(norm, U)
    out += [ck.field_blocks("s2 U", U.values, lambda z: orc.s2_U(z, d.t2, d.c2), box2, F2_N)[0],
            ck.norm("s2 norm 4pi", nr.value, orc.NORM_S2)]
    del U

    (ts, _), = orc.s1_singularity(d.tau)
    U = rec.timed(st.s1i[k].U_field, st.g1, ts)
    nr = rec.timed(norm, U)
    out += singular_field_checks("s1 singular", U, lambda z: orc.s1_U(z, ts, 1j * d.tau),
                                 box1, F1_N)
    out.append(ck.norm("s1 singular norm pi", nr.value, orc.NORM_S1_SINGULAR))
    del U
    ev = rec.timed(M.dsii.singular_times, st.s1i[k])
    out.append(ck.events("s1 singular times", [(e.t_sing, e.coefficient) for e in ev],
                         orc.s1_singularity(d.tau)))

    expected = orc.s2_singularities(S2_SING_C)
    for ts, _ in expected:
        U = rec.timed(st.s2sing.U_field, st.g2, ts)
        nr = rec.timed(norm, U)
        out += singular_field_checks(f"s2 singular t={ts:g}", U,
                                     lambda z: orc.s2_U(z, ts, S2_SING_C), box2, F2_N)
        out.append(ck.norm(f"s2 singular t={ts:g} norm 3pi", nr.value, orc.NORM_S2_SINGULAR))
        del U
    ev = rec.timed(M.dsii.singular_times, st.s2sing)
    out.append(ck.events("s2 singular times", [(e.t_sing, e.coefficient) for e in ev],
                         expected))

    w = rec.work / "solution"
    code = _cli(M, rec, ["solution", "--solution", "s1", "--c=" + _complex_arg(d.c1),
                         f"--t={d.t1!r}", "--grid", f"{FD_N}x{FD_N}",
                         _box_arg((-FD_BOX, FD_BOX) * 2), "--out", w])
    zd = orc.zmesh((-FD_BOX, FD_BOX) * 2, FD_N)
    out += [ck.count("solution exit code", code, 0),
            ck.field("solution U.csv", ck.read_field_csv(w / "U.csv", FD_N),
                     orc.s1_U(zd, d.t1, d.c1)),
            ck.field("solution V.csv", ck.read_field_csv(w / "V.csv", FD_N),
                     orc.s1_V(zd, d.t1, d.c1))]
    rec.finish(out, n_ops=1)


def singular_field_checks(name, U, oracle, box, n):
    """The node z = 0 is the one masked node; elsewhere the field is exact."""
    field, bad = ck.field_blocks(f"{name} U", U.values, oracle, box, n)
    mask = U.mask if U.mask is not None else np.zeros(bad.shape, bool)
    return [ck.count(f"{name} masked nodes", int(mask.sum()), 1),
            ck.count(f"{name} mask at z=0", bool(np.array_equal(mask, bad)), True),
            field]


# -- moutard: the K-matrix pipeline on the s1 and plane backgrounds ---------------

MO_N = 256
MO_S1_BOX = (-1.5, 1.5, -1.2, 1.8)
MO_PLANE_BOX = (0.4, 2.4, 0.3, 2.3)
MO_RESID = 30.0          # Dirac residual bound, in units of h^2 max|spinor|


def moutard_data(rng, rounds):
    return [SimpleNamespace(c=complex(rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0)),
                            t=rng.uniform(-0.3, 0.3),
                            alpha=rng.uniform(0.2, 0.6), beta=rng.uniform(0.2, 0.6))
            for _ in range(rounds)]


def moutard_setup(M, data):
    mk = M.grid.make_grid
    st = SimpleNamespace(gs=mk(MO_S1_BOX, (MO_N, MO_N)), gp=mk(MO_PLANE_BOX, (MO_N, MO_N)),
                         data=data, sols=[], exact_ok=[])
    for d in data:
        sol = M.dsii.catalog("s1", c=d.c)
        st.sols.append(sol)
        st.exact_ok.append(M.moutard.moutard_exact(sol.f).W.equals(sol.U))
    return st


def moutard_round(M, st, k, rec):
    d = st.data[k]
    ss, mo = M.dirac, M.moutard
    out = [ck.count("moutard_exact W == U", st.exact_ok[k], True)]
    for label, g in (("s1", st.gs), ("plane", st.gp)):
        bx, by = g.nx // 2, g.ny // 2
        zb = g.node_z(bx, by)
        zero = M.grid.constant_field(g, 0.0)
        if label == "s1":
            psi0, phi0 = rec.timed(mo.heat_datum_fields, st.sols[k].f, g, d.t)
            fb = orc.s1_f(zb, d.t, d.c)
            C0 = np.array([[1j * np.conj(fb), -zb], [np.conj(zb), -1j * fb]])
        else:
            psi0 = phi0 = ss.SpinorField(M.grid.constant_field(g, 1.0), zero)
            C0 = np.array([[0, 1j * np.conj(zb)], [1j * zb, 0]])
        ctx = rec.timed(mo.MoutardTransform.from_background, psi0, phi0, C0)
        psi = ss.SpinorField(M.grid.field_from_function(g, lambda z: np.exp(d.alpha * z)), zero)
        phi = ss.SpinorField(M.grid.field_from_function(g, lambda z: np.exp(d.beta * z)), zero)
        psit, phit = rec.timed(ctx.transform, psi, phi)
        Ut, _ = rec.timed(ctx.transformed_potentials, zero)
        r_prog = max(rec.timed(ss.dirac_residual_norm, Ut, psit, interior=1),
                     rec.timed(ss.dirac_residual_norm, Ut, phit, interior=1, vee=True))
        out += moutard_checks(label, g, ctx.kdata.W.values, Ut.values, psit, phit, r_prog, d)
    rec.finish(out, n_ops=1)


def moutard_checks(label, g, W, Ut, psit, phit, r_prog, d):
    z = orc.zmesh((g.x_min, g.x_max, g.y_min, g.y_max), g.nx)
    Wref = orc.s1_U(z, d.t, d.c) if label == "s1" else None
    spin = [(psit.psi1.values, psit.psi2.values, False),
            (phit.psi1.values, phit.psi2.values, True)]
    r = max(ck.dirac_residual(Ut, p1, p2, g.hx, g.hy, vee) for p1, p2, vee in spin)
    scale = max(np.abs(a).max() for p1, p2, _ in spin for a in (p1, p2))
    out = [ck.Check(f"{label} Dirac residual O(h^2)", r <= MO_RESID * g.hx**2 * scale,
                    r, MO_RESID * g.hx**2 * scale),
           ck.field(f"{label} program residual", r_prog, r, 1e-8)]
    if Wref is not None:
        out.append(ck.field(f"{label} K-matrix W vs exact U", W, Wref, 1e-12))
    return out


WORKLOADS = {
    "evolve": Workload(evolve_data, evolve_setup, evolve_round, 10.0),
    "surface": Workload(surface_data, surface_setup, surface_round, 0.85),
    "fields": Workload(fields_data, fields_setup, fields_round, 2.9),
    "moutard": Workload(moutard_data, moutard_setup, moutard_round, 0.75),
}
