"""Steadiness of the benchmark: two sets of runs of the same code, compared.

    python3 perfbench/steady.py

Ten runs per set of every workload in BENCHMARK.json, each run_seconds long.
For each workload it alternates runs of set A and set B (A first on even
rounds, B first on odd ones), every run with its own seed (from 2000 on), then
one traced run.  For each end-to-end metric it prints both medians with their
quartiles, each set's spread (q3 - q1) / median, and the shift of B's median
against A's.  A metric is "ok" when both spreads and the shift stay within its
bound from BENCHMARK.json; "tight" when the spreads are also below a third of
it.  The share of failed operations must be identical in every run.  The
traced run's run_s against set A's median gives the tracing overhead.
Raw results go to .perfbench/steady.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10           # runs per set and workload
SEED0 = 2000


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {w: {"A": [], "B": [], "traced": None} for w in workloads}
    seed = SEED0
    for i in range(RUNS):
        for w in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                results[w][side].append(run_once(w, seed, seconds))
                seed += 1
            print(f"run {i + 1}/{RUNS} {w} done", file=sys.stderr, flush=True)
    for w in workloads:
        results[w]["traced"] = run_once(w, seed, seconds, trace=1)
        seed += 1

    all_ok = True
    print(f"{RUNS} runs per set, {seconds} s each, seeds from {SEED0}")
    for w in workloads:
        runs = results[w]["A"] + results[w]["B"]
        shares = {(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{w}: correct={correct} failed/attempted={sorted(shares)}")
        ok_w = correct and len({f / a for f, a in shares}) == 1
        print(f"  {'metric':12s} {'median A [q1, q3]':>30s} {'median B [q1, q3]':>30s} "
              f"{'sprA':>6s} {'sprB':>6s} {'shift':>7s} {'bound':>5s}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            qa = quartiles([r["metrics"][name]["value"] for r in results[w]["A"]])
            qb = quartiles([r["metrics"][name]["value"] for r in results[w]["B"]])
            spr_a, spr_b = ((q[2] - q[0]) / q[1] for q in (qa, qb))
            shift = (qb[1] - qa[1]) / qa[1]
            ok = max(spr_a, spr_b) <= bound and abs(shift) <= bound
            tight = ok and max(spr_a, spr_b) < bound / 3
            ok_w &= ok
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
            print(f"  {name:12s} {fmt(qa):>30s} {fmt(qb):>30s} {spr_a:6.3f} {spr_b:6.3f} "
                  f"{shift:+7.3f} {bound:5.2f} {'tight' if tight else 'ok' if ok else 'FAIL'}")
        traced = results[w]["traced"]["metrics"]["trace.run_s"]["value"]
        untraced = statistics.median(r["metrics"]["run_s"]["value"] for r in results[w]["A"])
        print(f"  tracing overhead: traced run_s {traced:.4g} s - untraced median "
              f"{untraced:.4g} s = {traced - untraced:+.3g} s ({(traced / untraced - 1):+.1%})")
        all_ok &= ok_w
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\n{'steady' if all_ok else 'NOT steady'}; raw results in {out.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
