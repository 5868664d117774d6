"""perfbench/spans.py patches spinsurf functions and methods by name: a rename or
deletion in src/ must fail here, not only in a traced benchmark run."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import importlib, json, pkgutil, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import spinsurf
for info in pkgutil.iter_modules(spinsurf.__path__):
    importlib.import_module("spinsurf." + info.name)
import spans
spans.Tracer().install()
unwrapped = []
for name, modname, attr in spans.TARGETS:
    obj = sys.modules[modname]
    for part in attr.split("."):
        obj = getattr(obj, part)
    if not hasattr(obj, "__wrapped__"):
        unwrapped.append(attr)
print(json.dumps({"targets": len(spans.TARGETS), "unwrapped": unwrapped}))
"""


def test_every_tracer_target_resolves_and_is_patched():
    run = subprocess.run([sys.executable, "-c", _SCRIPT, str(ROOT)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    out = json.loads(run.stdout.strip().splitlines()[-1])
    assert out == {"targets": 29, "unwrapped": []}


_COUNTS = """
import importlib, json, pkgutil, sys
from collections import Counter
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import numpy as np
import spinsurf
for info in pkgutil.iter_modules(spinsurf.__path__):
    importlib.import_module("spinsurf." + info.name)
from spinsurf import (SpinorField, constant_field, evolve, field_from_function, make_grid,
                      square_grid)
from spinsurf.moutard import MoutardTransform
import spans
tracer = spans.Tracer()
tracer.install()
g = square_grid(5.0, 16, periodic=True)
evolve(field_from_function(g, lambda z: np.exp(-abs(z) ** 2)), 3e-3, 1e-3)
g = make_grid((0.4, 2.4, 0.3, 2.3), (16, 16))
psi0 = SpinorField(constant_field(g, 1.0), constant_field(g, 0.0))
zb = g.node_z(g.nx // 2, g.ny // 2)
MoutardTransform.from_background(psi0, psi0, np.array([[0, 1j * np.conj(zb)], [1j * zb, 0]]))
print(json.dumps(Counter(s[0] for s in tracer.spans)))
"""


def test_traced_names_see_the_work_they_name():
    # the evolver steps through DsiiEvolver.step, the step solves the constraint
    # through re_v_from_u, and from_background forms K through k_matrix: the tracer
    # sees each call
    run = subprocess.run([sys.executable, "-c", _COUNTS, str(ROOT)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    counts = json.loads(run.stdout.strip().splitlines()[-1])
    names = ("evolve.step", "dsii.re_v_from_u", "moutard.k_matrix", "moutard.from_background")
    assert {k: counts.get(k, 0) for k in names} == dict(zip(names, (3, 3, 1, 1)))
