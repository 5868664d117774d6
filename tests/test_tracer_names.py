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
