"""Reach by execution: the definitions in src/spinsurf that nothing runs.

    python3 tests/reach_audit.py

Runs the README's `spinsurf` command lines, as tests/test_public_names.py's
readme_code reads them (`verify --suite all` among them), and its python blocks
in one process under sys.setprofile, in a temporary working directory, then
prints every function definition in src/spinsurf (nested ones and dunders
included) that never ran and is not on tests/test_public_names.py's KEEP with a
reason, and every KEEP key whose definitions all ran.  It exits 1 if there is
one of either, or if a command fails.  It takes about 20 s.

tests/test_public_names.py checks without running anything that every KEEP key
names a definition.
"""
from __future__ import annotations

import ast
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from test_public_names import KEEP, all_definitions, is_kept, parsed, readme_code  # noqa: E402


def run_readme(seen: set) -> list[str]:
    """Run the README's `spinsurf` lines and python blocks, adding every code object
    that starts to seen; return the commands that exited nonzero."""
    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    blocks, commands = readme_code((ROOT / "README.md").read_text(encoding="utf-8"))
    failed = []
    sys.setprofile(profile)
    try:
        from spinsurf.cli import main
        for cmd in commands:
            if main(shlex.split(cmd)[1:]) != 0:
                failed.append(cmd)
        namespace = {}
        for k, block in enumerate(blocks, 1):
            exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    finally:
        sys.setprofile(None)
    return failed


def main() -> int:
    seen: set = set()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            failed = run_readme(seen)
        finally:
            os.chdir(cwd)
    ran = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in seen}
    defs = []
    for p, tree in parsed().items():
        for node, key in all_definitions(tree, p.stem).items():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                defs.append((key, (p.resolve(), first) in ran))
    never = [key for key, hit in defs if not hit]
    unkept = [key for key in never if not is_kept(key)]
    stale = [k for k in KEEP if not any(key == k or key.startswith(k + ".") for key in never)]
    print(f"{len(defs)} function definitions in src/spinsurf: {len(defs) - len(never)} ran, "
          f"{len(never)} never ran, {len(never) - len(unkept)} of them on KEEP")
    for cmd in failed:
        print(f"failed: {cmd}")
    for key in unkept:
        print(f"never ran, not kept: {key}")
    for key in stale:
        print(f"kept, but ran: {key}")
    return 1 if failed or unkept or stale else 0


if __name__ == "__main__":
    sys.exit(main())
