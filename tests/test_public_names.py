"""src/ keeps only what a suite, the CLI or the README reaches.

An AST pass over src/spinsurf/*.py (not __init__.py, whose exports reach
nothing by themselves):

* every function, class and method (dunders aside) is named in src/ somewhere
  other than its own def, or in README.md, or is on KEEP below with its reason,
  or is a perfbench tracer target (read from perfbench/spans.py's TARGETS);
* no module-level import goes unused.

A definition that only its own tests reach belongs in the tests (as an oracle
or a measuring tool) or nowhere.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(p for p in (ROOT / "src" / "spinsurf").glob("*.py") if p.name != "__init__.py")

# name -> why it stays in src/ although nothing there, the CLI or the README names it
KEEP = {
    "time_offset_integral": "the time-augmented Moutard route of ROADMAP item 4",
    "mnv_residual": "the exact mKdV-soliton check of criterion 9, ROADMAP item 5",
    "physical_form": "the one z <-> physical map that ROADMAP item 2 asks for",
}


def _tracer_targets() -> set:
    """The attribute names perfbench/spans.py patches, read from its TARGETS."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {attr.split(".")[-1] for _, _, attr in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py has no TARGETS list")


def _definitions(tree):
    return [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def _uses(tree) -> list:
    """Every identifier a module reads: names, attributes and keyword names."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name.split(".")[-1])
    return out


def test_every_definition_is_reached():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in SRC}
    used = {name for tree in trees.values() for name in _uses(tree)}
    readme = {w for span in re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text(encoding="utf-8"))
              for w in re.findall(r"\w+", span)}          # words in code spans and blocks
    allowed = used | readme | set(KEEP) | _tracer_targets()
    unreached = sorted(f"{p.stem}.{d.name}" for p, tree in trees.items()
                       for d in _definitions(tree) if d.name not in allowed)
    assert unreached == []


def test_keep_list_names_exist():
    defined = {d.name for p in SRC for d in _definitions(ast.parse(p.read_text(encoding="utf-8")))}
    assert set(KEEP) <= defined


def test_no_unused_module_imports():
    unused = []
    for p in SRC:
        tree = ast.parse(p.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    if a.name == "annotations" and getattr(node, "module", None) == "__future__":
                        continue
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{p.stem}:{line}:{name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []
