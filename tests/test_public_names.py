"""src/ keeps only what a suite, the CLI or the README reaches.

An AST pass over src/spinsurf/*.py (not __init__.py, whose exports reach
nothing by themselves):

* every function, class and method (dunders aside) is named in src/ somewhere
  other than its own def, or in README.md, or is on KEEP below with its reason,
  or is a perfbench tracer target (read from perfbench/spans.py's TARGETS);
* a method (a def directly in a class body) counts as named in src/ only as an
  attribute (x.name), so a local variable or a function of the same name does
  not reach it; README words come from code spans and blocks, # comments aside;
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
    """{definition: qualified name} for every function, class and method, dunders
    aside; a method is a def directly in a class body, named Class.method."""
    out = {n: n.name for n in ast.walk(tree)
           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for c in ast.walk(tree):
        if isinstance(c, ast.ClassDef):
            out.update({n: f"{c.name}.{n.name}" for n in c.body if n in out})
    return {n: q for n, q in out.items()
            if not (n.name.startswith("__") and n.name.endswith("__"))}


def _uses(tree):
    """The identifiers a module reads: (names and imported names, attribute names)."""
    names, attrs = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
    return names, attrs


def _readme_words() -> set:
    """The words in README.md's code spans and blocks; a # comment in a block is prose."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"```.*?```", lambda m: re.sub(r"#.*", "", m.group()), text, flags=re.S)
    return {w for span in re.findall(r"`+([^`]+)`+", text) for w in re.findall(r"\w+", span)}


def test_every_definition_is_reached():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in SRC}
    uses = [_uses(tree) for tree in trees.values()]
    names = set().union(*(n for n, _ in uses))
    attrs = set().union(*(a for _, a in uses))
    elsewhere = _readme_words() | set(KEEP) | _tracer_targets()
    unreached = sorted(f"{p.stem}.{q}" for p, tree in trees.items()
                       for d, q in _definitions(tree).items()
                       if d.name not in (attrs if "." in q else names | attrs) | elsewhere)
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
