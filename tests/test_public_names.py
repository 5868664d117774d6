"""src/ keeps only what a suite, the CLI or the README reaches.

An AST pass over src/spinsurf/*.py (not __init__.py, whose exports reach
nothing by themselves):

* every function, class and method (dunders aside) is used in src/ somewhere
  other than its own def, or named in the README's code, or is on KEEP below
  with its reason;
* README words come only from its python blocks and its `spinsurf` command
  lines, # comments aside: a name in its prose, code spans included, reaches
  nothing;
* a name read in a function reaches no definition when it is a local variable
  or a parameter there (or in a function around it);
* an attribute x.name reaches a method through its owner when x's class is
  known statically: self or cls in a method, a class name, or a parameter or
  class-body field annotated with a src/ class.  It reaches the definition
  that x's class (or its first src/ base that has one) holds, and the
  definitions of x's subclasses.  Only when x's class is unknown does it reach
  every class that defines name;
* no module-level import goes unused.

KEEP names, as module.qualname (a class covers its methods), every definition
allowed not to run.  tests/reach_audit.py runs the README under a profiler and
lists what in src/ never ran and is not on KEEP; it is run by hand, and the
tests here check KEEP without running it.

A definition that only its own tests reach belongs in the tests (as an oracle
or a measuring tool) or nowhere.
"""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(p for p in (ROOT / "src" / "spinsurf").glob("*.py") if p.name != "__init__.py")

# module.qualname -> why it stays in src/ although nothing in the README runs it
KEEP = {
    # perfbench/spans.py traces them (ROADMAP item 6)
    "dirac.Mat2Field": "the tests' general-matrix oracle and the span tracer's target",
    "dirac._empty": "Mat2Field's allocator",
    "evolve.DsiiEvolver.step": "the span tracer's evolve.step",
    "dsii.re_v_from_u": "the span tracer's dsii.re_v_from_u",
    "moutard.k_matrix": "the span tracer's moutard.k_matrix",
    # open items of ROADMAP
    "moutard.time_offset_integral": "the time-augmented Moutard route of item 4",
    "moutard.omega1": "the time-augmented Moutard route of item 4",
    # run on paths that the README does not run
    "dsii.to_halved_v_form": "the halved-V convention; perfbench's checks use it",
    "exactpoly.RationalFn.eval": "point sets; perfbench/test_checks.py calls it",
    # Python's data model
    "exactpoly.BiPoly.__hash__": "BiPoly defines __eq__, so it is hashable only with it",
    "grid.Grid2D.__hash__": "Grid2D defines __eq__, so it is hashable only with it",
    "grid.Grid2D.__setattr__": "a grid is frozen: assigning to one raises",
    "grid.Grid2D.__delattr__": "a grid is frozen: deleting from one raises",
    "exactpoly.BiPoly.__repr__": "how a failing assertion shows a polynomial",
    "exactpoly.RationalFn.__repr__": "how a failing assertion shows a rational function",
}


def parsed() -> dict:
    """{path: module AST} over SRC."""
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in SRC}


def is_kept(key: str) -> bool:
    """Whether KEEP names key (module.qualname) or a class around it."""
    parts = key.split(".")
    return any(".".join(parts[:k]) in KEEP for k in range(2, len(parts) + 1))


def all_definitions(tree, module: str) -> dict:
    """{definition: module.qualname} for every function, class and method, nested
    ones and dunders included."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out[child] = f"{prefix}.{child.name}"
                visit(child, out[child])
            else:
                visit(child, prefix)

    visit(tree, module)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Classes:
    """The src/ classes (their names are unique there): their methods, src/ bases
    and src/-typed fields."""

    def __init__(self, trees):
        self.defs = {}
        for n in (n for tree in trees for n in ast.walk(tree)):
            if isinstance(n, ast.ClassDef):
                assert n.name not in self.defs, f"two src/ classes named {n.name}"
                self.defs[n.name] = n
        self.methods = {c: {n.name for n in d.body
                            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
                        for c, d in self.defs.items()}
        self.bases = {c: [b.id for b in d.bases if isinstance(b, ast.Name) and b.id in self.defs]
                      for c, d in self.defs.items()}
        self.fields = {c: {n.target.id: t for n in d.body
                           if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                           and (t := self.of_annotation(n.annotation))}
                       for c, d in self.defs.items()}

    def of_annotation(self, ann):
        """The src/ class an annotation names (X, "X", X | None), else None."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return self.of_annotation(ast.parse(ann.value, mode="eval").body)
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            sides = [s for s in (ann.left, ann.right)
                     if not (isinstance(s, ast.Constant) and s.value is None)]
            return self.of_annotation(sides[0]) if len(sides) == 1 else None
        return ann.id if isinstance(ann, ast.Name) and ann.id in self.defs else None

    def mro(self, c):
        yield c
        for b in self.bases[c]:
            yield from self.mro(b)

    def field(self, c, name):
        return next((self.fields[k][name] for k in self.mro(c) if name in self.fields[k]), None)

    def owners(self, c, name) -> set:
        """The classes whose `name` an attribute read on an instance of c can reach."""
        first = next((k for k in self.mro(c) if name in self.methods[k]), None)
        subs = {k for k in self.defs if k != c and c in self.mro(k) and name in self.methods[k]}
        return subs | ({first} if first else set())


def _bound(fn) -> set:
    """The parameters of fn and the names it stores into, nested scopes aside."""
    a = fn.args
    out = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(n))
    return out


def _uses(tree, classes: _Classes):
    """What a module reads: (names that are not local variables or parameters,
    imported names, {(receiver class or None, attribute name)})."""
    names, attrs = set(), set()

    def receiver(node, local, types):
        if isinstance(node, ast.Name):
            if node.id in types:
                return types[node.id]
            return node.id if node.id in classes.defs and node.id not in local else None
        if isinstance(node, ast.Attribute):
            c = receiver(node.value, local, types)
            return classes.field(c, node.attr) if c else None
        return None

    def visit(nodes, owner, local, types):
        for child in nodes:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                bound = _bound(child)
                inner = {k: v for k, v in types.items() if k not in bound}
                a = child.args
                for x in a.posonlyargs + a.args + a.kwonlyargs:
                    if x.annotation is not None and (t := classes.of_annotation(x.annotation)):
                        inner[x.arg] = t
                params = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in getattr(child, "decorator_list", []))
                if owner and params and not static:
                    inner[params[0].arg] = owner
                outer = (getattr(child, "decorator_list", []) + a.defaults + a.kw_defaults
                         + [getattr(child, "returns", None)]
                         + [x.annotation for x in params + a.kwonlyargs + [a.vararg, a.kwarg] if x])
                visit([d for d in outer if d is not None], None, local, types)
                visit(child.body if isinstance(child.body, list) else [child.body], None,
                      local | bound, inner)
                continue
            if isinstance(child, ast.ClassDef):
                visit(ast.iter_child_nodes(child), child.name, local, types)
                continue
            if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
                if child.id not in local:
                    names.add(child.id)
            elif isinstance(child, ast.Attribute):
                attrs.add((receiver(child.value, local, types), child.attr))
            elif isinstance(child, ast.alias):
                names.add(child.name.split(".")[-1])
            visit(ast.iter_child_nodes(child), None, local, types)

    visit(tree.body, None, set(), {})
    return names, attrs


def readme_code(text: str):
    """README.md's python blocks and its `spinsurf` command lines (continuations
    joined, # comments and extra spaces dropped)."""
    blocks = re.findall(r"```(\w*)\n(.*?)```", text, re.S)
    python = [body for lang, body in blocks if lang == "python"]
    commands = []
    for lang, body in blocks:
        if lang == "python":
            continue
        for line in re.sub(r"\\\n", " ", body).splitlines():
            line = " ".join(re.sub(r"#.*", "", line).split())
            if line.startswith("spinsurf "):
                commands.append(line)
    return python, commands


def _readme_words() -> set:
    """The words of README.md's python blocks and `spinsurf` lines, # comments aside."""
    python, commands = readme_code((ROOT / "README.md").read_text(encoding="utf-8"))
    return {w for code in python + commands for w in re.findall(r"\w+", re.sub(r"#.*", "", code))}


def test_every_definition_is_reached():
    trees = parsed()
    classes = _Classes(trees.values())
    names, attrs = set(), set()
    for tree in trees.values():
        n, a = _uses(tree, classes)
        names |= n
        attrs |= a
    readme = _readme_words()

    def reached(node, parent):
        name = node.name
        if name in readme:
            return True
        if isinstance(parent, ast.ClassDef):
            return any(c is None or parent.name in classes.owners(c, name)
                       for c, a in attrs if a == name)
        return name in names or (None, name) in attrs

    unreached = []
    for p, tree in trees.items():
        defs = all_definitions(tree, p.stem)
        parents = {c: n for n in defs for c in n.body}
        parents.update({c: tree for c in tree.body})
        unreached += [key for node, key in defs.items()
                      if not _is_dunder(node.name) and not is_kept(key)
                      and not reached(node, parents.get(node))]
    assert sorted(unreached) == [], sorted(unreached)


def test_keep_list_names_exist():
    defined = {key for p, tree in parsed().items()
               for key in all_definitions(tree, p.stem).values()}
    assert set(KEEP) - defined == set()


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


def test_no_module_reads_another_modules_private_names():
    # each rule lives in one module: no src/ module imports a _-prefixed name from
    # another, and only exactpoly reads how a polynomial is stored (BiPoly.coef and
    # BiPoly._specialise); the others go through its public methods
    found = []
    for p in SRC:
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "spinsurf"):
                found += [f"{p.stem}:{node.lineno}: imports {a.name}" for a in node.names
                          if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("coef", "_specialise")
                  and p.stem != "exactpoly"):
                found.append(f"{p.stem}:{node.lineno}: reads .{node.attr}")
    assert found == []


def test_import_builds_no_dataclasses():
    # building a dataclass execs its generated methods from source, the largest
    # runtime cost of importing the package; numpy and the stdlib modules the
    # package imports load no dataclasses
    code = ("import sys, importlib, json, numpy, argparse, pathlib\n"
            "before = set(sys.modules)\n"
            f"for name in {tuple(p.stem for p in SRC)!r}:\n"
            "    importlib.import_module('spinsurf.' + name)\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = json.loads(out)
    assert {"spinsurf.verify", "spinsurf.hierarchy", "spinsurf.cli"} <= set(loaded)
    assert "dataclasses" not in loaded
