"""Every function and class defined in src/ is used somewhere.

A definition counts as used when its name occurs outside its own body in
code under src/, tests/ or perfbench/ (as a name, an attribute or a word
of a string literal other than a docstring: the benchmark binds names as
strings) or in pyproject.toml.  Imports, docstrings and the names listed in
``__all__`` do not count: exporting a name does not call it.  A public
definition that only tests use must be listed in ``TESTED_ONLY``.
"""

import ast
import importlib.util
import re
from pathlib import Path

import essential_lab
from essential_lab import cli, distributions, geometry, montecarlo, solver, verify, zonoid  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"[A-Za-z_]\w*")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

#: Public src definitions that only tests use, each with the reason it stays.
TESTED_ONLY = {
    "solver.pencil_real_root_counts": "acceptance criterion 05's rank-two pencil average 2",
}


def _docstrings(tree):
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body and isinstance(node.body[0], ast.Expr):
            found.add(id(node.body[0].value))
    return found


def _exports(tree):
    """Ids of the nodes of every value assigned to ``__all__``."""
    return {id(child) for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets)
            for child in ast.walk(node.value)}


def _uses(tree):
    """(name, line) of every name, attribute and string word the tree uses."""
    skipped = _docstrings(tree) | _exports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped):
            for word in WORD.findall(node.value):
                yield word, node.lineno


def _definitions(tree, prefix):
    """(qualified name, name, first line, last line) of every non-dunder definition."""
    stack = [(tree, prefix)]
    while stack:
        scope, name = stack.pop()
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, DEFINITIONS):
                qualified = f"{name}.{node.name}"
                if not node.name.startswith("__"):
                    yield qualified, node.name, node.lineno, node.end_lineno
                stack.append((node, qualified))
            elif not isinstance(node, ast.expr):
                stack.append((node, name))


def unused_definitions(root=ROOT, folders=("src", "tests", "perfbench")):
    """Qualified names of the src/ definitions that no code in ``folders`` uses."""
    uses = {}                      # name -> set of (path, line)
    for folder in folders:
        for path in sorted((root / folder).rglob("*.py")):
            for word, line in _uses(ast.parse(path.read_text(encoding="utf-8"))):
                uses.setdefault(word, set()).add((path, line))
    for word in WORD.findall((root / "pyproject.toml").read_text(encoding="utf-8")):
        uses.setdefault(word, set()).add((root / "pyproject.toml", 0))

    unused = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name, first, last in _definitions(tree, path.stem):
            outside = [u for u in uses.get(name, ())
                       if not (u[0] == path and first <= u[1] <= last)]
            if not outside:
                unused.append(qualified)
    return unused


def test_every_definition_is_used():
    assert unused_definitions() == []


def test_only_listed_public_definitions_are_for_tests_alone():
    """A public definition used by tests alone is listed in TESTED_ONLY with its reason."""
    public = [name for name in unused_definitions(folders=("src", "perfbench"))
              if not any(part.startswith("_") for part in name.split("."))]
    assert sorted(public) == sorted(TESTED_ONLY)


def test_every_export_resolves():
    """Every name in ``essential_lab.__all__`` is an attribute of the package."""
    assert [name for name in essential_lab.__all__ if not hasattr(essential_lab, name)] == []


def test_an_unused_definition_is_found(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "pyproject.toml").write_text('[project.scripts]\nx = "pkg.mod:main"\n')
    (package / "__init__.py").write_text('__all__ = ["exported"]\n')
    (package / "mod.py").write_text(
        "def exported():\n    pass\n\n"
        "def main(obj):\n"
        "    \"\"\"Not a use of recursive or Spare.\"\"\"\n"
        "    return helper(), getattr(obj, 'named')\n\n"
        "def helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Spare:\n"
        "    def __init__(self):\n        pass\n\n"
        "    def named(self):\n        pass\n\n"
        "    def unnamed(self):\n        return self.unnamed\n"
    )
    assert sorted(unused_definitions(tmp_path)) == [
        "mod.Spare", "mod.Spare.unnamed", "mod.exported", "mod.recursive"]


def test_traced_entry_points_exist():
    """Every attribute the benchmark's tracer wraps is defined where it looks for it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans._targets(essential_lab) if attr not in owner.__dict__]
    assert not missing
