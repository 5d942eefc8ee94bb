"""The package's public names, its production callers and the README's
examples."""

import ast
import re
from pathlib import Path

import gdmopt

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_all_names_resolve_once():
    assert len(set(gdmopt.__all__)) == len(gdmopt.__all__)
    for name in gdmopt.__all__:
        assert hasattr(gdmopt, name), name


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _defined_names(tree):
    """Module- and class-level function and class names, minus dunders."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        nodes = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
        for d in nodes:
            if isinstance(d, defs) and not d.name.startswith("__"):
                yield d.name


def _referenced_names(tree):
    """Names used as identifiers, attributes or whole string constants
    (the last covers __all__)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_src_def_has_a_production_reference():
    # Tests do not count as callers: a helper only tests use belongs in
    # the tests.
    production = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in production}
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    unused = sorted(
        name
        for path, tree in trees.items() if path.parent == ROOT / "src" / "gdmopt"
        for name in _defined_names(tree) if name not in used
    )
    assert not unused, f"defined in src/gdmopt, referenced by no src/ or bench/ module: {unused}"


def test_one_direct_solve_layer():
    # Sparse LU factors and solves live in assembly.SPDFactor alone, so no
    # solve can bypass its checked path on the transposed kernel.
    direct = re.compile(r"\b(splu|spsolve|factorized|_lu)\b")
    offenders = sorted(
        path.name for path in (ROOT / "src" / "gdmopt").rglob("*.py")
        if path.name != "assembly.py" and direct.search(path.read_text())
    )
    assert not offenders, f"sparse direct solves outside assembly.py: {offenders}"
