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


def _production_trees():
    """Parsed modules under src/ and bench/, by path."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def test_every_src_def_has_a_production_reference():
    # Tests do not count as callers: a helper only tests use belongs in
    # the tests.
    trees = _production_trees()
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    unused = sorted(
        name
        for path, tree in trees.items() if path.parent == ROOT / "src" / "gdmopt"
        for name in _defined_names(tree) if name not in used
    )
    assert not unused, f"defined in src/gdmopt, referenced by no src/ or bench/ module: {unused}"


def _module_constants(tree):
    """Names a module assigns at its top level in UPPER_CASE."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield target.id


def _read_names(tree):
    """Names read as identifiers or as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_src_constant_is_read_in_production():
    # A constant that only a test patches is a knob nothing else turns.
    trees = _production_trees()
    read = {name for tree in trees.values() for name in _read_names(tree)}
    unread = sorted(
        f"{path.name} {name}"
        for path, tree in trees.items() if path.parent == ROOT / "src" / "gdmopt"
        for name in _module_constants(tree) if name not in read
    )
    assert not unread, f"module constants in src/gdmopt read by no src/ or bench/ module: {unread}"
    # A constant only assigned, patched or named in a string is found.
    code = "LIMIT = 3\nTOL: float = 1e-9\nx.TOL = 0\nnames = ['LIMIT']\n"
    assert sorted(set(_module_constants(ast.parse(code))) - set(_read_names(ast.parse(code)))) \
        == ["LIMIT", "TOL"]


def _unused_imports(tree):
    """(line, name) of each name a module binds by import and neither
    reads as an identifier nor lists in its __all__."""
    bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_no_src_module_imports_an_unused_name():
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted((ROOT / "src" / "gdmopt").glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not unused, f"imported in src/gdmopt and never used: {unused}"
    # A leftover import is found; a name read or exported is not.
    code = "import math, sys\nfrom x import a, b as c\n__all__ = ['a']\nsys.exit(c)\n"
    assert _unused_imports(ast.parse(code)) == [(1, "math")]


def test_one_direct_solve_layer():
    # Sparse LU factors and solves live in assembly.SPDFactor alone, so no
    # solve can bypass its checked path on the transposed kernel.
    direct = re.compile(r"\b(splu|spsolve|factorized|_lu)\b")
    offenders = sorted(
        path.name for path in (ROOT / "src" / "gdmopt").rglob("*.py")
        if path.name != "assembly.py" and direct.search(path.read_text())
    )
    assert not offenders, f"sparse direct solves outside assembly.py: {offenders}"
