"""Static checks on the package source, parsed with ast: no module keeps an
unused top-level import or an unused module-level private name, and every
name in privroute.__all__ resolves and is listed once."""
import ast
from pathlib import Path

import privroute

SRC = Path(__file__).resolve().parents[1] / "src" / "privroute"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    """The literal __all__ of a module, or an empty list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _imports(tree):
    """(bound name, line) of every top-level import but __future__ ones."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_top_level_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_exported(tree))  # a package re-exports what it imports
        unused += [f"{path.name}:{line}: {name}" for name, line in _imports(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


def _private_definitions(tree):
    """(name, line) of every module-level function, class or constant whose
    name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_no_unused_module_level_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = _parse(path)
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _private_definitions(tree) if name not in loaded
        ]
    assert not unused, f"unused private names: {unused}"


def test_package_all_resolves_once():
    names = _exported(_parse(SRC / "__init__.py"))
    assert names == privroute.__all__
    duplicates = sorted({name for name in names if names.count(name) > 1})
    assert not duplicates, f"listed twice in __all__: {duplicates}"
    missing = [name for name in names if not hasattr(privroute, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
