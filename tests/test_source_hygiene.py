"""Static checks on the package source, parsed with ast: no module keeps an
unused top-level import or an unused module-level private name, every
name in privroute.__all__ resolves and is listed once, and only Pipeline's
methods pass a solve its projector and tolerances. The benchmark scripts
are parsed too, so that a rename of what they call fails here first."""
import ast
import importlib
import inspect
from pathlib import Path

import privroute

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "privroute"
PERFBENCH = ROOT / "perfbench"


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


def _resolve(dotted):
    """The object a dotted privroute.… name refers to, importing submodules
    that only their user imports; None when it does not resolve."""
    obj = privroute
    try:
        for part in dotted.split(".")[1:]:
            if inspect.ismodule(obj) and not hasattr(obj, part):
                importlib.import_module(f"{obj.__name__}.{part}")
            obj = getattr(obj, part)
    except (AttributeError, ImportError):
        return None
    return obj


def _chain(node):
    """'a.b.c' for a Name/Attribute chain, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else ""


def test_benchmark_attribute_chains_resolve():
    paths = sorted(PERFBENCH.glob("*.py"))
    assert paths
    chains = sorted(
        (path.name, node.lineno, _chain(node))
        for path in paths
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and _chain(node).startswith("privroute.")
    )
    assert chains
    broken = [f"{name}:{line}: {chain}" for name, line, chain in chains if _resolve(chain) is None]
    assert not broken, f"privroute names the benchmark uses that do not resolve: {broken}"


def test_benchmark_traced_names_exist():
    # tracing.TIMED and the ANNOTATE keys name module-level functions or
    # METHODS entries, and each ANNOTATE lambda reads a["..."] only for
    # parameters of its function
    constants = {
        t.id: node.value
        for node in _parse(PERFBENCH / "tracing.py").body if isinstance(node, ast.Assign)
        for t in node.targets if isinstance(t, ast.Name)
    }
    methods = {
        f"{module}.{cls}.{method}"
        for module, entries in ast.literal_eval(constants["METHODS"]).items()
        for cls, method in entries
    }
    annotate = constants["ANNOTATE"]
    readers = {ast.literal_eval(key): value for key, value in zip(annotate.keys, annotate.values)}
    timed = ast.literal_eval(constants["TIMED"])
    assert methods and readers and timed
    problems = [
        f"METHODS: {name} is not a method"
        for name in sorted(methods) if not inspect.isfunction(_resolve(f"privroute.{name}"))
    ]
    for name in sorted(set(timed) | set(readers)):
        fn = _resolve(f"privroute.{name}")
        module = "privroute." + name.split(".")[0]
        if name not in methods and not (inspect.isfunction(fn) and fn.__module__ == module):
            problems.append(f"{name} is not a module-level function of {module}")
            continue
        if name in readers and fn is not None:
            reader = readers[name]
            bound = reader.args.args[0].arg
            read = {
                ast.literal_eval(node.slice)
                for node in ast.walk(reader.body)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == bound
            }
            missing = sorted(read - set(inspect.signature(fn).parameters))
            if missing:
                problems.append(f"ANNOTATE: {name} has no parameter {missing}")
    assert not problems, problems


def test_only_pipeline_methods_pass_solver_settings():
    # which config field becomes the projector and the projection tolerances
    # of a solve is decided in one place, the methods of harness.Pipeline
    keywords = {"projector", "step_tol", "final_tol"}
    passed = []
    for name in ("cli.py", "audit.py", "harness.py"):
        for top in _parse(SRC / name).body:
            if isinstance(top, ast.ClassDef) and top.name == "Pipeline":
                continue
            passed += [
                f"{name}:{node.lineno}: {node.arg}="
                for node in ast.walk(top) if isinstance(node, ast.keyword) and node.arg in keywords
            ]
    assert not passed, f"solver settings passed outside Pipeline: {passed}"
