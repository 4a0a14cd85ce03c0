"""The package has no runtime dependencies: every module under
src/quandlekit imports only the standard library and quandlekit itself.
No linter is a dependency either, so the unused-import and unreached-
definition checks are here too."""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quandlekit"
BENCH = ROOT / "bench"


def test_package_imports_only_stdlib():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "quandlekit"]
    assert not foreign


def test_every_imported_name_is_read():
    """Each name a package module imports, outside __init__.py (which
    re-exports) and __future__, is read somewhere in that module."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert not unread


def _references(tree) -> Counter:
    """How often each identifier is read as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _traced() -> dict:
    """bench/tracing.py's LAYERS, the functions its tracer wraps by module,
    loaded by path as tests/test_tracing_layers.py loads it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_every_definition_is_reached():
    """Each top-level function and class of the package is read, as a name
    or an attribute, by package code outside its own definition, so a helper
    whose last caller went is deleted with it.  A public one may instead be
    exported by __init__.py, read by a bench/*.py file or wrapped by its
    module's LAYERS entry in bench/tracing.py; code kept only for the tests
    lives under tests/, and code the tracer holds goes once LAYERS lets go
    of it."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum(map(_references, trees.values()), Counter())
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = {node.id if isinstance(node, ast.Name) else node.attr
             for path in sorted(BENCH.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)}
    traced = _traced()
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("__")):
                continue
            name = node.name
            reached = everywhere[name] > _references(node)[name]
            if not name.startswith("_"):
                reached = (reached or name in exported or name in bench
                           or name in traced.get(module, ()))
            if not reached:
                unreached.append(f"{module}.{name}")
    assert not unreached
