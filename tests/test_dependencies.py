"""The engine is pure standard library: no module of the package imports
anything outside it, numpy included. And every name a module imports is
used in that module."""

import ast
import pathlib
import sys

import dlearn

PACKAGE = pathlib.Path(dlearn.__file__).parent


def _absolute_imports(path):
    """(line, top-level module name) of every absolute import in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    seen = set()
    for path in modules:
        for line, name in _absolute_imports(path):
            assert name in sys.stdlib_module_names, f"{path.name}:{line} imports {name}"
            seen.add(name)
    assert {"dataclasses", "re"} <= seen


def _unused_imports(path):
    """(line, name) of every name an import in a file binds (`__future__`
    aside) that the file never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name not in read)


def test_package_uses_every_name_it_imports():
    unused = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
              for line, name in _unused_imports(path)]
    assert unused == []
