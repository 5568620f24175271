"""The engine is pure standard library: no module of the package imports
anything outside it, numpy included. Every name a module imports is used in
that module, and every parameter a function takes is read in its body."""

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


# bench/run.py passes the MDs to ground_bottom_clause positionally, and the
# two bottom-clause builders keep one signature; what saturation uses of the
# MDs comes through the similarity index
KEPT_PARAMETERS = {("saturation.py", "bottom_clause", "mds"),
                   ("saturation.py", "ground_bottom_clause", "mds")}


def _unread_parameters(path):
    """(line, function, parameter) of every parameter of a function or
    lambda in a file that its body never reads. `self`, `cls` and a
    `_`-prefixed parameter with a default (a value bound at definition) are
    exempt."""
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = {p.arg for p in positional[len(positional) - len(args.defaults):]}
        defaulted.update(p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
        params = [p.arg for p in (*positional, *args.kwonlyargs, args.vararg, args.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(fn, "name", "<lambda>")
        for p in params:
            if p in read or p in ("self", "cls") or (p.startswith("_") and p in defaulted):
                continue
            yield fn.lineno, name, p


def test_every_parameter_is_read():
    found = {(path.name, name, param): line for path in sorted(PACKAGE.glob("*.py"))
             for line, name, param in _unread_parameters(path)}
    unread = [f"{file}:{line} {name}({param})" for (file, name, param), line in found.items()
              if (file, name, param) not in KEPT_PARAMETERS]
    assert unread == []
    assert KEPT_PARAMETERS <= found.keys()
