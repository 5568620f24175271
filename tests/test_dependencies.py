"""The engine is pure standard library: no module of the package imports
anything outside it, numpy included. Every name a module imports is used in
that module, every parameter a function takes is read in its body, and every
function the package defines is referenced in the package or kept for a
caller outside it."""

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


def _package_imports(path):
    """The package modules a file imports from, by name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("dlearn."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("dlearn")):
            module = (node.module or "").removeprefix("dlearn").lstrip(".")
            yield from ([module.partition(".")[0]] if module else
                        (alias.name for alias in node.names))


def test_oracle_imports_from_the_package_only_logic_and_store():
    """The oracle is an independent check of the engine: it reads clauses
    (logic) and databases (store), and never the saturation, subsumption or
    learning code it checks."""
    assert set(_package_imports(PACKAGE / "oracle.py")) == {"logic", "store"}


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


def _calls_outside(path, names, kept):
    """Every call in a file of a function or method whose name is in
    `names`, outside the function whose qualified name is `kept`."""

    def walk(node, qualified):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, qualified + child.name + ".")
                continue
            if isinstance(child, ast.Call) and qualified != kept + ".":
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    yield child
            yield from walk(child, qualified)

    yield from walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem + ".")


def _mode(call):
    """The mode string an `open` call passes, "r" when it passes none."""
    args = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return args[0].value if args and isinstance(args[0], ast.Constant) else "r"


def test_every_input_file_is_read_by_store():
    """store.text_lines is the one place that opens a file for reading, and
    store.csv_records the one place that splits text into CSV records, so
    every input file is decoded and split by one policy."""
    modules = sorted(PACKAGE.glob("*.py"))
    reads = [f"{path.name}:{call.lineno}" for path in modules
             for call in _calls_outside(path, {"open"}, "store.text_lines")
             if not set(_mode(call)) & set("wax")]
    readers = [f"{path.name}:{call.lineno}" for path in modules
               for call in _calls_outside(path, {"reader", "DictReader"}, "store.csv_records")]
    assert reads == [] and readers == []


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


# functions that nothing in the package references, each with its caller
KEPT_UNCALLED = {
    ("constraints.py", "print_constraints"): "the print/parse round trips in tests",
    ("learner.py", "LearnerConfig.saturation_config"): "bench/run.py",
    ("logic.py", "same_group"): "tests",
    ("oracle.py", "canonical_instance"): "tests (ROADMAP item 7 keeps it)",
    ("oracle.py", "brute_force_entails"): "tests (ROADMAP item 7 keeps it)",
    ("oracle.py", "brute_force_covers"): "tests (ROADMAP item 7 keeps it)",
    ("oracle.py", "clause_set_key"): "tests (ROADMAP item 7 keeps it)",
    ("oracle.py", "clause_sets_equal"): "tests (ROADMAP item 7 keeps it)",
}


def _defined_functions(node, prefix=""):
    """(qualified name, name) of every function, method and nested function
    defined under an ast node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child.name
            yield from _defined_functions(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _defined_functions(child, prefix + child.name + ".")
        else:
            yield from _defined_functions(child, prefix)


def test_every_function_has_a_caller():
    """A function is referenced when its name is read as a name or as an
    attribute anywhere in the package. Dunder methods and `main` are
    exempt."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = {(file, qualified) for file, tree in trees.items()
                for qualified, name in _defined_functions(tree)
                if name not in referenced and name != "main"
                and not (name.startswith("__") and name.endswith("__"))}
    assert sorted(uncalled) == sorted(KEPT_UNCALLED)
