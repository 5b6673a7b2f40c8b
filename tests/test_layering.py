"""The package is layered: errors <- simplex <- zdelta <- {chains, oriental}
<- nu, with cli on top.  Each library module imports, at its top, only
modules below it, and no library function imports anything when it runs;
cli alone imports per command, so that one run loads only what it uses.
Every private module-level name is read somewhere in the package besides
its definition, so no dead helper outlives the code that used it."""

import ast
import os

import osimplex

PACKAGE = os.path.dirname(os.path.abspath(osimplex.__file__))

# Module -> the package modules it may import.
BELOW = {
    "__init__": set(),
    "errors": set(),
    "simplex": {"errors"},
    "zdelta": {"errors", "simplex"},
    "chains": {"errors", "simplex", "zdelta"},
    "oriental": {"errors", "simplex", "zdelta"},
    "nu": {"errors", "simplex", "zdelta", "chains", "oriental"},
    "cli": {"errors", "simplex", "zdelta", "chains", "oriental", "nu"},
}


def _imports(node, in_function=False):
    """Yield (import statement, whether it is inside a function) under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, in_function
        inside = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _imports(child, inside)


def _package_targets(statement):
    """The package modules an import statement names."""
    if isinstance(statement, ast.ImportFrom) and statement.level:
        if statement.module:
            return {statement.module.split(".")[0]}
        return {alias.name for alias in statement.names}
    names = [statement.module] if isinstance(statement, ast.ImportFrom) else [
        alias.name for alias in statement.names
    ]
    return {name.split(".")[1] for name in names if name.startswith("osimplex.")}


def test_modules_import_only_the_layers_below_and_never_at_call_time():
    modules = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))
    assert modules == sorted(BELOW)
    broken = []
    for module in modules:
        with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for statement, in_function in _imports(tree):
            where = f"{module}.py:{statement.lineno}"
            if in_function and module != "cli":
                broken.append(f"{where} imports inside a function")
            for target in _package_targets(statement) - BELOW[module]:
                broken.append(f"{where} imports {target}, which is not below it")
    assert not broken, broken


def _private_definitions(tree):
    """The private names a module defines at its top level, by statement."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [statement.name]
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, statement


def test_every_private_module_level_name_is_used_besides_its_definition():
    # A kernel left behind by a rewrite shows up here as a name nothing reads.
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                trees[name[:-3]] = ast.parse(handle.read())
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            uses = [
                node
                for other in trees.values()
                for statement in other.body if statement is not definition
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
            ]
            if not uses:
                unused.append(f"{module}.{name}")
    assert not unused, unused
