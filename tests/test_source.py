"""Source-level checks on the package: no dead private helper, no import
inside a function or class, and an acyclic graph of relative imports."""

import ast
from collections import Counter
from pathlib import Path

import ffspectra

PACKAGE = Path(ffspectra.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(), filename=path.name) for path in sorted(PACKAGE.glob("*.py"))}


def _names(tree: ast.AST) -> Counter:
    """How often each name is read in the subtree, as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_private_top_level_helper_is_named_outside_its_definition():
    trees = list(TREES.values())
    everywhere = sum((_names(tree) for tree in trees), Counter())
    dead = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and everywhere[node.name] == _names(node)[node.name]
    ]
    assert dead == []


def test_no_module_imports_inside_a_function_or_class():
    nested = sorted(
        {
            f"{module}.py:{node.lineno}"
            for module, tree in TREES.items()
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for node in ast.walk(scope)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )
    assert nested == []


def _relative_imports(tree: ast.AST):
    """(module, line) for each `from .x import ...` and each x of `from . import x`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module.partition(".")[0]] if node.module else [alias.name for alias in node.names]
            for target in targets:
                yield target, node.lineno


def test_relative_imports_form_an_acyclic_graph():
    graph = {module: {} for module in TREES}  # module -> {imported module: first line}
    for module, tree in TREES.items():
        for target, line in _relative_imports(tree):
            graph[module].setdefault(target, line)
    cycles, stack, done = [], [], set()

    def visit(module):
        if module in stack:
            loop = stack[stack.index(module):] + [module]
            cycles.append("; ".join(f"{a}.py:{graph[a][b]} imports {b}" for a, b in zip(loop, loop[1:])))
        elif module not in done:
            stack.append(module)
            for target in graph.get(module, {}):
                visit(target)
            stack.pop()
            done.add(module)

    for module in graph:
        visit(module)
    assert cycles == []
