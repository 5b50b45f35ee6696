"""Source-level checks on the package: no dead private helper."""

import ast
from collections import Counter
from pathlib import Path

import ffspectra

PACKAGE = Path(ffspectra.__file__).resolve().parent


def _names(tree: ast.AST) -> Counter:
    """How often each name is read in the subtree, as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_private_top_level_helper_is_named_outside_its_definition():
    trees = [ast.parse(path.read_text(), filename=path.name) for path in sorted(PACKAGE.glob("*.py"))]
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
