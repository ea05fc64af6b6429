"""Checks over the source text of the tunelz package."""

import ast
from pathlib import Path

import tunelz

PACKAGE = Path(tunelz.__file__).parent


def test_every_top_level_definition_is_exported_or_named():
    # a def or class that is not in __all__ and that no code of the package
    # names, as a bare name or as an attribute, is dead
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    dead = [f"{module}: {node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in tunelz.__all__ and node.name not in named]
    assert dead == []
