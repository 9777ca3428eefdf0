"""The package's public surface is what its verdicts use: every function or
class that a module of ``src/weitzlab`` names in ``__all__`` is referenced
somewhere in ``src/`` outside its own definition."""

import ast
import pathlib
from collections import Counter

import weitzlab

SRC = pathlib.Path(weitzlab.__file__).parent


def _exported_definitions(tree: ast.Module):
    """The top-level functions and classes of a module named in its ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names = {e.value for e in node.value.elts}
    return [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in names]


def _names(node: ast.AST) -> Counter:
    """How often each name, attribute and imported name occurs under ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def _unused(trees: dict[str, ast.Module]) -> list[str]:
    """``module: name`` of each exported definition whose name occurs in no
    module outside the definition itself."""
    total = sum((_names(tree) for tree in trees.values()), Counter())
    return [
        f"{module}: {definition.name}"
        for module, tree in trees.items()
        for definition in _exported_definitions(tree)
        if total[definition.name] == _names(definition)[definition.name]
    ]


def test_every_public_definition_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unused(trees) == []


def test_the_guard_flags_definitions_only_they_reference():
    # helper calls itself and is imported elsewhere; orphan and Lonely
    # reference only themselves; LIMIT is not a function or class
    trees = {
        "a.py": ast.parse(
            '__all__ = ["helper", "orphan", "LIMIT"]\nLIMIT = 1\n'
            "def helper(n):\n    return helper(n - 1) if n else LIMIT\n"
            "def orphan():\n    return orphan\n"
        ),
        "b.py": ast.parse('from a import helper\n__all__ = ["Lonely"]\nclass Lonely:\n    x = helper\n    y = None or Lonely\n'),
    }
    assert _unused(trees) == ["a.py: orphan", "b.py: Lonely"]
