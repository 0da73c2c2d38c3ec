"""Every function or method defined in src/u3kit is named somewhere else.

A name counts as used when it appears in src/, tests/ or bench/ as an
identifier, an attribute or a string constant (the bench tracer wraps
functions by name), anywhere but in its own `def` line.  An import alone
is not a use: a function that is imported but never called is dead.
Dunder methods are exempt: the language calls them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees():
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _used_names(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names[node.value] += 1
    return names


def test_every_function_in_src_has_a_caller():
    used = Counter()
    defined = []
    for path, tree in _trees():
        used.update(_used_names(tree))
        if path.is_relative_to(ROOT / "src" / "u3kit"):
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        defined.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    dead = [d for d in defined if used[d.rsplit(" ", 1)[1]] == 0]
    assert dead == [], dead
