"""Every function or method defined in src/u3kit is named somewhere else,
and every option it takes is set by some caller.

A function, or a property, counts as used when it appears in src/, tests/
or bench/ as an identifier, an attribute or a string constant (the bench
tracer wraps functions by name), anywhere but in its own `def` line.  A
plain method (not a property) counts as used only when something calls it
(`x.name(...)`) or names it in a string constant "Class.name", as the bench
tracer does: an attribute read, a local variable or a JSON key of the same
name, such as `rep.value`, `result["value"]` or numpy's `a.flat`, is not a
use.  An import alone is not a use: a
function that is imported but never called is dead.  Dunder methods are
exempt: the language calls them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees():
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _used_names(tree: ast.AST) -> tuple[Counter, ...]:
    """(identifiers, attributes, string constants, dotted string constants
    by their last part, called attributes)."""
    names, attrs, strings, dotted, calls = Counter(), Counter(), Counter(), Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            head, _, last = node.value.rpartition(".")
            if node.value.isidentifier():
                strings[node.value] += 1
            elif head and last.isidentifier():
                dotted[last] += 1
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            calls[node.func.attr] += 1
    return names, attrs, strings, dotted, calls


def _is_property(node: ast.FunctionDef) -> bool:
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
        if name in ("property", "cached_property", "setter", "getter", "deleter"):
            return True
    return False


def _definitions(tree: ast.AST):
    """(node, is a plain method) for every function and method."""
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods.update(id(n) for n in node.body
                           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_property(n))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, id(node) in methods


def test_every_function_in_src_has_a_caller():
    names, attrs, strings, dotted, calls = Counter(), Counter(), Counter(), Counter(), Counter()
    defined = []
    for path, tree in _trees():
        for total, part in zip((names, attrs, strings, dotted, calls), _used_names(tree)):
            total.update(part)
        if path.is_relative_to(ROOT / "src" / "u3kit"):
            for node, method in _definitions(tree):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((f"{path.relative_to(ROOT)}:{node.lineno} {node.name}", node.name, method))
    dead = [where for where, name, method in defined
            if (calls[name] + dotted[name] if method else names[name] + attrs[name] + strings[name]) == 0]
    assert dead == [], dead


def _options(node: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, position in a call) of every parameter with a default; the
    position is None for a keyword-only one, and a method's `self` (or
    `cls`) takes no place in the call."""
    a = node.args
    positional = a.posonlyargs + a.args
    static = any(getattr(d, "id", "") == "staticmethod" for d in node.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls_by_name(tree: ast.AST):
    """(called name, positional count, keywords) of every call; a *args
    reaches every position and a **kwargs every keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name is None:
                continue
            starred = any(isinstance(x, ast.Starred) for x in node.args)
            kws = {k.arg for k in node.keywords}
            yield name, float("inf") if starred else len(node.args), kws


def test_every_option_in_src_is_set_by_a_caller():
    """A parameter with a default is an option.  It counts as set when some
    call, in src/, tests/ or bench/, to a function of its name passes it by
    keyword or passes enough positional arguments to reach it.  An option
    that nothing sets is a constant and belongs in the function body."""
    reach: dict[str, float] = {}
    keywords: dict[str, set] = {}
    defined = []
    for path, tree in _trees():
        for name, npos, kws in _calls_by_name(tree):
            reach[name] = max(reach.get(name, 0), npos)
            keywords.setdefault(name, set()).update(kws)
        if path.is_relative_to(ROOT / "src" / "u3kit"):
            for node, method in _definitions(tree):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    for opt, pos in _options(node, method):
                        defined.append((f"{path.relative_to(ROOT)}:{node.lineno} {node.name}({opt})",
                                        node.name, opt, pos))
    unset = [where for where, name, opt, pos in defined
             if None not in keywords.get(name, ()) and opt not in keywords.get(name, ())
             and (pos is None or reach.get(name, 0) <= pos)]
    assert unset == [], unset
