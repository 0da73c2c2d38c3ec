"""Every function or method defined in src/u3kit has a caller in src/ or
bench/, every option it takes is set by some caller, and no module of
src/u3kit imports a name it does not use.

Only src/ and bench/ count as callers: a function that only tests reach is
either a test helper, and lives under tests/, or dead.  Names resolve by
what a file imports, not by spelling:

* a module-level function counts as used in a file only when that file
  defines it or imports it by name (`from .groups import shift`) and then
  names it, or reaches it as `module.name` through an imported module;
  another module's local variable `shift`, or `np.mean`, is not a use;
* a method counts as used only through a call `x.name(...)` whose receiver
  is not an imported module, or through a string constant "Class.name", as
  the bench tracer names the methods it wraps; a property also counts when
  it is read as `x.name`.  Receivers are not typed, so `v.copy()` on an
  array is a use of every method named `copy`: a method or property named
  like an `np.ndarray` attribute must be listed in NDARRAY_NAMESAKES with
  its reason.

An import alone is not a use.  Dunder methods count as live, since the
language calls them, but every one other than __init__ and __post_init__
must be listed in DUNDERS with the src/ or bench/ expression that reaches
it: an operator or call dunder with no such expression is dead all the
same.  ALLOWED would list a function kept without a caller, with its
reason; it is empty.  An option is set only by a call in src/ or bench/ that
resolves to its function the same way; ALLOWED_OPTIONS would list the options
of allowlisted functions.
"""

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "bench")

# Functions kept without a caller in src/ or bench/, each with its reason, and
# their options: both empty, and the cap in test_allowlist_is_short_and_current
# keeps them so.
ALLOWED: dict[str, str] = {}
ALLOWED_OPTIONS: dict[str, str] = {}


# Methods and properties of src/u3kit named like an np.ndarray attribute, each
# with the reason it stays: the caller gate cannot tell their calls from the
# array's, so such a name needs a reason to exist.
NDARRAY_NAMESAKES: dict[str, str] = {}


# Every dunder method of src/u3kit other than __init__ and __post_init__, with
# the expression in src/ or bench/ that makes the language call it.
DUNDERS: dict[str, str] = {
    "bohr.BohrSet.__len__": "len(B) in cli._cmd_bohr and selftest.run_selftest",
    "inverse_f5.PhaseGraph.__len__": "len(gamma) in inverse_f5.quadratic_obstruction",
    "groups.GroupSpec.__str__": "str(f.owner) in groups.function_to_json",
    "nil.CutoffSpec.__call__": "chi(x) in the heis block function of cli._cmd_nilseq",
    "nil.NilFunction.__call__": "F(orbit_point(sys, x0, n)) in nil.nilsequence",
}


def _sources(tops=("src", "tests", "bench")) -> dict[str, str]:
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for top in tops for path in sorted((ROOT / top).rglob("*.py"))}


def _module(rel: str) -> str:
    """The import name of a file: src/u3kit/x.py is u3kit.x, and a bench
    script, run with bench/ on the path, is its stem."""
    parts = rel.removesuffix(".py").split("/")
    if parts[0] == "src":
        parts = parts[1:]
    elif parts[0] == "bench":
        parts = parts[-1:]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_property(node: ast.FunctionDef) -> bool:
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
        if name in ("property", "cached_property", "setter", "getter", "deleter"):
            return True
    return False


def _qualname(node: ast.FunctionDef, scope: str | None, cls: str | None) -> str:
    """Class.name for a method, outer.name for a nested function, else the name."""
    return f"{cls or scope}.{node.name}" if cls or scope else node.name


def _walk(tree: ast.AST):
    """(scope, class, node) for every node of a module.  The scope is the
    qualified name of the innermost function whose body holds the node
    (Class.name for a method, outer.name for a function nested in another),
    or None at module level; the class is set on the statements of a class
    body.  A function's decorators, defaults and annotations run in the
    scope around it."""
    def visit(node, scope, cls):
        yield scope, cls, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = _qualname(node, scope, cls)
            for part in (*node.decorator_list, node.args, *([node.returns] if node.returns else [])):
                yield from visit(part, scope, None)
            for stmt in node.body:
                yield from visit(stmt, qual, None)
            return
        inner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope, inner)
    yield from visit(tree, None, None)


def _defined(tree: ast.AST):
    """(qualified name, node, kind) of every function in a module: kind is
    "function" (module level or nested in a function), "method" or
    "property"; names are qualified as in _walk, so a nested function's is
    outer.name."""
    for scope, cls, node in _walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kind = "function" if cls is None else "property" if _is_property(node) else "method"
            yield _qualname(node, scope, cls), node, kind


def _bindings(tree: ast.AST, module: str, modules: set[str]):
    """Names an import binds in a file: {name: module} for modules and
    {name: (module, attribute)} for everything else."""
    mods, objs = {}, {}
    is_package = any(m.startswith(module + ".") for m in modules)
    package = module if is_package else module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    mods[a.asname] = a.name
                else:
                    head = a.name.split(".")[0]
                    mods[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                up = package.split(".")
                base = ".".join(up[: len(up) - node.level + 1] + ([node.module] if node.module else []))
            for a in node.names:
                full = f"{base}.{a.name}" if base else a.name
                if full in modules:
                    mods[a.asname or a.name] = full
                else:
                    objs[a.asname or a.name] = (base, a.name)
    return mods, objs


def _dotted(node: ast.AST) -> list[str] | None:
    """The names of an attribute chain a.b.c, or None for any other node."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


class _Uses:
    """What one scope of a file uses: functions as (module, name) pairs,
    resolved through the file's imports and its own definitions, and the
    names of attributes called or read on a receiver that is not an imported
    module, and string constants."""

    def __init__(self):
        self.functions, self.called, self.read, self.strings = set(), set(), set(), set()

    def update(self, other: "_Uses"):
        for mine, theirs in zip(vars(self).values(), vars(other).values()):
            mine |= theirs


def _module_of(node: ast.AST, mods: dict, modules: set[str]) -> str | None:
    """The module a receiver names: an imported module, or an attribute chain
    through one (np.linalg, u3kit.groups); ``mods`` as from _bindings."""
    chain = _dotted(node)
    if chain is None or chain[0] not in mods:
        return None
    path = mods[chain[0]]
    for part in chain[1:]:
        if path in modules and f"{path}.{part}" not in modules:
            return None  # a class or an object reached through a module of ours
        path = f"{path}.{part}"
    return path


def _uses(tree: ast.AST, module: str, modules: set[str]) -> dict:
    """{scope: _Uses} of one file, scopes as in _walk."""
    mods, objs = _bindings(tree, module, modules)
    local = {node.name for _, node, kind in _defined(tree) if kind == "function"}

    def module_of(node) -> str | None:
        return _module_of(node, mods, modules)

    out: dict = {}
    for scope, _, node in _walk(tree):
        u = out.setdefault(scope, _Uses())
        if isinstance(node, ast.Name):
            if node.id in objs:
                u.functions.add(objs[node.id])
            elif node.id in local:
                u.functions.add((module, node.id))
        elif isinstance(node, ast.Attribute):
            owner = module_of(node.value)
            if owner is not None:
                u.functions.add((owner, node.attr))
            else:
                u.read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if module_of(node.func.value) is None:
                u.called.add(node.func.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            u.strings.add(node.value)
    return out


def _enclosing(key: tuple[str, str]) -> tuple[str, str | None]:
    """The scope key around a function's key (path, qualified name): its
    enclosing function's, or (path, None), the module's, at module level."""
    return key[0], key[1].rpartition(".")[0] or None


def dead_functions(sources: dict[str, str], allowed=()) -> list[str]:
    """"path:line module.qualname" of every function, method and property
    defined under src/u3kit in ``sources`` (path -> text, paths relative to
    the repository root) that no live code under src/ or bench/ uses.

    Live code is module-level code, all of bench/, the bodies of dunder
    methods and of the ``allowed`` qualified names, and the body of every
    function that live code uses, so a function whose only callers are dead
    is dead too.  A nested function is live only when live code uses its
    name and its enclosing function is live: a dead function's nested
    namesake of a live one stays dead, and so do the functions it calls."""
    trees = {rel: ast.parse(text, filename=rel) for rel, text in sources.items()
             if rel.split("/")[0] in CALLERS}
    modules = {_module(rel) for rel in trees}
    scopes, defs = {}, []
    for rel, tree in trees.items():
        module, in_src = _module(rel), rel.startswith("src/u3kit/")
        for scope, u in _uses(tree, module, modules).items():
            scopes.setdefault((rel, scope if in_src else None), _Uses()).update(u)
        if in_src:
            for qual, node, kind in _defined(tree):
                name = f"{module.removeprefix('u3kit.')}.{qual}"
                root = (node.name.startswith("__") and node.name.endswith("__")) or name in allowed
                defs.append(((rel, qual), module, name, node, kind, root))
    live = {key for key in scopes if key[1] is None} | {d[0] for d in defs if d[5]}
    read, seen = set(), _Uses()
    while live - read:
        for key in live - read:
            seen.update(scopes.get(key, _Uses()))
        read |= live
        live |= {key for key, module, name, node, kind, root in defs
                 if ((module, node.name) in seen.functions and _enclosing(key) in live
                     if kind == "function"
                     else node.name in seen.called or key[1] in seen.strings
                     or (kind == "property" and node.name in seen.read))}
    return [f"{key[0]}:{node.lineno} {name}" for key, module, name, node, kind, root in defs if key not in live]


def test_every_function_in_src_has_a_caller():
    assert dead_functions(_sources(CALLERS), ALLOWED) == []


def test_allowlist_is_short_and_current():
    """The allowlist is capped at 0 entries.  Every allowlisted function
    exists, has a reason, and still has no caller: one that gains a caller
    leaves the list."""
    assert len(ALLOWED) <= 0
    assert all(reason.strip() for reason in ALLOWED.values())
    dead = {where.split()[1] for where in dead_functions(_sources(CALLERS))}
    assert set(ALLOWED) <= dead


def ndarray_namesakes(sources: dict[str, str]) -> list[str]:
    """"path:line module.Class.name" of every method or property defined
    under src/u3kit whose name is a non-dunder attribute of np.ndarray."""
    names = {n for n in dir(np.ndarray) if not n.startswith("__")}
    out = []
    for rel, text in sources.items():
        if rel.startswith("src/u3kit/"):
            module = _module(rel).removeprefix("u3kit.")
            for qual, node, kind in _defined(ast.parse(text, filename=rel)):
                if kind != "function" and node.name in names:
                    out.append(f"{rel}:{node.lineno} {module}.{qual}")
    return out


def dunders(sources: dict[str, str]) -> list[str]:
    """"path:line module.Class.name" of every dunder method defined under
    src/u3kit other than __init__ and __post_init__."""
    out = []
    for rel, text in sources.items():
        if rel.startswith("src/u3kit/"):
            module = _module(rel).removeprefix("u3kit.")
            for qual, node, kind in _defined(ast.parse(text, filename=rel)):
                name = node.name
                if name.startswith("__") and name.endswith("__") and name not in ("__init__", "__post_init__"):
                    out.append(f"{rel}:{node.lineno} {module}.{qual}")
    return out


def test_every_dunder_in_src_is_listed_with_its_caller():
    found = dunders(_sources(("src",)))
    assert [w for w in found if w.split()[1] not in DUNDERS] == []
    assert all(reason.strip() for reason in DUNDERS.values())
    assert set(DUNDERS) <= {w.split()[1] for w in found}


def test_no_method_in_src_is_named_like_an_ndarray_attribute():
    found = ndarray_namesakes(_sources(("src",)))
    assert [w for w in found if w.split()[1] not in NDARRAY_NAMESAKES] == []
    assert all(reason.strip() for reason in NDARRAY_NAMESAKES.values())
    assert set(NDARRAY_NAMESAKES) <= {w.split()[1] for w in found}


# --- the resolver on small synthetic sources ---------------------------------

_GROUPS = """
import numpy as np

def shift(f, h):
    return f

class GroupFunction:
    def mean(self):
        return 0

    def conj(self):
        return self
"""


def test_a_name_used_only_as_another_modules_local_variable_is_dead():
    src = {
        "src/u3kit/groups.py": _GROUPS,
        "src/u3kit/quadratic.py": "def fit(xs):\n    shift = xs[0]\n    return shift\n"
                                  "\nfit([1])\n",
    }
    assert "src/u3kit/groups.py:4 groups.shift" in dead_functions(src)


def test_an_imported_and_called_function_is_used():
    src = {
        "src/u3kit/groups.py": _GROUPS,
        "src/u3kit/norms.py": "from .groups import shift as sh\nfrom . import groups\n\n"
                              "def run(f):\n    return sh(f, 1), groups.shift(f, 2)\n\nrun(0)\n",
    }
    assert not any("groups.shift" in d for d in dead_functions(src))
    src["src/u3kit/norms.py"] = "from .groups import shift\n"
    assert any("groups.shift" in d for d in dead_functions(src))


def test_np_mean_does_not_reach_a_method_named_mean():
    src = {
        "src/u3kit/groups.py": _GROUPS,
        "src/u3kit/norms.py": "import numpy as np\n\ndef run(v):\n    return np.mean(v), np.conj(v)\n\nrun(0)\n",
    }
    dead = dead_functions(src)
    assert any(d.endswith("groups.GroupFunction.mean") for d in dead)
    src["src/u3kit/norms.py"] += "\ndef avg(f):\n    return f.mean()\n\navg(0)\n"
    assert not any(d.endswith("groups.GroupFunction.mean") for d in dead_functions(src))


def test_methods_named_like_ndarray_attributes_are_caught():
    # GroupFunction.mean and .conj share their names with np.ndarray methods;
    # a module-level function named like one is resolved by import instead
    src = {"src/u3kit/groups.py": _GROUPS + "\ndef copy(x):\n    return x\n"}
    found = [w.split()[1] for w in ndarray_namesakes(src)]
    assert found == ["groups.GroupFunction.mean", "groups.GroupFunction.conj"]


def test_dunders_other_than_init_are_found():
    src = {"src/u3kit/groups.py": _GROUPS + "\n    def __init__(self):\n        pass\n"
                                            "\n    def __mul__(self, other):\n        return self\n"}
    assert [w.split()[1] for w in dunders(src)] == ["groups.GroupFunction.__mul__"]


def test_a_name_used_only_under_tests_is_dead():
    src = {
        "src/u3kit/groups.py": _GROUPS,
        "tests/test_groups.py": "from u3kit.groups import GroupFunction, shift\n\n"
                                "def test_it():\n    shift(GroupFunction().conj(), 1)\n",
    }
    dead = dead_functions(src)
    assert "src/u3kit/groups.py:4 groups.shift" in dead
    assert any(d.endswith("groups.GroupFunction.conj") for d in dead)


def test_a_nested_function_is_live_only_inside_a_live_function():
    # live() and dead() each nest an `at`; only dead's calls helper(), so the
    # live `at` must not carry dead's body, or helper with it
    src = {
        "src/u3kit/quadratic.py": "def helper():\n    return 1\n\n"
                                  "def live():\n    def at():\n        return 0\n    return at()\n\n"
                                  "def dead():\n    def at():\n        return helper()\n    return at()\n\n"
                                  "live()\n",
    }
    assert [d.split()[1] for d in dead_functions(src)] == [
        "quadratic.helper", "quadratic.dead", "quadratic.dead.at"]


def test_a_class_name_string_in_bench_is_a_use():
    src = {
        "src/u3kit/groups.py": _GROUPS,
        "bench/tracer.py": 'WRAPPED = ("GroupFunction.conj", "mean")\n',
    }
    dead = dead_functions(src)
    assert not any(d.endswith("groups.GroupFunction.conj") for d in dead)
    assert any(d.endswith("groups.GroupFunction.mean") for d in dead)


# --- imports ------------------------------------------------------------------


def unused_imports(sources: dict[str, str]) -> list[str]:
    """"path:line name" of every name an import binds in a module of
    src/u3kit, other than __init__.py and its re-exports, that the module
    never reads (as a name, or as the head of an attribute chain)."""
    out = []
    for rel, text in sources.items():
        if not rel.startswith("src/u3kit/") or rel.endswith("__init__.py"):
            continue
        tree = ast.parse(text, filename=rel)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in read:
                        out.append(f"{rel}:{node.lineno} {bound}")
    return out


def test_no_module_in_src_imports_a_name_it_does_not_use():
    assert unused_imports(_sources(("src",))) == []


def test_an_import_left_behind_by_a_moved_function_is_caught():
    before = ("from .norms import gowers_norm\n\n"
              "def check(f):\n    return gowers_norm(f, 3)\n")
    after = "from .norms import gowers_norm\n\n\ndef orbit(x):\n    return x\n"
    assert unused_imports({"src/u3kit/nil.py": before}) == []
    assert unused_imports({"src/u3kit/nil.py": after}) == ["src/u3kit/nil.py:1 gowers_norm"]


# --- options ------------------------------------------------------------------


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


def _calls(tree: ast.AST, module: str, modules: set[str]):
    """(callee, positional count, keywords) of every call in a file, the
    callee resolved as _uses resolves names: ("function", (module, name)) for
    a name the file defines or imports, or for module.name through an
    imported module; ("method", name) for x.name(...) on any other receiver;
    other calls are skipped.  A *args reaches every position and a **kwargs
    every keyword."""
    mods, objs = _bindings(tree, module, modules)
    local = {node.name for _, node, kind in _defined(tree) if kind == "function"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and (f.id in objs or f.id in local):
            callee = ("function", objs.get(f.id, (module, f.id)))
        elif isinstance(f, ast.Attribute):
            owner = _module_of(f.value, mods, modules)
            callee = ("function", (owner, f.attr)) if owner else ("method", f.attr)
        else:
            continue
        starred = any(isinstance(x, ast.Starred) for x in node.args)
        yield callee, float("inf") if starred else len(node.args), {k.arg for k in node.keywords}


def unset_options(sources: dict[str, str], allowed=()) -> list[str]:
    """"path:line name(option)" of every option of a function, method or
    property defined under src/u3kit in ``sources`` that no call in src/ or
    bench/ sets, other than the ``allowed`` "module.qualname(option)".

    A parameter with a default is an option.  It is set when a call that
    resolves to its function (see _calls; a method by its name) passes it by
    keyword, passes enough positional arguments to reach it, or passes a
    **kwargs."""
    trees = {rel: ast.parse(text, filename=rel) for rel, text in sources.items()
             if rel.split("/")[0] in CALLERS}
    modules = {_module(rel) for rel in trees}
    reach: dict = {}
    keywords: dict = {}
    for rel, tree in trees.items():
        for callee, npos, kws in _calls(tree, _module(rel), modules):
            reach[callee] = max(reach.get(callee, 0), npos)
            keywords.setdefault(callee, set()).update(kws)
    out = []
    for rel, tree in trees.items():
        if not rel.startswith("src/u3kit/"):
            continue
        module = _module(rel)
        for qual, node, kind in _defined(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            key = ("function", (module, node.name)) if kind == "function" else ("method", node.name)
            for opt, pos in _options(node, kind == "method"):
                where = f"{module.removeprefix('u3kit.')}.{qual}({opt})"
                if where in allowed or opt in keywords.get(key, ()) or None in keywords.get(key, ()):
                    continue
                if pos is None or reach.get(key, 0) <= pos:
                    out.append(f"{rel}:{node.lineno} {where}")
    return out


def test_every_option_in_src_is_set_by_a_caller():
    """An option that no caller in src/ or bench/ sets is a constant and
    belongs in the function body (or in a module constant that tests
    patch)."""
    assert unset_options(_sources(CALLERS), ALLOWED_OPTIONS) == []


def test_allowed_options_belong_to_allowlisted_functions():
    assert all(opt.partition("(")[0] in ALLOWED for opt in ALLOWED_OPTIONS)
    assert set(ALLOWED_OPTIONS) <= {where.split()[1] for where in unset_options(_sources(CALLERS))}


def test_an_option_set_only_by_a_test_or_by_a_namesake_is_unset():
    src = {
        "src/u3kit/groups.py": "def shift(f, h=0):\n    return f\n",
        "src/u3kit/norms.py": "def shift(f, h=1):\n    return f\n\n"
                              "from .groups import shift as sh\n\nsh(0)\nshift(0, 2)\n",
        "tests/test_groups.py": "from u3kit.groups import shift\n\nshift(0, h=3)\n",
    }
    assert unset_options(src) == ["src/u3kit/groups.py:1 groups.shift(h)"]
    src["bench/run.py"] = "from u3kit import groups\n\ngroups.shift(0, h=3)\n"
    assert unset_options(src) == []
