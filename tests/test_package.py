"""Every name a prooflab module exports resolves, no module imports a name
it never uses, and none raises the interpreter's recursion limit."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

MODULES = [
    "prooflab",
    "prooflab.syntax",
    "prooflab.atomic_system",
    "prooflab.base_semantics",
    "prooflab.arguments",
    "prooflab.reductions",
    "prooflab.validity",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_base_semantics_does_not_load_arguments():
    # the clause semantics sits below the argument layer: a fresh
    # interpreter that imports it has loaded no argument structures
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    probe = "import sys, prooflab.base_semantics; print('prooflab.arguments' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]



def _unused_imports(tree):
    """Names a module imports and never reads; a name listed in __all__ is
    exported, so it counts as used."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


def _module_trees():
    """(file name, parsed module) for every module of the package."""
    package = os.path.join(SRC, "prooflab")
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as fh:
                yield filename, ast.parse(fh.read(), filename)


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for filename, tree in _module_trees():
        found = _unused_imports(tree)
        if found:
            unused[filename] = found
    assert unused == {}


def test_no_module_raises_the_recursion_limit():
    # a deep input must meet a documented budget, never a larger stack
    calls = [
        f"{filename} line {node.lineno}"
        for filename, tree in _module_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "setrecursionlimit"
        in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert calls == []


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _calls(func):
    return [node.func for node in ast.walk(func) if isinstance(node, ast.Call)]


def _self_recursive(tree):
    """Every module-level function whose body calls its own name, and every
    method (Class.name) whose body calls self.<its own name>."""
    found = set()
    for node in tree.body:
        if isinstance(node, _DEFS) and any(
            isinstance(f, ast.Name) and f.id == node.name for f in _calls(node)
        ):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef):
            found.update(
                f"{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, _DEFS)
                and any(
                    isinstance(f, ast.Attribute)
                    and f.attr == m.name
                    and getattr(f.value, "id", None) == "self"
                    for f in _calls(m)
                )
            )
    return found


# The functions that recurse on their own name, each a walker whose depth
# follows its input's.  Mutual recursion is not counted: the parser's
# methods, premise_to_rule / rule_to_premise, witness / _build and
# check_valid / _check_closed.
SELF_RECURSIVE = {
    "arguments": {
        "_augment",
        "_bound_at",
        "_encode",
        "_fill",
        "_moved",
        "_node_from_obj",
        "_node_to_obj",
        "_replays",
    },
    "atomic_system": {"format_rule", "star_translate"},
    "base_semantics": {"BaseContext.holds", "Evaluator.entails", "_ipc"},
    "reductions": {"_rewrites"},
    "syntax": {"atoms_of", "formula_from_obj", "formula_to_obj", "substitute"},
}


def test_the_self_recursive_functions_are_the_pinned_ones():
    found = {
        filename[: -len(".py")]: names
        for filename, tree in _module_trees()
        if (names := _self_recursive(tree))
    }
    assert found == SELF_RECURSIVE


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(n): return f(n - 1) if n else 0", {"f"}),
        ("def f(t): yield from (x for c in t for x in f(c))", {"f"}),
        ("class A:\n    def m(self, n): return self.m(n - 1)", {"A.m"}),
        # another object's method of the same name, or mutual recursion
        ("class A:\n    def m(self, o): return o.m(self)", set()),
        ("def f(n): return g(n)\ndef g(n): return f(n)", set()),
        # a nested function is not a module-level one
        ("def f():\n    def g(n): return g(n)\n    return g", set()),
    ],
)
def test_a_self_recursion_is_found(source, found):
    assert _self_recursive(ast.parse(source)) == found


def _caches(tree):
    """(line, bounded) for every functools cache a module makes: bounded
    when it is an lru_cache given an integer maxsize.  A bare lru_cache
    holds 128 entries by a default nobody chose, and maxsize=None and
    functools.cache grow for the life of the process."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, False) for a in node.names if a.name == "cache"]
            continue
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            name = node.attr
        else:
            continue
        if name == "cache" and isinstance(node, ast.Attribute):
            found.append((node.lineno, False))
        elif name == "lru_cache":
            call = calls.get(id(node))
            sizes = [] if call is None else [
                *(k.value for k in call.keywords if k.arg == "maxsize"),
                *call.args[:1],
            ]
            size = sizes[0].value if sizes and isinstance(sizes[0], ast.Constant) else None
            found.append((node.lineno, type(size) is int))
    return found


def test_every_cache_is_bounded():
    caches = {
        f"{filename} line {line}": bounded
        for filename, tree in _module_trees()
        for line, bounded in _caches(tree)
    }
    assert caches
    assert [where for where, bounded in caches.items() if not bounded] == []


@pytest.mark.parametrize(
    "source",
    [
        "from functools import lru_cache\n@lru_cache\ndef f(x): return x",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): return x",
        "from functools import lru_cache\n@lru_cache(None)\ndef f(x): return x",
        "import functools\n@functools.lru_cache()\ndef f(x): return x",
        "from functools import cache\n@cache\ndef f(x): return x",
        "import functools\n@functools.cache\ndef f(x): return x",
        "from functools import lru_cache\nf = lru_cache(len)",
    ],
)
def test_an_unbounded_cache_is_caught(source):
    assert [bounded for _, bounded in _caches(ast.parse(source))][-1:] == [False]


def _kept_hash_breaks(tree):
    """Every class but _Value that defines __hash__ or __reduce__ itself,
    or assigns __hash__ anything but _Value.__hash__: the kept hash and
    its pickling are decided once, in syntax._Value."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name == "_Value":
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name in ("__hash__", "__reduce__"):
                    found.append(f"{node.name} line {stmt.lineno}")
            elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__hash__" for t in stmt.targets
            ):
                if ast.unparse(stmt.value) != "_Value.__hash__":
                    found.append(f"{node.name} line {stmt.lineno}")
    return found


def test_only_value_keeps_a_hash():
    breaks = [
        f"{filename}: {where}"
        for filename, tree in _module_trees()
        for where in _kept_hash_breaks(tree)
    ]
    assert breaks == []


@pytest.mark.parametrize(
    "source, caught",
    [
        ("class A:\n    def __hash__(self): return 0", True),
        ("class A:\n    def __reduce__(self): return A, ()", True),
        ("class A:\n    __hash__ = object.__hash__", True),
        ("class A:\n    __hash__ = None", True),
        ("class A(_Value):\n    __hash__ = _Value.__hash__", False),
        ("class _Value:\n    def __hash__(self): return self._hash", False),
    ],
)
def test_a_second_kept_hash_is_caught(source, caught):
    assert bool(_kept_hash_breaks(ast.parse(source))) is caught


# Public names whose callers are the package's users rather than its own
# code: each is documented API, kept though nothing in the repo outside the
# tests calls it.
USERS_ONLY = {
    # simultaneous substitution of formulas for atoms, exported by the
    # package itself (prooflab.substitute)
    "substitute",
    # derive's docstring and the README name it as the independent
    # checker a derivation tree is replayed with
    "check_derivation",
    # constructors of the two derived steps the standard reductions unwind;
    # the acceptance gate builds with them
    "weaken",
    "or_project",
}
CALLER_DIRS = ("src", "scripts", "perfbench")


def _exported(tree):
    """The names a module's __all__ lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(func):
    """The names a function binds itself: its parameters, the names it
    assigns and the functions and classes it defines; what a nested
    function binds is its own."""
    a = func.args
    names = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, _FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _read_names(tree):
    """Every name a module reads, bare or as an attribute.  A definition
    reading its own name (a recursive call) does not count, nor does a
    function reading a name it binds itself (a parameter or a local), an
    import, an assignment or a string such as an __all__ entry."""
    read = set()

    def visit(node, own, local):
        if isinstance(node, _FUNCTIONS):
            local = local | _bound(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id != own and node.id not in local:
                read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr != own:
                read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own, local)

    for stmt in tree.body:
        visit(stmt, getattr(stmt, "name", None), frozenset())
    return read


def _without_caller(exporters, callers):
    """The names some exporter's __all__ lists that no caller reads."""
    read = set().union(*map(_read_names, callers))
    return sorted({n for tree in exporters for n in _exported(tree)} - read)


def test_every_public_name_has_a_caller():
    root = os.path.dirname(SRC)
    callers = []
    for top in CALLER_DIRS:
        for folder, _, names in os.walk(os.path.join(root, top)):
            for filename in sorted(names):
                if filename.endswith(".py"):
                    path = os.path.join(folder, filename)
                    with open(path, encoding="utf-8") as fh:
                        callers.append(ast.parse(fh.read(), path))
    exporters = [tree for _, tree in _module_trees()]
    assert _without_caller(exporters, callers) == sorted(USERS_ONLY)


@pytest.mark.parametrize(
    "exporter, caller, flagged",
    [
        ("__all__ = ['f']\ndef f(): pass", "", True),
        # a recursive call is the definition reading itself
        ("__all__ = ['f']\ndef f(n): return f(n - 1) if n else 0", "", True),
        ("__all__ = ['F']\nclass F:\n    def copy(self): return F()", "", True),
        # a re-export, another __all__ or a string is no call
        ("__all__ = ['f']\ndef f(): pass", "from m import f\n__all__ = ['f']", True),
        ("__all__ = ['f']\ndef f(): pass\nNAME = 'f'", "", True),
        ("__all__ = ['f', 'g']\ndef f(): pass\ndef g(): return f()", "", True),
        # a parameter or a local of the reading function is not the export
        ("__all__ = ['f']\ndef f(): pass", "def g(f): return f", True),
        ("__all__ = ['f']\ndef f(): pass", "def g():\n    f = 1\n    return f", True),
        ("__all__ = ['f']\ndef f(): pass", "def g(xs): return [f for f in xs]", True),
        ("__all__ = ['f']\ndef f(): pass", "from m import f\ndef g(): return f()", False),
        ("__all__ = ['f']\ndef f(): pass", "from m import f\nf()", False),
        ("__all__ = ['f']\ndef f(): pass", "import m\nm.f()", False),
        ("__all__ = ['f']\ndef f(): pass\ndef g(): return f()", "", False),
    ],
)
def test_a_public_name_without_a_caller_is_caught(exporter, caller, flagged):
    got = _without_caller([ast.parse(exporter)], [ast.parse(exporter), ast.parse(caller)])
    assert bool(got) is flagged
