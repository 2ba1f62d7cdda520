"""Source hygiene checks that need no linter.

Every name a module imports must be used: it has to appear somewhere in
the module outside its import statement (a doctest counts as a use).

Every cache is bounded, so a long-lived process does not grow without
limit: no bare ``@lru_cache``, ``lru_cache(maxsize=None)`` or
``functools.cache`` outside the few enumerators keyed only by a capped n.
Cached attributes have one implementation, ``affine.cached_attribute``,
so nothing imports ``functools.cached_property``.

Every name the package exports has a caller in the package: some other
module reads it as a name or an attribute, so no public name exists only
for the tests.  The same holds for every public method of a package class,
apart from a few named exemptions.  A load through a package class counts
only for that class's method, and a parsed option ``args.name`` for none.
Every private function at module level, and every private method, is read
somewhere in the package outside its own body, so no helper outlives its
last caller.

Every name the benchmark reads from the package still exists: the methods
and functions that bench/tracing.py wraps by name, and the ``S.<name>``
calls of bench/workloads.py.  Without them the traced benchmark pass
breaks while every other test passes.
"""

import ast
import importlib.util
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

import schubsmooth

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schubsmooth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that occur nowhere else."""
    lines = source.splitlines()
    imports = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ]
    rest = list(lines)
    for node in imports:
        for t in range(node.lineno - 1, node.end_lineno):
            rest[t] = ""
    text = "\n".join(rest)
    unused = []
    for node in imports:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if not re.search(rf"\b{re.escape(name)}\b", text):
                unused.append(name)
    return unused


def test_unused_imports_are_detected():
    source = "import os\nfrom typing import (\n    Any,\n    List,\n)\nx: List[int] = []\n"
    assert unused_imports(source) == ["os", "Any"]
    assert unused_imports('"""\n>>> os.sep\n"""\nimport os\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Unbounded caches that are allowed: each is keyed by n alone (and a
# direction), and each function caps its own n, so the cache holds a few
# entries.
UNBOUNDED_CACHES = {
    "increasing_diagrams": "keyed by n; path enumeration caps n at 9",
    "broken_staircases": "keyed by n and one of two directions; path enumeration caps n at 9",
    "fully_supported_path_diagrams": "keyed by n; path enumeration caps n at 9",
    "fully_supported_cycle_diagrams": "keyed by n; cycle enumeration caps n at 8",
}


def _called_name(expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _is_unbounded_cache(expr) -> bool:
    """A bare lru_cache or cache, or lru_cache called with maxsize None."""
    if isinstance(expr, ast.Call) and _called_name(expr.func) == "lru_cache":
        sizes = expr.args[:1] + [k.value for k in expr.keywords if k.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
    return _called_name(expr) in ("lru_cache", "cache")


def cache_findings(source: str) -> tuple[list[str], list[str]]:
    """Names of the functions behind an unbounded cache (``line N`` for one
    made outside a decorator), and the lines that use cached_property."""
    tree = ast.parse(source)
    unbounded, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                decorators.add(id(dec))
                if _is_unbounded_cache(dec):
                    unbounded.append(node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in decorators and _is_unbounded_cache(node):
            unbounded.append(f"line {node.lineno}")
    cached_property = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "functools"
        and any(a.name == "cached_property" for a in node.names)
        or isinstance(node, ast.Attribute)
        and node.attr == "cached_property"
    ]
    return unbounded, cached_property


def test_cache_findings_are_detected():
    source = (
        "import functools\n"
        "from functools import cached_property, lru_cache\n"
        "@lru_cache\ndef a(): pass\n"
        "@lru_cache(maxsize=None)\ndef b(): pass\n"
        "@functools.lru_cache(None)\ndef c(): pass\n"
        "@functools.cache\ndef d(): pass\n"
        "@lru_cache(maxsize=8)\ndef e(): pass\n"
        "@lru_cache()\ndef f(): pass\n"
        "g = lru_cache(maxsize=None)(len)\n"
        "class C:\n    p = functools.cached_property(len)\n"
    )
    assert cache_findings(source) == (["a", "b", "c", "d", "line 15"], ["line 2", "line 17"])


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_caches_are_bounded(path):
    unbounded, cached_property = cache_findings(path.read_text(encoding="utf-8"))
    assert [name for name in unbounded if name not in UNBOUNDED_CACHES] == []
    assert cached_property == []


def _loads(tree) -> Counter[str]:
    """How often each name is read under an AST node, as a bare name or as
    an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def loaded_names(source: str) -> set[str]:
    """Names a module reads, as a bare name or as an attribute; import
    statements, definitions and docstrings do not count."""
    return set(_loads(ast.parse(source)))


def test_loaded_names_skip_imports_definitions_and_docstrings():
    source = '"""f g"""\nfrom m import f, g, h\ndef k():\n    """h"""\n    return f(x.g)\n'
    assert loaded_names(source) == {"f", "x", "g"}


def test_every_public_name_has_a_package_caller():
    exported = {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set().union(*(loaded_names(p.read_text(encoding="utf-8")) for p in MODULES))
    assert sorted(exported - used) == []


# Public methods with no caller in the package, and why they stay, besides
# the methods that bench/tracing.py wraps by name.
UNCALLED_METHODS = {
    "_Parser.error": "argparse calls it on a usage error",
}
TRACED_METHODS = {f"{cls}.{meth}" for _, cls, meth, _ in TRACING.METHODS}


def public_methods(source: str) -> set[str]:
    """Class.method for every method a class body defines without a
    leading underscore, properties included."""
    return {
        f"{node.name}.{item.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def test_public_methods_skip_private_and_nested_functions():
    source = "class A:\n    def f(self):\n        def g(): pass\n    def _h(self): pass\n    x = 1\n"
    assert public_methods(source) == {"A.f"}


def method_loads(source: str, classes: set[str]) -> set[str]:
    """What a module reads that can call a method: ``C.name`` for a load
    through a package class C, which counts only for C's own method, and
    the bare attribute for any other load; ``args.name`` reads a parsed
    command-line option and counts for no method."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner in classes:
                out.add(f"{owner}.{node.attr}")
            elif owner != "args":
                out.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
    return out


def uncalled_methods(sources: list[str]) -> set[str]:
    """Public methods of the classes in sources that no source loads."""
    methods = set().union(*(public_methods(s) for s in sources))
    classes = {m.split(".")[0] for m in methods}
    used = set().union(*(method_loads(s, classes) for s in sources))
    return {m for m in methods if m not in used and m.split(".")[1] not in used}


def test_uncalled_methods_ignore_other_classes_and_options():
    series = "class IntSeries:\n    def zero(self): pass\n    def scale(self): pass\n"
    poly = "class Polynomial:\n    def zero(self): pass\n"
    caller = "def f(args):\n    return Polynomial.zero(), args.scale\n"
    assert uncalled_methods([series, poly, caller]) == {"IntSeries.zero", "IntSeries.scale"}
    assert uncalled_methods([series, poly, caller + "x.scale(2)\nIntSeries.zero()\n"]) == set()


def test_every_public_method_has_a_package_caller():
    uncalled = uncalled_methods([p.read_text(encoding="utf-8") for p in MODULES])
    assert sorted(uncalled - set(UNCALLED_METHODS) - TRACED_METHODS) == []
    # an exemption that gained a caller, or lost its method, is stale
    assert sorted(set(UNCALLED_METHODS) - uncalled) == []


def uncalled_private(sources: list[str]) -> set[str]:
    """Private functions defined at module level, and private methods of
    module-level classes, that no source reads outside their own body;
    dunder methods are not private.  Names are matched across modules, as a
    private helper may be imported by a sibling module."""
    trees = [ast.parse(s) for s in sources]
    loads = sum((_loads(t) for t in trees), Counter())
    defs = [
        item
        for tree in trees
        for node in tree.body
        for item in (node.body if isinstance(node, ast.ClassDef) else [node])
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name.startswith("_")
        and not item.name.endswith("__")
    ]
    return {d.name for d in defs if loads[d.name] == _loads(d)[d.name]}


def test_uncalled_private_skips_own_body_dunders_and_nested_functions():
    source = (
        "def _a(): pass\n"
        "def _b(n): return _b(n - 1)\n"
        "class C:\n"
        "    def __init__(self): self._m()\n"
        "    def _m(self): pass\n"
        "    def _k(self): pass\n"
        "def f():\n"
        "    def _h(): pass\n"
        "    return _a\n"
    )
    assert uncalled_private([source]) == {"_b", "_k"}
    assert uncalled_private([source, "from m import _b, _k\nx = _b(C()._k())\n"]) == set()


def test_every_private_function_has_a_package_caller():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert sorted(uncalled_private(sources)) == []


# ----------------------------------------------------------------------
# names the benchmark reads


@pytest.mark.parametrize("entry", TRACING.METHODS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_every_traced_method_is_in_its_class_body(entry):
    layer, cls_name, meth, _ = entry
    assert layer in TRACING.LAYERS
    cls = getattr(importlib.import_module(f"schubsmooth.{layer}"), cls_name)
    assert meth in vars(cls)  # install() reads cls.__dict__[meth]


def test_every_function_group_names_a_module_function():
    for name in TRACING.FUNCTION_GROUPS:
        layer, attr = name.split(".")
        assert layer in TRACING.LAYERS, name
        module = importlib.import_module(f"schubsmooth.{layer}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def test_every_name_the_workloads_read_is_exported():
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "S"
    }
    assert read  # workloads.py reads the package as S
    assert sorted(read - set(schubsmooth.__all__)) == []
