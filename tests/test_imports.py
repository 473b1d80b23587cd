"""Every name a module of the package imports is read somewhere in it,
every public function or class it defines is reached by the program,
every field of its dataclasses and every public method of its classes is
read by the program, and every defaulted parameter of its public functions
and methods is passed by some call of the program."""

import ast
import collections
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "horocorr").glob("*.py"))
BENCH_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))

# public names kept with no program caller, each with its reason
KEEP = {
    # inverse of to_poincare_ball: the tests build hyperboloid points from it
    "from_poincare_ball",
}


def unused_imports(source):
    """Names that the import statements of source bind and nothing in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    # attribute chains such as np.linalg.norm read their root as a Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "analysis.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_name():
    source = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
              "from a.b import c as d\nx = np.linalg.norm(pi)\n")
    assert unused_imports(source) == ["d", "os", "tau"]


def unreached(modules, bench_sources, keep=()):
    """Public top-level functions and classes of the package that nothing
    reaches, as sorted "module.name" strings.

    modules maps module names to their source.  A name is reached when
    another module imports it from its module, its own module reads it, or
    a benchmark source names it (as a name, attribute, import or string).
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    imported = {(node.module.rpartition(".")[2], alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level and node.module
                for alias in node.names}
    named = set()
    for source in bench_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    missing = []
    for module, tree in trees.items():
        reached = named | set(keep) | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        missing += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in reached
                    and (module, node.name) not in imported]
    return sorted(missing)


def test_every_public_name_reached():
    modules = {path.stem: path.read_text() for path in SOURCES}
    bench = [path.read_text() for path in BENCH_SOURCES]
    assert bench
    assert unreached(modules, bench, KEEP) == []


def test_guard_flags_an_unreached_name():
    modules = {
        "a": ("def used(): pass\ndef own(): pass\ndef orphan(): pass\n"
              "def _private(): pass\ndef benched(): pass\nclass Kept: pass\n"
              "class Lonely: pass\nx = own()\n"),
        "b": "from .a import used\ndef orphan(): pass\norphan = 1\n",
    }
    bench = ['SPANS = [("a", "benched")]\n']
    assert unreached(modules, bench, {"Kept"}) == ["a.Lonely", "a.orphan", "b.orphan"]


# dataclass fields kept with no program reader, each with its reason
ORACLE = "frame of extrinsic_curvatures(return_point=True), the curvature oracle"
KEEP_FIELDS = {
    "correspondence.HypersurfacePoint.tangents": ORACLE,
    "correspondence.HypersurfacePoint.first_form": ORACLE,
    "correspondence.HypersurfacePoint.second_form": ORACLE,
    "correspondence.SupportData.rho_tilde":
        "the paper's horospherical support function; the tests check rho + t",
}


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def unread_fields(modules, readers, keep=()):
    """Fields of the dataclasses of the package that no reader source loads
    as an attribute, as sorted "module.Class.field" strings.

    modules maps module names to their source; a field counts as read when
    some source in readers has an attribute load of its name.
    """
    loaded = {node.attr for source in readers for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    missing = []
    for module, source in modules.items():
        for cls in ast.parse(source).body:
            if not (isinstance(cls, ast.ClassDef) and any(
                    _decorator_name(d) == "dataclass" for d in cls.decorator_list)):
                continue
            fields = [stmt.target.id for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            missing += [f"{module}.{cls.name}.{field}" for field in fields
                        if field not in loaded and f"{module}.{cls.name}.{field}" not in keep]
    return sorted(missing)


def test_every_dataclass_field_read():
    modules = {path.stem: path.read_text() for path in SOURCES}
    readers = list(modules.values()) + [path.read_text() for path in BENCH_SOURCES]
    assert unread_fields(modules, readers, KEEP_FIELDS) == []


def test_guard_flags_an_unread_field():
    modules = {
        "a": ("from dataclasses import dataclass\nimport dataclasses\n"
              "@dataclass(frozen=True)\nclass P:\n    x: float\n    y: int = 0\n"
              "    kept: str = ''\n    LIMIT = 3\n"
              "@dataclasses.dataclass\nclass Q:\n    z: float\n"
              "class Plain:\n    w: float\n"
              "def use(p, q):\n    p.y = q\n    return p.x\n"),
    }
    bench = ["def probe(q):\n    return q.LIMIT\n"]
    assert unread_fields(modules, [modules["a"]] + bench, {"a.P.kept"}) == [
        "a.P.y", "a.Q.z"]


# chart methods kept with no program caller, each with its reason: the
# benchmark's tracer wraps them by name (spans.CHART_METHODS) and its test
# asserts that no name is absent, so they go when the benchmark stops naming them
TRACED = "traced by name in perfbench/spans.py"
KEEP_METHODS = {
    f"sphere.{chart}.{method}": f"{TRACED}; {reason}"
    for chart in ("BandChart", "StereographicChart")
    for method, reason in {
        "embed": "the tests' x(u), geometry(u)[0]",
        "jacobian": "the tests' dx(u), geometry(u)[1]",
        "metric_inverse": "the tests' oracle of the jets' 1 / metric",
        "christoffels": "the tests' oracle of the closed-form _christoffel_term",
    }.items()}


def unloaded_methods(modules, readers, keep=()):
    """Public methods of the classes of the package that no reader source
    loads as an attribute, as sorted "module.Class.method" strings."""
    loaded = {node.attr for source in readers for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(
        f"{module}.{cls.name}.{fn.name}"
        for module, source in modules.items()
        for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_") and fn.name not in loaded
        and f"{module}.{cls.name}.{fn.name}" not in keep)


def test_every_public_method_loaded():
    # the benchmark sources name chart methods whether or not the program
    # calls them, so only the package's own sources count as readers here
    modules = {path.stem: path.read_text() for path in SOURCES}
    assert unloaded_methods(modules, modules.values(), KEEP_METHODS) == []


def test_guard_flags_an_unloaded_method():
    modules = {
        "a": ("class Chart:\n    def used(self): pass\n    def planted(self): pass\n"
              "    def kept(self): pass\n    def _private(self): pass\n"
              "    def __call__(self): pass\n"
              "def use(c):\n    return c.used()\n"),
        "b": "class Other:\n    def planted(self): pass\n    def read(self): pass\n",
    }
    bench = ["def probe(o):\n    return o.read\n"]
    assert unloaded_methods(modules, list(modules.values()), {"a.Chart.kept"}) == [
        "a.Chart.planted", "b.Other.planted", "b.Other.read"]
    assert unloaded_methods(modules, list(modules.values()) + bench, {"a.Chart.kept"}) == [
        "a.Chart.planted", "b.Other.planted"]


# defaulted parameters kept with no program caller, each with its reason
KEEP_DEFAULTS = {
    "conformal.path_length(velocity)":
        "the analytic route; the quadrature tests check pi/2 through it",
    "correspondence.extrinsic_curvatures(return_point)": ORACLE,
}


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _public_signatures(module, tree):
    """(callee name, label, arguments, leading parameters no call fills) of
    each public function of tree and each public method and __init__ of its
    classes; a class's name is the callee of its __init__."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, f"{module}.{node.name}", node.args, 0
        for fn in node.body if isinstance(node, ast.ClassDef) else ():
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = "staticmethod" not in map(_decorator_name, fn.decorator_list)
            if fn.name == "__init__":
                yield node.name, f"{module}.{node.name}", fn.args, 1
            elif not fn.name.startswith("_"):
                yield fn.name, f"{module}.{node.name}.{fn.name}", fn.args, int(bound)


def unpassed_defaults(modules, callers, keep=()):
    """Defaulted parameters of the public functions and methods of the
    package that no call in the caller sources passes, by keyword or by
    position, as sorted "module.function(parameter)" strings.

    Calls are matched by callee name.  A call with *args passes every
    position and one with **kwargs every keyword.
    """
    positions, keywords = collections.defaultdict(set), collections.defaultdict(set)
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if isinstance(call, ast.Call) and _callee(call):
                starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                positions[_callee(call)].add(math.inf if starred else len(call.args))
                keywords[_callee(call)].update(kw.arg or "**" for kw in call.keywords)
    missing = []
    for module, source in modules.items():
        for callee, label, args, skip in _public_signatures(module, ast.parse(source)):
            positional = (args.posonlyargs + args.args)[skip:]
            first = len(positional) - len(args.defaults)
            defaulted = [(arg.arg, k) for k, arg in enumerate(positional) if k >= first]
            defaulted += [(arg.arg, math.inf) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            missing += [f"{label}({name})" for name, k in defaulted
                        if not ({name, "**"} & keywords[callee]
                                or any(count > k for count in positions[callee]))
                        and f"{label}({name})" not in keep]
    return sorted(missing)


def test_every_default_passed():
    modules = {path.stem: path.read_text() for path in SOURCES}
    callers = list(modules.values()) + [path.read_text() for path in BENCH_SOURCES
                                        if not path.name.startswith("test_")]
    assert len(callers) > len(modules)
    assert unpassed_defaults(modules, callers, KEEP_DEFAULTS) == []


def test_guard_flags_an_unpassed_default():
    modules = {
        "a": ("def f(x, y=1, z=2, *, w=3, v=4): pass\n"
              "def g(x, y=1): pass\ndef kept(k=0): pass\ndef _private(p=0): pass\n"
              "class C:\n    def __init__(self, a=1, b=2): pass\n"
              "    def m(self, p=0, q=1): pass\n"
              "    @staticmethod\n    def s(p=0, q=1): pass\n"
              "    def _hidden(self, r=0): pass\n"
              "f(0, 5, w=1)\nC(1)\nC.s(2)\n"),
        "b": "def h(x=0, y=1): pass\ndef wide(y=1): pass\nwide(**options)\n",
    }
    bench = ["from a import g\ng(*args)\nc.m(q=0)\n"]
    assert unpassed_defaults(modules, list(modules.values()) + bench, {"a.kept(k)"}) == [
        "a.C(b)", "a.C.m(p)", "a.C.s(q)", "a.f(v)", "a.f(z)", "b.h(x)", "b.h(y)"]
    assert unpassed_defaults(modules, [modules["b"]], {"a.kept(k)"}) == [
        "a.C(a)", "a.C(b)", "a.C.m(p)", "a.C.m(q)", "a.C.s(p)", "a.C.s(q)", "a.f(v)",
        "a.f(w)", "a.f(y)", "a.f(z)", "a.g(y)", "b.h(x)", "b.h(y)"]
