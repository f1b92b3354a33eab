"""Lint of the package, test and script modules that needs only the
standard library: every name a module imports is read somewhere in it,
every name its ``__all__`` lists is bound at its top level, every
function, class and method the package defines is read by the package, the
benchmark or the scripts, not by the tests alone, and every parameter of a
package function is read by its body."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py"),
                  *ROOT.glob("scripts/*.py")])
PACKAGE = sorted(ROOT.glob("src/**/*.py"))
#: the modules whose reads keep a package definition in use
READERS = sorted([*PACKAGE, *ROOT.glob("bench/**/*.py"), *ROOT.glob("scripts/*.py")])
#: nodes whose names are local to them, not bound at the top level of the module
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def unread_imports(source: str) -> list[str]:
    """The names the imports of ``source`` bind and nothing in it reads,
    except ``from __future__`` imports and the names listed in ``__all__``."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__"
                                                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport numpy.linalg\nimport json\n"
              "from math import pi, tau as full_turn\nfrom .stats import ci\n"
              "__all__ = ['ci']\n"
              "def f(x: pi) -> None:\n    json.dumps(x)\n    tau = 1\n")
    assert unread_imports(source) == ["full_turn", "numpy", "os", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def unbound_exports(source: str) -> list[str]:
    """The names the ``__all__`` of ``source`` lists and nothing at its top
    level binds: not a definition, an import or an assignment, also in an
    ``if`` or ``try`` there."""
    tree = ast.parse(source)
    bound, exported, todo = set(), [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__"
                                                  for target in node.targets):
            exported = ast.literal_eval(node.value)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return sorted(set(exported) - bound)


def test_unbound_exports_are_found():
    source = ("import os.path\nfrom math import pi as half\nx, (y, z) = 1, (2, 3)\n"
              "try:\n    import json\nexcept ImportError:\n    json = None\n"
              "def f():\n    inner = 1\nclass C:\n    attr = 1\n"
              "squares = [k * k for k in range(3)]\n"
              "__all__ = ['os', 'half', 'pi', 'x', 'z', 'json', 'f', 'C', 'squares', 'inner',\n"
              "           'attr', 'k', 'gone']\n")
    assert unbound_exports(source) == ["attr", "gone", "inner", "k", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def unread_definitions(defining: list[str], reading: list[str]) -> list[str]:
    """The names of the functions, classes and methods that the sources
    ``defining`` define and no source of ``reading`` reads, as a name or as an
    attribute.  Imports, ``__all__`` entries and other strings are no reads,
    and dunder names are exempt."""
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted({node.name for source in defining for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not (node.name.startswith("__") and node.name.endswith("__"))
                   and node.name not in read})


def test_unread_definitions_are_found():
    package = ("from .stats import exported\n"
               "__all__ = ['exported', 'Listed']\n"
               "def helper():\n    \"\"\"Not ``orphan``.\"\"\"\n    return 'orphan'\n"
               "def orphan():\n    return helper()\n"
               "class Listed:\n    def __init__(self):\n        self.ok = 1\n"
               "    def method(self):\n        pass\n"
               "    def called(self):\n        pass\n"
               "def exported():\n    pass\n")
    bench = "import pkg\npkg.Listed().called()\nok = pkg.Listed().ok\n"
    assert unread_definitions([package], [package, bench]) == ["exported", "method", "orphan"]


def test_every_package_definition_is_read():
    assert unread_definitions([p.read_text(encoding="utf-8") for p in PACKAGE],
                              [p.read_text(encoding="utf-8") for p in READERS]) == []


def unread_parameters(sources: list[str]) -> list[str]:
    """``function.parameter`` for each parameter, other than ``self`` and
    ``cls``, of a function or method in ``sources`` that its body never
    reads.  Methods whose name two or more classes of ``sources`` define are
    exempt: they are overrides of one protocol, such as ``statistic(cells,
    prior)``, and need not each read every argument."""
    trees = [ast.parse(source) for source in sources]
    classes_defining = Counter(node.name for tree in trees for cls in ast.walk(tree)
                               if isinstance(cls, ast.ClassDef) for node in cls.body
                               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    unread = []
    for tree in trees:
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or classes_defining[node.name] >= 2):
                continue
            args = node.args
            params = [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                          args.vararg, args.kwarg) if arg is not None]
            read = {name.id for statement in node.body for name in ast.walk(statement)
                    if isinstance(name, ast.Name) and not isinstance(name.ctx, ast.Store)}
            unread += [f"{node.name}.{param}" for param in params
                       if param not in read and param not in ("self", "cls")]
    return sorted(unread)


def test_unread_parameters_are_found():
    source = ("def used(a, /, b, *args, c=1, **kw):\n    return a, b, args, c, kw\n"
              "def dead(a, b, *rest, c, **kw):\n    return a\n"
              "def outer(x, y):\n    def inner(z):\n        return x\n    return inner\n"
              "class Base:\n    def hook(self, data):\n        raise NotImplementedError\n"
              "    @classmethod\n    def own(cls, gone):\n        return cls\n")
    other = "class Impl:\n    def hook(self, data):\n        return data\n"
    assert unread_parameters([source, other]) == [
        "dead.b", "dead.c", "dead.kw", "dead.rest", "inner.z", "outer.y", "own.gone"]


def test_every_package_parameter_is_read():
    assert unread_parameters([p.read_text(encoding="utf-8") for p in PACKAGE]) == []
