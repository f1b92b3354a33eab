"""Lint of the package and test modules that needs only the standard
library: every name a module imports is read somewhere in it."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


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
