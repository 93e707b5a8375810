import ast
from pathlib import Path

import pytest

from radial import core

MODULES = sorted(Path(core.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, leaving out ``__future__``
    imports, names listed in ``__all__``, and import statements marked
    ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A quoted annotation names its types in a string.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used | exported)


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Callable, Iterable\n"
        "from .core import idtw  # noqa: F401\n"
        "from .core import dtw\n"
        "__all__ = ['dtw']\n"
        "def f(g: Callable) -> 'Thing':\n"
        "    return g\n"
    )
    assert unused_imports(source) == ["Iterable", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
