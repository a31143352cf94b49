"""Every name a robustmix module imports is used in that module.

A stdlib `ast` check, so it needs no linter.  The package `__init__`
imports names only to re-export them and is skipped; so are
`__future__` imports.
"""

import ast
from pathlib import Path

import pytest

import robustmix

MODULES = sorted(
    p for p in Path(robustmix.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in `source` that no
    expression reads (an attribute chain reads the name it starts with)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    def f(self):\n"
        "        import json\n"
        "        return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: field", "line 7: json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
