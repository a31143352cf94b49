"""Every name a robustmix module or a test file imports is used in that
file, every module-level private name is used somewhere in the package, only
`uncertainty.py` tests a value against an uncertainty-set class, only
`cli.py` opens a file, and the package's modules import one another at
module level only and in one direction.

Stdlib `ast` checks, so they need no linter.  The package `__init__`
imports names only to re-export them and is skipped by the import
check; so are `__future__` imports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import robustmix
from robustmix import uncertainty

MODULES = sorted(
    p for p in Path(robustmix.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_no_unused_test_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def package_imports(source: str) -> list[tuple[int, str, bool]]:
    """(line, module, inside a function) for each robustmix module that
    `source` imports, relatively or by its absolute name.  In `from .
    import name` and `from robustmix import name` the module is `name`."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend(
                    (child.lineno, alias.name.partition(".")[2] or alias.name, in_function)
                    for alias in child.names
                    if alias.name.partition(".")[0] == "robustmix"
                )
            elif isinstance(child, ast.ImportFrom) and (
                child.level or (child.module or "").partition(".")[0] == "robustmix"
            ):
                module = child.module if child.level else child.module.partition(".")[2]
                names = [module] if module else [alias.name for alias in child.names]
                found.extend((child.lineno, name, in_function) for name in names)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, in_function or is_function)

    visit(ast.parse(source), False)
    return found


def function_level_imports(source: str) -> list[str]:
    """Package imports in `source` made inside a function body."""
    return [f"line {line}: {module}" for line, module, inner in package_imports(source) if inner]


def import_cycles(sources: dict[str, str]) -> list[str]:
    """Each group of modules in `sources` that import one another in a
    cycle through module-level package imports, as its sorted names."""
    edges = {
        module: {target for _, target, inner in package_imports(text) if not inner}
        & sources.keys()
        for module, text in sources.items()
    }

    def reached(start):
        seen, stack = set(), [start]
        while stack:
            for nxt in edges[stack.pop()] - seen:
                seen.add(nxt)
                stack.append(nxt)
        return seen

    reach = {module: reached(module) for module in edges}
    groups = {
        tuple(sorted(other for other in reach[module] if module in reach[other]))
        for module in edges
        if module in reach[module]
    }
    return sorted(", ".join(group) for group in groups)


def test_checker_finds_function_imports_and_cycles():
    sources = {
        "a": "import json\nfrom .b import f\nfrom .errors import E\n",
        "b": "from . import c\ndef g():\n    import os\n    from .a import h\n",
        "c": "import robustmix.a\nfrom robustmix import d\n",
        "d": "from robustmix.e import k\n",
        "e": "from .d import m\nclass K:\n    def f(self):\n        import robustmix.f, robustmix\n",
        "f": "from .f import n\n",
    }
    assert function_level_imports(sources["b"]) == ["line 4: a"]
    assert function_level_imports(sources["e"]) == ["line 4: f", "line 4: robustmix"]
    assert function_level_imports(sources["a"]) == []
    assert import_cycles(sources) == ["a, b, c", "d, e", "f"]
    assert import_cycles({k: sources[k] for k in "abd"}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    """Every module imports the package modules it needs at the top."""
    assert function_level_imports(path.read_text(encoding="utf-8")) == []


def test_no_package_import_cycles():
    """Module-level package imports form no cycle: `uncertainty` imports
    nothing from `instances`, which imports `uncertainty`."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert import_cycles(sources) == []


def _private_definitions(tree: ast.Module):
    """(name, node) for each module-level `_name` function, class or
    assignment target; dunder names such as `__version__` are public."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(tree: ast.AST):
    """Every name read in `tree`, as a bare name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no module in `sources` reads
    outside the name's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, definition in _private_definitions(tree)
        if reads[name] == Counter(_reads(definition))[name]
    ]


def test_checker_finds_dead_private_names():
    sources = {
        "a": (
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "__version__ = '1'\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Orphan:\n"
            "    pass\n"
        ),
        "b": "import a\nx = a._helper()\n",
    }
    assert dead_private_names(sources) == ["a: _UNUSED", "a: _recursive", "a: _Orphan"]


def test_no_dead_private_names():
    package = Path(robustmix.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert dead_private_names(sources) == []


# The set classes and their bases in `uncertainty`, plus the union alias
SET_FAMILY_CLASSES = {
    base.__name__
    for family in uncertainty.UncertaintySet.__args__
    for base in family.__mro__
    if base.__module__ == uncertainty.__name__
} | {"UncertaintySet"}


def set_family_isinstance(source: str, classes=SET_FAMILY_CLASSES) -> list[str]:
    """`isinstance` calls in `source` whose class argument names one of
    `classes`, bare, as an attribute or inside a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        spec = node.args[1]
        for cls in spec.elts if isinstance(spec, ast.Tuple) else [spec]:
            name = cls.attr if isinstance(cls, ast.Attribute) else getattr(cls, "id", None)
            if name in classes:
                found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_finds_set_family_isinstance():
    source = (
        "from robustmix import uncertainty\n"
        "def f(u, d):\n"
        "    if isinstance(u, HullSet):\n"
        "        return 1\n"
        "    if isinstance(d, dict) or isinstance(u, (int, uncertainty.EllipsoidSet)):\n"
        "        return 2\n"
        "    return isinstance(u, _Box)\n"
    )
    assert set_family_isinstance(source) == [
        "line 3: HullSet",
        "line 5: EllipsoidSet",
        "line 7: _Box",
    ]
    assert {"IntervalSet", "BudgetedSet", "PolyhedronSet", "_Box"} <= SET_FAMILY_CLASSES


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "uncertainty.py"], ids=lambda p: p.name
)
def test_set_family_behaviour_stays_in_uncertainty(path):
    """Each family's class owns its behaviour: other modules dispatch on
    `uset.name` or call the class's methods, never test its type."""
    assert set_family_isinstance(path.read_text(encoding="utf-8")) == []


def open_calls(source: str) -> list[str]:
    """Calls in `source` to `open`, bare or as an attribute such as
    `io.open` or `path.open`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":
            found.append((node.lineno, ast.unparse(func)))
    return [f"line {line}: {call}" for line, call in sorted(found)]


def test_checker_finds_open_calls():
    source = (
        "import io\n"
        "def read(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n"
        "def write(path, text):\n"
        "    io.open(path, 'w').write(text)  # open\n"
        "    path.open('a').close()\n"
        "def open_text(opener=open):\n"
        "    return 'open(path)'\n"
    )
    assert open_calls(source) == ["line 3: open", "line 6: io.open", "line 7: path.open"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name
)
def test_only_cli_opens_files(path):
    """The library takes and returns text; `cli` reads and writes every
    file, so the rule for its encoding and line ends lives in one place."""
    assert open_calls(path.read_text(encoding="utf-8")) == []
