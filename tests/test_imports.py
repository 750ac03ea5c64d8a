"""Every name a module of the package imports is used in it: a dead import fails here, as no linter runs."""

import ast
import pathlib

import pytest

import dyninfer

MODULES = sorted(path for path in pathlib.Path(dyninfer.__file__).parent.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression of ``source`` reads; lines marked ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_dead_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n\nprint(loads)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: dumps"]
