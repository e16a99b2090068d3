"""Static checks on the library source, standard library only."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "catrank").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read anywhere in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os\nfrom json import dumps, loads\nfrom a.b import c as d\nloads('1')\n"
    assert unused_imports(source) == ["d (line 3)", "dumps (line 2)", "os (line 1)"]


def nested_imports(source: str) -> list[str]:
    """Import statements inside a function body: they hide a module's
    dependencies from its header."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{fn.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert nested_imports(path.read_text()) == []


def test_nested_import_is_found():
    source = ("import os\n"
              "def f():\n    import json\n    return json\n"
              "class C:\n    def m(self):\n        def g():\n            from . import x\n")
    assert nested_imports(source) == ["f (line 3)", "m (line 8)", "g (line 8)"]
