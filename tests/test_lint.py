"""Static checks on the library source, standard library only."""

import ast
import re
from pathlib import Path

import pytest

from catrank.cli import _parser

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "catrank").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def compose_table_reads(source: str) -> list[int]:
    """Lines that read an attribute named compose_table: the (g, f) dict
    view that ``fincat`` builds on demand for callers outside the library."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "compose_table"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_library_reads_the_rows_not_the_dict_view(path):
    assert compose_table_reads(path.read_text()) == []


def test_compose_table_read_is_found():
    source = ("class C:\n    @property\n    def compose_table(self):\n        return {}\n"
              "def f(cat):\n    return cat.compose_table[0, 0]\n"
              "def g(cat):\n    return getattr(cat, 'compose_table')\n")
    assert compose_table_reads(source) == [6]


def memo_accesses(source: str) -> list[int]:
    """Lines that read or write an attribute named _memo: the store of the
    tables derived from a category, which ``fincat._once`` keeps."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "_memo")


def test_memo_lives_in_fincat():
    found = {path.name: memo_accesses(path.read_text()) for path in SRC}
    assert found.pop("fincat.py")
    assert found == {name: [] for name in found}


def test_memo_access_is_found():
    source = ("class C:\n    __slots__ = ('_memo',)\n"
              "def f(cat):\n    return cat._memo['iso_order']\n"
              "def g(cat):\n    cat._memo = {}\n    del cat._memo\n"
              "def h(cat):\n    return getattr(cat, '_memo')\n")
    assert memo_accesses(source) == [4, 6, 7]


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree: ast.Module) -> set[str]:
    """Every Name and Attribute of a module, except a top-level def's or
    class's references to itself."""
    found = set()
    for stmt in tree.body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(stmt, DEFS):
            names.discard(stmt.name)
        found |= names
    return found


def unused_public_names(library: list[str], callers: list[str], doc: str) -> list[str]:
    """Public top-level defs and classes of the library modules that no
    library module or caller reads and the doc does not name as a word."""
    trees = [ast.parse(source) for source in library]
    defined = {stmt.name for tree in trees for stmt in tree.body
               if isinstance(stmt, DEFS) and not stmt.name.startswith("_")}
    used = set(re.findall(r"\w+", doc))
    for tree in trees + [ast.parse(source) for source in callers]:
        used |= _reads(tree)
    return sorted(defined - used)


def test_no_public_api_that_nothing_calls():
    library = [path.read_text() for path in SRC]
    callers = [path.read_text() for path in DEMOS]
    assert unused_public_names(library, callers, (ROOT / "README.md").read_text()) == []


def test_unused_public_name_is_found():
    # a is called by a caller, e read as an attribute, f and g named in the
    # doc; b only calls itself and C is never read
    library = ["def a():\n    return 1\n"
               "def b():\n    return b()\n"
               "class C:\n    pass\n"
               "def _d():\n    return mod.e\n"
               "def e():\n    pass\n"
               "def f():\n    pass\n",
               "def g():\n    pass\n"]
    callers = ["from x import a\nprint(a())\n"]
    assert unused_public_names(library, callers, "See `g` and f_ or f.") == ["C", "b"]


def documented_flags(markdown: str) -> set[str]:
    """The flags that open a bullet under the ``## Flags`` heading."""
    section = markdown.split("\n## Flags\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(--[\w-]+)", section, re.MULTILINE))


def test_global_flags_are_the_documented_ones():
    parser = _parser()
    flags = {s for action in parser._actions for s in action.option_strings
             if s.startswith("--")} - {"--help"}
    assert flags == documented_flags((ROOT / "docs" / "schemas.md").read_text())


def test_documented_flag_is_found():
    doc = ("# Doc\n\n## Flags\n\n- `--a` one\n- `--b-c <n>` two, see `--d`\n  `--e` wraps\n"
           "\n## Next\n\n- `--f` elsewhere\n")
    assert documented_flags(doc) == {"--a", "--b-c"}


def hashlib_imports(source: str) -> list[int]:
    """Lines that import hashlib, which loads OpenSSL, except as the
    fallback of a ``try`` that imports ``_sha256`` and catches ImportError."""
    tree = ast.parse(source)
    fallbacks = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
                isinstance(stmt, ast.ImportFrom) and stmt.module == "_sha256"
                for stmt in node.body):
            for handler in node.handlers:
                if isinstance(handler.type, ast.Name) and handler.type.id == "ImportError":
                    fallbacks |= {id(stmt) for stmt in handler.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "hashlib" for name in names) and id(node) not in fallbacks:
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_src_does_not_import_hashlib(path):
    assert hashlib_imports(path.read_text()) == []


def test_hashlib_import_is_found():
    source = ("import hashlib\n"
              "try:\n    from _sha256 import sha256\nexcept ImportError:\n"
              "    from hashlib import sha256\n"
              "try:\n    from _md5 import md5\nexcept ImportError:\n    from hashlib import md5\n"
              "try:\n    from _sha256 import sha224\nexcept Exception:\n    import hashlib\n"
              "def f():\n    import os, hashlib as h\n")
    assert hashlib_imports(source) == [1, 9, 13, 15]
