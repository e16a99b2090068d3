"""Static checks on the library source, standard library only."""

import ast
import re
from pathlib import Path

import pytest

from catrank.cli import _parser

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "catrank").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


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
    """Lines that read an attribute named compose_table: a (g, f) dict view
    of the composition, which the library does not keep; the tests build
    that dict with ``assembly_oracle.table_of``."""
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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def memo_accesses(source: str) -> list[tuple[str, str, int]]:
    """(where, "read" or "write", line) for each attribute named _memo: the
    store of the tables derived from a category or a group, which
    ``catrank._once`` keeps.  where is the dotted path of the defs and
    classes around the access; deleting counts as writing."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                walk(child, where + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_memo":
                kind = "read" if isinstance(child.ctx, ast.Load) else "write"
                found.append((".".join(where), kind, child.lineno))
            walk(child, where)

    walk(ast.parse(source), [])
    return sorted(found, key=lambda access: access[2])


def test_only_once_reads_the_memo_and_the_constructors_make_it():
    found = {(path.name, where, kind)
             for path in SRC for where, kind, _ in memo_accesses(path.read_text())}
    assert found == {("__init__.py", "_once.once", "read"),
                     ("fincat.py", "FiniteCategory.__init__", "write"),
                     ("grouptheory.py", "FiniteGroup._fill", "write")}


def test_memo_access_is_found():
    source = ("class C:\n    __slots__ = ('_memo',)\n"
              "def f(cat):\n    return cat._memo['iso_order']\n"
              "def g(cat):\n    cat._memo = {}\n    del cat._memo\n"
              "def h(cat):\n    return getattr(cat, '_memo')\n"
              "class D:\n    def m(self):\n        self._memo = {}\n")
    assert memo_accesses(source) == [("f", "read", 4), ("g", "write", 6), ("g", "write", 7),
                                     ("D.m", "write", 12)]


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


def _attribute_reads(tree: ast.Module) -> set[str]:
    """The names of the attributes a module reads, except a def's reads of
    its own name (a method calling itself) and reads off a name that an
    import binds (``operator.mul`` is a module's function, not a method)."""
    own = {id(node) for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
           for node in ast.walk(fn) if isinstance(node, ast.Attribute) and node.attr == fn.name}
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in own
            and not (isinstance(node.value, ast.Name) and node.value.id in imported)}


def unused_public_methods(library: list[str], callers: list[str], doc: str) -> list[str]:
    """Public methods and properties of the public top-level classes of the
    library modules, as Class.name, whose name no library module or caller
    reads as an attribute (outside the method's own body) and the doc does
    not name as a word.  Dunder and _-prefixed names are exempt.

    The check goes by name only, not by type: a method is counted as read
    when any attribute of that name is, so ``Rows.get`` would pass on the
    reads of ``dict.get`` elsewhere in the library."""
    trees = [ast.parse(source) for source in library]
    defined = [(cls.name, fn.name) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for fn in cls.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not fn.name.startswith("_")]
    used = set(re.findall(r"\w+", doc))
    for tree in trees + [ast.parse(source) for source in callers]:
        used |= _attribute_reads(tree)
    return sorted(f"{cls}.{name}" for cls, name in defined if name not in used)


def test_no_public_method_that_nothing_calls():
    library = [path.read_text() for path in SRC]
    callers = [path.read_text() for path in DEMOS + PERFBENCH]
    assert unused_public_methods(library, callers, (ROOT / "README.md").read_text()) == []


def test_unused_public_method_is_found():
    # C.a is read by a caller, C.b only by itself, C.c in another library
    # module, C.d named in the doc, C.e only written, C.i only off names an
    # import binds; _C, _f and __len__ are exempt
    library = ["class C:\n"
               "    def a(self):\n        pass\n"
               "    def b(self):\n        return self.b()\n"
               "    @property\n    def c(self):\n        return 1\n"
               "    def d(self):\n        pass\n"
               "    def e(self):\n        pass\n"
               "    def _f(self):\n        pass\n"
               "    def __len__(self):\n        return 0\n"
               "    def i(self):\n        pass\n"
               "class _C:\n    def g(self):\n        pass\n"
               "def e(x):\n    x.e = 1\n    return e\n",
               "import operator\nimport os.path as p\n"
               "def h(x):\n    return x.c, operator.i, p.i\n"]
    callers = ["from x import C\nfrom y import z\nC().a()\nz.i()\n"]
    assert unused_public_methods(library, callers, "See `d`.") == ["C.b", "C.e", "C.i"]


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


def stream_writes(source: str, writer: str | None = None) -> list[int]:
    """Lines that write to a stream outside the function named writer: a
    read of an attribute named write or writelines, a call of print, and a
    use or import of json.dump."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == writer
              for node in ast.walk(fn)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) and node.attr in ("write", "writelines"):
            found.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            found.add(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "dump"
              and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                alias.name == "dump" for alias in node.names):
            found.add(node.lineno)
    return sorted(found)


def test_one_write_site():
    found = {path.name: stream_writes(path.read_text(), "_write" if path.name == "__init__.py" else None)
             for path in SRC}
    assert found == {name: [] for name in found}


def test_stream_write_is_found():
    source = ("import json\nfrom json import dump, dumps\n"
              "def _write(out, pieces):\n    for p in pieces:\n        out.write(p)\n"
              "def f(out, doc):\n    json.dump(doc, out)\n    out.write('\\n')\n"
              "def g(out, lines):\n    w = out.writelines\n    w(lines)\n    print('x', file=out)\n"
              "def h(doc):\n    return json.dumps(doc)\n")
    assert stream_writes(source, "_write") == [2, 7, 8, 10, 12]
    assert stream_writes(source) == [2, 5, 7, 8, 10, 12]


LOADER_MACHINERY = {"importlib", "LazyLoader", "module_from_spec", "find_spec", "exec_module",
                    "import_module", "__import__"}


def loader_uses(source: str, lazy: str | None = None) -> list[int]:
    """Lines that use importlib's loader machinery outside the function
    named lazy: a name or attribute in ``LOADER_MACHINERY``, or an import
    from importlib.  ``import importlib.util`` alone uses nothing."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == lazy
              for node in ast.walk(fn)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Name) and node.id in LOADER_MACHINERY:
            found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in LOADER_MACHINERY:
            found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "importlib":
            found.add(node.lineno)
    return sorted(found)


def deferred_bindings(source: str, lazy: str = "_lazy") -> tuple[dict[str, str], list[int]]:
    """({name: module} of the header's ``name = lazy("module")`` statements,
    lines of the calls of lazy that are not one).  The header ends at the
    first def or class other than lazy's own."""
    tree = ast.parse(source)
    bindings, declared = {}, set()
    for stmt in tree.body:
        if isinstance(stmt, DEFS) and stmt.name != lazy:
            break
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name) and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name) and stmt.value.func.id == lazy
                and len(stmt.value.args) == 1 and isinstance(stmt.value.args[0], ast.Constant)):
            bindings[stmt.targets[0].id] = stmt.value.args[0].value
            declared.add(id(stmt.value))
    faults = sorted(node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == lazy and id(node) not in declared)
    return bindings, faults


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_loader_machinery_only_in_lazy(path):
    assert loader_uses(path.read_text(), "_lazy" if path.name == "__init__.py" else None) == []


def test_layers_are_deferred_in_the_cli_header():
    """cli binds every layer module, under its own name, and ``random`` by
    a header assignment, and calls ``_lazy`` nowhere else."""
    layers = {path.stem for path in SRC} - {"__init__", "__main__", "cli"}
    bindings, faults = deferred_bindings((ROOT / "src" / "catrank" / "cli.py").read_text())
    assert faults == []
    assert bindings == {name: f"catrank.{name}" for name in layers} | {"random": "random"}


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "cli.py"], ids=lambda p: p.name)
def test_only_corpus_defers_besides_the_cli(path):
    """corpus binds the category engine and the group layer by header
    assignments; no other module calls ``_lazy``."""
    bindings, faults = deferred_bindings(path.read_text())
    assert faults == []
    expected = ("fincat", "grouptheory") if path.name == "corpus.py" else ()
    assert bindings == {name: f"catrank.{name}" for name in expected}


def test_loader_use_and_stray_lazy_call_are_found():
    source = ("import importlib.util\n"
              "from importlib import import_module\n"
              "def _lazy(name):\n"
              "    spec = importlib.util.find_spec(name)\n"
              "    return importlib.util.module_from_spec(spec)\n"
              "a = _lazy('x.a')\n"
              "d = [_lazy('x.d')]\n"
              "def f():\n"
              "    b = _lazy('x.b')\n"
              "    return importlib.import_module('x.c')\n"
              "c = _lazy('x.c')\n"
              "e = __import__('x.e')\n")
    assert loader_uses(source, "_lazy") == [2, 10, 12]
    assert loader_uses(source) == [2, 4, 5, 10, 12]
    assert deferred_bindings(source) == ({"a": "x.a"}, [7, 9, 11])
