"""Every name a module of the package imports is read somewhere in it,
and every import sits at the top level of its module.

The checks read the source with the standard library's ``ast`` only:
a name bound by ``import`` or ``from ... import`` (not ``__future__``)
must be loaded by some expression of the same module.  ``__init__.py``
is left out of that check, because it imports names to export them.
No module imports inside a function or class body: the package has no
import cycle that such an import would break, so a module's imports
are all in one place.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopfchains"


def unread_imports(source):
    "The names the module's imports bind that no expression of it reads, sorted."
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_the_check_sees_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os.path, json as js\n"
              "from .linalg import Vec, pair\n"
              "def f():\n"
              "    from .laws import verify\n"
              "    return pair(os.sep)\n")
    assert unread_imports(source) == ["Vec", "js", "verify"]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unread = {p.name: unread_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unread.items() if names} == {}


def nested_imports(source):
    "The line numbers of the imports inside a function or class body, sorted."
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            lines.update(n.lineno for n in ast.walk(node)
                         if isinstance(n, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


def test_the_check_sees_an_import_inside_a_body():
    source = ("import json\n"
              "def f():\n"
              "    def g():\n"
              "        import os\n"
              "    return json\n"
              "class C:\n"
              "    from .linalg import Vec\n")
    assert nested_imports(source) == [4, 7]


def test_every_import_is_at_the_top_level_of_its_module():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    nested = {p.name: nested_imports(p.read_text()) for p in modules}
    assert {name: lines for name, lines in nested.items() if lines} == {}
