"""Every name a module of the package imports is read somewhere in it,
every import sits at the top level of its module, and every private
top-level name is read somewhere in the package.

The checks read the source with the standard library's ``ast`` only:
a name bound by ``import`` or ``from ... import`` (not ``__future__``)
must be loaded by some expression of the same module.  ``__init__.py``
is left out of that check, because it imports names to export them.
No module imports inside a function or class body: the package has no
import cycle that such an import would break, so a module's imports
are all in one place.  A top-level ``def``, ``class`` or assignment
whose name starts with one underscore is not exported, so a module of
the package must load it (as a name or an attribute) or it is dead.
The parameters with a default, over every function and lambda of the
package, are counted, and the count may not rise above its bound.  The
package's code lines are counted too, and the count is pinned exactly.
"""

import ast
import re
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


def private_definitions(source):
    "The top-level def, class and assigned names that start with one underscore."
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def loaded_names(source):
    "Every name the source loads, bare or as an attribute."
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unread_private_names(sources):
    "The private top-level names of these sources that none of them loads, sorted."
    defined = set().union(*(private_definitions(s) for s in sources))
    read = set().union(*(loaded_names(s) for s in sources))
    return sorted(defined - read)


def test_the_check_sees_an_unread_private_helper():
    first = ("_TABLE = {}\n"
             "_a, _b = 1, 2\n"
             "def _helper():\n"
             "    return _TABLE\n"
             "def _dead():\n"
             "    return _a\n"
             "class _Unused:\n"
             "    pass\n"
             "def __getattr__(name):\n"
             "    return name\n")
    second = ("from .first import _helper\n"
              "import first\n"
              "x = first._dead\n"
              "def public():\n"
              "    return _helper()\n")
    assert unread_private_names([first, second]) == ["_Unused", "_b"]
    assert unread_private_names([first]) == ["_Unused", "_b", "_dead", "_helper"]


def test_every_private_top_level_name_is_read_in_the_package():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert len(sources) > 5
    assert unread_private_names(sources) == []


# the parameters with a default in the package: a new default, option or
# knob raises the count, so it must lower this bound in the same change
DEFAULTED_PARAMETERS = 33

# the package's code lines, as grep -cvE '^\s*(#|$)' counts them: pinned
# exactly, so that every change shows its code-line delta in its own diff
CODE_LINES = 3319


def defaulted_parameters(source):
    "How many parameters of the source's functions and lambdas have a default."
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def test_the_count_sees_every_kind_of_default():
    source = ("def f(a, b=1, *args, c, d=2, **kw):\n"
              "    g = lambda x, y=3: x\n"
              "    async def h(p=4, /, q=5):\n"
              "        pass\n"
              "class C:\n"
              "    def m(self, r=None):\n"
              "        pass\n")
    assert defaulted_parameters(source) == 6


def test_no_parameter_with_a_default_is_added():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert sum(defaulted_parameters(p.read_text()) for p in modules) <= DEFAULTED_PARAMETERS


_NOT_CODE = re.compile(r"\s*(#|$)", re.ASCII)


def code_lines(source):
    "The lines that are neither blank nor a comment (a docstring is code)."
    return sum(not _NOT_CODE.match(line) for line in source.split("\n"))


def test_the_code_line_count_skips_blanks_and_comments_only():
    source = 'x = 1\n\n  # note\n\t \ny = 2  # note\n"""doc"""\n'
    assert code_lines(source) == 3


def test_the_code_lines_are_pinned():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert sum(code_lines(p.read_text()) for p in modules) == CODE_LINES
