"""Every public name of the package is referred to outside the tests,
or it is on a pinned list with the reason it stays; and every public
name that no module of the package refers to is pinned with its reason.

A public name is a top-level ``def``, ``class`` or assignment of a module
of ``src/hopfchains`` whose name does not start with an underscore, and
each such method of a public class (``Class.method``).  ``__init__.py``
is left out, because it imports names to export them.  The sources that
may refer to them are the package's other modules, ``perfbench/`` and
``bench_trajectory.py``.  A reference is a loaded name, an attribute, or
a string that is a dotted name (``perfbench``'s tracer wraps functions by
their dotted names).  A method is referred to only through an attribute
(``x.method``) or a dotted string that ends in it, never by a bare name,
so a local variable named like a method does not count; a class or
static method must be named with its class, or through ``cls``.  A
reference from ``perfbench/`` or ``bench_trajectory.py`` to a name that
those files define themselves does not count, even when it is reached
through the package (``perfbench``'s inputs have generators named like
the package's).  A method is matched by its name alone, whatever it is
called on, so a method named like one that has a caller counts as
called.  The method names that two or more public classes define are
pinned as ``SHARED``, so a new one shows in the diff that adds it, and
its callers can be checked by hand.

The scan run with the package's modules as the only callers (the CLI is
one of them) gives the names that no command reaches, pinned as
``UNREACHED``: a function that exists only to be tested or measured
shows in the diff that adds it.

The lists are compared exactly: a name that loses its last caller, and a
listed name that gets one, both show in the diff that does it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfchains"

# module.name -> why it stays without a caller outside the tests
UNCALLED = {}

# module.name -> why it stays though no module of the package refers to it
UNREACHED = {
    "chains.chain_symmetry": "acceptance criterion 7 and the chain-complexes workload",
    "chains.comonad_comparison": "acceptance criterion 7 and the chain-complexes workload",
    "chains.curry_adjunction": "acceptance criterion 7 and the chain-complexes workload",
    "chains.triangle_identities_hold":
        "acceptance criterion 7 and the chain-complexes workload",
    "semidirect.semidirect_antipode":
        "the semidirect-build workload; it leaves with that workload's next route",
}

# the public method names that two or more public classes define: the scan
# counts each as called when any method of that name is
SHARED = {"basis", "of", "rank", "suite", "to_json"}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")


def public_names(source):
    """The public names a module defines, each with whether it must be named
    with its class (a class or static method)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, False
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, False
        for sub in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                bound = {d.id for d in sub.decorator_list if isinstance(d, ast.Name)}
                yield "%s.%s" % (node.name, sub.name), bool(bound & {"classmethod", "staticmethod"})


def references(source):
    """The names the source refers to: bare, and for an attribute or a dotted
    string also as ``.name`` (how a method is referred to) and, for an
    attribute, after its owner's name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
            yield "." + node.attr
            owner = node.value
            owner = getattr(owner, "id", None) or getattr(owner, "attr", None)
            if owner:
                yield "%s.%s" % (owner, node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.match(node.value)):
            _, dot, name = node.value.rpartition(".")
            yield name
            if dot:
                yield "." + name


def uncalled(modules, callers, outside=()):
    """The public names of ``modules`` ({module name: source}) that no source
    in ``callers`` or ``outside`` refers to, as ``module.name``, sorted; a
    reference from ``outside`` to a name that ``outside`` defines does not
    count."""
    found = set()
    for source in callers:
        found.update(references(source))
    own = {name.rpartition(".")[2] for source in outside for name, _ in public_names(source)}
    for source in outside:
        found.update(r for r in references(source) if r.rpartition(".")[2] not in own)
    names = []
    for module, source in modules.items():
        for name, qualified in public_names(source):
            cls, _, method = name.rpartition(".")
            if qualified:
                called = name in found or "cls." + method in found
            elif cls:
                called = "." + method in found
            else:
                called = name in found
            if not called:
                names.append("%s.%s" % (module, name))
    return sorted(names)


def test_the_scan_sees_each_kind_of_reference():
    first = ("LIMIT = 3\n"
             "def used():\n"
             "    pass\n"
             "def by_name():\n"
             "    pass\n"
             "def unused():\n"
             "    return used()\n"
             "class Thing:\n"
             "    @classmethod\n"
             "    def make(cls):\n"
             "        return cls.build()\n"
             "    @classmethod\n"
             "    def build(cls):\n"
             "        return cls()\n"
             "    @classmethod\n"
             "    def read(cls):\n"
             "        pass\n"
             "    def show(self):\n"
             "        pass\n"
             "def _private():\n"
             "    pass\n")
    second = ("x = first.Thing.make()\n"
              "y = other.read()\n"
              "trace = ['first.by_name']\n")
    modules = {"first": first}
    assert uncalled(modules, [first, second]) == [
        "first.LIMIT", "first.Thing.read", "first.Thing.show", "first.unused"]
    assert uncalled(modules, [second]) == [
        "first.LIMIT", "first.Thing.build", "first.Thing.read", "first.Thing.show",
        "first.unused", "first.used"]
    # an outside file's references to its own names do not count, even
    # through the package; its references to the package's names do
    third = ("class Input:\n"
             "    def show(self):\n"
             "        pass\n"
             "def unused():\n"
             "    return first.LIMIT\n")
    fourth = ("z = inputs.unused(first.unused, 'third.unused')\n"
              "Input().show()\n")
    assert uncalled(modules, [first, second], [third, fourth]) == [
        "first.Thing.read", "first.Thing.show", "first.unused"]
    assert uncalled(modules, [first, second, third, fourth]) == [
        "first.Thing.read"]
    # a bare name refers to a function, never to a method: a local variable
    # or an undotted string named like a method does not count, while an
    # attribute or a dotted string does
    fifth = ("class Box:\n"
             "    def size(self):\n"
             "        pass\n"
             "    def width(self):\n"
             "        pass\n"
             "    def depth(self):\n"
             "        pass\n"
             "def size():\n"
             "    pass\n")
    sixth = ("size = 3\n"
             "label = 'size'\n"
             "print(size, Box().depth, 'fifth.Box.width')\n")
    assert uncalled({"fifth": fifth}, [sixth]) == ["fifth.Box.size"]


def shared_methods(modules):
    "The public method names that two or more public classes of ``modules`` define, sorted."
    owners = {}
    for module, source in modules.items():
        for name, _ in public_names(source):
            cls, _, method = name.rpartition(".")
            if cls:
                owners.setdefault(method, set()).add((module, cls))
    return sorted(m for m, classes in owners.items() if len(classes) > 1)


def package_modules():
    "{module name: source} for the modules of the package but ``__init__.py``."
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def test_the_shared_method_names_are_pinned():
    first = ("class A:\n"
             "    def to_json(self):\n"
             "        pass\n"
             "    def read(self):\n"
             "        pass\n"
             "    def read(self):\n"
             "        pass\n"
             "class _Hidden:\n"
             "    def show(self):\n"
             "        pass\n")
    second = ("class B:\n"
              "    def to_json(self):\n"
              "        pass\n"
              "    def show(self):\n"
              "        pass\n"
              "def to_json():\n"
              "    pass\n")
    assert shared_methods({"first": first, "second": second}) == ["to_json"]
    assert shared_methods(package_modules()) == sorted(SHARED)


def test_every_public_name_has_a_caller_outside_the_tests_or_a_reason():
    modules = package_modules()
    outside = [p.read_text() for p in sorted(
        [*(ROOT / "perfbench").glob("*.py"), ROOT / "bench_trajectory.py"])]
    assert len(modules) > 5 and len(outside) > 5
    assert uncalled(modules, modules.values(), outside) == sorted(UNCALLED)
    assert all(UNCALLED.values())


def test_every_public_name_a_package_module_does_not_reach_is_pinned():
    modules = package_modules()
    assert "cli" in modules
    assert uncalled(modules, modules.values()) == sorted(UNREACHED)
    assert all(UNREACHED.values())
