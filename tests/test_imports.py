"""Import and naming rules, checked on the syntax tree of each module of
the package and each file of the tests.

Every name a module imports is used in that module.  There is no linter
in the toolchain, so this walk is what keeps dead imports out.  A name
counts as used when it is read anywhere in the module, attribute bases
included, or listed in ``__all__``.  ``__init__`` and ``backend`` exist
to re-export names and are exempt; ``from __future__`` imports are
directives, not names.

No module, ``expr`` included, and no test names ``Const``, ``Var``,
``Pow``, ``Mul``, ``Add`` or ``Func``: ``Expr`` is the one value class,
and values are built with ``rational``, ``variable``, the operators and
the kernel constructors, so no class per shape of value comes back.

Every import of the package sits at module level, none in a function or
class body: the imports of a module state what it depends on, and a
dependency cycle shows at import time instead of being worked around.

Every top-level function or class of a package module is in
``jetsym.__all__`` or named somewhere else in the package: a helper that
nothing reaches is dead code.  ``expr._rf_of`` is the one exception; no
module calls it, but ``perfbench/tracer.py`` and ``tests/helpers.py`` read
a value's canonical pair through it.  Every entry of ``jetsym.__all__``
resolves.

Every ``__slots__`` field of a package class is read, as an attribute
of that name, somewhere in the package or the tests: a field that is
set and never read is dead state.

No package class but ``expr.Check`` and its subclasses has a
``verdict`` slot: every check returns a ``Check``, so no result class
per check comes back.  ``cli.TaskRecord`` is the one exception; its
``verdict`` is the word of a report record, not a ``Verdict``.

``import jetsym.cli`` loads neither ``dataclasses`` nor ``inspect``:
every run of the command pays its start-up, and those two modules cost
about 20 ms of it.  Value classes are ``__slots__`` classes instead.
"""

import ast
from pathlib import Path

import pytest

import jetsym
from helpers import run_child

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "jetsym"
REEXPORTS = {"__init__.py", "backend.py"}
NODE_CLASSES = {"Const", "Var", "Pow", "Mul", "Add", "Func"}
UNNAMED_HELPERS = {("expr.py", "_rf_of")}
VERDICT_WORDS = {("cli.py", "TaskRecord")}


def sources(exempt=(), tests=True):
    """Each package module, with its file name as id, and unless ``tests``
    is false each test file, with id ``tests/NAME``."""
    return [pytest.param(p, id=p.name) for p in sorted(PACKAGE.glob("*.py"))
            if p.name not in exempt] + [
        pytest.param(p, id=f"tests/{p.name}") for p in sorted(TESTS.glob("*.py"))
        if tests]


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_walk_sees_an_unused_import():
    source = "from os import path, sep\nimport sys\nprint(sep, sys.argv)\n"
    assert unused_imports(source) == [(1, "path")]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from . import x\n__all__ = ['x']\n") == []


@pytest.mark.parametrize("module", sources(exempt=REEXPORTS))
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def node_class_mentions(source):
    """``(line, name)`` of every import, class, name or attribute that
    names one of ``NODE_CLASSES``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        elif isinstance(node, ast.ClassDef):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in NODE_CLASSES:
            found.add((node.lineno, name))
    return sorted(found)


def test_the_walk_sees_a_node_class():
    assert node_class_mentions("from .expr import Mul as M\nM(())\n") == [(1, "Mul")]
    assert node_class_mentions("from . import expr\nexpr.Add(())\n") == [(2, "Add")]
    assert node_class_mentions("Pow = 1\n") == [(1, "Pow")]
    assert node_class_mentions("class Const(Expr):\n    pass\n") == [(1, "Const")]
    assert node_class_mentions("from .expr import Var\n") == [(1, "Var")]
    assert node_class_mentions("x = a * b ** 2\nexp(x)\n") == []


@pytest.mark.parametrize("module", sources())
def test_only_expr_names_node_classes(module):
    assert node_class_mentions(module.read_text(encoding="utf-8")) == []


def nested_imports(source):
    """Lines of the imports inside a function or class body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= {sub.lineno for sub in ast.walk(node)
                      if isinstance(sub, (ast.Import, ast.ImportFrom))}
    return sorted(found)


def test_the_walk_sees_a_nested_import():
    assert nested_imports("import os\ndef f():\n    import sys\n") == [3]
    assert nested_imports("class C:\n    def m(self):\n        from . import x\n") == [3]
    assert nested_imports("try:\n    import os\nexcept ImportError:\n    os = None\n") == []


@pytest.mark.parametrize("module", sources(tests=False))
def test_package_imports_at_module_level(module):
    assert nested_imports(module.read_text(encoding="utf-8")) == []


def names_read(node):
    """Every name, attribute and imported name in ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
    return found


def dead_helpers(modules, public):
    """``(file name, name)`` of each top-level function or class of
    ``modules`` (file name -> source) that is not in ``public`` and that
    no other top-level statement of any module names."""
    statements = [(name, stmt) for name, source in sorted(modules.items())
                  for stmt in ast.parse(source).body]
    reads = [names_read(stmt) for _name, stmt in statements]
    dead = []
    for k, (name, stmt) in enumerate(statements):
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and stmt.name not in public
                and not any(stmt.name in r for j, r in enumerate(reads) if j != k)):
            dead.append((name, stmt.name))
    return dead


def test_the_walk_sees_a_dead_helper():
    modules = {
        "a.py": "def used():\n    pass\n\n\ndef dead():\n    return dead()\n\n\n"
                "class Public:\n    pass\n\n\ndef method_named():\n    pass\n",
        "b.py": "from .a import used\n\n\nclass C:\n    def m(self, o):\n"
                "        return o.method_named\n",
    }
    assert dead_helpers(modules, {"Public"}) == [("a.py", "dead"), ("b.py", "C")]
    assert dead_helpers(modules, {"Public", "C"}) == [("a.py", "dead")]


def test_every_package_helper_is_named():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert set(dead_helpers(modules, set(jetsym.__all__))) == UNNAMED_HELPERS


def test_every_public_name_resolves():
    assert len(set(jetsym.__all__)) == len(jetsym.__all__)
    assert [name for name in jetsym.__all__ if not hasattr(jetsym, name)] == []


def classes(modules):
    """``(file name, class node)`` of each class in ``modules`` (file name
    -> source)."""
    return [(name, cls) for name, source in sorted(modules.items())
            for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)]


def slots(cls):
    """The ``__slots__`` names of class node ``cls``."""
    return [e.value for stmt in cls.body
            if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
            for e in stmt.value.elts]


def dead_fields(modules, readers):
    """``(file name, class, field)`` of each ``__slots__`` field of a
    class in ``modules`` (file name -> source) that no source in
    ``readers`` loads as an attribute of that name."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [(name, cls.name, field) for name, cls in classes(modules)
            for field in slots(cls) if field not in read]


def test_the_walk_sees_a_dead_field():
    source = ("class C:\n    __slots__ = ('kept', 'dead')\n\n"
              "    def __init__(self, kept, dead):\n"
              "        self.kept = kept\n        self.dead = dead\n")
    assert dead_fields({"a.py": source}, [source]) == [("a.py", "C", "kept"), ("a.py", "C", "dead")]
    assert dead_fields({"a.py": source}, [source, "print(c.kept)\n"]) == [("a.py", "C", "dead")]
    assert dead_fields({"a.py": source}, [source, "c.kept, c.dead\n"]) == []


def test_every_slot_field_is_read():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))]
    assert dead_fields(modules, list(modules.values()) + tests) == []


def verdict_holders(modules):
    """``(file name, class)`` of each class in ``modules`` (file name ->
    source) with a ``verdict`` slot that is neither ``Check`` nor, by the
    names of its bases, a subclass of it."""
    found = classes(modules)
    bases = {cls.name: [b.id if isinstance(b, ast.Name) else b.attr for b in cls.bases
                        if isinstance(b, (ast.Name, ast.Attribute))]
             for _name, cls in found}

    def is_check(name):
        return name == "Check" or any(is_check(b) for b in bases.get(name, ()))

    return [(name, cls.name) for name, cls in found
            if "verdict" in slots(cls) and not is_check(cls.name)]


def test_the_walk_sees_a_verdict_slot_outside_check():
    source = ("class Check:\n    __slots__ = ('verdict', 'residuals')\n\n\n"
              "class Sub(Check):\n    __slots__ = ('vacuous',)\n\n\n"
              "class SubSub(Sub):\n    __slots__ = ('verdict',)\n\n\n"
              "class Result:\n    __slots__ = ('verdict', 'residuals')\n")
    assert verdict_holders({"a.py": source}) == [("a.py", "Result")]
    other = "class Coincidence(expr.Check):\n    __slots__ = ('verdict',)\n"
    assert verdict_holders({"a.py": source, "b.py": other}) == [("a.py", "Result")]
    assert verdict_holders({"b.py": "class C:\n    __slots__ = ('verdicts',)\n"}) == []


def test_only_checks_hold_a_verdict():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert set(verdict_holders(modules)) == VERDICT_WORDS


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    script = "import sys, jetsym.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert run_child(script, timeout=60) == [""]
