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

``import jetsym.cli`` loads neither ``dataclasses`` nor ``inspect``:
every run of the command pays its start-up, and those two modules cost
about 20 ms of it.  Value classes are ``__slots__`` classes instead.
"""

import ast
from pathlib import Path

import pytest

from helpers import run_child

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "jetsym"
REEXPORTS = {"__init__.py", "backend.py"}
NODE_CLASSES = {"Const", "Var", "Pow", "Mul", "Add", "Func"}


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


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    script = "import sys, jetsym.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert run_child(script, timeout=60) == [""]
