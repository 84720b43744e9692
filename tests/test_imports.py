"""Import and naming rules, checked on each module's syntax tree.

Every name a module of the package imports is used in that module.
There is no linter in the toolchain, so this walk is what keeps dead
imports out.  A name counts as used when it is read anywhere in the
module, attribute bases included, or listed in ``__all__``.  ``__init__``
and ``backend`` exist to re-export names and are exempt; ``from
__future__`` imports are directives, not names.

No module but ``expr`` names the node classes ``Add``, ``Mul``, ``Pow``
or ``Func``: every other module builds values with the operators and the
kernel constructors, so only ``expr`` decides which node a value is.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jetsym"
REEXPORTS = {"__init__.py", "backend.py"}
NODE_CLASSES = {"Add", "Mul", "Pow", "Func"}


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


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in REEXPORTS),
)
def test_module_uses_every_import(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def node_class_mentions(source):
    """``(line, name)`` of every import, name or attribute that names a
    node class."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
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
    assert node_class_mentions("x = a * b ** 2\nexp(x)\n") == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "expr.py")
)
def test_only_expr_names_node_classes(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert node_class_mentions(source) == []
