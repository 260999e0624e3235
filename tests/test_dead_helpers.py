"""A guard on dead private helpers inside ``qfcert``.

Every module-level function or class whose name starts with one
underscore must be read somewhere in the package beyond its definition:
a helper whose last caller went away stays behind unnoticed, and this
test names it.  A read is a name loaded (``_helper(...)``) or an
attribute taken (``linalg._helper``), in any module.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qfcert"


def private_definitions(tree) -> list:
    """Every module-level ``_name`` function or class of ``tree``."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def reads(tree) -> Counter:
    """How often each name is loaded or taken as an attribute in ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def dead_helpers(trees: dict) -> list:
    """(module, line, name) of every private helper read only inside itself."""
    read = sum((reads(tree) for tree in trees.values()), Counter())
    return [
        (module, node.lineno, node.name)
        for module, tree in sorted(trees.items())
        for node in private_definitions(tree)
        if read[node.name] == reads(node)[node.name]
    ]


def test_every_private_helper_is_read():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert dead_helpers(trees) == []


def test_the_guard_sees_every_form():
    a = (
        "import b\n"
        "def _called(): pass\n"
        "def _dead(): pass\n"
        "class _Used: pass\n"
        "def __dunder__(): pass\n"
        "def public(): return _called() + b._attr() + _Used\n"
        "def _only_itself(n): return _only_itself(n - 1)\n"
        "def _stored(): pass\n"
        "_stored = 1\n"
    )
    b = "def _attr(): pass\n"
    found = dead_helpers({"a": ast.parse(a), "b": ast.parse(b)})
    assert [name for _, _, name in found] == ["_dead", "_only_itself", "_stored"]
