"""A guard on private names crossing module boundaries inside ``qfcert``.

An underscore-prefixed name (other than a dunder) belongs to the module that defines it.  A
helper that another module needs is public in its home module, so every
``from .x import _name`` (or ``from qfcert.x import _name``) inside the
package fails this test.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qfcert"


def _private(name) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(tree, module) -> list:
    """(module, line, imported name) for every private name imported from qfcert."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0 and source != "qfcert" and not source.startswith("qfcert."):
            continue
        found += [(module, node.lineno, a.name) for a in node.names if _private(a.name)]
    return found


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += private_imports(ast.parse(path.read_text()), path.stem)
    assert found == []


def test_the_guard_sees_every_form():
    src = (
        "from .simdiv import _fgp_check, similar\n"
        "from qfcert.modrep import _presentation\n"
        "from . import _private, __version__\n"
        "from numpy import _globals\n"
        "def f():\n"
        "    from ..x import _late\n"
    )
    names = [name for _, _, name in private_imports(ast.parse(src), "m")]
    assert names == ["_fgp_check", "_presentation", "_private", "_late"]
