"""A guard on dead imports inside ``qfcert`` and its tests.

Every name a module imports must be read somewhere in that module: a
helper that moved away or a constructor that lost its last caller leaves
its import behind, and this test names it.  ``from __future__ import
annotations`` is exempt, since it changes how the module is compiled.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(tree, module) -> list:
    """(module, line, bound name) for every imported name never read."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(module, line, name) for line, name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted(ROOT.glob("src/qfcert/*.py")) + sorted(ROOT.glob("tests/*.py")):
        found += unused_imports(ast.parse(path.read_text()), path.stem)
    assert found == []


def test_the_guard_sees_every_form():
    src = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import os.path\n"
        "from . import linalg, memo as m\n"
        "from .modrep import Bimodule, LeftModule\n"
        "def f(x: LeftModule):\n"
        "    from .algebra import field_algebra\n"
        "    return np.zeros(linalg.identity(1))\n"
    )
    names = [name for _, _, name in unused_imports(ast.parse(src), "m")]
    assert names == ["os", "os", "m", "Bimodule", "field_algebra"]
