"""Guards on dead helpers and dead public names inside ``qfcert``.

Every module-level function or class whose name starts with one
underscore must be read somewhere in the package beyond its definition:
a helper whose last caller went away stays behind unnoticed, and this
test names it.  Every public module-level function or class, and every
public method, must be read somewhere in the package, its tests or the
benchmark.  Every public module-level function or class must be read
by the package itself, or be a span the benchmark tracer wraps: the
package is what a command runs, and a reference construction that only
tests read belongs with the tests.  A read is a name loaded
(``_helper(...)``), an attribute taken (``linalg._helper``) or a name
imported (``from .x import f``).
"""

import ast
import importlib
import importlib.util
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qfcert"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

def private_definitions(tree) -> list:
    """Every module-level ``_name`` function or class of ``tree``."""
    return [
        node
        for node in tree.body
        if isinstance(node, DEFS)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def module_publics(tree) -> list:
    """Every public module-level function or class of ``tree``."""
    return [node for node in tree.body if isinstance(node, DEFS) and not node.name.startswith("_")]


def public_definitions(tree) -> list:
    """Every public module-level function or class of ``tree``, and every
    public method of its classes."""
    found = []
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [m for m in node.body if isinstance(m, DEFS) and not m.name.startswith("_")]
    return found


def reads(tree) -> Counter:
    """How often each name is loaded, taken as an attribute or imported in ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def dead_names(trees: dict, definitions, readers=()) -> list:
    """(module, line, name) of every definition of ``trees`` that neither
    they nor ``readers`` read outside the definition itself."""
    read = sum((reads(tree) for tree in [*trees.values(), *readers]), Counter())
    return [
        (module, node.lineno, node.name)
        for module, tree in sorted(trees.items())
        for node in definitions(tree)
        if read[node.name] == reads(node)[node.name]
    ]


def dead_helpers(trees: dict) -> list:
    """(module, line, name) of every private helper read only inside itself."""
    return dead_names(trees, private_definitions)


def load_tracer():
    """``perfbench/tracer.py``, loaded by path: it is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_private_helper_is_read():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert dead_helpers(trees) == []


def test_every_public_name_is_read():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    readers = [ast.parse(path.read_text()) for top in ("tests", "perfbench") for path in (ROOT / top).rglob("*.py")]
    assert dead_names(trees, public_definitions, readers) == []


def test_every_public_module_name_is_read_by_the_package_or_a_span():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    spans = {path.split(".")[0] for _, path in load_tracer().SPANS.values()}
    unread = [
        (module, line, name)
        for module, line, name in dead_names(trees, module_publics)
        if name not in spans
    ]
    assert unread == []


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


def test_the_public_guard_sees_every_form():
    a = (
        "class Used:\n"
        "    def method(self): pass\n"
        "    def dead_method(self): pass\n"
        "    def _private(self): pass\n"
        "def imported(): pass\n"
        "def dead(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
    )
    reader = "from a import imported\nUsed().method()\n"
    found = dead_names({"a": ast.parse(a)}, public_definitions, [ast.parse(reader)])
    assert [name for _, _, name in found] == ["dead_method", "dead", "recursive"]


def test_every_benchmark_span_resolves():
    # a traced benchmark run wraps each span by name, and stops on one
    # that a change to qfcert renamed or deleted
    tracer = load_tracer()
    for module_name, path in tracer.SPANS.values():
        importlib.import_module(f"qfcert.{module_name}")
        owner, attr = tracer._resolve(module_name, path)
        assert callable(getattr(owner, attr)), (module_name, path)
