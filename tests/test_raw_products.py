"""A guard on raw F_p products outside the exact kernel.

``np.einsum``, ``np.matmul``, ``np.dot``, ``np.tensordot`` and ``@`` on
int64 residues overflow once (p-1)^2 times the contracted dimension
reaches 2^63.  ``linalg`` owns the exact products and ``verify`` has its
own arithmetic; everywhere else each such site is counted here, per
function.  A new site fails the test, and so does a removed one until the
table is tightened, so the table only ever shrinks.
"""

import ast
import pathlib

RAW = {"einsum", "matmul", "dot", "tensordot"}
EXEMPT = {"linalg.py", "verify.py"}
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qfcert"

# raw products per function, keyed "module.qualified.name"
ALLOWED = {
    "algebra.EnvelopingAlgebra.__init__": 1,
    "algebra.tensor_algebra": 1,
}


def _is_raw_product(node) -> bool:
    if isinstance(node, ast.Call):
        f = node.func
        return isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "np" and f.attr in RAW
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)


def raw_products(src_dir) -> dict:
    """Raw products per innermost enclosing function or class."""
    counts = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if _is_raw_product(child):
                counts[scope] = counts.get(scope, 0) + 1
            visit(child, inner)

    for path in sorted(pathlib.Path(src_dir).glob("*.py")):
        if path.name not in EXEMPT:
            visit(ast.parse(path.read_text()), path.stem)
    return counts


def test_raw_products_match_the_table():
    assert raw_products(SRC) == ALLOWED


def test_the_counter_sees_every_form():
    src = "def f(a, b):\n    c = np.einsum('ij,jk->ik', a, b) + np.dot(a, b) + a @ b\n    c @= b\n    return c\n"
    tree = ast.parse(src)
    assert sum(_is_raw_product(n) for n in ast.walk(tree)) == 4
