"""Shared small-instance constructors for the test suite.

Everything here is built directly from first principles (matrix units,
permutation tables, polynomial quotients), independent of qfcert.fixtures,
so tests cross-check the package against independent constructions.
"""

import itertools
import sys

import numpy as np

from qfcert import linalg
from qfcert.algebra import group_algebra, make_algebra
from qfcert.modrep import LeftModule, Bimodule


def mat_units_algebra(p, n):
    dim = n * n

    def idx(a, b):
        return a * n + b

    mul = np.zeros((dim, dim, dim), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b == c:
                        mul[idx(a, b), idx(c, d), idx(a, d)] = 1
    unit = np.zeros(dim, dtype=np.int64)
    for a in range(n):
        unit[idx(a, a)] = 1
    return make_algebra(p, mul, unit)


def dual_numbers(p):
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    return make_algebra(p, mul, [1, 0])


def prod_fields(p):
    """F_p x F_p with idempotent basis."""
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[1, 1, 1] = 1
    return make_algebra(p, mul, [1, 1])


def upper_triangular2(p):
    """2x2 upper triangular matrices, basis (e11, e22, e12)."""
    mul = np.zeros((3, 3, 3), dtype=np.int64)
    mul[0, 0, 0] = 1  # e11 e11
    mul[1, 1, 1] = 1  # e22 e22
    mul[0, 2, 2] = 1  # e11 e12 = e12
    mul[2, 1, 2] = 1  # e12 e22 = e12
    return make_algebra(p, mul, [1, 1, 0])


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_table():
    perms = list(itertools.permutations(range(3)))

    def compose(q, r):
        return tuple(q[r[i]] for i in range(3))

    return [[perms.index(compose(q, r)) for r in perms] for q in perms]


def group_alg(p, n):
    return group_algebra(p, cyclic_table(n))


def column_module(p, n=2):
    """F_p^n as the natural left module over M_n(F_p)."""
    a = mat_units_algebra(p, n)
    act = np.zeros((n * n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            act[i * n + j, i, j] = 1
    return LeftModule(a, act)


def trivial_module_dualnum(p):
    """F_p with x acting by 0, over F_p[x]/(x^2)."""
    a = dual_numbers(p)
    act = np.zeros((2, 1, 1), dtype=np.int64)
    act[0, 0, 0] = 1
    return LeftModule(a, act)


def simple_modules_prod(p):
    """The two 1-dim simples of F_p x F_p."""
    a = prod_fields(p)
    act1 = np.zeros((2, 1, 1), dtype=np.int64)
    act1[0, 0, 0] = 1
    act2 = np.zeros((2, 1, 1), dtype=np.int64)
    act2[1, 0, 0] = 1
    return LeftModule(a, act1), LeftModule(a, act2)


def unit_bimodule_rs(r_alg, s_alg, phi_matrix, p):
    """S as an (R, S)-bimodule: left through phi, right regular."""
    la = np.stack([s_alg.left_mult_matrix(phi_matrix[:, i]) for i in range(r_alg.dim)])
    return Bimodule(r_alg, s_alg, la % p, s_alg.right_mult)


def python_rref(a, p):
    """Gauss-Jordan on Python integers: exact at every p."""
    rows = [[int(x) % p for x in row] for row in np.asarray(a)]
    m = len(rows)
    n = np.asarray(a).shape[1]
    pivots = []
    for c in range(n):
        r = len(pivots)
        k = next((i for i in range(r, m) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def python_nullspace(a, p):
    """Right-nullspace basis in ``linalg.nullspace``'s convention (unit
    vectors at the free columns, completed on the pivots), on Python
    integers."""
    n = np.asarray(a).shape[1]
    rows, pivots = python_rref(a, p)
    free = [c for c in range(n) if c not in pivots]
    basis = [[0] * len(free) for _ in range(n)]
    for k, f in enumerate(free):
        basis[f][k] = 1
        for r, c in enumerate(pivots):
            basis[c][k] = -rows[r][f] % p
    return basis


def stacked_hom_system(source, target):
    """Rows of f a_i = a_i f over every basis element a_i of the algebra,
    on the row-major flattening of f: the system ``hom_space`` trims."""
    dm, dn = source.dim, target.dim
    rows = [
        np.kron(np.eye(dn, dtype=np.int64), source.action[i].T)
        - np.kron(target.action[i], np.eye(dm, dtype=np.int64))
        for i in range(source.algebra.dim)
    ]
    return np.concatenate(rows) % source.p


def reference_hom_basis(source, target):
    """Hom_A(source, target) by intertwining conditions on dim N * dim M
    unknowns, imposed for the algebra's generators one at a time: the
    canonical nullspace basis of the full system, (k, dim N, dim M), as the
    reference the generator-image route of ``hom_space`` must match."""
    p = source.p
    dm, dn = source.dim, target.dim
    k = dn * dm
    v = linalg.identity(k)
    for x in source.algebra.generators():
        cur = v.shape[1]
        if cur == 0:
            break
        stack = v.T.reshape(cur, dn, dm)
        # f a - a f for every basis map f at once, as two exact 2-D products
        fa = linalg.matmul(stack.reshape(cur * dn, dm), source.act(x), p).reshape(cur, dn, dm)
        af = linalg.matmul(target.act(x), stack.transpose(1, 0, 2).reshape(dn, cur * dm), p)
        resid = (fa - af.reshape(dn, cur, dm).transpose(1, 0, 2)) % p
        coeffs = linalg.nullspace(resid.reshape(cur, k).T, p)
        v = linalg.matmul(v, coeffs, p)
    return v.T.reshape(v.shape[1], dn, dm)


def balanced_relations(s_alg, m, n):
    """Rows spanning the balancing subspace of the full tensor space
    M (x) N (index i*dim N + j): (m s) (x) n - m (x) (s n) over the
    algebra generators s."""
    p = s_alg.p
    eye_m, eye_n = np.eye(m.dim, dtype=np.int64), np.eye(n.dim, dtype=np.int64)
    rows = [
        ((np.kron(m.right_acts[g], eye_n) - np.kron(eye_m, n.left_acts[g])) % p).T
        for g in s_alg.generating_indices()
    ]
    return np.concatenate(rows) if rows else np.zeros((0, m.dim * n.dim), dtype=np.int64)


def balancing_quotient(s_alg, m, n):
    """``(proj, sect)`` of M (x)_S N as the full tensor space modulo the
    balancing relations: the reference the presented quotients must match."""
    return linalg.row_space_quotient(balanced_relations(s_alg, m, n), m.dim * n.dim, s_alg.p)


LARGEST_PRIME = 3037000493  # the largest prime the schema accepts
# the largest prime in float64 and the smallest in int64 (see linalg._exact_plan)
P_FLOAT_TOP = 47453111
P_INT_LOW = 47453149


def dense_basis_change(n, p, rng):
    """A random invertible n x n matrix over F_p and its inverse, as lists
    of Python integers."""
    while True:
        t = [[int(x) for x in rng.randint(0, p, size=n)] for _ in range(n)]
        rows, pivots = python_rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(t)], p)
        if pivots[:n] == list(range(n)):
            return t, [row[n:] for row in rows]


def _py_matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def rebased(alg, t, t_inv):
    """(mul, unit) of ``alg`` in the basis f_i = sum_a t[a][i] e_a, on
    Python integers."""
    p, n = alg.p, alg.dim
    mul = alg.mul.tolist()
    out = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            prod = [sum(t[a][i] * t[b][j] * mul[a][b][c] for a in range(n) for b in range(n)) for c in range(n)]
            out[i, j] = [sum(t_inv[k][c] * prod[c] for c in range(n)) % p for k in range(n)]
    unit = _py_matmul(t_inv, [[u] for u in alg.unit.tolist()], p)
    return out, np.array(unit, dtype=np.int64).reshape(-1)


def conjugated(action, t, t_inv, p):
    """The action tensor t x t^-1, on Python integers."""
    return np.array([_py_matmul(_py_matmul(t, x.tolist(), p), t_inv, p) for x in action], dtype=np.int64)


def count_calls(monkeypatch, func):
    """Wrap ``func`` with a call counter wherever a loaded qfcert module binds it.

    Returns a one-element list holding the number of calls made so far.
    """
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "qfcert" or name.startswith("qfcert."):
            for attr, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def outcome_rows(out):
    """The verdict, notes and per-check (name, condition, verdict, reason,
    certificate kind) of an Outcome, for pinning a decision exactly."""
    rows = [
        (c.name, c.condition, c.verdict, c.reason, None if c.certificate is None else c.certificate["kind"])
        for c in out.checks
    ]
    return out.verdict, list(out.notes), rows
