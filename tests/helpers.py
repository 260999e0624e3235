"""Shared small-instance constructors for the test suite.

Everything here is built directly from first principles (matrix units,
permutation tables, polynomial quotients), independent of qfcert.fixtures,
so tests cross-check the package against independent constructions.
"""

import itertools
import json
import sys

import numpy as np
import pytest

from qfcert import linalg, report, verify
from qfcert.algebra import AlgebraHom, equal_algebras, field_algebra, group_algebra, make_algebra
from qfcert.errors import UsageError
from qfcert.modrep import Bimodule, LeftModule, SplitWitness, hom_space, regular_left, tensor_over


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
    la = linalg.combine(linalg.asmat(phi_matrix, p), s_alg.left_mult, p)
    return Bimodule(r_alg, s_alg, la, s_alg.right_mult)


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


def reference_trace_radical(alg):
    """Kernel of the trace form (x, y) -> tr L_(xy), as basis columns on
    Python integers: the Jacobson radical when p > dim alg (Dickson)."""
    p, n, mul = alg.p, alg.dim, alg.mul.tolist()
    tr = [sum(mul[k][i][i] for i in range(n)) % p for k in range(n)]
    return python_nullspace([[sum(mul[i][j][k] * tr[k] for k in range(n)) % p for j in range(n)] for i in range(n)], p)


def commutator_ideal_is_nilpotent(alg):
    """Whether the two-sided ideal I that the commutators of ``alg``
    generate is nilpotent: I^(dim + 1) = 0, with spans on Python integers."""
    p, n, mul = alg.p, alg.dim, alg.mul.tolist()

    def times(x, y):
        return [sum(x[a] * y[b] * mul[a][b][c] for a in range(n) for b in range(n) if x[a] and y[b]) % p for c in range(n)]

    def span(vectors):
        rows, pivots = python_rref(vectors or [[0] * n], p)
        return rows[: len(pivots)]

    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    comm = span([[(x - y) % p for x, y in zip(times(a, b), times(b, a))] for a in eye for b in eye])
    ideal = span([times(times(a, c), b) for a in eye for b in eye for c in comm])
    power = ideal
    for _ in range(n):
        power = span([times(x, y) for x in power for y in ideal])
    return not power


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
        x_on_m, x_on_n = (linalg.combine(x.reshape(-1, 1), mod.action, p)[0] for mod in (source, target))
        fa = linalg.matmul(stack.reshape(cur * dn, dm), x_on_m, p).reshape(cur, dn, dm)
        af = linalg.matmul(x_on_n, stack.transpose(1, 0, 2).reshape(dn, cur * dm), p)
        resid = (fa - af.reshape(dn, cur, dm).transpose(1, 0, 2)) % p
        coeffs = linalg.nullspace(resid.reshape(cur, k).T, p)
        v = linalg.matmul(v, coeffs, p)
    return v.T.reshape(v.shape[1], dn, dm)


def reference_is_fg_projective(m):
    """Split witness of M as a summand of A^dim(M), or None: the cover by
    all basis vectors of M, a section searched for inside
    Hom_A(M, A)^dim(M) by one solve of pi sigma = id on every basis vector,
    as the reference the spun-generator cover of ``is_fg_projective`` must
    agree with."""
    alg = m.algebra
    p = m.p
    d = m.dim
    if d == 0:
        return SplitWitness(m, np.zeros((0, 0, alg.dim), dtype=np.int64), np.zeros((0, alg.dim, 0), dtype=np.int64))
    h = hom_space(m, regular_left(alg))
    if h.k == 0:
        return None
    pi_blocks = m.action.transpose(2, 1, 0).copy()  # [b][:, a] = a . m_b
    # column (b, t) is pi_b f_t, flattened
    cmat = linalg.matmul_pairs(pi_blocks, h.basis, p).reshape(d * h.k, d * d).T
    sol = linalg.solve_right(cmat, linalg.vec(linalg.identity(d)), p)
    if sol is None:
        return None
    sigma_blocks = linalg.matmul(sol.reshape(d, h.k), h.basis.reshape(h.k, -1), p).reshape(d, alg.dim, d)
    return SplitWitness(m, pi_blocks, sigma_blocks)


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


def moved_dual_bimodule(c, dual):
    """A dual ring of a coring as a bimodule over itself and the base,
    from its basis maps moved by the base action on C: *C over (A, *C)
    with (a.f)(x) = f(x a), right regular; C* over (C*, A) left regular,
    with (f.a)(x) = f(a x).  The reference the unit bimodules of the dual
    ring's extension must match."""
    p, h = c.p, dual.maps
    if dual.side == "left":
        moved = linalg.matmul_pairs(h.basis, c.carrier.right_acts, p).transpose(1, 0, 2, 3)
        return Bimodule(c.base, dual.target, h.action(moved), dual.target.right_mult)
    moved = linalg.matmul_pairs(h.basis, c.carrier.left_acts, p).transpose(1, 0, 2, 3)
    return Bimodule(dual.target, c.base, dual.target.left_mult, h.action(moved))


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


def _rebind(monkeypatch, func, wrapper):
    """Put ``wrapper`` wherever a loaded qfcert module or the test oracles
    bind ``func``."""
    for name, mod in list(sys.modules.items()):
        if name in ("qfcert", "oracles") or name.startswith("qfcert."):
            for attr, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, attr, wrapper)


def count_calls(monkeypatch, func):
    """Wrap ``func`` with a call counter wherever ``_rebind`` finds it.

    Returns a one-element list holding the number of calls made so far.
    """
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return func(*args, **kwargs)

    _rebind(monkeypatch, func, counted)
    return calls


def record_calls(monkeypatch, func):
    """Wrap ``func`` wherever ``_rebind`` finds it; returns the list of the
    positional arguments of every call made so far."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    _rebind(monkeypatch, func, recorded)
    return calls


def forbid_calls(monkeypatch, func, owner=None):
    """Fail the test on any call of ``func``, wherever ``_rebind`` finds it,
    or as the attribute of the class ``owner``."""

    def forbidden(*args, **kwargs):
        pytest.fail(f"{func.__qualname__} was called")

    if owner is None:
        _rebind(monkeypatch, func, forbidden)
    else:
        monkeypatch.setattr(owner, func.__name__, forbidden)


def report_verifies(out, command="check") -> bool:
    """Whether the canonical report of ``out``, read back from its JSON,
    passes ``verify_report``."""
    rep = report.build_report(out, 0, "0" * 64, command)
    return verify.verify_report(json.loads(report.canonical_json(rep)))[0]


def outcome_rows(out):
    """The verdict, notes and per-check (name, condition, verdict, reason,
    certificate kind) of an Outcome, for pinning a decision exactly."""
    rows = [
        (c.name, c.condition, c.verdict, c.reason, None if c.certificate is None else c.certificate["kind"])
        for c in out.checks
    ]
    return out.verdict, list(out.notes), rows


def _blockwise(ring, dims):
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    return offsets, np.zeros((ring.dim, offsets[-1], offsets[-1]), dtype=np.int64)


def reference_induce(ring, n):
    """Ind(N) assembled component by component, as ``(dims, action)``: one
    balanced tensor product R_y (x)_{R_e} N per component, and the block of
    a in R_x from R_y to R_{xy} transported through both quotients.  The
    reference the one tensor product of ``oracles.induce`` must match."""
    p, dn = ring.p, n.dim
    k = field_algebra(p)
    n_bim = Bimodule(ring.r_e, k, n.action, linalg.identity(dn).reshape(1, dn, dn), _validate=False)
    tensors = []
    for y in range(ring.order):
        dy = ring.dims[y]
        # right multiplication of R_e on R_y
        ra = ring.products[y][ring.e].transpose(1, 2, 0) % p
        y_bim = Bimodule(k, ring.r_e, linalg.identity(dy).reshape(1, dy, dy), ra, _validate=False)
        tensors.append(tensor_over(ring.r_e, y_bim, n_bim))
    dims = [t.dim for t in tensors]
    offsets, act = _blockwise(ring, dims)
    for x in range(ring.order):
        rb = ring.block(x)
        for y in range(ring.order):
            z = int(ring.table[x, y])
            dx = ring.dims[x]
            # left mult by each a in R_x, R_y -> R_{xy}, stacked by rows: the
            # block of a is tensors[z].proj kron(lmap_a, I) tensors[y].sect
            lmaps = ring.products[x][y].transpose(0, 2, 1).reshape(dx * ring.dims[z], ring.dims[y])
            raw = linalg.kron_apply(p, lmaps, tensors[y].sect, dn, False)
            blk = linalg.kron_apply(p, tensors[z].proj, raw, dx, True)
            act[rb, offsets[z] : offsets[z + 1], offsets[y] : offsets[y + 1]] = blk.reshape(dx, dims[z], dims[y])
    return dims, act


def reference_coinduce(ring, n):
    """Coind(N) assembled component by component, as ``(dims, action,
    homs)``: one hom space Hom_{R_e}(R_{y^-1}, N) per degree y, and the
    block of a in R_x from degree y to xy from right multiplication by a.
    The reference the one hom space of ``oracles.coinduce`` must match."""
    p = ring.p
    homs = [hom_space(ring.component_module(ring.inv[y]), n) for y in range(ring.order)]
    dims = [h.k for h in homs]
    offsets, act = _blockwise(ring, dims)
    for x in range(ring.order):
        rb = ring.block(x)
        for y in range(ring.order):
            if dims[y] == 0:
                continue
            z = int(ring.table[x, y])
            # right mult by each a in R_x: R_{(xy)^-1} -> R_{y^-1}, then apply f
            rmats = ring.products[ring.inv[z]][x].transpose(1, 2, 0)
            moved = linalg.matmul_pairs(homs[y].basis, rmats, p).transpose(1, 0, 2, 3)
            act[rb, offsets[z] : offsets[z + 1], offsets[y] : offsets[y + 1]] = homs[z].action(moved)
    return dims, act, homs


def reference_coinduced_bimodule(ring):
    """Coind(R_e) = Hom_{R_e}(R, R_e) as an (R, R_e)-bimodule on the
    component-ordered basis of ``reference_coinduce``, with the right
    action (f . a)(r) = f(r) a written block by block."""
    p = ring.p
    dims, act, homs = reference_coinduce(ring, LeftModule(ring.r_e, ring.r_e.left_mult))
    offsets, _ = _blockwise(ring, dims)
    ra = np.zeros((ring.dims[ring.e], offsets[-1], offsets[-1]), dtype=np.int64)
    for y, h in enumerate(homs):
        if h.k:
            blk = slice(offsets[y], offsets[y + 1])
            ra[:, blk, blk] = h.action(linalg.matmul_pairs(ring.r_e.right_mult, h.basis, p))
    return Bimodule(ring.total, ring.r_e, act, ra)


def equal_modules(m: LeftModule, n: LeftModule) -> bool:
    return equal_algebras(m.algebra, n.algebra) and np.array_equal(m.action, n.action)


def direct_sum(*modules: LeftModule):
    """Direct sum plus the block injection/projection matrices."""
    if not modules:
        raise UsageError("direct_sum needs at least one summand")
    alg = modules[0].algebra
    p = alg.p
    for m in modules[1:]:
        if not equal_algebras(m.algebra, alg):
            raise UsageError("direct_sum over mixed algebras")
    total = sum(m.dim for m in modules)
    action = linalg.zeros(alg.dim * total * total, 1).reshape(alg.dim, total, total)
    offs = []
    o = 0
    for m in modules:
        action[:, o : o + m.dim, o : o + m.dim] = m.action
        offs.append(o)
        o += m.dim
    out = LeftModule(alg, action, _validate=False)
    injs, projs = [], []
    for m, o in zip(modules, offs):
        inj = linalg.zeros(total, m.dim)
        inj[o : o + m.dim] = linalg.identity(m.dim)
        injs.append(inj)
        projs.append(inj.T.copy())
    return out, injs, projs


def power_bimodule(m: Bimodule, k: int) -> Bimodule:
    """Direct sum of k copies of m."""
    d = m.dim * k
    la = linalg.zeros(m.left_alg.dim * d * d, 1).reshape(m.left_alg.dim, d, d)
    ra = linalg.zeros(m.right_alg.dim * d * d, 1).reshape(m.right_alg.dim, d, d)
    for c in range(k):
        sl = slice(c * m.dim, (c + 1) * m.dim)
        la[:, sl, sl] = m.left_acts
        ra[:, sl, sl] = m.right_acts
    return Bimodule(m.left_alg, m.right_alg, la, ra, _validate=False)


def identity_hom(alg):
    """The identity of ``alg`` as a validated unital ring map."""
    return AlgebraHom(alg, alg, linalg.identity(alg.dim))
