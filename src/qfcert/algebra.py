"""Finite-dimensional associative unital F_p-algebras by structure constants.

An algebra of dimension n is stored as a tensor ``mul`` of shape (n, n, n)
with ``e_i * e_j = sum_k mul[i, j, k] e_k``, plus the coordinate vector of
the unit.

Every input goes through one unit law and one product law on a stack of
matrices X_i, one per basis element: ``unit_law`` (sum_i u_i X_i = I) and
``product_law`` (X_i X_j = sum_k mul_ijk X_k), each returning the first
failure in C order.  ``make_algebra`` applies them to the regular
representation: the unit law on the left and on the right
multiplications, then the product law on the left ones, which is
associativity.  A module applies them to its action tensor, and a ring
map to its target as a left module through the map (``AlgebraHom``).
``check_group_table`` checks a group table by array comparisons.
"""

from __future__ import annotations

import numpy as np

from . import linalg, memo
from .errors import (
    AssociativityViolation,
    NotAGroup,
    NotMultiplicative,
    NotUnital,
    UnitViolation,
    UsageError,
)
from .linalg import Mat, PrimeField


def unit_law(unit: Mat, acts: Mat, p: int):
    """The first column of sum_i unit[i] acts[i] that differs from the
    identity's, or None: the first basis vector the unit does not fix,
    for an (n, d, d) stack ``acts`` of the basis elements' actions."""
    n, d = acts.shape[0], acts.shape[1]
    got = linalg.matmul(unit.reshape(1, n), acts.reshape(n, d * d), p).reshape(d, d)
    bad = got != linalg.identity(d)
    return int(np.flatnonzero(bad.any(axis=0))[0]) if bad.any() else None


def product_law(mul: Mat, acts: Mat, p: int):
    """The first (i, j, column), in C order, where acts[i] @ acts[j] differs
    from sum_k mul[i, j, k] acts[k], or None: two exact products."""
    n, d = acts.shape[0], acts.shape[1]
    lhs = linalg.matmul_pairs(acts, acts, p)
    rhs = linalg.matmul(mul.reshape(n * n, n), acts.reshape(n, d * d), p).reshape(n, n, d, d)
    bad = lhs != rhs
    return tuple(int(x) for x in np.argwhere(bad.any(axis=2))[0]) if bad.any() else None


class Algebra:
    """Structure-constant algebra over F_p.  Construct via make_algebra."""

    def __init__(self, field: PrimeField, mul, unit, _validate=True):
        self.field = field
        p = field.p
        self.mul = linalg.asmat(mul, p)
        if self.mul.ndim != 3 or len(set(self.mul.shape)) != 1:
            raise UsageError(f"structure constants must be (n,n,n), got {self.mul.shape}")
        self.dim = self.mul.shape[0]
        self.unit = linalg.asmat(unit, p).reshape(-1)
        if self.unit.shape[0] != self.dim:
            raise UsageError("unit vector has wrong length")
        # left_mult[i] is the matrix of x -> e_i x; columns are coordinates.
        self.left_mult = np.ascontiguousarray(self.mul.transpose(0, 2, 1))
        # right_mult[j] : x -> x e_j
        self.right_mult = np.ascontiguousarray(self.mul.transpose(1, 2, 0))
        self._memo_key = None
        if _validate:
            self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self):
        if self.dim == 0:
            raise UsageError("algebras must have positive dimension")
        # 1 e_i = e_i = e_i 1, then L_{e_i e_j} = L_i L_j, whose column l
        # is (e_i e_j) e_l = e_i (e_j e_l)
        for side in (self.left_mult, self.right_mult):
            bad = unit_law(self.unit, side, self.p)
            if bad is not None:
                raise UnitViolation(bad)
        bad = product_law(self.mul, self.left_mult, self.p)
        if bad is not None:
            raise AssociativityViolation(*bad)

    def memo_key(self) -> tuple:
        """Exact memo key: p, ``mul`` and ``unit``; built once, on first use,
        when every array of the algebra becomes read-only."""
        if self._memo_key is None:
            memo.readonly(self.left_mult, self.right_mult)
            self._memo_key = (self.p,) + memo.array_key(self.mul, self.unit)
        return self._memo_key

    # -- arithmetic ------------------------------------------------------

    @property
    def p(self) -> int:
        return self.field.p

    def multiply(self, x, y) -> Mat:
        """x y, or the row-wise products of two (k, n) stacks."""
        # two exact products: sum_i x_i mul[i] for every row first, then
        # each row of y against its own matrix, as a block-diagonal factor
        n, p = self.dim, self.p
        x, y = linalg.asmat(x, p), linalg.asmat(y, p)
        k = x.size // n
        xm = linalg.matmul(x.reshape(k, n), self.mul.reshape(n, n * n), p)
        if k > 1:
            y = np.eye(k, dtype=np.int64)[:, :, None] * y.reshape(k, 1, n)
        return linalg.matmul(y.reshape(k, k * n), xm.reshape(k * n, n), p).reshape(x.shape)

    def power(self, x, k: int) -> Mat:
        """x^k, or the row-wise powers of a (r, n) stack."""
        base = linalg.asmat(x, self.p)
        out = np.broadcast_to(self.unit, base.shape).copy()
        while k:
            if k & 1:
                out = self.multiply(out, base)
            base = self.multiply(base, base)
            k >>= 1
        return out

    def generating_indices(self) -> tuple:
        """A (greedy, deterministic) generating subset of the basis.

        Returned as a tuple of basis indices whose generated unital
        subalgebra is everything.  ``generators`` uses it, for the
        module-map checks of a decomposition; an enveloping algebra's
        ``generators`` come from its factors' indices, so this closure
        never runs on an envelope.
        Validation never uses this shortcut.
        """
        return memo.cached("generating_indices", _generating_indices, self)

    def generators(self) -> Mat:
        """Coordinate rows of a set that generates the algebra as a unital
        algebra: the unit vectors at ``generating_indices``."""
        return linalg.identity(self.dim)[list(self.generating_indices())]

    def __repr__(self):
        return f"Algebra(dim={self.dim}, p={self.p})"


def _generating_indices(alg: Algebra) -> tuple:
    p, n = alg.p, alg.dim
    gens = []
    span = linalg.column_space_basis(alg.unit.reshape(-1, 1), p)
    flat = alg.mul.reshape(n, n * n)
    for i in range(n):
        e = linalg.zeros(n, 1)
        e[i, 0] = 1
        if linalg.in_span(span, e, p):
            continue
        gens.append(i)
        span = np.concatenate([span, e], axis=1)
        # close under multiplication: every product v_a v_b of span columns,
        # ordered by a then b, as two exact 2-D products
        while True:
            s = span.shape[1]
            # left[a] is the matrix of x -> v_a x (columns are coordinates)
            left = linalg.matmul(span.T, flat, p).reshape(s, n, n).transpose(0, 2, 1)
            prods = linalg.matmul(left.reshape(s * n, n), span, p)
            cand = np.concatenate([span, prods.reshape(s, n, s).transpose(1, 0, 2).reshape(n, s * s)], axis=1)
            newspan = linalg.column_space_basis(cand, p)
            if newspan.shape[1] == span.shape[1]:
                break
            span = newspan
        if span.shape[1] == n:
            break
    return tuple(gens)


def make_algebra(p: int, mul, unit) -> Algebra:
    """Validated algebra from structure constants; the only public entry."""
    return Algebra(PrimeField(p), mul, unit)


def equal_algebras(a: Algebra, b: Algebra) -> bool:
    return (
        a.field == b.field
        and a.dim == b.dim
        and np.array_equal(a.mul, b.mul)
        and np.array_equal(a.unit, b.unit)
    )


def opposite(a: Algebra) -> Algebra:
    """Same space, reversed multiplication.

    Laws are inherited from ``a``, so validation is skipped.
    """
    return Algebra(a.field, a.mul.transpose(1, 0, 2), a.unit, _validate=False)


def tensor_algebra(a: Algebra, b: Algebra) -> Algebra:
    """a (x) b with the lexicographic basis e_i (x) f_j -> index i*dim(b)+j.

    Associativity and the unit law hold factorwise, so validation is skipped
    (it would cost dim^5 work on the product).
    """
    if a.field != b.field:
        raise UsageError("tensor factors live over different fields")
    p = a.p
    na, nb = a.dim, b.dim
    mul = np.einsum("ikm,jln->ijklmn", a.mul, b.mul) % p
    # index order (i,j),(k,l),(m,n) -> reshape with left factor major
    mul = mul.transpose(0, 1, 2, 3, 4, 5).reshape(na * nb, na * nb, na * nb)
    unit = np.kron(a.unit, b.unit) % p
    return Algebra(a.field, mul, unit, _validate=False)


class EnvelopingAlgebra(Algebra):
    """R (x) S^op together with the two canonical embeddings.

    ``left_embed`` sends r to r (x) 1, ``right_embed`` sends s to 1 (x) s
    (the latter is an algebra map out of S^op, i.e. it reverses products
    of S).
    """

    def __init__(self, left: Algebra, right: Algebra):
        if left.field != right.field:
            raise UsageError("enveloping factors live over different fields")
        p = left.p
        nl, nr = left.dim, right.dim
        # (e_i (x) f_j)(e_k (x) f_l) = e_i e_k (x) f_l f_j: tensor_algebra
        # with opposite(right), without building either intermediate
        mul = np.einsum("ikm,ljn->ijklmn", left.mul, right.mul).reshape(nl * nr, nl * nr, nl * nr)
        super().__init__(left.field, mul, np.kron(left.unit, right.unit), _validate=False)
        self.left_factor = left
        self.right_factor = right
        le = np.kron(linalg.identity(nl), right.unit.reshape(-1, 1)) % p
        re = np.kron(left.unit.reshape(-1, 1), linalg.identity(nr)) % p
        self.left_embed = le
        self.right_embed = re
        memo.readonly(self.mul, self.unit, self.left_mult, self.right_mult, le, re)

    def generators(self) -> Mat:
        """r (x) 1 and 1 (x) s for generating indices r of R and s of S.

        R (x) 1 and 1 (x) S^op generate the envelope, so this needs only
        the factors' closures, never one on the envelope itself.
        """
        left = self.left_embed[:, list(self.left_factor.generating_indices())]
        right = self.right_embed[:, list(self.right_factor.generating_indices())]
        return np.concatenate([left, right], axis=1).T


def enveloping(left: Algebra, right: Algebra) -> EnvelopingAlgebra:
    """The enveloping algebra R (x) S^op; bimodules over equal pairs of
    algebras share one within a memo scope."""
    return memo.cached("enveloping", EnvelopingAlgebra, left, right)


def check_group_table(table):
    """Validate a multiplication table t[i][j] = index of g_i g_j.

    Returns (table, identity index, inverse list); raises NotAGroup.
    """
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise NotAGroup("table must be square")
    n = t.shape[0]
    if n == 0 or t.min() < 0 or t.max() >= n:
        raise NotAGroup("table entries out of range")
    ids = np.arange(n)
    found = np.flatnonzero((t == ids).all(axis=1) & (t == ids[:, None]).all(axis=0))
    if not found.size:
        raise NotAGroup("no identity element")
    e = int(found[0])
    # (g_i g_j) g_k against g_i (g_j g_k), one i at a time: t[t[i]] against t[i][t]
    for i in range(n):
        bad = t[t[i]] != t[i][t]
        if bad.any():
            j, k = np.argwhere(bad)[0]
            raise NotAGroup("associativity fails", (i, int(j), int(k)))
    both = (t == e) & (t.T == e)
    missing = np.flatnonzero(~both.any(axis=1))
    if missing.size:
        raise NotAGroup("no inverse", int(missing[0]))
    return t, e, both.argmax(axis=1).tolist()


def group_algebra(p: int, table) -> Algebra:
    """Group algebra F_p[G] from a multiplication table t[i][j] = index of g_i g_j."""
    t, e, _ = check_group_table(table)
    n = t.shape[0]
    mul = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            mul[i, j, t[i, j]] = 1
    unit = np.zeros(n, dtype=np.int64)
    unit[e] = 1
    return make_algebra(p, mul, unit)


def solve_unit(mul, p: int):
    """Two-sided identity of a multiplication tensor, or None."""
    mul = np.asarray(mul, dtype=np.int64) % p
    n = mul.shape[0]
    if n == 0:
        return None
    lhs = np.concatenate(
        [mul.transpose(1, 2, 0).reshape(n * n, n), mul.transpose(0, 2, 1).reshape(n * n, n)]
    )
    eye = linalg.vec(linalg.identity(n))
    rhs = np.concatenate([eye, eye])
    return linalg.solve_right(lhs, rhs, p)


class AlgebraHom:
    """Unital algebra map, stored as its matrix on coordinates.

    ``matrix`` has shape (dim target, dim source); column i is the image
    of the i-th source basis vector.  ``action`` is the target as a left
    module over the source through the map: ``action[i]`` is the matrix
    of x -> phi(e_i) x.  The map is validated by that module's laws.
    """

    def __init__(self, source: Algebra, target: Algebra, matrix):
        if source.field != target.field:
            raise UsageError("hom endpoints live over different fields")
        self.source = source
        self.target = target
        self.matrix = linalg.asmat(matrix, source.p)
        if self.matrix.shape != (target.dim, source.dim):
            raise UsageError(
                f"hom matrix must be {(target.dim, source.dim)}, got {self.matrix.shape}"
            )
        self.action = linalg.combine(self.matrix, target.left_mult, source.p)
        self._validate()

    def _validate(self):
        # phi is a unital ring map exactly when ``action`` obeys the module
        # laws: the target is unital, so x -> phi(e_i) x pins phi(e_i)
        p = self.source.p
        if unit_law(self.source.unit, self.action, p) is not None:
            raise NotUnital("map does not send unit to unit")
        bad = product_law(self.source.mul, self.action, p)
        if bad is not None:
            raise NotMultiplicative(*bad[:2])

    def __repr__(self):
        return f"AlgebraHom({self.source!r} -> {self.target!r})"


def field_algebra(p: int) -> Algebra:
    """F_p as a 1-dimensional algebra (the trivial side of one-sided data)."""
    return make_algebra(p, [[[1]]], [1])
