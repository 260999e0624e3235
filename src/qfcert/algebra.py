"""Finite-dimensional associative unital F_p-algebras by structure constants.

An algebra of dimension n is stored as a tensor ``mul`` of shape (n, n, n)
with ``e_i * e_j = sum_k mul[i, j, k] e_k``, plus the coordinate vector of
the unit.  ``make_algebra`` checks associativity exhaustively (all basis
triples, via the regular representation) and both unit laws.
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
        p = self.field.p
        n = self.dim
        if n == 0:
            raise UsageError("algebras must have positive dimension")
        L = self.left_mult
        eye = linalg.identity(n)
        # unit laws: 1 * e_i = e_i = e_i * 1, each one exact 2-D product.
        for side in (L, self.right_mult):
            got = linalg.matmul(self.unit.reshape(1, n), side.reshape(n, n * n), p).reshape(n, n)
            if not np.array_equal(got, eye):
                raise UnitViolation(int(np.nonzero((got - eye) % p)[1][0]))
        # associativity: L_{e_i e_j} == L_i L_j for all pairs, which pins
        # (e_i e_j) e_l = e_i (e_j e_l) for every l.  Rows (i, a) of L
        # against columns (j, c) give every L_i L_j in one product.
        prod = linalg.matmul(L.reshape(n * n, n), L.transpose(1, 0, 2).reshape(n, n * n), p)
        prod = prod.reshape(n, n, n, n).transpose(0, 2, 1, 3)
        expect = linalg.matmul(self.mul.reshape(n * n, n), L.reshape(n, n * n), p).reshape(n, n, n, n)
        if not np.array_equal(prod, expect):
            diff = np.nonzero((prod - expect) % p)
            i, j, l = int(diff[0][0]), int(diff[1][0]), int(diff[3][0])
            raise AssociativityViolation(i, j, l)

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
    # identity element
    e = None
    for i in range(n):
        if all(t[i, x] == x and t[x, i] == x for x in range(n)):
            e = i
            break
    if e is None:
        raise NotAGroup("no identity element")
    # associativity
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[t[i, j], k] != t[i, t[j, k]]:
                    raise NotAGroup("associativity fails", (i, j, k))
    # inverses
    inv = [-1] * n
    for i in range(n):
        for j in range(n):
            if t[i, j] == e and t[j, i] == e:
                inv[i] = j
                break
        if inv[i] < 0:
            raise NotAGroup("no inverse", i)
    return t, e, inv


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
    of the i-th source basis vector.
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
        self._validate()

    def _validate(self):
        p = self.source.p
        m = self.matrix
        img_unit = linalg.matmul(m, self.source.unit.reshape(-1, 1), p).reshape(-1)
        if not np.array_equal(img_unit, self.target.unit):
            raise NotUnital("map does not send unit to unit")
        # phi(e_i e_j) == phi(e_i) phi(e_j) for every (i, j); the first
        # mismatch in C order is the reported (i, j)
        ns, nt = self.source.dim, self.target.dim
        lhs = linalg.matmul(self.source.mul.reshape(ns * ns, ns), m.T, p).reshape(ns, ns, nt)
        # left[i] has row b the product phi(e_i) e_b
        left = linalg.combine(m, self.target.mul, p)
        rhs = linalg.matmul(m.T, left.transpose(1, 0, 2).reshape(nt, ns * nt), p).reshape(ns, ns, nt)
        rhs = rhs.transpose(1, 0, 2)
        if not np.array_equal(lhs, rhs):
            i, j = np.argwhere(lhs != rhs)[0][:2]
            raise NotMultiplicative(int(i), int(j))

    def __repr__(self):
        return f"AlgebraHom({self.source!r} -> {self.target!r})"


def field_algebra(p: int) -> Algebra:
    """F_p as a 1-dimensional algebra (the trivial side of one-sided data)."""
    return make_algebra(p, [[[1]]], [1])
