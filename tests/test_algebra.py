"""Algebra-layer tests with independently constructed oracles."""

import itertools

import numpy as np
import pytest

from qfcert import linalg
from qfcert.algebra import (
    Algebra,
    AlgebraHom,
    enveloping,
    equal_algebras,
    field_algebra,
    group_algebra,
    make_algebra,
    opposite,
    tensor_algebra,
)
from qfcert.errors import (
    AssociativityViolation,
    NotAGroup,
    NotMultiplicative,
    NotUnital,
    UnitViolation,
)

from helpers import LARGEST_PRIME, dense_basis_change, group_alg, rebased, upper_triangular2


def mat_units_algebra(p, n):
    """M_n(F_p) built directly from matrix-unit products (the oracle)."""
    dim = n * n

    def idx(a, b):
        return a * n + b

    mul = np.zeros((dim, dim, dim), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    # E_ab E_cd = delta_bc E_ad
                    if b == c:
                        mul[idx(a, b), idx(c, d), idx(a, d)] = 1
    unit = np.zeros(dim, dtype=np.int64)
    for a in range(n):
        unit[idx(a, a)] = 1
    return make_algebra(p, mul, unit)


def dual_numbers(p):
    # basis 1, x with x^2 = 0
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    return make_algebra(p, mul, [1, 0])


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_table():
    perms = list(itertools.permutations(range(3)))

    def compose(q, r):  # apply r then q
        return tuple(q[r[i]] for i in range(3))

    return [[perms.index(compose(q, r)) for r in perms] for q in perms]


def test_make_algebra_rejects_broken_associativity():
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    mul[1, 1, 0] = 1  # x^2 = 1 is fine ...
    make_algebra(5, mul, [1, 0])
    mul2 = mul.copy()
    mul2[1, 1, 1] = 3  # ... x^2 = 1 + 3x breaks associativity? no - still comm 2-dim, always assoc
    make_algebra(5, mul2, [1, 0])
    # genuinely non-associative: tweak a 3-dim example
    mul3 = np.zeros((3, 3, 3), dtype=np.int64)
    mul3[0, :, :] = np.eye(3)
    mul3[:, 0, :] = np.eye(3)
    mul3[1, 1, 2] = 1
    mul3[1, 2, 1] = 1  # x*y = y ... then (xx)y = y*y = 0 but x(xy) = x*y = y
    with pytest.raises(AssociativityViolation):
        make_algebra(5, mul3, [1, 0, 0])


def test_make_algebra_rejects_bad_unit():
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    with pytest.raises(UnitViolation):
        make_algebra(5, mul, [1, 0])


def test_matrix_algebra_against_matrix_mult_oracle():
    p = 5
    a = mat_units_algebra(p, 2)
    rng = np.random.RandomState(3)
    for _ in range(20):
        x = rng.randint(0, p, size=4)
        y = rng.randint(0, p, size=4)
        prod = a.multiply(x, y)
        xm, ym = x.reshape(2, 2), y.reshape(2, 2)
        assert np.array_equal(prod.reshape(2, 2), (xm @ ym) % p)
    # stacks multiply and power row by row
    xs, ys = rng.randint(0, p, size=(7, 4)), rng.randint(0, p, size=(7, 4))
    assert np.array_equal(a.multiply(xs, ys).reshape(7, 2, 2), np.matmul(xs.reshape(7, 2, 2), ys.reshape(7, 2, 2)) % p)
    cubes = [np.linalg.matrix_power(x.reshape(2, 2), 3).reshape(-1) % p for x in xs]
    assert np.array_equal(a.power(xs, 3), np.stack(cubes))


def test_opposite_of_matrix_algebra_is_transpose_iso():
    p = 5
    a = mat_units_algebra(p, 2)
    aop = opposite(a)
    # transpose permutation on the E_ab basis: (a,b) -> (b,a)
    t = np.zeros((4, 4), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            t[j * 2 + i, i * 2 + j] = 1
    AlgebraHom(a, aop, t)  # validates multiplicativity+unit
    assert equal_algebras(opposite(aop), a)


def test_group_algebra_tables():
    g2 = group_algebra(5, cyclic_table(2))
    assert g2.dim == 2
    x = np.array([0, 1])
    assert np.array_equal(g2.multiply(x, x), np.array([1, 0]))
    g6 = group_algebra(5, s3_table())
    assert g6.dim == 6
    with pytest.raises(NotAGroup):
        group_algebra(5, [[0, 0], [0, 0]])
    with pytest.raises(NotAGroup):
        group_algebra(5, [[0, 1], [1, 1]])


def test_tensor_algebra_dims_and_products():
    p = 5
    a = group_algebra(p, cyclic_table(2))
    b = dual_numbers(p)
    t = tensor_algebra(a, b)
    assert t.dim == 4
    # (g (x) x) * (g (x) 1) = 1 (x) x  with lex index i*2+j
    gx = np.array([0, 0, 0, 1])  # g (x) x
    g1 = np.array([0, 0, 1, 0])
    out = t.multiply(gx, g1)
    assert out.tolist() == [0, 1, 0, 0]


def test_enveloping_dim_and_embeddings():
    p = 5
    r = mat_units_algebra(p, 2)
    s = dual_numbers(p)
    e = enveloping(r, s)
    assert e.dim == 8
    # embeddings are unital and multiplicative (left straight, right reversed)
    u = linalg.matmul(e.left_embed, r.unit.reshape(-1, 1), p).reshape(-1)
    v = linalg.matmul(e.right_embed, s.unit.reshape(-1, 1), p).reshape(-1)
    assert np.array_equal(u, e.unit) and np.array_equal(v, e.unit)
    rng = np.random.RandomState(0)
    for _ in range(10):
        x, y = rng.randint(0, p, size=4), rng.randint(0, p, size=4)
        lhs = e.multiply(e.left_embed @ x % p, e.left_embed @ y % p)
        rhs = e.left_embed @ r.multiply(x, y) % p
        assert np.array_equal(lhs, rhs)
        s1, s2 = rng.randint(0, p, size=2), rng.randint(0, p, size=2)
        lhs = e.multiply(e.right_embed @ s1 % p, e.right_embed @ s2 % p)
        rhs = e.right_embed @ s.multiply(s2, s1) % p  # reversed
        assert np.array_equal(lhs, rhs)
    # left and right images commute in the enveloping algebra
    for i in range(4):
        for j in range(2):
            a1 = e.left_embed[:, i]
            b1 = e.right_embed[:, j]
            assert np.array_equal(e.multiply(a1, b1), e.multiply(b1, a1))


def test_algebra_hom_validation():
    p = 5
    s = dual_numbers(p)
    k = field_algebra(p)
    # quotient by x: fine
    AlgebraHom(s, k, [[1, 0]])
    # "send x to 1": not multiplicative
    with pytest.raises(NotMultiplicative):
        AlgebraHom(s, k, [[1, 1]])
    # zero map: not unital
    with pytest.raises(NotUnital):
        AlgebraHom(s, k, [[0, 0]])
    # unit embedding k -> s
    AlgebraHom(k, s, [[1], [0]])


def dense_basis_algebras():
    """M2, C3 and T2 at the largest accepted prime, each in a random dense
    basis: (p-1)^2 times the dimension passes 2^63, so validation and the
    generating closure must multiply exactly."""
    p = LARGEST_PRIME
    out = []
    for seed, plain in enumerate((mat_units_algebra(p, 2), group_alg(p, 3), upper_triangular2(p))):
        t, t_inv = dense_basis_change(plain.dim, p, np.random.RandomState(seed))
        out.append(rebased(plain, t, t_inv))
    return out


def test_generating_indices_generate():
    p = 5
    dense = [make_algebra(LARGEST_PRIME, mul, unit) for mul, unit in dense_basis_algebras()]
    for alg in [mat_units_algebra(p, 2), group_algebra(p, s3_table()), dual_numbers(p)] + dense:
        gens = alg.generating_indices()
        # closure of gens + unit spans everything
        span = alg.unit.reshape(-1, 1)
        for i in gens:
            e = np.zeros((alg.dim, 1), dtype=np.int64)
            e[i, 0] = 1
            span = np.concatenate([span, e], axis=1)
        for _ in range(alg.dim):
            cols = [span[:, a] for a in range(span.shape[1])]
            prods = [alg.multiply(x, y).reshape(-1, 1) for x in cols for y in cols]
            span = linalg.column_space_basis(np.concatenate([span] + prods, axis=1), alg.p)
        assert span.shape[1] == alg.dim
        assert len(gens) <= alg.dim


def test_dense_basis_algebras_validate_at_the_largest_prime():
    for mul, unit in dense_basis_algebras():
        make_algebra(LARGEST_PRIME, mul, unit)
        with pytest.raises(UnitViolation):
            make_algebra(LARGEST_PRIME, mul, (unit + 1) % LARGEST_PRIME)


def test_non_associative_dense_algebra_rejected_at_the_largest_prime():
    # F_p[C_3] with g1 g1 = g2 + g1: the unit g0 still acts as one, but
    # (g1 g1) g2 = g1 + g0 while g1 (g1 g2) = g1
    p = LARGEST_PRIME
    plain = group_alg(p, 3)
    mul = plain.mul.copy()
    mul[1, 1, 1] = 1
    broken = Algebra(plain.field, mul, plain.unit, _validate=False)
    t, t_inv = dense_basis_change(3, p, np.random.RandomState(9))
    with pytest.raises(AssociativityViolation):
        make_algebra(p, *rebased(broken, t, t_inv))


def test_identity_and_compose():
    # the identity and the square of x -> 2x on the dual numbers, as
    # validated unital ring maps
    p = 7
    s = dual_numbers(p)
    assert np.array_equal(AlgebraHom(s, s, linalg.identity(2)).matrix, linalg.identity(2))
    double = AlgebraHom(s, s, [[1, 0], [0, 2]])
    square = AlgebraHom(s, s, linalg.matmul(double.matrix, double.matrix, p))
    assert square.matrix.tolist() == [[1, 0], [0, 4]]
