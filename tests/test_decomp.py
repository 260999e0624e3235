"""Decomposition machinery against hand-derived and enumerated oracles."""

import numpy as np
import pytest

from helpers import (
    LARGEST_PRIME,
    column_module,
    conjugated,
    dense_basis_change,
    dual_numbers,
    group_alg,
    mat_units_algebra,
    prod_fields,
    simple_modules_prod,
    trivial_module_dualnum,
    upper_triangular2,
)
from qfcert import linalg, verify
from qfcert.algebra import make_algebra
from qfcert.decomp import (
    Decomposition,
    Summand,
    _factor_poly,
    _idem_from_element,
    _minpoly,
    decompose,
    decomposition_payload,
    end_ring,
    find_idempotent,
    iso,
    radical,
)
from qfcert.errors import CharTooSmall, InternalCheckError
from qfcert.modrep import LeftModule, direct_sum, regular_left

import random


def f25(p=5):
    """F_25 = F_5[t]/(t^2 - 3), a field (3 is a non-square mod 5)."""
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    mul[1, 1, 0] = 3
    return make_algebra(p, mul, [1, 0])


def test_end_ring_dims():
    p = 5
    assert end_ring(column_module(p)).dim == 1
    a = group_alg(p, 2)
    e = end_ring(regular_left(a))
    assert e.dim == 2  # End(A_A regular) ~ A^op
    m2 = mat_units_algebra(p, 2)
    assert end_ring(regular_left(m2)).dim == 4


def test_radical_hand_oracle_dual_numbers():
    # trace form on F5[x]/(x^2) is [[2,0],[0,0]]: radical = span{x}
    p = 5
    a = dual_numbers(p)
    r = radical(a)
    assert r.shape == (2, 1)
    assert r[:, 0].tolist() == [0, 1]


def test_radical_semisimple_is_zero():
    p = 5
    for a in (mat_units_algebra(p, 2), prod_fields(p), group_alg(p, 2), f25()):
        assert radical(a).shape[1] == 0


def test_radical_char_guard():
    a = mat_units_algebra(3, 2)  # dim 4 >= p = 3
    with pytest.raises(CharTooSmall):
        radical(a)


def test_find_idempotent_field_certain_none():
    assert find_idempotent(f25()) is None
    # F_5 itself (via the 1-dim end ring of the column module)
    assert find_idempotent(end_ring(column_module(5))) is None


def test_find_idempotent_local_none():
    assert find_idempotent(dual_numbers(5)) is None


def test_find_idempotent_product_of_fields():
    p = 5
    a = prod_fields(p)
    e = find_idempotent(a)
    assert e is not None
    assert np.array_equal(a.multiply(e, e), e)
    assert e.any() and not np.array_equal(e, a.unit)
    # oracle: the nontrivial idempotents of F5 x F5 are exactly (1,0), (0,1)
    assert e.tolist() in ([1, 0], [0, 1])


def test_find_idempotent_matrix_algebra():
    p = 5
    a = mat_units_algebra(p, 2)
    e = find_idempotent(a, seed=7)
    assert e is not None
    assert np.array_equal(a.multiply(e, e), e)
    assert e.any() and not np.array_equal(e, a.unit)


def test_nilpotent_element_gives_the_right_identity_of_its_left_ideal():
    # E12 has minimal polynomial t^2, so z = E12 itself and A z = span(E12, E22)
    p = 5
    a = mat_units_algebra(p, 2)
    x = np.array([0, 1, 0, 0], dtype=np.int64)
    e = _idem_from_element(a, x, random.Random(0))
    assert e is not None
    assert np.array_equal(a.multiply(e, e), e)
    assert e.any() and not np.array_equal(e, a.unit)
    # a right identity of A z: e lies in A z (no E11 or E21 part) and z e = z
    assert e[0] == e[2] == 0
    assert np.array_equal(a.multiply(x, e), x)


def test_find_idempotent_group_algebra_c2():
    p = 5
    a = group_alg(p, 2)
    e = find_idempotent(a)
    assert e is not None
    assert np.array_equal(a.multiply(e, e), e)
    # oracle: (1 +- g)/2 are the only nontrivial idempotents
    inv2 = pow(2, p - 2, p)
    assert e.tolist() in ([inv2, inv2], [inv2, (p - 1) * inv2 % p])


def test_minpoly_and_factor():
    p = 5
    a = group_alg(p, 2)
    g = np.array([0, 1])
    m = _minpoly(a, g)
    assert m == [4, 0, 1]  # t^2 - 1
    rng = random.Random(0)
    f = _factor_poly(m, p, rng)
    assert sorted(fac for fac, mult in f) == [[1, 1], [4, 1]]  # (t+1)(t-1)
    assert all(mult == 1 for _, mult in f)
    # a squarefull case: t^2
    f2 = _factor_poly([0, 0, 1], p, rng)
    assert f2 == [([0, 1], 2)]


def test_decompose_regular_m2():
    p = 5
    a = mat_units_algebra(p, 2)
    d = decompose(regular_left(a))
    assert d.class_signature() == [(2, 2)]


def test_decompose_regular_group_algebras():
    p = 5
    d2 = decompose(regular_left(group_alg(p, 2)))
    assert d2.class_signature() == [(1, 1), (1, 1)]
    # x^2+x+1 is irreducible over F5, so F5[C3] ~ F5 x F25
    d3 = decompose(regular_left(group_alg(p, 3)))
    assert d3.class_signature() == [(1, 1), (2, 1)]


def test_decompose_group_algebra_at_a_large_prime():
    # p = 2^31 - 1 = 1 mod 3: F_p[C_3] is F_p^3, whose idempotents come from
    # the roots of a split minimal polynomial, found without scanning F_p
    p = 2**31 - 1
    d = decompose(regular_left(group_alg(p, 3)))
    assert d.class_signature() == [(1, 1)] * 3
    ok, reasons = verify.verify_payload(decomposition_payload(d))
    assert ok, reasons


@pytest.mark.parametrize("name", ["M2", "C3", "T2"])
def test_decompose_dense_conjugate_at_the_largest_prime(name):
    # End(M) of a dense conjugate has dense structure constants, whose
    # products pass 2^63 unless they are exact
    p = LARGEST_PRIME
    a = {"M2": lambda: mat_units_algebra(p, 2), "C3": lambda: group_alg(p, 3), "T2": lambda: upper_triangular2(p)}[name]()
    plain = decompose(regular_left(a)).class_signature()
    for seed in range(4):
        t, t_inv = dense_basis_change(a.dim, p, np.random.RandomState(seed))
        d = decompose(LeftModule(a, conjugated(a.left_mult, t, t_inv, p)))
        assert d.class_signature() == plain
        ok, reasons = verify.verify_payload(decomposition_payload(d))
        assert ok, reasons


SUM_ALGEBRAS = {
    "T2": upper_triangular2,
    "D": dual_numbers,
    "C3": lambda p: group_alg(p, 3),
    "M2": lambda p: mat_units_algebra(p, 2),
}


@pytest.mark.parametrize("name", list(SUM_ALGEBRAS))
def test_decompose_dense_conjugate_of_a_sum_at_the_largest_prime(name):
    # End(A + A) is 2x2 matrices over A: its trace form, radical quotient
    # and element matrices have dense structure constants in a dense basis
    p = LARGEST_PRIME
    a = SUM_ALGEBRAS[name](p)
    total, _, _ = direct_sum(regular_left(a), regular_left(a))
    plain = decompose(total).class_signature()
    for seed in range(4):
        t, t_inv = dense_basis_change(total.dim, p, np.random.RandomState(seed))
        d = decompose(LeftModule(a, conjugated(total.action, t, t_inv, p)))
        assert d.class_signature() == plain
        ok, reasons = verify.verify_payload(decomposition_payload(d))
        assert ok, reasons


def test_decomposition_rejects_copies_that_are_not_module_maps():
    # the dual numbers D split as a vector space into two copies of the
    # trivial module (x acts by 0): the copies are complementary, but x acts
    # on D by a nonzero nilpotent, so the first injection is no module map
    p = 5
    d = regular_left(dual_numbers(p))
    trivial = trivial_module_dualnum(p)
    eye = linalg.identity(2)
    summand = Summand(trivial, [eye[:, :1], eye[:, 1:]], [eye[:1], eye[1:]])
    with pytest.raises(InternalCheckError, match="injection is not a module map"):
        Decomposition(d, [summand])
    # the same copies of D itself pass
    Decomposition(d, [Summand(d, [eye], [eye])])


def test_decompose_regular_upper_triangular():
    p = 5
    d = decompose(regular_left(upper_triangular2(p)))
    # left regular T2 = simple column P(e11) of dim 1 + projective of dim 2
    assert d.class_signature() == [(1, 1), (2, 1)]


def test_decompose_indecomposable_nonsemisimple():
    p = 5
    d = decompose(regular_left(dual_numbers(p)))
    assert d.class_signature() == [(2, 1)]


def test_decompose_seed_independent_signatures():
    p = 5
    mods = [
        regular_left(mat_units_algebra(p, 2)),
        regular_left(group_alg(p, 2)),
        regular_left(upper_triangular2(p)),
    ]
    for m in mods:
        sigs = {tuple(decompose(m, seed=s).class_signature()) for s in range(10)}
        assert len(sigs) == 1


def test_iso_regular_vs_column_power():
    p = 5
    col = column_module(p)
    both, _, _ = direct_sum(col, col)
    f = iso(regular_left(col.algebra), both)
    assert f is not None
    assert linalg.invert(f, p) is not None
    # intertwines
    for i in range(col.algebra.dim):
        lhs = linalg.matmul(f, regular_left(col.algebra).action[i], p)
        rhs = linalg.matmul(both.action[i], f, p)
        assert np.array_equal(lhs, rhs)


def test_iso_rejects_non_isomorphic():
    p = 5
    s1, s2 = simple_modules_prod(p)
    assert iso(s1, s2) is None
    t1, _, _ = direct_sum(s1, s1)
    t2, _, _ = direct_sum(s1, s2)
    assert iso(t1, t2) is None
    assert iso(t2, t2) is not None


def test_iso_shuffled_sum():
    p = 5
    s1, s2 = simple_modules_prod(p)
    a, _, _ = direct_sum(s1, s2, s1)
    b, _, _ = direct_sum(s1, s1, s2)
    f = iso(a, b)
    assert f is not None and linalg.invert(f, p) is not None
