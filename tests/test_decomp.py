"""Decomposition machinery against hand-derived and enumerated oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    LARGEST_PRIME,
    column_module,
    commutator_ideal_is_nilpotent,
    conjugated,
    count_calls,
    dense_basis_change,
    direct_sum,
    dual_numbers,
    group_alg,
    mat_units_algebra,
    prod_fields,
    rebased,
    reference_trace_radical,
    simple_modules_prod,
    trivial_module_dualnum,
    upper_triangular2,
)
from qfcert import decomp, linalg, verify
from qfcert.algebra import field_algebra, make_algebra
from qfcert.decomp import (
    Decomposition,
    Summand,
    _generated_subalgebra,
    decompose,
    decomposition_payload,
    end_ring,
    find_idempotent,
    iso,
    radical,
)
from qfcert.errors import InternalCheckError
from qfcert.modrep import LeftModule, regular_left


def quadratic_field(p):
    """F_(p^2) = F_p[t]/(t^2 - c) for the least non-square c (F_25 uses 2)."""
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    mul[1, 1, 0] = c
    return make_algebra(p, mul, [1, 0])


def direct_product(*algs):
    """The product algebra, with the factors' bases side by side."""
    n = sum(a.dim for a in algs)
    mul = np.zeros((n, n, n), dtype=np.int64)
    unit = np.zeros(n, dtype=np.int64)
    o = 0
    for a in algs:
        block = slice(o, o + a.dim)
        mul[block, block, block] = a.mul
        unit[block] = a.unit
        o += a.dim
    return make_algebra(algs[0].p, mul, unit)


def assert_nontrivial_idempotent(a, e):
    assert e is not None
    assert np.array_equal(a.multiply(e, e), e)
    assert e.any() and not np.array_equal(e, a.unit)


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
    for a in (prod_fields(p), group_alg(p, 2), quadratic_field(5)):
        assert radical(a).shape[1] == 0
    # the commutators of M2 generate all of M2, which is not nilpotent
    assert radical(mat_units_algebra(p, 2)) is None


def truncated_polynomials(p, k):
    """F_p[x]/(x^k) in the basis 1, x, ..., x^(k-1)."""
    mul = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        mul[i, range(k - i), range(i, k)] = 1
    return make_algebra(p, mul, np.eye(k, dtype=np.int64)[0])


def test_radical_answers_at_primes_up_to_the_dimension():
    # F_3[C3] = F_3[x]/(x - 1)^3 has radical (g - 1, g^2 - 1); T2 has e12
    assert radical(group_alg(3, 3)).T.tolist() == [[2, 1, 0], [2, 0, 1]]
    assert radical(upper_triangular2(3)).T.tolist() == [[0, 0, 1]]
    assert radical(mat_units_algebra(3, 2)) is None
    # x^3 is not 0 in F_3[x]/(x^4), so J needs the kernel of y -> y^9, not of y -> y^3
    assert radical(truncated_polynomials(3, 4)).T.tolist() == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


RADICAL_BLOCKS = {  # name -> (constructor, radical dimension at p); M2 has none
    "F": (field_algebra, lambda p: 0),
    "F2": (quadratic_field, lambda p: 0),
    "D": (dual_numbers, lambda p: 1),
    "T2": (upper_triangular2, lambda p: 1),
    "C3": (lambda p: group_alg(p, 3), lambda p: 2 if p == 3 else 0),
    "X4": (lambda p: truncated_polynomials(p, 4), lambda p: 3),
    "M2": (lambda p: mat_units_algebra(p, 2), None),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.lists(st.sampled_from(sorted(RADICAL_BLOCKS)), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_radical_of_products_agrees_with_the_blocks_and_the_trace_form(p, names, seed):
    plain = direct_product(*(RADICAL_BLOCKS[name][0](p) for name in names))
    t, t_inv = dense_basis_change(plain.dim, p, np.random.RandomState(seed))
    a = make_algebra(p, *rebased(plain, t, t_inv))
    rad = radical(a)
    if "M2" in names:
        assert rad is None
        assert not commutator_ideal_is_nilpotent(a)
        return
    assert rad.shape[1] == sum(RADICAL_BLOCKS[name][1](p) for name in names)
    if p > a.dim:  # E/J is commutative here, so the trace form gives J
        assert linalg.rref(rad.T, p)[0].tolist() == linalg.rref(np.array(reference_trace_radical(a)).T, p)[0].tolist()


def test_find_idempotent_field_certain_none():
    assert find_idempotent(quadratic_field(5)) is None
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


def test_find_idempotent_three_field_factors():
    # F_5^3: the nontrivial idempotents are the 0/1 vectors other than 0, 1
    a = direct_product(*[field_algebra(5)] * 3)
    for seed in range(6):
        e = find_idempotent(a, seed=seed)
        assert_nontrivial_idempotent(a, e)
        assert set(e.tolist()) <= {0, 1}


def test_find_idempotent_fixed_space_smaller_than_the_algebra():
    # F_5 x F_25 has dimension 3 and a Frobenius fixed space F_5 x F_5:
    # its nontrivial idempotents are (1, 0) and (0, 1), here (1, 0, 0) and
    # (0, 1, 0)
    a = direct_product(field_algebra(5), quadratic_field(5))
    for seed in range(6):
        e = find_idempotent(a, seed=seed)
        assert_nontrivial_idempotent(a, e)
        assert e.tolist() in ([1, 0, 0], [0, 1, 0])


def test_generated_subalgebra_of_matrix_units():
    p = 5
    a = mat_units_algebra(p, 2)  # basis E11, E12, E21, E22
    # E12 squares to 0: F_5[E12] is the local F_5[t]/(t^2)
    sub, basis = _generated_subalgebra(a, np.array([0, 1, 0, 0]))
    assert np.array_equal(sub.mul, dual_numbers(p).mul)
    assert sub.unit.tolist() == [1, 0]
    assert basis.T.tolist() == [[1, 0, 0, 1], [0, 1, 0, 0]]
    assert find_idempotent(sub) is None
    # E11 is idempotent: F_5[E11] = F_5 x F_5 splits, into E11 or E22
    sub, basis = _generated_subalgebra(a, np.array([1, 0, 0, 0]))
    assert sub.dim == 2
    assert sub.multiply([0, 1], [0, 1]).tolist() == [0, 1]
    e = find_idempotent(sub)
    assert_nontrivial_idempotent(sub, e)
    assert linalg.matmul(basis, e.reshape(-1, 1), p).reshape(-1).tolist() in ([1, 0, 0, 0], [0, 0, 0, 1])


def test_split_gives_up_after_64_draws(monkeypatch):
    # a generator that only draws 0 gives a = 0, hence e = 0, every time
    calls = []

    class Zeros(random.Random):
        def randrange(self, *args):
            calls.append(args)
            return 0

    monkeypatch.setattr(decomp.random, "Random", Zeros)
    with pytest.raises(InternalCheckError, match="64 draws"):
        find_idempotent(prod_fields(5))
    assert len(calls) == 64 * 2  # two coordinates of the fixed space a draw


BLOCKS = {
    "F": (field_algebra, [(1, 1)]),
    "F2": (quadratic_field, [(2, 1)]),
    "M2": (lambda p: mat_units_algebra(p, 2), [(2, 2)]),
}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([5, 20011, LARGEST_PRIME]),
    st.lists(st.sampled_from(sorted(BLOCKS)), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_products_of_simple_algebras_split_by_their_blocks(p, names, seed):
    plain = direct_product(*(BLOCKS[name][0](p) for name in names))
    t, t_inv = dense_basis_change(plain.dim, p, np.random.RandomState(seed))
    a = make_algebra(p, *rebased(plain, t, t_inv))
    e = find_idempotent(a, seed=seed)
    if names in (["F"], ["F2"]):
        assert e is None
    else:
        assert_nontrivial_idempotent(a, e)
    expected = sorted(sig for name in names for sig in BLOCKS[name][1])
    assert decompose(regular_left(a), seed=seed).class_signature() == expected


def test_find_idempotent_group_algebra_c2():
    p = 5
    a = group_alg(p, 2)
    e = find_idempotent(a)
    assert e is not None
    assert np.array_equal(a.multiply(e, e), e)
    # oracle: (1 +- g)/2 are the only nontrivial idempotents
    inv2 = pow(2, p - 2, p)
    assert e.tolist() in ([inv2, inv2], [inv2, (p - 1) * inv2 % p])


@pytest.mark.parametrize(
    "make, signature",
    [
        (lambda: regular_left(group_alg(3, 3)), [(3, 1)]),
        (lambda: direct_sum(*[regular_left(mat_units_algebra(5, 2))] * 2)[0], [(2, 4)]),
        (lambda: direct_sum(*[regular_left(group_alg(5, 3))] * 2)[0], [(1, 2), (2, 2)]),
        (lambda: direct_sum(*[regular_left(group_alg(7, 3))] * 2)[0], [(1, 2), (1, 2), (1, 2)]),
    ],
    ids=["f3-c3", "f5-m2-squared", "f5-c3-squared", "f7-c3-squared"],
)
def test_decompose_at_a_prime_up_to_the_endomorphism_dimension(make, signature):
    # dim End is 3, 16, 12 and 12 against p = 3, 5, 5 and 7
    d = decompose(make())
    assert d.class_signature() == signature
    ok, reasons = verify.verify_payload(decomposition_payload(d))
    assert ok, reasons


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
    # powering in the Frobenius fixed space, with no scan of F_p
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
    with pytest.raises(InternalCheckError, match="injection block 0 is not A-equivariant"):
        Decomposition(d, [summand])
    # the same copies of D itself pass
    Decomposition(d, [Summand(d, [eye], [eye])])


def test_decompose_regular_upper_triangular():
    p = 5
    d = decompose(regular_left(upper_triangular2(p)))
    # left regular T2 = simple column P(e11) of dim 1 + projective of dim 2
    assert d.class_signature() == [(1, 1), (2, 1)]


def test_locality_reads_the_frobenius_matrix_of_the_commutative_quotient(monkeypatch):
    # End of the regular T2 is F_p x F_p: one quotient by the commutator
    # ideal and its Frobenius matrix decide locality, and F_p[x] of the
    # splitting candidate adds the second Frobenius matrix
    quotients = count_calls(monkeypatch, decomp._quotient_algebra)
    frobenius = count_calls(monkeypatch, decomp._frobenius)
    d = decompose(regular_left(upper_triangular2(20011)))
    assert d.class_signature() == [(1, 1), (2, 1)]
    assert (quotients, frobenius) == ([1], [2])


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
