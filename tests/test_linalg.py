"""Kernel tests.  Expected values here are frozen from brute-force oracles
(exhaustive enumeration over small F_5 spaces), not from the implementation.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfcert import linalg
from qfcert.errors import InvalidPrime, UsageError


def brute_rank(a, p):
    """Rank by enumerating all row combinations (tiny matrices only)."""
    rows = [tuple(r) for r in np.asarray(a) % p]
    span = {tuple([0] * len(rows[0]))}
    for _ in range(len(rows)):
        for r in rows:
            for s in list(span):
                for c in range(p):
                    t = tuple((c * x + y) % p for x, y in zip(r, s))
                    span.add(t)
    size = len(span)
    rank = 0
    while p**rank < size:
        rank += 1
    assert p**rank == size
    return rank


def brute_nullspace(a, p):
    a = np.asarray(a) % p
    m, n = a.shape
    sols = []
    for v in itertools.product(range(p), repeat=n):
        if not (a @ np.array(v) % p).any():
            sols.append(v)
    return sols


def loop_free_basis(a, p):
    """Reference free-column nullspace basis, one entry at a time."""
    red, pivots, _ = linalg.rref(a, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for row, pc in enumerate(pivots):
            basis[pc, k] = (-int(red[row, fc])) % p
    return basis, free


def test_prime_field_rejects_bad_p():
    for bad in (0, 1, 2, 4, 9, -5, 15):
        with pytest.raises(InvalidPrime):
            linalg.PrimeField(bad)
    assert linalg.PrimeField(3).p == 3
    assert linalg.PrimeField(11).p == 11


def test_rref_worked_example():
    a = [[2, 4], [1, 2]]
    red, pivots, rank = linalg.rref(a, 5)
    assert red.tolist() == [[1, 2], [0, 0]]
    assert pivots == [0]
    assert rank == 1
    assert rank == brute_rank(a, 5)


def test_rref_deterministic_pivots():
    a = [[0, 0, 3], [0, 2, 1], [0, 4, 2]]
    red, pivots, rank = linalg.rref(a, 5)
    assert pivots == [1, 2]
    assert rank == 2 == brute_rank(a, 5)
    # pivot columns of the reduced matrix are unit vectors
    for i, c in enumerate(pivots):
        col = red[:, c]
        assert col[i] == 1 and np.count_nonzero(col) == 1


def test_nullspace_worked_example():
    ns = linalg.nullspace([[1, 2]], 5)
    assert ns.shape == (2, 1)
    # oracle: enumerate the 25 candidate vectors
    sols = brute_nullspace([[1, 2]], 5)
    assert len(sols) == 5  # a line
    assert tuple(ns[:, 0]) in sols
    assert ns[:, 0].tolist() == [3, 1]


def test_invert_worked_example():
    inv = linalg.invert([[2, 0], [0, 3]], 5)
    assert inv.tolist() == [[3, 0], [0, 2]]
    assert linalg.invert([[2, 4], [1, 2]], 5) is None
    with pytest.raises(UsageError):
        linalg.invert([[1, 2, 3], [4, 5, 6]], 5)


def test_solve_right_free_vars_zero():
    x = linalg.solve_right([[1, 1], [0, 0]], [3, 0], 5)
    assert x.tolist() == [3, 0]
    assert linalg.solve_right([[1, 1], [0, 0]], [3, 1], 5) is None


def test_matmul_matches_python_ints():
    rng = np.random.RandomState(0)
    for p in (3, 5, 11):
        a = rng.randint(0, p, size=(7, 4)).astype(np.int64)
        b = rng.randint(0, p, size=(4, 9)).astype(np.int64)
        expect = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % p for j in range(9)] for i in range(7)]
        assert linalg.matmul(a, b, p).tolist() == expect


def test_row_space_quotient_contract():
    p = 5
    rels = [[1, 2, 0, 0], [0, 0, 1, 4]]
    proj, sect = linalg.row_space_quotient(rels, 4, p)
    assert proj.shape == (2, 4) and sect.shape == (4, 2)
    assert linalg.matmul(proj, sect, p).tolist() == linalg.identity(2).tolist()
    for r in rels:
        assert not (linalg.matmul(proj, np.array(r).reshape(-1, 1), p)).any()


small = st.integers(min_value=0, max_value=10)


@st.composite
def matrices(draw, p, max_dim=5):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    data = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=m, max_size=m))
    return np.array(data, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(matrices(5))
def test_rref_idempotent_and_rank(a):
    red, pivots, rank = linalg.rref(a, 5)
    red2, pivots2, rank2 = linalg.rref(red, 5)
    assert np.array_equal(red, red2) and pivots == pivots2 and rank == rank2
    assert rank <= min(a.shape)


@settings(max_examples=60, deadline=None)
@given(matrices(7))
def test_nullspace_membership_and_count(a):
    p = 7
    ns = linalg.nullspace(a, p)
    _, _, r = linalg.rref(a, p)
    assert ns.shape == (a.shape[1], a.shape[1] - r)
    ref, free = loop_free_basis(a, p)
    assert np.array_equal(ns, ref)
    # the quotient by the row space projects along the same basis
    proj, sect = linalg.row_space_quotient(a, a.shape[1], p)
    assert np.array_equal(proj, ref.T)
    assert np.array_equal(sect, np.eye(a.shape[1], dtype=np.int64)[:, free])
    if ns.shape[1]:
        prod = linalg.matmul(a, ns, p)
        assert not prod.any()
        # basis columns are independent
        assert linalg.rank(ns, p) == ns.shape[1]


@settings(max_examples=60, deadline=None)
@given(matrices(5), st.integers(0, 4))
def test_solve_right_substitutes(a, seed):
    p = 5
    rng = np.random.RandomState(seed)
    x0 = rng.randint(0, p, size=(a.shape[1],)).astype(np.int64)
    b = linalg.matmul(a, x0.reshape(-1, 1), p).reshape(-1)
    x = linalg.solve_right(a, b, p)
    assert x is not None
    assert np.array_equal(linalg.matmul(a, x.reshape(-1, 1), p).reshape(-1), b)


@settings(max_examples=40, deadline=None)
@given(matrices(11, max_dim=4))
def test_invert_two_sided(a):
    p = 11
    if a.shape[0] != a.shape[1]:
        a = a[: min(a.shape), : min(a.shape)]
    inv = linalg.invert(a, p)
    if inv is None:
        assert linalg.rank(a, p) < a.shape[0]
    else:
        n = a.shape[0]
        assert linalg.matmul(a, inv, p).tolist() == linalg.identity(n).tolist()
        assert linalg.matmul(inv, a, p).tolist() == linalg.identity(n).tolist()
