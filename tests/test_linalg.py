"""Kernel tests.  Expected values here are frozen from brute-force oracles
(exhaustive enumeration over small F_5 spaces), not from the implementation.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qfcert import linalg, schema
from qfcert.errors import InvalidPrime, SchemaError, UsageError

from helpers import LARGEST_PRIME as P_LARGEST, P_FLOAT_TOP, P_INT_LOW, python_nullspace, python_rref

# the first prime the schema rejects
P_FIRST_REJECTED = 3037000507
M31 = 2**31 - 1


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


# ---------------------------------------------------------------------------
# the delayed-reduction rref kernel


def _panel_matmul(a, b, p):
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if (p - 1) * (p - 1) * inner <= 2**53:
        c = a.astype(np.float64) @ b.astype(np.float64)
        return np.rint(c).astype(np.int64) % p
    if (p - 1) * (p - 1) * inner < 2**63:
        return (a @ b) % p
    return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)


def panel_rref(a, p):
    """The panel kernel rref replaced: every flush and every read reduces
    mod p through an exact product (on Python integers where int64 could
    overflow), so it is exact at every prime."""
    a = np.array(np.asarray(a, dtype=np.int64) % p, dtype=np.int64)
    m, n = a.shape
    pivots = []
    if m == 0 or n == 0:
        return a, pivots, 0
    w = 32
    fac = np.zeros((m, w), dtype=np.int64)
    rows = np.zeros((w, n), dtype=np.int64)
    j = 0

    def flush():
        nonlocal j
        if j:
            a[...] = (a - _panel_matmul(fac[:, :j], rows[:j], p)) % p
            j = 0

    r = 0
    for col in range(n):
        if r == m:
            break
        cur = a[:, col].copy()
        if j:
            cur = (cur - _panel_matmul(fac[:, :j], rows[:j, col : col + 1], p).ravel()) % p
        nz = np.flatnonzero(cur[r:])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            fac[[r, i]] = fac[[i, r]]
            cur[[r, i]] = cur[[i, r]]
        row = a[r].copy()
        if j:
            row = (row - _panel_matmul(fac[r : r + 1, :j], rows[:j], p).ravel()) % p
        inv = pow(int(cur[r]), p - 2, p)
        if inv != 1:
            row = row * inv % p
        cur[r] = 0
        a[r] = row
        fac[r, :j] = 0
        fac[:, j] = cur
        rows[j] = row
        pivots.append(col)
        r += 1
        j += 1
        if j == w:
            flush()
    flush()
    return a, pivots, len(pivots)


@st.composite
def systems(draw, primes, shapes=st.tuples(st.integers(0, 70), st.integers(0, 160))):
    """Matrices with dependent columns, all-zero rows, a run of zero
    columns and (sometimes) entries outside [0, p)."""
    p = draw(st.sampled_from(primes))
    m, n = draw(shapes)
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    a = rng.randint(0, p, size=(m, n)).astype(np.int64)
    if m and n:
        indep = draw(st.integers(1, n))
        for c in range(indep, n):
            k1, k2 = rng.randint(0, indep, size=2)
            c1, c2 = rng.randint(0, p, size=2)
            a[:, c] = (int(c1) * a[:, k1] + int(c2) * a[:, k2]) % p
        a[rng.rand(m) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0
        start = draw(st.integers(0, n - 1))
        a[:, start : start + draw(st.integers(0, 130))] = 0
        if draw(st.booleans()):
            a = a - p * rng.randint(-3, 4, size=(m, n))
    return a, p


@st.composite
def shapes_around_rref_cutoff(draw):
    """(m, n) with m n just at or below ``_RREF_SMALL`` (the eager kernel)
    or just above it (the panel kernel)."""
    m = draw(st.integers(1, 70))
    cut = linalg._RREF_SMALL
    if draw(st.booleans()):
        return m, draw(st.integers(max(1, cut // m - 2), cut // m))
    return m, draw(st.integers(cut // m + 1, cut // m + 3))


PANEL_PRIMES = [3, 5, 7, 11, 20011, 6850007, P_FLOAT_TOP, P_INT_LOW, 480000019]


# at 6850007 (float64) and 480000019 (int64) a working entry can take 47 and
# 40 products, so a second panel of 32 forces a reduction first; the second
# strategy lands on both sides of the small-system switch
@settings(max_examples=320, deadline=None)
@given(st.one_of(systems(PANEL_PRIMES), systems(PANEL_PRIMES + [P_LARGEST], shapes_around_rref_cutoff())))
def test_rref_matches_panel_kernel(system):
    a, p = system
    red, pivots, rank = linalg.rref(a, p)
    ref, ref_pivots, ref_rank = panel_rref(a, p)
    assert np.array_equal(red, ref)
    assert pivots == ref_pivots and rank == ref_rank == len(pivots)


SMALL_PRIMES = [3, 5, 20011, P_FLOAT_TOP, P_INT_LOW, P_LARGEST]


@st.composite
def small_systems(draw, extra_cols=0):
    """``(a, p)`` for the small-system path: ``a`` has at most
    ``_RREF_SMALL`` entries once ``extra_cols`` columns are appended (at
    the cutoff or just below it, or an empty, one-entry or tiny shape),
    dependent columns, zero rows and, sometimes, entries below 0 or >= p."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    kind = draw(st.sampled_from(["cutoff", "cutoff", "empty-rows", "empty-cols", "one", "tiny"]))
    cut = linalg._RREF_SMALL
    if kind == "cutoff":
        m = draw(st.integers(1, 40))
        n = draw(st.integers(max(1, cut // m - extra_cols - 2), max(1, cut // m - extra_cols)))
    elif kind == "empty-rows":
        m, n = 0, draw(st.integers(0, 6))
    elif kind == "empty-cols":
        m, n = draw(st.integers(1, 6)), 0
    elif kind == "one":
        m = n = 1
    else:
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    a = rng.randint(0, p, size=(m, n)).astype(np.int64)
    if m and n:
        a[:, rng.rand(n) < 0.3] = 0
        if n > 1:
            a[:, -1] = (a[:, 0] * int(rng.randint(p)) + a[:, n // 2]) % p
        a[rng.rand(m) < 0.2] = 0
        if draw(st.booleans()):
            a = a + p * rng.randint(-2, 3, size=(m, n))
    return a, p


def _fresh_int64(out, shape):
    assert isinstance(out, np.ndarray) and out.dtype == np.int64 and out.flags.writeable
    assert out.shape == shape


def _reference_solution(a, b, p):
    """free-variables-zero solution of a x = b from the panel reference,
    or None; ``b`` is a matrix"""
    n = a.shape[1]
    red, pivots, _ = panel_rref(np.concatenate([a % p, b % p], axis=1), p)
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for row, col in enumerate(pivots):
        x[col] = red[row, n:]
    return x


@settings(max_examples=80, deadline=None)
@given(small_systems())
@example((np.zeros((0, 4), dtype=np.int64), 5))
@example((np.zeros((3, 0), dtype=np.int64), P_LARGEST))
@example((np.array([[2 * P_LARGEST - 1]]), P_LARGEST))
def test_small_rref_nullspace_and_image_match_the_references(system):
    a, p = system
    before = a.copy()
    red, pivots, rank = linalg.rref(a, p)
    ref, ref_pivots, _ = panel_rref(a, p)
    assert np.array_equal(red, ref) and pivots == ref_pivots and rank == len(pivots)
    _fresh_int64(red, a.shape)
    ns = linalg.nullspace(a, p)
    _fresh_int64(ns, (a.shape[1], a.shape[1] - rank))
    assert ns.tolist() == python_nullspace(a, p)
    image = linalg.column_space_basis(a, p)
    _fresh_int64(image, (a.shape[0], rank))
    assert np.array_equal(image, (a % p)[:, ref_pivots])
    assert np.array_equal(a, before)


@settings(max_examples=80, deadline=None)
@given(small_systems(extra_cols=3), st.integers(1, 3), st.booleans(), st.integers(0, 2**31 - 1))
@example((np.zeros((0, 4), dtype=np.int64), 3), 2, True, 0)
@example((np.zeros((3, 0), dtype=np.int64), 20011), 1, False, 0)
@example((np.array([[-1]]), P_INT_LOW), 1, False, 0)
def test_small_solve_right_matches_the_reference(system, k, consistent, seed):
    a, p = system
    m, n = a.shape
    rng = np.random.RandomState(seed)
    if consistent:
        b = linalg.matmul(a % p, rng.randint(0, p, size=(n, k)).astype(np.int64), p)
    else:
        b = rng.randint(0, p, size=(m, k)).astype(np.int64)
        if m:  # a zero row of a with a nonzero right-hand side
            a = a.copy()
            a[-1] = 0
            b[-1, 0] = 1
    b = b - p * rng.randint(-1, 2, size=b.shape)
    before_a, before_b = a.copy(), b.copy()
    want = _reference_solution(a, b, p)
    assert (want is not None) == (consistent or m == 0)
    got = linalg.solve_right(a, b, p)
    got_vec = linalg.solve_right(a, b[:, 0], p)
    if want is None:
        assert got is None and (got_vec is None) == (_reference_solution(a, b[:, :1], p) is None)
    else:
        _fresh_int64(got, (n, k))
        _fresh_int64(got_vec, (n,))
        assert np.array_equal(got, want) and np.array_equal(got_vec, want[:, 0])
    assert np.array_equal(a, before_a) and np.array_equal(b, before_b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.integers(0, 22), st.booleans(), st.integers(0, 2**31 - 1))
def test_small_invert_matches_the_reference(p, n, singular, seed):
    # n <= 22 keeps [a | I] at most _RREF_SMALL entries
    assert n * 2 * n <= linalg._RREF_SMALL
    rng = np.random.RandomState(seed)
    a = rng.randint(0, p, size=(n, n)).astype(np.int64)
    if singular and n:  # the last row a multiple of the first, or zero
        a[-1] = 2 * a[0] % p if n > 1 else 0
    a = a + p * rng.randint(-1, 2, size=(n, n))
    before = a.copy()
    red, pivots, _ = panel_rref(np.concatenate([a % p, np.eye(n, dtype=np.int64)], axis=1), p)
    inv = linalg.invert(a, p)
    if singular and n:
        assert pivots[:n] != list(range(n))
    if pivots[:n] != list(range(n)):
        assert inv is None
    else:
        _fresh_int64(inv, (n, n))
        assert np.array_equal(inv, red[:, n:])
        assert linalg.matmul(a % p, inv, p).tolist() == np.eye(n, dtype=np.int64).tolist()
    assert np.array_equal(a, before)


@settings(max_examples=60, deadline=None)
@given(matrices(5, max_dim=4), st.lists(st.integers(-7, 11), min_size=4, max_size=4))
def test_small_kernel_matches_brute_force_on_f5(a, rhs):
    p = 5
    m, n = a.shape
    a = a + p * np.random.RandomState(m * 7 + n).randint(-1, 2, size=a.shape)
    sols = brute_nullspace(a, p)
    rank = linalg.rank(a, p)
    assert rank == brute_rank(a, p) and len(sols) == p ** (n - rank)
    ns = linalg.nullspace(a, p)
    assert all(tuple(col) in sols for col in ns.T % p)
    b = np.array(rhs[:m], dtype=np.int64)
    solvable = [v for v in itertools.product(range(p), repeat=n) if np.array_equal(a @ np.array(v) % p, b % p)]
    x = linalg.solve_right(a, b, p)
    assert (x is None) == (not solvable)
    if x is not None:
        assert tuple(x) in solvable
    if m == n:
        inv = linalg.invert(a, p)
        assert (inv is None) == (rank < n)
        if inv is not None:
            assert (a @ inv % p).tolist() == np.eye(n, dtype=np.int64).tolist()


def test_exact_plan_switches_dtype_between_the_reference_primes():
    # the third entry is the int64 budget, which the small matmul path uses
    assert linalg._exact_plan(P_FLOAT_TOP) == (np.float64, 1, 4096)
    assert linalg._exact_plan(6850007) == (np.float64, 47, 196565)
    assert linalg._exact_plan(480000019) == (np.int64, 40, 40)
    assert linalg._exact_plan(P_INT_LOW)[0] is np.int64
    assert linalg._exact_plan(5)[0] is np.float64
    assert linalg._exact_plan(P_LARGEST) == (np.int64, 1, 1)
    with pytest.raises(InvalidPrime):
        linalg._exact_plan(P_FIRST_REJECTED)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0), (4, 3), (40, 3), (3, 40)])
def test_rref_leaves_input_and_returns_int64(shape):
    p = 7
    a = np.random.RandomState(1).randint(-20, 20, size=shape).astype(np.int64)
    before = a.copy()
    red, pivots, rank = linalg.rref(a, p)
    assert np.array_equal(a, before)
    assert red.dtype == np.int64 and red.shape == shape
    assert ((red >= 0) & (red < p)).all()
    assert rank == len(pivots) <= min(shape)


def test_rref_skips_zero_rows_and_long_zero_column_runs():
    p = 5
    a = np.zeros((6, 300), dtype=np.int64)
    a[1, 0] = 2
    a[4, 150] = 3
    a[4, 299] = 1
    red, pivots, rank = linalg.rref(a, p)
    assert pivots == [0, 150] and rank == 2
    assert red[0, 0] == 1 and red[1, 150] == 1 and red[1, 299] == 2
    assert not red[2:].any()


@pytest.mark.parametrize("p", [M31, P_LARGEST])
def test_rref_exact_at_large_primes(p):
    rng = np.random.RandomState(3)
    for m, n in ((12, 20), (20, 12), (5, 6), (33, 40)):
        a = rng.randint(0, p, size=(m, n)).astype(np.int64)
        a[:, 3] = 0
        a[-1] = (2 * a[0] + (p - 1) * a[1]) % p
        rows, pivots = python_rref(a, p)
        red, got_pivots, rank = linalg.rref(a, p)
        assert got_pivots == pivots and rank == len(pivots)
        assert red.tolist() == rows


@pytest.mark.parametrize("p", [P_FLOAT_TOP, P_INT_LOW, M31, P_LARGEST])
def test_matmul_exact_at_large_primes(p):
    full = np.full((3, 3), p - 1, dtype=np.int64)
    assert linalg.matmul(full, full, p).tolist() == [[3] * 3] * 3
    rng = np.random.RandomState(4)
    a = rng.randint(0, p, size=(4, 70)).astype(np.int64)
    b = rng.randint(0, p, size=(70, 5)).astype(np.int64)
    expect = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(70)) % p for j in range(5)] for i in range(4)]
    assert linalg.matmul(a, b, p).tolist() == expect


def python_matmul(a, b, p):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]


@pytest.mark.parametrize("p", [5, 20011, P_FLOAT_TOP, P_INT_LOW, 480000019, P_LARGEST])
def test_matmul_on_both_sides_of_the_small_switch(p):
    cut = linalg._MATMUL_SMALL
    rng = np.random.RandomState(p % 1000)
    for m, k, n in ((16, 16, 16), (16, 16, 17), (1, 64, 64), (1, 64, 65), (64, 1, 64), (65, 1, 64), (4, 4, 256), (4, 4, 257)):
        a = rng.randint(0, p, size=(m, k)).astype(np.int64)
        b = rng.randint(0, p, size=(k, n)).astype(np.int64)
        a[0] = p - 1  # the largest products of residues
        b[:, 0] = p - 1
        assert linalg.matmul(a, b, p).tolist() == python_matmul(a, b, p), ((m, k, n), m * k * n <= cut)


@pytest.mark.parametrize("p", [5, P_INT_LOW, P_LARGEST])
def test_combine_and_intertwines_exact_at_large_primes(p):
    rng = np.random.RandomState(p % 997)
    coeffs = rng.randint(0, p, size=(6, 3)).astype(np.int64)
    stack = rng.randint(0, p, size=(6, 4, 5)).astype(np.int64)
    coeffs[0], stack[0] = p - 1, p - 1
    want = [[[sum(int(coeffs[a, k]) * int(stack[a, i, j]) for a in range(6)) % p for j in range(5)]
             for i in range(4)] for k in range(3)]
    assert linalg.combine(coeffs, stack, p).tolist() == want

    # f = t [I | 0] u^-1 carries u b u^-1 to t b00 t^-1 when b has no block above-right
    def invertible(n):
        while True:
            m = rng.randint(0, p, size=(n, n)).astype(np.int64)
            inv = linalg.invert(m, p)
            if inv is not None:
                return m, inv

    t, t_inv = invertible(3)
    u, u_inv = invertible(5)
    f = linalg.matmul(t, u_inv[:3], p)
    b = rng.randint(0, p, size=(4, 5, 5)).astype(np.int64)
    b[:, :3, 3:] = 0
    src = np.stack([linalg.matmul(linalg.matmul(u, x, p), u_inv, p) for x in b])
    dst = np.stack([linalg.matmul(linalg.matmul(t, x[:3, :3], p), t_inv, p) for x in b])
    assert linalg.intertwines(f, src, dst, p) is True
    bad = dst.copy()
    bad[2, 0, 0] = (bad[2, 0, 0] + 1) % p
    assert linalg.intertwines(f, src, bad, p) is False
    assert linalg.intertwines(np.stack([f, f, f]), src, bad, p).tolist() == [False] * 3
    assert linalg.intertwines(np.stack([f, linalg.zeros(3, 5)]), src, bad, p).tolist() == [False, True]


# one int64 sum holds 40 products of residues at 480000019 and one at P_LARGEST
@pytest.mark.parametrize("p, budget", [(480000019, 40), (P_LARGEST, 1)])
@pytest.mark.parametrize("extra", [0, 1])
def test_matmul_straddles_the_int64_one_product_budget(p, budget, extra):
    assert linalg._exact_plan(p)[2] == budget
    inner = budget + extra
    a = np.full((3, inner), p - 1, dtype=np.int64)
    b = np.full((inner, 2), p - 1, dtype=np.int64)
    b[0, 1] = p - 2
    assert 3 * inner * 2 <= linalg._MATMUL_SMALL
    assert linalg.matmul(a, b, p).tolist() == python_matmul(a, b, p)


def test_prime_range_bound_in_field_and_schema():
    assert linalg.in_range(P_LARGEST) and not linalg.in_range(P_FIRST_REJECTED)
    assert linalg.PrimeField(P_LARGEST).p == P_LARGEST
    with pytest.raises(InvalidPrime):
        linalg.PrimeField(P_FIRST_REJECTED)
    one = {"dim": 1, "mul": [[[1]]], "unit": [1]}
    assert schema.validate({"p": P_LARGEST, "algebra": one}) == "algebra"
    for p in (P_FIRST_REJECTED, 2**61 - 1, 2**62 + 1, 10**40):
        with pytest.raises(SchemaError) as exc:
            schema.validate({"p": p, "algebra": one})
        assert exc.value.pointer == "/p"


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(10**5) if linalg.is_prime(n)] == [n for n in range(10**5) if trial_division(n)]


def test_is_prime_on_large_primes_and_pseudoprimes():
    primes = [M31, 2**61 - 1, 10**12 + 39, 2**62 - 57, 2**64 - 59, P_LARGEST, P_FIRST_REJECTED]
    assert all(linalg.is_prime(n) for n in primes)
    # Carmichael numbers, the last two also strong pseudoprimes to bases 2..7
    # and 2..23 respectively; then composites built from large primes
    composites = [561, 1105, 1729, 41041, 825265, 321197185, 9746347772161, 1436697831295441,
                  3215031751, 3825123056546413051, 2**32 + 1, M31**2, M31 * (2**61 - 1)]
    assert not any(linalg.is_prime(n) for n in composites)
