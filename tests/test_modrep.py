"""Module/bimodule layer tests against hand-computed and enumerated oracles."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    LARGEST_PRIME,
    balancing_quotient,
    column_module,
    conjugated,
    count_calls,
    dense_basis_change,
    direct_sum,
    dual_numbers,
    group_alg,
    mat_units_algebra,
    prod_fields,
    python_nullspace,
    rebased,
    record_calls,
    reference_hom_basis,
    reference_is_fg_projective,
    s3_table,
    simple_modules_prod,
    stacked_hom_system,
    trivial_module_dualnum,
    upper_triangular2,
)
import oracles
from qfcert import cli, fixtures, linalg, memo, modrep, verify
from qfcert.coring import sweedler
from qfcert.algebra import field_algebra, group_algebra, make_algebra, opposite
from qfcert.errors import ActionsDoNotCommute, InternalCheckError, ModuleLawViolation, UnitViolation, UsageError
from qfcert.simdiv import split_witness_payload
from qfcert.modrep import (
    Bimodule,
    LeftModule,
    _presentation,
    as_bimodule,
    envelope_module,
    hom_space,
    is_fg_projective,
    left_dual,
    regular_bimodule,
    regular_left,
    restrict_bimodule,
    right_dual,
    tensor_over,
)


def test_module_validation():
    a = dual_numbers(5)
    act = np.zeros((2, 1, 1), dtype=np.int64)
    act[0, 0, 0] = 1
    act[1, 0, 0] = 1  # x acts by 1: but then x^2 = 0 must act by 0 != 1
    with pytest.raises(ModuleLawViolation):
        from qfcert.modrep import LeftModule

        LeftModule(a, act)


def first_law_failure(alg, action):
    """The first (i, j) in C order with action[i] action[j] != sum_k
    mul[i, j, k] action[k], on Python integers."""
    p, a, mul = alg.p, action.tolist(), alg.mul.tolist()
    n, d = len(a), len(a[0])
    for i, j in itertools.product(range(n), repeat=2):
        lhs = [[sum(a[i][r][t] * a[j][t][c] for t in range(d)) % p for c in range(d)] for r in range(d)]
        rhs = [[sum(mul[i][j][k] * a[k][r][c] for k in range(n)) % p for c in range(d)] for r in range(d)]
        if lhs != rhs:
            return i, j
    return None


@pytest.mark.parametrize("group, p, index, pair", [("C3", 5, 2, (1, 1)), ("S3", 7, 3, (1, 3)), ("S3", 7, 4, (1, 2))])
def test_module_law_violation_names_the_first_failing_pair(group, p, index, pair):
    # one entry of a non-identity basis element's action is changed, so the
    # unit axiom still holds and the first failure comes from a product
    a = group_alg(p, 3) if group == "C3" else group_algebra(p, s3_table())
    act = a.left_mult.copy()
    act[index, 0, 1] = (act[index, 0, 1] + 1) % p
    assert first_law_failure(a, act) == pair
    with pytest.raises(ModuleLawViolation) as exc:
        LeftModule(a, act)
    assert exc.value.pair == pair


def test_unit_violation_names_the_basis_element_it_fails_on():
    # 1 . e_0 = e_0 + e_1 and 1 . e_1 = e_1: the unit axiom fails at e_0,
    # the column of the unit's action that differs from the identity
    k = field_algebra(5)
    shear = np.array([[[1, 0], [1, 1]]], dtype=np.int64)
    eye = np.eye(2, dtype=np.int64).reshape(1, 2, 2)
    with pytest.raises(UnitViolation) as exc:
        LeftModule(k, shear)
    assert exc.value.index == 0
    # a right action is validated as a left one over the opposite algebra
    with pytest.raises(UnitViolation) as exc:
        Bimodule(k, k, eye, shear)
    assert exc.value.index == 0


SMALL_ALGEBRAS = {
    "m2": lambda p: mat_units_algebra(p, 2),
    "c3": lambda p: group_alg(p, 3),
    "t2": upper_triangular2,
    "dualnum": dual_numbers,
}


@pytest.mark.parametrize("name", list(SMALL_ALGEBRAS))
def test_regular_bimodule_and_tensor_square_at_the_largest_prime(name):
    # in a dense basis, products of residues summed over the algebra's
    # dimension pass 2^63: the bimodule law check (whose products
    # left[i] @ right[j] are the envelope action) and the tensor product's
    # well-definedness check must multiply exactly
    p = LARGEST_PRIME
    plain = SMALL_ALGEBRAS[name](p)
    for seed in range(4):
        t, t_inv = dense_basis_change(plain.dim, p, np.random.RandomState(seed))
        a = make_algebra(p, *rebased(plain, t, t_inv))
        reg = regular_bimodule(a)
        sq = tensor_over(a, reg, reg)
        assert sq.dim == a.dim
        proj, sect = balancing_quotient(a, reg, reg)
        assert np.array_equal(sq.proj, proj) and np.array_equal(sq.sect, sect)


def test_hom_from_regular_has_dim_of_target():
    # Hom_A(A, M) ~ M for any M (evaluation at 1)
    p = 5
    a = group_alg(p, 2)
    reg = regular_left(a)
    for m in (reg, trivial_like(a, [1, 1]), trivial_like(a, [1, 4])):
        h = hom_space(reg, m)
        assert h.k == m.dim


def trivial_like(a, images):
    """1-dim module over F5[C2] where g acts by images[1] (images[0]=1)."""
    act = np.zeros((a.dim, 1, 1), dtype=np.int64)
    for i, v in enumerate(images):
        act[i, 0, 0] = v
    from qfcert.modrep import LeftModule

    return LeftModule(a, act)


def test_hom_between_distinct_simples_is_zero():
    p = 5
    s1, s2 = simple_modules_prod(p)
    assert hom_space(s1, s2).k == 0
    assert hom_space(s1, s1).k == 1


def test_hom_space_basis_members_intertwine():
    p = 5
    m = column_module(p)
    reg = regular_left(m.algebra)
    h = hom_space(reg, m)
    assert h.k == m.dim
    for t in range(h.k):
        f = h.basis[t]
        for i in range(m.algebra.dim):
            lhs = linalg.matmul(f, reg.action[i], p)
            rhs = linalg.matmul(m.action[i], f, p)
            assert np.array_equal(lhs, rhs)


def test_bimodule_commutation_check():
    p = 5
    a = prod_fields(p)
    la = a.left_mult
    # a valid action of A on F5^2 by the idempotent pair P0, P1 = 1 - P0,
    # chosen non-diagonal so it cannot commute with the regular left action
    p0 = np.array([[1, 1], [0, 0]], dtype=np.int64)
    p1 = (linalg.identity(2) - p0) % p
    ra = np.stack([p0, p1])
    with pytest.raises(ActionsDoNotCommute):
        Bimodule(a, a, la, ra)


def test_bimodule_commutation_failure_names_the_first_pair():
    # F5^3 acts on the right through (0, P0, 1 - P0): left action 0 commutes
    # with right action 0 but not with right action 1, so the first failing
    # pair in C order is (0, 1)
    p = 5
    a = prod_fields(p)
    mul = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        mul[i, i, i] = 1
    b = make_algebra(p, mul, [1, 1, 1])
    p0 = np.array([[1, 1], [0, 0]], dtype=np.int64)
    ra = np.stack([np.zeros((2, 2), dtype=np.int64), p0, (linalg.identity(2) - p0) % p])
    with pytest.raises(ActionsDoNotCommute) as exc:
        Bimodule(a, b, a.left_mult, ra)
    assert exc.value.pair == (0, 1)


def test_regular_bimodule_and_restriction():
    p = 7
    a = group_alg(p, 3)
    b = regular_bimodule(a)
    assert b.dim == 3
    left = restrict_bimodule(b, "left")
    assert np.array_equal(left.action, a.left_mult)
    right = restrict_bimodule(b, "right")
    assert np.array_equal(right.action, a.right_mult)
    # a bimodule keeps its two actions only; the envelope view is built on
    # request, with (i,j) at i*dim(S)+j acting by L_i R_j
    assert not hasattr(b, "carrier") and not hasattr(b, "env")
    env = envelope_module(b)
    assert env.algebra.dim == 9 and env.dim == 3
    for i in range(3):
        for j in range(3):
            expect = linalg.matmul(a.left_mult[i], a.right_mult[j], p)
            assert np.array_equal(env.action[i * 3 + j], expect)


def test_tensor_over_scalar_field_is_plain_tensor():
    p = 5
    k = field_algebra(p)
    a = dual_numbers(p)
    m = Bimodule(a, k, a.left_mult, linalg.identity(2).reshape(1, 2, 2))
    n = Bimodule(k, a, linalg.identity(2).reshape(1, 2, 2), a.right_mult)
    t = tensor_over(k, m, n)
    assert t.dim == 4


def test_tensor_worked_example_dim4():
    # S (x)_R S for R = F5 inside S = F5[x]/(x^2): dim 4
    p = 5
    s = dual_numbers(p)
    k = field_algebra(p)
    phi = np.array([[1], [0]], dtype=np.int64)
    la = linalg.combine(phi, s.left_mult, p)
    rs = Bimodule(k, s, la, s.right_mult)  # S as (F5, S)
    sr = Bimodule(s, k, s.left_mult, linalg.identity(2).reshape(1, 2, 2))  # S as (S, F5)
    t = tensor_over(s, rs, sr)  # wrong sides on purpose? no: need (R,S) (x)_S (S,T)
    assert t.dim == 2  # S (x)_S S ~ S
    t2 = tensor_over(k, sr, rs)  # S (x)_F5 S
    assert t2.dim == 4


def test_tensor_balanced_relation():
    # in S (x)_S S the class of (x (x) 1) equals (1 (x) x)
    p = 5
    s = dual_numbers(p)
    breg = regular_bimodule(s)
    tt = tensor_over(s, breg, breg)
    assert tt.dim == 2
    x = np.array([0, 1])
    one = np.array([1, 0])
    assert np.array_equal(tt.proj @ np.kron(x, one) % p, tt.proj @ np.kron(one, x) % p)


def test_tensor_over_rejects_an_action_not_defined_on_classes():
    # over F5 x F5, two idempotent splittings of F5^2 that do not commute,
    # let through unvalidated: the left action does not respect balancing
    p = 5
    a = prod_fields(p)
    left = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    right = np.array([[[1, 1], [0, 0]], [[0, 4], [0, 1]]])
    with pytest.raises(ActionsDoNotCommute):
        Bimodule(a, a, left, right)
    m = Bimodule(a, a, left, right, _validate=False)
    with pytest.raises(InternalCheckError, match="not well-defined"):
        tensor_over(a, m, regular_bimodule(a))


def test_tensor_side_mismatch_raises():
    p = 5
    s = dual_numbers(p)
    k = field_algebra(p)
    sr = Bimodule(s, k, s.left_mult, linalg.identity(2).reshape(1, 2, 2))
    with pytest.raises(UsageError):
        tensor_over(s, sr, sr)


def test_left_dual_of_regular_is_regular_shaped():
    # Hom_A(A, A) as an (A, A)-bimodule has dim = dim A and the same
    # restriction dims; check bimodule axioms were validated en route.
    p = 5
    a = group_alg(p, 2)
    d = left_dual(regular_bimodule(a))
    assert d.dim == 2
    assert d.left_alg is a and d.right_alg is a
    dd = right_dual(regular_bimodule(a))
    assert dd.dim == 2


def test_duals_of_unit_bimodule_shapes():
    # M2(F5) as (F5, M2)-bimodule: left dual = Hom_F5(M, F5) has dim 4
    p = 5
    m2 = mat_units_algebra(p, 2)
    k = field_algebra(p)
    la = np.stack([linalg.identity(4)])
    b = Bimodule(k, m2, la, m2.right_mult)
    d = left_dual(b)  # (M2, F5)-bimodule, dim 4
    assert d.dim == 4
    assert d.left_alg is m2


def test_fgp_regular_and_column_modules():
    p = 5
    a = mat_units_algebra(p, 2)
    m = regular_left(a)
    w = is_fg_projective(m)
    # the cover is on the spun generators: a singular first draw and one more
    assert w is not None and w.free_rank == _presentation(p, m.action)[0].shape[1] == 2
    col = column_module(p)
    w2 = is_fg_projective(col)
    assert w2 is not None


def test_fgp_trivial_module_not_projective():
    p = 5
    m = trivial_module_dualnum(p)
    assert is_fg_projective(m) is None
    # oracle: the only idempotents of F5[x]/(x^2) are 0 and 1 (enumerate all
    # 25 elements), so projective modules are free, of even dimension.
    a = dual_numbers(p)
    idems = []
    for c0 in range(p):
        for c1 in range(p):
            v = np.array([c0, c1])
            if np.array_equal(a.multiply(v, v), v):
                idems.append((c0, c1))
    assert sorted(idems) == [(0, 0), (1, 0)]


def test_fgp_simple_over_prod_fields_projective():
    p = 5
    s1, _ = simple_modules_prod(p)
    w = is_fg_projective(s1)
    assert w is not None


def test_spun_cover_agrees_with_the_cover_by_all_basis_vectors(monkeypatch):
    # every module the battery tests for projectivity, once each
    calls = record_calls(monkeypatch, modrep.is_fg_projective)
    for f in fixtures.corpus():
        cli.run_documents(f.command, f.docs, seed=0, depth=f.depth)
    battery = list({(m.algebra.memo_key(), m.action.tobytes()): m for (m,) in calls}.values())
    # and two that are not projective: the trivial dual-numbers module, and
    # the simple top of T2 e22 (e22 acts by 1, e11 and e12 by 0)
    p = 5
    top = LeftModule(upper_triangular2(p), np.array([[[0]], [[1]], [[0]]], dtype=np.int64))
    projective = []
    for m in battery + [trivial_module_dualnum(p), top]:
        w, ref = is_fg_projective(m), reference_is_fg_projective(m)
        assert (w is None) == (ref is None)
        projective.append(w is not None)
        if w is not None:
            assert w.free_rank == _presentation(m.p, m.action)[0].shape[1] <= m.dim
            assert verify.verify_payload(split_witness_payload(w)) == (True, [])
    assert projective[-2:] == [False, False]
    assert True in projective[:-2] and False in projective[:-2]


def small_summands(p):
    """Summands over the dual numbers D and over T2 (basis e11, e22, e12),
    one list per algebra: D itself and its trivial module; T2 e11, T2 e22
    (spanned by e22 and e12) and the simple top of T2 e22."""
    dn, t2 = dual_numbers(p), upper_triangular2(p)
    reg_t2 = regular_left(t2).action
    return [
        [regular_left(dn), trivial_module_dualnum(p)],
        [LeftModule(t2, reg_t2[:, :1, :1]), LeftModule(t2, reg_t2[:, 1:, 1:]),
         LeftModule(t2, np.array([[[0]], [[1]], [[0]]], dtype=np.int64))],
    ]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 20011]), st.integers(0, 1), st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_projectivity_of_direct_sums_agrees_with_the_reference(p, family, picks):
    summands = small_summands(p)[family]
    m = direct_sum(*[summands[i % len(summands)] for i in picks])[0]
    w, ref = is_fg_projective(m), reference_is_fg_projective(m)
    assert (w is None) == (ref is None)
    if w is None:
        return
    assert verify.verify_payload(split_witness_payload(w)) == (True, [])
    # each block is the cover's block of a distinct presentation generator
    gens = _presentation(p, m.action)[0]
    blocks = linalg.matmul(m.action.reshape(-1, m.dim), gens, p).reshape(-1, m.dim, gens.shape[1]).transpose(2, 1, 0)
    used = [next(b for b in range(len(blocks)) if np.array_equal(blocks[b], pi)) for pi in w.pi_blocks]
    assert len(set(used)) == len(used) <= gens.shape[1]
    # and adds to the sum: no block is dead
    assert all(linalg.matmul(pi, sigma, p).any() for pi, sigma in zip(w.pi_blocks, w.sigma_blocks))


def test_direct_sum_and_as_bimodule():
    p = 5
    s1, s2 = simple_modules_prod(p)
    tot, injs, projs = direct_sum(s1, s2)
    assert tot.dim == 2
    assert is_fg_projective(tot) is not None
    b = as_bimodule(tot)
    assert b.dim == 2 and b.right_alg.dim == 1


def test_opposite_regular_matches_right_mult():
    p = 5
    a = dual_numbers(p)
    assert np.array_equal(regular_left(opposite(a)).action, a.right_mult)


def test_hom_basis_is_the_nullspace_of_the_full_system():
    # hom_space solves on the images of a few generators; its basis must be
    # the canonical nullspace basis of the system over every basis element
    p = 5
    col, socle = fixtures.column_module(p), fixtures.socle_module_dualnum(p)
    ext = fixtures.diagonal_matrix_extension(p)
    sw_dn = sweedler(fixtures.unit_extension(fixtures.dual_numbers(p))).carrier
    sw_m2 = sweedler(fixtures.unit_extension(fixtures.mat_units_algebra(p, 2))).carrier
    reg_dn = regular_bimodule(fixtures.dual_numbers(p))
    pairs = [
        (regular_left(col.algebra), col),
        (col, regular_left(col.algebra)),
        (socle, regular_left(socle.algebra)),
        (regular_left(socle.algebra), socle),
        (restrict_bimodule(sw_m2, "left"), restrict_bimodule(sw_m2, "left")),
        (envelope_module(ext.bimodule_rs), envelope_module(ext.bimodule_rs)),
        (envelope_module(ext.bimodule_sr), envelope_module(ext.bimodule_sr)),
        (envelope_module(sw_dn), envelope_module(reg_dn)),
        (envelope_module(reg_dn), envelope_module(sw_dn)),
        (envelope_module(sw_m2), envelope_module(sw_m2)),
    ]
    for source, target in pairs:
        full = linalg.nullspace(stacked_hom_system(source, target), p)
        h = hom_space(source, target)
        assert np.array_equal(h.basis.reshape(h.k, target.dim * source.dim).T, full)


def hom_pairs(p):
    """Pairs (M, N) for the generator-image route: regular modules and
    dense conjugates of them, direct sums, a semisimple source whose
    relations span several blocks, zero-dimensional ends, the 16-dim
    envelope carrier of the M2 Sweedler coring and a pair with Hom = 0."""
    rng = np.random.RandomState(0)

    def dense(m):
        t, t_inv = dense_basis_change(m.dim, p, rng)
        return LeftModule(m.algebra, conjugated(m.action, t, t_inv, p))

    c3 = group_alg(p, 3)
    regs = [regular_left(a) for a in (mat_units_algebra(p, 2), upper_triangular2(p), dual_numbers(p), c3)]
    col = column_module(p)
    reg_col = direct_sum(regs[0], col)[0]
    trivial3 = direct_sum(*[LeftModule(c3, np.ones((3, 1, 1), dtype=np.int64))] * 3)[0]
    zero = LeftModule(regs[2].algebra, np.zeros((2, 0, 0), dtype=np.int64))
    ext = fixtures.unit_extension(fixtures.mat_units_algebra(p, 2))
    carrier = envelope_module(tensor_over(ext.source, ext.bimodule_sr, ext.bimodule_rs))  # the M2 Sweedler carrier
    return (
        [(r, r) for r in regs]
        + [(dense(r), dense(r)) for r in regs]
        + [(reg_col, col), (col, dense(reg_col)), (dense(reg_col), dense(reg_col))]
        + [(trivial3, regs[3]), (regs[3], trivial3), (dense(trivial3), dense(regs[3]))]
        + [(zero, regs[2]), (regs[2], zero), (zero, zero)]
        + [(carrier, carrier), (dense(carrier), carrier)]
        + [simple_modules_prod(p)]
    )


@pytest.mark.parametrize("p", [5, 20011, 47_453_149, LARGEST_PRIME])
def test_hom_space_matches_the_reference(p, monkeypatch):
    # the generator-image basis is the incremental route's; the first system
    # is the source's presentation on its drawn candidates alone, and every
    # later one stays within (dim M * dim N)^2 entries
    sizes = []
    rref = linalg.rref

    def recorded(a, q):
        sizes.append(np.shape(a))
        return rref(a, q)

    monkeypatch.setattr(linalg, "rref", recorded)
    for source, target in hom_pairs(p):
        with memo.scope():
            sizes.clear()
            basis = hom_space(source, target).basis
            calls = list(sizes)
        assert np.array_equal(basis, reference_hom_basis(source, target))
        dm, dn, da = source.dim, target.dim, source.algebra.dim
        drawn = -(-dm // da) + 2
        assert calls[0] == (dm, drawn * da + dm)
        assert all(r * c <= (dm * dn) ** 2 for r, c in calls[1:])


def assert_coords_are_the_solved_ones(h, rng):
    """``coords``, ``coords_batch`` and ``action`` of maps in ``h``, read at
    the basis' leads, equal the coordinates one ``solve_right`` finds."""
    p, dn, dm = h.source.p, h.target.dim, h.source.dim
    fs = linalg.combine(rng.randint(0, p, size=(h.k, 6)).astype(np.int64), h.basis, p)
    solved = linalg.solve_right(h.basis.reshape(h.k, dn * dm).T, fs.reshape(6, dn * dm).T, p)
    assert solved is not None and np.array_equal(h.coords_batch(fs), solved)
    for t in range(6):
        assert np.array_equal(h.coords(fs[t]), solved[:, t])
    assert np.array_equal(h.action(fs.reshape(2, 3, dn, dm)), solved.reshape(h.k, 2, 3).transpose(1, 0, 2))


def assert_maps_outside_are_refused(h):
    """A map outside the span: ``coords`` gives None and ``coords_batch``
    raises, alone or in a stack with maps inside."""
    p, size = h.source.p, h.target.dim * h.source.dim
    for j in range(size):
        f = np.zeros(size, dtype=np.int64)
        f[j] = 1
        if linalg.solve_right(h.basis.reshape(h.k, size).T, f, p) is None:
            break
    else:
        assert h.k == size
        return
    f = f.reshape(h.target.dim, h.source.dim)
    assert h.coords(f) is None
    for stack in (f[None], np.stack([h.basis[0] if h.k else f, f])):
        with pytest.raises(InternalCheckError):
            h.coords_batch(stack)


@pytest.mark.parametrize("p", [5, 20011, LARGEST_PRIME])
def test_hom_coordinates_read_at_the_leads_are_the_solved_ones(p):
    rng = np.random.RandomState(2)
    spaces = [hom_space(source, target) for source, target in hom_pairs(p)]
    # coinduce reorders the hom basis by degree, and the leads move with it
    made = []

    class Recorded(modrep.HomSpace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    ring = fixtures.graded_c2_triangular(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "HomSpace", Recorded)
        oracles.coinduce(ring, regular_left(ring.r_e))
    (reordered,) = made
    assert not np.array_equal(reordered.basis, hom_space(reordered.source, reordered.target).basis)
    # zero-dimensional hom spaces, between zero modules and between nonzero ones
    sizes = [h.source.dim * h.target.dim for h in spaces if h.k == 0]
    assert 0 in sizes and any(sizes)
    for h in spaces + [reordered]:
        assert_coords_are_the_solved_ones(h, rng)
        assert_maps_outside_are_refused(h)


def test_hom_space_exact_at_the_largest_prime():
    # dense modules at p = 3,037,000,493: (p-1)^2 * 2 already passes 2^63,
    # so every product of two action matrices must be exact
    p = 3037000493
    a = mat_units_algebra(p, 2)
    rng = np.random.RandomState(3)

    def conjugated(action):
        t = rng.randint(0, p, size=(action.shape[1],) * 2).astype(np.int64)
        t_inv = linalg.invert(t, p)
        assert t_inv is not None
        return np.stack([linalg.matmul_chain(p, t, x, t_inv) for x in action])

    source = LeftModule(a, conjugated(a.left_mult))
    target = LeftModule(a, conjugated(direct_sum(column_module(p), column_module(p))[0].action))
    h = hom_space(source, target)
    assert h.k == 4
    expected = python_nullspace(stacked_hom_system(source, target), p)
    assert np.array_equal(h.basis.reshape(h.k, -1).T, np.array(expected, dtype=np.int64))


def presented_modules(p):
    """Modules to present: free ones, a cyclic non-free one, semisimple
    ones, one whose drawn vectors cannot span (six copies of the trivial
    dual-numbers module, so the basis vectors are needed), zero-dimensional
    ones, and dense-basis conjugates of each."""
    rng = np.random.RandomState(1)

    def dense(m):
        t, t_inv = dense_basis_change(m.dim, p, rng)
        return LeftModule(m.algebra, conjugated(m.action, t, t_inv, p))

    m2, dn = mat_units_algebra(p, 2), dual_numbers(p)
    plain = [
        regular_left(m2),
        direct_sum(regular_left(dn), regular_left(dn))[0],
        regular_left(upper_triangular2(p)),
        direct_sum(regular_left(m2), column_module(p))[0],
        direct_sum(*[trivial_module_dualnum(p)] * 6)[0],
        LeftModule(group_alg(p, 3), np.ones((3, 1, 1), dtype=np.int64)),
    ]
    zero = [LeftModule(a, np.zeros((a.dim, 0, 0), dtype=np.int64)) for a in (dn, m2)]
    return plain + [dense(m) for m in plain] + zero


def presentation_map(action, gens, p):
    """P: A^k -> M, column i*dim A + t the image e_t . g_i."""
    da, d, k = action.shape[0], action.shape[1], gens.shape[1]
    images = linalg.matmul(action.reshape(da * d, d), gens, p).reshape(da, d, k)
    return images.transpose(1, 2, 0).reshape(d, k * da)


@pytest.mark.parametrize("p", [5, 20011, 47_453_149, LARGEST_PRIME])
def test_presentation_section_and_relations(p):
    for m in presented_modules(p):
        gens, ker, sigma = _presentation(p, m.action)
        da, d, k = m.algebra.dim, m.dim, gens.shape[1]
        pmap = presentation_map(m.action, gens, p)
        assert np.array_equal(linalg.matmul(pmap, sigma, p), linalg.identity(d))
        # ker lies in ker P and has its dimension, k dim A - rank P
        assert not linalg.matmul(pmap, ker, p).any()
        assert ker.shape == (k * da, k * da - d) and linalg.rank(ker, p) == k * da - d


def test_presentation_falls_back_on_the_basis_vectors():
    # six trivial modules need six generators, more than the 5 draws
    m = direct_sum(*[trivial_module_dualnum(5)] * 6)[0]
    gens = _presentation(5, m.action)[0]
    assert gens.shape == (6, 6) and linalg.rank(gens, 5) == 6


def reference_presentation(p, acts):
    """``(gens, ker, sigma)`` from one rref of the blocks of every candidate,
    the drawn vectors and then the basis vectors: a candidate is kept when
    its block holds a pivot, and the rref restricted to the kept blocks
    gives the relations and, on its last columns, the section."""
    da, d = acts.shape[0], acts.shape[1]
    rng = random.Random(modrep._SPIN_SEED)
    drawn = -(-d // da) + 2
    draws = np.array([rng.randrange(p) for _ in range(d * drawn)], dtype=np.int64).reshape(d, drawn)
    candidates = np.concatenate([draws, np.eye(d, dtype=np.int64)], axis=1)
    n = candidates.shape[1]
    blocks = presentation_map(acts, candidates, p)
    red, pivots, _ = linalg.rref(np.concatenate([blocks, np.eye(d, dtype=np.int64)], axis=1), p)
    picked = sorted({c // da for c in pivots})
    kept = [g * da + t for g in picked for t in range(da)]
    local = [kept.index(c) for c in pivots]
    sigma = np.zeros((len(kept), d), dtype=np.int64)
    sigma[local] = red[:, n * da :]
    return candidates[:, picked], linalg.rref_nullspace(red[:, kept], local, p)[0], sigma


@pytest.mark.parametrize("p", [5, 20011, LARGEST_PRIME])
def test_presentation_equals_the_one_rref_of_every_candidate(p, monkeypatch):
    # six 1-dim copies of a simple of F_p x F_p get five draws, which cannot
    # span them, so the basis vectors are reduced too, in a second system
    copies = direct_sum(*[simple_modules_prod(p)[0]] * 6)[0]
    calls = record_calls(monkeypatch, linalg.rref)
    with memo.scope():
        _presentation(p, copies.action)
    assert [np.shape(a) for a, _ in calls] == [(6, 5 * 2 + 6), (6, (5 + 6) * 2 + 6)]
    for m in [copies] + presented_modules(p):
        got, want = _presentation(p, m.action), reference_presentation(p, m.action)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("p", [5, 20011, 47_453_149, LARGEST_PRIME])
def test_presentation_depends_on_the_action_bytes_only(p):
    for m in presented_modules(p):
        copy = m.action.copy()
        first, again = _presentation(p, m.action), _presentation(p, copy)
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
        with memo.scope() as s:
            hit = _presentation(p, m.action)
            assert _presentation(p, np.array(copy)) is hit
            assert s.counts() == {"presentation": (1, 1)}
        assert all(not x.flags.writeable for x in hit)


@pytest.mark.parametrize("p", [5, 20011, 47_453_149, LARGEST_PRIME])
def test_sweedler_carrier_of_m2_is_presented_free(p):
    # the carrier is free of rank 4 over M2: four generators, no relations
    ext = fixtures.unit_extension(mat_units_algebra(p, 2))
    carrier = tensor_over(ext.source, ext.bimodule_sr, ext.bimodule_rs)
    gens, ker, _ = _presentation(p, carrier.left_acts)
    assert gens.shape == (16, 4) and ker.shape == (16, 0)


def test_tensor_over_does_not_revalidate_the_induced_actions(monkeypatch):
    # the laws of M (x)_S N follow from the well-definedness check, so
    # building the tensor square of the M2 Sweedler carrier validates nothing
    p = 5
    ext = fixtures.unit_extension(mat_units_algebra(p, 2))
    carrier = tensor_over(ext.source, ext.bimodule_sr, ext.bimodule_rs)
    calls = count_calls(monkeypatch, modrep._validate_action)
    square = tensor_over(ext.target, carrier, carrier)
    assert calls == [0] and square.dim == 64
    # the induced actions still satisfy the laws that were skipped
    Bimodule(square.left_alg, square.right_alg, square.left_acts, square.right_acts)
    assert calls == [2]
