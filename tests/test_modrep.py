"""Module/bimodule layer tests against hand-computed and enumerated oracles."""

import itertools

import numpy as np
import pytest

from helpers import (
    LARGEST_PRIME,
    balancing_quotient,
    column_module,
    conjugated,
    count_calls,
    dense_basis_change,
    dual_numbers,
    group_alg,
    mat_units_algebra,
    prod_fields,
    python_nullspace,
    rebased,
    reference_hom_basis,
    s3_table,
    simple_modules_prod,
    stacked_hom_system,
    trivial_module_dualnum,
    upper_triangular2,
)
from qfcert import fixtures, linalg, memo, modrep
from qfcert.coring import sweedler
from qfcert.algebra import field_algebra, group_algebra, make_algebra, make_hom, opposite
from qfcert.errors import ActionsDoNotCommute, InternalCheckError, ModuleLawViolation, UsageError
from qfcert.modrep import (
    Bimodule,
    LeftModule,
    _presentation,
    as_bimodule,
    direct_sum,
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


def test_hom_space_element_exact_at_the_largest_prime():
    # a linear combination of dense hom basis maps: raw int64 sums of
    # products of residues would overflow at this prime
    p = LARGEST_PRIME
    a = mat_units_algebra(p, 2)
    for seed in range(4):
        rng = np.random.RandomState(seed)
        t, t_inv = dense_basis_change(a.dim, p, rng)
        m = LeftModule(a, conjugated(a.left_mult, t, t_inv, p))
        h = hom_space(m, m)
        coeffs = [int(x) for x in rng.randint(0, p, size=h.k)]
        basis = h.basis.tolist()
        expected = [
            [sum(c * b[r][col] for c, b in zip(coeffs, basis)) % p for col in range(m.dim)] for r in range(m.dim)
        ]
        assert h.element(coeffs).tolist() == expected


SMALL_ALGEBRAS = {
    "m2": lambda p: mat_units_algebra(p, 2),
    "c3": lambda p: group_alg(p, 3),
    "t2": upper_triangular2,
    "dualnum": dual_numbers,
}


@pytest.mark.parametrize("name", list(SMALL_ALGEBRAS))
def test_regular_bimodule_and_tensor_square_at_the_largest_prime(name):
    # in a dense basis, products of residues summed over the algebra's
    # dimension pass 2^63: the bimodule law check, the carrier action and
    # the tensor product's well-definedness check must multiply exactly
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
    assert b.env.dim == 9
    left = restrict_bimodule(b, "left")
    assert np.array_equal(left.action, a.left_mult)
    right = restrict_bimodule(b, "right")
    assert np.array_equal(right.action, a.right_mult)
    # carrier index convention: (i,j) at i*dim(S)+j acts by L_i R_j
    for i in range(3):
        for j in range(3):
            expect = linalg.matmul(a.left_mult[i], a.right_mult[j], p)
            assert np.array_equal(b.carrier.action[i * 3 + j], expect)


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
    la = np.stack([s.left_mult_matrix(phi[:, 0])]) % p
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
    assert np.array_equal(tt.pure(x, one), tt.pure(one, x))


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
    w = is_fg_projective(regular_left(a))
    assert w is not None and w.free_rank == 4
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
        (ext.bimodule_rs.carrier, ext.bimodule_rs.carrier),
        (ext.bimodule_sr.carrier, ext.bimodule_sr.carrier),
        (sw_dn.carrier, reg_dn.carrier),
        (reg_dn.carrier, sw_dn.carrier),
        (sw_m2.carrier, sw_m2.carrier),
    ]
    for source, target in pairs:
        full = linalg.nullspace(stacked_hom_system(source, target), p)
        assert np.array_equal(hom_space(source, target).matrix(), full)


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
    carrier = tensor_over(ext.source, ext.bimodule_sr, ext.bimodule_rs).carrier  # the M2 Sweedler carrier
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
    # is the source's presentation on its drawn and basis candidates, and
    # every later one stays within (dim M * dim N)^2 entries
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
        assert calls[0] == (dm, (drawn + dm) * da + dm)
        assert all(r * c <= (dm * dn) ** 2 for r, c in calls[1:])


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
    assert np.array_equal(h.matrix(), np.array(expected, dtype=np.int64))


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
