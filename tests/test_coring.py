"""Corings: construction laws, convolution duals, comodules, cotensor, QF."""

import numpy as np
import pytest

from qfcert import cli, decomp, fixtures, linalg, report, schema, simdiv
from qfcert.algebra import (
    Algebra,
    AlgebraHom,
    equal_algebras,
    field_algebra,
    make_algebra,
)
from qfcert.coring import (
    Coring,
    is_qf_coring,
    left_dual_ring,
    right_dual_ring,
    sweedler,
    trivial_coring,
)
from qfcert.errors import (
    CounitFails,
    NotBimoduleMap,
    NotCoassociative,
    UsageError,
    ValidationError,
)
from qfcert.modrep import (
    Bimodule,
    LeftModule,
    _presentation,
    _presented_projection,
    as_bimodule,
    regular_bimodule,
    tensor_over,
    triple_projection,
)
from qfcert.ringext import Extension

from helpers import (
    LARGEST_PRIME,
    balanced_relations,
    balancing_quotient,
    conjugated,
    count_calls,
    dense_basis_change,
    dual_maps,
    dual_numbers,
    group_alg,
    identity_hom,
    mat_units_algebra,
    moved_dual_bimodule,
    rebased,
)
from oracles import (
    Comodule,
    comodule_to_module,
    cotensor,
    cotensor_map,
    plain_comodule,
    regular_comodule,
)

P = 5


def unit_extension(target):
    f = field_algebra(target.p)
    col = np.array(target.unit, dtype=np.int64).reshape(-1, 1)
    return Extension(AlgebraHom(f, target, col))


def glued_coring(p):
    """A + (1-dim trivial bimodule) over the dual numbers; the comultiplication
    is a |-> a (x) 1 on the ring part and t |-> 1 (x) t + t (x) 1 on the glued
    socle element.  Valid coring, but the carrier is not projective."""
    dn = dual_numbers(p)
    la = np.zeros((2, 3, 3), dtype=np.int64)
    ra = np.zeros((2, 3, 3), dtype=np.int64)
    la[0] = np.eye(3, dtype=np.int64)
    ra[0] = np.eye(3, dtype=np.int64)
    la[1][1, 0] = 1
    ra[1][1, 0] = 1
    carrier = Bimodule(dn, dn, la, ra)
    raw = np.zeros((9, 3), dtype=np.int64)
    raw[0, 0] = 1
    raw[3, 1] = 1
    raw[2, 2] = 1
    raw[6, 2] = 1
    eps = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    return Coring(dn, carrier, raw, eps)


@pytest.fixture(scope="module")
def sweedler_dualnum():
    return sweedler(unit_extension(dual_numbers(P)))


@pytest.fixture(scope="module")
def glued():
    return glued_coring(P)


# ---------------------------------------------------------------------------
# construction and validation


def test_trivial_coring_validates():
    for alg in (group_alg(P, 2), dual_numbers(7), mat_units_algebra(P, 2)):
        c = trivial_coring(alg)
        assert c.dim == alg.dim
        assert c.tensor_square.dim == alg.dim


def test_sweedler_carrier_and_counit_dualnum(sweedler_dualnum):
    sw = sweedler_dualnum
    # base field relations are empty, so the carrier is the raw tensor square
    assert sw.dim == 4
    assert sw.tensor_square.dim == 8
    # eps is multiplication: 1(x)1 -> 1, 1(x)x and x(x)1 -> x, x(x)x -> 0
    assert np.array_equal(sw.eps, np.array([[1, 0, 0, 0], [0, 1, 1, 0]]))


def test_sweedler_delta_splits_pure_tensors(sweedler_dualnum):
    sw = sweedler_dualnum
    # Delta(class(e_i (x) e_j)) = class((e_i (x) 1)) (x) class((1 (x) e_j))
    for i in range(2):
        for j in range(2):
            vm = np.zeros(4, dtype=np.int64)
            vm[2 * i] = 1
            vn = np.zeros(4, dtype=np.int64)
            vn[j] = 1
            expected = linalg.matmul(sw.tensor_square.proj, np.kron(vm, vn).reshape(-1, 1), P).ravel()
            assert np.array_equal(sw.delta[:, 2 * i + j], expected)


def test_sweedler_of_identity_extension_has_trivial_shape():
    alg = group_alg(P, 2)
    sw = sweedler(Extension(identity_hom(alg)))
    assert sw.dim == alg.dim


def test_zero_counit_rejected():
    alg = dual_numbers(P)
    triv = trivial_coring(alg)
    with pytest.raises(CounitFails):
        Coring(alg, triv.carrier, triv.delta_rep(), np.zeros((2, 2), dtype=np.int64))


def test_non_bimodule_delta_rejected():
    alg = dual_numbers(P)
    triv = trivial_coring(alg)
    bad = triv.delta_rep()
    bad[:, 1] = bad[:, 0]  # Delta(x) := 1 (x) 1
    with pytest.raises(NotBimoduleMap) as e:
        Coring(alg, triv.carrier, bad, triv.eps)
    assert e.value.which == "delta"


def non_associative_mul():
    """A NON-associative unital 3-dim multiplication: u u = v, u v = 1, the
    rest zero apart from the unit e_0."""
    m = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        m[0, j, j] = 1
        m[j, 0, j] = 1
    m[1, 1, 2] = 1
    m[1, 2, 0] = 1
    return m


def test_non_coassociative_rejected():
    # dual of a non-associative unital 3-dim algebra; counit laws hold
    # because the unit axioms do
    f5 = field_algebra(P)
    m = non_associative_mul()
    carrier = Bimodule(
        f5,
        f5,
        np.eye(3, dtype=np.int64).reshape(1, 3, 3),
        np.eye(3, dtype=np.int64).reshape(1, 3, 3),
    )
    # delta[:, k] = sum_{i,j} m[i,j,k] e_{3i+j}
    delta = m.transpose(2, 0, 1).reshape(3, 9).T % P
    eps = np.array([[1, 0, 0]], dtype=np.int64)
    with pytest.raises(NotCoassociative):
        Coring(f5, carrier, delta, eps)


def base_changed_coring(a, m):
    """A (x) D over a commutative base A, for the 3-dim "coalgebra" D dual to
    the unital multiplication m (counit: the dual of the unit e_0).  Both
    actions are on the A factor and a (x) d |-> sum (a (x) d1) (x) (1 (x) d2),
    so the result is coassociative exactly when D is."""
    da = a.dim
    eye = np.eye(da, dtype=np.int64)
    carrier = Bimodule(
        a,
        a,
        np.stack([np.kron(x, np.eye(3, dtype=np.int64)) for x in a.left_mult]),
        np.stack([np.kron(x, np.eye(3, dtype=np.int64)) for x in a.right_mult]),
    )
    # rows (a, d1, u, d2) of the raw square, columns (a, d)
    delta = np.einsum("ab,ijk,u->aiujbk", eye, m, a.unit).reshape(9 * da * da, 3 * da) % P
    eps = np.kron(eye, np.array([[1, 0, 0]], dtype=np.int64))
    return Coring(a, carrier, delta, eps)


@pytest.mark.parametrize("base", [group_alg(P, 2), dual_numbers(P)], ids=["f5-c2", "dualnum"])
def test_non_coassociative_rejected_over_a_larger_base(base):
    with pytest.raises(NotCoassociative):
        base_changed_coring(base, non_associative_mul())
    # F_5[x]/(x^3) is associative, so its base change is a coring
    good = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3 - i):
            good[i, j, i + j] = 1
    assert base_changed_coring(base, good).dim == 3 * base.dim


def zero_bimodule(a):
    z = np.zeros((a.dim, 0, 0), dtype=np.int64)
    return Bimodule(a, a, z, z)


def quotient_pairs(p):
    """Bimodule pairs (M, N) whose presentation of N has a kernel K != 0,
    then the M2 Sweedler carrier, which is free over M2 and so presented
    with no relations, then two with a zero-dimensional factor."""
    m2 = fixtures.mat_units_algebra(p, 2)
    dn = fixtures.dual_numbers(p)
    c2 = group_alg(p, 2)
    ext = fixtures.unit_extension(m2)
    sw_m2 = tensor_over(ext.source, ext.bimodule_sr, ext.bimodule_rs)  # the M2 Sweedler carrier
    with_kernel = [
        (regular_bimodule(dn), as_bimodule(fixtures.socle_module_dualnum(p))),
        (regular_bimodule(m2), as_bimodule(fixtures.column_module(p))),
        (regular_bimodule(c2), as_bimodule(LeftModule(c2, np.ones((2, 1, 1), dtype=np.int64)))),
    ]
    zero_dim = [(regular_bimodule(dn), zero_bimodule(dn)), (zero_bimodule(dn), regular_bimodule(dn))]
    return with_kernel, [(sw_m2, sw_m2)], zero_dim


def test_presented_quotient_matches_the_balancing_quotient():
    for p in (P, 20011, 47_453_149, LARGEST_PRIME):
        with_kernel, free, zero_dim = quotient_pairs(p)
        for m, n in with_kernel:
            # k generators, k * dim A > dim N
            gens, ker, _ = _presentation(p, n.left_acts)
            assert gens.shape[1] * m.right_alg.dim > n.dim and ker.shape[1] > 0
        for m, n in free:
            gens, ker, _ = _presentation(p, n.left_acts)
            assert gens.shape[1] * m.right_alg.dim == n.dim and ker.shape[1] == 0
        for m, n in with_kernel + free + zero_dim:
            s_alg = m.right_alg
            presented = _presented_projection(p, m.right_acts, n.left_acts)
            ref_proj, ref_sect = balancing_quotient(s_alg, m, n)
            q = ref_proj.shape[0]
            # same kernel: the two projections span the same row space
            assert presented.shape == ref_proj.shape
            assert linalg.rank(np.concatenate([presented, ref_proj]), p) == q == linalg.rank(presented, p)
            # the applied form is the projection times its argument
            x = np.arange(m.dim * n.dim * 3, dtype=np.int64).reshape(m.dim * n.dim, 3) % p
            applied = _presented_projection(p, m.right_acts, n.left_acts, x)
            assert np.array_equal(applied, linalg.matmul(presented, x, p))
            # and the canonical basis recovered from it is the reference's
            t = tensor_over(s_alg, m, n)
            assert np.array_equal(t.proj, ref_proj) and np.array_equal(t.sect, ref_sect)


def dense_trivial_coring_m2(p, seed=0):
    """The trivial coring of M2(F_p) in a random dense basis, on a carrier
    conjugated by a random dense matrix c: Delta(c x) = (c (x) c)(x (x) 1)
    and eps(c x) = x."""
    rng = np.random.RandomState(seed)
    plain = mat_units_algebra(p, 2)
    t, t_inv = dense_basis_change(plain.dim, p, rng)
    a = make_algebra(p, *rebased(plain, t, t_inv))
    c, c_inv = dense_basis_change(a.dim, p, rng)
    carrier = Bimodule(a, a, conjugated(a.left_mult, c, c_inv, p), conjugated(a.right_mult, c, c_inv, p))
    c, c_inv = np.array(c, dtype=np.int64), np.array(c_inv, dtype=np.int64)
    # (c (x) c) kron(x, 1) = kron(c, c 1) x, taken at x = c^-1 v
    c_unit = linalg.matmul(c, a.unit.reshape(-1, 1), p)
    raw = linalg.matmul(np.kron(c, c_unit) % p, c_inv, p)
    return Coring(a, carrier, raw, c_inv)


@pytest.mark.parametrize("p", [1_000_000_007, LARGEST_PRIME])
def test_dense_trivial_coring_is_exact_at_large_primes(p):
    c = dense_trivial_coring_m2(p)
    regular_comodule(c, "left")
    regular_comodule(c, "right")
    assert is_qf_coring(c).verdict == report.YES


@pytest.fixture(scope="module")
def sweedler_m2():
    return sweedler(unit_extension(mat_units_algebra(P, 2)))


def applied_to_identity(t, n, block=512):
    """``triple_projection`` of every raw unit vector, in column blocks."""
    dim = t.proj.shape[1] * n.dim
    return np.concatenate(
        [triple_projection(t, n, np.eye(dim, min(block, dim - j), -j, dtype=np.int64)) for j in range(0, dim, block)],
        axis=1,
    )


@pytest.mark.parametrize("name", ["sweedler-dualnum", "glued", "sweedler-m2"])
def test_triple_projection_kernel_is_both_balancing_families(name, sweedler_dualnum, glued, sweedler_m2):
    c = {"sweedler-dualnum": sweedler_dualnum, "glued": glued, "sweedler-m2": sweedler_m2}[name]
    dc = c.dim
    rel = balanced_relations(c.base, c.carrier, c.carrier)
    proj3 = applied_to_identity(c.tensor_square, c.carrier)
    q3 = proj3.shape[0]
    # proj3 kills rel (x) C and C (x) rel, the rows of the reference rel3
    assert not linalg.kron_apply(P, rel, proj3.T, dc, False).any()
    assert not linalg.kron_apply(P, rel, proj3.T, dc, True).any()
    # and kills nothing else: rel3 has rank dc^3 - q3.  That rank is the
    # rank of rel (x) C plus that of C (x) rel on the first one's kernel,
    # kron(Z, I) for a nullspace basis Z of rel
    red, _, r = linalg.rref(rel, P)
    z = linalg.nullspace(rel, P)
    on_kernel = linalg.kron_apply(P, red[:r], np.kron(z, np.eye(dc, dtype=np.int64)), dc, True)
    rel3_rank = r * dc + linalg.rank(on_kernel, P)
    if dc**3 <= 729:
        eye = np.eye(dc, dtype=np.int64)
        rel3 = np.concatenate([np.kron(rel, eye), np.kron(eye, rel)]) % P
        assert linalg.rank(rel3, P) == rel3_rank
    assert linalg.rank(proj3, P) == q3 == dc**3 - rel3_rank


def test_coassociativity_never_builds_the_triple_projection(sweedler_m2, monkeypatch):
    # no product in the check outputs more than dim C^3 x dim C entries,
    # the size of the two raw comultiplication legs it compares
    dc, sizes = sweedler_m2.dim, []
    matmul = linalg.matmul

    def recorded(a, b, q):
        sizes.append(a.shape[0] * b.shape[1])
        return matmul(a, b, q)

    monkeypatch.setattr(linalg, "matmul", recorded)
    sweedler_m2._check_coassociative()
    assert sizes and max(sizes) <= dc**3 * dc


def test_glued_coring_is_valid(glued):
    assert glued.dim == 3
    assert glued.tensor_square.dim == 5


# ---------------------------------------------------------------------------
# convolution dual rings


def test_dual_rings_of_trivial_coring_recover_base():
    alg = group_alg(P, 3)
    c = trivial_coring(alg)
    for dual in (left_dual_ring(c), right_dual_ring(c)):
        assert dual.target.dim == alg.dim
        # the base embedding is bijective here
        assert linalg.invert(dual.hom.matrix, P) is not None


def test_trivial_coring_left_action_maps_are_right_multiplications():
    alg = dual_numbers(P)
    c = trivial_coring(alg)
    dl, maps = left_dual_ring(c), dual_maps(c, "left")
    for t in range(dl.target.dim):
        val = linalg.matmul(maps.basis[t], np.array(alg.unit).reshape(-1, 1), P).ravel()
        assert np.array_equal(dl.action_maps[t], linalg.combine(val.reshape(-1, 1), alg.right_mult, P)[0])


def test_convolution_action_maps_compose(sweedler_dualnum):
    # left side: the action map of f*g is act(g) . act(f); right side dually
    dl = left_dual_ring(sweedler_dualnum)
    for i in range(dl.target.dim):
        for j in range(dl.target.dim):
            prod = np.einsum("k,kab->ab", dl.target.mul[i, j], dl.action_maps) % P
            assert np.array_equal(prod, linalg.matmul(dl.action_maps[j], dl.action_maps[i], P))
    dr = right_dual_ring(sweedler_dualnum)
    for i in range(dr.target.dim):
        for j in range(dr.target.dim):
            prod = np.einsum("k,kab->ab", dr.target.mul[i, j], dr.action_maps) % P
            assert np.array_equal(prod, linalg.matmul(dr.action_maps[i], dr.action_maps[j], P))


def test_sweedler_dualnum_dual_ring_dims(sweedler_dualnum):
    assert left_dual_ring(sweedler_dualnum).target.dim == 4
    assert right_dual_ring(sweedler_dualnum).target.dim == 4


def test_glued_dual_ring_is_local_three_dim(glued):
    dl = left_dual_ring(glued)
    assert dl.target.dim == 3
    # the embedding sends the nilpotent x to a nonzero nilpotent
    img = dl.hom.matrix[:, 1]
    assert img.any()
    sq = dl.target.multiply(img, img)
    assert not sq.any()


def test_dual_ring_unit_bimodules_are_the_moved_basis_maps():
    # *C over (A, *C) and C* over (C*, A) are the unit bimodules of the
    # extensions by i and i': i(a) * f = f(x a) and f * i'(a) = f(a x)
    corings = [schema.expect(f.docs[0], "coring") for f in fixtures.corpus() if f.command == "check-coring"]
    assert len(corings) == 10
    for c in corings:
        dl, dr = left_dual_ring(c), right_dual_ring(c)
        for got, ref in ((dl.bimodule_rs, moved_dual_bimodule(c, dl, "left")), (dr.bimodule_sr, moved_dual_bimodule(c, dr, "right"))):
            assert equal_algebras(got.left_alg, ref.left_alg) and equal_algebras(got.right_alg, ref.right_alg)
            assert np.array_equal(got.left_acts, ref.left_acts)
            assert np.array_equal(got.right_acts, ref.right_acts)


# ---------------------------------------------------------------------------
# the quasi-Frobenius decision


def test_is_qf_coring_trivial_yes():
    out = is_qf_coring(trivial_coring(group_alg(P, 2)))
    assert out.verdict == report.YES
    assert len(out.checks) == 5
    assert all(ch.verdict == report.YES for ch in out.checks)


def test_is_qf_coring_sweedler_dualnum_yes(sweedler_dualnum):
    out = is_qf_coring(sweedler_dualnum)
    assert out.verdict == report.YES
    assert all(ch.verdict == report.YES for ch in out.checks)


def test_is_qf_coring_glued_no(glued):
    out = is_qf_coring(glued)
    assert out.verdict == report.NO
    assert len(out.checks) == 5
    assert all(ch.verdict == report.NO for ch in out.checks)


def test_check_coring_runs_each_similarity_and_route_once(monkeypatch):
    # five conditions: one similarity each for conditions 1, 2 and 4 and for
    # the two unit-bimodule routes of condition 3, the second of which is
    # condition 5 and is reported there without being run again; none of
    # them decomposes
    doc = schema.coring_document(sweedler(unit_extension(group_alg(P, 2))))
    decompositions = count_calls(monkeypatch, decomp.decompose)
    similarities = count_calls(monkeypatch, simdiv.similar)
    qf_bimodule_runs = count_calls(monkeypatch, simdiv.is_qf_bimodule)
    out = cli.run_documents("check-coring", [doc], seed=0)
    assert out.verdict == report.YES
    assert (decompositions, similarities, qf_bimodule_runs) == ([0], [5], [3])


def test_check_coring_runs_no_closure_on_an_envelope(monkeypatch):
    # no decision decomposes, so no generating set is closed, on an
    # envelope or on any other algebra
    doc = schema.coring_document(sweedler(unit_extension(group_alg(P, 2))))
    closures = []
    original = Algebra.generating_indices

    def recorded(self):
        closures.append(type(self))
        return original(self)

    monkeypatch.setattr(Algebra, "generating_indices", recorded)
    out = cli.run_documents("check-coring", [doc], seed=0)
    assert out.verdict == report.YES
    assert closures == []


# ---------------------------------------------------------------------------
# comodules


def test_regular_comodules_validate(sweedler_dualnum):
    for c in (trivial_coring(dual_numbers(P)), sweedler_dualnum):
        for side in ("left", "right"):
            com = regular_comodule(c, side)
            assert com.dim == c.dim


def test_plain_comodule_over_trivial_coring():
    alg = dual_numbers(P)
    c = trivial_coring(alg)
    # a right module becomes a comodule via m |-> m (x) 1
    action = alg.right_mult  # the regular right module
    amb = tensor_over(alg, Bimodule(field_algebra(P), alg,
                                    np.eye(2, dtype=np.int64).reshape(1, 2, 2), action),
                      c.carrier)
    unit_col = np.array(alg.unit, dtype=np.int64).reshape(-1, 1)
    coaction = linalg.matmul(amb.proj, np.kron(np.eye(2, dtype=np.int64), unit_col) % P, P)
    com = plain_comodule(c, "right", action, coaction)
    assert com.dim == 2


def test_broken_coaction_rejected(sweedler_dualnum):
    c = sweedler_dualnum
    good = regular_comodule(c, "right")
    bad = good.coaction.copy()
    bad[:, 0] = (bad[:, 0] + bad[:, 1]) % P
    with pytest.raises(ValidationError):
        Comodule(c, "right", c.carrier, bad)


def test_comodule_to_module_trivial_coring():
    alg = dual_numbers(P)
    c = trivial_coring(alg)
    com = regular_comodule(c, "right")
    mod = comodule_to_module(com)
    dl, maps = left_dual_ring(c), dual_maps(c, "left")
    # over the trivial coring the dual acts through evaluation at 1
    for t in range(dl.target.dim):
        val = linalg.matmul(maps.basis[t], np.array(alg.unit).reshape(-1, 1), P).ravel()
        assert np.array_equal(mod.action[t], linalg.combine(val.reshape(-1, 1), alg.right_mult, P)[0])


def test_comodule_to_module_left_side(sweedler_dualnum):
    com = regular_comodule(sweedler_dualnum, "left")
    mod = comodule_to_module(com)
    assert mod.dim == sweedler_dualnum.dim
    assert mod.algebra.dim == 4


def test_comodule_to_module_requires_projective_carrier(glued):
    com = regular_comodule(glued, "right")
    with pytest.raises(ValidationError, match="not finitely generated projective as a left module"):
        comodule_to_module(com)


# ---------------------------------------------------------------------------
# cotensor


def regular_pair(c):
    return regular_comodule(c, "right"), regular_comodule(c, "left")


def brute_cotensor_dim(m, n):
    """Independent count: enumerate the ambient quotient and test membership
    of the coaction difference in the raw relation span."""
    c = m.coring
    p = c.p
    dm, dc, dn = m.dim, c.dim, n.dim
    amb = tensor_over(c.base, m.carrier, n.carrier)
    route = (linalg.matmul(np.kron(m.rep, np.eye(dn, dtype=np.int64)) % p, amb.sect, p)
             - linalg.matmul(np.kron(np.eye(dm, dtype=np.int64), n.rep) % p, amb.sect, p)) % p
    rel3 = np.concatenate(
        [
            np.kron(balanced_relations(c.base, m.carrier, c.carrier), np.eye(dn, dtype=np.int64)) % p,
            np.kron(np.eye(dm, dtype=np.int64), balanced_relations(c.base, c.carrier, n.carrier)) % p,
        ],
        axis=0,
    )
    count = 0
    vecs = np.zeros(amb.dim, dtype=np.int64)
    total = p ** amb.dim
    for code in range(total):
        x = code
        for i in range(amb.dim):
            vecs[i] = x % p
            x //= p
        w = linalg.matmul(route, vecs.reshape(-1, 1), p)
        if not w.any():
            count += 1
        elif rel3.shape[0] and linalg.solve_right(rel3.T, w, p) is not None:
            count += 1
    # count = p^dim of the solution space
    d = 0
    while count > 1:
        count //= p
        d += 1
    return d


def test_cotensor_with_regular_comodule_recovers_the_other_factor(sweedler_dualnum):
    for c in (trivial_coring(dual_numbers(P)), sweedler_dualnum):
        cm, cn = regular_pair(c)
        cot = cotensor(cm, cn)
        assert cot.dim == c.dim
        # the comultiplication factors through the cotensor subspace
        sol = linalg.solve_right(cot.basis, cn.coaction, P)
        assert sol is not None
        assert linalg.invert(sol, P) is not None


def test_cotensor_over_trivial_coring_is_full_tensor():
    alg = dual_numbers(P)
    c = trivial_coring(alg)
    cm, cn = regular_pair(c)
    cot = cotensor(cm, cn)
    amb = tensor_over(alg, cm.carrier, cn.carrier)
    assert cot.dim == amb.dim


def test_cotensor_dim_matches_enumeration(glued, sweedler_dualnum):
    for c in (trivial_coring(dual_numbers(P)), glued):
        cm, cn = regular_pair(c)
        cot = cotensor(cm, cn)
        assert cot.dim == brute_cotensor_dim(cm, cn)


def test_cotensor_outer_actions_survive(sweedler_dualnum):
    cm, cn = regular_pair(sweedler_dualnum)
    cot = cotensor(cm, cn)
    # the bimodule carries the outer (S, S)-actions of the two carriers
    assert cot.bimodule.left_alg.dim == 2
    assert cot.bimodule.right_alg.dim == 2
    assert cot.bimodule.dim == cot.dim


def test_cotensor_map_identity_and_sum(sweedler_dualnum):
    c = sweedler_dualnum
    cm, cn = regular_pair(c)
    eye = np.eye(c.dim, dtype=np.int64)
    assert np.array_equal(cotensor_map(cm, cn, cn, eye), np.eye(cotensor(cm, cn).dim, dtype=np.int64))
    two = cotensor_map(cm, cn, cn, (2 * eye) % P)
    assert np.array_equal(two, (2 * np.eye(cotensor(cm, cn).dim, dtype=np.int64)) % P)
    unit = np.zeros_like(eye)
    unit[0, 1] = 1
    with pytest.raises(UsageError, match="does not commute with the coactions"):
        cotensor_map(cm, cn, cn, unit)


def test_cotensor_map_into_doubled_comodule(sweedler_dualnum):
    c = sweedler_dualnum
    cm, cn = regular_pair(c)
    dn, dc = cn.dim, c.dim
    # double comodule N + N, coaction assembled blockwise
    car2 = Bimodule(
        c.base,
        cn.carrier.right_alg,
        np.stack([np.kron(np.eye(2, dtype=np.int64), cn.carrier.left_acts[a]) % P
                  for a in range(c.base.dim)]),
        np.stack([np.kron(np.eye(2, dtype=np.int64), cn.carrier.right_acts[a]) % P
                  for a in range(cn.carrier.right_alg.dim)]),
    )
    t2 = tensor_over(c.base, c.carrier, car2)
    e1 = np.zeros((2 * dn, dn), dtype=np.int64)
    e1[:dn] = np.eye(dn, dtype=np.int64)
    e2 = np.zeros((2 * dn, dn), dtype=np.int64)
    e2[dn:] = np.eye(dn, dtype=np.int64)
    raw2 = np.concatenate(
        [
            linalg.matmul(np.kron(np.eye(dc, dtype=np.int64), e1) % P, cn.rep, P),
            linalg.matmul(np.kron(np.eye(dc, dtype=np.int64), e2) % P, cn.rep, P),
        ],
        axis=1,
    )
    coaction2 = linalg.matmul(t2.proj, raw2, P)
    cn2 = Comodule(c, "left", car2, coaction2)
    y1 = cotensor_map(cm, cn, cn2, e1)
    y2 = cotensor_map(cm, cn, cn2, e2)
    base_dim = cotensor(cm, cn).dim
    assert cotensor(cm, cn2).dim == 2 * base_dim
    assert linalg.rank(y1, P) == base_dim
    assert linalg.rank(np.concatenate([y1, y2], axis=1), P) == 2 * base_dim


def test_cotensor_map_rejects_non_comodule_map(sweedler_dualnum):
    cm, cn = regular_pair(sweedler_dualnum)
    bad = np.eye(cn.dim, dtype=np.int64)
    bad[0, 0] = 2
    with pytest.raises(UsageError):
        cotensor_map(cm, cn, cn, bad)


def test_cotensor_kron_ordering_nontrivial_double():
    # same doubling over a coring with relations (glued): interleaving must
    # not matter for dimensions
    c = glued_coring(P)
    cm, cn = regular_pair(c)
    cot = cotensor(cm, cn)
    assert cot.dim == brute_cotensor_dim(cm, cn)
