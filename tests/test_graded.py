"""Group gradings: construction, (co)induction, suspension, QF restriction."""

import numpy as np
import pytest

from qfcert import decomp, graded, linalg, report, verify
from qfcert.algebra import check_group_table, group_algebra, make_algebra, solve_unit
from qfcert.errors import NotAGroup, NotGraded, NotUnital, UsageError
from qfcert.modrep import LeftModule, envelope_module, hom_space, regular_left, restrict_bimodule, tensor_over
from qfcert.simdiv import similar

from helpers import (
    count_calls,
    cyclic_table,
    equal_modules,
    mat_units_algebra,
    outcome_rows,
    reference_coinduce,
    reference_coinduced_bimodule,
    reference_induce,
    s3_table,
    upper_triangular2,
)
from oracles import GradedModule, coinduce, equal_graded_modules, graded_regular, induce, restrict_e, suspend

C2 = cyclic_table(2)


def f5c2_graded():
    return graded.grade_by_partition(group_algebra(5, C2), C2, [[0], [1]])


def t2_graded(p=5):
    # diagonal in degree e, strict upper triangle in degree g
    return graded.grade_by_partition(upper_triangular2(p), C2, [[0, 1], [2]])


def square_zero_graded(p=5):
    """F_p[x, y]/(x, y)^2 by C2: R_e = <1, x> and R_1 = <y>."""
    mul = np.zeros((3, 3, 3), dtype=np.int64)
    mul[0, 0, 0] = mul[0, 1, 1] = mul[1, 0, 1] = mul[0, 2, 2] = mul[2, 0, 2] = 1
    return graded.grade_by_partition(make_algebra(p, mul, [1, 0, 0]), C2, [[0, 1], [2]])


def trace_divides(m, n):
    """Oracle: m divides some finite power of n, by the trace-span test.

    A split pair through n^k exists iff id_m is a sum of composites
    g . f with f in Hom(m, n) and g in Hom(n, m), which is one exact
    linear solve over the products of hom-space basis elements.
    """
    p = m.p
    if m.dim == 0:
        return True
    hf = hom_space(envelope_module(m), envelope_module(n))
    hg = hom_space(envelope_module(n), envelope_module(m))
    if hf.k == 0 or hg.k == 0:
        return False
    prods = np.einsum("iab,jbc->ijac", hg.basis, hf.basis).reshape(hg.k * hf.k, m.dim * m.dim) % p
    target = linalg.identity(m.dim).reshape(-1)
    return linalg.solve_right(prods.T, target, p) is not None


# ---------------------------------------------------------------- construction


def test_check_group_table_inverses():
    t, e, inv = check_group_table(cyclic_table(3))
    assert e == 0
    assert inv == [0, 2, 1]
    with pytest.raises(NotAGroup):
        check_group_table([[0, 1], [1, 1]])


def test_solve_unit():
    ga = group_algebra(5, C2)
    u = solve_unit(ga.mul, 5)
    assert np.array_equal(u.reshape(-1), ga.unit)
    assert solve_unit(np.zeros((2, 2, 2), dtype=np.int64), 5) is None


def test_grade_by_partition_f5c2():
    r = f5c2_graded()
    assert r.dims == [1, 1]
    assert r.r_e.dim == 1
    assert r.total.dim == 2
    assert np.array_equal(r.total.unit, np.array([1, 0]))
    # g * g = e lands in the identity component
    assert np.array_equal(r.products[1][1], np.array([[[1]]]))


def test_partition_must_cover_exactly():
    ga = group_algebra(5, C2)
    with pytest.raises(UsageError):
        graded.grade_by_partition(ga, C2, [[0], [0, 1]])
    with pytest.raises(UsageError):
        graded.grade_by_partition(ga, C2, [[0], []])


def test_partition_leak_rejected():
    # e11, e12 in degree e and e22 in degree g is not a grading:
    # e22 * e22 = e22 would have to land in the identity component
    with pytest.raises(NotGraded):
        graded.grade_by_partition(upper_triangular2(5), C2, [[0, 2], [1]])


def test_zero_products_not_unital():
    z = np.zeros((1, 1, 1), dtype=np.int64)
    with pytest.raises(NotUnital):
        graded.GradedRing(5, C2, [1, 1], [[z, z], [z, z]])


def test_graded_module_blocks_validated():
    r = f5c2_graded()
    # the regular action satisfies the module laws but the degree-g
    # generator moves the claimed identity block into the zero block
    with pytest.raises(NotGraded):
        GradedModule(r, [2, 0], r.total.left_mult)


def test_graded_regular_and_restrict_e():
    for ring in (f5c2_graded(), t2_graded()):
        m = graded_regular(ring)
        assert m.dims == ring.dims
        assert equal_modules(restrict_e(m), regular_left(ring.r_e))


# ------------------------------------------------------- induction adjunction


def test_induce_regular_gives_ring_back():
    for ring in (f5c2_graded(), t2_graded()):
        ind = induce(ring, regular_left(ring.r_e))
        assert ind.dims == ring.dims
        assert decomp.iso(ind.total, regular_left(ring.total)) is not None


def test_coinduce_dims():
    co = coinduce(f5c2_graded(), regular_left(f5c2_graded().r_e))
    assert co.dims == [1, 1]
    # group algebras are self-dual, so the coinduced module is the ring again
    assert decomp.iso(co.total, regular_left(f5c2_graded().total)) is not None
    rt = t2_graded()
    co2 = coinduce(rt, regular_left(rt.r_e))
    # Hom(R_e, R_e) is two-dimensional, Hom(R_g, R_e) one-dimensional
    assert co2.dims == [2, 1]


def test_induce_wrong_base_rejected():
    r = f5c2_graded()
    with pytest.raises(UsageError):
        induce(r, regular_left(r.total))
    with pytest.raises(UsageError):
        coinduce(r, regular_left(r.total))


def test_zero_components_trivial_grading():
    ga = group_algebra(5, C2)
    triv = graded.grade_by_partition(ga, C2, [[0, 1], []])
    assert triv.dims == [2, 0]
    n = regular_left(triv.r_e)
    assert induce(triv, n).dims == [2, 0]
    assert coinduce(triv, n).dims == [2, 0]


def _one_dim_module(ring, weights):
    return LeftModule(ring.r_e, np.array(weights, dtype=np.int64).reshape(-1, 1, 1))


def _gradings():
    """(ring, extra R_e-modules) for each grading the one-construction
    functors are compared on; the regular module is always tested too."""
    c3, s3 = cyclic_table(3), s3_table()
    sq = square_zero_graded()
    m2 = graded.grade_by_partition(mat_units_algebra(5, 2), C2, [[0, 3], [1, 2]])
    return {
        "f5-c2": (f5c2_graded(), []),
        "f7-c2": (graded.grade_by_partition(group_algebra(7, C2), C2, [[0], [1]]), []),
        "t2-f5": (t2_graded(5), []),
        "t2-f7": (t2_graded(7), []),
        "f7-c3": (graded.grade_by_partition(group_algebra(7, c3), c3, [[0], [1], [2]]), []),
        "f5-s3": (graded.grade_by_partition(group_algebra(5, s3), s3, [[i] for i in range(6)]), []),
        "f5-c2-empty-component": (graded.grade_by_partition(group_algebra(5, C2), C2, [[0, 1], []]), []),
        # the socle of R_e = F_5[x]/(x^2): x acts by zero
        "square-zero": (sq, [_one_dim_module(sq, [1, 0])]),
        # the diagonal of M_2(F_5) in degree e; e11 acts by one, e22 by zero
        "m2-f5": (m2, [_one_dim_module(m2, [1, 0])]),
    }


@pytest.mark.parametrize("name", sorted(_gradings()))
def test_induce_and_coinduce_equal_the_componentwise_assembly(name, monkeypatch):
    ring, extra = _gradings()[name]
    tensors = count_calls(monkeypatch, tensor_over)
    homs = count_calls(monkeypatch, hom_space)
    for n in [regular_left(ring.r_e)] + extra:
        ind = induce(ring, n)
        dims, act = reference_induce(ring, n)
        assert ind.dims == dims and np.array_equal(ind.total.action, act)
        co = coinduce(ring, n)
        dims, act, _ = reference_coinduce(ring, n)
        assert co.dims == dims and np.array_equal(co.total.action, act)
    # one tensor product and one hom space per module, none per component
    assert tensors[0] == homs[0] == len(extra) + 1
    zero = LeftModule(ring.r_e, np.zeros((ring.r_e.dim, 0, 0), dtype=np.int64))
    assert induce(ring, zero).dims == coinduce(ring, zero).dims == [0] * ring.order


@pytest.mark.parametrize("name", sorted(_gradings()))
def test_restriction_bimodules_are_the_inclusion_and_its_left_dual(name):
    ring = _gradings()[name][0]
    br, bc = graded.restriction_bimodules(ring)
    be = ring.block(ring.e)
    assert np.array_equal(br.left_acts, ring.total.left_mult)
    assert np.array_equal(br.right_acts, ring.total.right_mult[be])
    # the left dual's basis maps, each on one component, ordered by degree
    h = hom_space(restrict_bimodule(ring.extension.bimodule_rs, "left"), regular_left(ring.r_e))
    sources = [np.searchsorted(ring.offsets, np.flatnonzero(f.any(axis=0))[0], side="right") - 1 for f in h.basis]
    inv = check_group_table(ring.table)[2]
    order = np.argsort([inv[x] for x in sources], kind="stable")
    ref = reference_coinduced_bimodule(ring)
    assert np.array_equal(bc.left_acts[:, order][:, :, order], ref.left_acts)
    assert np.array_equal(bc.right_acts[:, order][:, :, order], ref.right_acts)


# ----------------------------------------------------------------- suspension


def test_suspend_dims_and_involution():
    rt = t2_graded()
    m = graded_regular(rt)
    s = suspend(m, 1)
    assert s.dims == [1, 2]
    assert s.total.dim == m.total.dim
    assert equal_graded_modules(suspend(s, 1), m)


def test_suspension_group_action_s3():
    t = s3_table()
    ring = graded.grade_by_partition(
        group_algebra(5, t), t, [[i] for i in range(6)]
    )
    m = suspend(graded_regular(ring), 3)  # start off-center
    for x in range(6):
        for y in range(6):
            lhs = suspend(suspend(m, y), x)
            rhs = suspend(m, t[x][y])
            assert equal_graded_modules(lhs, rhs), (x, y)
    assert equal_graded_modules(suspend(m, ring.e), m)


# ------------------------------------------------------------- the QF decision


def test_f5c2_restriction_qf_with_verified_certs():
    r = f5c2_graded()
    out = graded.is_qf_restriction(r)
    assert out.verdict == report.YES
    assert [c.verdict for c in out.checks] == [report.YES] * 3
    assert out.checks[0].certificate["kind"] == "split-witness"
    assert out.checks[-1].certificate["kind"] == "similarity"
    br, bc = graded.restriction_bimodules(r)
    sim = similar(br, bc)
    assert sim is not None
    assert verify.verify_payload(sim.forward.payload()) == (True, [])
    assert verify.verify_payload(sim.backward.payload()) == (True, [])
    # oracle agrees in both directions
    assert trace_divides(br, bc) and trace_divides(bc, br)


def test_trivial_grading_restriction_qf():
    ga = group_algebra(5, C2)
    triv = graded.grade_by_partition(ga, C2, [[0, 1], []])
    out = graded.is_qf_restriction(triv)
    assert out.verdict == report.YES


def test_f7c3_restriction_qf():
    t = cyclic_table(3)
    ring = graded.grade_by_partition(group_algebra(7, t), t, [[0], [1], [2]])
    out = graded.is_qf_restriction(ring)
    assert out.verdict == report.YES
    assert len(out.checks) == 4


def test_t2_restriction_not_qf_matches_oracle():
    rt = t2_graded()
    out = graded.is_qf_restriction(rt)
    assert out.verdict == report.NO
    # every component is projective over the semisimple diagonal...
    assert [c.verdict for c in out.checks[:2]] == [report.YES, report.YES]
    # ...so the failure is the similarity stage
    assert out.checks[-1].verdict == report.NO
    br, bc = graded.restriction_bimodules(rt)
    assert not (trace_divides(br, bc) and trace_divides(bc, br))


def test_mislabelled_identity_component_rejected():
    # [[1,0],[0,1]] is still C2, just with the identity at index 1; the
    # same partition is then no grading at all (e0 * e0 lands in R_0,
    # which the relabelled table sends to the other component)
    ga = group_algebra(5, C2)
    swapped = [[1, 0], [0, 1]]
    assert check_group_table(swapped)[1] == 1
    with pytest.raises(NotGraded):
        graded.grade_by_partition(ga, swapped, [[0], [1]])


def test_non_projective_component_skips_the_similarity_stage():
    # x kills y, so R_1 is the simple module over R_e = F_5[x]/(x^2)
    ring = square_zero_graded()
    assert outcome_rows(graded.is_qf_restriction(ring)) == (
        report.NO,
        [],
        [
            ("component 0 projective", "component-projective-over-identity-part", report.YES, None, "split-witness"),
            (
                "component 1 projective",
                "component-projective-over-identity-part",
                report.NO,
                "component 1 is not a projective module over the identity part",
                None,
            ),
            (
                "ring similar to coinduced module",
                "ring-similar-to-coinduced-identity-part",
                report.SKIPPED,
                "some component is not projective over the identity part",
                None,
            ),
        ],
    )
