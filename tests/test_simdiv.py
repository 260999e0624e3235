"""Divisibility/similarity tests, cross-checked against the span oracle."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    dual_numbers,
    group_alg,
    mat_units_algebra,
    prod_fields,
    report_verifies,
    simple_modules_prod,
    trivial_module_dualnum,
    unit_bimodule_rs,
)
from oracles import divides_enumeration_oracle, divides_oracle, similar_oracle
from qfcert import decomp, memo, report, verify
from qfcert.algebra import field_algebra, make_algebra
from qfcert.errors import NotProjectiveAtStage
from qfcert.modrep import (
    Bimodule,
    as_bimodule,
    bimodule_homs,
    direct_sum,
    envelope_module,
    power_bimodule,
    regular_bimodule,
    regular_left,
)
from qfcert.simdiv import (
    DividesCert,
    divides,
    dual_sequence,
    is_qf_bimodule,
    qf_tensor_check,
    similar,
    verify_cert,
)


def sum_module(*mods):
    tot, _, _ = direct_sum(*mods)
    return as_bimodule(tot)


def test_divides_self_trivial():
    p = 5
    m = regular_bimodule(group_alg(p, 2))
    c = divides(m, m)
    assert c is not None and c.n == 1
    ok, reasons = verify_cert(c, m, m)
    assert ok, reasons


def test_divides_simple_in_sum_but_not_conversely():
    p = 5
    s1, s2 = simple_modules_prod(p)
    b1 = as_bimodule(s1)
    b12 = sum_module(s1, s2)
    c = divides(b1, b12)
    assert c is not None and c.n == 1
    assert divides(b12, b1) is None
    assert divides_oracle(b1, b12) is True
    assert divides_oracle(b12, b1) is False


def test_divides_power_is_at_most_dim_hom():
    # one solve in the trace ideal: the power is the number of hom basis
    # maps N -> M used, at most dim Hom(N, M), not the smallest feasible one
    p = 7
    s1, s2 = simple_modules_prod(p)
    m = sum_module(s1, s2, s2)  # S1 + 2 S2
    n = sum_module(s1, s2)
    hom_mn, hom_nm = bimodule_homs(m, n)
    assert (len(hom_mn), len(hom_nm)) == (3, 3)
    c = divides(m, n)
    assert c is not None and c.n == 3
    back = divides(n, m)
    assert back is not None and back.n == 2
    sim = similar(m, n)
    assert sim is not None


def test_similar_solves_each_hom_space_once():
    p = 7
    s1, s2 = simple_modules_prod(p)
    m = sum_module(s1, s2, s2)
    n = sum_module(s1, s2)
    apart = {"forward": divides(m, n).payload(), "backward": divides(n, m).payload()}
    with memo.scope() as s:
        sim = similar(m, n)
    # Hom(M, N) and Hom(N, M), one solve each
    assert s.counts()["hom_space"] == (0, 2)
    # the same certificates as the two divisions computed on their own
    assert report.canonical_json(sim.payload()) == report.canonical_json(dict(kind="similarity", **apart))


def test_zero_module_divides_the_first_power():
    m = sum_module(*simple_modules_prod(5))
    zero = Bimodule(m.left_alg, m.right_alg, np.zeros((2, 0, 0), dtype=np.int64), np.ones((1, 0, 0), dtype=np.int64))
    c = divides(zero, m)
    assert c is not None and c.n == 1 and c.phi.shape == (2, 0) and c.psi.shape == (0, 2)
    assert divides(m, zero) is None


def semisimple_sum(p, mults):
    """The (F_p^3, F_p)-bimodule S_0^a + S_1^b + S_2^c for mults (a, b, c):
    the i-th basis idempotent of F_p^3 projects onto the S_i coordinates."""
    k = len(mults)
    mul = np.zeros((k, k, k), dtype=np.int64)
    mul[range(k), range(k), range(k)] = 1
    kinds = np.repeat(np.arange(k), mults)
    d = len(kinds)
    left = np.stack([np.diag((kinds == i).astype(np.int64)) for i in range(k)]).reshape(k, d, d)
    return Bimodule(make_algebra(p, mul, [1] * k), field_algebra(p), left, np.eye(d, dtype=np.int64).reshape(1, d, d))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
def test_divides_on_semisimple_sums_agrees_with_the_oracle_and_krull_schmidt(p, mults_m, mults_n):
    m, n = semisimple_sum(p, mults_m), semisimple_sum(p, mults_n)
    cert = divides(m, n)
    assert (cert is not None) == divides_oracle(m, n)
    # a test-side Krull-Schmidt check, where the decomposition's p > dim End holds
    matches = None
    if p > max(sum(a * a for a in mults_m), sum(b * b for b in mults_n)):
        dm, dn = decomp.decompose(envelope_module(m)), decomp.decompose(envelope_module(n))
        matches = decomp.match_classes(dm, dn, random.Random(0))
        assert (matches is not None) == (cert is not None)
    if cert is None:
        return
    assert verify.verify_payload(cert.payload())[0]
    # M | N^n needs every multiplicity of M within n times that of N
    assert cert.n >= max([math.ceil(a / b) for a, b in zip(mults_m, mults_n) if a], default=1)
    if matches is not None:
        assert cert.n >= max([math.ceil(sm.multiplicity / sn.multiplicity) for sm, sn, _ in matches], default=1)


@pytest.mark.parametrize("order, power", [(2, 3), (3, 2)], ids=["f5-c2-cubed", "f5-c3-squared"])
def test_powers_of_regular_bimodules_at_a_prime_below_the_endomorphism_dimension_are_qf(order, power):
    # a decomposition would need p > dim End, which is 18 and 12 here
    out = is_qf_bimodule(power_bimodule(regular_bimodule(group_alg(5, order)), power))
    assert out.verdict == report.YES
    assert report_verifies(out)


def test_similarity_matches_oracle_on_small_corpus():
    p = 5
    s1, s2 = simple_modules_prod(p)
    dn = dual_numbers(p)
    reg_dn = as_bimodule(regular_left(dn))
    triv_dn = as_bimodule(trivial_module_dualnum(p))
    corpus = [
        (as_bimodule(s1), as_bimodule(s2)),
        (as_bimodule(s1), sum_module(s1, s1)),
        (sum_module(s1, s2), sum_module(s2, s1)),
        (reg_dn, triv_dn),
        (triv_dn, triv_dn),
        (reg_dn, reg_dn),
    ]
    for a, b in corpus:
        got = divides(a, b) is not None
        want = divides_oracle(a, b)
        assert got == want, (a, b)
        got_sim = similar(a, b) is not None
        want_sim = similar_oracle(a, b)
        assert got_sim == want_sim


def test_span_oracle_agrees_with_literal_enumeration():
    p = 3  # keep the enumeration tiny
    mul = np.zeros((1, 1, 1), dtype=np.int64)
    mul[0, 0, 0] = 1
    s1, s2 = simple_modules_prod(p)
    pairs = [
        (as_bimodule(s1), as_bimodule(s1)),
        (as_bimodule(s1), as_bimodule(s2)),
    ]
    for a, b in pairs:
        assert divides_oracle(a, b) == divides_enumeration_oracle(a, b)


def test_verify_cert_rejects_tampering():
    p = 5
    m = regular_bimodule(group_alg(p, 2))
    c = divides(m, m)
    c.phi = (c.phi + 1) % p
    ok, reasons = verify_cert(c, m, m)
    assert not ok and reasons


def test_qf_bimodule_regular_always_yes():
    # A as an (A, A)-bimodule is QF for every A, even a non-QF algebra:
    # both duals are isomorphic to A itself.
    p = 5
    from helpers import upper_triangular2

    for alg in (group_alg(p, 2), dual_numbers(p), upper_triangular2(p)):
        out = is_qf_bimodule(regular_bimodule(alg))
        assert out.verdict == report.YES


def test_qf_bimodule_trivial_module_fails_on_projectivity():
    p = 5
    dn = dual_numbers(p)
    k = field_algebra(p)
    # F5 as a (dualnum, F5)-bimodule: left via the quotient, right regular
    la = np.zeros((2, 1, 1), dtype=np.int64)
    la[0, 0, 0] = 1
    b = Bimodule(dn, k, la, np.ones((1, 1, 1), dtype=np.int64))
    out = is_qf_bimodule(b)
    assert out.verdict == report.NO
    assert any(c.verdict == report.NO and "projective" in c.condition for c in out.checks)


def test_qf_bimodule_unit_extension_group_algebra():
    p = 5
    k = field_algebra(p)
    s = group_alg(p, 2)
    phi = np.array([[1], [0]], dtype=np.int64)  # unit embedding F5 -> F5[C2]
    b = unit_bimodule_rs(k, s, phi, p)
    out = is_qf_bimodule(b)
    assert out.verdict == report.YES
    # certificates exist for all three checks
    assert len(out.certificates()) == 3


def test_dual_sequence_regular():
    p = 5
    m = regular_bimodule(group_alg(p, 2))
    seq = dual_sequence(m, 2)
    assert [k for k, _ in seq] == [-2, -1, 0, 1, 2]
    assert all(b.dim == 2 for _, b in seq)


def test_dual_sequence_stops_on_nonprojective():
    p = 5
    dn = dual_numbers(p)
    k = field_algebra(p)
    la = np.zeros((2, 1, 1), dtype=np.int64)
    la[0, 0, 0] = 1
    b = Bimodule(dn, k, la, np.ones((1, 1, 1), dtype=np.int64))
    with pytest.raises(NotProjectiveAtStage) as exc:
        dual_sequence(b, 1)
    assert exc.value.stage == 1


def test_qf_tensor_check_regular_pair():
    p = 5
    a = group_alg(p, 2)
    m = regular_bimodule(a)
    out = qf_tensor_check(m, m)
    assert out.verdict == report.YES


def test_qf_tensor_check_vacuous():
    p = 5
    dn = dual_numbers(p)
    k = field_algebra(p)
    la = np.zeros((2, 1, 1), dtype=np.int64)
    la[0, 0, 0] = 1
    bad = Bimodule(dn, k, la, np.ones((1, 1, 1), dtype=np.int64))
    good = regular_bimodule(dn)
    out = qf_tensor_check(good, bad)
    assert out.verdict == report.VACUOUS


def test_verify_cert_names_each_failing_block():
    p = 7
    s1, s2 = simple_modules_prod(p)
    m = sum_module(s1, s2, s2)
    n = sum_module(s1, s2)
    c = divides(m, n)
    assert c.n == 3
    # all-ones blocks are not module maps; the trivial right actions still commute
    c.phi[n.dim : 2 * n.dim] = 1
    c.psi[:, : n.dim] = 1
    ok, reasons = verify_cert(c, m, n)
    assert not ok
    assert [r for r in reasons if "block" in r] == [
        "psi block 0 does not intertwine the left actions",
        "phi block 1 does not intertwine the left actions",
    ]
