"""Extension-level checks: known QF / non-QF embeddings and the pair witness."""

import numpy as np
import pytest

from helpers import (
    dual_numbers,
    group_alg,
    mat_units_algebra,
    prod_fields,
    report_verifies,
    upper_triangular2,
)
from qfcert import report
from qfcert.algebra import AlgebraHom, field_algebra, tensor_algebra
from qfcert.errors import UsageError
from qfcert.modrep import LeftModule
from oracles import qf_pair_witness
from qfcert.ringext import Extension, is_qf_extension


def unit_extension(alg):
    f = field_algebra(alg.p)
    return Extension(AlgebraHom(f, alg, np.array(alg.unit).reshape(-1, 1)))


def quotient_to_field_extension(p):
    # F_p[x]/(x^2) ->> F_p, x |-> 0
    dn = dual_numbers(p)
    f = field_algebra(p)
    return Extension(AlgebraHom(dn, f, [[1, 0]]))


def diagonal_extension(p):
    # C2 group algebra into its square via a |-> (a, a)
    r = group_alg(p, 2)
    s = tensor_algebra(r, prod_fields(p))
    mat = np.zeros((4, 2), dtype=np.int64)
    for i in range(2):
        mat[2 * i, i] = 1
        mat[2 * i + 1, i] = 1
    return Extension(AlgebraHom(r, s, mat))


def test_unit_embedding_group_algebra_is_qf():
    ext = unit_extension(group_alg(5, 2))
    out = is_qf_extension(ext)
    assert out.verdict == report.YES
    # both unit-bimodule routes ran and agreed
    names = [c.name for c in out.checks]
    assert any(n.startswith("target over (source,target)") for n in names)
    assert any(n.startswith("target over (target,source)") for n in names)


def test_unit_embedding_matrix_algebra_is_qf():
    ext = unit_extension(mat_units_algebra(5, 2))
    assert is_qf_extension(ext).verdict == report.YES


@pytest.mark.parametrize("target", [group_alg(3, 3), mat_units_algebra(3, 2)], ids=["f3-c3", "f3-m2"])
def test_unit_extensions_at_a_prime_below_the_endomorphism_dimension_are_qf(target):
    # p = 3 does not exceed dim End, which a decomposition would need
    out = is_qf_extension(unit_extension(target))
    assert out.verdict == report.YES
    assert report_verifies(out)


def test_quotient_to_field_is_not_qf():
    out = is_qf_extension(quotient_to_field_extension(5))
    assert out.verdict == report.NO
    # the failure is projectivity of the target over the source
    failing = [c for c in out.checks if c.verdict == report.NO]
    assert any(c.condition == "left-restriction-fg-projective" for c in failing)


def test_triangular_algebra_extension_is_not_qf():
    out = is_qf_extension(unit_extension(upper_triangular2(5)))
    assert out.verdict == report.NO


def test_diagonal_extension_is_qf():
    assert is_qf_extension(diagonal_extension(5)).verdict == report.YES


def test_compose_check_agreement():
    # the composition law on is_qf_extension verdicts: F_5 -> F_5[C2] and
    # C2 -> M2 are QF, and so is their composite, a validated ring map
    p = 5
    f = field_algebra(p)
    c2 = group_alg(p, 2)
    m2 = mat_units_algebra(p, 2)
    alpha = AlgebraHom(f, c2, np.array(c2.unit).reshape(-1, 1))
    # C2 -> M2 sending the generator to the swap matrix
    beta = AlgebraHom(c2, m2, [[1, 0], [0, 1], [0, 1], [1, 0]])
    composite = AlgebraHom(f, m2, beta.matrix @ alpha.matrix % p)
    verdicts = [is_qf_extension(Extension(h)).verdict for h in (beta, alpha, composite)]
    assert verdicts == [report.YES] * 3


def pair_witness_payload(out):
    certs = [c for c in out.certificates() if c["kind"] == "pair-witness"]
    assert len(certs) == 1
    return certs[0]


def test_pair_witness_diagonal_extension_regular_module():
    ext = diagonal_extension(5)
    x = LeftModule(ext.source, ext.source.left_mult)  # regular module
    out = qf_pair_witness(ext, x)
    assert out.verdict == report.YES
    cert = pair_witness_payload(out)
    assert cert["composite_is_identity"] is True
    assert cert["maps_are_linear"] is True
    assert cert["m"] >= 1
    alphabar = np.array(cert["alphabar"], dtype=np.int64)
    alpha = np.array(cert["alpha"], dtype=np.int64)
    dim = alphabar.shape[0]
    assert np.array_equal(alphabar @ alpha % 5, np.eye(dim, dtype=np.int64))


def test_pair_witness_on_one_dim_modules():
    ext = diagonal_extension(5)
    # trivial and sign modules of the C2 group algebra
    for gval in (1, 4):
        act = np.array([[[1]], [[gval]]], dtype=np.int64)
        x = LeftModule(ext.source, act)
        out = qf_pair_witness(ext, x)
        assert out.verdict == report.YES
        assert pair_witness_payload(out)["composite_is_identity"] is True


def test_pair_witness_unit_extension_column_space():
    p = 5
    ext = unit_extension(mat_units_algebra(p, 2))
    x = LeftModule(ext.source, np.array([[[1]]], dtype=np.int64))
    out = qf_pair_witness(ext, x)
    assert out.verdict == report.YES
    cert = pair_witness_payload(out)
    # S (x)_{F_p} F_p has the dimension of S
    assert np.array(cert["alpha"]).shape[1] == 4


def test_pair_witness_zero_module():
    ext = diagonal_extension(5)
    x = LeftModule(ext.source, np.zeros((2, 0, 0), dtype=np.int64))
    out = qf_pair_witness(ext, x)
    assert out.verdict == report.YES


def test_pair_witness_vacuous_for_non_qf_extension():
    out = qf_pair_witness(quotient_to_field_extension(5), LeftModule(dual_numbers(5), dual_numbers(5).left_mult))
    assert out.verdict == report.VACUOUS


def test_pair_witness_rejects_module_over_wrong_algebra():
    ext = diagonal_extension(5)
    wrong = LeftModule(field_algebra(5), np.array([[[1]]], dtype=np.int64))
    with pytest.raises(UsageError):
        qf_pair_witness(ext, wrong)
