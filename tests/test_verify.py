"""Round-trip and tamper tests for the standalone certificate re-checker.

Every certificate kind the provers emit must verify from its own embedded
data, and the same payload must fail once any matrix entry is corrupted.
"""

import copy

import numpy as np

from helpers import (
    dual_numbers,
    group_alg,
    mat_units_algebra,
)
from qfcert import report, verify
from qfcert.algebra import AlgebraHom, field_algebra
from qfcert.coring import is_qf_coring, trivial_coring
from qfcert.decomp import decompose, decomposition_payload
from qfcert.graded import grade_by_partition, is_qf_restriction
from qfcert.modrep import LeftModule, direct_sum, is_fg_projective, regular_bimodule, regular_left
from qfcert.ringext import Extension, is_frobenius_extension, is_qf_extension, qf_pair_witness
from qfcert.simdiv import similar, split_witness_payload

P = 5


def unit_extension(alg):
    f = field_algebra(alg.p)
    return Extension(AlgebraHom(f, alg, np.array(alg.unit).reshape(-1, 1)))


def assert_verifies(payload):
    ok, reasons = verify.verify_payload(payload)
    assert ok, reasons
    assert reasons == []


def assert_rejected(payload, fragment=None):
    ok, reasons = verify.verify_payload(payload)
    assert not ok
    assert reasons
    if fragment is not None:
        assert any(fragment in r for r in reasons), reasons


def test_split_witness_roundtrip_and_tamper():
    w = is_fg_projective(regular_left(group_alg(P, 2)))
    pay = split_witness_payload(w)
    assert_verifies(pay)
    bad = copy.deepcopy(pay)
    bad["pi_blocks"][0][0][0] = (bad["pi_blocks"][0][0][0] + 1) % P
    assert_rejected(bad)


def test_split_witness_on_fewer_generators_than_basis_vectors():
    # M2(F_5)^2 (dim 8) is presented free on 2 spun generators
    m2 = regular_left(mat_units_algebra(P, 2))
    w = is_fg_projective(direct_sum(m2, m2)[0])
    pay = split_witness_payload(w)
    assert len(pay["pi_blocks"]) == len(pay["sigma_blocks"]) == 2 < w.module.dim
    assert_verifies(pay)
    # any entry of any block, changed, is rejected
    for key in ("pi_blocks", "sigma_blocks"):
        for b, i, j in np.ndindex(np.shape(pay[key])):
            bad = copy.deepcopy(pay)
            bad[key][b][i][j] = (bad[key][b][i][j] + 1) % P
            assert_rejected(bad)
    # a cover missing one generator does not split
    for b in range(2):
        dropped = copy.deepcopy(pay)
        del dropped["pi_blocks"][b], dropped["sigma_blocks"][b]
        assert_rejected(dropped, "sum of pi . sigma is not the identity")


def test_split_witness_of_the_zero_module():
    w = is_fg_projective(LeftModule(dual_numbers(P), np.zeros((2, 0, 0), dtype=np.int64)))
    pay = split_witness_payload(w)
    assert w.free_rank == 0 and pay["pi_blocks"] == pay["sigma_blocks"] == []
    assert_verifies(pay)


def test_similarity_roundtrip_and_tamper():
    m = regular_bimodule(group_alg(P, 2))
    sim = similar(m, m)
    assert sim is not None
    pay = sim.payload()
    assert pay["kind"] == "similarity"
    assert_verifies(pay)
    bad = copy.deepcopy(pay)
    bad["forward"]["phi"][0][0] = (bad["forward"]["phi"][0][0] + 1) % P
    assert_rejected(bad)


def test_similarity_halves_must_match():
    # both halves internally fine, but taken from different module pairs
    sim_a = similar(regular_bimodule(group_alg(P, 2)), regular_bimodule(group_alg(P, 2)))
    sim_b = similar(regular_bimodule(dual_numbers(P)), regular_bimodule(dual_numbers(P)))
    franken = {
        "kind": "similarity",
        "forward": sim_a.payload()["forward"],
        "backward": sim_b.payload()["backward"],
    }
    assert_rejected(franken, "disagree")


def test_divides_tamper_breaks_section_or_equivariance():
    sim = similar(regular_bimodule(dual_numbers(P)), regular_bimodule(dual_numbers(P)))
    half = sim.payload()["forward"]
    assert_verifies(half)
    bad = copy.deepcopy(half)
    bad["psi"][0][0] = (bad["psi"][0][0] + 1) % P
    assert_rejected(bad)
    short = copy.deepcopy(half)
    del short["phi"]
    assert_rejected(short, "malformed")


def test_frobenius_extension_certificates_verify():
    out = is_frobenius_extension(unit_extension(mat_units_algebra(P, 2)))
    assert out.verdict == report.YES
    certs = out.certificates()
    assert {c["kind"] for c in certs} == {"split-witness", "bimodule-iso"}
    for c in certs:
        assert_verifies(c)
    iso_cert = next(c for c in certs if c["kind"] == "bimodule-iso")
    bad = copy.deepcopy(iso_cert)
    bad["matrix"][0][0] = (bad["matrix"][0][0] + 1) % P
    assert_rejected(bad)


def test_pair_witness_roundtrip_and_tamper():
    ext = unit_extension(group_alg(P, 2))
    out = qf_pair_witness(ext, regular_left(field_algebra(P)))
    assert out.verdict == report.YES
    (pay,) = out.certificates()
    assert pay["kind"] == "pair-witness"
    assert_verifies(pay)
    bad = copy.deepcopy(pay)
    bad["alpha"][0][0] = (bad["alpha"][0][0] + 1) % P
    assert_rejected(bad)


def test_qf_coring_certificates_verify():
    out = is_qf_coring(trivial_coring(group_alg(P, 2)))
    assert out.verdict == report.YES
    kinds = [c["kind"] for c in out.certificates()]
    assert "projective-and-similar" in kinds
    assert "outcome" in kinds
    for c in out.certificates():
        assert_verifies(c)
    nested = next(c for c in out.certificates() if c["kind"] == "projective-and-similar")
    bad = copy.deepcopy(nested)
    bad["similarity"]["forward"]["phi"][0][0] = (bad["similarity"]["forward"]["phi"][0][0] + 1) % P
    assert_rejected(bad)


def test_graded_restriction_certificates_verify():
    ring = grade_by_partition(group_alg(P, 2), [[0, 1], [1, 0]], [[0], [1]])
    out = is_qf_restriction(ring)
    assert out.verdict == report.YES
    for c in out.certificates():
        assert_verifies(c)


def test_decomposition_roundtrip_and_tamper():
    dec = decompose(regular_left(mat_units_algebra(P, 2)))
    pay = decomposition_payload(dec)
    assert pay["kind"] == "decomposition"
    assert_verifies(pay)
    bad = copy.deepcopy(pay)
    bad["classes"][0]["injections"][0][0][0] = (bad["classes"][0]["injections"][0][0][0] + 1) % P
    assert_rejected(bad)
    missing = copy.deepcopy(pay)
    missing["classes"] = missing["classes"][:0]
    assert_rejected(missing, "identity")


def test_verifier_has_its_own_exact_arithmetic():
    # no prover kernel: linalg is not imported, so a kernel bug cannot pass its own audit
    assert "linalg" not in vars(verify)
    rng = np.random.RandomState(2)
    for p in (P, 2**31 - 1, 3037000493):
        a = rng.randint(0, p, size=(2, 3, 9)).astype(np.int64)
        b = rng.randint(0, p, size=(9, 4)).astype(np.int64)
        expect = [[[sum(int(a[t, i, k]) * int(b[k, j]) for k in range(9)) % p for j in range(4)]
                   for i in range(3)] for t in range(2)]
        assert verify._mul(a, b, p).tolist() == expect
        assert verify._arr((a - p).tolist(), p).tolist() == a.tolist()
    assert verify._invertible([[2, 0], [0, 3]], P) and verify._invertible([], P)
    assert not verify._invertible([[2, 4], [1, 2]], P)
    assert not verify._invertible([[1, 1], [1, 1]], 2**31 - 1)


def nested_list(depth):
    deep = []
    for _ in range(depth):
        deep = [deep]
    return deep


def test_unknown_kind_and_verdict_are_quoted_within_80_characters():
    deep = nested_list(900)
    ok, reasons = verify.verify_payload({"kind": deep})
    assert not ok and reasons == ["certificate: unknown certificate kind [[[[[...]]]]]"]
    long_kind = "k" * 500
    ok, reasons = verify.verify_payload({"kind": long_kind})
    quoted = reasons[0].split("unknown certificate kind ")[1]
    assert not ok and len(quoted) == 80 and "..." in quoted and quoted.startswith("'kkk")
    rep = {"verdict": deep, "checks": [], "seed": 0, "tool_version": "0"}
    assert verify.verify_report(rep) == (False, ["report: unknown verdict [[[[[...]]]]]"])
    rep = {"verdict": "yes", "checks": [{"name": "n", "condition": "c", "verdict": long_kind}], "seed": 0, "tool_version": "0"}
    ok, reasons = verify.verify_report(rep)
    assert not ok and len(reasons) == 1 and len(reasons[0].split("unknown verdict ")[1]) == 80


def test_unknown_and_malformed_payloads_rejected():
    assert_rejected({"kind": "definitely-not-a-kind"}, "unknown certificate kind")
    assert_rejected({"kind": []}, "unknown certificate kind")
    assert_rejected({"kind": {}}, "unknown certificate kind")
    assert_rejected(["not", "a", "dict"])
    assert_rejected({"p": P}, "kind")
    assert_rejected({"kind": "divides", "p": P}, "malformed")


def test_verify_report_roundtrip():
    out = is_qf_extension(unit_extension(group_alg(P, 2)))
    rep = report.build_report(out, seed=0, input_sha="0" * 64, command="check-extension x")
    ok, reasons = verify.verify_report(rep)
    assert ok, reasons

    bad = copy.deepcopy(rep)
    bad["checks"][0]["verdict"] = "maybe"
    ok, reasons = verify.verify_report(bad)
    assert not ok and any("verdict" in r for r in reasons)

    headless = copy.deepcopy(rep)
    del headless["seed"]
    ok, reasons = verify.verify_report(headless)
    assert not ok

    corrupted = copy.deepcopy(rep)
    for chk in corrupted["checks"]:
        cert = chk.get("certificate")
        if cert is not None and cert["kind"] == "split-witness":
            cert["sigma_blocks"][0][0][0] = (cert["sigma_blocks"][0][0][0] + 1) % P
    ok, reasons = verify.verify_report(corrupted)
    assert not ok and reasons


def test_verify_report_battery_shape():
    out = is_qf_extension(unit_extension(group_alg(P, 2)))
    rep = report.build_report(out, seed=0, input_sha="0" * 64, command="check-extension x")
    wrapped = {"fixtures": [{"name": "a", "report": rep}, {"name": "b", "report": rep}]}
    ok, reasons = verify.verify_report(wrapped)
    assert ok, reasons
    ok, reasons = verify.verify_report({"fixtures": [{"name": "a"}]})
    assert not ok and any("embedded report" in r for r in reasons)
