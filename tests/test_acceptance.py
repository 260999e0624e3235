"""Release gate: ten binding criteria, one test per criterion.

Each test is a single pass/fail line under ``pytest -v``.  Timings are
pinned where the contract pins them (battery < 120 s, coring pipeline
< 30 s per case, graded oracle < 60 s); everything else is exact with
no tolerance.
"""

import copy
import hashlib
import itertools
import json
import pathlib
import time

import numpy as np
import pytest

from helpers import direct_sum, inline, power_bimodule
from oracles import check_pair_witness, qf_pair_witness
from qfcert import cli, fixtures, linalg, report, verify
from qfcert.algebra import AlgebraHom, group_algebra
from qfcert.coring import Coring, left_dual_ring, right_dual_ring, sweedler
from qfcert.decomp import decompose, iso
from qfcert.fixtures import (
    column_module,
    cyclic_table,
    dual_numbers,
    mat_units_algebra,
    prod_fields,
    socle_module_dualnum,
    unit_extension,
    upper_triangular2,
)
from qfcert.graded import is_qf_restriction, restriction_bimodules
from qfcert.modrep import (
    LeftModule,
    as_bimodule,
    envelope_module,
    hom_space,
    regular_left,
    restrict_bimodule,
)
from qfcert.ringext import Extension, is_qf_extension
from qfcert.simdiv import divides, is_qf_bimodule, similar

SEED = 0

# SHA-256 of each battery report's canonical JSON at SEED, by fixture name:
# "reports" as written, "inline" with its tables written back into its
# certificates (``helpers.inline``), the bytes reports had before the tables
GOLDEN_REPORTS = json.loads(pathlib.Path(__file__).with_name("golden_reports.json").read_text())


# --------------------------------------------------------------- shared


@pytest.fixture(scope="module")
def battery_run():
    t0 = time.perf_counter()
    results = fixtures.battery(seed=SEED)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def extension_fixtures():
    return [f for f in fixtures.corpus() if f.command == "check-extension"]


@pytest.fixture(scope="module")
def coring_pipeline(extension_fixtures):
    """sweedler followed by check-coring, timed, for every extension fixture."""
    rows = {}
    for f in extension_fixtures:
        t0 = time.perf_counter()
        emitted = cli.run_documents("sweedler", f.docs, seed=SEED)
        coring_out = cli.run_documents("check-coring", [emitted.document], seed=SEED)
        elapsed = time.perf_counter() - t0
        rows[f.name] = (f.expected, coring_out, elapsed)
    return rows


def all_certificates(rep):
    for chk in rep["checks"]:
        cert = chk.get("certificate")
        if cert is not None:
            yield chk["verdict"], cert


def enumerate_divides(m, n):
    """Brute-force oracle: enumerate every bimodule map M -> N^k literally
    and test each for a module-map left inverse."""
    p = m.p
    if m.dim == 0:
        return True
    if n.dim == 0:
        return False
    for k in range(1, m.dim + 1):
        nk = power_bimodule(n, k)
        h = hom_space(envelope_module(m), envelope_module(nk))
        hb = hom_space(envelope_module(nk), envelope_module(m))
        if h.k == 0 or hb.k == 0:
            continue
        target = linalg.identity(m.dim).reshape(-1)
        for coeffs in itertools.product(range(p), repeat=h.k):
            if not any(coeffs):
                continue
            phi = np.einsum("i,iab->ab", np.array(coeffs, dtype=np.int64), h.basis) % p
            prods = np.matmul(hb.basis, phi) % p
            if linalg.solve_right(prods.reshape(hb.k, -1).T, target, p) is not None:
                return True
    return False


def dsum(*mods):
    return direct_sum(*mods)[0]


def modules_over(alg, flavor):
    """At least five test modules over each extension source."""
    p = alg.p
    if flavor == "field":
        return [LeftModule(alg, linalg.identity(d).reshape(1, d, d)) for d in (1, 2, 3, 4, 5)]
    if flavor == "c2":
        triv = LeftModule(alg, np.array([[[1]], [[1]]], dtype=np.int64))
        sign = LeftModule(alg, np.array([[[1]], [[p - 1]]], dtype=np.int64))
        reg = regular_left(alg)
        return [triv, sign, reg, dsum(triv, sign), dsum(reg, triv)]
    if flavor == "prod":
        s1 = LeftModule(alg, np.array([[[1]], [[0]]], dtype=np.int64))
        s2 = LeftModule(alg, np.array([[[0]], [[1]]], dtype=np.int64))
        reg = regular_left(alg)
        return [s1, s2, reg, dsum(s1, s2), dsum(s1, reg)]
    raise AssertionError(flavor)


# -------------------------------------------------------------- criteria


def test_criterion_01_certificate_soundness(battery_run):
    results, elapsed = battery_run
    assert elapsed < 120.0, f"battery took {elapsed:.1f}s"
    failures = [r["name"] for r in results if not r["pass"]]
    assert failures == [], failures
    # every certificate in every report re-verifies, not only passing ones
    total = 0
    for r in results:
        for _, cert in all_certificates(inline(r["report"])):
            ok, reasons = verify.verify_payload(cert)
            assert ok, (r["name"], reasons)
            total += 1
    assert total >= 40


def yes_checks(checks, depth=0):
    """(depth, check) for every check whose verdict is yes, and for those
    nested in the ``outcome`` certificates of any check."""
    for chk in checks:
        if chk["verdict"] == report.YES:
            yield depth, chk
        cert = chk.get("certificate")
        if cert is not None and cert["kind"] == "outcome":
            yield from yes_checks(cert["checks"], depth + 1)


def test_every_yes_carries_a_certificate_at_every_depth(battery_run):
    results, _ = battery_run
    found = [(r["name"], depth, chk) for r in results for depth, chk in yes_checks(r["report"]["checks"])]
    uncertified = [(name, chk["condition"]) for name, _, chk in found if chk.get("certificate") is None]
    assert uncertified == []
    top = sum(1 for _, depth, _ in found if depth == 0)
    assert (top, len(found) - top) == (128, 104)


def digest(rep) -> str:
    return hashlib.sha256(report.canonical_json(rep).encode()).hexdigest()


def test_battery_reports_are_byte_identical_to_golden_digests(battery_run):
    results, _ = battery_run
    digests = {r["name"]: digest(r["report"]) for r in results}
    assert len(digests) == 39
    assert digests == GOLDEN_REPORTS["reports"]


def test_inlining_the_tables_gives_back_the_reports_written_before_them(battery_run):
    # the tables lose nothing: every certificate with its entries written
    # back is byte for byte the one written before the tables existed
    results, _ = battery_run
    assert {r["name"]: digest(inline(r["report"])) for r in results} == GOLDEN_REPORTS["inline"]


def test_criterion_02_five_coring_conditions_agree():
    coring_fx = [f for f in fixtures.corpus() if f.command == "check-coring"]
    assert len(coring_fx) >= 8
    conditions = {
        "left-projective-and-carrier-similar-to-left-dual-ring",
        "right-projective-and-carrier-similar-to-right-dual-ring",
        "left-projective-and-embedding-into-left-dual-ring-qf",
        "carrier-qf-bimodule-over-base-and-left-dual-ring",
        "left-dual-ring-qf-bimodule-over-itself-and-base",
    }
    for f in coring_fx:
        out = cli.run_documents("check-coring", f.docs, seed=SEED)
        seen = {c.condition: c.verdict for c in out.checks if c.condition in conditions}
        assert set(seen) == conditions, f.name
        assert len(set(seen.values())) == 1, (f.name, seen)
        assert out.verdict != report.INCONSISTENT
    # a divergence, were one ever produced, maps to exit code 3
    assert report.exit_code(report.INCONSISTENT) == 3


def test_criterion_03_sweedler_pipeline_yes_on_qf_extensions(coring_pipeline):
    positives = 0
    for name, (expected, coring_out, elapsed) in coring_pipeline.items():
        if expected != "yes":
            continue
        positives += 1
        assert coring_out.verdict == "yes", name
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
        certs = coring_out.certificates()
        assert certs, name
        for cert in certs:
            ok, reasons = verify.verify_payload(cert)
            assert ok, (name, reasons)
    assert positives >= 5


def test_criterion_04_both_unit_bimodule_routes_agree(extension_fixtures):
    from qfcert import schema

    for f in extension_fixtures:
        ext = schema.build_extension(f.docs[0])
        via_rs = is_qf_bimodule(ext.bimodule_rs).verdict
        via_sr = is_qf_bimodule(ext.bimodule_sr).verdict
        assert via_rs == via_sr == f.expected, (f.name, via_rs, via_sr)


def test_criterion_05_composition_iff():
    p = 5
    c2 = group_algebra(p, cyclic_table(2))
    pairs = [
        # inner QF, outer QF
        (unit_extension(c2), fixtures.diagonal_group_extension(p)),
        (unit_extension(prod_fields(p)), fixtures.diagonal_matrix_extension(p)),
        # inner not QF, outer QF: the composite must come out not QF
        (fixtures.augmentation_extension(dual_numbers(p), [1, 0]), unit_extension(c2)),
        (fixtures.augmentation_extension(dual_numbers(p), [1, 0]), unit_extension(mat_units_algebra(p, 2))),
    ]
    inner = []
    for alpha, beta in pairs:
        assert is_qf_extension(beta).verdict == report.YES
        # the composite beta . alpha, validated as a unital ring map
        product = linalg.matmul(beta.hom.matrix, alpha.hom.matrix, p)
        composite = Extension(AlgebraHom(alpha.source, beta.target, product))
        inner.append(is_qf_extension(alpha).verdict)
        assert inner[-1] == is_qf_extension(composite).verdict
    # both agreement directions really occur in the sample
    assert set(inner) == {report.YES, report.NO}


def test_criterion_06_graded_decision_with_oracle():
    ring_yes = fixtures.graded_c2_group(5)
    out_yes = is_qf_restriction(ring_yes)
    assert out_yes.verdict == "yes"
    assert out_yes.certificates()
    for cert in out_yes.certificates():
        ok, reasons = verify.verify_payload(cert)
        assert ok, reasons

    t0 = time.perf_counter()
    ring_t2 = fixtures.graded_c2_triangular(5)
    decided = is_qf_restriction(ring_t2).verdict
    bim_r, bim_c = restriction_bimodules(ring_t2)
    # components over the identity part are projective (it is semisimple
    # here), so the oracle verdict is exactly mutual split-map existence
    oracle = enumerate_divides(bim_r, bim_c) and enumerate_divides(bim_c, bim_r)
    elapsed = time.perf_counter() - t0
    assert decided == ("yes" if oracle else "no") == "no"
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_07_pair_witness_composites_are_identities():
    p5, p7, p11 = 5, 7, 11
    cases = [
        (unit_extension(group_algebra(p5, cyclic_table(2))), "field"),
        (unit_extension(dual_numbers(p5)), "field"),
        (unit_extension(mat_units_algebra(p5, 2)), "field"),
        (unit_extension(prod_fields(p5)), "field"),
        (unit_extension(group_algebra(p7, cyclic_table(3))), "field"),
        (unit_extension(dual_numbers(p11)), "field"),
        (fixtures.augmentation_extension(group_algebra(p5, cyclic_table(2)), [1, 1]), "c2"),
        (fixtures.diagonal_group_extension(p5), "c2"),
        (fixtures.diagonal_matrix_extension(p5), "prod"),
    ]
    for ext, flavor in cases:
        mods = modules_over(ext.source, flavor)
        assert len(mods) >= 5
        for x in mods:
            out = qf_pair_witness(ext, x)
            assert out.verdict == report.YES
            (pay,) = out.certificates()
            assert pay["composite_is_identity"] is True
            # first axes survive list serialization even when a map is empty
            d = len(pay["alphabar"])
            mk = len(pay["alpha"])
            alpha = np.array(pay["alpha"], dtype=np.int64).reshape(mk, d)
            alphabar = np.array(pay["alphabar"], dtype=np.int64).reshape(d, mk)
            assert np.array_equal(np.matmul(alphabar, alpha) % ext.p, linalg.identity(d))
            assert check_pair_witness(pay) == (True, [])
            if mk and d:
                # the same witness with one entry of alpha changed is rejected
                bad = copy.deepcopy(pay)
                bad["alpha"][0][0] = (bad["alpha"][0][0] + 1) % ext.p
                ok, reasons = check_pair_witness(bad)
                assert not ok and reasons


def test_criterion_08_decomposition_stability_over_seeds():
    p = 5
    modules = [
        regular_left(upper_triangular2(p)),
        regular_left(mat_units_algebra(p, 2)),
        regular_left(dual_numbers(7)),
        regular_left(group_algebra(p, cyclic_table(2))),
        # mixed sums, whose endomorphism algebras are 9- and 5-dimensional
        # and not local
        dsum(column_module(11), regular_left(mat_units_algebra(11, 2))),
        dsum(socle_module_dualnum(7), regular_left(dual_numbers(7))),
    ]
    for m in modules:
        signatures = {tuple(decompose(m, seed=s).class_signature()) for s in range(10)}
        assert len(signatures) == 1, signatures
    # classwise: summand modules found under different seeds are isomorphic
    base = decompose(modules[0], seed=0)
    for s in range(1, 10):
        other = decompose(modules[0], seed=s)
        for sm in base.summands:
            assert any(
                sn.module.dim == sm.module.dim and iso(sm.module, sn.module, seed=s) is not None
                for sn in other.summands
            )


def test_criterion_09_division_matches_enumeration_oracle():
    p = 5
    m2 = mat_units_algebra(p, 2)
    dn = dual_numbers(p)
    c2 = group_algebra(p, cyclic_table(2))
    triv = LeftModule(c2, np.array([[[1]], [[1]]], dtype=np.int64))
    sign = LeftModule(c2, np.array([[[1]], [[p - 1]]], dtype=np.int64))
    pools = [
        [as_bimodule(column_module(p)), as_bimodule(regular_left(m2))],
        [as_bimodule(socle_module_dualnum(p)), as_bimodule(regular_left(dn))],
        [as_bimodule(triv), as_bimodule(sign), as_bimodule(regular_left(c2)),
         as_bimodule(dsum(triv, sign))],
    ]
    checked = 0
    for pool in pools:
        for m, n in itertools.product(pool, repeat=2):
            if m.dim + n.dim > 6:
                continue
            expected = enumerate_divides(m, n)
            got = divides(m, n)
            assert (got is not None) == expected, (m.dim, n.dim)
            sim = similar(m, n)
            assert (sim is not None) == (expected and enumerate_divides(n, m))
            checked += 1
    assert checked >= 16


def test_criterion_10_dual_rings_associative_and_sweedler_valid():
    coring_fx = [f for f in fixtures.corpus() if f.command == "check-coring"]
    from qfcert import schema

    for f in coring_fx:
        c = schema.expect(f.docs[0], "coring")
        # constructing the convolution rings runs full associativity and
        # unit validation on their structure constants
        dl = left_dual_ring(c)
        dr = right_dual_ring(c)
        assert dl.target.dim == c.dim and dr.target.dim == c.dim
    for alg in (
        group_algebra(5, cyclic_table(2)),
        dual_numbers(5),
        mat_units_algebra(5, 2),
        upper_triangular2(5),
        group_algebra(7, cyclic_table(3)),
    ):
        c = sweedler(unit_extension(alg))
        # re-validate from scratch: coassociativity and both counit laws
        rebuilt = Coring(c.base, c.carrier, c.delta_rep(), c.eps)
        assert np.array_equal(rebuilt.delta, c.delta)


def test_criterion_11_endomorphism_ring_tower(extension_fixtures):
    """The paper's closing theorem as an oracle: if R -> S is
    quasi-Frobenius, so is S -> *C, *C the left dual ring of the Sweedler
    coring S (x)_R S; and *C is End_R(S), the maps being left S-linear on
    S (x)_R S, so f(1 (x) -) is left R-linear on S."""
    from qfcert import schema

    towers = [(schema.build_extension(f.docs[0]), 1) for f in extension_fixtures if f.expected == "yes"]
    assert len(towers) == 9
    towers += [(unit_extension(group_algebra(5, cyclic_table(2))), 2), (unit_extension(dual_numbers(5)), 2)]
    for ext, depth in towers:
        for _ in range(depth):
            over_source = restrict_bimodule(ext.bimodule_rs, "left")
            end_dim = hom_space(over_source, over_source).k
            ext = left_dual_ring(sweedler(ext))
            assert ext.target.dim == end_dim
            out = is_qf_extension(ext)
            assert out.verdict == report.YES
            assert out.certificates()
            rep = report.build_report(out, SEED, "0" * 64, "check-extension")
            ok, reasons = verify.verify_report(json.loads(report.canonical_json(rep)))
            assert ok, reasons
