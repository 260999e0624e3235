"""End-to-end CLI tests: exit codes, report bytes, schema errors."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    LARGEST_PRIME,
    P_FLOAT_TOP,
    P_INT_LOW,
    conjugated,
    dense_basis_change,
    dual_numbers,
    group_alg,
    mat_units_algebra,
    rebased,
    upper_triangular2,
)
from qfcert import cli, report, schema, verify
from qfcert.algebra import make_algebra
from qfcert.errors import (
    CharTooSmall,
    InternalCheckError,
    NotProjectiveAtStage,
    SchemaError,
    UsageError,
    ValidationError,
)
from qfcert.fixtures import column_module, socle_module_dualnum, unit_extension
from qfcert.modrep import Bimodule, LeftModule, as_bimodule, regular_bimodule, regular_left


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def hom_doc(ext):
    return schema.hom_document(ext.hom)


def test_check_extension_yes_and_report_roundtrip(tmp_path, capsys):
    doc = write_doc(tmp_path, "ext.json", hom_doc(unit_extension(group_alg(5, 2))))
    rep_path = str(tmp_path / "rep.json")
    rc = cli.main(["check-extension", doc, "--seed", "1", "--report", rep_path])
    assert rc == 0
    assert "verdict: yes" in capsys.readouterr().out
    rep = json.loads(open(rep_path).read())
    assert rep["verdict"] == "yes"
    assert rep["seed"] == 1
    assert rep["command"] == "check-extension"
    assert len(rep["input_sha256"]) == 64
    # verify subcommand accepts the emitted report
    assert cli.main(["verify", rep_path]) == 0


def test_check_extension_no_exit_1(tmp_path):
    doc = write_doc(tmp_path, "ext.json", hom_doc(unit_extension(upper_triangular2(5))))
    assert cli.main(["check-extension", doc]) == 1


def test_reports_are_byte_identical(tmp_path):
    doc = write_doc(tmp_path, "ext.json", hom_doc(unit_extension(dual_numbers(5))))
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["check-extension", doc, "--report", p1]) == 0
    assert cli.main(["--report", p2, "check-extension", doc]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_check_bimodule_accepts_module_documents(tmp_path):
    yes = write_doc(tmp_path, "m.json", schema.module_document(regular_left(group_alg(5, 2))))
    no = write_doc(tmp_path, "n.json", schema.module_document(regular_left(upper_triangular2(5))))
    assert cli.main(["check-bimodule", yes]) == 0
    assert cli.main(["check-bimodule", no]) == 1


def test_similar_and_divides_two_files(tmp_path):
    col = write_doc(tmp_path, "col.json", schema.module_document(column_module(5)))
    reg = write_doc(
        tmp_path, "reg.json", schema.module_document(regular_left(mat_units_algebra(5, 2)))
    )
    soc = write_doc(tmp_path, "soc.json", schema.module_document(socle_module_dualnum(5)))
    regdn = write_doc(tmp_path, "regdn.json", schema.module_document(regular_left(dual_numbers(5))))
    assert cli.main(["similar", col, reg]) == 0
    assert cli.main(["divides", col, reg]) == 0
    assert cli.main(["divides", soc, regdn]) == 1
    # mismatched algebra pairs are a usage error, not a verdict
    assert cli.main(["similar", col, regdn]) == 2


def test_decompose_report_verifies(tmp_path):
    doc = write_doc(tmp_path, "m.json", schema.module_document(regular_left(mat_units_algebra(5, 2))))
    rep_path = str(tmp_path / "rep.json")
    assert cli.main(["decompose", doc, "--report", rep_path]) == 0
    assert cli.main(["verify", rep_path]) == 0
    rep = json.loads(open(rep_path).read())
    assert rep["checks"][0]["certificate"]["kind"] == "decomposition"


def test_verify_rejects_tampered_report(tmp_path):
    doc = write_doc(tmp_path, "ext.json", hom_doc(unit_extension(group_alg(5, 2))))
    rep_path = str(tmp_path / "rep.json")
    assert cli.main(["check-extension", doc, "--report", rep_path]) == 0
    rep = json.loads(open(rep_path).read())
    for chk in rep["checks"]:
        cert = chk.get("certificate")
        if cert and cert["kind"] == "split-witness":
            cert["pi_blocks"][0][0][0] = (cert["pi_blocks"][0][0][0] + 1) % 5
    bad_path = str(tmp_path / "bad.json")
    open(bad_path, "w").write(json.dumps(rep))
    assert cli.main(["verify", bad_path]) == 1


def test_sweedler_emits_loadable_coring_document(tmp_path, capsys):
    doc = write_doc(tmp_path, "ext.json", hom_doc(unit_extension(dual_numbers(5))))
    assert cli.main(["sweedler", doc]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert schema.validate(emitted) == "coring"
    out_path = str(tmp_path / "coring.json")
    assert cli.main(["sweedler", doc, "--out", out_path]) == 0
    assert json.loads(open(out_path).read()) == emitted
    # the emitted document feeds straight into check-coring
    assert cli.main(["check-coring", out_path]) == 0


def test_dual_sequence_depth_and_projectivity_guard(tmp_path, capsys):
    reg = write_doc(
        tmp_path, "reg.json", schema.bimodule_document(regular_bimodule(group_alg(5, 2)))
    )
    assert cli.main(["dual-sequence", reg, "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "position -2" in out and "position 2" in out
    soc = write_doc(
        tmp_path, "soc.json", schema.bimodule_document(as_bimodule(socle_module_dualnum(5)))
    )
    assert cli.main(["dual-sequence", soc]) == 2


def test_schema_error_exit_2(tmp_path, capsys):
    bad = write_doc(tmp_path, "bad.json", {"p": 4, "algebra": {"dim": 0, "mul": [], "unit": []}})
    assert cli.main(["check-extension", bad]) == 2
    assert "input error" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert cli.main(["check-extension", missing]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{{{")
    assert cli.main(["check-extension", str(notjson)]) == 2
    # nesting past the decoder's recursion limit is invalid JSON too, for verify as well
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for command in ("check-extension", "verify"):
        capsys.readouterr()
        assert cli.main([command, str(deep)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err
    wrongkind = write_doc(
        tmp_path, "wrong.json", schema.module_document(regular_left(dual_numbers(5)))
    )
    assert cli.main(["check-coring", wrongkind]) == 2


def test_prime_outside_supported_range_exit_2(tmp_path, capsys):
    one = {"dim": 1, "mul": [[[1]]], "unit": [1]}
    for p in (3037000507, 2**61 - 1, 2**62 + 135):
        doc = write_doc(tmp_path, "big.json", {"p": p, "algebra": one})
        assert cli.main(["check-extension", doc]) == 2
        assert "supported range" in capsys.readouterr().err


def test_zero_dimensional_coring_exits_cleanly(tmp_path, capsys):
    # the schema rejects a 0-dim carrier at its dim: exit 2, never a traceback
    field = {"dim": 1, "mul": [[[1]]], "unit": [1]}
    dualnum = schema.algebra_document(dual_numbers(5))
    for base in (field, dualnum):
        n = base["dim"]
        carrier = {"dim": 0, "left_action": [[]] * n, "right_action": [[]] * n}
        body = {"base": base, "carrier": carrier, "delta": [], "eps": [[]] * n}
        doc = write_doc(tmp_path, "zero.json", {"p": 5, "coring": body})
        assert cli.main(["check-coring", doc]) == 2
        err = capsys.readouterr().err
        assert "input error at /coring/carrier/dim:" in err and "Traceback" not in err


def test_internal_check_error_exit_3(tmp_path, monkeypatch):
    doc = write_doc(tmp_path, "ext.json", hom_doc(unit_extension(dual_numbers(5))))

    def boom(*a, **k):
        raise InternalCheckError("two equivalent routes disagreed")

    monkeypatch.setattr(cli, "run_documents", boom)
    assert cli.main(["check-extension", doc]) == 3


def test_battery_flag_conflicts_with_subcommand(tmp_path):
    doc = write_doc(tmp_path, "ext.json", hom_doc(unit_extension(dual_numbers(5))))
    assert cli.main(["--battery", "check-extension", doc]) == 2
    assert cli.main([]) == 2


def test_verify_non_string_kind_is_a_no_with_a_reason(tmp_path, capsys):
    doc = write_doc(tmp_path, "ext.json", hom_doc(unit_extension(group_alg(5, 2))))
    rep_path = str(tmp_path / "rep.json")
    assert cli.main(["check-extension", doc, "--report", rep_path]) == 0
    rep = json.loads(open(rep_path).read())
    deep = []
    for _ in range(900):
        deep = [deep]
    for kind in ([], {}, deep):
        next(c for c in rep["checks"] if "certificate" in c)["certificate"]["kind"] = kind
        bad = write_doc(tmp_path, "bad.json", rep)
        capsys.readouterr()
        assert cli.main(["verify", bad]) == 1
        out = capsys.readouterr().out
        assert "unknown certificate kind" in out
        # a kind nested 900 deep is quoted in a few characters, not about 1,800
        assert len(out) < 1000


FUZZ_ALGEBRAS = {
    "C2": lambda p: group_alg(p, 2),
    "C3": lambda p: group_alg(p, 3),
    "D": dual_numbers,
    "T2": upper_triangular2,
    "M2": lambda p: mat_units_algebra(p, 2),
}
# the exception classes the CLI turns into exit code 2
EXIT_2 = (SchemaError, UsageError, ValidationError, CharTooSmall, NotProjectiveAtStage)


@st.composite
def dense_documents(draw):
    """A regular module or bimodule document over a small algebra at a
    prime on either side of the float64/int64 switch, with the algebra's
    basis and the carrier's basis each possibly changed densely."""
    p = draw(st.sampled_from([P_FLOAT_TOP, P_INT_LOW, LARGEST_PRIME]))
    alg = FUZZ_ALGEBRAS[draw(st.sampled_from(sorted(FUZZ_ALGEBRAS)))](p)
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        alg = make_algebra(p, *rebased(alg, *dense_basis_change(alg.dim, p, rng)))
    t, t_inv = dense_basis_change(alg.dim, p, rng) if draw(st.booleans()) else (None, None)

    def carrier(action):
        return action if t is None else conjugated(action, t, t_inv, p)

    if draw(st.booleans()):
        return schema.module_document(LeftModule(alg, carrier(alg.left_mult)))
    return schema.bimodule_document(Bimodule(alg, alg, carrier(alg.left_mult), carrier(alg.right_mult)))


@settings(max_examples=30, deadline=None)
@given(dense_documents(), st.sampled_from(["decompose", "check-bimodule"]))
def test_documents_at_primes_around_the_dtype_switch_get_a_verified_verdict(doc, command):
    raw = json.dumps(doc).encode()
    try:
        out = cli.run_documents(command, [json.loads(raw)])
    except EXIT_2:
        return
    rep = report.build_report(out, 0, report.input_digest(raw), command)
    ok, reasons = verify.verify_report(json.loads(report.canonical_json(rep)))
    assert out.verdict in (report.YES, report.NO, report.VALID)
    assert ok, reasons
