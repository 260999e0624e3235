"""Corpus structure, on-disk form and the decisions' routes."""

import json

import pytest

from qfcert import algebra, cli, decomp, report, schema
from qfcert.fixtures import corpus, write_corpus

from helpers import forbid_calls, report_verifies

ALLOWED = {"yes", "no", "valid", "vacuous"}


def test_corpus_structure():
    fx = corpus()
    assert corpus() is fx  # built once
    names = [f.name for f in fx]
    assert len(names) == len(set(names))
    assert all(f.expected in ALLOWED for f in fx)
    assert all(f.oracle for f in fx)
    by_cmd = {}
    for f in fx:
        by_cmd.setdefault(f.command, []).append(f)
    assert len(by_cmd["check-coring"]) >= 8
    assert {"check-bimodule", "check-extension", "check-graded", "decompose",
            "similar", "divides", "dual-sequence", "sweedler"} <= set(by_cmd)
    # negatives are represented, not just sunny paths
    assert any(f.expected == "no" for f in by_cmd["check-extension"])
    assert any(f.expected == "no" for f in by_cmd["check-coring"])
    assert any(f.expected == "no" for f in by_cmd["check-graded"])
    # all three base fields appear
    primes = {doc["p"] for f in fx for doc in f.docs}
    assert {5, 7, 11} <= primes


def test_every_document_passes_schema_validation():
    for f in corpus():
        for doc in f.docs:
            schema.validate(doc)


def test_single_fixture_runs_match_expectation():
    fx = {f.name: f for f in corpus()}
    fast = ["ext-unit-f5-c2", "ext-quot-dualnum5-f5", "graded-t2-f5", "div-col-reg-m2"]
    for name in fast:
        f = fx[name]
        out = cli.run_documents(f.command, f.docs, seed=0, depth=f.depth)
        assert out.verdict == f.expected, name


def test_write_corpus_roundtrip(tmp_path):
    root = write_corpus(str(tmp_path))
    manifest = json.loads(open(f"{root}/manifest.json").read())
    fx = {f.name: f for f in corpus()}
    assert set(manifest) == set(fx)
    for name, entry in manifest.items():
        assert entry["expected"] == fx[name].expected
        for i, fname in enumerate(entry["files"]):
            doc, raw = schema.load_path(f"{root}/{fname}")
            assert doc == fx[name].docs[i]
            # files are canonical bytes, so digests are reproducible
            assert raw == report.canonical_json(doc).encode()


def test_fixture_reports_are_seed_deterministic():
    fx = {f.name: f for f in corpus()}
    for name in ("ext-unit-f5-c2", "sim-col-reg-m2"):
        f = fx[name]
        outs = [cli.run_documents(f.command, f.docs, seed=3) for _ in range(2)]
        reps = [report.build_report(o, 3, "0" * 64, f.command) for o in outs]
        assert reps[0] == reps[1]


def _decisions():
    return [f for f in corpus() if f.command.startswith("check-") or f.command in ("similar", "divides")]


def test_decision_reports_differ_across_seeds_only_in_the_seed_field():
    # the decisions draw nothing, so the seed reaches their reports only as a field
    for f in _decisions():
        reps = [
            report.build_report(cli.run_documents(f.command, f.docs, seed=s), s, "0" * 64, f.command)
            for s in (0, 1)
        ]
        assert reps[1] == dict(reps[0], seed=1), f.name


def test_no_decision_decomposes_or_builds_an_envelope(monkeypatch):
    forbid_calls(monkeypatch, decomp.decompose)
    forbid_calls(monkeypatch, decomp.end_ring)
    forbid_calls(monkeypatch, algebra.EnvelopingAlgebra.__init__, owner=algebra.EnvelopingAlgebra)
    with pytest.raises(pytest.fail.Exception):
        algebra.enveloping(algebra.field_algebra(5), algebra.field_algebra(5))
    fixtures = _decisions()
    assert {f.command for f in fixtures} == {
        "check-bimodule", "check-extension", "check-coring", "check-graded", "similar", "divides"}
    for f in fixtures:
        out = cli.run_documents(f.command, f.docs, seed=0, depth=f.depth)
        assert out.verdict == f.expected, f.name
        assert report_verifies(out, f.command), f.name
