"""The run-scoped memo: exact keys, read-only results, scope lifetime."""

import traceback
from contextlib import contextmanager

import numpy as np
import pytest

from qfcert import cli, fixtures, memo, modrep, report, schema
from qfcert.coring import sweedler
from qfcert.errors import UsageError
from qfcert.fixtures import unit_extension
from qfcert.modrep import hom_space, regular_bimodule, regular_left
from qfcert.ringext import is_qf_extension
from qfcert.simdiv import dual_sequence

from helpers import count_calls, dual_numbers, group_alg, mat_units_algebra, record_calls

P = 5


@pytest.fixture
def memo_scope():
    """No test-wide scope here: these tests open their own and check what
    happens outside one."""
    yield


@pytest.fixture
def scopes(monkeypatch):
    """Every scope ``cli.run_documents`` opens, in order."""
    opened = []
    original = memo.scope

    @contextmanager
    def recorded():
        with original() as s:
            opened.append(s)
            yield s

    monkeypatch.setattr(memo, "scope", recorded)
    return opened


def test_check_coring_memo_counts(scopes):
    # coring-sweedler-f5-c2: (hits, misses) per memoized function
    doc = schema.coring_document(sweedler(unit_extension(group_alg(P, 2))))
    out = cli.run_documents("check-coring", [doc], seed=0)
    assert out.verdict == report.YES
    # no decision decomposes or builds an envelope, so hom spaces, module
    # laws, presentations, split witnesses, trace solves and the payload
    # lists of algebras and modules are all the memo holds
    assert scopes[0].counts() == {
        # 8 projectivity tests on 5 distinct modules: the 3 repeats are hits.
        # Each of the 5 reads a presentation; the 4 whose cover has relations
        # solve on Hom(C, A), which the dual rings solve for too, so they add
        # hits and no misses
        "hom_space": (9, 13),
        # 18 law checks on 7 distinct actions: 12 validate the duals that
        # ``_dual`` builds, and the conditions build the same duals again
        "module_laws": (11, 7),
        "presentation": (10, 10),
        "split_witness": (3, 5),
        # 44 algebra and module arrays in the certificates, 3 per split
        # witness and 4 per similarity, are 10 distinct arrays, each one list
        "table_array": (34, 10),
        # 14 solves on 9 distinct pairs of stacks: 4 for the split witnesses
        # and 10 for divisions, where the backward solve of a similar(X, X)
        # repeats its forward one and conditions share their divisions
        "trace_split": (5, 9),
    }


@pytest.mark.parametrize("name, calls, distinct", [("coring-sweedler-f5-c2", 8, 5), ("ext-unit-f5-m2", 4, 3)])
def test_each_projectivity_check_is_solved_once_per_document(name, calls, distinct, monkeypatch):
    # check-coring tests the carrier's left restriction itself and again in
    # the carrier bimodule's prelude; the two routes of check-extension
    # share one restriction: repeats are memo hits, not solves
    fixture = next(f for f in fixtures.corpus() if f.name == name)
    checked = record_calls(monkeypatch, modrep.is_fg_projective)
    solves = count_calls(monkeypatch, modrep._split_witness)
    out = cli.run_documents(fixture.command, fixture.docs, seed=0, depth=fixture.depth)
    assert out.verdict == fixture.expected
    keys = {(m.algebra.memo_key(), memo.array_key(m.action)) for (m,) in checked}
    assert (len(checked), len(keys), solves) == (calls, distinct, [distinct])


def test_dual_sequence_reuses_each_dual_hom_space(scopes):
    # the regular M2(F_5) bimodule: both restrictions are presented with
    # relations, so each projectivity check solves on Hom(M, A), the hom
    # space the dual it guards is built on, and one scope holds both
    m = regular_bimodule(mat_units_algebra(P, 2))
    assert all(modrep._presentation(P, acts)[1].shape[1] for acts in (m.left_acts, m.right_acts))
    assert [k for k, _ in dual_sequence(m, 1)] == [-1, 0, 1]
    # the scope dual_sequence opens: two checks, each a miss for the hom
    # space its dual then hits
    assert len(scopes) == 1 and scopes[0].counts()["hom_space"] == (2, 2)


def test_sweedler_builds_no_envelope():
    # a coring reads its carrier's two actions only: no bimodule it builds
    # is viewed over the enveloping algebra
    with memo.scope() as s:
        sweedler(unit_extension(mat_units_algebra(P, 2)))
    assert "enveloping" not in s.counts()


def test_no_entry_survives_run_documents(scopes):
    doc = schema.module_document(regular_left(mat_units_algebra(P, 2)))
    with memo.scope() as outer:
        cli.run_documents("decompose", [doc], seed=0)
        assert memo._SCOPE.get() is outer
    inner = scopes[1]
    assert inner is not outer and inner.counts()["hom_space"] == (3, 2)
    assert inner.entries == {} and outer.entries == {}
    assert memo._SCOPE.get() is None


def test_a_decision_opens_a_scope_only_when_none_is_open(monkeypatch):
    # is_qf_extension on the F_5[C2] unit extension needs 2 distinct hom
    # spaces, and the scope it opens solves each of them once
    solves = count_calls(monkeypatch, modrep._hom_basis)
    ext = unit_extension(group_alg(P, 2))
    assert is_qf_extension(ext).verdict == report.YES
    assert solves == [2] and memo._SCOPE.get() is None
    # an open scope is joined: the second call solves nothing
    with memo.scope():
        is_qf_extension(ext)
        is_qf_extension(ext)
    assert solves == [4]


def test_memoized_hom_basis_is_read_only():
    m = regular_left(mat_units_algebra(P, 2))
    with memo.scope():
        h = hom_space(m, m)
        with pytest.raises(ValueError):
            h.basis[0, 0, 0] = 1
        assert np.array_equal(hom_space(m, m).basis, h.basis)


def test_equal_modules_share_one_entry():
    a, b = regular_left(mat_units_algebra(P, 2)), regular_left(mat_units_algebra(P, 2))
    assert a.algebra is not b.algebra
    with memo.scope() as s:
        ha, hb = hom_space(a, a), hom_space(b, b)
        assert ha.basis is hb.basis
        assert (ha.source, hb.source) == (a, b)
        assert s.counts()["hom_space"] == (1, 1)
        # keying froze the inputs, so the key cannot go stale
        assert not a.action.flags.writeable


def test_nothing_is_cached_outside_a_scope():
    m = regular_left(mat_units_algebra(P, 2))
    assert hom_space(m, m).basis is not hom_space(m, m).basis
    assert m.action.flags.writeable


def test_argument_checks_run_inside_a_scope():
    a, b = regular_left(mat_units_algebra(P, 2)), regular_left(dual_numbers(P))
    with memo.scope() as s:
        hom_space(a, a)
        with pytest.raises(UsageError):
            hom_space(a, b)
        with pytest.raises(UsageError):
            hom_space(b, a)
        assert s.counts() == {"hom_space": (0, 1), "presentation": (0, 1)}


def test_error_in_a_memoized_body_carries_no_lookup_error():
    # the miss's lookup error would hold the whole key, 64^3 entries here
    def fail(a):
        raise MemoryError("body failed")

    with memo.scope() as s:
        with pytest.raises(MemoryError) as info:
            memo.cached("fail", fail, np.zeros((64, 64, 64), dtype=np.int64))
    assert info.value.__context__ is None
    assert len("".join(traceback.format_exception(info.value))) < 10_000
    assert s.counts() == {}


def test_same_document_twice_in_one_process_gives_the_same_report():
    c2 = schema.coring_document(sweedler(unit_extension(group_alg(P, 2))))
    m2 = schema.module_document(regular_left(mat_units_algebra(P, 2)))

    def run(command, doc):
        out = cli.run_documents(command, [doc], seed=0)
        digest = report.input_digest(report.canonical_json(doc).encode())
        return report.canonical_json(report.build_report(out, 0, digest, command))

    first = run("check-coring", c2)
    run("decompose", m2)
    assert run("check-coring", c2) == first
