"""Round-trip and tamper tests for the standalone certificate re-checker.

Every certificate kind the provers emit must verify from its own embedded
data, and the same payload must fail once any matrix entry is corrupted.
"""

import ast
import copy
import functools
import operator
import pathlib

import numpy as np
import pytest

from helpers import (
    certificates,
    direct_sum,
    dual_numbers,
    group_alg,
    inline,
    mat_units_algebra,
    power_bimodule,
)
from oracles import check_pair_witness, qf_pair_witness
from qfcert import cli, fixtures, report, schema, verify
from qfcert.algebra import AlgebraHom, field_algebra
from qfcert.coring import is_qf_coring, trivial_coring
from qfcert.graded import grade_by_partition, is_qf_restriction
from qfcert.modrep import LeftModule, is_fg_projective, regular_bimodule, regular_left, split_pair_reasons
from qfcert.ringext import Extension, is_qf_extension
from qfcert.simdiv import similar, split_witness_payload

P = 5
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qfcert"


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


def test_split_witness_on_fewer_generators_than_basis_vectors():
    # M2(F_5)^2 (dim 8) is presented free on 2 spun generators
    m2 = regular_left(mat_units_algebra(P, 2))
    w = is_fg_projective(direct_sum(m2, m2)[0])
    pay = split_witness_payload(w)
    assert len(pay["pi_blocks"]) == len(pay["sigma_blocks"]) == 2 < w.module.dim
    assert_verifies(pay)


def test_split_witness_of_the_zero_module():
    w = is_fg_projective(LeftModule(dual_numbers(P), np.zeros((2, 0, 0), dtype=np.int64)))
    pay = split_witness_payload(w)
    assert len(w.pi_blocks) == 0 and pay["pi_blocks"] == pay["sigma_blocks"] == []
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
    sim_a = similar(regular_bimodule(dual_numbers(P)), regular_bimodule(dual_numbers(P)))
    sim_b = similar(regular_bimodule(group_alg(P, 2)), regular_bimodule(group_alg(P, 2)))
    # a backward half that carries its modules must carry the forward ones
    franken = {"kind": "similarity", "forward": sim_a.forward.payload(), "backward": sim_b.backward.payload()}
    assert_rejected(franken, "disagree")
    # one that carries none is checked on the forward ones, which its maps do not respect
    franken["backward"] = sim_b.payload()["backward"]
    assert "source" not in franken["backward"]
    assert_rejected(franken, "certificate/backward: phi block 0 is not left-equivariant")


def test_backward_half_takes_its_modules_from_the_forward_half():
    # the forward half carries both modules; the backward half, the maps alone
    m = regular_bimodule(group_alg(P, 2))
    pay = similar(m, power_bimodule(m, 2)).payload()
    fwd, bwd = pay["forward"], pay["backward"]
    assert sorted(bwd) == ["kind", "n", "note", "p", "phi", "psi"]
    assert fwd["source"]["dim"] == 2 and fwd["target"]["dim"] == 4
    assert_verifies(pay)
    # the older form, with the forward modules crosswise in the backward half, still verifies
    old = copy.deepcopy(pay)
    old["backward"].update(source=fwd["target"], target=fwd["source"])
    assert_verifies(old)
    # it does not with them uncrossed, nor with one of them alone
    uncrossed = copy.deepcopy(pay)
    uncrossed["backward"].update(source=fwd["source"], target=fwd["target"])
    assert_rejected(uncrossed, "disagree")
    for key in ("source", "target"):
        one = copy.deepcopy(pay)
        one["backward"][key] = old["backward"][key]
        ok, reasons = verify.verify_payload(one)
        assert not ok and reasons == [
            "certificate: malformed similarity payload (the backward half carries one module of two)"
        ]
    # the halves must share their prime
    other_p = copy.deepcopy(pay)
    other_p["backward"]["p"] = 7
    assert_rejected(other_p, "disagree about p")
    # the backward maps are checked on the forward modules
    bad = copy.deepcopy(pay)
    bad["backward"]["psi"][0][0] = (bad["backward"]["psi"][0][0] + 1) % P
    assert_rejected(bad, "certificate/backward: ")


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
    sim = similar(regular_bimodule(dual_numbers(P)), regular_bimodule(dual_numbers(P)))
    short = sim.payload()["forward"]
    del short["phi"]
    assert_rejected(short, "malformed")


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


# ---------------------------------------------------------------------------
# split pairs: every leaf kind is checked by one predicate


def battery_report(name):
    """The seed-0 battery report of the fixture ``name``, with its tables
    written back into its certificates."""
    (f,) = [f for f in fixtures.corpus() if f.name == name]
    out = cli.run_documents(f.command, f.docs, seed=0, depth=f.depth)
    return inline(report.build_report(out, 0, "0" * 64, f.command))


# kinds that stack their into maps as row blocks and set their back maps
# side by side: (into, back, number of copies)
STACKED = {"divides": ("phi", "psi", "n"), "pair-witness": ("alpha", "alphabar", "m")}


def decomposition_copies(pay):
    """(class index, copy index) of every copy, in the verifier's block order."""
    return [(i, j) for i, cls in enumerate(pay["classes"]) for j in range(len(cls["injections"]))]


def block_entries(pay):
    """(map name, block, path) of every entry of every block of a split pair."""
    kind = pay["kind"]
    if kind == "split-witness":
        for key, name in (("sigma_blocks", "sigma"), ("pi_blocks", "pi")):
            for b, i, j in np.ndindex(np.shape(pay[key])):
                yield name, b, (key, b, i, j)
    elif kind == "decomposition":
        for c, (i, j) in enumerate(decomposition_copies(pay)):
            for key, name in (("projections", "projection"), ("injections", "injection")):
                for a, b in np.ndindex(np.shape(pay["classes"][i][key][j])):
                    yield name, c, ("classes", i, key, j, a, b)
    else:
        into, back, count = STACKED[kind]
        size = len(pay[into]) // pay[count]
        for i, j in np.ndindex(np.shape(pay[into])):
            yield into, i // size, (into, i, j)
        for i, j in np.ndindex(np.shape(pay[back])):
            yield back, j // size, (back, i, j)


def block_maps(pay):
    """(into, back) of every block of a split pair, as arrays."""
    kind = pay["kind"]
    if kind == "split-witness":
        return list(zip(np.array(pay["sigma_blocks"]), np.array(pay["pi_blocks"])))
    if kind == "decomposition":
        classes = pay["classes"]
        return [(np.array(classes[i]["projections"][j]), np.array(classes[i]["injections"][j]))
                for i, j in decomposition_copies(pay)]
    into, back, count = STACKED[kind]
    size = len(pay[into]) // pay[count]
    a, b = np.array(pay[into]), np.array(pay[back])
    return [(a[c * size : (c + 1) * size], b[:, c * size : (c + 1) * size]) for c in range(pay[count])]


def without_block(pay, c):
    """A copy of a split pair with its block c dropped from both maps."""
    bad = copy.deepcopy(pay)
    kind = bad["kind"]
    if kind == "split-witness":
        del bad["pi_blocks"][c], bad["sigma_blocks"][c]
    elif kind == "decomposition":
        i, j = decomposition_copies(bad)[c]
        del bad["classes"][i]["injections"][j], bad["classes"][i]["projections"][j]
    else:
        into, back, count = STACKED[kind]
        size = len(bad[into]) // bad[count]
        del bad[into][c * size : (c + 1) * size]
        for row in bad[back]:
            del row[c * size : (c + 1) * size]
        bad[count] -= 1
    return bad


@pytest.fixture(scope="module")
def split_pairs():
    """One split pair of each leaf kind, with two blocks, over M2(F_5):
    module maps between its modules have even rank, so no one-entry change
    leaves a block a module map."""
    found = {}
    for name in ("bim-alg-f5-m2", "decomp-reg-m2"):
        for cert in certificates(battery_report(name)):
            found.setdefault(cert["kind"], cert)
    ext = fixtures.unit_extension(fixtures.mat_units_algebra(P, 2))
    (found["pair-witness"],) = qf_pair_witness(ext, regular_left(field_algebra(P))).certificates()
    return found


@pytest.mark.parametrize("kind", ["split-witness", "divides", "pair-witness", "decomposition"])
def test_tampered_split_pair_is_rejected(split_pairs, kind):
    # no report carries a pair witness, so the test oracle checks it with
    # the verifier's own split-pair predicate
    check = check_pair_witness if kind == "pair-witness" else verify.verify_payload
    pay = split_pairs[kind]
    assert check(pay) == (True, [])

    def assert_fails(bad, fragment):
        ok, reasons = check(bad)
        assert not ok and any(fragment in r for r in reasons), reasons

    blocks = set()
    for name, c, path in block_entries(pay):
        bad = copy.deepcopy(pay)
        *head, last = path
        row = functools.reduce(operator.getitem, head, bad)
        row[last] = (row[last] + 1) % P
        assert_fails(bad, f"{name} block {c} is not")
        blocks.add(c)
    maps = block_maps(pay)
    assert blocks == set(range(len(maps))) == {0, 1}
    # every block adds to the sum, so none can be dropped
    for c, (into, back) in enumerate(maps):
        assert (back @ into % P).any()
        assert_fails(without_block(pay, c), "is not the identity")


def test_pair_witness_is_an_unknown_kind(split_pairs):
    ok, reasons = verify.verify_payload(split_pairs["pair-witness"])
    assert not ok and reasons == ["certificate: unknown certificate kind 'pair-witness'"]


def test_decomposition_copies_must_be_orthogonal(split_pairs):
    # a copy repeated beside its negative keeps every block a module map and
    # the sum the identity, but the copies are no longer orthogonal
    bad = copy.deepcopy(split_pairs["decomposition"])
    cls = bad["classes"][0]
    cls["injections"] += [cls["injections"][0]] * 2
    cls["projections"] += [cls["projections"][0], [[-x % P for x in row] for row in cls["projections"][0]]]
    ok, reasons = verify.verify_payload(bad)
    assert not ok
    assert reasons == ["certificate: stacked projections times injections side by side are not the identity"]


@pytest.mark.parametrize("command", ["check-bimodule", "decompose", "divides"])
def test_zero_dimensional_split_pairs_verify(command):
    dn = dual_numbers(P)
    zero = schema.module_document(LeftModule(dn, np.zeros((2, 0, 0), dtype=np.int64)))
    docs = [zero, schema.module_document(regular_left(dn))][: 2 if command == "divides" else 1]
    rep = report.build_report(cli.run_documents(command, docs), 0, "0" * 64, command)
    assert rep["verdict"] in verify.PASSING
    assert verify.verify_report(rep) == (True, [])
    assert {c["kind"] for c in certificates(rep)} & {"split-witness", "decomposition", "divides"}


@pytest.fixture(scope="module")
def battery_certificates():
    """Every certificate of the seed-0 battery, nested ones too, each
    distinct one once and with its table entries written back; a
    similarity's backward half is a whole divides payload, with the modules
    it reads from its forward half crosswise."""
    found = {}
    for r in fixtures.battery(seed=0):
        for cert in certificates(inline(r["report"])):
            if cert["kind"] == "similarity":
                fwd = cert["forward"]
                cert["backward"].update(source=fwd["target"], target=fwd["source"])
            found.setdefault(report.canonical_json(cert), cert)
    return list(found.values())


def test_no_battery_block_adds_nothing_to_the_sum(battery_certificates):
    # a block whose composite back . into is zero could be dropped and the
    # certificate would still verify: the prover keeps no such block
    composites = [
        (back @ into % pay["p"]).any()
        for pay in battery_certificates
        if pay["kind"] in ("split-witness", "divides")
        for into, back in block_maps(pay)
    ]
    assert len(composites) > 100 and all(composites)


def test_both_forms_of_every_battery_similarity_verify(battery_certificates):
    # the fixture has put the forward modules, crosswise, into every
    # backward half: the form reports had before the backward half dropped
    # them, which must keep verifying
    sims = [c for c in battery_certificates if c["kind"] == "similarity"]
    assert len(sims) > 10 and all("source" in c["backward"] for c in sims)
    for old in sims:
        new = copy.deepcopy(old)
        del new["backward"]["source"], new["backward"]["target"]
        assert verify.verify_payload(old) == verify.verify_payload(new) == (True, [])


def prover_reasons(pay):
    """``modrep.split_pair_reasons`` on the copies of a split pair payload,
    read as the verifier reads them."""
    p, kind = pay["p"], pay["kind"]

    def arr(obj, *shape):
        return np.array(obj, dtype=np.int64).reshape(shape) % p

    def stacks(bim):
        d = bim["dim"]
        return [arr(bim[key], len(bim[key]), d, d) for key in ("left_acts", "right_acts")]

    if kind == "divides":
        n, dm, dn = pay["n"], pay["source"]["dim"], pay["target"]["dim"]
        copies = (arr(pay["phi"], n, dn, dm), arr(pay["psi"], dm, n, dn).transpose(1, 0, 2), stacks(pay["target"]))
        families = list(zip(("left", "right"), stacks(pay["source"])))
        return split_pair_reasons(p, dm, [copies], families, ("phi", "psi"))
    na, d = len(pay["module_action"]), len(pay["module_action"][0])
    action = arr(pay["module_action"], na, d, d)
    if kind == "split-witness":
        r = len(pay["pi_blocks"])
        left_mult = arr(pay["algebra_mul"], na, na, na).transpose(0, 2, 1)
        copies = (arr(pay["sigma_blocks"], r, na, d), arr(pay["pi_blocks"], r, d, na), (left_mult,))
        return split_pair_reasons(p, d, [copies], [("A", action)], ("sigma", "pi"))
    classes = []
    for cls in pay["classes"]:
        m, k = len(cls["injections"]), cls["dim"]
        copies = arr(cls["projections"], m, k, d), arr(cls["injections"], m, d, k), (arr(cls["action"], na, k, k),)
        classes.append(copies)
    return split_pair_reasons(p, d, classes, [("A", action)], ("projection", "injection"))


def test_prover_and_verifier_give_the_same_reasons(battery_certificates):
    # one entry of one block changed, in every split-witness, divides and
    # decomposition certificate of the battery: the prover's check and the
    # verifier's name the same failures (the verifier also checks that the
    # copies of a decomposition are orthogonal, which is no split-pair law)
    rng = np.random.RandomState(0)
    orthogonal = "certificate: stacked projections times injections side by side are not the identity"
    rejected = {}
    for pay in battery_certificates:
        entries = list(block_entries(pay)) if pay["kind"] in ("split-witness", "divides", "decomposition") else []
        if not entries:
            continue
        assert prover_reasons(pay) == []
        bad = copy.deepcopy(pay)
        *head, last = entries[rng.randint(len(entries))][2]
        row = functools.reduce(operator.getitem, head, bad)
        row[last] = (row[last] + rng.randint(1, pay["p"])) % pay["p"]
        reasons = [r for r in verify.verify_payload(bad)[1] if r != orthogonal]
        assert prover_reasons(bad) == [r.removeprefix("certificate: ") for r in reasons]
        rejected.setdefault(pay["kind"], []).append(bool(reasons))
    assert set(rejected) == {"split-witness", "divides", "decomposition"}
    assert all(any(found) for found in rejected.values())


def produced_kinds() -> set:
    """The "kind" of every dict literal in qfcert outside the verifier."""
    kinds = set()
    for path in SRC.glob("*.py"):
        if path.name == "verify.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict):
                pairs = zip(node.keys, node.values)
                kinds |= {v.value for k, v in pairs if isinstance(k, ast.Constant) and k.value == "kind"}
    return kinds


def test_every_produced_kind_has_a_checker_and_every_checker_a_producer():
    assert produced_kinds() == set(verify._KINDS)
