"""A report's ``algebras`` and ``modules`` tables.

``report.build_report`` writes each algebra and module of a report's
certificates once, into two tables, and the certificates name the entries
by index.  These tests pin that no entry is written twice and none is
unnamed, that the verifier turns every bad index, table or entry into a
reason, and that a bare certificate still verifies only from its own data.
(That the tables lose nothing is pinned by the golden digests of
``test_acceptance``.)
"""

import collections
import json

import pytest
from hypothesis import given, settings, strategies as st

from helpers import certificates
from qfcert import fixtures, report, verify

TABLES = ("algebras", "modules")


@pytest.fixture(scope="module")
def battery():
    """The canonical text of every seed-0 battery report, by fixture name."""
    return {r["name"]: report.canonical_json(r["report"]) for r in fixtures.battery(seed=0)}


def payloads_and_names(rep):
    """The canonical text of every algebra and module payload of ``rep``,
    in its tables or still inline in a certificate, and the indices its
    certificates name in each table (an algebra through a left module)."""
    payloads = [report.canonical_json(e) for t in TABLES for e in rep.get(t, [])]
    named = {t: set() for t in TABLES}
    for cert in certificates(rep["checks"]):
        for key in ("source", "target", "module"):
            if isinstance(cert.get(key), int):
                named["modules"].add(cert[key])
            elif isinstance(cert.get(key), dict):
                payloads.append(report.canonical_json(cert[key]))
        if "algebra_mul" in cert:  # a split witness written inline
            algebra = {"mul": cert["algebra_mul"], "unit": cert["algebra_unit"]}
            payloads += [report.canonical_json(algebra), report.canonical_json(dict(algebra, action=cert["module_action"]))]
    named["algebras"] = {rep["modules"][i]["algebra"] for i in named["modules"] if "algebra" in rep["modules"][i]}
    return payloads, named


def test_no_battery_report_writes_an_algebra_or_module_twice(battery):
    written = 0
    for name, text in battery.items():
        rep = json.loads(text)
        payloads, named = payloads_and_names(rep)
        repeated = [p[:60] for p, count in collections.Counter(payloads).items() if count > 1]
        assert repeated == [], name
        # and every entry is named by some certificate
        assert named == {t: set(range(len(rep.get(t, [])))) for t in TABLES}, name
        written += len(payloads)
    assert written > 100


def verified(checks):
    """Every certificate the verifier reads in a check list: those of
    passing checks, and what they contain."""
    for chk in checks:
        if chk["verdict"] in verify.PASSING and chk.get("certificate") is not None:
            yield from nested(chk["certificate"])


def nested(cert):
    yield cert
    if cert["kind"] == "outcome":
        yield from verified(cert["checks"])
    for key in ("projectivity", "similarity", "forward", "backward"):
        if key in cert:
            yield from nested(cert[key])


def index_sites(rep):
    """(holder, key, table) of every table index the verifier reads."""
    sites = [(cert, key, "modules") for cert in verified(rep["checks"])
             for key in ("source", "target", "module") if isinstance(cert.get(key), int)]
    named = sorted({holder[key] for holder, key, _ in sites})
    return sites + [(rep["modules"][i], "algebra", "algebras") for i in named if "algebra" in rep["modules"][i]]


def tabled(battery):
    return sorted(name for name, text in battery.items() if index_sites(json.loads(text)))


NOT_AN_INDEX = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)
NOT_A_LIST = st.one_of(st.none(), st.integers(), st.text(max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def tamper_index(data, rep):
    holder, key, table = data.draw(st.sampled_from(index_sites(rep)))
    size = len(rep[table])
    holder[key] = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=size), NOT_AN_INDEX))


def tamper_table(data, rep):
    table = data.draw(st.sampled_from(sorted({table for _, _, table in index_sites(rep)})))
    if data.draw(st.booleans()):
        del rep[table]
    else:
        rep[table] = data.draw(NOT_A_LIST)


def wrong_shapes(entry, other_kind):
    """Entries that cannot stand for ``entry``: not an object, a key
    missing, an array that is a number, a bimodule of one dimension more,
    or an entry of another kind."""
    shapes = [[], 0, "entry", other_kind]
    for key in entry:
        shapes.append({k: v for k, v in entry.items() if k != key})
        if key not in ("algebra", "dim"):
            shapes.append(dict(entry, **{key: 7}))
    if "dim" in entry:
        shapes.append(dict(entry, dim=entry["dim"] + 1))
    return shapes


def tamper_entry(data, rep):
    sites = index_sites(rep)
    table, index = data.draw(st.sampled_from(sorted({(table, holder[key]) for holder, key, table in sites})))
    entry = rep[table][index]
    other_kind = {"dim": 1, "left_acts": [[[1]]], "right_acts": [[[1]]]} if "algebra" in entry else {"algebra": 0, "action": [[[1]]]}
    rep[table][index] = data.draw(st.sampled_from(wrong_shapes(entry, other_kind)))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), tamper=st.sampled_from([tamper_index, tamper_table, tamper_entry]))
def test_a_tampered_table_or_index_gives_a_reason_and_no_traceback(battery, data, tamper):
    name = data.draw(st.sampled_from(tabled(battery)))
    rep = json.loads(battery[name])
    tamper(data, rep)
    ok, reasons = verify.verify_report(rep)
    assert not ok and reasons
    assert not [r for r in reasons if "verification raised" in r], reasons
    assert any(t in r for r in reasons for t in TABLES), reasons


def test_table_reasons_name_what_is_wrong(battery):
    rep = json.loads(battery["sim-col-reg-m2"])
    fwd = rep["checks"][0]["certificate"]["forward"]

    def reasons_with(**changes):
        bad = json.loads(battery["sim-col-reg-m2"])
        for path, value in changes.items():
            holder, key = (bad, path) if path in TABLES else (bad["checks"][0]["certificate"]["forward"], path)
            holder[key] = value
        ok, reasons = verify.verify_report(bad)
        assert not ok
        return reasons

    size = len(rep["modules"])
    prefix = "checks/0/forward: malformed divides payload"
    assert fwd["source"] in range(size) and fwd["target"] in range(size)
    assert reasons_with(source=size) == [f"{prefix} (modules index {size} is out of range: the table has {size} entries)"]
    assert reasons_with(source=-1) == [f"{prefix} (modules index -1 is out of range: the table has {size} entries)"]
    assert reasons_with(target=True) == [f"{prefix} (modules index True is not an integer)"]
    assert reasons_with(target="0") == [f"{prefix} (modules index '0' is not an integer)"]
    assert reasons_with(modules={}) == ["report: the modules table is not a list", f"{prefix} (the modules table is not a list)"]
    del rep["modules"]
    ok, reasons = verify.verify_report(rep)
    assert not ok and reasons == [f"{prefix} (modules entry {fwd['source']} is named, but there is no modules table)"]
    assert reasons_with(modules=[{"algebra": 0, "action": [[[1]]]}] * size) == [
        f"{prefix} (modules entry {fwd['source']} is malformed (it is a left module, not a bimodule))"
    ]
    # a split witness's module must be a left module over an algebra of the table
    rep = json.loads(battery["ext-unit-f5-c2"])
    witness = rep["checks"][0]["certificate"]
    (entry,) = [rep["modules"][witness["module"]]]
    entry["algebra"] = 5
    ok, reasons = verify.verify_report(rep)
    assert not ok and reasons[0] == (
        f"checks/0: malformed split witness (modules entry {witness['module']} is malformed "
        f"(algebras index 5 is out of range: the table has {len(rep['algebras'])} entries))"
    )


def test_a_bare_certificate_that_names_an_index_is_rejected(battery):
    # a certificate taken out of its report has no tables to read
    rejected = 0
    for name in tabled(battery):
        rep = json.loads(battery[name])
        for chk in rep["checks"]:
            cert = chk.get("certificate")
            if chk["verdict"] not in verify.PASSING or cert is None or not index_sites({**rep, "checks": [chk]}):
                continue
            ok, reasons = verify.verify_payload(cert)
            assert not ok and any("is named, but there is no modules table" in r for r in reasons), (name, reasons)
            rejected += 1
    assert rejected > 50


def test_each_table_entry_is_parsed_once_per_report(battery, monkeypatch):
    # the coring report names its modules many times over
    calls = collections.Counter()
    original = verify._module_payload

    def counted(obj, p):
        calls[id(obj)] += 1
        return original(obj, p)

    monkeypatch.setattr(verify, "_module_payload", counted)
    rep = json.loads(battery["coring-sweedler-f5-m2"])
    named = [holder[key] for holder, key, _ in index_sites(rep) if key != "algebra"]
    assert verify.verify_report(rep) == (True, [])
    assert len(named) > len(set(named)) and set(calls.values()) == {1}
