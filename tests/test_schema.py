"""Document validation, pointer paths, and build/emit round-trips."""

import json

import numpy as np
import pytest

from helpers import dual_numbers, group_alg, mat_units_algebra
from oracles import equal_graded_modules, graded_regular
from qfcert import schema
from qfcert.algebra import AlgebraHom, equal_algebras, field_algebra
from qfcert.coring import sweedler, trivial_coring
from qfcert.errors import SchemaError, ValidationError
from qfcert.graded import grade_by_partition
from qfcert.modrep import regular_bimodule, regular_left
from qfcert.ringext import Extension

P = 5


def unit_extension(alg):
    f = field_algebra(alg.p)
    return Extension(AlgebraHom(f, alg, np.array(alg.unit).reshape(-1, 1)))


def pointer_of(doc):
    with pytest.raises(SchemaError) as exc:
        schema.validate(doc)
    return exc.value.pointer


def test_algebra_roundtrip():
    a = group_alg(P, 3)
    doc = {"p": P, "algebra": schema.algebra_document(a)}
    assert schema.validate(doc) == "algebra"
    kind, b = schema.build(doc)
    assert kind == "algebra" and equal_algebras(a, b)


def test_hom_and_module_roundtrip():
    ext = unit_extension(dual_numbers(P))
    kind, h = schema.build(schema.hom_document(ext.hom))
    assert kind == "hom"
    assert np.array_equal(h.matrix, ext.hom.matrix)
    m = regular_left(mat_units_algebra(P, 2))
    kind, m2 = schema.build(schema.module_document(m))
    assert kind == "module" and np.array_equal(m2.action, m.action)


def test_bimodule_roundtrip():
    m = regular_bimodule(group_alg(P, 2))
    kind, b = schema.build(schema.bimodule_document(m))
    assert kind == "bimodule"
    assert np.array_equal(b.left_acts, m.left_acts)
    assert np.array_equal(b.right_acts, m.right_acts)


def test_coring_roundtrip_exact_through_raw_delta():
    for c in (trivial_coring(group_alg(P, 2)), sweedler(unit_extension(dual_numbers(P)))):
        doc = schema.coring_document(c)
        kind, c2 = schema.build(doc)
        assert kind == "coring"
        # the quotient-coordinate comultiplication must come back bit-exact
        assert np.array_equal(c2.delta, c.delta)
        assert np.array_equal(c2.eps, c.eps)


def test_graded_roundtrip():
    table = [[0, 1], [1, 0]]
    ring = grade_by_partition(group_alg(P, 2), table, [[0], [1]])
    kind, ring2 = schema.build(schema.graded_document(ring))
    assert kind == "graded"
    assert ring2.dims == ring.dims
    assert np.array_equal(ring2.total.mul, ring.total.mul)
    assert equal_graded_modules(graded_regular(ring2), graded_regular(ring))


def test_documents_are_json_serializable():
    docs = [
        {"p": P, "algebra": schema.algebra_document(group_alg(P, 2))},
        schema.module_document(regular_left(dual_numbers(P))),
        schema.coring_document(trivial_coring(dual_numbers(P))),
    ]
    for doc in docs:
        assert json.loads(json.dumps(doc)) == doc


def test_pointer_paths():
    good_alg = schema.algebra_document(dual_numbers(P))
    assert pointer_of({"p": 4, "algebra": good_alg}) == "/p"
    assert pointer_of({"p": 9, "algebra": good_alg}) == "/p"
    assert pointer_of({"p": P}) == ""
    assert pointer_of({"p": P, "algebra": good_alg, "hom": {}}) == ""
    assert pointer_of({"p": P, "algebra": {"dim": 2, "unit": [1, 0]}}) == "/algebra"
    bad_mul = {"dim": 2, "mul": [[[0, 0], [0, 0]], [[0, 0]]], "unit": [1, 0]}
    assert pointer_of({"p": P, "algebra": bad_mul}).startswith("/algebra/mul")
    bad_unit = {"dim": 2, "mul": good_alg["mul"], "unit": [True, 0]}
    assert pointer_of({"p": P, "algebra": bad_unit}) == "/algebra/unit/0"
    out_of_range = {"dim": 2, "mul": good_alg["mul"], "unit": [5, 0]}
    assert pointer_of({"p": P, "algebra": out_of_range}) == "/algebra/unit/0"
    assert pointer_of([1, 2, 3]) == ""


def algebra_doc(mul=None, unit=None):
    """The dual numbers over F_5 as an algebra document, with ``mul`` or
    ``unit`` replaced."""
    body = schema.algebra_document(dual_numbers(P))
    if mul is not None:
        body["mul"] = mul
    if unit is not None:
        body["unit"] = unit
    return {"p": P, "algebra": body}


MUL = schema.algebra_document(dual_numbers(P))["mul"]


def with_entry(path, value):
    """MUL with the entry at ``path`` set to ``value``."""
    mul = json.loads(json.dumps(MUL))
    *head, last = path
    row = mul
    for i in head:
        row = row[i]
    row[last] = value
    return mul


# one document per fault kind, each with the pointer and message of the
# first fault in document order
@pytest.mark.parametrize("doc, pointer, message", [
    (algebra_doc(unit=[True, 0]), "/algebra/unit/0", "expected an integer, got True"),
    (algebra_doc(unit=[1, 0.0]), "/algebra/unit/1", "expected an integer, got 0.0"),
    (algebra_doc(mul=with_entry((1, 0, 1), -1)), "/algebra/mul/1/0/1", "value -1 out of range [0, 5)"),
    (algebra_doc(mul=with_entry((0, 1, 0), P)), "/algebra/mul/0/1/0", "value 5 out of range [0, 5)"),
    (algebra_doc(unit=[1, 10**40]), "/algebra/unit/1", f"value {10**40} out of range [0, 5)"),
    (algebra_doc(mul=with_entry((1, 1), [0, 0, 0])), "/algebra/mul/1/1", "expected length 2, got 3"),
    (algebra_doc(mul=with_entry((1,), [[0, 0]])), "/algebra/mul/1", "expected length 2, got 1"),
    (algebra_doc(mul=with_entry((0, 1), 7)), "/algebra/mul/0/1", "expected a list of length 2"),
    (algebra_doc(unit="10"), "/algebra/unit", "expected a list of length 2"),
    # the first fault in document order, not the shallowest
    (algebra_doc(mul=with_entry((0, 0, 0), 5)[:1] + [[[0, 0]]]), "/algebra/mul/0/0/0", "value 5 out of range [0, 5)"),
])
def test_array_faults_are_named_by_their_first_pointer(doc, pointer, message):
    with pytest.raises(SchemaError) as exc:
        schema.validate(doc)
    assert (exc.value.pointer, exc.value.message) == (pointer, message)


def test_int_and_list_subclasses_other_than_bool_are_entries():
    class Entry(int):
        pass

    class Row(list):
        pass

    doc = algebra_doc(unit=Row([Entry(1), 0]))
    assert schema.validate(doc) == "algebra"


def test_graded_table_entries_are_group_indices():
    ring = grade_by_partition(group_alg(P, 2), [[0, 1], [1, 0]], [[0], [1]])
    doc = schema.graded_document(ring)
    doc["graded"]["group_table"][0][0] = 2  # order is 2, so index 2 is bad
    assert pointer_of(doc).startswith("/graded/group_table")


def test_build_enforces_mathematical_laws():
    # schema-valid but mathematically broken: action violates module laws
    alg = schema.algebra_document(dual_numbers(P))
    doc = {
        "p": P,
        "module": {"algebra": alg, "dim": 1, "action": [[[1]], [[1]]]},
    }
    assert schema.validate(doc) == "module"
    with pytest.raises(ValidationError):
        schema.build(doc)


def test_expect_and_build_extension_guard_kinds():
    doc = schema.module_document(regular_left(dual_numbers(P)))
    with pytest.raises(SchemaError):
        schema.expect(doc, "coring")
    with pytest.raises(SchemaError):
        schema.build_extension(doc)


def test_load_path_errors(tmp_path):
    with pytest.raises(SchemaError):
        schema.load_path(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(SchemaError):
        schema.load_path(str(bad))
