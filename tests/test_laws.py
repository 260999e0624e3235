"""The input laws against brute-force references: one corrupted entry of a
valid algebra, module action, ring-map matrix or group table must fail
with the exception, and at the position, that ``oracles`` finds by
looping over basis elements in C order."""

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from helpers import cyclic_table, dual_numbers, group_alg, mat_units_algebra, s3_table, upper_triangular2
from qfcert.algebra import AlgebraHom, check_group_table, field_algebra, make_algebra
from qfcert.errors import ValidationError
from qfcert.modrep import LeftModule

ZOO = {
    "dual numbers": dual_numbers,
    "T2": upper_triangular2,
    "C2": lambda p: group_alg(p, 2),
    "C3": lambda p: group_alg(p, 3),
    "M2": lambda p: mat_units_algebra(p, 2),
}
PRIMES = (3, 5, 20011)
algebras = st.tuples(st.sampled_from(sorted(ZOO)), st.sampled_from(PRIMES)).map(
    lambda name_p: (ZOO[name_p[0]](name_p[1]), name_p[1])
)


def corrupted(data, array, p):
    """A copy of ``array`` with one entry, drawn by ``data``, moved by a
    nonzero amount mod p."""
    out = np.array(array, dtype=np.int64)
    at = tuple(data.draw(st.integers(0, s - 1)) for s in out.shape)
    out[at] = (out[at] + data.draw(st.integers(1, p - 1))) % p
    return out


def assert_fails_as(build, want):
    """``build()`` raises what the reference ``want`` names, or nothing
    when ``want`` is None."""
    try:
        build()
    except ValidationError as exc:
        got = exc
    else:
        got = None
    assert type(got) is type(want) and str(got) == str(want)
    for position in ("index", "pair", "triple", "witness"):
        assert getattr(got, position, None) == getattr(want, position, None)


@settings(max_examples=150, deadline=None)
@given(algebras, st.booleans(), st.data())
def test_corrupted_algebra_fails_where_the_reference_does(alg_p, in_unit, data):
    alg, p = alg_p
    mul = corrupted(data, alg.mul, p) if not in_unit else alg.mul
    unit = corrupted(data, alg.unit, p) if in_unit else alg.unit
    assert_fails_as(lambda: make_algebra(p, mul, unit), oracles.algebra_failure(mul, unit, p))


@settings(max_examples=100, deadline=None)
@given(algebras, st.data())
def test_corrupted_module_action_fails_where_the_reference_does(alg_p, data):
    alg, p = alg_p
    act = corrupted(data, alg.left_mult, p)
    assert_fails_as(lambda: LeftModule(alg, act), oracles.module_failure(alg.mul, alg.unit, act, p))


@settings(max_examples=100, deadline=None)
@given(algebras, st.booleans(), st.data())
def test_corrupted_ring_map_fails_where_the_reference_does(alg_p, from_field, data):
    # the unit embedding F_p -> A, or the identity of A
    alg, p = alg_p
    source = field_algebra(p) if from_field else alg
    matrix = alg.unit.reshape(-1, 1) if from_field else np.eye(alg.dim, dtype=np.int64)
    bad = corrupted(data, matrix, p)
    assert_fails_as(lambda: AlgebraHom(source, alg, bad), oracles.ring_map_failure(source, alg, bad, p))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([cyclic_table(2), cyclic_table(3), s3_table()]), st.data())
def test_corrupted_group_table_fails_where_the_reference_does(table, data):
    bad = corrupted(data, table, len(table))
    assert_fails_as(lambda: check_group_table(bad), oracles.group_failure(bad))


def test_every_entry_of_every_zoo_algebra_at_p5_fails_where_the_reference_does():
    # few single-entry changes make the first failing column of an
    # associativity block differ from that of its first differing row, so
    # every entry is changed once, in ``mul``, ``unit`` and the regular action
    p = 5
    for alg in (build(p) for build in ZOO.values()):
        for at in np.ndindex(alg.mul.shape):
            mul, act = alg.mul.copy(), alg.left_mult.copy()
            mul[at] = (mul[at] + 1) % p
            act[at] = (act[at] + 1) % p
            assert_fails_as(lambda: make_algebra(p, mul, alg.unit), oracles.algebra_failure(mul, alg.unit, p))
            assert_fails_as(lambda: LeftModule(alg, act), oracles.module_failure(alg.mul, alg.unit, act, p))
        for at in range(alg.dim):
            unit = alg.unit.copy()
            unit[at] = (unit[at] + 1) % p
            assert_fails_as(lambda: make_algebra(p, alg.mul, unit), oracles.algebra_failure(alg.mul, unit, p))


def test_a_cyclic_table_of_order_300_is_a_group():
    t, e, inv = check_group_table(cyclic_table(300))
    assert e == 0 and inv == [-i % 300 for i in range(300)]
    assert np.array_equal(t, cyclic_table(300))
