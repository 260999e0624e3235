"""Bundled corpus of small worked instances with expected verdicts.

Each fixture is one or two JSON documents in the input schema, the
subcommand that decides it, the expected verdict, and a note naming the
oracle or hand argument that froze the expectation.  ``battery`` runs
every fixture through the shared decision core, compares verdicts, and
independently re-verifies every certificate in the produced report;
100% pass is the release gate.

The corpus spans base fields F_5, F_7, F_11 and the algebra zoo
{field, C_2 and C_3 group algebras, dual numbers, M_2, F_p x F_p, upper
triangular T_2}: semisimple, local non-semisimple, and
non-self-injective behavior are all represented, with every enveloping
dimension at most 64.
"""

from __future__ import annotations

import functools

import numpy as np

from . import cli, report, schema, verify
from .algebra import AlgebraHom, field_algebra, group_algebra, make_algebra, tensor_algebra
from .coring import Coring, sweedler, trivial_coring
from .errors import UsageError, ValidationError
from .graded import grade_by_partition
from .modrep import Bimodule, LeftModule, regular_bimodule, regular_left
from .ringext import Extension


# ------------------------------------------------------- small algebras


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def mat_units_algebra(p, n):
    dim = n * n
    mul = np.zeros((dim, dim, dim), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b == c:
                        mul[a * n + b, c * n + d, a * n + d] = 1
    unit = np.zeros(dim, dtype=np.int64)
    for a in range(n):
        unit[a * n + a] = 1
    return make_algebra(p, mul, unit)


def dual_numbers(p):
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    return make_algebra(p, mul, [1, 0])


def prod_fields(p):
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[1, 1, 1] = 1
    return make_algebra(p, mul, [1, 1])


def upper_triangular2(p):
    # basis (e11, e22, e12)
    mul = np.zeros((3, 3, 3), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[1, 1, 1] = 1
    mul[0, 2, 2] = 1
    mul[2, 1, 2] = 1
    return make_algebra(p, mul, [1, 1, 0])


def unit_extension(alg) -> Extension:
    f = field_algebra(alg.p)
    return Extension(AlgebraHom(f, alg, np.array(alg.unit).reshape(-1, 1)))


def augmentation_extension(alg, row) -> Extension:
    """alg ->> F_p sending basis element i to row[i]."""
    f = field_algebra(alg.p)
    return Extension(AlgebraHom(alg, f, np.array(row).reshape(1, -1)))


def diagonal_group_extension(p) -> Extension:
    """C2 group algebra into its square, a |-> (a, a)."""
    r = group_algebra(p, cyclic_table(2))
    s = tensor_algebra(r, prod_fields(p))
    mat = np.zeros((4, 2), dtype=np.int64)
    for i in range(2):
        mat[2 * i, i] = 1
        mat[2 * i + 1, i] = 1
    return Extension(AlgebraHom(r, s, mat))


def diagonal_matrix_extension(p) -> Extension:
    """F_p x F_p into M_2 as the diagonal matrices."""
    r = prod_fields(p)
    s = mat_units_algebra(p, 2)
    mat = np.zeros((4, 2), dtype=np.int64)
    mat[0, 0] = 1  # e11
    mat[3, 1] = 1  # e22
    return Extension(AlgebraHom(r, s, mat))


def column_module(p):
    """F_p^2 as the natural simple left module over M_2(F_p)."""
    a = mat_units_algebra(p, 2)
    act = np.zeros((4, 2, 2), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            act[i * 2 + j, i, j] = 1
    return LeftModule(a, act)


def socle_module_dualnum(p):
    """F_p with the nilpotent generator acting by zero."""
    a = dual_numbers(p)
    act = np.zeros((2, 1, 1), dtype=np.int64)
    act[0, 0, 0] = 1
    return LeftModule(a, act)


def glued_coring(p):
    """Regular part plus a glued 1-dim socle element: a valid coring over
    the dual numbers whose carrier is not projective on either side."""
    dn = dual_numbers(p)
    la = np.zeros((2, 3, 3), dtype=np.int64)
    ra = np.zeros((2, 3, 3), dtype=np.int64)
    la[0] = np.eye(3, dtype=np.int64)
    ra[0] = np.eye(3, dtype=np.int64)
    la[1][1, 0] = 1
    ra[1][1, 0] = 1
    carrier = Bimodule(dn, dn, la, ra)
    raw = np.zeros((9, 3), dtype=np.int64)
    raw[0, 0] = 1
    raw[3, 1] = 1
    raw[2, 2] = 1
    raw[6, 2] = 1
    eps = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    return Coring(dn, carrier, raw, eps)


def graded_c2_group(p):
    """The C2 group algebra graded by C2 itself."""
    table = cyclic_table(2)
    a = group_algebra(p, table)
    return grade_by_partition(a, table, [[0], [1]])


def graded_c2_triangular(p):
    """T_2 graded by C2: diagonal part in the identity component."""
    return grade_by_partition(upper_triangular2(p), cyclic_table(2), [[0, 1], [2]])


# -------------------------------------------------------------- fixtures


class Fixture:
    def __init__(self, name, command, docs, expected, oracle, depth=1):
        self.name = name
        self.command = command
        self.docs = docs
        self.expected = expected
        self.oracle = oracle
        self.depth = depth


@functools.lru_cache(maxsize=None)
def corpus():
    """The full fixture list (built once, then cached)."""
    fx = []

    def add(name, command, docs, expected, oracle, depth=1):
        fx.append(Fixture(name, command, docs, expected, oracle, depth))

    free_oracle = "restriction is free, and the division pair was re-solved by the trace-span oracle"
    span_oracle = "expected value frozen against exact trace-span solvability of the identity"

    # ---- extensions (hom documents)
    c2_5 = group_algebra(5, cyclic_table(2))
    c3_7 = group_algebra(7, cyclic_table(3))
    ext_cases = [
        ("ext-unit-f5-c2", unit_extension(c2_5), "yes", free_oracle),
        ("ext-unit-f5-dualnum", unit_extension(dual_numbers(5)), "yes", free_oracle),
        ("ext-unit-f5-m2", unit_extension(mat_units_algebra(5, 2)), "yes", free_oracle),
        ("ext-unit-f5-prod", unit_extension(prod_fields(5)), "yes", free_oracle),
        (
            "ext-unit-f5-t2",
            unit_extension(upper_triangular2(5)),
            "no",
            "the triangular algebra is not isomorphic to its own linear dual; " + span_oracle,
        ),
        (
            "ext-quot-dualnum5-f5",
            augmentation_extension(dual_numbers(5), [1, 0]),
            "no",
            "the 1-dim quotient is not projective over the local source (no splitting exists)",
        ),
        (
            "ext-quot-c2f5-f5",
            augmentation_extension(c2_5, [1, 1]),
            "yes",
            "the group order 2 is invertible mod 5, so the augmentation splits; " + span_oracle,
        ),
        ("ext-diag-c2-square", diagonal_group_extension(5), "yes", free_oracle),
        (
            "ext-diag-prod-m2",
            diagonal_matrix_extension(5),
            "yes",
            "matrix rows are the two projective covers over the diagonal; " + span_oracle,
        ),
        ("ext-unit-f7-c3", unit_extension(c3_7), "yes", free_oracle),
        ("ext-unit-f11-dualnum", unit_extension(dual_numbers(11)), "yes", free_oracle),
        (
            "ext-quot-dualnum7-f7",
            augmentation_extension(dual_numbers(7), [1, 0]),
            "no",
            "the 1-dim quotient is not projective over the local source (no splitting exists)",
        ),
    ]
    for name, ext, expected, oracle in ext_cases:
        add(name, "check-extension", [schema.hom_document(ext.hom)], expected, oracle)

    # ---- corings
    coring_cases = [
        ("coring-trivial-f5-c2", trivial_coring(c2_5), "yes"),
        ("coring-trivial-f5-dualnum", trivial_coring(dual_numbers(5)), "yes"),
        ("coring-trivial-f7", trivial_coring(field_algebra(7)), "yes"),
        ("coring-trivial-f5-t2", trivial_coring(upper_triangular2(5)), "yes"),
        ("coring-sweedler-f5-c2", sweedler(unit_extension(c2_5)), "yes"),
        ("coring-sweedler-f5-dualnum", sweedler(unit_extension(dual_numbers(5))), "yes"),
        ("coring-sweedler-f5-m2", sweedler(unit_extension(mat_units_algebra(5, 2))), "yes"),
        ("coring-sweedler-f7-c3", sweedler(unit_extension(c3_7)), "yes"),
        ("coring-sweedler-f5-t2", sweedler(unit_extension(upper_triangular2(5))), "no"),
        ("coring-glued-f5", glued_coring(5), "no"),
    ]
    trivial_oracle = (
        "the regular bimodule trivially divides itself and is free on both sides"
    )
    sweedler_oracle = (
        "must agree with the extension-level decision on the same embedding (route cross-check)"
    )
    for name, c, expected in coring_cases:
        if "trivial" in name:
            oracle = trivial_oracle
        elif "glued" in name:
            oracle = "the glued socle element admits no projective splitting"
        else:
            oracle = sweedler_oracle
        add(name, "check-coring", [schema.coring_document(c)], expected, oracle)

    # ---- graded rings
    graded_cases = [
        ("graded-f5-c2", graded_c2_group(5), "yes", free_oracle),
        (
            "graded-t2-f5",
            graded_c2_triangular(5),
            "no",
            "the whole ring and the coinduced module disagree; " + span_oracle,
        ),
        ("graded-f7-c2", graded_c2_group(7), "yes", free_oracle),
        (
            "graded-t2-f7",
            graded_c2_triangular(7),
            "no",
            "the whole ring and the coinduced module disagree; " + span_oracle,
        ),
    ]
    for name, ring, expected, oracle in graded_cases:
        add(name, "check-graded", [schema.graded_document(ring)], expected, oracle)

    # ---- bimodules: A over (A, F_p) detects whether A is self-dual as a
    # one-sided module; A over (A, A) is a yes for every A (both duals are A)
    bim_cases = [
        ("bim-alg-f5-c2", schema.module_document(regular_left(c2_5)), "yes", free_oracle),
        (
            "bim-alg-f5-m2",
            schema.module_document(regular_left(mat_units_algebra(5, 2))),
            "yes",
            free_oracle,
        ),
        (
            "bim-alg-f5-t2",
            schema.module_document(regular_left(upper_triangular2(5))),
            "no",
            "the linear dual of the triangular algebra has the wrong indecomposables; " + span_oracle,
        ),
        (
            "bim-alg-f7-dualnum",
            schema.module_document(regular_left(dual_numbers(7))),
            "yes",
            free_oracle,
        ),
        (
            "bim-regular-f5-t2",
            schema.bimodule_document(regular_bimodule(upper_triangular2(5))),
            "yes",
            "both duals of the regular bimodule are the regular bimodule itself",
        ),
    ]
    for name, doc, expected, oracle in bim_cases:
        add(name, "check-bimodule", [doc], expected, oracle)

    # ---- division / similarity pairs
    col = schema.module_document(column_module(5))
    reg_m2 = schema.module_document(regular_left(mat_units_algebra(5, 2)))
    socle = schema.module_document(socle_module_dualnum(5))
    reg_dn = schema.module_document(regular_left(dual_numbers(5)))
    add(
        "sim-col-reg-m2",
        "similar",
        [col, reg_m2],
        "yes",
        "the regular module is the square of the column module; " + span_oracle,
    )
    add("div-col-reg-m2", "divides", [col, reg_m2], "yes", span_oracle)
    add(
        "div-socle-reg-dualnum",
        "divides",
        [socle, reg_dn],
        "no",
        "the socle is not a summand of a free module over the local ring; " + span_oracle,
    )
    add("sim-socle-reg-dualnum", "similar", [socle, reg_dn], "no", span_oracle)

    # ---- decompositions, dual towers, coring emission
    add(
        "decomp-reg-m2",
        "decompose",
        [reg_m2],
        "valid",
        "certificate identities re-checked by the standalone verifier",
    )
    add(
        "decomp-reg-t2",
        "decompose",
        [schema.module_document(regular_left(upper_triangular2(5)))],
        "valid",
        "certificate identities re-checked by the standalone verifier",
    )
    add(
        "dualseq-reg-c2",
        "dual-sequence",
        [schema.bimodule_document(regular_bimodule(c2_5))],
        "valid",
        "both restrictions of the regular bimodule are free at every stage",
        depth=2,
    )
    add(
        "sweedler-doc-f5-c2",
        "sweedler",
        [schema.hom_document(unit_extension(c2_5).hom)],
        "valid",
        "emitted document re-validated by the schema and coring constructors",
    )

    return fx


def battery(seed: int = 0):
    """Run every fixture; pass = expected verdict AND certificates verify."""
    results = []
    for f in corpus():
        raws = b"".join(report.canonical_json(d).encode() for d in f.docs)
        out = cli.run_documents(f.command, f.docs, seed=seed, depth=f.depth)
        command_str = report.command_field(f.command, f.depth)
        rep = report.build_report(out, seed, report.input_digest(raws), command_str)
        verified, reasons = verify.verify_report(rep)
        ok = out.verdict == f.expected and verified
        if f.command == "sweedler":
            # the emitted coring document must itself build cleanly
            try:
                schema.expect(out.document, "coring")
            except (UsageError, ValidationError) as exc:
                ok = False
                reasons = list(reasons) + [f"emitted document rejected: {exc}"]
        results.append(
            {
                "name": f.name,
                "command": command_str,
                "expected": f.expected,
                "verdict": out.verdict,
                "pass": bool(ok),
                "oracle": f.oracle,
                "reasons": list(reasons),
                "report": rep,
            }
        )
    return results
