"""Input documents of the benchmark workloads.

Every workload is a list of ``Case`` items: the documents of one CLI
invocation as canonical JSON bytes, the subcommand, its ``--depth`` and
the verdict the battery froze for it.  The prover workloads build their
documents from the ``qfcert.fixtures`` builders; ``verify-reports``
reads reports stored under ``perfbench/data`` so that its inputs stay
fixed when the prover changes.
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import dataclass

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# 20011 divides no group order in the corpus (2 and 3), so every frozen
# verdict of the battery still holds there; the root scan in
# decomp.find_idempotent walks range(p), which makes this workload size it.
# At this size the scan is still the largest layer of a pass, and a pass
# (5-8 s, as the host's speed varies) fits two to four times into a run.
LARGE_PRIME = 20011

# prover seeds at which the stored verify-reports inputs were produced
REPORT_SEEDS = (0, 1, 2, 3)

WORKLOADS = ("coring-m2", "corpus-mix", "prime-large", "verify-reports")


@dataclass
class Case:
    name: str
    command: str
    docs: list  # canonical JSON bytes, one per input file
    expected: str
    depth: int = 1
    # coring-m2 only: check-coring runs on the document sweedler emits and
    # must give this verdict
    emitted_expected: str | None = None


def _bytes(doc) -> bytes:
    from qfcert import report

    return report.canonical_json(doc).encode()


def _corpus_table():
    """The 38 battery fixtures other than ``coring-sweedler-f5-m2``.

    Each row is (name, command, expected, battery prime, builder, depth);
    the builder maps a prime to the fixture's documents.  The order, names,
    commands, depths and expected verdicts are the battery's.
    """
    from qfcert import fixtures as fx
    from qfcert import schema
    from qfcert.algebra import field_algebra, group_algebra
    from qfcert.coring import sweedler, trivial_coring
    from qfcert.modrep import regular_bimodule, regular_left

    def c2(p):
        return group_algebra(p, fx.cyclic_table(2))

    def c3(p):
        return group_algebra(p, fx.cyclic_table(3))

    def m2(p):
        return fx.mat_units_algebra(p, 2)

    def hom(ext):
        return lambda p: [schema.hom_document(ext(p).hom)]

    def coring(make):
        return lambda p: [schema.coring_document(make(p))]

    def module(make):
        return lambda p: [schema.module_document(make(p))]

    def pair(a, b):
        return lambda p: [schema.module_document(a(p)), schema.module_document(b(p))]

    unit = fx.unit_extension
    rows = [
        ("ext-unit-f5-c2", "check-extension", "yes", 5, hom(lambda p: unit(c2(p)))),
        ("ext-unit-f5-dualnum", "check-extension", "yes", 5, hom(lambda p: unit(fx.dual_numbers(p)))),
        ("ext-unit-f5-m2", "check-extension", "yes", 5, hom(lambda p: unit(m2(p)))),
        ("ext-unit-f5-prod", "check-extension", "yes", 5, hom(lambda p: unit(fx.prod_fields(p)))),
        ("ext-unit-f5-t2", "check-extension", "no", 5, hom(lambda p: unit(fx.upper_triangular2(p)))),
        ("ext-quot-dualnum5-f5", "check-extension", "no", 5,
         hom(lambda p: fx.augmentation_extension(fx.dual_numbers(p), [1, 0]))),
        ("ext-quot-c2f5-f5", "check-extension", "yes", 5,
         hom(lambda p: fx.augmentation_extension(c2(p), [1, 1]))),
        ("ext-diag-c2-square", "check-extension", "yes", 5, hom(fx.diagonal_group_extension)),
        ("ext-diag-prod-m2", "check-extension", "yes", 5, hom(fx.diagonal_matrix_extension)),
        ("ext-unit-f7-c3", "check-extension", "yes", 7, hom(lambda p: unit(c3(p)))),
        ("ext-unit-f11-dualnum", "check-extension", "yes", 11, hom(lambda p: unit(fx.dual_numbers(p)))),
        ("ext-quot-dualnum7-f7", "check-extension", "no", 7,
         hom(lambda p: fx.augmentation_extension(fx.dual_numbers(p), [1, 0]))),
        ("coring-trivial-f5-c2", "check-coring", "yes", 5, coring(lambda p: trivial_coring(c2(p)))),
        ("coring-trivial-f5-dualnum", "check-coring", "yes", 5,
         coring(lambda p: trivial_coring(fx.dual_numbers(p)))),
        ("coring-trivial-f7", "check-coring", "yes", 7, coring(lambda p: trivial_coring(field_algebra(p)))),
        ("coring-trivial-f5-t2", "check-coring", "yes", 5,
         coring(lambda p: trivial_coring(fx.upper_triangular2(p)))),
        ("coring-sweedler-f5-c2", "check-coring", "yes", 5, coring(lambda p: sweedler(unit(c2(p))))),
        ("coring-sweedler-f5-dualnum", "check-coring", "yes", 5,
         coring(lambda p: sweedler(unit(fx.dual_numbers(p))))),
        ("coring-sweedler-f7-c3", "check-coring", "yes", 7, coring(lambda p: sweedler(unit(c3(p))))),
        ("coring-sweedler-f5-t2", "check-coring", "no", 5,
         coring(lambda p: sweedler(unit(fx.upper_triangular2(p))))),
        ("coring-glued-f5", "check-coring", "no", 5, coring(fx.glued_coring)),
        ("graded-f5-c2", "check-graded", "yes", 5, lambda p: [schema.graded_document(fx.graded_c2_group(p))]),
        ("graded-t2-f5", "check-graded", "no", 5,
         lambda p: [schema.graded_document(fx.graded_c2_triangular(p))]),
        ("graded-f7-c2", "check-graded", "yes", 7, lambda p: [schema.graded_document(fx.graded_c2_group(p))]),
        ("graded-t2-f7", "check-graded", "no", 7,
         lambda p: [schema.graded_document(fx.graded_c2_triangular(p))]),
        ("bim-alg-f5-c2", "check-bimodule", "yes", 5, module(lambda p: regular_left(c2(p)))),
        ("bim-alg-f5-m2", "check-bimodule", "yes", 5, module(lambda p: regular_left(m2(p)))),
        ("bim-alg-f5-t2", "check-bimodule", "no", 5, module(lambda p: regular_left(fx.upper_triangular2(p)))),
        ("bim-alg-f7-dualnum", "check-bimodule", "yes", 7, module(lambda p: regular_left(fx.dual_numbers(p)))),
        ("bim-regular-f5-t2", "check-bimodule", "yes", 5,
         lambda p: [schema.bimodule_document(regular_bimodule(fx.upper_triangular2(p)))]),
        ("sim-col-reg-m2", "similar", "yes", 5, pair(fx.column_module, lambda p: regular_left(m2(p)))),
        ("div-col-reg-m2", "divides", "yes", 5, pair(fx.column_module, lambda p: regular_left(m2(p)))),
        ("div-socle-reg-dualnum", "divides", "no", 5,
         pair(fx.socle_module_dualnum, lambda p: regular_left(fx.dual_numbers(p)))),
        ("sim-socle-reg-dualnum", "similar", "no", 5,
         pair(fx.socle_module_dualnum, lambda p: regular_left(fx.dual_numbers(p)))),
        ("decomp-reg-m2", "decompose", "valid", 5, module(lambda p: regular_left(m2(p)))),
        ("decomp-reg-t2", "decompose", "valid", 5, module(lambda p: regular_left(fx.upper_triangular2(p)))),
        ("dualseq-reg-c2", "dual-sequence", "valid", 5,
         lambda p: [schema.bimodule_document(regular_bimodule(c2(p)))]),
        ("sweedler-doc-f5-c2", "sweedler", "valid", 5, hom(lambda p: unit(c2(p)))),
    ]
    depths = {"dualseq-reg-c2": 2}
    return [(name, cmd, exp, p, build, depths.get(name, 1)) for name, cmd, exp, p, build in rows]


def corpus_cases(prime=None):
    """The corpus-mix cases, each at its battery prime, or all at ``prime``."""
    return [
        Case(name, cmd, [_bytes(d) for d in build(prime or p)], exp, depth)
        for name, cmd, exp, p, build, depth in _corpus_table()
    ]


def coring_m2_cases():
    """sweedler on F_5 -> M_2(F_5), then check-coring on what it emits."""
    from qfcert import fixtures as fx
    from qfcert import schema

    doc = schema.hom_document(fx.unit_extension(fx.mat_units_algebra(5, 2)).hom)
    return [Case("coring-sweedler-f5-m2", "sweedler", [_bytes(doc)], "valid", emitted_expected="yes")]


def report_path(seed):
    return os.path.join(DATA_DIR, f"reports-seed{seed}.jsonl.gz")


def stored_report_cases(seed):
    """The battery reports stored for the prover seed ``seed``: one line
    per fixture, ``{"name", "expected", "report"}`` with the canonical
    report text."""
    cases = []
    with gzip.open(report_path(seed), "rt", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            cases.append(Case(row["name"], "verify", [row["report"].encode()], row["expected"]))
    return cases


def build_cases(workload, seed):
    """Input cases of ``workload``; ``seed`` picks the stored report set of
    verify-reports (the prover workloads take it as the prover seed)."""
    if workload == "coring-m2":
        return coring_m2_cases()
    if workload == "corpus-mix":
        return corpus_cases()
    if workload == "prime-large":
        return corpus_cases(LARGE_PRIME)
    if workload == "verify-reports":
        return stored_report_cases(REPORT_SEEDS[seed % len(REPORT_SEEDS)])
    raise ValueError(f"unknown workload {workload!r}")
