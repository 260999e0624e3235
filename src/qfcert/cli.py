"""Command-line front end: JSON documents in, verdicts and reports out.

Subcommands, one per decision procedure::

    check-bimodule FILE       two-sided self-duality of a (bi)module
    check-extension FILE      ring-extension decision (hom document)
    check-coring FILE         five-condition coring decision
    check-graded FILE         restriction criterion for a graded ring
    decompose FILE            indecomposable decomposition with certificate
    similar FILE1 FILE2       mutual division of two (bi)modules
    divides FILE1 FILE2       one-sided division
    dual-sequence FILE        iterated duals (informational)
    sweedler FILE             emit the coring attached to an extension
    verify FILE               re-check a previously written report

``--seed N`` seeds the random splitting of ``decompose`` (the decisions
draw nothing) and is recorded in the report, ``--report PATH`` writes the
canonical JSON report, and ``--battery`` (no subcommand) runs the bundled
fixture corpus.  Exit codes: 0 = yes/valid/vacuous, 1 = no,
2 = input or schema error, or an input too large for memory (one stderr
line names the command and quotes the allocation that failed),
3 = internal inconsistency.  Identical input bytes and seed give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys

from . import memo, report, schema
from . import verify as verify_mod
from .coring import is_qf_coring, sweedler
from .decomp import decompose, decomposition_payload
from .errors import (
    InternalCheckError,
    NotProjectiveAtStage,
    SchemaError,
    UsageError,
    ValidationError,
)
from .graded import is_qf_restriction
from .modrep import as_bimodule, envelope_module
from .ringext import is_qf_extension
from .simdiv import divides, dual_sequence, is_qf_bimodule, similar

PREDICATE_COMMANDS = (
    "check-bimodule",
    "check-extension",
    "check-coring",
    "check-graded",
    "decompose",
    "similar",
    "divides",
    "dual-sequence",
    "sweedler",
)


def _bimodule_from(doc):
    kind, obj = schema.build(doc)
    if kind == "bimodule":
        return obj
    if kind == "module":
        return as_bimodule(obj)
    raise SchemaError("", f"this command needs a 'bimodule' or 'module' document, got {kind!r}")


def run_documents(command, docs, seed=0, depth=1):
    """Programmatic core shared by the CLI and the fixture battery.

    ``docs`` is the list of parsed input documents the subcommand takes
    (two for similar/divides, one otherwise).  Returns an Outcome; the
    sweedler outcome carries the emitted coring document in
    ``outcome.document``.  The call is one memo scope: equal hom spaces,
    presentations, generators and envelopes are computed once per call and
    freed when it returns.  Only ``decompose`` reads ``seed``; the decisions
    draw nothing.
    """
    with memo.scope():
        return _run(command, docs, seed, depth)


def _run(command, docs, seed, depth):
    if command == "check-bimodule":
        return is_qf_bimodule(_bimodule_from(docs[0]))
    if command == "check-extension":
        return is_qf_extension(schema.build_extension(docs[0]))
    if command == "check-coring":
        return is_qf_coring(schema.expect(docs[0], "coring"))
    if command == "check-graded":
        return is_qf_restriction(schema.expect(docs[0], "graded"))
    if command == "decompose":
        kind, obj = schema.build(docs[0])
        if kind == "module":
            mod = obj
        elif kind == "bimodule":
            mod = envelope_module(obj)
        else:
            raise SchemaError("", f"this command needs a 'module' or 'bimodule' document, got {kind!r}")
        dec = decompose(mod, seed=seed)
        out = report.Outcome(report.VALID)
        out.add(
            report.Check(
                "indecomposable decomposition",
                "orthogonal-split-idempotents",
                report.VALID,
                certificate=decomposition_payload(dec),
            )
        )
        out.notes.append(f"classes (dimension, multiplicity): {dec.class_signature()}")
        return out
    if command in ("similar", "divides"):
        m = _bimodule_from(docs[0])
        n = _bimodule_from(docs[1])
        if command == "similar":
            cert = similar(m, n)
            name, cond = "mutual division", "divides-each-other-in-finite-powers"
        else:
            cert = divides(m, n)
            name, cond = "division", "summand-of-a-finite-power"
        out = report.Outcome(report.YES)
        out.decide(name, cond, None if cert is None else cert.payload(), "no split factorization exists")
        return out
    if command == "dual-sequence":
        m = _bimodule_from(docs[0])
        stages = dual_sequence(m, depth)
        out = report.Outcome(report.VALID)
        for k, stage in stages:
            out.add(
                report.Check(
                    f"position {k}",
                    "iterated-dual-constructed",
                    report.VALID,
                    note=f"dimension {stage.dim}",
                )
            )
        return out
    if command == "sweedler":
        c = sweedler(schema.build_extension(docs[0]))
        out = report.Outcome(report.VALID)
        out.add(
            report.Check(
                "coring construction",
                "coassociativity-and-counit-validated",
                report.VALID,
                note=f"carrier dimension {c.dim} over a base of dimension {c.base.dim}",
            )
        )
        out.document = schema.coring_document(c)
        return out
    raise UsageError(f"unknown subcommand {command!r}")


def _print_outcome(out, stream=None):
    stream = stream or sys.stdout
    print(f"verdict: {out.verdict}", file=stream)
    for c in out.checks:
        line = f"  [{c.verdict}] {c.name} ({c.condition})"
        if c.reason:
            line += f" -- {c.reason}"
        if c.note:
            line += f" -- {c.note}"
        print(line, file=stream)
    for n in out.notes:
        print(f"  note: {n}", file=stream)


def _write_report(path, outcome, seed, sha, command):
    rep = report.build_report(outcome, seed, sha, command)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.canonical_json(rep))


def _run_predicate(args):
    paths = [args.file]
    if args.command in ("similar", "divides"):
        paths.append(args.other)
    docs, raws = [], b""
    for path in paths:
        doc, raw = schema.load_path(path)
        docs.append(doc)
        raws += raw
    depth = getattr(args, "depth", 1)
    out = run_documents(args.command, docs, seed=args.seed, depth=depth)
    command_str = report.command_field(args.command, depth)

    if args.command == "sweedler":
        text = report.canonical_json(out.document)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            _print_outcome(out)
        else:
            sys.stdout.write(text)
    else:
        _print_outcome(out)
    if args.report:
        _write_report(args.report, out, args.seed, report.input_digest(raws), command_str)
    return report.exit_code(out.verdict)


def _run_verify(args):
    doc, raw = schema.load_path(args.file)
    ok, reasons = verify_mod.verify_report(doc)
    out = report.Outcome(report.VALID if ok else report.NO)
    out.add(
        report.Check(
            "certificate audit",
            "all-passing-certificates-reverify",
            report.VALID if ok else report.NO,
            reason=None if ok else "; ".join(reasons[:10]),
        )
    )
    out.notes.extend(reasons)
    _print_outcome(out)
    if args.report:
        _write_report(args.report, out, args.seed, report.input_digest(raw), "verify")
    return 0 if ok else 1


def _run_battery(args):
    from . import fixtures

    results = fixtures.battery(seed=args.seed)
    passed = sum(1 for r in results if r["pass"])
    for r in results:
        tag = "PASS" if r["pass"] else "FAIL"
        print(f"{tag} {r['name']} [{r['command']}] expected {r['expected']}, got {r['verdict']}")
    print(f"battery: {passed}/{len(results)} pass")
    if args.report:
        from . import __version__

        rep = {
            "tool_version": __version__,
            "command": "battery",
            "seed": args.seed,
            "verdict": report.VALID if passed == len(results) else report.NO,
            "fixtures": results,
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.canonical_json(rep))
    return 0 if passed == len(results) else 1


def _add_common(parser, suppress):
    # on subparsers the flags must not clobber values already parsed from
    # the main parser, hence SUPPRESS defaults there
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS if suppress else 0,
                        help="seed for decompose, recorded in the report (default 0)")
    parser.add_argument("--report", metavar="PATH", default=argparse.SUPPRESS if suppress else None,
                        help="write the canonical JSON report here")


def make_parser():
    ap = argparse.ArgumentParser(prog="qfcert", description=__doc__.splitlines()[0])
    _add_common(ap, suppress=False)
    ap.add_argument("--battery", action="store_true", help="run the bundled fixture corpus")
    sub = ap.add_subparsers(dest="command", metavar="command")
    helps = {
        "check-bimodule": "two-sided self-duality of a bimodule document",
        "check-extension": "ring-extension decision on a hom document",
        "check-coring": "five-condition decision on a coring document",
        "check-graded": "restriction criterion on a graded-ring document",
        "decompose": "indecomposable decomposition with certificate",
        "similar": "mutual division of two (bi)module documents",
        "divides": "one-sided division of two (bi)module documents",
        "dual-sequence": "iterated duals of a bimodule document",
        "sweedler": "emit the coring attached to an extension",
        "verify": "re-check a previously written report",
    }
    for name in PREDICATE_COMMANDS + ("verify",):
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("file", help="input JSON document")
        if name in ("similar", "divides"):
            sp.add_argument("other", help="second input JSON document")
        if name == "dual-sequence":
            sp.add_argument("--depth", type=int, default=1, help="how many duals each way")
        if name == "sweedler":
            sp.add_argument("--out", metavar="PATH", default=None,
                            help="write the coring document here instead of stdout")
        _add_common(sp, suppress=True)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.battery:
            if args.command:
                raise UsageError("--battery does not take a subcommand")
            return _run_battery(args)
        if not args.command:
            raise UsageError("no subcommand given (try --help)")
        if args.command == "verify":
            return _run_verify(args)
        return _run_predicate(args)
    except SchemaError as exc:
        print(f"input error at {exc.pointer or '<document>'}: {exc.message}", file=sys.stderr)
        return 2
    except (UsageError, ValidationError, NotProjectiveAtStage) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # running out of memory answers nothing, so it must not exit 1 ("no")
        name = "--battery" if args.battery else args.command
        print(f"input error: {name} ran out of memory: {str(exc) or 'no size given'}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
