"""One benchmark step in a fresh interpreter: a set-up or a pass.

``setup``: import qfcert, build the workload's input documents as bytes,
and write them to stdout as one JSON header line followed by the raw
document bytes.  The header carries the set-up time and the versions.

``pass``: read that payload from stdin, run every case once and print one
JSON line with the pass's timings, report bytes, digest and failures.
An untraced pass also times a fixed reference loop (``ReferenceSampler``)
at its start, every ``REF_INTERVAL_S`` during it and at its end, and
reports the median of those times as ``ref_s``.  With ``--trace SPANS``
the pass runs under ``tracer.Tracer`` instead, the line also carries the
per-span summary, and the spans are written to SPANS.

Run by ``perfbench/run.py``; each pass gets its own process so that no
pass can reuse a result an earlier pass computed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


REF_INTERVAL_S = 0.1


def reference_loop():
    """Fixed work that shares no code with qfcert; about 1 ms.

    Like qfcert it mostly builds and drops small Python containers: of the
    loops tried, this one's time followed the passes' drift most closely
    (pure arithmetic less so, small numpy products least).
    """
    rows = []
    for i in range(1500):
        rows.append({"k": [i, i + 1], "t": (i, str(i))})
    return len(rows)


class ReferenceSampler:
    """Times ``reference_loop`` on SIGALRM every ``REF_INTERVAL_S``.

    The host's speed drifts by up to half again over seconds to minutes.
    The reference loop slows down with it, so a pass time divided by the
    reference time sampled during that pass cancels most of the drift.
    ``clock`` is ``time.perf_counter`` less the time spent sampling, so the
    pass's own timings leave the samples out.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_signal_args):
        # no collection during the loop, so its time does not grow with
        # the number of objects the pass holds
        collecting = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            reference_loop()
            took = time.perf_counter() - t
        finally:
            if collecting:
                gc.enable()
        self.samples.append(took)
        self.spent += took

    def clock(self):
        while True:  # retry if a sample landed between the two reads
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def _import_qfcert():
    """Import qfcert, with the CLI and every module it loads, from this
    checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import qfcert
    import qfcert.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(qfcert.__file__)) != os.path.join(SRC, "qfcert"):
        raise ImportError(f"qfcert was imported from {qfcert.__file__}, not from {SRC}")
    return qfcert


def _versions():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def setup(workload, seed):
    _import_qfcert()
    import workloads

    cases = workloads.build_cases(workload, seed)
    setup_s = time.perf_counter() - START
    header = {
        "setup_s": setup_s,
        "versions": _versions(),
        "cases": [
            {
                "name": c.name,
                "command": c.command,
                "expected": c.expected,
                "depth": c.depth,
                "emitted_expected": c.emitted_expected,
                "sizes": [len(d) for d in c.docs],
            }
            for c in cases
        ],
    }
    out = sys.stdout.buffer
    out.write(json.dumps(header).encode() + b"\n")
    for c in cases:
        for d in c.docs:
            out.write(d)
    out.flush()


def read_payload(stream):
    """Inverse of ``setup``'s output: the cases, each with its bytes."""
    cases = json.loads(stream.readline())["cases"]
    for c in cases:
        c["docs"] = [stream.read(n) for n in c.pop("sizes")]
    return cases


class Pass:
    """Runs the cases of one pass and keeps what the gate and metrics need."""

    def __init__(self, seed, clock=time.perf_counter):
        from qfcert import cli, report, schema, verify

        self.cli, self.report, self.schema, self.verify = cli, report, schema, verify
        self.seed = seed
        self.clock = clock
        self.prove_s = 0.0
        self.attempted = 0
        self.failures = []
        self.reports = []
        self.emitted = []  # (name, coring document) from sweedler cases

    def _fail(self, name, why):
        self.failures.append(f"{name}: {why}")

    def prove(self, name, command, docs, expected, depth=1):
        """bytes -> json.loads -> cli.run_documents -> report -> verify."""
        self.attempted += 1
        parsed = [json.loads(d) for d in docs]
        t = self.clock()
        out = self.cli.run_documents(command, parsed, seed=self.seed, depth=depth)
        self.prove_s += self.clock() - t
        command_str = command if command != "dual-sequence" else f"dual-sequence --depth {depth}"
        rep = self.report.build_report(out, self.seed, self.report.input_digest(b"".join(docs)), command_str)
        text = self.report.canonical_json(rep).encode()
        ok, reasons = self.verify.verify_report(json.loads(text))
        self.reports.append(text)
        if out.verdict != expected:
            self._fail(name, f"verdict {out.verdict}, expected {expected}")
        elif not ok:
            self._fail(name, "certificate did not re-verify: " + "; ".join(reasons[:3]))
        return out

    def verify_stored(self, name, text, expected):
        """bytes -> json.loads -> verify.verify_report."""
        self.attempted += 1
        rep = json.loads(text)
        t = self.clock()
        ok, reasons = self.verify.verify_report(rep)
        self.prove_s += self.clock() - t
        self.reports.append(text)
        if rep.get("verdict") != expected:
            self._fail(name, f"stored verdict {rep.get('verdict')}, expected {expected}")
        elif not ok:
            self._fail(name, "stored report did not re-verify: " + "; ".join(reasons[:3]))

    def run_case(self, case):
        name = case["name"]
        try:
            if case["command"] == "verify":
                self.verify_stored(name, case["docs"][0], case["expected"])
                return
            out = self.prove(name, case["command"], case["docs"], case["expected"], case["depth"])
            if case["command"] != "sweedler":
                return
            if case["emitted_expected"] is None:
                self.emitted.append((name, out.document))
                return
            # the user writes the emitted coring document, then checks it
            emitted = self.report.canonical_json(out.document).encode()
            self.prove(name + "/check-coring", "check-coring", [emitted], case["emitted_expected"])
        except Exception as exc:  # a failed document is counted, not fatal
            self._fail(name, f"{type(exc).__name__}: {exc}")

    def check_emitted(self):
        """The battery's extra gate on sweedler output: the emitted coring
        document must build.  Run after the pass, outside its timing."""
        for name, doc in self.emitted:
            try:
                self.schema.expect(doc, "coring")
            except Exception as exc:  # counted like any other failure
                self._fail(name, f"emitted document rejected: {type(exc).__name__}: {exc}")


def run_pass(seed, spans_path=None):
    """One pass; with ``spans_path`` it runs traced and saves its spans there."""
    _import_qfcert()
    cases = read_payload(sys.stdin.buffer)
    tracer = sampler = None
    if spans_path:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        clock, stop = tracer.clock, tracer.restore
    else:
        sampler = ReferenceSampler()
        sampler.start()
        clock, stop = sampler.clock, sampler.stop
    p = Pass(seed, clock)
    try:
        t0, c0 = time.perf_counter(), clock()
        for case in cases:
            p.run_case(case)
        wall_s, clock_s = time.perf_counter() - t0, clock() - c0
    finally:
        stop()
    p.check_emitted()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        # untraced: without the reference samples; traced: with the
        # tracer's own cost, which trace.overhead reports
        "wall_s": clock_s if sampler else wall_s,
        "prove_s": p.prove_s,
        "report_bytes": sum(len(r) for r in p.reports),
        "peak_rss_mb": peak_rss_mb,
        "attempted": p.attempted,
        "failures": p.failures,
        "sha256": hashlib.sha256(b"".join(p.reports)).hexdigest(),
    }
    if sampler:
        result["ref_s"] = statistics.median(sampler.samples)
    if tracer:
        result["trace"] = tracer.summary(clock_s)
        tracer.write(spans_path)
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "pass"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", help="setup: the workload whose inputs to build")
    ap.add_argument("--trace", metavar="SPANS", help="pass: run traced and write the spans to SPANS")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        if not args.workload:
            ap.error("setup needs --workload")
        setup(args.workload, args.seed)
    else:
        run_pass(args.seed, args.trace)


if __name__ == "__main__":
    main()
