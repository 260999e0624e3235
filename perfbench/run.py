"""qfcert benchmark: certified verdicts per document, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-mix --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client.  Documents run one at a time
in a single process, the way ``qfcert <command> doc.json`` and ``qfcert
verify report.json`` run them.  Every pass is a fresh interpreter
(``perfbench/worker.py``), started only after the previous one exits, so
no pass reuses a result computed by an earlier one; reuse inside a pass
is allowed.  Passes repeat until the next one would end after
``--seconds``; at least one always runs.

Set-up (import qfcert and build the input documents as bytes) runs in
``SETUPS`` fresh interpreters and reports the median.

The host's speed drifts by up to half again over seconds to minutes,
longer than a run, so pass times in seconds do not repeat from run to run.
The gated times are therefore ratios: ``wall_ref`` and ``prove_ref``
divide a pass's time by the time of a fixed reference loop sampled during
that pass (``worker.ReferenceSampler``), and report the median over the
run's passes.  The times in seconds are printed as ``info`` lines.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-span
metrics of ``perfbench/tracer.py`` from traced passes that alternate with
untraced ones.  Every document's verdict and certificates are checked;
the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import LARGE_PRIME, WORKLOADS  # noqa: E402

SETUPS = 7
# every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 170.0
# one BLAS thread per worker: as fast as two on the M_2 coring (2-core
# box) and steadier when other processes share the cores
BLAS_THREADS = 1
SPANS_DIR = os.path.join(HERE, "out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "prove_ref": "ref",
    "peak_rss_mb": "MB",
    "report_bytes": "bytes",
}


class BenchError(Exception):
    """A step of the benchmark itself failed; no result is printed."""


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, deadline, stdin=None):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted before " + " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            input=stdin,
            capture_output=True,
            env=worker_env(),
            cwd=ROOT,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} did not finish within the run budget") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout


def src_line_count():
    pkg = os.path.join(ROOT, "src", "qfcert")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def tail(values):
    """Highest percentile of ``values`` with at least ten samples beyond
    it, as (percentile, value), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def setup_runs(workload, seed, deadline):
    payload, header, setup_s = None, None, []
    for _ in range(SETUPS):
        out = run_worker(["setup", "--workload", workload, "--seed", str(seed)], deadline)
        first, _, body = out.partition(b"\n")
        head = json.loads(first)
        setup_s.append(head.pop("setup_s"))
        if payload is None:
            payload, header = out, head
        elif body != payload.partition(b"\n")[2] or head["cases"] != header["cases"]:
            raise BenchError("set-up produced different input bytes for the same seed")
    return payload, header, setup_s


def run_passes(workload, seed, seconds, trace, payload, deadline):
    """Passes until the next would end after ``seconds``; with ``trace``
    untraced and traced passes alternate, at least one of each."""
    plain, traced, lengths = [], [], []
    spans_path = os.path.join(SPANS_DIR, f"spans-{workload}.jsonl.gz")
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
    start = time.monotonic()
    while True:
        traced_now = trace and len(traced) < len(plain)
        args = ["pass", "--seed", str(seed)] + (["--trace", spans_path] if traced_now else [])
        t = time.monotonic()
        result = json.loads(run_worker(args, deadline, stdin=payload).splitlines()[-1])
        lengths.append(time.monotonic() - t)
        (traced if traced_now else plain).append(result)
        if trace and not traced:
            continue
        typical = statistics.median(lengths)
        if time.monotonic() - start + typical > seconds or time.monotonic() + typical > deadline:
            return plain, traced


def gate(passes):
    """(attempted, failed, messages): every document of every pass must get
    its expected verdict and re-verify, and every pass of one seed must
    give byte-identical reports."""
    attempted = sum(p["attempted"] for p in passes)
    messages = [m for p in passes for m in p["failures"]]
    failed = len(messages)
    digests = {p["sha256"] for p in passes}
    if len(digests) > 1:
        messages.append(f"reports differ between passes of one seed: {sorted(digests)}")
    return attempted, failed, messages


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        payload, header, setup_s = setup_runs(args.workload, args.seed, deadline)
        v = header["versions"]
        print("load model: closed loop, one client, one document at a time; a fresh interpreter per pass")
        print(f"workload {args.workload}, seed {args.seed}, {len(header['cases'])} cases per pass, "
              f"BLAS threads {BLAS_THREADS}, nproc {os.cpu_count()}")
        print(f"python {v['python']}, numpy {v['numpy']}, BLAS {v['blas']}")
        print(f"info src/qfcert lines {src_line_count()}")
        if args.workload == "prime-large":
            print(f"expected verdicts: the battery's; they hold at p = {LARGE_PRIME} because it divides "
                  "no group order in the corpus (2 and 3)")
        plain, traced = run_passes(args.workload, args.seed, args.seconds, args.trace, payload, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, messages = gate(plain + traced)
    for m in messages[:20]:
        print(f"FAIL {m}")
    walls = [p["wall_s"] for p in plain]
    n = len(plain)
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g} (documents with a wrong verdict, "
          "a failed verification or an exception, over documents attempted)")
    print(f"info reports sha256 {plain[0]['sha256']}")
    t = tail(walls)
    if t:
        print(f"info wall_s.tail p{t[0]:.1f} {t[1]:.6f} s over {n} passes")

    if args.trace:
        units = tracer.metric_units()
        values = {name: [p["trace"][name] for p in traced] for name in units if name != "trace.overhead"}
        overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(walls) - 1
        values["trace.overhead"] = [overhead]
        print(f"traced passes {len(traced)}, untraced passes {n}; spans in {os.path.relpath(SPANS_DIR, ROOT)}")
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": setup_s,
            "wall_ref": [p["wall_s"] / p["ref_s"] for p in plain],
            "prove_ref": [p["prove_s"] / p["ref_s"] for p in plain],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
            "report_bytes": [p["report_bytes"] for p in plain],
        }
        for name in ("wall_s", "prove_s", "ref_s"):
            print(f"info {name} {statistics.median(p[name] for p in plain):.6f} s (median of {n})")
    metrics = {}
    for name, samples in values.items():
        value = statistics.median(samples)
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"metric {name} {value} {units[name]} (median of {len(samples)})")
    result = {"correct": not messages, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
