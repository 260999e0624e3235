"""Regenerate the stored inputs of the verify-reports workload.

    python3 perfbench/make_reports.py

Runs the fixture battery at every seed in ``workloads.REPORT_SEEDS`` and
writes ``perfbench/data/reports-seed<k>.jsonl.gz``: one JSON line per
fixture with its name, frozen expected verdict and canonical report text.
The workload reads these files and never the prover, so its inputs only
change when this script is run again on purpose.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from qfcert import fixtures, report  # noqa: E402

import workloads  # noqa: E402


def main():
    os.makedirs(workloads.DATA_DIR, exist_ok=True)
    for seed in workloads.REPORT_SEEDS:
        results = fixtures.battery(seed=seed)
        failed = [r["name"] for r in results if not r["pass"]]
        if failed:
            raise SystemExit(f"battery failed at seed {seed}: {failed}")
        # mtime=0 keeps the file bytes a function of the reports alone
        with open(workloads.report_path(seed), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                for r in results:
                    line = {"name": r["name"], "expected": r["expected"], "report": report.canonical_json(r["report"])}
                    fh.write((json.dumps(line, sort_keys=True) + "\n").encode())
        print(f"seed {seed}: {len(results)} reports -> {os.path.relpath(workloads.report_path(seed))}")


if __name__ == "__main__":
    main()
