"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests``;
the smoke runs take about two minutes in all.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import tracer
import workloads
import worker

from conftest import BENCH, ROOT

SMALL = ("ext-unit-f5-c2", "coring-sweedler-f5-c2", "graded-f5-c2", "sim-col-reg-m2", "decomp-reg-m2")


def _as_payload_case(c):
    return {"name": c.name, "command": c.command, "expected": c.expected, "depth": c.depth,
            "emitted_expected": c.emitted_expected, "docs": c.docs}


def _binding_sites():
    """Every module global and class attribute in the loaded qfcert modules."""
    sites = {}
    for name, mod in list(sys.modules.items()):
        if name == "qfcert" or name.startswith("qfcert."):
            for attr, value in vars(mod).items():
                sites[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        sites[(name, attr, cattr)] = cvalue
    return sites


def test_tracer_wraps_every_binding_site_and_restores_them():
    import qfcert.cli  # noqa: F401

    before = _binding_sites()
    t = tracer.Tracer()
    t.install()
    try:
        originals = {id(orig) for _, _, orig in t._patches}
        during = _binding_sites()
        left = [site for site, value in during.items() if id(value) in originals]
        assert left == [], f"unwrapped binding sites: {left}"
        # names imported with "from .x import f" are wrapped where they are bound
        wrapped = {s for s, v in during.items() if len(s) == 2 and hasattr(v, "__wrapped__")}
        assert {m for m, attr in wrapped if attr == "hom_space"} == {
            f"qfcert.{m}" for m in ("modrep", "decomp", "ringext", "coring", "graded")}
        assert {m for m, attr in wrapped if attr == "decompose"} == {
            f"qfcert.{m}" for m in ("decomp", "simdiv", "cli")}
    finally:
        t.restore()
    after = _binding_sites()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_at_most_pass_wall_time():
    cases = [_as_payload_case(c) for c in workloads.corpus_cases() if c.name in SMALL]
    t = tracer.Tracer()
    with t:
        p = worker.Pass(seed=0, clock=t.clock)
        c0, w0 = t.clock(), time.perf_counter()
        for case in cases:
            p.run_case(case)
        traced_wall, wall = t.clock() - c0, time.perf_counter() - w0
    assert p.failures == []
    summary = t.summary(traced_wall)
    self_times = [v for k, v in summary.items() if k.endswith(".self_s")]
    assert all(v >= -1e-9 for v in self_times)
    assert sum(self_times) <= traced_wall <= wall
    assert 0.5 < summary["trace.coverage"] <= 1.0
    assert summary["cli.run_documents.calls"] == len(cases)
    assert summary["verify.verify_report.calls"] >= len(cases)
    assert summary["linalg.matmul.flops"] > 0 and summary["linalg.rref.ops"] > 0
    assert summary["modrep.hom_space.distinct"] <= summary["modrep.hom_space.calls"]
    # every span with a parent sits inside it
    for _, start, end, parent, _ in t.spans:
        assert start <= end
        if parent >= 0:
            _, pstart, pend, _, _ = t.spans[parent]
            assert pstart <= start and end <= pend


def test_input_key_equal_for_equal_arrays_and_differs_on_any_byte():
    a = np.arange(6, dtype=np.int64).reshape(2, 3)
    assert tracer.input_key(a) == tracer.input_key(a.copy())
    assert tracer.input_key(a) == tracer.input_key(np.asfortranarray(a))
    assert tracer.input_key(a) != tracer.input_key(a.reshape(3, 2))
    raw = a.tobytes()
    for i in range(len(raw)):
        changed = bytearray(raw)
        changed[i] ^= 1
        b = np.frombuffer(bytes(changed), dtype=np.int64).reshape(2, 3)
        assert tracer.input_key(b) != tracer.input_key(a)

    from qfcert import fixtures
    from qfcert.modrep import regular_left

    m1 = regular_left(fixtures.mat_units_algebra(5, 2))
    m2 = regular_left(fixtures.mat_units_algebra(5, 2))
    assert tracer.input_key([m1, m2]) == tracer.input_key([m2, m1])
    assert tracer.input_key(m1) != tracer.input_key(regular_left(fixtures.mat_units_algebra(7, 2)))
    assert tracer.input_key(m1.algebra) != tracer.input_key(fixtures.upper_triangular2(5))


def test_corpus_mix_documents_are_the_battery_documents():
    from qfcert import fixtures, report

    battery = [f for f in fixtures.corpus() if f.name != "coring-sweedler-f5-m2"]
    mix = workloads.corpus_cases()
    assert [c.name for c in mix] == [f.name for f in battery]
    for c, f in zip(mix, battery):
        assert (c.command, c.expected, c.depth) == (f.command, f.expected, f.depth)
        assert c.docs == [report.canonical_json(d).encode() for d in f.docs]


def test_prime_large_reproduces_corpus_mix_verdicts():
    mix = workloads.corpus_cases()
    large = workloads.corpus_cases(workloads.LARGE_PRIME)
    assert [(c.name, c.expected) for c in large] == [(c.name, c.expected) for c in mix]
    assert all(json.loads(d)["p"] == workloads.LARGE_PRIME for c in large for d in c.docs)
    p = worker.Pass(seed=0)
    for c in large:
        p.run_case(_as_payload_case(c))
    p.check_emitted()
    assert p.failures == []
    assert p.attempted == len(large)


def test_reference_sampler_samples_during_a_pass_and_leaves_its_time_out():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    s = worker.ReferenceSampler()
    s.start()
    c0, w0 = s.clock(), time.perf_counter()
    while time.perf_counter() - w0 < 0.35:
        pass
    clock_s, wall = s.clock() - c0, time.perf_counter() - w0
    s.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample at start, one at stop and about one per interval between
    assert len(s.samples) >= 4 and all(t > 0 for t in s.samples)
    assert clock_s < wall
    assert abs(wall - clock_s - (s.spent - s.samples[0] - s.samples[-1])) < 1e-3


def test_stored_reports_cover_the_battery_at_every_seed():
    for seed in workloads.REPORT_SEEDS:
        cases = workloads.stored_report_cases(seed)
        assert len(cases) == 39
        assert all(json.loads(c.docs[0])["seed"] == seed for c in cases)


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_the_runs_report():
    spec = _bench_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    units = tracer.metric_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, cwd=ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_smoke_run_passes_the_gate(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in _bench_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    result = _run("verify-reports", 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(tracer.metric_units())
    assert result["metrics"]["verify.verify_report.calls"]["value"] >= 39


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero
    and prints no result."""
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-mix", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout.decode()
