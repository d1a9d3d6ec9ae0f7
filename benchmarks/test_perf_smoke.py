"""Smoke test for the kernel perf benchmark machinery.

Runs the pinned matrix at a tiny scale and validates the artifact
schema — NOT the speed (wall-clock on shared CI machines is gated
separately by the ``perf-smoke`` CI job against
``benchmarks/perf/baseline.json``, aggregate-only with a 15% margin:
``repro.harness.perf.GATE_PCT``).  The full-scale matrix must reproduce the
baseline's per-point event, cycle and transaction counts exactly: the
logical event stream is part of the kernel's contract.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.perf import (
    PERF_DESIGNS, PERF_WORKLOADS, check_regression, perf_specs, run_perf,
)

BASELINE = Path(__file__).parent / "perf" / "baseline.json"


def test_matrix_is_pinned():
    specs = perf_specs()
    assert len(specs) == len(PERF_DESIGNS) * len(PERF_WORKLOADS)
    assert {spec.workload for spec in specs} == set(PERF_WORKLOADS)
    # The machine shape must never drift: 8 cores, fixed seed.
    assert all(spec.num_cores == 8 and spec.seed == 42 for spec in specs)


def test_tiny_run_writes_well_formed_report(tmp_path):
    report = run_perf(scale=0.1)
    assert len(report["points"]) == 9
    for point in report["points"]:
        assert point["events"] > 0
        assert point["events_per_sec"] > 0
        assert point["txns"] > 0
    assert report["aggregate"]["geomean_events_per_sec"] > 0
    out = tmp_path / "BENCH_kernel.json"
    out.write_text(json.dumps(report))
    assert json.loads(out.read_text())["schema"] == 1


def test_full_matrix_reproduces_baseline_event_stream():
    baseline = json.loads(BASELINE.read_text())
    report = run_perf(scale=1.0)

    def counts(points):
        return {(p["design"], p["workload"]): (p["events"], p["cycles"],
                                               p["txns"])
                for p in points}

    assert counts(report["points"]) == counts(baseline["points"])


def test_committed_baseline_is_well_formed():
    baseline = json.loads(BASELINE.read_text())
    assert baseline["schema"] == 1
    assert baseline["aggregate"]["geomean_events_per_sec"] > 0
    assert len(baseline["points"]) == 9


def test_regression_gate_math():
    baseline = {"aggregate": {"geomean_events_per_sec": 100_000.0}}
    fast = {"aggregate": {"geomean_events_per_sec": 90_000.0}}
    slow = {"aggregate": {"geomean_events_per_sec": 79_000.0}}
    assert check_regression(fast, baseline, gate_pct=20.0) == []
    failures = check_regression(slow, baseline, gate_pct=20.0)
    assert len(failures) == 1 and "regressed" in failures[0]
