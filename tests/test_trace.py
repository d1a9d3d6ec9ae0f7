"""Schema and non-perturbation net for the observability layer.

Every trace the :class:`~repro.obs.trace.Tracer` produces must be a
valid Chrome-trace event list: known phases, required fields,
non-negative integer timestamps in simulated cycles, matched async
begin/end pairs — including runs that end in a power failure, where
open transaction spans must be force-closed.  And tracing must never
perturb the machine: a traced + sampled run produces bit-identical
results to a plain one (the golden-digest test enforces the same
contract against the pinned reference values).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import Design
from repro.harness.runner import RunSpec, run_spec
from repro.litmus.catalog import catalog_by_name
from repro.litmus.explorer import LitmusPoint, execute_litmus_point
from repro.obs.fabric import FabricTelemetry
from repro.obs.sample import StatSampler
from repro.obs.trace import Tracer, validate_chrome_trace

TINY = RunSpec(
    design=Design.ATOM_OPT, workload="hash", entry_bytes=256,
    num_cores=4, txns_per_thread=4, warmup_per_thread=0,
    initial_items=12, seed=11,
)


def traced_run(spec: RunSpec, interval: int = 500):
    """Run ``spec`` with a tracer + sampler installed."""
    tracer = Tracer()
    holder: dict = {}

    def instrument(system) -> None:
        tracer.install(system)
        holder["sampler"] = StatSampler(system, interval=interval).install()

    result = run_spec(spec, instrument=instrument)
    return result, tracer, holder["sampler"]


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
class TestTraceSchema:
    def test_traced_run_is_valid_chrome_trace(self, design):
        spec = dataclasses.replace(TINY, design=design)
        result, tracer, sampler = traced_run(spec)
        sampler.emit_counters(tracer)
        payload = tracer.to_chrome_trace()
        events = payload["traceEvents"]
        assert events, "a completed run must produce trace events"
        assert validate_chrome_trace(events) == []
        # Non-metadata events are time-sorted (Perfetto expects it).
        stamps = [ev["ts"] for ev in events if ev["ph"] != "M"]
        assert stamps == sorted(stamps)
        # Every committed transaction opened and closed a lifecycle span.
        begins = sum(1 for ev in events
                     if ev["ph"] == "b" and ev.get("cat") == "txn")
        ends = sum(1 for ev in events
                   if ev["ph"] == "e" and ev.get("cat") == "txn")
        assert begins == ends >= result.txns

    def test_tracing_is_non_perturbing(self, design):
        spec = dataclasses.replace(TINY, design=design)
        plain = run_spec(spec)
        traced, _tracer, _sampler = traced_run(spec)
        assert traced.cycles == plain.cycles
        assert traced.txns == plain.txns
        assert traced.stats == plain.stats


class TestCrashTrace:
    def test_power_failure_closes_open_spans(self):
        name = sorted(catalog_by_name())[0]
        test = catalog_by_name()[name].to_dict()
        tracer = Tracer()
        point = LitmusPoint(test=test, design=Design.ATOM,
                            crash_cycle=3_000, seed=7)
        execute_litmus_point(point, instrument=tracer.install)
        events = tracer.to_chrome_trace()["traceEvents"]
        assert validate_chrome_trace(events) == []
        assert any(ev["name"] == "power-failure" and ev["ph"] == "i"
                   for ev in events)
        # Spans cut by the power failure are flagged, not dangling.
        cut = [ev for ev in events
               if ev["ph"] == "e" and ev.get("args", {}).get("cut")]
        opened = sum(1 for ev in events if ev["ph"] == "b")
        closed = sum(1 for ev in events if ev["ph"] == "e")
        assert opened == closed
        assert len(cut) <= closed


class TestTraceArtifact:
    def test_write_validates_and_is_loadable(self, tmp_path):
        _result, tracer, sampler = traced_run(TINY)
        sampler.emit_counters(tracer)
        out = tmp_path / "trace.json"
        count = tracer.write(out)
        payload = json.loads(out.read_text())
        assert len(payload["traceEvents"]) == count
        assert payload["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(payload["traceEvents"]) == []

    def test_write_rejects_invalid_events(self, tmp_path):
        tracer = Tracer()
        tracer.events.append({"ph": "?", "name": "bogus",
                              "ts": 0, "pid": 1, "tid": 1})
        with pytest.raises(ValueError, match="bad phase"):
            tracer.write(tmp_path / "bad.json")


class TestValidator:
    def test_flags_bad_phase_and_missing_fields(self):
        problems = validate_chrome_trace([{"ph": "Z"}])
        assert any("bad phase" in p for p in problems)
        problems = validate_chrome_trace([{"ph": "i", "ts": 1}])
        assert any("missing" in p for p in problems)

    def test_flags_negative_and_non_integer_timestamps(self):
        base = {"ph": "i", "name": "x", "pid": 1, "tid": 1}
        assert validate_chrome_trace([{**base, "ts": -1}])
        assert validate_chrome_trace([{**base, "ts": 1.5}])
        assert validate_chrome_trace([{**base, "ts": 3}]) == []

    def test_flags_unmatched_async_spans(self):
        begin = {"ph": "b", "name": "t", "cat": "txn", "id": 1,
                 "pid": 1, "tid": 1, "ts": 5}
        end = {**begin, "ph": "e", "ts": 9}
        assert validate_chrome_trace([begin, end]) == []
        assert any("unmatched begin" in p
                   for p in validate_chrome_trace([begin]))
        assert any("end without begin" in p
                   for p in validate_chrome_trace([end]))
        backwards = [{**begin, "ts": 9}, {**end, "ts": 5}]
        assert any("ends before" in p
                   for p in validate_chrome_trace(backwards))

    def test_flags_non_numeric_counters(self):
        counter = {"ph": "C", "name": "c", "pid": 2, "tid": 0, "ts": 1,
                   "args": {"depth": "deep"}}
        assert any("counter" in p for p in validate_chrome_trace([counter]))


class TestSampler:
    def test_timeline_is_monotonic_and_complete(self):
        _result, _tracer, sampler = traced_run(TINY, interval=250)
        samples = sampler.samples
        assert samples, "a multi-thousand-cycle run must tick"
        cycles = [s["cycle"] for s in samples]
        assert cycles == sorted(cycles)
        for sample in samples:
            assert sample["sq_depth"] >= 0
            assert sample["write_queue_depth"] >= 0
            assert all(delta >= 0
                       for delta in sample["channel_busy"].values())
        total = samples[-1]["txns_committed"]
        assert sum(s["txns_delta"] for s in samples) == total

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            StatSampler(object(), interval=0)


class TestTracePerf:
    """``trace --perf`` is how a pinned perf point gets its timeline."""

    def test_traces_the_machine_the_perf_gate_measures(self, tmp_path,
                                                        capsys):
        from repro.harness.perf import measure_point, perf_specs
        from repro.obs.cli import main

        samples_out = tmp_path / "samples.json"
        assert main(["--perf", "--design", "atom-opt", "--workload", "hash",
                     "--scale", "0.25", "--sample-interval", "1000",
                     "--out", str(tmp_path / "trace.json"),
                     "--samples-out", str(samples_out)]) == 0
        line = next(line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("trace written:"))
        summary = dict(field.split("=", 1) for field in line.split()
                       if "=" in field)
        spec = next(s for s in perf_specs(0.25)
                    if s.design is Design.ATOM_OPT and s.workload == "hash")
        measured = measure_point(spec)
        # Cycles and transactions, not events: sampler ticks are engine
        # events too.
        assert int(summary["cycles"]) == measured.cycles
        assert int(summary["txns"]) == measured.txns
        samples = json.loads(samples_out.read_text())["samples"]
        assert samples and samples[-1]["cycle"] <= measured.cycles


class TestFabricTelemetry:
    def test_counts_are_exact_past_the_event_cap(self):
        from repro.obs import fabric

        telemetry = FabricTelemetry()
        for _ in range(fabric.MAX_EVENTS + 5):
            telemetry.emit("dispatch")
        assert telemetry.counts["dispatch"] == fabric.MAX_EVENTS + 5
        assert len(telemetry.events) == fabric.MAX_EVENTS
        assert telemetry.events_dropped == 5
        assert telemetry.metrics()["events_dropped"] == 5

    def test_jsonl_stream_is_parseable(self, tmp_path):
        path = tmp_path / "fabric.jsonl"
        telemetry = FabricTelemetry(jsonl_path=str(path))
        telemetry.task_dispatched(0, 0, kind="run")
        telemetry.task_finished(0, status="ok", kind="run", attempts=1)
        telemetry.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["dispatch", "reply"]
        assert records[1]["wall_s"] >= 0
