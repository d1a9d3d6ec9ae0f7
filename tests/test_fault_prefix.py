"""Shared-run fault executor vs. independent fault runs.

``execute_fault_point`` keeps one live machine per process, built with
the fault taps every model reads, advances it from crash cycle to crash
cycle and checks each point on a faulted power cut
(``System.power_cut(injector)``) that the machine survives.  These tests
hold it to the destructive reference — a fresh
:func:`~repro.harness.testbed.crash_run` with the injector installed,
recovered (through the crash storm when the point has one) and judged by
the same verdict code — across every default model and four composites,
the four crash designs, unsorted, duplicate and past-the-end cycles,
with and without the checksum plane and a storm.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import SimulationError, WorkloadError
from repro.faults.models import (FaultInjector, default_fault_models,
                                 fault_from_dict)
from repro.faults.sweep import (
    FAULT_DESIGNS,
    FaultOutcome,
    FaultSpec,
    execute_fault_point,
    judge_fault_point,
)
from repro.harness import campaign as campaign_mod
from repro.harness.testbed import crash_run

MODELS = [m.to_dict() for m in default_fault_models()] + [
    {"kind": kind} for kind in (
        "controller-loss+torn-log-write",
        "correlated-loss+torn-data-write",
        "controller-loss+adr-truncation",
        "adr-truncation+log-corruption",
    )
]
#: Far past every run's end: the cut lands on the finished machine.
PAST_THE_END = 10_000_000
#: Unsorted (a rebuild), a duplicate (a second cut without running) and
#: past the end (the run finishes first).
CYCLES = [9_000, 3_000, 3_000, PAST_THE_END]
#: (checksums, storm seed) of the two variants.
VARIANTS = [(False, None), (True, 3)]


@pytest.fixture(autouse=True)
def fresh_live_run():
    """Each test starts and ends without a live machine."""
    campaign_mod._drop_live_run()
    yield
    campaign_mod._drop_live_run()


def independent(spec: FaultSpec) -> FaultOutcome:
    """The point re-simulated from cycle 0 and crashed destructively."""
    model = fault_from_dict(spec.fault)
    if not model.applicable(spec.design):
        return execute_fault_point(spec)
    injector = FaultInjector(model)
    try:
        system, workload, report = crash_run(
            spec.workload, spec.design, spec.crash_cycle, seed=spec.seed,
            entry_bytes=spec.entry_bytes, threads=spec.threads,
            txns_per_thread=spec.txns_per_thread,
            initial_items=spec.initial_items, num_cores=spec.num_cores,
            injector=injector, verify=False, line_checksums=spec.checksums,
            storm_seed=spec.storm, **spec.workload_kw,
        )
    except (WorkloadError, SimulationError) as exc:
        return FaultOutcome(spec=spec, ok=False, applied=injector.applied,
                            detail=injector.detail,
                            error=f"{type(exc).__name__}: {exc}")
    outcome = judge_fault_point(spec, injector, system, workload, report)
    system.image.recycle()
    return outcome


@pytest.mark.parametrize("checksums,storm", VARIANTS,
                         ids=["plain", "checksums-storm"])
@pytest.mark.parametrize("design", FAULT_DESIGNS, ids=lambda d: d.value)
def test_shared_run_matches_independent_runs(design, checksums, storm):
    reference: dict[tuple[int, str], FaultOutcome] = {}
    applied = 0
    for cycle in CYCLES:
        # Run-major, as fault_grid orders a run: every model at a cycle.
        for fault in MODELS:
            spec = FaultSpec(design=design, workload="hash", fault=fault,
                             crash_cycle=cycle, checksums=checksums,
                             storm=storm)
            key = (cycle, fault["kind"])
            if key not in reference:
                reference[key] = independent(spec)
            shared = execute_fault_point(spec)
            assert dataclasses.asdict(shared) == \
                dataclasses.asdict(reference[key]), key
            applied += shared.applied
    assert applied > len(CYCLES) * 2


def test_run_is_simulated_once_for_every_model():
    specs = [FaultSpec(design=FAULT_DESIGNS[2], workload="hash",
                       fault=fault, crash_cycle=cycle)
             for cycle in (4_000, 8_000) for fault in MODELS]
    for spec in specs:
        execute_fault_point(spec)
        if spec is specs[0]:
            live = campaign_mod._live
        assert campaign_mod._live is live
    assert live.key == dataclasses.replace(specs[0], fault={},
                                           crash_cycle=0, storm=None)
