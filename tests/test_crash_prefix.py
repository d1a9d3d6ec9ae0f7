"""Shared-prefix crash executor vs. independent crash runs.

``execute_crash_point`` keeps one live machine per process, advances it
from crash cycle to crash cycle and checks each point on a power cut
(``System.power_cut``) that the machine survives.  These tests hold it
to the per-point semantics of :func:`~repro.harness.testbed.crash_run`
— identical ``CrashOutcome`` records and identical post-recovery
durable images — across every crash design, unsorted and duplicate
cycles, the finish cycle itself, divergent points and the worker pool.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import SimulationError, WorkloadError
from repro.config import Design
from repro.harness import campaign as campaign_mod
from repro.harness.campaign import (
    CRASH_DESIGNS,
    Campaign,
    CrashOutcome,
    CrashSpec,
    crash_grid,
    execute_crash_point,
)
from repro.harness.testbed import crash_run

WORKLOADS = ["hash", "queue", "sdg"]
SEEDS = [1, 3]
#: Far past every run's end: the cut lands on the finished machine.
PAST_THE_END = 10_000_000


@pytest.fixture(autouse=True)
def fresh_live_run():
    """Each test starts and ends without a live machine."""
    campaign_mod._drop_live_run()
    yield
    campaign_mod._drop_live_run()


@pytest.fixture
def digests(monkeypatch):
    """Make each point report its cut's post-recovery durable digest.

    A point whose cut equals the previous point's is not cut again: it
    reports the digest of the point whose outcome it reuses.
    """
    checked, restamped = (campaign_mod._crash_cut_outcome,
                          campaign_mod._crash_restamp)

    def with_digest(spec, system, workload, cut):
        outcome = checked(spec, system, workload, cut)
        outcome.digest = cut.image.durable_digest()
        return outcome

    def reused_digest(spec, system, outcome):
        again = restamped(spec, system, outcome)
        again.digest = outcome.digest
        return again

    monkeypatch.setattr(campaign_mod, "_crash_cut_outcome", with_digest)
    monkeypatch.setattr(campaign_mod, "_crash_restamp", reused_digest)


def independent(spec: CrashSpec) -> tuple[CrashOutcome, str | None, int]:
    """The point re-simulated from cycle 0 by ``crash_run``.

    Returns the outcome, the post-recovery durable digest and the cycle
    power was cut at (``None`` for both at a divergent point).
    """
    try:
        system, workload, report = crash_run(
            spec.workload, spec.design, spec.crash_cycle, seed=spec.seed,
            entry_bytes=spec.entry_bytes, threads=spec.threads,
            txns_per_thread=spec.txns_per_thread,
            initial_items=spec.initial_items, num_cores=spec.num_cores,
            **spec.workload_kw,
        )
    except (WorkloadError, SimulationError) as exc:
        return CrashOutcome(spec=spec, ok=False,
                            error=f"{type(exc).__name__}: {exc}"), None, None
    outcome = CrashOutcome(
        spec=spec, ok=True, commits=workload.commits,
        updates_rolled_back=report.updates_rolled_back,
        recovery_cost=report.cost.to_dict(),
    )
    return outcome, system.image.durable_digest(), system.engine.now


def assert_same(shared: CrashOutcome, reference: tuple) -> None:
    outcome, digest, _cut = reference
    assert dataclasses.asdict(shared) == dataclasses.asdict(outcome)
    if digest is not None:
        assert shared.digest == digest


@pytest.mark.parametrize("design", CRASH_DESIGNS, ids=lambda d: d.value)
def test_shared_prefix_matches_independent_runs(design, digests):
    for workload in WORKLOADS:
        for seed in SEEDS:
            run = CrashSpec(design=design, workload=workload, crash_cycle=0,
                            seed=seed)
            past = dataclasses.replace(run, crash_cycle=PAST_THE_END)
            reference = {PAST_THE_END: independent(past)}
            # Past the end, power is cut on the finished machine: at
            # the run's finish cycle.
            finish = reference[PAST_THE_END][2]
            assert 21_000 < finish < PAST_THE_END
            # Unsorted (a rebuild), a duplicate (a second cut without
            # running), the finish cycle (the pause fires before the
            # last thread's finishing event) and two cycles past it
            # (the run finishes first; then a cut of the finished
            # machine).
            cycles = [9_000, 3_000, 3_000, 21_000, finish, finish + 1,
                      PAST_THE_END]
            for cycle in cycles:
                spec = dataclasses.replace(run, crash_cycle=cycle)
                if cycle not in reference:
                    reference[cycle] = independent(spec)
                shared = execute_crash_point(spec)
                assert_same(shared, reference[cycle])
                assert shared.ok


def test_divergent_point_keeps_the_per_point_error_text(digests):
    points = [CrashSpec(design=Design.NON_ATOMIC, workload="hash",
                        crash_cycle=cycle) for cycle in (2_000, 6_000, 10_000)]
    shared = [execute_crash_point(spec) for spec in points]
    for outcome, spec in zip(shared, points):
        assert_same(outcome, independent(spec))
    assert [o.ok for o in shared] == [True, False, True]
    assert shared[1].error.startswith("WorkloadError: hash: thread ")
    assert "diverges from golden model" in shared[1].error


def test_pooled_sweep_matches_inline_sweep():
    specs = crash_grid(designs=[Design.ATOM_OPT, Design.REDO],
                       workloads=["hash", "rbtree"],
                       crash_cycles=[4_000, 12_000, 20_000], seeds=[1, 2])
    with Campaign(jobs=1, cache=None) as campaign:
        inline = campaign.run_crash(specs)
    with Campaign(jobs=2, cache=None) as campaign:
        pooled = campaign.run_crash(specs)
    assert [dataclasses.asdict(o) for o in pooled] == \
        [dataclasses.asdict(o) for o in inline]
    assert all(o.ok for o in inline)


SPEC = CrashSpec(design=Design.ATOM_OPT, workload="hash", crash_cycle=8_000)


def test_error_while_advancing_drops_the_machine():
    execute_crash_point(SPEC)
    # Scheduling a crash (or pause) in the past fails the same way the
    # independent run fails; the machine is dropped, not left half-run.
    bad = dataclasses.replace(SPEC, crash_cycle=-1)
    outcome = execute_crash_point(bad)
    assert outcome == independent(bad)[0]
    assert outcome.error.startswith("SimulationError: cannot schedule")
    assert campaign_mod._live is None
    assert execute_crash_point(SPEC) == independent(SPEC)[0]
