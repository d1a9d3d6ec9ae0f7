"""Chaos net: the supervised campaign fabric under injected faults.

Every test drives the *real* worker pool — real forked processes, real
``os._exit`` deaths, real watchdog kills — through a deterministic
:class:`~repro.harness.chaos.ChaosPlan` and asserts the campaign
converges to results bit-identical to the undisturbed run, in
submission order.  Poison tasks must fail only their own cell, and a
pool past its respawn budget must degrade to inline execution and
still finish the batch.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.common.errors import ConfigError
from repro.config import Design
from repro.harness.campaign import (
    Campaign,
    CrashSpec,
    result_to_dict,
)
from repro.harness.cache import ResultCache
from repro.harness.chaos import (
    ChaosAction,
    ChaosPlan,
    corrupt_frame_on,
    hang_on,
    kill_worker_on,
    poison_on,
    tear_cache_entry,
)
from repro.harness.runner import RunSpec
from repro.harness.supervise import (
    DEFAULT_TASK_TIMEOUTS,
    FailedOutcome,
    RetryPolicy,
)

TINY = RunSpec(
    design=Design.ATOM_OPT, workload="hash", num_cores=4,
    txns_per_thread=4, warmup_per_thread=1, initial_items=8,
)
SPECS = [TINY.with_seed(7 + k) for k in range(6)]


def chaos_campaign(*actions, **retry_kw) -> Campaign:
    retry_kw.setdefault("backoff_base", 0.01)
    return Campaign(jobs=2, cache=None, retry=RetryPolicy(**retry_kw),
                    chaos=ChaosPlan(list(actions)))


@pytest.fixture(scope="module")
def baseline():
    """The undisturbed run every chaos run must converge to."""
    campaign = Campaign(jobs=1, cache=None)
    return [result_to_dict(r) for r in campaign.run(SPECS)]


def _sweep_batch(kind: str):
    """``(points, run, report)`` for three points of one sweep kind.

    ``run(campaign, points)`` returns the outcomes and ``report(outcomes)``
    the kind's failure count and rendered verdict table.
    """
    if kind == "crash":
        from repro.harness.campaign import CrashSweepResult

        points = [CrashSpec(design=Design.ATOM_OPT, workload="hash",
                            crash_cycle=cycle)
                  for cycle in (6_000, 10_000, 14_000)]

        def report(outcomes):
            sweep = CrashSweepResult(outcomes)
            return len(sweep.failures), sweep.render()

        return points, Campaign.run_crash, report
    if kind == "fault":
        from repro.faults.models import ControllerLoss
        from repro.faults.sweep import FaultSweepResult, fault_grid

        points = fault_grid(designs=[Design.ATOM_OPT], workloads=["hash"],
                            models=[ControllerLoss()],
                            crash_cycles=(6_000, 10_000, 14_000))

        def report(outcomes):
            sweep = FaultSweepResult(outcomes)
            return len(sweep.failures), sweep.render()

        return points, Campaign.run_faults, report
    from repro.litmus.catalog import CATALOG
    from repro.litmus.explorer import LitmusCell, LitmusPoint, LitmusReport

    points = [LitmusPoint(test=CATALOG[0].to_dict(), design=Design.ATOM_OPT,
                          crash_cycle=cycle) for cycle in (100, 200, 300)]

    def report(outcomes):
        cell = LitmusCell(test=CATALOG[0].name, design="atom-opt",
                          expected=False)
        for outcome in outcomes:
            cell.absorb(outcome, [], [])
        litmus = LitmusReport(cells=[cell], points_total=len(outcomes))
        return len(litmus.failures), litmus.render()

    return points, Campaign.run_litmus, report


def run_and_dict(campaign) -> list[dict]:
    try:
        return [result_to_dict(r) for r in campaign.run(SPECS)]
    finally:
        campaign.close()


class TestChaosPlan:
    def test_plan_is_picklable(self):
        """Plans cross the fork boundary into every worker."""
        plan = ChaosPlan([kill_worker_on(2), hang_on(1, seconds=5.0),
                          corrupt_frame_on(0), poison_on(3)])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.action_for(2, 0).kind == "kill"
        assert clone.action_for(1, 0).seconds == 5.0

    def test_actions_key_on_task_and_attempt(self):
        plan = ChaosPlan([kill_worker_on(2, attempt=0)])
        assert plan.action_for(2, 0) is not None
        assert plan.action_for(2, 1) is None  # retry runs clean
        assert plan.action_for(3, 0) is None
        assert ChaosPlan([poison_on(1)]).action_for(1, 9) is not None

    def test_invalid_actions_rejected(self):
        with pytest.raises(ConfigError):
            ChaosAction("explode", 0)
        with pytest.raises(ConfigError):
            ChaosAction("kill", -1)
        with pytest.raises(ConfigError):
            ChaosAction("hang", 0, seconds=0.0)
        with pytest.raises(ConfigError):
            ChaosPlan(["kill"])


class TestWorkerDeath:
    def test_killed_worker_is_respawned_and_task_retried(self, baseline,
                                                         capfd):
        campaign = chaos_campaign(kill_worker_on(2))
        assert run_and_dict(campaign) == baseline
        assert campaign.quarantined == []
        err = capfd.readouterr().err
        assert "exited mid-batch" in err
        assert "index=2" in err and "workload=hash" in err
        # Telemetry mirrors the injected plan: one death, one retry.
        counts = campaign.telemetry.counts
        assert counts.get("worker-death") == 1
        assert counts.get("retry") == 1
        assert counts.get("respawn") == 1
        assert counts.get("quarantine", 0) == 0
        assert counts["reply"] == len(SPECS)

    def test_corrupt_result_frame_discredits_the_worker(self, baseline):
        campaign = chaos_campaign(corrupt_frame_on(0))
        assert run_and_dict(campaign) == baseline
        assert campaign.quarantined == []
        counts = campaign.telemetry.counts
        assert counts.get("corrupt-frame") == 1
        assert counts.get("retry") == 1

    def test_kill_plus_hang_in_one_batch_bit_identical(self, baseline):
        """Acceptance: one worker SIGKILLed and one hung mid-batch —
        the campaign completes bit-identical to the undisturbed run,
        order preserved."""
        campaign = chaos_campaign(
            kill_worker_on(1), hang_on(3, seconds=30.0),
            task_timeout=1.0,
        )
        assert run_and_dict(campaign) == baseline


class TestWatchdog:
    def test_hung_worker_is_killed_and_task_retried(self, baseline, capfd):
        campaign = chaos_campaign(hang_on(1, seconds=30.0),
                                  task_timeout=0.5)
        assert run_and_dict(campaign) == baseline
        err = capfd.readouterr().err
        assert "hung" in err and "index=1" in err
        counts = campaign.telemetry.counts
        assert counts.get("watchdog-kill") == 1
        assert counts.get("retry") == 1

    def test_per_kind_deadline_defaults(self):
        policy = RetryPolicy()
        for kind, deadline in DEFAULT_TASK_TIMEOUTS.items():
            assert policy.timeout_for(kind) == deadline
        assert policy.timeout_for("unheard-of-kind") > 0
        assert RetryPolicy(task_timeout=3.0).timeout_for("run") == 3.0


class TestPoisonQuarantine:
    def test_poison_task_fails_only_its_own_cell(self, baseline):
        campaign = chaos_campaign(poison_on(3), max_retries=1)
        results = campaign.run(SPECS)
        campaign.close()
        poisoned = results[3]
        assert isinstance(poisoned, FailedOutcome)
        assert poisoned.attempts == 2  # first run + one retry
        assert "quarantined" in poisoned.error
        assert "seed=10" in poisoned.error  # names the failing spec
        assert [result_to_dict(r) for i, r in enumerate(results)
                if i != 3] == [d for i, d in enumerate(baseline) if i != 3]
        assert campaign.quarantined == [poisoned]
        counts = campaign.telemetry.counts
        assert counts.get("quarantine") == 1
        assert counts.get("retry") == 1  # max_retries=1: one retry
        failed = [e for e in campaign.telemetry.events
                  if e["event"] == "reply" and e.get("status") == "failed"]
        assert len(failed) == 1 and failed[0]["task"] == 3
        assert campaign.metrics["quarantined"] == 1

    @pytest.mark.parametrize("kind", ["crash", "fault", "litmus"])
    def test_poison_sweep_point_folds_into_its_outcome(self, kind):
        points, run, report = _sweep_batch(kind)
        campaign = chaos_campaign(poison_on(1), max_retries=0)
        try:
            outcomes = run(campaign, points)
        finally:
            campaign.close()
        assert [o.error == "" for o in outcomes] == [True, False, True]
        if kind != "litmus":
            assert [o.ok for o in outcomes] == [True, False, True]
        bad = outcomes[1]
        # The kind's own outcome type, around the submitted spec, with
        # the error set (and ``state`` None for litmus).
        assert type(bad) is type(outcomes[0])
        assert getattr(bad, dataclasses.fields(bad)[0].name) is points[1]
        assert getattr(bad, "state", None) is None
        assert bad.error.startswith("quarantined after 1 attempt(s)")
        assert campaign.quarantined[0].error == bad.error
        failures, text = report(outcomes)
        assert failures == 1
        assert "quarantined" in text

    def test_max_retries_zero_quarantines_first_failure(self):
        campaign = chaos_campaign(kill_worker_on(0), max_retries=0)
        results = campaign.run(SPECS)
        campaign.close()
        assert isinstance(results[0], FailedOutcome)
        assert results[0].attempts == 1

    def test_quarantined_points_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign(jobs=2, cache=cache,
                            retry=RetryPolicy(backoff_base=0.01,
                                              max_retries=0),
                            chaos=ChaosPlan([poison_on(0)]))
        first = campaign.run(SPECS)
        campaign.close()
        assert isinstance(first[0], FailedOutcome)
        # A clean campaign over the same cache recomputes the poisoned
        # point (a miss) rather than replaying the failure.
        clean = Campaign(jobs=1, cache=cache)
        results = clean.run(SPECS)
        assert not isinstance(results[0], FailedOutcome)
        assert clean.computed == 1  # only the quarantined point misses


class TestGracefulDegradation:
    def test_exhausted_respawn_budget_falls_back_inline(self, baseline,
                                                        capfd):
        campaign = chaos_campaign(kill_worker_on(1), respawn_budget=0)
        assert run_and_dict(campaign) == baseline
        assert "degrading to inline execution" in capfd.readouterr().err
        counts = campaign.telemetry.counts
        assert counts.get("degrade") == 1
        assert counts.get("inline-exec", 0) > 0
        assert counts.get("respawn", 0) == 0  # budget was zero

    def test_budget_scales_with_pool_size(self):
        assert RetryPolicy().budget_for(2) == 8
        assert RetryPolicy(respawn_budget=3).budget_for(2) == 3


class TestLitmusUnderChaos:
    def test_litmus_grid_converges_under_kill(self):
        """A litmus campaign with a worker killed per batch produces
        verdicts identical to the undisturbed run."""
        from repro.litmus.catalog import CATALOG
        from repro.litmus.explorer import explore

        tests = CATALOG[:2]

        def verdicts(chaos):
            campaign = Campaign(jobs=2, cache=None, chaos=chaos,
                                retry=RetryPolicy(backoff_base=0.01))
            try:
                return explore(campaign, tests=tests, points=3).to_json()
            finally:
                campaign.close()

        undisturbed = verdicts(None)
        chaotic = verdicts(ChaosPlan([kill_worker_on(1)]))
        assert chaotic == undisturbed


class TestTornCacheEntry:
    def test_torn_entry_reads_as_miss_and_is_removed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" * 32, {"x": 1})
        tear_cache_entry(cache, "ab" * 32, keep_bytes=10)
        assert cache.get("ab" * 32) is None
        assert not cache.path_for("ab" * 32).exists()
        assert cache.corrupt_evictions == 1


class TestCacheTelemetry:
    def test_cold_and_warm_runs_are_distinguishable(self, tmp_path):
        cold = Campaign(jobs=1, cache=ResultCache(tmp_path / "cache"))
        cold.run(SPECS[:2])
        cold.close()
        assert cold.telemetry.counts.get("cache-miss") == 2
        assert cold.telemetry.counts.get("cache-hit", 0) == 0
        assert cold.metrics["cache"] == {
            "hits": 0, "misses": 2,
            "corrupt_evictions": 0, "disabled": False,
        }
        warm = Campaign(jobs=1, cache=ResultCache(tmp_path / "cache"))
        warm.run(SPECS[:2])
        warm.close()
        assert warm.telemetry.counts.get("cache-hit") == 2
        assert warm.telemetry.counts.get("dispatch", 0) == 0
        assert warm.computed == 0
        assert warm.metrics["cache"]["hits"] == 2

    def test_torn_entry_is_counted_by_the_campaign(self, tmp_path):
        from repro.harness.cache import spec_key

        seed = Campaign(jobs=1, cache=ResultCache(tmp_path / "cache"))
        seed.run(SPECS[:1])
        seed.close()
        cache = ResultCache(tmp_path / "cache")
        tear_cache_entry(cache, spec_key(SPECS[0], "run"), keep_bytes=10)
        campaign = Campaign(jobs=1, cache=cache)
        campaign.run(SPECS[:1])
        campaign.close()
        counts = campaign.telemetry.counts
        assert counts.get("cache-corrupt-evict") == 1
        assert counts.get("cache-miss") == 1
        assert campaign.metrics["cache"]["corrupt_evictions"] == 1
