"""Campaign layer: cache behaviour, pool fan-out, seeds, crash sweep."""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import replace

import pytest

from repro.config import Design
from repro.harness.cache import (
    ResultCache, canonicalize, payload_digest, spec_key,
)
from repro.harness.campaign import (
    Campaign,
    CampaignError,
    CrashSpec,
    WorkerPool,
    aggregate_results,
    crash_grid,
    crash_sweep,
    result_to_dict,
)
from repro.harness.experiments import run_experiment
from repro.harness.runner import RunSpec, run_spec

TINY = RunSpec(
    design=Design.ATOM_OPT, workload="hash", num_cores=4,
    txns_per_thread=4, warmup_per_thread=1, initial_items=8,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestSpecKey:
    def test_stable_across_calls(self):
        assert spec_key(TINY) == spec_key(TINY)

    def test_any_field_change_changes_the_key(self):
        baseline = spec_key(TINY)
        variants = [
            TINY.with_design(Design.BASE),
            TINY.with_seed(99),
            RunSpec(**{**TINY.__dict__, "txns_per_thread": 5}),
            RunSpec(**{**TINY.__dict__, "workload_kw": {"compute_cycles": 9}}),
            RunSpec(**{**TINY.__dict__, "log_overrides": {"collation": False}}),
        ]
        keys = {spec_key(v) for v in variants}
        assert baseline not in keys
        assert len(keys) == len(variants)

    def test_kind_separates_run_and_crash_namespaces(self):
        assert spec_key(TINY, kind="run") != spec_key(TINY, kind="crash")

    def test_canonicalize_sorts_dicts_and_unwraps_enums(self):
        assert canonicalize({"b": 2, "a": Design.REDO}) == \
            {"a": "redo", "b": 2}
        with pytest.raises(TypeError):
            canonicalize(object())


class TestResultCache:
    def test_get_miss_then_put_then_hit(self, cache):
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_reads_as_miss_and_is_removed(self, cache):
        key = "cd" * 32
        cache.put(key, {"x": 1})
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_wipe(self, cache):
        cache.put("ab" * 32, {"x": 1})
        cache.put("cd" * 32, {"y": 2})
        assert cache.wipe() == 2
        assert cache.count() == 0

    def test_checksum_mismatch_reads_as_miss_and_is_removed(self, cache):
        key = "ef" * 32
        cache.put(key, {"x": 1})
        path = cache.path_for(key)
        # A valid envelope whose digest does not match its payload:
        # silent bit-rot, not a torn write.
        path.write_text(json.dumps(
            {"sha256": payload_digest({"x": 2}), "payload": {"x": 1}}
        ))
        assert cache.get(key) is None
        assert not path.exists()

    def test_old_format_entry_reads_as_miss(self, cache):
        key = "aa" * 32
        cache.put(key, {"x": 1})
        cache.path_for(key).write_text(json.dumps({"x": 1}))
        assert cache.get(key) is None

    def test_stale_tmps_reaped_on_init(self, tmp_path):
        root = tmp_path / "cache"
        stale = root / "ab" / "entry.json.tmp.123"
        fresh = root / "ab" / "entry.json.tmp.456"
        stale.parent.mkdir(parents=True)
        stale.write_text("{}")
        fresh.write_text("{}")
        past = time.time() - 7200
        os.utime(stale, (past, past))
        ResultCache(root)
        assert not stale.exists()
        assert fresh.exists()  # could belong to a live writer

    def test_put_failure_degrades_to_cache_off(self, tmp_path, capsys):
        # The cache root is a plain file, so put()'s mkdir hits OSError
        # — which must degrade the cache, not crash the campaign.
        root = tmp_path / "cache"
        root.write_text("not a directory")
        cache = ResultCache(root)
        cache.put("cd" * 32, {"y": 2})
        assert cache.disabled
        assert "cache disabled" in capsys.readouterr().err
        assert cache.get("cd" * 32) is None
        cache.put("ef" * 32, {"z": 3})  # degraded: silent no-op
        assert "cache disabled" not in capsys.readouterr().err

    def test_put_tmp_files_never_linger(self, cache):
        cache.put("ab" * 32, {"x": 1})
        assert not list(cache.root.rglob("*.tmp.*"))


class TestCampaignCache:
    def test_miss_then_hit_returns_identical_result(self, cache):
        campaign = Campaign(jobs=1, cache=cache)
        cold = campaign.run_one(TINY)
        assert campaign.computed == 1
        warm = campaign.run_one(TINY)
        assert campaign.computed == 1  # no recomputation
        assert cache.hits == 1
        assert result_to_dict(cold) == result_to_dict(warm)

    def test_spec_change_invalidates(self, cache):
        campaign = Campaign(jobs=1, cache=cache)
        campaign.run_one(TINY)
        campaign.run_one(RunSpec(**{**TINY.__dict__, "txns_per_thread": 5}))
        assert campaign.computed == 2

    def test_duplicate_specs_in_one_batch_compute_once(self, cache):
        campaign = Campaign(jobs=1, cache=cache)
        a, b = campaign.run([TINY, TINY])
        assert campaign.computed == 1
        assert result_to_dict(a) == result_to_dict(b)

    def test_warm_rerun_is_fast(self, cache):
        """Acceptance: a warm-cache re-run takes <10% of the cold run."""
        campaign = Campaign(jobs=1, cache=cache)
        start = time.perf_counter()
        campaign.run_one(TINY)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        campaign.run_one(TINY)
        warm = time.perf_counter() - start
        assert warm < 0.1 * cold

    def test_warm_batch_equals_cold_batch(self, cache):
        specs = [TINY, TINY.with_seed(11)]
        cold = Campaign(jobs=1, cache=cache).run(specs)
        warm_campaign = Campaign(jobs=1, cache=ResultCache(cache.root))
        warm = warm_campaign.run(specs)
        assert warm_campaign.computed == 0
        assert warm == cold
        assert [r.spec for r in warm] == specs


class TestCampaignPool:
    def test_worker_failure_propagates_not_hangs(self):
        campaign = Campaign(jobs=2, cache=None)
        with pytest.raises(CampaignError, match="unknown workload"):
            campaign.run([TINY, RunSpec(design=Design.ATOM_OPT,
                                        workload="no-such-workload")])

    def test_inline_failure_propagates_too(self):
        campaign = Campaign(jobs=1, cache=None)
        with pytest.raises(CampaignError):
            campaign.run([RunSpec(design=Design.ATOM_OPT,
                                  workload="no-such-workload")])

    def test_pool_matches_serial_on_one_experiment(self):
        """Acceptance: --jobs N produces the serial path's exact values."""
        serial = run_experiment("fig8", scale=0.2,
                                campaign=Campaign(jobs=1, cache=None))
        parallel = run_experiment("fig8", scale=0.2,
                                  campaign=Campaign(jobs=4, cache=None))
        assert serial.measured == parallel.measured
        assert serial.rows == parallel.rows

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Campaign(jobs=-1)
        with pytest.raises(ValueError):
            Campaign(seeds=0)

    def test_pool_persists_across_batches(self):
        """The tentpole contract: one fork, reused for every batch —
        the same worker processes serve consecutive campaign batches."""
        campaign = Campaign(jobs=2, cache=None)
        try:
            campaign.run([TINY, TINY.with_seed(101)])
            pids_first = sorted(p.pid for p in campaign._pool._procs)
            campaign.run([TINY.with_seed(102), TINY.with_seed(103)])
            pids_second = sorted(p.pid for p in campaign._pool._procs)
            assert pids_first == pids_second
            assert all(p.is_alive() for p in campaign._pool._procs)
        finally:
            campaign.close()

    def test_pool_results_preserve_submission_order(self):
        campaign = Campaign(jobs=2, cache=None)
        try:
            seeds = [201, 202, 203, 204, 205]
            results = campaign.run([TINY.with_seed(s) for s in seeds])
            assert [r.spec.seed for r in results] == seeds
        finally:
            campaign.close()

    def test_close_is_idempotent_and_pool_rebuilds(self):
        campaign = Campaign(jobs=2, cache=None)
        campaign.run([TINY, TINY.with_seed(301)])
        campaign.close()
        campaign.close()
        # A batch after close transparently forks a fresh pool.
        results = campaign.run([TINY.with_seed(302), TINY.with_seed(303)])
        assert len(results) == 2
        campaign.close()


def _routing_batch(kind: str):
    """``(module, executor name, Campaign method, points)`` of one kind."""
    from repro.faults import sweep
    from repro.faults.models import ControllerLoss
    from repro.harness import campaign
    from repro.litmus import explorer
    from repro.litmus.catalog import CATALOG

    if kind == "run":
        return campaign, "run_spec", "run", [TINY, TINY.with_seed(5)]
    if kind == "crash":
        return campaign, "execute_crash_point", "run_crash", crash_grid(
            designs=[Design.ATOM_OPT], workloads=["hash"],
            crash_cycles=[6_000, 10_000])
    if kind == "litmus":
        return explorer, "execute_litmus_point", "run_litmus", [
            explorer.LitmusPoint(test=CATALOG[0].to_dict(),
                                 design=Design.ATOM, crash_cycle=cycle)
            for cycle in (None, 100)
        ]
    return sweep, "execute_fault_point", "run_faults", sweep.fault_grid(
        designs=[Design.ATOM_OPT], workloads=["hash"],
        models=[ControllerLoss()], crash_cycles=[6_000, 10_000])


class TestExecutorRouting:
    """Each entry point looks its executor up in its module when called.

    A counting wrapper patched over the module attribute, as the
    benchmark's point log patches it, must see every point of a batch;
    an executor bound when the campaign module is imported would not.
    """

    @pytest.mark.parametrize("kind", ["run", "crash", "litmus", "fault"])
    def test_every_point_goes_through_the_patched_executor(
            self, kind, monkeypatch):
        module, name, method, points = _routing_batch(kind)
        executor = getattr(module, name)
        seen = []

        def counting(spec, *args, **kwargs):
            seen.append(spec)
            return executor(spec, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        with Campaign(jobs=1, cache=None) as campaign:
            outcomes = getattr(campaign, method)(points)
        assert len(outcomes) == len(points)
        assert seen == points


class TestPoolLifecycle:
    """Edge cases of the supervised pool's own lifecycle."""

    def test_double_close_is_safe(self):
        # close() is atexit-registered, so an explicit close followed by
        # the interpreter-exit close must be a no-op, not an error.
        pool = WorkerPool(2)
        pool.map([TINY], run_spec, kind="run")
        pool.close()
        pool.close()
        assert len(pool) == 0

    def test_close_with_tasks_still_queued_returns_promptly(self):
        pool = WorkerPool(1)
        frame = pickle.dumps((0, 0, run_spec, TINY),
                             protocol=pickle.HIGHEST_PROTOCOL)
        procs = pool._procs
        pool._workers[0].conn.send_bytes(frame)
        start = time.monotonic()
        pool.close()  # must not wait for the in-flight task's reply
        assert time.monotonic() - start < 10.0
        for proc in procs:
            assert not proc.is_alive()

    def test_map_after_close_raises(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(CampaignError, match="already closed"):
            pool.map([TINY], run_spec, kind="run")

    def test_shutdown_sentinel_exits_workers_cleanly(self):
        pool = WorkerPool(2)
        procs = pool._procs
        pool.close()
        assert all(proc.exitcode == 0 for proc in procs)


class TestSeeds:
    def test_seed_replicas_run_at_consecutive_seeds(self, cache):
        campaign = Campaign(jobs=1, seeds=3, cache=cache)
        result = campaign.run_one(TINY)
        expected = [run_spec(replace(TINY, seed=TINY.seed + k)).throughput
                    for k in range(3)]
        assert result.stats["campaign"]["throughputs"] == expected

    def test_seeds_aggregation_annotates_stats(self, cache):
        campaign = Campaign(jobs=1, seeds=2, cache=cache)
        result = campaign.run_one(TINY)
        assert result.stats["campaign"]["seeds"] == 2
        assert len(result.stats["campaign"]["throughputs"]) == 2

    def test_aggregate_single_result_is_identity(self):
        result = run_spec(TINY)
        assert aggregate_results([result]) is result


class TestCrashSweep:
    def test_grid_enumerates_full_product(self):
        specs = crash_grid(designs=[Design.ATOM], workloads=["hash", "sps"],
                           crash_cycles=[1000, 2000], seeds=[1, 2, 3])
        assert len(specs) == 1 * 2 * 2 * 3
        # The crash cycle varies fastest, so each run's points are
        # adjacent and share its simulated prefix.
        assert [(s.workload, s.seed, s.crash_cycle) for s in specs[:4]] == [
            ("hash", 1, 1000), ("hash", 1, 2000),
            ("hash", 2, 1000), ("hash", 2, 2000),
        ]

    def test_small_sweep_all_points_consistent(self, cache):
        campaign = Campaign(jobs=1, cache=cache)
        specs = crash_grid(
            designs=[Design.ATOM_OPT, Design.REDO],
            workloads=["hash"],
            crash_cycles=[6_000, 14_000],
        )
        sweep = crash_sweep(campaign, specs)
        assert sweep.failures == []
        assert len(sweep.outcomes) == 4
        assert "0 failures" in sweep.render()

    def test_sweep_outcomes_cache(self, cache):
        campaign = Campaign(jobs=1, cache=cache)
        specs = [CrashSpec(design=Design.ATOM_OPT, workload="hash",
                           crash_cycle=cycle) for cycle in (8_000, 12_000)]
        cold = campaign.run_crash(specs)
        computed = campaign.computed
        again = campaign.run_crash(specs)
        assert campaign.computed == computed
        assert all(o.ok for o in again)
        # A cache hit decodes to the cold outcome, around the submitted
        # spec itself.
        assert again == cold
        assert all(o.spec is spec for o, spec in zip(again, specs))

    def test_crash_cycle_beyond_completion_rolls_back_nothing(self):
        campaign = Campaign(jobs=1, cache=None)
        outcome = campaign.run_crash([
            CrashSpec(design=Design.ATOM_OPT, workload="hash",
                      crash_cycle=25_000_000)
        ])[0]
        assert outcome.ok
        assert outcome.commits == 4 * 8
        assert outcome.updates_rolled_back == 0
