"""Fault-injection subsystem: models, injector, recovery analytics.

The headline assertions mirror the subsystem's contract:

* partial failures that only *remove* durable state (single-controller
  loss, torn log writes) still pass the golden-model differential check;
* failures that destroy information recovery needs (ADR truncation,
  log-region corruption) are *detected* by checksum validation, never
  silently acted on — including across the crash-during-recovery path;
* the torn-write model is provably non-vacuous: a torn header is
  rejected with ``checksum_rejected`` counted, both at the image level
  (deterministically) and end-to-end through the simulator;
* every crash/fault/litmus outcome carries a populated
  :class:`~repro.faults.analytics.RecoveryCost`.
"""

import json

import pytest

from helpers import build_system
from repro.atom import adr, recovery
from repro.atom.record import FLAG_VALID, RecordHeader
from repro.common.errors import ConfigError, RecoveryError
from repro.common.units import CACHE_LINE_BYTES
from repro.config import Design
from repro.faults.analytics import RecoveryCost
from repro.faults.models import (
    FAULT_MODELS, AdrTruncation, ControllerLoss, CorrelatedControllerLoss,
    FaultInjector, LogCorruption, TornDataWrite, TornLogWrite,
    default_fault_models, fault_from_dict,
)
from repro.faults.sweep import (
    FaultSpec, execute_fault_point, fault_grid, fault_sweep,
)
from repro.harness.cache import ResultCache
from repro.harness.campaign import Campaign, CrashSpec, execute_crash_point
from repro.harness.testbed import crash_run
from repro.mem.layout import RecordAddress


class TestFaultModelCodec:
    def test_every_model_roundtrips(self):
        for model in default_fault_models():
            clone = fault_from_dict(model.to_dict())
            assert clone == model
            assert clone.to_dict() == model.to_dict()

    def test_registry_covers_the_required_models(self):
        assert set(FAULT_MODELS) >= {
            "controller-loss", "torn-log-write", "adr-truncation",
            "log-corruption",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault model"):
            fault_from_dict({"kind": "meteor-strike"})

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError, match="bad torn-log-write"):
            fault_from_dict({"kind": "torn-log-write", "bogus": 1})

    def test_degenerate_parameters_rejected(self):
        # 0 torn bytes = a dropped write, 64 = a completed one; a 0-line
        # ADR budget is indistinguishable from "never flushed".  All
        # would mis-mark points as applied (or undetectable) — refuse.
        for payload in (
            {"kind": "torn-log-write", "prefix_bytes": 0},
            {"kind": "torn-log-write", "prefix_bytes": 64},
            {"kind": "adr-truncation", "lines": 0},
            {"kind": "log-corruption", "flip_bytes": 0},
        ):
            with pytest.raises(ConfigError):
                fault_from_dict(payload)

    def test_applicability(self):
        assert ControllerLoss().applicable(Design.REDO)
        assert ControllerLoss().applicable(Design.NON_ATOMIC)
        for model in (TornLogWrite(), AdrTruncation(), LogCorruption()):
            assert model.applicable(Design.ATOM_OPT)
            assert model.applicable(Design.BASE)
            assert not model.applicable(Design.REDO)
            assert not model.applicable(Design.NON_ATOMIC)

    def test_grid_drops_inapplicable_cells(self):
        specs = fault_grid(designs=[Design.REDO], crash_cycles=[5000])
        kinds = {s.fault["kind"] for s in specs}
        # The undo-log models (torn-log-write, adr-truncation,
        # log-corruption) drop out for REDO; the media and loss models
        # apply to every design.
        assert kinds == {"controller-loss", "correlated-loss",
                         "torn-data-write", "bit-rot"}


class TestTornSeed:
    def test_prefix_is_deterministic_and_in_range(self):
        from repro.faults.models import torn_prefix_from_seed

        for seed in range(50):
            prefix = torn_prefix_from_seed(seed)
            assert 1 <= prefix < CACHE_LINE_BYTES
            assert prefix == torn_prefix_from_seed(seed)
        # The derivation actually spreads over the range (hash(), which
        # would be salted per interpreter, is exactly what this avoids).
        assert len({torn_prefix_from_seed(s) for s in range(50)}) > 10

    def test_seeded_model_derives_prefix_bytes(self):
        from repro.faults.models import torn_prefix_from_seed

        model = TornLogWrite(prefix_seed=11)
        assert model.prefix_bytes == torn_prefix_from_seed(11)
        assert TornLogWrite(prefix_seed=11) == model

    def test_seeded_model_roundtrips_and_keys_the_cache(self):
        a = TornLogWrite(prefix_seed=1)
        b = TornLogWrite(prefix_seed=2)
        clone = fault_from_dict(a.to_dict())
        assert clone == a
        assert clone.prefix_bytes == a.prefix_bytes
        # Different seeds -> different dicts -> different cache keys,
        # even in the (possible) event the derived lengths collide.
        assert a.to_dict() != b.to_dict()

    def test_apply_torn_seed_replaces_only_torn_models(self):
        from repro.faults.cli import apply_torn_seed
        from repro.faults.models import MultiFault, torn_prefix_from_seed

        plain = ControllerLoss()
        assert apply_torn_seed(plain, 5) is plain

        torn = TornLogWrite(controller=1)
        seeded = apply_torn_seed(torn, 5)
        assert seeded.prefix_seed == 5
        assert seeded.controller == 1
        assert seeded.prefix_bytes == torn_prefix_from_seed(5)

        combo = MultiFault(models=[ControllerLoss(), TornLogWrite()])
        seeded_combo = apply_torn_seed(combo, 5)
        assert seeded_combo is not combo
        assert seeded_combo.models[0] is combo.models[0]
        assert seeded_combo.models[1].prefix_seed == 5

        torn_free = MultiFault(models=[ControllerLoss(),
                                       AdrTruncation()])
        assert apply_torn_seed(torn_free, 5) is torn_free

    def test_cli_torn_seed_without_torn_model_errors(self, capsys):
        from repro.faults.cli import main

        with pytest.raises(SystemExit):
            main(["--faults", "controller-loss", "--torn-seed", "3"])
        assert ("requires a torn-log-write or torn-data-write model"
                in capsys.readouterr().err)

    def test_cli_torn_seed_runs_and_keys_artifact(self, tmp_path, capsys):
        from repro.faults.cli import main

        out_path = tmp_path / "verdicts.json"
        rc = main([
            "--designs", "atom-opt", "--workloads", "hash",
            "--crash-grid", "6000:6000:4000",
            "--faults", "torn-log-write", "--torn-seed", "9",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_path),
        ])
        assert rc == 0
        assert out_path.exists()


def _stage_incomplete_update(system, *, start_seq=10):
    """LogM register state for one in-flight update owning bucket 0."""
    logm = system.controllers[0].logm
    logm.begin(0, 0)
    state = logm.aus[0]
    state.bucket_vec.set(0)
    state.current_bucket = 0
    state.current_record = 1
    state.update_start_seq = start_seq
    return state


class TestTornHeaderRecovery:
    """Image-level determinism: a torn header must be rejected, counted,
    and stay rejected across the double-crash (crash-during-recovery)
    path — its entries are never applied."""

    def _stage_torn_record(self, system):
        layout = system.layout
        rec = RecordAddress(0, 0, 0)
        committed = b"\xCC" * CACHE_LINE_BYTES
        system.image.persist(0x1000, committed)
        # Entry payload of the in-flight update (the would-be undo value).
        system.image.persist(layout.record_entry_addr(rec, 0),
                             b"\x0A" * CACHE_LINE_BYTES)
        # The bucket previously held a committed update's header...
        stale = RecordHeader(addresses=[0x2000], count=1, flags=FLAG_VALID,
                             owner=0, seq=0x04F00003)
        system.image.persist(layout.record_header_addr(rec), stale.encode())
        # ...and the new header's write tore at 60 bytes: new addresses,
        # count and checksum landed, the stale seq tail survived.
        fresh = RecordHeader(addresses=[0x1000], count=1, flags=FLAG_VALID,
                             owner=0, seq=10)
        system.image.persist_torn(layout.record_header_addr(rec),
                                  fresh.encode(), 60)
        _stage_incomplete_update(system, start_seq=10)
        adr.flush_on_power_failure(
            system.controllers[0].logm, system.image, system.layout
        )
        return committed

    def test_torn_header_rejected_and_counted(self, system):
        committed = self._stage_torn_record(system)
        report = recovery.recover(system.image, system.layout,
                                  system.config.log)
        assert report.cost.checksum_rejected == 1
        assert report.records_undone == 0
        # The entry payload was never applied over the data line.
        assert system.image.durable_read(0x1000, 64) == committed
        assert report.cost.lines_scanned > 0
        assert report.cost.cycles > 0

    def test_double_crash_during_recovery_converges(self, system):
        committed = self._stage_torn_record(system)
        # First recovery dies before clearing the ADR block...
        first = recovery.recover(system.image, system.layout,
                                 system.config.log, clear_adr=False)
        assert first.cost.checksum_rejected == 1
        digest = system.image.durable_digest()
        # ...the re-run must reject the torn header again, change
        # nothing, and this time complete.
        second = recovery.recover(system.image, system.layout,
                                  system.config.log, clear_adr=False)
        assert second.cost.checksum_rejected == 1
        assert second.records_undone == 0
        assert system.image.durable_digest() == digest
        assert system.image.durable_read(0x1000, 64) == committed
        final = recovery.recover(system.image, system.layout,
                                 system.config.log)
        assert final.cost.checksum_rejected == 1
        # ADR cleared: a fourth pass sees no state at all.
        quiet = recovery.recover(system.image, system.layout,
                                 system.config.log)
        assert quiet.controllers_with_state == 0

    def test_valid_reused_bucket_header_still_accepted(self, system):
        """Control: the same staging without the tear rolls back."""
        layout = system.layout
        rec = RecordAddress(0, 0, 0)
        system.image.persist(0x1000, b"\xCC" * CACHE_LINE_BYTES)
        old = b"\x0A" * CACHE_LINE_BYTES
        system.image.persist(layout.record_entry_addr(rec, 0), old)
        header = RecordHeader(addresses=[0x1000], count=1, flags=FLAG_VALID,
                              owner=0, seq=10)
        system.image.persist(layout.record_header_addr(rec), header.encode())
        _stage_incomplete_update(system, start_seq=10)
        adr.flush_on_power_failure(
            system.controllers[0].logm, system.image, system.layout
        )
        report = recovery.recover(system.image, system.layout,
                                  system.config.log)
        assert report.records_undone == 1
        assert report.cost.checksum_rejected == 0
        assert system.image.durable_read(0x1000, 64) == old


class TestAdrValidation:
    def test_truncated_flush_fails_validation(self, system):
        _stage_incomplete_update(system)
        blob = adr.flush_on_power_failure(
            system.controllers[0].logm, system.image, system.layout,
            max_lines=1,
        )
        assert len(blob) > CACHE_LINE_BYTES  # the budget actually cut it
        with pytest.raises(RecoveryError):
            adr.deserialize(system.image.durable_read(
                system.layout.adr_base(0), system.layout.adr_block_bytes
            ))

    def test_recovery_reports_invalid_adr_and_stays_idempotent(self, system):
        _stage_incomplete_update(system)
        adr.flush_on_power_failure(
            system.controllers[0].logm, system.image, system.layout,
            max_lines=1,
        )
        report = recovery.recover(system.image, system.layout,
                                  system.config.log)
        assert report.adr_invalid == 1
        assert report.cost.adr_invalid == 1
        assert report.cost.detections >= 1
        digest = system.image.durable_digest()
        again = recovery.recover(system.image, system.layout,
                                 system.config.log)
        assert again.adr_invalid == 0  # the block was cleared
        assert system.image.durable_digest() == digest

    def test_full_flush_still_roundtrips(self, system):
        state = _stage_incomplete_update(system)
        adr.flush_on_power_failure(
            system.controllers[0].logm, system.image, system.layout
        )
        images = adr.deserialize(system.image.durable_read(
            system.layout.adr_base(0), system.layout.adr_block_bytes
        ))
        assert images[0].bucket_vec.test(0)
        assert images[0].update_start_seq == state.update_start_seq


def _run_point(design, model, cycle, workload="hash"):
    return execute_fault_point(FaultSpec(
        design=design, workload=workload, fault=model.to_dict(),
        crash_cycle=cycle,
    ))


class TestFaultPoints:
    def test_controller_loss_preserves_consistency(self):
        outcome = _run_point(Design.ATOM_OPT, ControllerLoss(), 8_000)
        assert outcome.ok and outcome.applied
        assert outcome.recovery_cost["lines_scanned"] > 0
        assert outcome.recovery_cost["cycles"] > 0
        assert outcome.idempotent

    def test_controller_loss_drain_orders_inflight_before_queue(self):
        """Regression: the write already *in the device* at the cut is
        older than anything queued behind it.  Draining the queue while
        dropping the in-flight write persisted a record header whose
        entry line never landed — stale bytes from the bucket's previous
        epoch were then "undone" over live data.  These exact points
        exposed it."""
        for design, wl, cycle in ((Design.ATOM, "hash", 12_000),
                                  (Design.ATOM, "hash", 20_000),
                                  (Design.BASE, "rbtree", 4_000)):
            outcome = _run_point(design, ControllerLoss(), cycle, workload=wl)
            assert outcome.ok, f"{design.value}/{wl}@{cycle}: {outcome.error}"

    def test_controller_loss_on_redo(self):
        outcome = _run_point(Design.REDO, ControllerLoss(), 8_000)
        assert outcome.ok
        assert outcome.recovery_cost["cycles"] >= 0

    def test_torn_write_detected_end_to_end(self):
        """Non-vacuity: some injection point tears a *header* in flight
        and recovery provably rejects it (checksum detection > 0) while
        the differential check still passes."""
        detected = None
        for cycle in range(4_000, 17_000, 2_000):
            outcome = _run_point(Design.ATOM_OPT, TornLogWrite(), cycle)
            assert outcome.ok, outcome.error
            if outcome.detections:
                detected = outcome
                break
        assert detected is not None, "no injection point tore a header"
        assert "header" in detected.detail
        assert detected.recovery_cost["checksum_rejected"] >= 1

    def test_adr_truncation_detected(self):
        outcome = _run_point(Design.ATOM_OPT, AdrTruncation(), 8_000)
        assert outcome.ok, outcome.error
        assert outcome.applied
        assert outcome.detections >= 1
        assert outcome.recovery_cost["adr_invalid"] >= 1

    def test_log_corruption_detected(self):
        found = None
        for cycle in (8_000, 12_000, 16_000):
            outcome = _run_point(Design.ATOM_OPT, LogCorruption(), cycle)
            assert outcome.ok, outcome.error
            if outcome.applied:
                found = outcome
                break
        assert found is not None, "no durable header to corrupt"
        assert found.detections >= 1
        assert found.idempotent

    def test_inapplicable_point_is_a_clean_noop(self):
        outcome = _run_point(Design.REDO, TornLogWrite(), 8_000)
        assert outcome.ok and not outcome.applied
        assert "inapplicable" in outcome.detail


#: Models naming a controller the 2-controller test machine lacks, with
#: the controller each one names.
OUT_OF_RANGE = [
    (ControllerLoss(controller=5), 5),
    (AdrTruncation(controller=5), 5),
    (TornLogWrite(controller=5), 5),
    (TornDataWrite(controller=5), 5),
    (CorrelatedControllerLoss(controllers=[1, 7]), 7),
    (LogCorruption(controller=5), 5),
]


class TestControllerBounds:
    """A model naming a controller the machine lacks is a config error,
    on the shared-run path and the destructive one alike — not a point
    that passes, passes vacuously, loses fewer controllers or dies with
    a memory error."""

    @pytest.mark.parametrize("model,controller", OUT_OF_RANGE,
                             ids=[model.kind for model, _ in OUT_OF_RANGE])
    def test_out_of_range_controller_is_rejected(self, model, controller):
        message = (f"'{model.kind}' names controller {controller}, but "
                   f"the machine has 2 memory controller")
        with pytest.raises(ConfigError, match=message):
            _run_point(Design.ATOM_OPT, model, 8_000)
        with pytest.raises(ConfigError, match=message):
            crash_run("hash", Design.ATOM_OPT, 8_000,
                      injector=FaultInjector(model), verify=False)

    def test_cut_of_an_untapped_machine_is_rejected(self):
        system = build_system(design=Design.ATOM_OPT)
        with pytest.raises(ConfigError, match="built with fault taps"):
            system.power_cut(FaultInjector(ControllerLoss()))


class TestRecoveryCostEverywhere:
    def test_crash_run_report_carries_cost(self):
        _, _, report = crash_run("hash", Design.ATOM_OPT, 8_000)
        assert isinstance(report.cost, RecoveryCost)
        assert report.cost.lines_scanned > 0
        assert report.cost.cycles > 0
        assert len(report.cost.per_controller) == 2  # scaled-down machine

    def test_crash_outcome_carries_cost(self):
        outcome = execute_crash_point(CrashSpec(
            design=Design.ATOM, workload="hash", crash_cycle=8_000,
        ))
        assert outcome.ok
        assert outcome.recovery_cost["lines_scanned"] > 0
        assert outcome.recovery_cost["cycles"] > 0

    def test_redo_crash_outcome_carries_cost(self):
        outcome = execute_crash_point(CrashSpec(
            design=Design.REDO, workload="hash", crash_cycle=8_000,
        ))
        assert outcome.ok
        assert "records_applied" in outcome.recovery_cost

    def test_litmus_outcome_carries_cost(self):
        from repro.litmus.explorer import LitmusPoint, execute_litmus_point
        from repro.litmus.spec import LitmusSpec, begin, commit, store

        spec = LitmusSpec(
            name="tiny-cost", description="",
            vars={"A": 0, "B": 1},
            cores=[[begin(), store("A", 1), store("B", 1), commit()]],
            forbidden=["A != B"],
        )
        out = execute_litmus_point(LitmusPoint(
            test=spec.to_dict(), design=Design.ATOM_OPT, crash_cycle=600,
        ))
        assert not out.error
        assert out.recovery_cost["lines_scanned"] > 0

    def test_cost_serialization_roundtrip(self):
        cost = RecoveryCost(lines_scanned=7, records_undone=2,
                            entries_undone=5, checksum_rejected=1,
                            cycles=1234, per_controller=[{"controller": 0}])
        assert RecoveryCost.from_dict(cost.to_dict()) == cost


class TestFaultSweepCampaign:
    def _small_grid(self):
        return fault_grid(
            designs=[Design.ATOM_OPT],
            workloads=["hash"],
            crash_cycles=[6_000, 10_000],
        )

    def test_sweep_runs_and_caches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign(jobs=1, cache=cache)
        specs = self._small_grid()
        sweep = fault_sweep(campaign, specs)
        assert len(sweep.outcomes) == len(specs)
        assert not sweep.failures, sweep.render()
        computed = campaign.computed
        assert computed == len(specs)
        # Warm replay: everything served from the cache, each hit
        # decoded to the cold outcome around the submitted spec itself.
        again = Campaign(jobs=1, cache=ResultCache(tmp_path / "cache"))
        sweep2 = fault_sweep(again, specs)
        assert again.computed == 0
        assert sweep2.outcomes == sweep.outcomes
        assert all(o.spec is spec for o, spec in zip(sweep2.outcomes, specs))

    def test_render_and_json_shape(self, tmp_path):
        campaign = Campaign(jobs=1, cache=ResultCache(tmp_path / "c"))
        sweep = fault_sweep(campaign, self._small_grid())
        text = sweep.render()
        assert "Faults:" in text and "verdict" in text
        payload = sweep.to_json()
        from repro.faults.models import FAULT_MODELS

        assert payload["summary"]["cells"] == len(FAULT_MODELS)
        for cell in payload["cells"]:
            assert cell["status"] in ("ok", "detected", "contained",
                                      "silent", "vacuous", "FAIL")
            assert "recovery_cost" in cell
            assert cell["recovery_cost"]["lines_scanned"] >= 0


class TestLitmusFaultAxis:
    def test_fault_axis_adds_cells_and_passes(self, tmp_path):
        from repro.litmus.explorer import explore
        from repro.litmus.spec import LitmusSpec, begin, commit, store

        spec = LitmusSpec(
            name="tiny-fault-axis", description="",
            vars={"A": 0, "B": 1},
            cores=[[begin(), store("A", 1), store("B", 1), commit()]],
            forbidden=["A != B"],
        )
        campaign = Campaign(jobs=1, cache=ResultCache(tmp_path / "c"))
        report = explore(campaign, tests=[spec], designs=[Design.ATOM_OPT],
                         points=2, faults=[ControllerLoss()])
        faults_seen = {c.fault for c in report.cells}
        assert faults_seen == {"power-loss", "controller-loss"}
        assert not report.failures, report.render()
        assert "controller-loss" in report.render()
        assert {c["fault"] for c in report.to_json()["cells"]} == faults_seen

    def test_detection_only_models_rejected(self):
        from repro.litmus.explorer import explore

        with pytest.raises(ConfigError, match="detection-only"):
            explore(Campaign(jobs=1), designs=[Design.ATOM_OPT],
                    faults=[AdrTruncation()])


class TestCli:
    def test_faults_list(self, capsys):
        from repro.faults.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for kind in FAULT_MODELS:
            assert kind in out

    def test_faults_run_writes_artifact(self, tmp_path, capsys):
        from repro.faults.cli import main

        out_path = tmp_path / "verdicts.json"
        rc = main([
            "--designs", "atom-opt", "--workloads", "hash",
            "--crash-grid", "6000:10000:4000",
            "--only", "controller",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_path),
        ])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["failures"] == 0
        assert payload["cells"][0]["fault"] == "controller-loss"

    def test_faults_artifact_carries_recovery_figure(self, tmp_path):
        from repro.faults.cli import main

        out_path = tmp_path / "verdicts.json"
        rc = main([
            "--designs", "atom-opt", "--workloads", "hash",
            "--crash-grid", "6000:10000:4000",
            "--only", "controller",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_path),
        ])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "faults"
        figure = payload["recovery_figure"]
        assert list(figure) == ["atom-opt"]
        assert [s["crash_cycle"] for s in figure["atom-opt"]["series"]] \
            == [6000, 10000]

    def test_trace_point_selects_a_matrix_point(self, tmp_path, capsys):
        from repro.faults.cli import main
        from repro.obs.trace import validate_chrome_trace

        trace_path = tmp_path / "fault_trace.json"
        rc = main([
            "--designs", "atom-opt", "--workloads", "hash",
            "--crash-grid", "6000:10000:4000",
            "--only", "controller", "--no-cache",
            "--out", str(tmp_path / "verdicts.json"),
            "--trace", str(trace_path), "--trace-point", "1",
        ])
        assert rc == 0
        assert "fault point 1" in capsys.readouterr().err
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload["traceEvents"]) == []

    def test_trace_point_requires_trace(self):
        from repro.faults.cli import main

        with pytest.raises(SystemExit):
            main(["--trace-point", "1",
                  "--designs", "atom-opt", "--workloads", "hash",
                  "--only", "controller", "--no-cache"])

    def test_trace_point_out_of_range_errors(self, tmp_path):
        from repro.faults.cli import main

        with pytest.raises(SystemExit):
            main(["--designs", "atom-opt", "--workloads", "hash",
                  "--crash-grid", "6000:10000:4000",
                  "--only", "controller", "--no-cache",
                  "--trace", str(tmp_path / "t.json"),
                  "--trace-point", "99"])

    def test_faults_unknown_model_errors(self):
        from repro.faults.cli import main

        with pytest.raises(SystemExit):
            main(["--faults", "meteor-strike"])

    def test_select_only_filter(self):
        from repro.harness.report import select_only

        names = ["torn-log-write", "controller-loss", "log-corruption"]
        assert select_only(names, "torn") == ["torn-log-write"]
        assert select_only(names, "LOG") == ["torn-log-write",
                                             "log-corruption"]
        # Exact name wins even when it is a substring of another.
        assert select_only(["a", "ab"], "a") == ["a"]
        assert select_only(names, "zzz") == []

    def test_harness_listing_names_faults(self, capsys):
        from repro.harness.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "faults" in out and "torn-log-write" in out

    def test_perf_missing_baseline_fails_fast(self, capsys):
        from repro.harness.perf import main

        rc = main(["--baseline", "/nonexistent/baseline.json"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot read baseline" in err

    def test_perf_corrupt_baseline_fails_fast(self, tmp_path, capsys):
        from repro.harness.perf import main

        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        assert main(["--baseline", str(bad)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_perf_wrong_shape_baseline_fails_fast(self, tmp_path, capsys):
        from repro.harness.perf import main

        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"schema": 1}))
        assert main(["--baseline", str(bad)]) == 2
        assert "missing aggregate" in capsys.readouterr().err

    def test_litmus_only_filter_unknown_errors(self):
        from repro.litmus.cli import main

        with pytest.raises(SystemExit):
            main(["--only", "zzz-no-such-test", "--points", "1"])


class TestMultiFault:
    """Composite ``a+b`` models: codec, contracts, end-to-end injection."""

    def test_plus_kind_builds_and_roundtrips(self):
        from repro.faults.models import MultiFault

        model = fault_from_dict({"kind": "controller-loss+torn-log-write"})
        assert isinstance(model, MultiFault)
        assert model.kind == "controller-loss+torn-log-write"
        assert [m.kind for m in model.models] == ["controller-loss",
                                                  "torn-log-write"]
        clone = fault_from_dict(model.to_dict())
        assert clone.to_dict() == model.to_dict()

    def test_member_parameters_survive_the_roundtrip(self):
        from repro.faults.models import MultiFault

        model = MultiFault(models=[ControllerLoss(controller=1),
                                   TornLogWrite(prefix_bytes=17)])
        clone = fault_from_dict(model.to_dict())
        assert clone.models[0].controller == 1
        assert clone.models[1].prefix_bytes == 17

    def test_contract_axes_aggregate_over_members(self):
        from repro.faults.models import MultiFault

        consistent = MultiFault(models=[ControllerLoss(), TornLogWrite()])
        assert consistent.preserves_consistency
        assert not consistent.expects_detection
        detecting = MultiFault(models=[ControllerLoss(), AdrTruncation()])
        assert not detecting.preserves_consistency
        assert detecting.expects_detection

    def test_applicable_only_where_every_member_applies(self):
        from repro.faults.models import MultiFault

        model = MultiFault(models=[ControllerLoss(), TornLogWrite()])
        assert model.applicable(Design.ATOM_OPT)
        assert not model.applicable(Design.REDO)  # torn needs undo logs

    def test_malformed_composites_rejected(self):
        from repro.faults.models import MultiFault

        with pytest.raises(ConfigError, match="at least two"):
            fault_from_dict({"kind": "controller-loss+"})
        with pytest.raises(ConfigError, match="duplicate member"):
            fault_from_dict({"kind": "controller-loss+controller-loss"})
        with pytest.raises(ConfigError, match="cannot themselves"):
            MultiFault(models=[
                ControllerLoss(),
                MultiFault(models=[TornLogWrite(), AdrTruncation()]),
            ])
        with pytest.raises(ConfigError, match="no flat parameters"):
            fault_from_dict({"kind": "controller-loss+torn-log-write",
                             "controller": 1})

    def test_injector_flattens_members_onto_the_hooks(self):
        from repro.faults.models import MultiFault

        injector = FaultInjector(MultiFault(models=[
            ControllerLoss(controller=1), AdrTruncation(controller=0),
        ]))
        assert not injector.controller_survives(1)
        assert injector.controller_survives(0)
        assert injector.wants_drain()
        assert injector.adr_budget_lines(0) == 1
        assert injector.adr_budget_lines(1) is None

    def test_detail_accumulates_one_clause_per_member(self):
        injector = FaultInjector(ControllerLoss())
        injector._mark("first thing")
        injector._mark("second thing")
        assert injector.applied
        assert injector.detail == "first thing; second thing"

    def test_composite_end_to_end_applies_both_members(self):
        # A cycle where the *lost* controller has a log write in flight:
        # survivors drain cleanly, so their FIFOs are stale and exempt
        # from tearing — only the lost controller's wires can tear.
        out = execute_fault_point(FaultSpec(
            design=Design.ATOM, workload="queue",
            fault={"kind": "controller-loss+torn-log-write"},
            crash_cycle=5_000,
        ))
        assert out.ok, out.detail
        assert out.applied
        # Both members left their clause in the detail.
        assert "controller 0" in out.detail and "tore" in out.detail

    def test_cli_rejects_explicitly_requested_inapplicable_models(
            self, capsys):
        from repro.faults.cli import main

        with pytest.raises(SystemExit):
            main(["--faults", "torn-log-write", "--designs", "non-atomic"])
        assert "applies to none" in capsys.readouterr().err

    def test_cli_warns_and_drops_from_the_default_set(self, tmp_path,
                                                      capsys):
        from repro.faults.cli import main

        rc = main(["--designs", "redo", "--workloads", "hash",
                   "--crash-grid", "6000:10000:4000", "--no-cache",
                   "--out", str(tmp_path / "v.json")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "dropping from the model set" in captured.err
        assert "controller-loss" in captured.out


class TestDrainSemantics:
    def test_surviving_drain_persists_queued_writes(self):
        """A controller-loss crash leaves survivors' queues empty and
        their queued writes durable."""
        system = build_system(design=Design.ATOM_OPT)
        injector = FaultInjector(ControllerLoss(controller=0))
        injector.install(system)
        from repro.workloads import make_workload

        workload = make_workload("hash", system, txns_per_thread=8,
                                 initial_items=12, threads=4, seed=7)
        workload.setup()
        system.start_threads(workload.threads())
        system.crash_at(8_000)
        system.run(max_cycles=30_000_000)
        if not system.crashed:
            system.crash()
        for mc in system.controllers:
            for ch in mc.channels:
                assert ch.pending_writes() == 0
        system.recover()
        workload.verify_durable()
