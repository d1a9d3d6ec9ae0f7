"""Litmus subsystem: DSL, compiler, explorer, and detection power.

The headline assertions mirror the subsystem's contract: forbidden
outcomes are unreachable across the crash grid on every design with a
recovery story, and the checker provably *can* see violations — the
unlogged baseline reaches a forbidden state on the widest-window
catalog test, and a spec that wrongly expects correctness of that
baseline FAILs.
"""

import pytest

from repro.common.errors import WorkloadError
from repro.config import Design
from repro.harness.campaign import Campaign
from repro.litmus import (CATALOG, LitmusError, LitmusSpec, begin, br_ne,
                          catalog_by_name, commit, compile_condition, compute,
                          explore, fill, loadr, store)
from repro.litmus.explorer import (LitmusPoint, crash_cycles_for,
                                   execute_litmus_point)
from repro.litmus.spec import flush, load, lock, unlock


def tiny_spec(**overrides) -> LitmusSpec:
    base = dict(
        name="tiny",
        description="two-store atomicity",
        vars={"A": 0, "B": 1},
        cores=[[begin(), store("A", 1), store("B", 1), commit()]],
        forbidden=["A != B"],
    )
    base.update(overrides)
    return LitmusSpec(**base)


class TestConditionCompiler:
    def test_basic_comparisons(self):
        fn = compile_condition("A == 1 and B != 2", ["A", "B"])
        assert fn({"A": 1, "B": 0})
        assert not fn({"A": 0, "B": 0})

    def test_membership_and_arithmetic(self):
        fn = compile_condition("(A + B) not in (0, 2)", ["A", "B"])
        assert fn({"A": 1, "B": 0})
        assert not fn({"A": 1, "B": 1})

    @pytest.mark.parametrize("expr", [
        "__import__('os')",
        "A.__class__",
        "(lambda: 1)()",
        "A[0]",
        "open('x')",
        "'s' == A",
    ])
    def test_rejects_dangerous_constructs(self, expr):
        with pytest.raises(LitmusError):
            compile_condition(expr, ["A"])

    def test_rejects_unknown_variable(self):
        with pytest.raises(LitmusError, match="unknown variable"):
            compile_condition("C == 1", ["A", "B"])

    def test_rejects_syntax_error(self):
        with pytest.raises(LitmusError, match="bad condition"):
            compile_condition("A ==", ["A"])


class TestConditionMemo:
    """``compile_condition`` is memoised per process: repeats share one
    compiled function, while errors and variable sets behave exactly as
    without the memo, and the memo stays bounded."""

    def test_repeat_compiles_share_one_function(self):
        first = compile_condition("A == 7 and B == 0", ["A", "B"])
        # The key is the variable *set*: order and container don't matter.
        assert compile_condition("A == 7 and B == 0", ("B", "A")) is first
        assert first({"A": 7, "B": 0}) and not first({"A": 7, "B": 1})

    @pytest.mark.parametrize("expr,match", [
        ("A ==", "bad condition"),
        ("A.__class__", "not allowed"),
        ("C == 1", "unknown variable"),
    ])
    def test_rejected_condition_raises_on_every_call(self, expr, match):
        from repro.litmus.spec import _compile_condition

        misses = _compile_condition.cache_info().misses
        for _ in range(3):
            with pytest.raises(LitmusError, match=match):
                compile_condition(expr, ["A", "B"])
        # Every call compiled afresh: errors never enter the memo.
        assert _compile_condition.cache_info().misses == misses + 3

    def test_variable_set_is_part_of_the_key(self):
        # Both orders: a cached success must not mask the error for a
        # set lacking the name, and a raised error must not poison the
        # set that has it.
        assert compile_condition("C == 1", ["A", "C"])({"A": 0, "C": 1})
        with pytest.raises(LitmusError, match="unknown variable 'C'"):
            compile_condition("C == 1", ["A", "B"])
        with pytest.raises(LitmusError, match="unknown variable 'D'"):
            compile_condition("D == 2", ["A", "B"])
        assert compile_condition("D == 2", ["A", "D"])({"A": 0, "D": 2})

    def test_memo_has_a_fixed_bound(self):
        from repro.litmus.spec import CONDITION_CACHE_SIZE, _compile_condition

        assert _compile_condition.cache_info().maxsize == CONDITION_CACHE_SIZE
        # A long-lived worker compiling ever-new expressions (litmus gen
        # batches) stays at the bound.
        for i in range(CONDITION_CACHE_SIZE + 8):
            compile_condition(f"A == {i}", ["A"])
        assert _compile_condition.cache_info().currsize == CONDITION_CACHE_SIZE


class TestSpecValidation:
    def test_valid_spec_roundtrips(self):
        spec = tiny_spec().validate()
        clone = LitmusSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()

    def test_catalog_is_valid_and_unique(self):
        names = [spec.validate().name for spec in CATALOG]
        assert len(names) == len(set(names))
        assert len(names) >= 12

    def test_unbalanced_region_rejected(self):
        with pytest.raises(LitmusError, match="unclosed"):
            tiny_spec(cores=[[begin(), store("A", 1)]]).validate()

    def test_commit_without_begin_rejected(self):
        with pytest.raises(LitmusError, match="commit without begin"):
            tiny_spec(cores=[[commit()]]).validate()

    def test_unknown_var_rejected(self):
        with pytest.raises(LitmusError, match="unknown var"):
            tiny_spec(cores=[[begin(), store("Z", 1), commit()]]).validate()

    def test_shared_line_rejected(self):
        with pytest.raises(LitmusError, match="share a line"):
            tiny_spec(vars={"A": 0, "B": 0}).validate()

    def test_needs_postcondition(self):
        with pytest.raises(LitmusError, match="postcondition"):
            tiny_spec(forbidden=[], allowed=[]).validate()

    def test_txn_writes_extraction(self):
        spec = LitmusSpec(
            name="w", description="", vars={"A": 0, "B": 1},
            cores=[[begin(), store("A", 1), commit(),
                    begin(), fill("A", 7, 2), commit()]],
            forbidden=["A != B"],
        ).validate()
        writes = spec.txn_writes()
        assert writes[0][0] == [("A", 1)]
        # fill covers both placed lines.
        assert sorted(writes[0][1]) == [("A", 7), ("B", 7)]

    def test_span_includes_fill_tail(self):
        spec = LitmusSpec(
            name="s", description="", vars={"A": 3},
            cores=[[begin(), fill("A", 1, 4), commit()]],
            forbidden=["A == 2"],
        ).validate()
        assert spec.span_lines == 7

    def test_nested_begin_rejected(self):
        # Regression: begin/begin used to validate, then txn_writes
        # silently dropped the outer region's writes.
        with pytest.raises(LitmusError, match="nested atomic region"):
            tiny_spec(cores=[[begin(), store("A", 1),
                              begin(), store("B", 1),
                              commit(), commit()]]).validate()


class TestConditionalOps:
    """loadr/br_ne: validation, static txn_writes resolution, execution."""

    def cond_spec(self, cmp_value: int, **overrides) -> LitmusSpec:
        base = dict(
            name="cond", description="",
            vars={"A": 0, "B": 1},
            cores=[[begin(), store("A", 1), commit(),
                    loadr("A", "r0"), br_ne("r0", cmp_value, 3),
                    begin(), store("B", 1), commit()]],
            forbidden=["B == 1 and A == 0"],
            allowed=["A == 0 and B == 0", "A == 1 and B == 0",
                     "A == 1 and B == 1"],
        )
        base.update(overrides)
        return LitmusSpec(**base)

    def test_branch_on_undefined_register_rejected(self):
        with pytest.raises(LitmusError, match="before any loadr"):
            tiny_spec(cores=[[br_ne("r0", 1, 1), begin(), store("A", 1),
                              commit()]]).validate()

    def test_skip_past_program_end_rejected(self):
        with pytest.raises(LitmusError, match="past the end"):
            tiny_spec(cores=[[loadr("A", "r0"), br_ne("r0", 1, 9),
                              begin(), store("A", 1), commit()]]).validate()

    def test_unbalanced_skip_range_rejected(self):
        # Skipping the begin but not the commit would leave the region
        # machinery unbalanced on the not-taken path.
        with pytest.raises(LitmusError, match="balanced"):
            tiny_spec(cores=[[loadr("A", "r0"), br_ne("r0", 1, 2),
                              begin(), store("A", 1), commit()]]).validate()

    def test_txn_writes_resolves_taken_and_skipped_branches(self):
        taken = self.cond_spec(1).validate().txn_writes()
        assert taken[0] == [[("A", 1)], [("B", 1)]]
        skipped = self.cond_spec(42).validate().txn_writes()
        assert skipped[0] == [[("A", 1)]]

    def test_txn_writes_rejects_cross_core_guard(self):
        spec = LitmusSpec(
            name="xcore", description="",
            vars={"F": 0, "O": 1},
            cores=[[begin(), store("F", 1), commit()],
                   [loadr("F", "r0"), br_ne("r0", 1, 3),
                    begin(), store("O", 1), commit()]],
            forbidden=["O == 2"],
        ).validate()
        with pytest.raises(LitmusError, match="other cores write"):
            spec.txn_writes()

    def test_conditional_executes_taken_arm_only(self):
        cat = catalog_by_name()
        out = execute_litmus_point(LitmusPoint(
            test=cat["conditional-local-skip"].to_dict(),
            design=Design.ATOM_OPT, crash_cycle=None,
        ))
        assert out.error == ""
        # The A == 1 guard takes the B arm and skips the C arm.
        assert out.state == {"A": 1, "B": 1, "C": 0}
        assert out.commits == 2


class TestLitmusWorkload:
    def test_completion_state_matches_golden(self):
        from repro.harness.testbed import build_litmus_system

        spec = tiny_spec(init={"A": 5}).validate()
        system, workload = build_litmus_system(Design.ATOM_OPT, spec)
        workload.setup()
        system.start_threads(workload.threads())
        system.run(max_cycles=1_000_000)
        system.crash()
        system.recover()
        assert workload.commits == 1
        assert workload.durable_state() == {"A": 1, "B": 1}
        workload.verify_durable()

    def test_all_ops_compile_and_run(self):
        from repro.harness.testbed import build_litmus_system

        spec = LitmusSpec(
            name="ops", description="every opcode",
            vars={"A": 0, "B": 1},
            cores=[[store("A", 3), flush("A"), compute(40),
                    lock(2), begin(), load("A"), fill("B", 4, 1),
                    commit(), unlock(2)]],
            forbidden=["B not in (0, 4)"],
        ).validate()
        system, workload = build_litmus_system(Design.ATOM, spec)
        workload.setup()
        system.start_threads(workload.threads())
        system.run(max_cycles=1_000_000)
        system.crash()
        system.recover()
        state = workload.durable_state()
        assert state == {"A": 3, "B": 4}
        assert workload.plain_written == {"A"}
        workload.verify_durable()  # skips the plain-written A

    def test_make_workload_registry_entry(self):
        from repro.harness.testbed import build_system
        from repro.workloads import make_workload
        from repro.workloads.litmus import LitmusWorkload

        system = build_system(Design.ATOM_OPT, num_cores=2)
        workload = make_workload("litmus", system,
                                 program=tiny_spec().to_dict())
        assert type(workload) is LitmusWorkload
        assert workload.threads_count == 1

    def test_unknown_workload_error_mentions_litmus(self):
        from repro.harness.testbed import build_system
        from repro.workloads import make_workload

        system = build_system(Design.ATOM_OPT, num_cores=2)
        with pytest.raises(WorkloadError, match="litmus"):
            make_workload("no-such-workload", system)


class TestExplorerPoints:
    def test_probe_point_runs_to_completion(self):
        out = execute_litmus_point(LitmusPoint(
            test=tiny_spec().to_dict(), design=Design.ATOM_OPT,
            crash_cycle=None,
        ))
        assert out.error == ""
        assert out.commits == 1
        assert out.state == {"A": 1, "B": 1}
        assert out.finish > 0
        assert out.idempotent

    def test_early_crash_recovers_initial_state(self):
        out = execute_litmus_point(LitmusPoint(
            test=tiny_spec().to_dict(), design=Design.ATOM_OPT,
            crash_cycle=60,
        ))
        assert out.error == ""
        assert out.commits == 0
        assert out.state == {"A": 0, "B": 0}

    def test_crash_cycles_grid_is_deterministic(self):
        grid = crash_cycles_for(10_000, 10)
        assert grid == crash_cycles_for(10_000, 10)
        assert len(grid) == 10
        assert all(50 <= c < 10_000 for c in grid)
        assert crash_cycles_for(40, 10) == []

    def test_crash_cycles_cover_both_ends_of_the_run(self):
        # The last cycle holds the commit/truncation window: the grid
        # must reach it, not slice it off.
        grid = crash_cycles_for(5_000, 4)
        assert grid[0] == 50
        assert grid[-1] == 4_999
        short = crash_cycles_for(155, 100)
        assert short[0] == 50 and short[-1] == 154
        assert len(short) <= 100
        assert crash_cycles_for(51, 5) == [50]

    def test_crash_cycles_single_point_still_reaches_last_cycle(self):
        # Regression: points=1 used to collapse to [start] and never
        # sample the commit/truncation window at finish-1 the docstring
        # promises.  Both endpoints are non-negotiable.
        assert crash_cycles_for(5_000, 1) == [50, 4_999]
        for points in (1, 2, 3, 7):
            grid = crash_cycles_for(700, points)
            assert grid[0] == 50 and grid[-1] == 699, points
            assert grid == sorted(set(grid))


class TestExploration:
    """End-to-end verdicts on a trimmed (test x design) grid."""

    def test_real_designs_pass_and_baseline_detects(self):
        cat = catalog_by_name()
        tests = [cat["dirty-eviction-before-commit"], cat["atomicity-pair"]]
        report = explore(
            Campaign(jobs=1), tests=tests,
            designs=[Design.ATOM_OPT, Design.REDO, Design.NON_ATOMIC],
            points=12,
        )
        assert report.failures == []
        by_key = {(c.test, c.design): c for c in report.cells}
        for test in ("dirty-eviction-before-commit", "atomicity-pair"):
            for design in ("atom-opt", "redo"):
                cell = by_key[(test, design)]
                assert cell.status == "ok", (test, design)
                assert cell.forbidden_points == 0
        # The checker provably detects violations: the unlogged baseline
        # reaches a forbidden (partial) state through the mid-transaction
        # dirty-eviction window.
        control = by_key[("dirty-eviction-before-commit", "non-atomic")]
        assert control.status == "detected"
        assert control.forbidden_points > 0
        assert len(control.outcomes) > 2  # partial states, deduped by digest

    def test_unexpected_violation_fails_the_cell(self):
        cat = catalog_by_name()
        broken = LitmusSpec.from_dict(
            {**cat["dirty-eviction-before-commit"].to_dict(),
             "name": "eviction-no-expectation", "expect_violation": []}
        )
        report = explore(
            Campaign(jobs=1), tests=[broken],
            designs=[Design.NON_ATOMIC], points=12,
        )
        assert len(report.failures) == 1
        assert report.cells[0].status == "FAIL"
        assert "FAIL" in report.render()

    def test_unlisted_state_counts_against_exhaustive_allow_list(self):
        # Exhaustive allow-list that wrongly omits the committed state:
        # the probe point's recovered state must surface as unlisted.
        spec = tiny_spec(
            name="unlisted", forbidden=[],
            allowed=["A == 0 and B == 0"],
        )
        report = explore(
            Campaign(jobs=1), tests=[spec],
            designs=[Design.ATOM_OPT], points=2,
        )
        cell = report.cells[0]
        assert cell.unlisted_points > 0
        assert cell.status == "FAIL"

    def test_warm_batch_equals_cold_batch(self, tmp_path):
        from repro.harness.cache import ResultCache

        points = list(_codec_points().values())
        cold = Campaign(jobs=1, cache=ResultCache(tmp_path)).run_litmus(
            points)
        warm_campaign = Campaign(jobs=1, cache=ResultCache(tmp_path))
        warm = warm_campaign.run_litmus(points)
        assert warm_campaign.computed == 0
        # Each hit decodes to the cold outcome, around the submitted
        # point itself.
        assert warm == cold
        assert all(o.point is p for o, p in zip(warm, points))

    def test_json_artifact_shape(self):
        report = explore(
            Campaign(jobs=1), tests=[tiny_spec()],
            designs=[Design.ATOM_OPT], points=3,
        )
        payload = report.to_json()
        assert payload["summary"]["cells"] == 1
        cell = payload["cells"][0]
        assert cell["test"] == "tiny"
        assert cell["status"] in ("ok", "detected", "vacuous", "FAIL")
        for outcome in cell["outcomes"]:
            assert set(outcome) >= {"digest", "state", "points",
                                    "forbidden", "unlisted"}
        assert set(payload["coverage"]) >= {"flush-loop", "posted-log-drain",
                                            "backend-apply", "adr-drain"}
        assert "window_hits" in cell

    def test_inapplicable_fault_model_is_an_error_not_a_silent_drop(self):
        # Regression: a requested fault model no selected design could
        # host used to vanish from the verdict table without a trace.
        from repro.common.errors import ConfigError
        from repro.faults.models import TornLogWrite

        with pytest.raises(ConfigError, match="applies to none"):
            explore(Campaign(jobs=1), tests=[tiny_spec()],
                    designs=[Design.NON_ATOMIC], points=2,
                    faults=[TornLogWrite()])


def _codec_points() -> dict:
    from repro.faults.models import TornLogWrite

    test = tiny_spec().to_dict()
    return {
        "probe": LitmusPoint(test=test, design=Design.BASE,
                             crash_cycle=None),
        "crash": LitmusPoint(test=test, design=Design.ATOM_OPT,
                             crash_cycle=400),
        "fault": LitmusPoint(test=test, design=Design.ATOM, crash_cycle=400,
                             fault=TornLogWrite().to_dict()),
        "storm": LitmusPoint(test=test, design=Design.ATOM, crash_cycle=400,
                             storm=3),
        # An unknown log override fails the machine build: an outcome
        # carrying ``error`` and no state.
        "error": LitmusPoint(
            test=tiny_spec(log_overrides={"no_such_knob": 1}).to_dict(),
            design=Design.BASE, crash_cycle=None),
    }


def _codec_outcomes() -> dict:
    """Drift-guard input name -> thunk computing that point's outcome.

    The five litmus ``_codec_points``, three fault points (one storm on
    a multi-fault model, one media model, one model inapplicable to its
    design), a hand-built fault error outcome, a figure run and a crash
    sweep point.
    """
    from repro.faults.models import fault_from_dict
    from repro.faults.sweep import (FaultOutcome, FaultSpec,
                                    execute_fault_point)
    from repro.harness.campaign import CrashSpec, execute_crash_point
    from repro.harness.runner import RunSpec, run_spec

    def litmus(kind):
        def outcome():
            out = execute_litmus_point(_codec_points()[kind])
            assert bool(out.error) == (kind == "error")
            return out
        return outcome

    def fault(kind, design, storm):
        def outcome():
            out = execute_fault_point(FaultSpec(
                design=design, workload="hash",
                fault=fault_from_dict({"kind": kind}).to_dict(),
                crash_cycle=8_000, workload_kw={"n_buckets": 32},
                checksums=True, storm=storm,
            ))
            if design is Design.ATOM_OPT:
                assert out.recovery_cost["per_controller"]
            return out
        return outcome

    cases = {kind: litmus(kind) for kind in _codec_points()}
    cases.update({
        "fault-multi-storm": fault("correlated-loss+torn-data-write",
                                   Design.ATOM_OPT, 3),
        "fault-media": fault("torn-data-write", Design.REDO, None),
        "fault-inapplicable": fault("torn-log-write", Design.REDO, None),
        "fault-error": lambda: FaultOutcome(
            spec=FaultSpec(design=Design.BASE, workload="rbtree",
                           fault={"kind": "bit-rot", "rate": 0.5},
                           crash_cycle=1, workload_kw={"deep": {"k": [1]}}),
            ok=False, error="WorkloadError: boom", detail="d",
        ),
        "run": lambda: run_spec(RunSpec(
            design=Design.ATOM_OPT, workload="hash", num_cores=4,
            txns_per_thread=4, warmup_per_thread=1, initial_items=8,
        )),
        "crash-sweep": lambda: execute_crash_point(CrashSpec(
            design=Design.ATOM_OPT, workload="hash", crash_cycle=8_000,
        )),
    })
    return cases


class TestOutcomeCodec:
    """Drift guard for the one outcome codec, over every point kind.

    A cache payload (``encode_outcome``, bound as ``result_to_dict``)
    must serialise exactly as ``dataclasses.asdict`` with the spec's
    design by value did, key order included, so cache entries and
    artifacts stay byte-identical.  Read back from JSON and decoded
    against the submitted spec (``decode_outcome``), it must equal the
    outcome.  A spec or outcome field the codec mishandles fails here.
    """

    @pytest.mark.parametrize("kind", list(_codec_outcomes()))
    def test_payload_matches_asdict_and_roundtrips(self, kind):
        import dataclasses
        import json

        from repro.harness.cache import decode_outcome, encode_outcome

        out = _codec_outcomes()[kind]()
        spec_field = dataclasses.fields(out)[0].name
        spec = getattr(out, spec_field)
        reference = dataclasses.asdict(out)
        reference[spec_field]["design"] = spec.design.value
        payload = encode_outcome(out)
        assert json.dumps(payload) == json.dumps(reference)
        decoded = decode_outcome(type(out), json.loads(json.dumps(payload)),
                                 spec)
        assert decoded == out


class TestCrashWindowCoverage:
    def test_crash_points_record_their_window(self):
        cat = catalog_by_name()
        report = explore(
            Campaign(jobs=1), tests=[cat["atomicity-pair"]],
            designs=[Design.ATOM_OPT], points=10,
        )
        coverage = report.window_coverage
        # The two-store transaction must at least be caught mid-flush
        # or draining posted log writes somewhere on a 10-point grid.
        assert sum(coverage.values()) > 0
        assert coverage["flush-loop"] + coverage["posted-log-drain"] > 0
        assert "crash-window coverage:" in report.render()

    def test_probe_points_land_in_the_quiescent_window(self):
        out = execute_litmus_point(LitmusPoint(
            test=tiny_spec().to_dict(), design=Design.ATOM_OPT,
            crash_cycle=None,
        ))
        assert out.windows == ["quiescent"]

    def test_densify_bisects_around_transitions(self):
        cat = catalog_by_name()
        coarse = explore(
            Campaign(jobs=1), tests=[cat["atomicity-pair"]],
            designs=[Design.ATOM_OPT], points=4,
        )
        dense = explore(
            Campaign(jobs=1), tests=[cat["atomicity-pair"]],
            designs=[Design.ATOM_OPT], points=4, densify=4,
        )
        assert dense.densify_points > 0
        assert dense.points_total == coarse.points_total + dense.densify_points
        assert dense.failures == []
        # Densification refines the same cell, never invents new ones.
        assert len(dense.cells) == len(coarse.cells) == 1
        assert "bisection points" in dense.render()

    def test_densify_pinpoints_a_transition_cheaper_than_uniform(self):
        from repro.litmus.explorer import _outcome_class

        recorded = []

        class Recording(Campaign):
            def run_litmus(self, points):
                outcomes = super().run_litmus(points)
                recorded.extend(outcomes)
                return outcomes

        report = explore(
            Recording(jobs=1),
            tests=[catalog_by_name()["atomicity-pair"]],
            designs=[Design.ATOM_OPT], points=4, densify=16,
        )
        samples = sorted(
            (o.point.crash_cycle, _outcome_class(o))
            for o in recorded if o.point.crash_cycle is not None
        )
        transition_gaps = [
            later[0] - earlier[0]
            for earlier, later in zip(samples, samples[1:])
            if earlier[1] != later[1]
        ]
        # Bisection localized at least one outcome transition down to
        # adjacent cycles...
        assert transition_gaps and min(transition_gaps) == 1
        # ...with far fewer points than the uniform grid would need for
        # the same resolution (one point per cycle of the span).
        span = samples[-1][0] - samples[0][0]
        assert report.points_total < span


class TestHarnessCli:
    def test_list_flag_prints_everything(self, capsys):
        from repro.harness.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for needle in ("fig5a", "litmus", "hash", "tpcc", "atom-opt",
                       "hashtable", "dirty-eviction-before-commit"):
            assert needle in out

    def test_litmus_cli_list_tests(self, capsys):
        from repro.litmus.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "atomicity-pair" in out

    def test_litmus_cli_runs_and_writes_artifact(self, tmp_path, capsys):
        import json

        from repro.litmus.cli import main

        out_path = tmp_path / "verdicts.json"
        code = main([
            "--tests", "atomicity-pair", "--designs", "atom-opt",
            "--points", "3", "--no-cache", "--out", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["failures"] == 0
        assert "Litmus" in capsys.readouterr().out

    def test_litmus_cli_rejects_unknown_test(self):
        from repro.litmus.cli import main

        with pytest.raises(SystemExit):
            main(["--tests", "not-a-test", "--no-cache"])

    def test_litmus_cli_rejects_inapplicable_fault_model(self, capsys):
        from repro.litmus.cli import main

        with pytest.raises(SystemExit):
            main(["--faults", "torn-log-write",
                  "--designs", "non-atomic", "--no-cache"])
        assert "applies to none" in capsys.readouterr().err

    def test_litmus_gen_cli_list(self, capsys):
        from repro.litmus.cli import main

        assert main(["gen", "--list", "--count", "3", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "gen-s9-000" in out and "gen-s9-002" in out

    def test_litmus_gen_cli_runs_and_writes_coverage(self, tmp_path,
                                                     capsys):
        import json

        from repro.litmus.cli import main

        out_path = tmp_path / "gen.json"
        code = main(["gen", "--count", "2", "--seed", "3",
                     "--points", "3", "--designs", "atom-opt,non-atomic",
                     "--no-cache", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["failures"] == 0
        assert set(payload["coverage"]) >= {"flush-loop", "adr-drain"}
        assert "crash-window coverage:" in capsys.readouterr().out
