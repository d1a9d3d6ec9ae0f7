"""Harness plumbing: runner, report rendering, experiment registry."""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
import repro.harness
import repro.litmus
import repro.obs
from repro.config import Design
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.report import format_markdown, format_table, gmean
from repro.harness.runner import RunSpec, build_config, run_spec


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["x", 1.5], ["yy", 2.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "1.50" in out

    def test_format_table_with_title(self):
        out = format_table(["a"], [["x"]], title="T")
        assert out.splitlines()[0] == "T"

    def test_format_markdown(self):
        out = format_markdown(["a", "b"], [["x", 1.0]])
        assert out.splitlines()[0] == "| a | b |"
        assert "| x | 1.00 |" in out

    def test_gmean(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)
        assert gmean([2.0]) == pytest.approx(2.0)

    def test_gmean_empty_is_nan(self):
        import math
        assert math.isnan(gmean([]))

    def test_large_numbers_use_thousands(self):
        out = format_table(["v"], [[123456.7]])
        assert "123,457" in out


class TestRunner:
    def test_build_config_applies_spec(self):
        spec = RunSpec(design=Design.ATOM, workload="hash", num_cores=8,
                       latency_multiplier=5.0, channels=2)
        cfg = build_config(spec)
        assert cfg.design is Design.ATOM
        assert cfg.cores.num_cores == 8
        assert cfg.memory.latency_multiplier == 5.0
        assert cfg.memory.channels_per_controller == 2

    def test_with_design(self):
        spec = RunSpec(design=Design.BASE, workload="hash")
        other = spec.with_design(Design.REDO)
        assert other.design is Design.REDO
        assert other.workload == "hash"

    def test_tiny_run_produces_measurements(self):
        spec = RunSpec(
            design=Design.ATOM_OPT, workload="hash", num_cores=4,
            txns_per_thread=4, warmup_per_thread=1, initial_items=8,
        )
        result = run_spec(spec)
        assert result.txns == 3 * 4
        assert result.throughput > 0
        assert result.cycles > 0
        assert result.log_entries > 0

    def test_redo_counts_word_entries(self):
        spec = RunSpec(
            design=Design.REDO, workload="hash", num_cores=4,
            txns_per_thread=3, warmup_per_thread=1, initial_items=8,
        )
        result = run_spec(spec)
        assert result.log_entries > 0

    def test_run_leaves_no_machine_alive(self):
        spec = RunSpec(
            design=Design.ATOM_OPT, workload="hash", num_cores=4,
            txns_per_thread=2, warmup_per_thread=1, initial_items=8,
        )
        machines = []
        result = run_spec(
            spec, instrument=lambda system: machines.append(weakref.ref(system))
        )
        assert result.txns > 0
        assert machines[0]() is None


class TestRegistry:
    def test_every_figure_and_table_registered(self):
        assert {"fig5a", "fig5b", "fig6", "table3", "fig7", "fig8",
                "table4", "ablations"} <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestTestbedBuilder:
    """build_system accepts a Design or a fully-built SystemConfig."""

    def test_accepts_design(self):
        from repro.harness.testbed import build_system

        system = build_system(Design.BASE, num_cores=2)
        assert system.config.design is Design.BASE

    def test_accepts_prebuilt_config(self):
        from repro.config import SystemConfig
        from repro.harness.testbed import build_system, small_config

        cfg = small_config(Design.ATOM, num_cores=2)
        system = build_system(cfg)
        assert system.config is cfg
        assert len(system.cores) == 2

    def test_prebuilt_config_rejects_extra_knobs(self):
        from repro.harness.testbed import build_system, small_config

        cfg = small_config(Design.ATOM, num_cores=2)
        with pytest.raises(TypeError):
            build_system(cfg, num_cores=8)


class TestWorkloadAliases:
    """Module-name aliases resolve to the Table II classes."""

    def test_module_name_aliases(self):
        from repro.harness.testbed import build_system
        from repro.workloads import make_workload
        from repro.workloads.hashtable import HashTableWorkload

        system = build_system(Design.BASE, num_cores=2)
        workload = make_workload("hashtable", system, txns_per_thread=1,
                                 initial_items=2, threads=1)
        assert type(workload) is HashTableWorkload
        workload = make_workload("bplustree", system, txns_per_thread=1,
                                 initial_items=2, threads=1)
        assert type(workload).name == "btree"

    def test_unknown_workload_error_lists_aliases_and_keys(self):
        from repro.common.errors import WorkloadError
        from repro.harness.testbed import build_system
        from repro.workloads import make_workload

        system = build_system(Design.BASE, num_cores=2)
        with pytest.raises(WorkloadError) as err:
            make_workload("btrieve", system)
        message = str(err.value)
        assert "hash" in message and "hashtable" in message
        assert "btree" in message and "bplustree" in message


class TestCrashSweepCli:
    """``--crash-sweep`` flags added for the analytics layer."""

    ARGS = ["--crash-sweep", "--workloads", "hash",
            "--designs", "atom-opt", "--crash-grid", "6000:14000:4000",
            "--no-cache"]

    def test_out_writes_artifact_with_recovery_figure(self, tmp_path,
                                                      capsys):
        import json

        from repro.harness.__main__ import main

        out = tmp_path / "crash.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "crash-sweep"
        assert payload["summary"]["failures"] == 0
        assert "campaign" in payload
        series = payload["recovery_figure"]["atom-opt"]["series"]
        assert [s["crash_cycle"] for s in series] == [6000, 10000, 14000]

    def test_trace_point_selects_a_sweep_point(self, tmp_path, capsys):
        import json

        from repro.harness.__main__ import main
        from repro.obs.trace import validate_chrome_trace

        trace = tmp_path / "trace.json"
        rc = main(self.ARGS + ["--trace", str(trace),
                               "--trace-point", "2"])
        assert rc == 0
        assert "sweep point 2" in capsys.readouterr().err
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload["traceEvents"]) == []

    def test_trace_point_requires_trace(self, tmp_path):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(self.ARGS + ["--trace-point", "1"])

    def test_trace_point_out_of_range_errors(self, tmp_path):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(self.ARGS + ["--trace", str(tmp_path / "t.json"),
                              "--trace-point", "99"])

    def test_out_requires_crash_sweep(self, tmp_path):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["--out", str(tmp_path / "x.json")])


class TestLazyReExports:
    #: Modules a sweep needs only when it calls into them.
    DEFERRED = ("repro.obs.dash", "repro.obs.sample", "repro.harness.perf",
                "platform", "repro.litmus.generator", "repro.obs.analyze",
                "repro.obs.trace")

    def test_job_imports_leave_optional_modules_unloaded(self):
        """The modules the benchmark jobs import (campaign layer,
        experiments, litmus explorer, fault sweep) load none of
        ``DEFERRED``: the package re-exports resolve on first use."""
        code = (
            "import sys\n"
            "import repro.faults.models, repro.faults.sweep\n"
            "import repro.harness.campaign, repro.harness.experiments\n"
            "import repro.litmus.catalog, repro.litmus.explorer\n"
            f"print(' '.join(m for m in {self.DEFERRED!r} "
            "if m in sys.modules))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
        )
        assert done.stdout.split() == []

    def test_re_exports_resolve(self):
        for package in (repro.harness, repro.litmus, repro.obs):
            for name in package.__all__:
                assert getattr(package, name) is not None, name
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(repro.obs, "no_such_name")
