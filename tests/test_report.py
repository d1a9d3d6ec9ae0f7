"""Report helpers: table rendering, gmean and mean/CI edge cases."""

from __future__ import annotations

import math

import pytest

from repro.harness.report import format_markdown, format_table, gmean, mean_ci


class TestFormatTable:
    def test_empty_rows_render_headers_only(self):
        out = format_table(["a", "bb"], [])
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a")

    def test_column_width_tracks_longest_cell(self):
        out = format_table(["h"], [["xxxxxxxx"], ["y"]])
        header, rule, *_ = out.splitlines()
        assert len(rule) == len("xxxxxxxx")

    def test_nan_renders_as_dash(self):
        assert "-" in format_table(["v"], [[float("nan")]]).splitlines()[-1]

    def test_mixed_types(self):
        out = format_table(["a", "b", "c"], [["s", 7, 1.5]])
        assert "s" in out and "7" in out and "1.50" in out

    def test_large_floats_use_thousands_separators(self):
        assert "1,234,568" in format_table(["v"], [[1234567.9]])


class TestFormatMarkdown:
    def test_shape(self):
        out = format_markdown(["a", "b"], [[1.0, float("nan")]])
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1.00 | - |"

    def test_no_rows(self):
        assert len(format_markdown(["a"], []).splitlines()) == 2


class TestGmean:
    def test_basic(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert gmean([3.0]) == pytest.approx(3.0)

    def test_empty_is_nan(self):
        assert math.isnan(gmean([]))

    def test_zeros_are_filtered_not_fatal(self):
        # A zero would annihilate the product; the paper's figures treat
        # missing/zero points as absent.
        assert gmean([0.0, 2.0, 8.0]) == pytest.approx(4.0)

    def test_all_zeros_is_nan(self):
        assert math.isnan(gmean([0.0, 0.0]))

    def test_negative_values_are_filtered(self):
        assert gmean([-5.0, 2.0, 8.0]) == pytest.approx(4.0)


class TestMeanCi:
    def test_empty_is_nan(self):
        mean, ci = mean_ci([])
        assert math.isnan(mean) and math.isnan(ci)

    def test_single_value_has_zero_width(self):
        assert mean_ci([7.5]) == (7.5, 0.0)

    def test_constant_samples_have_zero_width(self):
        mean, ci = mean_ci([3.0, 3.0, 3.0])
        assert mean == pytest.approx(3.0)
        assert ci == pytest.approx(0.0)

    def test_known_spread(self):
        # Sample std of [1, 3] is sqrt(2); stderr = 1; ci = 1.96.
        mean, ci = mean_ci([1.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert ci == pytest.approx(1.96)

    def test_custom_z(self):
        _, ci = mean_ci([1.0, 3.0], z=1.0)
        assert ci == pytest.approx(1.0)

    def test_accepts_any_iterable(self):
        mean, ci = mean_ci(v for v in (2.0, 2.0))
        assert (mean, ci) == (2.0, 0.0)

    def test_float_noise_never_yields_nan_ci(self):
        # Samples identical up to representation noise: the variance sum
        # must never round below zero and poison sqrt.
        vals = [0.1 + 0.2, 0.3, 0.30000000000000004] * 3
        mean, ci = mean_ci(vals)
        assert math.isfinite(mean) and math.isfinite(ci)
        assert ci >= 0.0

    def test_integer_samples(self):
        mean, ci = mean_ci([4, 4, 4])
        assert (mean, ci) == (4.0, 0.0)


class TestCampaignDegenerateSeeds:
    """mean_ci's consumer in seed aggregation: zero-variance replicas."""

    @staticmethod
    def _result(throughput: float):
        from repro.config import Design
        from repro.harness.runner import RunResult, RunSpec

        spec = RunSpec(design=Design.ATOM_OPT, workload="hash")
        return RunResult(spec=spec, cycles=100, txns=10,
                         throughput=throughput, sq_full_cycles=0,
                         log_entries=1, source_logged=0, log_writes=1,
                         stats={})

    def test_zero_variance_seeds_have_zero_ci(self):
        from repro.harness.campaign import aggregate_results

        results = [self._result(5.0) for _ in range(3)]
        agg = aggregate_results(results)
        assert agg.stats["campaign"]["throughput_ci"] == 0.0
        assert not math.isnan(agg.throughput)
