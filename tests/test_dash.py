"""Dashboard net: classification, rendering, self-containment.

The dashboard's contract is structural, so the tests are too: every
artifact kind the harness writes is recognized (current ``kind``
stamps and legacy un-stamped payloads alike), every section renders
without leaking placeholder text, equal inputs produce byte-identical
HTML, and the result never references anything beyond itself — no
scripts, links, images, or network URLs.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.report import write_artifact
from repro.obs.dash import (
    build_dashboard, classify_artifact, external_references, load_artifact,
    main,
)

RECOVERY_FIGURE = {
    "atom-opt": {
        "series": [{"crash_cycle": 4000, "mean_cycles": 1560.0,
                    "ci": 0.0, "points": 1},
                   {"crash_cycle": 8000, "mean_cycles": 18432.0,
                    "ci": 120.0, "points": 2}],
        "mean_cycles": 9996.0, "ci": 8436.0, "points": 3,
    },
}

LITMUS = {
    "kind": "litmus", "points_total": 8,
    "recovery_figure": RECOVERY_FIGURE,
    "summary": {"cells": 2, "failures": 0},
    "cells": [
        {"test": "atomicity-pair", "design": "atom-opt", "points": 4,
         "status": "ok", "reached": 2, "forbidden_seen": 0,
         "window_hits": {"quiescent": 3, "flush-loop": 1}},
        {"test": "atomicity-pair", "design": "redo", "points": 4,
         "status": "FAIL", "reached": 2, "forbidden_seen": 1,
         "window_hits": {"quiescent": 4}},
    ],
    "campaign": {"tasks": 8, "computed": 8, "cache_hits": 0,
                 "retries": 0, "quarantined": 0},
}

FAULTS = {
    "kind": "faults", "points_total": 3,
    "recovery_figure": RECOVERY_FIGURE,
    "summary": {"cells": 1, "failures": 0, "detected": 1, "vacuous": 0},
    "cells": [
        {"design": "atom-opt", "workload": "hash",
         "fault": "log-corruption", "status": "detected", "points": 3,
         "applied_points": 3, "detections": 2,
         "mean_recovery_cycles": 9560.0,
         "recovery_cost": {"lines_scanned": 40}, "failures": []},
    ],
}

CRASH = {
    "kind": "crash-sweep", "points_total": 4,
    "recovery_figure": RECOVERY_FIGURE,
    "summary": {"cells": 1, "failures": 0},
    "cells": [{"design": "atom-opt", "workload": "hash", "points": 4,
               "points_ok": 4, "commits": 22, "rolled_back": 11}],
    "failures": [],
}

ANALYSIS = {
    "schema": 1, "kind": "txn-analysis", "workload": "hash", "seed": 7,
    "designs": {
        "base": {
            "txns": 32, "cut_txns": 0,
            "stages": {s: {"mean": m, "ci": 1.0, "total": m * 32}
                       for s, m in (("execute", 80.0),
                                    ("sq_residency", 700.0),
                                    ("log_persist", 1800.0),
                                    ("commit_flush", 380.0),
                                    ("redo_commit", 0.0))},
            "duration": {"mean": 2960.0, "ci": 20.0, "total": 94720},
            "apply_lag": None,
            "adr": {"drains": 0, "txns_with_drain": 0, "share": 0.0},
        },
        "redo": {
            "txns": 32, "cut_txns": 0,
            "stages": {s: {"mean": m, "ci": 1.0, "total": m * 32}
                       for s, m in (("execute", 80.0),
                                    ("sq_residency", 100.0),
                                    ("log_persist", 0.0),
                                    ("commit_flush", 0.0),
                                    ("redo_commit", 700.0))},
            "duration": {"mean": 880.0, "ci": 9.0, "total": 28160},
            "apply_lag": {"mean": 1379.0, "ci": 162.0, "points": 32},
            "adr": {"drains": 2, "txns_with_drain": 1, "share": 0.03125},
        },
    },
    "differential": {
        "reference": "base",
        "deltas": {"redo": {"duration": {"delta": -2080.0, "ci": 22.0}}},
    },
}

PERF = {
    "benchmark": "kernel", "scale": 0.5, "repeats": 2,
    "points": [{"design": "atom-opt", "workload": "hash",
                "events": 1000, "wall_s": 0.01,
                "events_per_sec": 100000.0, "repeat_eps": [99000.0,
                                                           100000.0]}],
    "aggregate": {"geomean_events_per_sec": 100000.0,
                  "geomean_mean": 99500.0, "geomean_ci": 980.0,
                  "total_events": 1000, "total_wall_s": 0.01},
}

HISTORY = [
    {"schema": 1, "t": 1.0, "geomean": 100000.0, "geomean_ci": 500.0,
     "scale": 0.5, "repeats": 2, "points": {}},
    {"schema": 1, "t": 2.0, "geomean": 101000.0, "geomean_ci": 400.0,
     "scale": 0.5, "repeats": 2, "points": {}},
]

TRACE = {
    "traceEvents": [
        {"ph": "b", "name": "txn", "cat": "txn", "id": 1, "pid": 1,
         "tid": 0, "ts": 100, "args": {"txn": 1, "core": 0}},
        {"ph": "e", "name": "txn", "cat": "txn", "id": 1, "pid": 1,
         "tid": 0, "ts": 200, "args": {"txn": 1}},
    ],
    "displayTimeUnit": "ms",
}

ALL_ITEMS = [
    ("litmus.json", "litmus", LITMUS),
    ("faults.json", "faults", FAULTS),
    ("crash.json", "crash-sweep", CRASH),
    ("analysis.json", "analysis", ANALYSIS),
    ("bench.json", "perf", PERF),
    ("history.jsonl", "history", HISTORY),
    ("trace.json", "trace", TRACE),
]


class TestClassify:
    @pytest.mark.parametrize("payload,kind", [
        (LITMUS, "litmus"), (FAULTS, "faults"), (CRASH, "crash-sweep"),
        (ANALYSIS, "analysis"), (PERF, "perf"), (HISTORY, "history"),
        (TRACE, "trace"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_all_artifact_kinds_recognized(self, payload, kind):
        assert classify_artifact(payload) == kind

    def test_legacy_unstamped_payloads_sniffed_from_cells(self):
        for payload, kind in ((LITMUS, "litmus"), (FAULTS, "faults"),
                              (CRASH, "crash-sweep")):
            legacy = {k: v for k, v in payload.items() if k != "kind"}
            assert classify_artifact(legacy) == kind

    def test_garbage_is_unrecognized(self):
        assert classify_artifact({"mystery": 1}) is None
        assert classify_artifact([1, 2, 3]) is None
        assert classify_artifact("nope") is None
        assert classify_artifact({"cells": []}) is None


class TestLoadArtifact:
    def test_json_and_jsonl_paths(self, tmp_path):
        j = tmp_path / "bench.json"
        write_artifact(j, PERF)
        name, kind, payload = load_artifact(j)
        assert (name, kind) == ("bench.json", "perf")
        assert payload["aggregate"] == PERF["aggregate"]

        ledger = tmp_path / "history.jsonl"
        with open(ledger, "w", encoding="utf-8") as fh:
            for entry in HISTORY:
                fh.write(json.dumps(entry) + "\n")
            fh.write("{torn\n")
        name, kind, payload = load_artifact(ledger)
        assert (name, kind) == ("history.jsonl", "history")
        assert len(payload) == 2


class TestBuildDashboard:
    def test_every_section_renders(self):
        doc = build_dashboard(ALL_ITEMS)
        for heading in ("Litmus", "Faults", "Crash sweep",
                        "Transaction latency", "Perf", "Perf history"):
            assert heading in doc
        # Data from each artifact surfaces in its section.
        assert "atomicity-pair" in doc
        assert "log-corruption" in doc
        assert "100,000" in doc
        # Recovery figures render as charts, statuses as labeled chips.
        assert doc.count("<svg") >= 4
        assert "detected" in doc and "FAIL" in doc

    def test_deterministic_for_equal_inputs(self):
        assert build_dashboard(ALL_ITEMS) == build_dashboard(ALL_ITEMS)

    def test_no_placeholder_leakage(self):
        doc = build_dashboard(ALL_ITEMS)
        for marker in ("None", "NaN", "nan", "@SERIES_LIGHT@",
                       "@SERIES_DARK@"):
            assert marker not in doc

    def test_unknown_kind_gets_a_visible_note(self):
        doc = build_dashboard([("weird.json", "mystery", {})])
        assert "skipped unrecognized artifact" in doc
        assert "weird.json" in doc

    def test_empty_input_still_valid_document(self):
        doc = build_dashboard([])
        assert doc.startswith("<!doctype html>")
        assert "no artifacts" in doc
        assert external_references(doc) == []

    def test_traces_fold_through_the_analyzer(self):
        doc = build_dashboard([("trace.json", "trace", TRACE)])
        assert "Transaction latency" in doc

    def test_markup_is_escaped(self):
        hostile = dict(LITMUS)
        hostile["cells"] = [dict(LITMUS["cells"][0],
                                 test="<script>alert(1)</script>")]
        doc = build_dashboard([("litmus.json", "litmus", hostile)])
        assert "<script>" not in doc
        assert "&lt;script&gt;" in doc


class TestSelfContainment:
    def test_full_dashboard_has_no_external_references(self):
        assert external_references(build_dashboard(ALL_ITEMS)) == []

    def test_detector_catches_each_marker(self):
        for marker in ("http://x", "https://x", "<script>", "<link ",
                       "<img ", "src=\"x\"", "url(x)", "@import",
                       "href=\"x\""):
            assert external_references(f"<html>{marker}</html>")

    def test_dark_mode_palette_is_selected_not_flipped(self):
        doc = build_dashboard(ALL_ITEMS)
        assert "prefers-color-scheme: dark" in doc
        # Light and dark series colors differ (validated separately).
        assert "#2a78d6" in doc and "#3987e5" in doc


class TestCli:
    def write_artifacts(self, tmp_path):
        paths = []
        for name, _kind, payload in ALL_ITEMS:
            path = tmp_path / name
            if name.endswith(".jsonl"):
                with open(path, "w", encoding="utf-8") as fh:
                    for entry in payload:
                        fh.write(json.dumps(entry) + "\n")
            else:
                write_artifact(path, payload)
            paths.append(str(path))
        return paths

    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        rc = main(self.write_artifacts(tmp_path) + ["--out", str(out)])
        assert rc == 0
        assert f"7 artifact(s)" in capsys.readouterr().out
        document = out.read_text()
        assert external_references(document) == []
        assert "Litmus" in document and "Perf history" in document

    def test_missing_artifact_is_exit_2(self, tmp_path, capsys):
        rc = main([str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "x.html")])
        assert rc == 2
        assert "cannot read artifact" in capsys.readouterr().out

    def test_unrecognized_artifact_warns_and_continues(self, tmp_path,
                                                       capsys):
        unknown = tmp_path / "unknown.json"
        write_artifact(unknown, {"mystery": 1})
        known = tmp_path / "litmus.json"
        write_artifact(known, LITMUS)
        out = tmp_path / "dash.html"
        rc = main([str(unknown), str(known), "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "skipping unrecognized" in captured
        assert "1 artifact(s)" in captured
        assert out.exists()
