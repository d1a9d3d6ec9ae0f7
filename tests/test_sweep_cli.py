"""The sweep front end shared by ``--crash-sweep``, ``litmus``,
``litmus gen`` and ``faults``: axis checks and the campaign flags."""

import json
import shlex

import pytest

from repro.harness.__main__ import main
from repro.harness.campaign import Campaign

#: One 1-3 point sweep per command.
SWEEPS = {
    "crash-sweep": ["--crash-sweep", "--designs", "atom-opt",
                    "--workloads", "hash", "--crash-grid", "6000:14000:4000"],
    "litmus": ["litmus", "--tests", "atomicity-pair", "--designs",
               "atom-opt", "--points", "2"],
    "litmus gen": ["litmus", "gen", "--count", "1", "--seed", "3",
                   "--designs", "atom-opt", "--points", "2"],
    "faults": ["faults", "--faults", "controller-loss", "--designs",
               "atom-opt", "--workloads", "hash",
               "--crash-grid", "6000:14000:4000"],
}


@pytest.mark.parametrize("argv", [
    ["--crash-sweep", "--designs", ","],
    ["--crash-sweep", "--workloads", ""],
    ["--crash-sweep", "--crash-seeds", ""],
    ["--crash-sweep", "--crash-seeds", "x"],
    ["litmus", "--designs", ""],
    ["litmus", "--tests", ","],
    ["litmus", "gen", "--designs", ","],
], ids=shlex.join)
def test_empty_or_malformed_axis_is_a_parser_error(argv, tmp_path, capsys):
    # A sweep over an empty axis runs zero points and would pass.
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--no-cache", "--out", str(out)])
    assert exit_.value.code == 2
    assert f"error: argument {argv[-2]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["--crash-sweep"], ["litmus"],
                                     ["litmus", "gen"], ["faults"]],
                         ids=" ".join)
def test_negative_jobs_is_a_parser_error(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(command + ["--jobs", "-1", "--no-cache"])
    assert exit_.value.code == 2
    assert "error: argument --jobs/-j: must be >= 0" in \
        capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_campaign_flags_reach_the_campaign(name, tmp_path, monkeypatch,
                                           capsys):
    closed = []
    close = Campaign.close

    def record_close(campaign):
        closed.append(campaign)
        close(campaign)

    monkeypatch.setattr(Campaign, "close", record_close)
    out = tmp_path / "out.json"
    fabric_log = tmp_path / "fabric.jsonl"
    cache_dir = tmp_path / "cache"
    status = main(SWEEPS[name] + [
        "--jobs", "2", "--max-retries", "5", "--task-timeout", "123",
        "--cache-dir", str(cache_dir), "--fabric-log", str(fabric_log),
        "--progress", "--out", str(out),
    ])

    assert status == 0
    campaign = closed[0]
    assert all(c is campaign for c in closed)
    assert campaign.retry.max_retries == 5
    assert campaign.retry.task_timeout == 123.0
    assert campaign.telemetry.progress
    payload = json.loads(out.read_text())
    assert 1 <= payload["points_total"] <= 3
    assert payload["campaign"]["jobs"] == 2
    events = [json.loads(line)["event"]
              for line in fabric_log.read_text().splitlines()]
    assert events.count("dispatch") == payload["points_total"]
    assert len(list(cache_dir.rglob("*.json"))) == payload["points_total"]
