"""Shared-run litmus executor vs. per-point litmus runs.

A litmus point without an ``instrument`` hook is checked on a power cut
of its cell's live run (:func:`~repro.harness.campaign.cut_point`),
with its fault model applied to the cut and its crash storm recovering
it; a traced point builds its own machine and crashes it with
``System.crash``.  A no-op ``instrument`` hook sends a point down that
per-point path, so these tests hold the live run to it: equal outcome
payloads for every catalog test on every design, plain and under fault
models and storms, at unsorted, duplicate, finish and past-the-end
cycles, and equal explorations inline and pooled.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults.models import fault_from_dict
from repro.harness import campaign as campaign_mod
from repro.harness.campaign import Campaign
from repro.litmus.catalog import CATALOG
from repro.litmus.explorer import (DEFAULT_CRASH_START, LITMUS_DESIGNS,
                                   LitmusPoint, _outcome_to_dict,
                                   execute_litmus_point, explore)

#: Far past every program's end: the cut lands on the finished machine.
PAST_THE_END = 10_000_000


@pytest.fixture(autouse=True)
def fresh_live_run():
    """Each test starts and ends without a live run."""
    campaign_mod._drop_live_run()
    yield
    campaign_mod._drop_live_run()


def per_point(point: LitmusPoint) -> dict:
    """The point on a machine of its own, cut by ``System.crash``."""
    return _outcome_to_dict(
        execute_litmus_point(point, instrument=lambda system: None)
    )


def on_the_live_run(point: LitmusPoint) -> dict:
    outcome = execute_litmus_point(point)
    if not outcome.error:
        assert campaign_mod._live.key == dataclasses.replace(
            point, crash_cycle=None, storm=None)
    return _outcome_to_dict(outcome)


@pytest.mark.parametrize("design", LITMUS_DESIGNS, ids=lambda d: d.value)
def test_live_run_matches_per_point_runs(design):
    for test in CATALOG:
        probe = LitmusPoint(test=test.to_dict(), design=design,
                            crash_cycle=None)
        reference = {None: per_point(probe)}
        assert reference[None]["error"] == ""
        finish = reference[None]["finish"]
        assert DEFAULT_CRASH_START < finish < PAST_THE_END
        # The probe (a run to the end), past the end (served by the
        # ended run), unsorted (a rebuild), a duplicate (a second cut
        # without running), the finish cycle (the pause fires before
        # the last thread's finishing event), one past it (the run
        # ends first), a cycle in the past (an error) and a point
        # after it (a rebuild).
        cycles = [None, PAST_THE_END, finish // 2, DEFAULT_CRASH_START,
                  DEFAULT_CRASH_START, finish - 1, finish, finish + 1,
                  PAST_THE_END, -1, finish // 3]
        for cycle in cycles:
            point = dataclasses.replace(probe, crash_cycle=cycle)
            if cycle not in reference:
                reference[cycle] = per_point(point)
            assert on_the_live_run(point) == reference[cycle], (
                test.name, cycle)
        assert reference[-1]["error"].startswith(
            "SimulationError: cannot schedule")


#: The consistency-preserving models the litmus fault axis accepts.
FAULTS = [{"kind": kind} for kind in (
    "controller-loss", "torn-log-write", "correlated-loss",
    "controller-loss+torn-log-write")]


@pytest.mark.parametrize("design", LITMUS_DESIGNS, ids=lambda d: d.value)
def test_fault_and_storm_points_match_per_point_runs(design):
    applicable = [f for f in FAULTS
                  if fault_from_dict(f).applicable(design)]
    for test in CATALOG[::2]:
        probe = LitmusPoint(test=test.to_dict(), design=design,
                            crash_cycle=None)
        finish = per_point(probe)["finish"]
        # Points of one cell share its run whatever their storm seed;
        # the fault cells get runs of their own.  Unsorted (a rebuild),
        # a duplicate with and without a storm (second and third cuts
        # without running), the finish cycle and past the end.
        cycles = [(finish // 2, 3), (DEFAULT_CRASH_START, None),
                  (DEFAULT_CRASH_START, 3), (finish - 1, None),
                  (finish, 5), (PAST_THE_END, 3)]
        for fault in [None] + applicable:
            for cycle, storm in cycles:
                point = dataclasses.replace(probe, crash_cycle=cycle,
                                            fault=fault, storm=storm)
                assert on_the_live_run(point) == per_point(point), (
                    test.name, fault, cycle, storm)


def test_pooled_exploration_matches_inline():
    """Bisection midpoints arrive out of order and cells split across
    workers; the verdicts must not notice."""
    def run(jobs: int) -> dict:
        with Campaign(jobs=jobs, cache=None) as campaign:
            return explore(campaign, tests=CATALOG[:5], points=4,
                           densify=3).to_json()

    inline, pooled = run(1), run(2)
    assert pooled == inline
    assert inline["densify_points"] > 0
    assert inline["summary"]["failures"] == 0
