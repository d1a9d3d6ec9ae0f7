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

A point whose cut would equal the previous point's is not cut: it
takes that point's checked outcome, restamped.  On a dense grid most
points are such, so the grid tests hold the reused outcomes to the
per-point path too, and the signature tests show that each part of
what a power cut copies, changed alone, forces a fresh cut.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import Design
from repro.faults.models import (ControllerLoss, FaultInjector, FaultTaps,
                                 fault_from_dict)
from repro.harness import campaign as campaign_mod
from repro.harness.cache import encode_outcome
from repro.harness.campaign import Campaign, cut_point
from repro.harness.testbed import build_litmus_system
from repro.litmus.catalog import CATALOG
from repro.litmus.explorer import (DEFAULT_CRASH_START, LITMUS_DESIGNS,
                                   LitmusPoint, crash_cycles_for,
                                   execute_litmus_point, explore)
from repro.runtime.system import System

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
    return encode_outcome(
        execute_litmus_point(point, instrument=lambda system: None)
    )


@pytest.fixture
def cuts(monkeypatch) -> list:
    """The cycle of every ``System.power_cut`` call."""
    calls = []
    original = System.power_cut

    def counted(self, *args, **kwargs):
        calls.append(self.engine.now)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(System, "power_cut", counted)
    return calls


def on_the_live_run(point: LitmusPoint) -> dict:
    outcome = execute_litmus_point(point)
    if not outcome.error:
        assert campaign_mod._live.key == dataclasses.replace(
            point, crash_cycle=None, storm=None)
    return encode_outcome(outcome)


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


#: The explorer's grid density on the dense runs.
DENSE_POINTS = 32


@pytest.mark.parametrize("storm", [None, 3], ids=["plain", "storm"])
@pytest.mark.parametrize("design", LITMUS_DESIGNS, ids=lambda d: d.value)
def test_dense_grid_reuses_cuts_and_matches_per_point_runs(design, storm,
                                                           cuts):
    """Every catalog test on a 32-point grid, in the explorer's order:
    the probe, then the grid ascending.  Reused or cut afresh, every
    outcome equals the per-point path's, and fewer cuts run than
    there are points."""
    points = 0
    for test in CATALOG:
        probe = LitmusPoint(test=test.to_dict(), design=design,
                            crash_cycle=None)
        reference = per_point(probe)
        assert on_the_live_run(probe) == reference, test.name
        grid = crash_cycles_for(reference["finish"], DENSE_POINTS)
        for cycle in grid:
            point = dataclasses.replace(probe, crash_cycle=cycle,
                                        storm=storm)
            assert on_the_live_run(point) == per_point(point), (
                test.name, cycle)
        points += 1 + len(grid)
    assert len(cuts) < points


#: The run the signature tests cut: a multi-line atomic update.
SIGNATURE_TEST = next(t for t in CATALOG if t.name == "atomicity-multiline")
SIGNATURE_CYCLE = 300


def live_point(design: Design, cycle: int = SIGNATURE_CYCLE, **kw) -> str:
    """Check a cut of SIGNATURE_TEST's run on ``design`` at ``cycle``:
    ``"cut"`` when it was cut and checked, ``"reused"`` when it took
    the last checked outcome instead."""
    def start():
        system, workload = build_litmus_system(design, SIGNATURE_TEST)
        FaultTaps().install(system)
        workload.setup()
        system.start_threads(workload.threads())
        return system, workload, SIGNATURE_TEST.max_cycles

    return cut_point(("signature", design), cycle, start,
                     lambda system, workload, cut: "cut",
                     restamp=lambda system, outcome: "reused", **kw)


def rewrite_a_data_line(live) -> None:
    # The same bytes again: the write count, not the contents, decides.
    image = live.system.image
    image.persist(0, image.durable_read(0, 8))


def step_an_aus_register(live) -> None:
    writes = live.system.image.durable_writes
    live.system.controllers[0].logm.aus[0].current_record += 1
    assert live.system.image.durable_writes == writes


def commit_on_redo(live) -> None:
    redo = live.system.redo
    redo._commit_order.append(max(redo._commit_order, default=0) + 1000)


def apply_on_redo(live) -> None:
    live.system.redo._applied.add(10**6)


def count_a_commit(live) -> None:
    live.workload.commits += 1


#: (case, design, change to the live run, the next point's arguments).
SIGNATURE_CASES = [
    ("persist", Design.ATOM, rewrite_a_data_line, {}),
    ("aus-register", Design.ATOM, step_an_aus_register, {}),
    ("redo-commit", Design.REDO, commit_on_redo, {}),
    ("redo-apply", Design.REDO, apply_on_redo, {}),
    ("storm-seed", Design.ATOM, None, {"storm": 3}),
    ("commit", Design.ATOM, count_a_commit, {}),
    ("injector", Design.ATOM, None,
     {"injector": FaultInjector(ControllerLoss())}),
]


@pytest.mark.parametrize("design, change, kw",
                         [case[1:] for case in SIGNATURE_CASES],
                         ids=[case[0] for case in SIGNATURE_CASES])
def test_each_part_of_the_signature_forces_a_fresh_cut(design, change, kw,
                                                       cuts):
    assert live_point(design) == "cut"
    assert live_point(design) == "reused"
    assert len(cuts) == 1
    if change is not None:
        change(campaign_mod._live)
    assert live_point(design, **kw) == "cut"
    assert len(cuts) == 2
    if "injector" in kw:
        # A point with an injector is always cut.
        kw = {"injector": FaultInjector(ControllerLoss())}
        assert live_point(design, **kw) == "cut"
    else:
        assert live_point(design, **kw) == "reused"


def test_a_truncating_core_forces_a_fresh_cut(cuts):
    """A core whose commit broadcast has truncated some controller packs
    its AUS as cleared in every LogM's ADR block."""
    finish = per_point(LitmusPoint(test=SIGNATURE_TEST.to_dict(),
                                   design=Design.ATOM,
                                   crash_cycle=None))["finish"]
    for cycle in crash_cycles_for(finish, DENSE_POINTS):
        live_point(Design.ATOM, cycle)
        system = campaign_mod._live.system
        holders = [
            core.core_id for core in system.cores for mc in system.controllers
            if (slot := mc.logm.slot_of(core.core_id)) is not None
            and mc.logm.aus[slot].bucket_vec.any()
            and not system._commit_intents.get(core.core_id,
                                               {}).get("cleared")
        ]
        if holders:
            break
    else:
        pytest.fail("no core held an AUS with buckets on the grid")
    assert live_point(Design.ATOM, cycle) == "reused"
    before = len(cuts)
    system._commit_intents[holders[0]] = {"info": None, "cleared": 1,
                                          "total": 2}
    assert live_point(Design.ATOM, cycle) == "cut"
    assert len(cuts) == before + 1


def test_a_rebuilt_run_forgets_the_last_cut(cuts):
    assert live_point(Design.ATOM) == "cut"
    campaign_mod._drop_live_run()
    assert live_point(Design.ATOM) == "cut"
    assert live_point(Design.ATOM) == "reused"
    assert len(cuts) == 2
