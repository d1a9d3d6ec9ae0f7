"""``System.power_cut``: the post-failure state, taken without a crash.

A cut copies what a power failure leaves for recovery and must leave
the machine exactly as it was: recovering the cut (twice, as the litmus
idempotence check does) changes nothing live, and the run goes on to
the same finish, commits and durable image as a run never cut.  The
cut must also be what ``System.crash`` leaves at the same instant: the
same ADR blocks, crash windows, recovery report and recovered image.

The windows that make a cut more than a copy of the durable plane are
searched for explicitly: a commit broadcast that truncated the log on
one controller but not yet on another (the cut packs the forced
truncation into its ADR block), posted log writes still draining, and
on REDO a committed transaction still awaiting its in-place apply (the
cut's recovery replays it).  Outcome-level equality over whole sweeps
is held by ``test_crash_prefix.py`` and ``test_litmus_prefix.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.atom import adr
from repro.config import Design
from repro.harness.testbed import CRASH_RUN_MAX_CYCLES, start_crash_run

SEED = 3


def start(design: Design):
    return start_crash_run("hash", design, seed=SEED)


def in_partial_broadcast(system) -> bool:
    """A commit truncated on some controller, and a slot still to clear."""
    return any(
        intent["cleared"] and mc.logm.slot_of(core) is not None
        and mc.logm.aus[mc.logm.slot_of(core)].active()
        for core, intent in system._commit_intents.items()
        for mc in system.controllers
    )


def in_posted_log_drain(system) -> bool:
    return "posted-log-drain" in system.sample_crash_windows()


def in_backend_apply(system) -> bool:
    """REDO: a committed transaction not yet applied in place."""
    return "backend-apply" in system.sample_crash_windows()


#: design -> the windows its machine must pass through.
WINDOWS = {
    Design.BASE: [in_partial_broadcast],
    Design.ATOM: [in_partial_broadcast, in_posted_log_drain],
    Design.ATOM_OPT: [in_partial_broadcast, in_posted_log_drain],
    Design.REDO: [in_posted_log_drain, in_backend_apply],
    Design.NON_ATOMIC: [],
}


def pause_inside(design: Design, inside):
    """A run paused at the first cycle where ``inside(system)`` holds."""
    system, workload = start(design)
    pause = system.pause_at(1)
    while True:
        system.run(max_cycles=CRASH_RUN_MAX_CYCLES)
        assert system.paused, f"{design.value} never entered {inside.__name__}"
        if inside(system):
            return system, workload
        system.engine.rearm(pause, system.engine.now + 1)


def live_state(system) -> dict:
    """Everything a cut and its recovery could disturb."""
    image = system.image
    state = {
        "volatile": hashlib.sha256(image._vol_view).hexdigest(),
        "durable": hashlib.sha256(image._dur_view).hexdigest(),
        "touched": (set(image._vol_touched), set(image._dur_touched)),
        "clock": (system.engine.now, system.engine.pending()),
        "adr": [adr.serialize(mc.logm.aus, mc.logm.cfg.buckets_per_controller)
                .ljust(system.layout.adr_block_bytes, b"\0")
                for mc in system.controllers if mc.logm is not None],
        "intents": {core: (intent["cleared"], intent["total"])
                    for core, intent in system._commit_intents.items()},
    }
    if system.redo is not None:
        state["redo"] = (list(system.redo._commit_order),
                         set(system.redo._applied))
    return state


def adr_blocks(system, image) -> list[bytes]:
    """Each LogM controller's ADR block as it stands in ``image``."""
    layout = system.layout
    return [image.durable_read(layout.adr_base(mc.mc_id),
                               layout.adr_block_bytes)
            for mc in system.controllers if mc.logm is not None]


def finish(system, workload) -> tuple:
    system.run(max_cycles=CRASH_RUN_MAX_CYCLES)
    assert system.all_done()
    return (system.engine.now, workload.commits,
            system.image.durable_digest())


@pytest.fixture(scope="module")
def uncut() -> dict:
    """Finish cycle, commits and durable image of runs never paused."""
    return {design: finish(*start(design)) for design in Design}


def cases():
    for design, windows in WINDOWS.items():
        for inside in windows:
            yield pytest.param(design, inside,
                               id=f"{design.value}-{inside.__name__}")
    # No window of interest on NON_ATOMIC: cut it mid-run.
    yield pytest.param(Design.NON_ATOMIC, None, id="non-atomic-mid-run")


@pytest.mark.parametrize("design,inside", list(cases()))
def test_cut_is_the_crash_and_leaves_the_machine_untouched(design, inside,
                                                          uncut):
    if inside is None:
        system, workload = start(design)
        system.pause_at(uncut[design][0] // 2)
        system.run(max_cycles=CRASH_RUN_MAX_CYCLES)
        assert system.paused
    else:
        system, workload = pause_inside(design, inside)
    before = live_state(system)
    cut = system.power_cut()
    flushed = adr_blocks(system, cut.image)
    report = system.recover(cut)
    system.recover(cut)
    assert live_state(system) == before
    if inside is in_partial_broadcast:
        # The forced truncation is in play: some controller's flushed
        # block differs from its live (untruncated) registers.
        assert flushed != before["adr"]
    # The cut is the crash of a fresh run at the same dispatch position
    # (its crash takes the sequence number the pause took).
    crashed, _ = start(design)
    crashed.crash_at(before["clock"][0])
    crashed.run(max_cycles=CRASH_RUN_MAX_CYCLES)
    assert crashed.crashed
    assert adr_blocks(crashed, crashed.image) == flushed
    assert crashed.crash_windows == cut.windows
    crash_report = crashed.recover()
    assert crashed.image.durable_digest() == cut.image.durable_digest()
    assert (crash_report.updates_rolled_back, crash_report.cost.to_dict()) \
        == (report.updates_rolled_back, report.cost.to_dict())
    if system.redo is not None:
        # Recovery advanced the cut's copy of the applied set.
        assert set(cut.commit_order) <= cut.applied
    if inside is in_backend_apply:
        assert report.updates_rolled_back > 0
    cut.image.recycle()
    assert finish(system, workload) == uncut[design]
