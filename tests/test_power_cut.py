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
cut's recovery replays it).

A faulted cut (``System.power_cut(injector)``) is held to the same two
rules per fault model, at the instants the model acts on: writes in the
device with writers parked behind a full queue (the loss models drain
or drop them), a line on the wires (the tears), an update in flight
(ADR truncation and log corruption).  Outcome-level equality over whole
sweeps is held by ``test_crash_prefix.py``, ``test_fault_prefix.py``
and ``test_litmus_prefix.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.atom import adr
from repro.config import Design
from repro.faults.models import (FaultInjector, FaultTaps, LogCorruption,
                                 default_fault_models)
from repro.harness.testbed import (CRASH_RUN_MAX_CYCLES, small_config,
                                   start_crash_run)
from repro.runtime.system import System
from repro.workloads import make_workload

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


def pause_inside(design: Design, inside, start=start):
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
        "touched": (set(image._vol_pages), dict(image._dur_lines),
                    image._vol_mirrors_durable),
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


# -- faulted cuts -------------------------------------------------------------

#: Write-queue depth of the faulted runs: shallow enough that writers
#: park on backpressure while writes are in the device.
SHALLOW_QUEUE = 2
FAULT_DESIGN = Design.ATOM_OPT


def start_shallow(design: Design, *, taps=None, injector=None):
    """A hash run on a machine whose write queues fill up."""
    cfg = small_config(design)
    cfg.memory.write_queue_depth = SHALLOW_QUEUE
    system = System(cfg)
    if taps is not None:
        taps.install(system)
    if injector is not None:
        injector.install(system)
    workload = make_workload("hash", system, txns_per_thread=8,
                             initial_items=12, threads=4, seed=SEED)
    workload.setup()
    system.start_threads(workload.threads())
    return system, workload


def backpressured(system) -> bool:
    """Every controller has writes in the device and writers parked."""
    return all(
        any(ch._inflight_writes and ch._write_waiters for ch in mc.channels)
        for mc in system.controllers
    )


def log_line_on_the_wires(system) -> bool:
    return any(system.fault_taps.log.values())


def data_line_on_the_wires(system) -> bool:
    return any(system.fault_taps.data_lines.values())


def update_in_flight(system) -> bool:
    return "adr-drain" in system.sample_crash_windows()


def header_durable(system) -> bool:
    """An in-flight update has a durable record header to corrupt."""
    if not update_in_flight(system):
        return False
    probe = FaultInjector(LogCorruption())
    system.power_cut(probe).image.recycle()
    return probe.applied


#: fault kind -> the instant its model acts on.
FAULT_WINDOWS = {
    "controller-loss": backpressured,
    "correlated-loss": backpressured,
    "torn-log-write": log_line_on_the_wires,
    "torn-data-write": data_line_on_the_wires,
    "adr-truncation": update_in_flight,
    "log-corruption": header_durable,
    "bit-rot": update_in_flight,
}


def faulted_live_state(system) -> dict:
    """``live_state`` plus everything a fault model reads or drains."""
    state = live_state(system)
    state["channels"] = [
        ([id(r) for r in ch._read_q], [id(r) for r in ch._write_q],
         [id(r) for r in ch._inflight_writes],
         [id(w) for w in ch._write_waiters])
        for mc in system.controllers for ch in mc.channels
    ]
    taps = system.fault_taps
    state["taps"] = (
        {mc: list(fifo.items()) for mc, fifo in taps.log.items()},
        {mc: list(fifo.items()) for mc, fifo in taps.data_lines.items()},
    )
    return state


def injected(injector) -> tuple:
    return (injector.applied, injector.detail, injector.tore_header,
            injector.drained_writes, injector.damage)


@pytest.fixture(scope="module")
def uncut_shallow() -> tuple:
    """The faulted design's shallow-queue run, never paused or tapped."""
    return finish(*start_shallow(FAULT_DESIGN))


@pytest.mark.parametrize("model", default_fault_models(),
                         ids=lambda m: m.kind)
def test_faulted_cut_is_the_faulted_crash_and_leaves_the_machine_untouched(
        model, uncut_shallow):
    inside = FAULT_WINDOWS[model.kind]
    system, workload = pause_inside(
        FAULT_DESIGN, inside,
        start=lambda design: start_shallow(design, taps=FaultTaps()))
    before = faulted_live_state(system)
    injector = FaultInjector(model)
    cut = system.power_cut(injector)
    assert injector.applied, injector.detail
    flushed = adr_blocks(system, cut.image)
    damaged = cut.image.durable_digest()
    report = system.recover(cut)
    system.recover(cut)
    assert faulted_live_state(system) == before
    # The reference: a fresh run with the injector installed, crashed
    # at the same dispatch position.
    reference = FaultInjector(model)
    crashed, _ = start_shallow(FAULT_DESIGN, injector=reference)
    crashed.crash_at(before["clock"][0])
    crashed.run(max_cycles=CRASH_RUN_MAX_CYCLES)
    assert crashed.crashed
    assert injected(reference) == injected(injector)
    assert adr_blocks(crashed, crashed.image) == flushed
    assert crashed.image.durable_digest() == damaged
    assert crashed.crash_windows == cut.windows
    crash_report = crashed.recover()
    assert crashed.image.durable_digest() == cut.image.durable_digest()
    assert (crash_report.updates_rolled_back, crash_report.cost.to_dict(),
            crash_report.corrupt_lines) == \
        (report.updates_rolled_back, report.cost.to_dict(),
         report.corrupt_lines)
    cut.image.recycle()
    assert finish(system, workload) == uncut_shallow


def test_queued_writes_are_what_the_shutdown_drain_persists_in_order():
    """``queued_writes`` lists a drain's persists without draining."""
    listed, _ = pause_inside(FAULT_DESIGN, backpressured, start=lambda d:
                             start_shallow(d, taps=FaultTaps()))
    drained, _ = start_shallow(FAULT_DESIGN, taps=FaultTaps())
    drained.pause_at(listed.engine.now)
    drained.run(max_cycles=CRASH_RUN_MAX_CYCLES)
    assert drained.paused
    persisted = []
    drained.image.persist = lambda addr, data: persisted.append((addr, data))
    for mc, twin in zip(listed.controllers, drained.controllers):
        writes = mc.queued_writes()
        in_device = sum(len(ch._inflight_writes) for ch in mc.channels)
        parked = sum(len(ch._write_waiters) for ch in mc.channels)
        assert in_device and parked and len(writes) > in_device + parked
        del persisted[:]
        assert twin.drain_for_shutdown() == len(writes)
        assert persisted == writes
