"""System builder: assembles one simulated machine from a SystemConfig.

``System`` wires together the engine, memory images, address layout,
mesh, controllers (with LogM or the REDO machinery attached per the
selected design), the shared L2 directory, per-core L1s and cores, the
lock manager and the AUS allocator.  It then runs workload threads to
completion, supports crash injection at an arbitrary cycle, and runs the
recovery routine — everything the harness and the tests need.
"""

from __future__ import annotations

import gc
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.atom import adr as adr_mod
from repro.atom import recovery as recovery_mod
from repro.atom.aus import AusAllocator
from repro.atom.designs import design_uses_logm, make_policy
from repro.atom.invariants import InvariantChecker
from repro.atom.logm import LogManager
from repro.atom.redo import RedoManager
from repro.coherence.directory import SharedL2
from repro.coherence.l1 import L1Cache
from repro.coherence.victim import VictimCache
from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.common.units import CACHE_LINE_BYTES, throughput_per_second
from repro.config import Design, SystemConfig
from repro.cpu.core import Core
from repro.cpu.lockmgr import LockManager
from repro.engine import Engine, Event
from repro.mem.controller import MemoryController
from repro.mem.image import MemoryImage
from repro.mem.layout import AddressLayout
from repro.noc.mesh import Mesh
from repro.noc.topology import Topology
from repro.runtime.heap import Heap

#: Microarchitectural crash windows sampled at the instant of a power
#: cut (see System.sample_crash_windows).  The litmus coverage layer
#: aggregates hit counts per window; a generated batch is expected to
#: land crashes inside every one of them.
CRASH_WINDOWS = (
    "flush-loop",       # a core mid commit-time write-set flush
    "posted-log-drain",  # log-entry writes posted but not yet durable
    "backend-apply",    # REDO in-place applies of committed lines queued
    "adr-drain",        # live AUS state / a mid-broadcast truncation the
                        # ADR window must carry over the cut
)


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    design: Design
    cycles: int
    txns_committed: int
    sq_full_cycles: int
    source_logged: int
    log_entries: int
    crashed: bool = False
    stats: dict = field(default_factory=dict)

    @property
    def txn_throughput(self) -> float:
        """Committed transactions per second at the 2 GHz clock."""
        return throughput_per_second(self.txns_committed, self.cycles)

    @property
    def source_log_fraction(self) -> float:
        """Fraction of log entries created at the source (Table III)."""
        if self.log_entries == 0:
            return 0.0
        return self.source_logged / self.log_entries


class System:
    """One simulated machine, ready to run workload threads."""

    def __init__(self, config: SystemConfig):
        config.validate()
        self.config = config
        self.engine = Engine()
        self.stats = Stats()
        self.layout = AddressLayout(config.data_bytes, config.memory, config.log)
        self.image = MemoryImage(self.layout.total_bytes,
                                 line_checksums=config.memory.line_checksums)
        self.topology = Topology(
            config.cores.num_cores, config.memory.num_controllers, config.noc
        )
        self.mesh = Mesh(
            self.engine, self.topology, config.noc, self.stats.domain("mesh")
        )
        self.controllers = [
            MemoryController(
                self.engine, mc_id, config.memory, self.image, self.layout,
                self.stats,
            )
            for mc_id in range(config.memory.num_controllers)
        ]
        self.aus_allocator = AusAllocator(config.log.aus_per_controller)
        self.redo: RedoManager | None = None
        if design_uses_logm(config.design):
            for mc in self.controllers:
                mc.logm = LogManager(
                    self.engine, mc, self.layout, self._logm_config(), self.stats,
                    source_logging=(config.design is Design.ATOM_OPT),
                )
                mc.logm.on_truncate = self.note_truncated
        self.l2 = SharedL2(
            self.engine, self.topology, self.mesh, config.hierarchy.l2_tile,
            self.image, self.layout, self.controllers, self.stats,
        )
        self.l1s = [
            L1Cache(core_id, config.hierarchy.l1, config.hierarchy.mshrs,
                    self.stats.domain(f"l1.{core_id}"))
            for core_id in range(config.cores.num_cores)
        ]
        self.l2.attach_l1s(self.l1s)
        self.lockmgr = LockManager(
            self.engine, self.topology, self.mesh, self.stats.domain("locks")
        )
        self.policy = make_policy(self)
        if config.design is Design.REDO:
            self.redo = RedoManager(self)
            for mc in self.controllers:
                mc.victim_cache = VictimCache(
                    config.redo.victim_capacity,
                    self.stats.domain(f"victim{mc.mc_id}"),
                )
            self.l2.park_dirty_eviction = self.redo.park_dirty_eviction
        self.cores = [
            Core(core_id, config.cores, self.engine, self.l1s[core_id],
                 self.l2, self.image, self.policy, self.lockmgr, self.stats)
            for core_id in range(config.cores.num_cores)
        ]
        for core in self.cores:
            core.aus_slot = None
        self.heap = Heap(
            config.data_bytes, arenas=config.cores.num_cores
        )
        self.invariant_checker: InvariantChecker | None = None
        if config.debug.check_invariants:
            self.invariant_checker = InvariantChecker(self)
        #: Optional fault injector (repro.faults.models.FaultInjector):
        #: turns the whole-machine power cut in crash() into a partial
        #: failure (controller loss, torn log write, ADR truncation,
        #: log corruption).  Installed via FaultInjector.install().
        self.fault_injector = None
        #: Optional lifecycle tracer (repro.obs.trace.Tracer): records
        #: transaction spans and machine-level instants in simulated
        #: cycles.  Installed via Tracer.install(); read-only — a
        #: traced run is bit-identical to an untraced one.
        self.tracer = None
        #: Crash windows the machine was inside at the cut (sampled at
        #: the top of crash(), before any state mutates).
        self.crash_windows: list[str] = []
        self._crashed = False
        #: Set when a pause event (see pause_at) stopped the last run().
        self.paused = False
        self._done_cores: set[int] = set()
        #: Commit broadcasts in flight: core -> {info, cleared, total}.
        #: The durability point of an undo-logged transaction is the
        #: *first* controller truncating its log (rollback becomes
        #: impossible); a crash mid-broadcast completes the remaining
        #: truncations inside the ADR window so truncation stays
        #: all-or-nothing across controllers.
        self._commit_intents: dict[int, dict] = {}
        #: Fired as fn(core_id, info) on every transaction commit.
        self.on_commit: Callable[[int, object], None] | None = None
        for core in self.cores:
            core.on_commit = self._commit_hook
            core.on_done = self._core_done

    def _logm_config(self):
        """LogM geometry for this design (BASE disables LEC/posting)."""
        if self.config.design is Design.BASE:
            return self.config.log.__class__(
                **{**self.config.log.__dict__, "collation": False,
                   "posted": False}
            )
        return self.config.log

    def _commit_hook(self, core_id: int, info) -> None:
        if self.on_commit is not None:
            self.on_commit(core_id, info)

    # -- commit truncation protocol (undo designs) ------------------------------

    def begin_commit_intent(self, core_id: int, info, total: int) -> None:
        """Register a commit broadcast about to fan out to ``total`` MCs."""
        self._commit_intents[core_id] = {
            "info": info, "cleared": 0, "total": total,
        }

    def note_truncated(self, core_id: int) -> None:
        """One controller truncated ``core_id``'s log.

        The first truncation is the transaction's durability point: the
        committed state can no longer be rolled back, so the golden
        model and the throughput counters advance here.
        """
        intent = self._commit_intents.get(core_id)
        if intent is None:
            return
        intent["cleared"] += 1
        if intent["cleared"] == 1:
            self.cores[core_id].notify_commit(intent["info"])
        if intent["cleared"] >= intent["total"]:
            del self._commit_intents[core_id]

    def _core_done(self, core_id: int) -> None:
        """Stop the engine the moment the last thread finishes, so the
        finish cycle (and thus throughput) is exact."""
        self._done_cores.add(core_id)
        if len(self._done_cores) >= len(self.cores):
            self.engine.stop()

    # -- running -------------------------------------------------------------------

    def start_threads(self, threads) -> None:
        """Attach one generator per core (fewer threads than cores is
        fine; the extra cores idle)."""
        if len(threads) > len(self.cores):
            raise SimulationError(
                f"{len(threads)} threads exceed {len(self.cores)} cores"
            )
        for core_id, thread in enumerate(threads):
            self.cores[core_id].start(thread)
        for core in self.cores[len(threads):]:
            core.done = True
            self._done_cores.add(core.core_id)

    def run(self, max_cycles: int | None = None,
            max_events: int | None = None) -> int:
        """Run until all threads finish (or a limit, crash or pause hits).

        Returns the finish cycle.  Raises when the engine goes idle with
        unfinished threads — a deadlock in the modelled hardware.  After
        a pause (:meth:`pause_at`), calling ``run`` again resumes.

        The cyclic garbage collector is suspended for the duration of
        the loop: event callbacks are closure/generator-heavy and the
        collector's scans cost measurable wall-clock without freeing
        anything the simulation still needs.  Reference counting still
        reclaims the vast majority of event garbage immediately; the
        cycles are swept when the collector is re-enabled.
        """
        self.paused = False
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                dispatched = self.engine.run(until=max_cycles,
                                             max_events=max_events)
                if self._crashed or self.paused:
                    break
                if len(self._done_cores) >= len(self.cores):
                    break
                if max_cycles is not None and self.engine.now >= max_cycles:
                    break
                if max_events is not None:
                    break
                if dispatched == 0 and self.engine.idle():
                    stuck = [c.core_id for c in self.cores if not c.done]
                    raise SimulationError(
                        f"deadlock: engine idle with cores {stuck} unfinished"
                    )
        finally:
            if gc_was_enabled:
                gc.enable()
        return self.engine.now

    def all_done(self) -> bool:
        """True once every thread has finished."""
        return len(self._done_cores) >= len(self.cores)

    def drain(self, max_events: int = 10_000_000) -> int:
        """Quiesce the machine after ``run()`` returned.

        ``run`` stops the moment the last thread finishes (so measured
        cycles are exact); in-flight background work — store-queue
        drains of non-atomic tails, posted log writes, the REDO
        backend's in-place applies — keeps running here until the event
        queue empties.  Returns the quiesce cycle.
        """
        self.engine.run(max_events=max_events)
        return self.engine.now

    # -- crash & recovery -------------------------------------------------------------

    def sample_crash_windows(self) -> list[str]:
        """Which modelled crash windows the machine is inside right now.

        Sampled at the top of :meth:`crash` — before the cut mutates
        any state — so the litmus coverage layer can attribute each
        crash point to the hardware activity it interrupted (see
        :data:`CRASH_WINDOWS`).  ``["quiescent"]`` when nothing
        durability-critical was in flight.
        """
        windows: list[str] = []
        if any(core.commit_flushing for core in self.cores):
            windows.append("flush-loop")
        posted = any(
            mc.logm is not None and mc.logm.posted_log_in_flight()
            for mc in self.controllers
        )
        if self.redo is not None and self.redo.log_writes_outstanding():
            posted = True
        if posted:
            windows.append("posted-log-drain")
        if self.redo is not None and self.redo.backend_apply_pending():
            windows.append("backend-apply")
        if self._commit_intents or any(
            mc.logm is not None and mc.logm.active_slots()
            for mc in self.controllers
        ):
            windows.append("adr-drain")
        return windows or ["quiescent"]

    def crash(self) -> None:
        """Power failure *now*: freeze the machine, drop volatile state.

        Channel queues are discarded (safe per Invariant 2), the ADR
        window flushes each LogM's critical structures, caches and cores
        simply stop.  After this, only ``image``'s durable contents and
        the flushed ADR blocks represent machine state.

        With a :attr:`fault_injector` installed the cut can be partial:
        surviving controllers of a controller-loss fault drain their
        write queues instead of dropping them, the torn-write model
        persists a prefix of the log line that was on the wires, the
        ADR flush honours a (possibly truncating) line budget, and the
        log-corruption model damages the durable image after the cut.
        """
        self.crash_windows = self.sample_crash_windows()
        self._crashed = True
        self.engine.stop()
        trc = self.tracer
        if trc is not None:
            trc.power_failure(self.crash_windows, self.engine.now)
        inj = self.fault_injector
        # Complete any partially-broadcast commit truncations: the first
        # controller's clear made rollback impossible, so the remaining
        # clears must land too (done here, inside the ADR window).
        for core_id, intent in list(self._commit_intents.items()):
            if intent["cleared"] > 0:
                for mc in self.controllers:
                    if mc.logm is not None:
                        mc.logm.force_truncate(core_id)
                del self._commit_intents[core_id]
        for mc in self.controllers:
            if inj is not None and inj.wants_drain() and \
                    inj.controller_survives(mc.mc_id):
                inj.note_drained(mc.mc_id, mc.drain_for_shutdown())
            else:
                dropped = mc.crash()
                if inj is not None:
                    inj.note_controller_dropped(mc.mc_id, dropped)
        if inj is not None:
            # Torn line write: happens at the instant of the cut, after
            # the queues (which held the rest of the FIFO) are gone.
            inj.at_power_failure(self)
        for mc in self.controllers:
            if mc.logm is not None:
                budget = inj.adr_budget_lines(mc.mc_id) if inj else None
                blob = adr_mod.flush_on_power_failure(
                    mc.logm, self.image, self.layout, max_lines=budget
                )
                if budget is not None and len(blob) > budget * CACHE_LINE_BYTES:
                    inj.note_adr_truncated(mc.mc_id)
                if trc is not None:
                    trc.adr_flush(mc.mc_id, len(blob), self.engine.now)
        if self.redo is not None:
            self.redo.crash()
        self.image.crash()
        if inj is not None:
            inj.after_crash(self)

    def crash_at(self, cycle: int) -> None:
        """Schedule a crash at an absolute cycle (before running)."""
        self.engine.at(cycle, self.crash)

    def pause_at(self, cycle: int) -> Event:
        """Schedule a pause at an absolute cycle (before running).

        When the pause fires, :meth:`run` returns with :attr:`paused`
        set and the machine intact: power is not cut.  Scheduled at the
        spot a :meth:`crash_at` call would take, the pause stops the run
        at exactly the dispatch position that crash would fire at.  The
        returned handle re-arms at a later cycle (``Engine.rearm``),
        keeping that position, so one run can stop at a whole series of
        crash cycles.
        """
        return self.engine.at(cycle, self._pause)

    def _pause(self) -> None:
        self.paused = True
        self.engine.stop()

    @property
    def crashed(self) -> bool:
        """True once :meth:`crash` has run (power was cut)."""
        return self._crashed

    def recover(self, *,
                write_budget: int | None = None,
                ) -> recovery_mod.RecoveryReport:
        """Run the post-crash recovery routine on the durable image.

        The returned report carries the recovery-time analytics
        (``report.cost``): log lines scanned, records undone/applied,
        validation rejections, and the modeled recovery cycles under
        this machine's NVM timing parameters.

        ``write_budget`` caps the pass's durable writes — the crash-storm
        harness (:mod:`repro.faults.storm`) uses it to model power dying
        again *during* recovery; ``report.interrupted`` records the cut.
        """
        if self.config.design is Design.REDO:
            report = recovery_mod.RecoveryReport()
            if self.redo is not None:
                report.updates_rolled_back = self.redo.recover(
                    write_budget=write_budget
                )
                report.cost = self.redo.last_recovery_cost
                report.corrupt_lines = list(self.redo.last_corrupt_lines)
                report.interrupted = self.redo.last_recovery_interrupted
            return report
        return recovery_mod.recover(self.image, self.layout, self.config.log,
                                    mem=self.config.memory,
                                    write_budget=write_budget)

    # -- results --------------------------------------------------------------------------

    def result(self) -> SimResult:
        """Collect a run summary from the statistics registry."""
        txns = int(self.stats.total("txns_committed", prefix="core"))
        sq_full = int(self.stats.total("sq_full_cycles", prefix="core"))
        entries = int(self.stats.total("entries", prefix="logm"))
        source = int(self.stats.total("source_logged", prefix="logm"))
        if self.config.design is Design.REDO:
            entries = int(self.stats.domain("redo").get("entries"))
        return SimResult(
            design=self.config.design,
            cycles=self.engine.now,
            txns_committed=txns,
            sq_full_cycles=sq_full,
            source_logged=source,
            log_entries=entries,
            crashed=self._crashed,
            stats=self.stats.as_dict(),
        )

    def __repr__(self) -> str:
        return (
            f"System(design={self.config.design.value}, "
            f"cores={len(self.cores)}, now={self.engine.now})"
        )
