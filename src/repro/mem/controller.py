"""Memory controller: channel arbitration plus the LogM attachment point.

The controller is where ATOM enforces the ``log -> data`` ordering
constraint (paper section III-C): every *data* write is gated through the
attached LogM module, which compares the address against the current
record header register.  On a match the header is persisted first (closing
the record and unlocking its lines), and only then is the data write
released to the channel — Invariant 2 without any core-side waiting.

With two channels per controller (the ``*-2C`` configurations of
Figure 7), channel 0 carries data traffic and channel 1 carries log
traffic, mirroring the configuration of Doshi et al. [14].

The controller also exposes the fill path hook used by *source logging*
(section III-D): a fetch-exclusive that is served from the NVM array may
be logged directly by the controller, with the reply telling the L1 that
the log bit should be pre-set.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.common.stats import Stats
from repro.common.units import CACHE_LINE_BYTES
from repro.config import MemoryConfig
from repro.engine import Engine
from repro.mem.channel import AccessKind, Channel
from repro.mem.image import MemoryImage
from repro.mem.layout import AddressLayout


class _FetchDone:
    """Continuation of one NVM fill read (channel ``on_done``).

    A ``__slots__`` object instead of a nested closure: the fill path
    runs once per L2 miss and the reference closures were a measurable
    share of allocator traffic (see ISSUE 5's allocation-free
    completion chains).
    """

    __slots__ = ("mc", "addr", "on_data", "exclusive", "atomic_core")

    def __init__(self, mc, addr, on_data, exclusive, atomic_core):
        self.mc = mc
        self.addr = addr
        self.on_data = on_data
        self.exclusive = exclusive
        self.atomic_core = atomic_core

    def __call__(self) -> None:
        mc = self.mc
        payload = mc.image.durable_line(self.addr)
        source_logged = False
        logm = mc.logm
        if (
            self.exclusive
            and self.atomic_core is not None
            and logm is not None
            and logm.supports_source_logging
        ):
            source_logged = logm.source_log(
                self.atomic_core, self.addr, payload
            )
        self.on_data(payload, source_logged)


class _DataWrite:
    """Continuation pair of one gated data-line write.

    ``release`` (bound method) runs when the LogM gate opens and
    submits the write; the object itself is the channel completion
    (``__call__`` persists the payload).
    """

    __slots__ = ("mc", "addr", "payload", "on_persist", "backend_apply")

    def __init__(self, mc, addr, payload, on_persist, backend_apply):
        self.mc = mc
        self.addr = addr
        self.payload = payload
        self.on_persist = on_persist
        self.backend_apply = backend_apply

    def release(self) -> None:
        mc = self.mc
        taps = mc.fault_taps
        if taps is not None:
            # Post-gate tap: only a write the hardware actually issued
            # can tear — one still held by the LogM gate never reached
            # the wires (tearing it would sidestep Invariant 2).
            taps.note_data_write(mc.mc_id, self.addr, self.payload)
        mc._submit_write(
            mc.data_channel, AccessKind.DATA_WRITE, self.addr,
            len(self.payload), self,
        )

    def __call__(self) -> None:
        self.mc._persist(
            self.addr, self.payload, self.on_persist,
            check=True, backend_apply=self.backend_apply,
        )
        taps = self.mc.fault_taps
        if taps is not None:
            # After _persist, so the tap also fires for quiet-drain
            # persists (which skip on_persist): a drained line is on the
            # cells and must leave the in-flight FIFO.
            taps.note_data_persisted(self.mc.mc_id, self.addr)


class _LogRead:
    """Channel completion of one log-region read-back."""

    __slots__ = ("mc", "addr", "on_data")

    def __init__(self, mc, addr, on_data):
        self.mc = mc
        self.addr = addr
        self.on_data = on_data

    def __call__(self) -> None:
        self.on_data(self.mc.image.durable_line(self.addr))


class _WriteRetry:
    """Backpressure retry: re-submit a write whenever a slot frees."""

    __slots__ = ("channel", "kind", "addr", "size", "on_done", "priority")

    def __init__(self, channel, kind, addr, size, on_done, priority):
        self.channel = channel
        self.kind = kind
        self.addr = addr
        self.size = size
        self.on_done = on_done
        self.priority = priority

    def __call__(self) -> None:
        channel = self.channel
        if not channel.write(self.kind, self.addr, self.size, self.on_done,
                             priority=self.priority):
            channel.when_write_space(self)


class _LogWrite:
    """Channel completion of one log-region write."""

    __slots__ = ("mc", "addr", "payload", "on_persist")

    def __init__(self, mc, addr, payload, on_persist):
        self.mc = mc
        self.addr = addr
        self.payload = payload
        self.on_persist = on_persist

    def __call__(self) -> None:
        self.mc._persist(self.addr, self.payload, self.on_persist,
                         check=False)


class MemoryController:
    """One of the (typically four) on-die memory controllers."""

    def __init__(
        self,
        engine: Engine,
        mc_id: int,
        cfg: MemoryConfig,
        image: MemoryImage,
        layout: AddressLayout,
        stats: Stats,
    ):
        self.engine = engine
        self.mc_id = mc_id
        self.cfg = cfg
        self.image = image
        self.layout = layout
        self.stats = stats.domain(f"mc{mc_id}")
        # Hot-path counters, bound once (see StatDomain.counter).
        self._add_fills = self.stats.counter("fills")
        self._add_data_writes = self.stats.counter("data_writes")
        self._add_log_writes = self.stats.counter("log_writes")
        self._channels = [
            Channel(engine, cfg, stats.domain(f"mc{mc_id}.ch{c}"), f"mc{mc_id}.ch{c}")
            for c in range(cfg.channels_per_controller)
        ]
        #: Attached log manager (undo designs) — set by the system builder.
        self.logm = None
        #: Fault taps (set by FaultTaps.install): record the log- and
        #: data-region writes in flight so the fault models know the
        #: line on the wires.  None in normal runs — the hot path pays
        #: one predictable branch.
        self.fault_taps = None
        #: Attached redo backend (REDO design) — set by the system builder.
        self.redo_backend = None
        #: Victim cache (REDO design) — set by the system builder.
        self.victim_cache = None
        #: Invariant-checking hook: called as fn(addr, backend_apply)
        #: just before a data line persists.  Installed by
        #: repro.atom.invariants in tests; ``backend_apply`` flags the
        #: REDO backend's in-place applies so the checker can exempt
        #: exactly the rules those writes legitimately relax.
        self.pre_persist_check: Callable[[int, bool], None] | None = None
        #: True while drain_for_shutdown empties the queues: persists
        #: update the durable image but fire no callbacks (the machine
        #: is dead; an ack must not resume a core mid-power-failure).
        self._quiet_drain = False

    # -- channel selection ----------------------------------------------------

    @property
    def data_channel(self) -> Channel:
        return self._channels[0]

    @property
    def log_channel(self) -> Channel:
        """Log traffic uses the second channel when one exists."""
        return self._channels[-1]

    @property
    def channels(self) -> list[Channel]:
        return list(self._channels)

    # -- read path ---------------------------------------------------------------

    def fetch_line(
        self,
        addr: int,
        on_data: Callable[[bytes, bool], None],
        *,
        exclusive: bool = False,
        atomic_core: int | None = None,
    ) -> None:
        """Read a line from NVM for a cache fill.

        ``on_data(payload, source_logged)`` is invoked with the durable
        line contents.  When the fetch is exclusive, comes from a core
        inside an atomic region, and a LogM is attached, the controller
        attempts source logging: the just-read old value goes straight
        into the undo log and the reply carries ``source_logged=True`` so
        the L1 sets the log bit on fill (Figure 3(d)).
        """
        self._add_fills()

        if self.victim_cache is not None and self.victim_cache.holds(addr):
            # The line is parked at the controller (REDO): serve it
            # without an NVM array access.
            self.stats.add("victim_hits")
            self.engine.post(
                4, lambda: on_data(self.image.volatile_line(addr), False)
            )
            return

        self.data_channel.read(
            AccessKind.DATA_READ, addr, CACHE_LINE_BYTES,
            _FetchDone(self, addr, on_data, exclusive, atomic_core),
        )

    def read_log_line(self, addr: int, on_data: Callable[[bytes], None]) -> None:
        """Read a log line back from NVM (REDO backend apply path)."""
        self.log_channel.read(AccessKind.LOG_READ, addr, CACHE_LINE_BYTES,
                              _LogRead(self, addr, on_data))

    # -- write paths -----------------------------------------------------------

    def write_data_line(
        self,
        addr: int,
        payload: bytes,
        on_persist: Callable[[], None] | None = None,
        *,
        backend_apply: bool = False,
    ) -> None:
        """Persist a data line, honouring the LogM ordering gate.

        The payload was snapshotted by the sender (cache writeback or
        flush); it lands in the durable image when the write completes.

        ``backend_apply`` marks the REDO backend's in-place applies.
        The invariant checker exempts them from the parked-line rule
        only: the victim cache parks a line to keep a *later,
        uncommitted* transaction's bytes off the NVM, while the backend
        apply persists an *earlier committed* transaction's
        reconstruction of that very line — a legitimate write the
        litmus catalog's victim-parking scenario exercises (a dirty
        eviction parking between a transaction's commit and its
        in-place apply).
        """
        self._add_data_writes()
        write = _DataWrite(self, addr, payload, on_persist, backend_apply)
        if self.logm is not None:
            self.logm.gate_data_write(addr, write.release)
        else:
            write.release()

    def write_log_line(
        self,
        addr: int,
        payload: bytes,
        on_persist: Callable[[], None] | None = None,
        priority: bool = False,
    ) -> None:
        """Persist a line in the log region (no ordering gate).

        ``priority`` lets commit records jump the write queue (used by
        the REDO comparator; an undo record header must *not* use it,
        as it would overtake its own entry data lines).
        """
        self._add_log_writes()
        taps = self.fault_taps
        if taps is not None:
            taps.note_log_write(self.mc_id, addr, payload)
            inner = on_persist

            def on_persist() -> None:  # noqa: F811 — deliberate rebind
                taps.note_log_persisted(self.mc_id, addr)
                if inner is not None:
                    inner()

        self._submit_write(
            self.log_channel, AccessKind.LOG_WRITE, addr, len(payload),
            _LogWrite(self, addr, payload, on_persist),
            priority=priority,
        )

    # -- internals ------------------------------------------------------------

    def _persist(
        self,
        addr: int,
        payload: bytes,
        on_persist: Callable[[], None] | None,
        *,
        check: bool,
        backend_apply: bool = False,
    ) -> None:
        if self._quiet_drain:
            # Shutdown drain: the write's bytes reach the NVM cells, but
            # nobody is alive to observe the completion — running the
            # callback chain here would resume cores (store acks, flush
            # acks) inside the power-failure window and let them issue
            # *new* post-crash work.  The invariant hook is skipped too:
            # it reasons about a running machine, not one mid-teardown.
            self.image.persist(addr, payload)
            return
        if check and self.pre_persist_check is not None:
            self.pre_persist_check(addr, backend_apply)
        self.image.persist(addr, payload)
        if on_persist is not None:
            on_persist()

    def _submit_write(
        self,
        channel: Channel,
        kind: AccessKind,
        addr: int,
        size: int,
        on_done: Callable[[], None],
        priority: bool = False,
    ) -> None:
        """Enqueue a write, retrying transparently under backpressure."""
        if channel.write(kind, addr, size, on_done, priority=priority):
            return
        channel.when_write_space(
            _WriteRetry(channel, kind, addr, size, on_done, priority)
        )

    # -- crash ------------------------------------------------------------------

    def crash(self) -> int:
        """Power failure: drop all in-flight channel work.

        Returns the number of dropped requests.  Invariant 2 makes the
        drop safe (section IV-D): any data write still queued has its undo
        entry either durable or also still queued.
        """
        return sum(ch.drop_pending() for ch in self._channels)

    def pending_requests(self) -> int:
        """What :meth:`crash` would drop, without dropping anything."""
        return sum(ch.pending_requests() for ch in self._channels)

    def queued_writes(self) -> list[tuple[int, bytes]]:
        """``(addr, payload)`` of each write :meth:`drain_for_shutdown`
        would persist, in its order, without running a callback.

        Per channel (data, then log), as ``Channel.drain_pending``
        completes them: the writes in the device, the write queue, then
        the writers parked on backpressure (``_WriteRetry``).  A power
        cut (``System.power_cut``) persists these into its own image
        where ``System.crash`` drains the live queues.
        """
        writes = []
        for channel in self._channels:
            for done in channel.pending_writes_in_drain_order():
                if isinstance(done, _WriteRetry):
                    done = done.on_done
                writes.append((done.addr, done.payload))
        return writes

    def drain_for_shutdown(self) -> int:
        """Clean shutdown: persist every queued write before stopping.

        The controller-loss fault model's *surviving* controllers take
        this path instead of :meth:`crash`: their queued writes' bytes
        reach the NVM cells (data channel first, then the log channel —
        a gated data write in the queue already has its header durable,
        so the order is safe either way), but *quietly*: completion
        callbacks never run, because any ack delivered now would resume
        a core inside the power-failure window and let it issue new
        stores whose writebacks could persist without durable undo
        entries.  Returns the number of writes persisted.
        """
        self._quiet_drain = True
        try:
            return sum(ch.drain_pending() for ch in self._channels)
        finally:
            self._quiet_drain = False

    def __repr__(self) -> str:
        return f"MemoryController(id={self.mc_id}, channels={len(self._channels)})"
