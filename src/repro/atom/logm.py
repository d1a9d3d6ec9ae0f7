"""LogM: the log-manage module embedded in each memory controller.

Responsibilities (paper section IV-C):

* **Appending entries.**  A log write request from an L1's LogI module
  (or from the source-logging fill path) collates the old-value payload
  into the current 512 B record: the entry's data line is written to the
  log region immediately, and its address is added to the record header
  *register* — which is the posted-log **lock** on that line.
* **Closing records.**  After seven entries (or on an early flush forced
  by a data-write address match, or at the explicit request of a
  non-collating design) the header line is written out once every entry
  data line has persisted.  Header persistence makes the record's entries
  durable and **unlocks** their lines.
* **Gating data writes** (`gate_data_write`): before any data line is
  scheduled to the NVM, its address is matched against the open record
  header (1-cycle match, Table I discussion).  A hit forces the header to
  persist first — this is how Invariant 2 is enforced entirely inside
  the memory controller, off the store critical path.
* **Bucket management**: allocation from the NOR-derived free list,
  single-cycle truncation on commit, and the two overflow behaviours of
  section IV-E.

Design knobs (all from :class:`~repro.config.LogConfig` / the design
policies): ``collation`` off makes every entry its own record (two writes
per entry — the paper's uncollated baseline costing), ``posted`` off
makes :meth:`append` ack only at entry durability (the BASE design), and
source logging is enabled only for ATOM-OPT.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.atom.aus import AusState, BucketAllocator
from repro.atom.record import OpenRecord
from repro.common.errors import LogOverflowError
from repro.common.stats import Stats
from repro.common.units import CACHE_LINE_BYTES, line_of
from repro.config import LogConfig
from repro.engine import Engine
from repro.mem.layout import AddressLayout, RecordAddress

#: Cycles to match a data write's address against the open record
#: header before it may issue (paper section V: "address match latency
#: of 1 cycle").
HEADER_MATCH_CYCLES = 1


class _EntryPersist:
    """Completion of one undo-entry data-line write (``__slots__``
    continuation instead of a per-append closure)."""

    __slots__ = ("record", "on_durable")

    def __init__(self, record, on_durable):
        self.record = record
        self.on_durable = on_durable

    def __call__(self) -> None:
        self.record.data_persisted += 1
        if self.on_durable is not None:
            self.on_durable()


class _HeaderPersist:
    """Completion of one record-header write (the unlock)."""

    __slots__ = ("logm", "record")

    def __init__(self, logm, record):
        self.logm = logm
        self.record = record

    def __call__(self) -> None:
        self.logm._header_persisted(self.record)


class LogManager:
    """One memory controller's LogM module."""

    def __init__(
        self,
        engine: Engine,
        mc,  # MemoryController; typed loosely to avoid an import cycle
        layout: AddressLayout,
        cfg: LogConfig,
        stats: Stats,
        *,
        source_logging: bool = False,
    ):
        self.engine = engine
        self.mc = mc
        self.layout = layout
        self.cfg = cfg
        self.stats = stats.domain(f"logm{mc.mc_id}")
        # Hot-path counters, bound once (see StatDomain.counter).
        self._add_entries = self.stats.counter("entries")
        self._add_source_logged = self.stats.counter("source_logged")
        self._add_records_closed = self.stats.counter("records_closed")
        self._add_headers_written = self.stats.counter("headers_written")
        self.supports_source_logging = source_logging
        self.aus = [
            AusState(slot, cfg.buckets_per_controller)
            for slot in range(cfg.aus_per_controller)
        ]
        self.buckets = BucketAllocator(cfg)
        #: Entries collated per record (constant per design config).
        #: Collation requires co-location: without it the data-write
        #: gate at the data's controller cannot force this controller's
        #: header out, so open records could linger forever — every
        #: entry closes its own record instead.
        self._close_thresh = (
            cfg.entries_per_record if cfg.collation and cfg.colocate else 1
        )
        #: Byte offset of the header line within a record.
        self._header_offset = cfg.entries_per_record * CACHE_LINE_BYTES
        #: Locked line -> number of in-flight (non-durable) undo entries.
        #: A line may be logged more than once in one update (the log bit
        #: dies with an eviction), so locks are counted, not boolean.
        self._locks: dict[int, int] = {}
        #: Locked line -> callbacks waiting for its undo entry to persist.
        self._gate_waiters: dict[int, list[Callable[[], None]]] = {}
        #: core id -> AUS slot, maintained by begin()/commit().
        self._core_slot: dict[int, int] = {}
        #: Appends stalled on a log overflow, retried when buckets free.
        self._overflow_waiters: deque[Callable[[], None]] = deque()
        #: Set by the system builder: fn(core_id) invoked after commit()
        #: truncates a core's log (the cross-controller durability point).
        self.on_truncate: Callable[[int], None] | None = None
        #: Global per-controller record sequence counter; every record
        #: header is stamped with the next value.  Together with each
        #: AUS's update_start_seq register this lets recovery reject
        #: stale headers in reallocated buckets.
        self._seq = 0
        #: Lifecycle tracer (repro.obs.trace.Tracer) or None — the
        #: injector-gate pattern; checked per append/header-persist.
        self.tracer = None

    # -- atomic update lifecycle ------------------------------------------------

    def begin(self, core: int, slot: int) -> None:
        """Register that ``core`` runs its update in AUS ``slot``."""
        self._core_slot[core] = slot

    def slot_of(self, core: int) -> int | None:
        """AUS slot of a core's in-flight update (None outside one)."""
        return self._core_slot.get(core)

    def commit(self, core: int, on_done: Callable[[], None]) -> None:
        """Truncate the update's log: single-cycle bit-vector clear.

        The core only sends commit after all of the update's data flushes
        have persisted, so every locked line has already forced its header
        out and the open-record register is empty of durability-relevant
        state (any leftover entries cover lines whose new values are
        already durable — discarding them is safe and matches the paper's
        "clear the bit vector" truncation).
        """
        slot = self._core_slot.pop(core, None)
        if slot is not None:
            state = self.aus[slot]
            if state.open_record is not None:
                self._discard_open_record(state)
            state.reset()
            self.stats.add("commits")
            self._retry_overflow_waiters()
        trc = self.tracer
        if trc is not None:
            trc.log_truncate(self, core, self.engine.now)
        if self.on_truncate is not None:
            self.on_truncate(core)
        self.engine.post(1, on_done)

    def force_truncate(self, core: int) -> None:
        """Crash-window truncation completion (no callbacks, idempotent).

        Called while servicing a power failure when another controller
        already truncated this core's log: truncation must be
        all-or-nothing across controllers.
        """
        slot = self._core_slot.pop(core, None)
        if slot is not None:
            state = self.aus[slot]
            state.open_record = None
            state.reset()
            self.stats.add("forced_truncations")

    def _discard_open_record(self, state: AusState) -> None:
        """Drop an open record at commit; release any gate waiters."""
        record = state.open_record
        state.open_record = None
        trc = self.tracer
        if trc is not None:
            trc.log_record_discarded(record, len(record.addresses),
                                     self.engine.now)
        for addr in record.addresses:
            self._release_gate(addr)
        for fn in record.on_durable:
            self.engine.post(0, fn)

    # -- entry append (the log write path) ------------------------------------------

    def append(
        self,
        core: int,
        data_addr: int,
        payload: bytes,
        *,
        on_locked: Callable[[], None] | None = None,
        on_durable: Callable[[], None] | None = None,
        source: bool = False,
    ) -> None:
        """Collate one undo entry (old value of ``data_addr``'s line).

        ``on_locked`` fires as soon as the address sits in the header
        register — the posted-log ack point (Figure 3(b), Ack(A) after
        LA(A)).  ``on_durable`` fires when the entry's record header has
        persisted — the BASE design's ack point (Figure 3(a), PL(A)).
        """
        slot = self._core_slot.get(core)
        if slot is None:
            # Update already committed (e.g. a straggler source log after
            # the flush raced ahead); nothing to protect.
            if on_locked:
                on_locked()
            if on_durable:
                self.engine.post(0, on_durable)
            return
        state = self.aus[slot]
        record = self._open_record_with_space(state)
        if record is None:
            # Log overflow: the OS interrupt grows the log (section IV-E).
            self.stats.add("log_overflows")
            self._overflow_waiters.append(
                lambda: self.append(
                    core, data_addr, payload,
                    on_locked=on_locked, on_durable=on_durable, source=source,
                )
            )
            self._check_overflow_progress()
            return
        line_addr = data_addr & ~(CACHE_LINE_BYTES - 1)
        slot_index = len(record.addresses)
        record.addresses.append(line_addr)
        self._locks[line_addr] = self._locks.get(line_addr, 0) + 1
        durable_at_data = None
        if on_durable is not None:
            if self._close_thresh == 1:
                # Uncollated mode (BASE / no co-location): the ack fires
                # when the entry's data line persists — the header
                # follows in FIFO order and the data-write gate, not the
                # ack, is what enforces Invariant 2.
                durable_at_data = on_durable
            else:
                record.on_durable.append(on_durable)
        self._add_entries()
        trc = self.tracer
        if trc is not None:
            trc.log_append(self, record, core, self.engine.now)
        if source:
            self._add_source_logged()
        if on_locked is not None:
            on_locked()
        # Write the entry's data line into the log region (the record's
        # base address was computed once at open).
        entry_addr = record.base_addr + slot_index * CACHE_LINE_BYTES
        self.mc.write_log_line(
            entry_addr, payload,
            on_persist=_EntryPersist(record, durable_at_data),
        )
        if len(record.addresses) >= self._close_thresh:
            self._close_record(state, record)

    def _open_record_with_space(self, state: AusState) -> OpenRecord | None:
        """Current open record, opening a fresh one when needed."""
        record = state.open_record
        if record is not None and not record.closing:
            if len(record.addresses) < self._close_thresh:
                return record
        if record is not None and not record.closing:
            # Shouldn't happen (closed at threshold), but stay safe.
            self._close_record(state, record)
        return self._open_new_record(state)

    def _open_new_record(self, state: AusState) -> OpenRecord | None:
        if state.current_bucket is None or (
            state.current_record >= self.cfg.records_per_bucket
        ):
            bucket = self.buckets.allocate(state, self.aus)
            if bucket is None:
                return None
            self.stats.add("buckets_allocated")
        seq = self._seq
        self._seq += 1
        if state.update_start_seq is None:
            state.update_start_seq = seq
        record = OpenRecord(
            bucket=state.current_bucket,
            record=state.current_record,
            owner=state.slot,
            seq=seq,
        )
        record.base_addr = self.layout.record_base(
            RecordAddress(self.mc.mc_id, record.bucket, record.record)
        )
        state.open_record = record
        return record

    # -- record closing / header persistence -----------------------------------------

    def _close_record(self, state: AusState, record: OpenRecord) -> None:
        """Stop collating into ``record`` and write its header out.

        Recovery requires that a valid header imply valid entry payloads
        beneath it.  The channel write queue drains strictly FIFO, and
        every entry data line was enqueued before this header write, so
        issue order alone guarantees persist order — no waiting on the
        data persists is needed.  A crash drops queued writes wholesale,
        which can only leave the header missing, never early; the one
        write *on the wires* at the cut can additionally tear (persist a
        prefix of its bytes), which the header's checksum catches — see
        :mod:`repro.atom.record` and the torn-log-write fault model.
        """
        if record.closing:
            return
        record.closing = True
        self._add_records_closed()
        # Detach so new appends open a fresh record; the closing record
        # lives on in the gate bookkeeping until its header persists.
        if state.open_record is record:
            state.open_record = None
            state.current_record += 1
        header_addr = record.base_addr + self._header_offset
        self._add_headers_written()
        self.mc.write_log_line(
            header_addr,
            record.header().encode(),
            on_persist=_HeaderPersist(self, record),
        )

    def _header_persisted(self, record: OpenRecord) -> None:
        """The unlock: entries are durable, gated data writes may go."""
        trc = self.tracer
        if trc is not None:
            trc.log_record_durable(record, len(record.addresses),
                                   self.engine.now)
        for addr in record.addresses:
            self._release_gate(addr)
        for fn in record.on_durable:
            fn()
        record.on_durable = []

    # -- the data-write gate (Invariant 2 at the controller) ---------------------------

    def is_locked(self, addr: int) -> bool:
        """True if the line's undo entry is not yet durable."""
        return line_of(addr) in self._locks

    def gate_data_write(self, addr: int, release: Callable[[], None]) -> None:
        """Hold a data write until the line's undo entry is durable.

        Models the 1-cycle address match against the record header; on a
        match the header is flushed early (closing the record), exactly
        as described in section IV-C.
        """
        line_addr = addr & ~(CACHE_LINE_BYTES - 1)
        if line_addr not in self._locks:
            self.engine.post(HEADER_MATCH_CYCLES, release)
            return
        self.stats.add("gated_data_writes")
        self._gate_waiters.setdefault(line_addr, []).append(release)
        self._force_header_for(line_addr)

    def _force_header_for(self, line_addr: int) -> None:
        """Early header flush for a locked line's open record."""
        for state in self.aus:
            record = state.open_record
            if record is not None and record.holds(line_addr):
                self.stats.add("early_header_flushes")
                self._close_record(state, record)
                return
        # Already closing: header persist in flight; nothing to do.

    def _release_gate(self, line_addr: int) -> None:
        """Drop one lock count; release waiters at zero."""
        count = self._locks.get(line_addr)
        if count is None:
            return
        if count > 1:
            self._locks[line_addr] = count - 1
            return
        del self._locks[line_addr]
        waiters = self._gate_waiters.pop(line_addr, None)
        if not waiters:
            return
        for fn in waiters:
            self.engine.post(HEADER_MATCH_CYCLES, fn)

    # -- source logging (section III-D) ------------------------------------------------

    def source_log(self, core: int, addr: int, nvm_payload: bytes) -> bool:
        """Log the just-read old value during a fetch-exclusive fill.

        Returns True when the entry was created, in which case the fill
        reply carries the log bit pre-set (Data*(A) in Figure 3(d)) and
        the L1 sends no log write for this store.
        """
        if self._core_slot.get(core) is None:
            return False
        self.append(core, addr, nvm_payload, source=True)
        return True

    # -- overflow plumbing -----------------------------------------------------------

    def _retry_overflow_waiters(self) -> None:
        waiters, self._overflow_waiters = self._overflow_waiters, deque()
        for fn in waiters:
            self.engine.post(self.cfg.os_overflow_cycles, fn)

    def _check_overflow_progress(self) -> None:
        """Raise when an overflow can never be satisfied.

        If no other update holds any bucket, waiting is futile — the
        requesting update alone exhausted the region, and the modelled OS
        has no more pages to give.
        """
        holders = sum(1 for state in self.aus if state.bucket_vec.any())
        if holders <= 1 and len(self._overflow_waiters) > 0:
            free = self.buckets.free_list(self.aus)
            if free.find_first_one() is None:
                raise LogOverflowError(
                    f"controller {self.mc.mc_id}: log region exhausted by a "
                    f"single atomic update; increase "
                    f"LogConfig.buckets_per_controller"
                )

    # -- crash support ------------------------------------------------------------------

    def posted_log_in_flight(self) -> bool:
        """True while any log entry write is still on its way to NVM.

        Locked lines are exactly the data lines whose undo entries are
        posted (or queued) but not yet durable — the "posted-log drain"
        crash window sampled by ``System.crash``.
        """
        return bool(self._locks)

    def active_slots(self) -> list[int]:
        """AUS slots holding live update state."""
        return [s.slot for s in self.aus if s.active()]
