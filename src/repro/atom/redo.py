"""The REDO comparator: Doshi et al.'s non-intrusive backend controller.

Modelled behaviour (sections V and VI-D of the ATOM paper):

* Every store inside an atomic section produces a 16-byte redo entry
  (address + new word value) — this is why REDO generates an order of
  magnitude more log entries than ATOM's one-per-first-line-write.
* Entries pass through a per-core, per-controller **write-combining
  buffer**; each full 64 B buffer is written to the controller's log
  region (on the dedicated log channel in the ``*-2C`` configurations).
* ``Atomic_End`` drains partial buffers and persists a **commit
  record**; the transaction is durable once every engaged controller's
  commit record has persisted.  No data flush is needed.
* A **backend controller** per memory controller then reads the
  transaction's log lines back from NVM (interfering with demand reads)
  and applies the updates in place.
* Dirty evictions of lines whose transaction has not been applied yet
  park in the (infinite) **victim cache** instead of reaching the NVM.

Functional crash semantics: committed-but-unapplied transactions are
redo-applied by :meth:`RedoManager.recover`; uncommitted ones vanish.
Byte-exact log parsing is implemented for the undo path (the paper's
contribution); for this comparator the durable commit/apply bookkeeping
is keyed off the same persist events the hardware would use.
"""

from __future__ import annotations

import struct
from collections import defaultdict, deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.atom.recovery import (PassWrites, RecoveryInterrupted,
                                 RecoveryReport, scrub_media)
from repro.common.stats import Stats
from repro.common.units import CACHE_LINE_BYTES, line_of
from repro.faults.analytics import line_read_cycles, redo_replay_cost

CTRL_BYTES = 8
_ENTRY = struct.Struct("<QQ")


class _LogLineWrite:
    """Arrival of one combined log line at its controller.

    ``__call__`` fires when the streamed message lands (enqueue the NVM
    write); ``drained`` when the write persists (release WC buffering).
    One ``__slots__`` object replaces the two closures the reference
    path allocated per log line.
    """

    __slots__ = ("redo", "mc", "addr", "payload", "mc_id")

    def __init__(self, redo, mc, addr, payload, mc_id):
        self.redo = redo
        self.mc = mc
        self.addr = addr
        self.payload = payload
        self.mc_id = mc_id

    def __call__(self) -> None:
        self.mc.write_log_line(self.addr, self.payload,
                               on_persist=self.drained)

    def drained(self) -> None:
        self.redo._log_write_drained(self.mc_id)


@dataclass
class _TxnState:
    """In-flight transaction bookkeeping for one core."""

    txn_id: int
    #: Ordered word writes: list of (addr, bytes) in program order.
    words: list[tuple[int, bytes]] = field(default_factory=list)
    #: Per-controller count of log lines written (for backend reads).
    log_lines: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: Per-controller pending word entries not yet combined into a line.
    wc_buffers: dict[int, list[tuple[int, bytes]]] = field(
        default_factory=lambda: defaultdict(list)
    )


class RedoManager:
    """System-wide redo log machinery (WC buffers, commit, backend)."""

    def __init__(self, system):
        self.system = system
        self.engine = system.engine
        self.mesh = system.mesh
        self.topology = system.topology
        self.layout = system.layout
        self.controllers = system.controllers
        self.image = system.image
        self.stats: Stats = system.stats
        self.dom = system.stats.domain("redo")
        cfg = system.config.redo
        self.entries_per_line = CACHE_LINE_BYTES // cfg.entry_bytes
        self._active: dict[int, _TxnState] = {}
        #: Outstanding (unpersisted) log-line writes per controller.  The
        #: write-combining datapath has finite buffering: when the NVM
        #: cannot drain log writes fast enough, stores stall — this is
        #: what makes REDO degrade super-linearly as the latency
        #: multiplier shrinks write bandwidth (Figure 8).
        self._outstanding: dict[int, int] = defaultdict(int)
        self._wcb_waiters: list[Callable[[], None]] = []
        self.wcb_capacity = 32
        #: Durable state, updated only at persist events.
        self._durable_commits: dict[int, list[tuple[int, bytes]]] = {}
        self._commit_order: list[int] = []
        self._applied: set[int] = set()
        #: line -> transactions with words on it that are not yet
        #: applied in place.  A dirty eviction must park while *any*
        #: writer is pending — checking only the last writer would let a
        #: line carrying an uncommitted transaction's bytes reach the
        #: NVM array once a later (applied) transaction touched it.
        self._line_txns: dict[int, set[int]] = {}
        #: line -> queued backend applies, reserved at *commit* time so
        #: one line's applies happen in commit order even though log
        #: read-backs complete out of order.  Each apply is a
        #: read-modify-write over the durable line, so an out-of-order
        #: or overlapping pair would persist a stale snapshot and
        #: clobber the other transaction's words — a lost update the
        #: exhaustive crash sweep catches.
        self._line_apply_q: dict[int, deque] = {}
        #: Per-(controller, core) circular log cursors.
        self._cursors: dict[tuple[int, int], int] = {}
        # Hot-path counters, bound once (see StatDomain.counter).
        self._add_entries = self.dom.counter("entries")
        self._add_wcb_stalls = self.dom.counter("wcb_stalls")
        self._add_log_line_writes = self.dom.counter("log_line_writes")
        #: Data-space interleave constants (inlined controller_of for the
        #: per-word append path; redo words are always data addresses).
        self._interleave = self.layout.interleave_bytes
        self._num_ctl = self.layout.num_controllers
        #: Per-controller base of the redo log slice (bucket 0).
        self._log_slice_base = [
            self.layout.bucket_base(mc_id, 0)
            for mc_id in range(self._num_ctl)
        ]
        self._mc_tile = [
            self.topology.mc_tile(mc_id) for mc_id in range(self._num_ctl)
        ]
        num_cores = system.config.cores.num_cores
        self._slice_bytes = (
            system.config.log.region_bytes // max(1, num_cores)
        ) // CACHE_LINE_BYTES * CACHE_LINE_BYTES
        #: Lifecycle tracer (repro.obs.trace.Tracer) or None — checked
        #: at commit/apply events only (the injector-gate pattern).
        self.tracer = None

    # -- transaction lifecycle --------------------------------------------------------

    def begin(self, core: int, txn_id: int) -> None:
        """Open a transaction for ``core``."""
        self._active[core] = _TxnState(txn_id=txn_id)

    def append(self, core: int, words, on_done: Callable[[], None]) -> None:
        """Add redo entries for one store's words (from the SQ drain).

        ``on_done`` fires once the write-combining path has buffer space
        — immediately in the common case, later when log writes have
        backed up beyond :attr:`wcb_capacity` per controller.
        """
        txn = self._active.get(core)
        if txn is None:
            on_done()
            return
        txn_words = txn.words
        line_txns = self._line_txns
        wc_buffers = txn.wc_buffers
        txn_id = txn.txn_id
        add_entry = self._add_entries
        for addr, value in words:
            txn_words.append((addr, value))
            line = addr & ~(CACHE_LINE_BYTES - 1)
            writers = line_txns.get(line)
            if writers is None:
                line_txns[line] = {txn_id}
            else:
                writers.add(txn_id)
            mc_id = (addr // self._interleave) % self._num_ctl
            buf = wc_buffers[mc_id]
            buf.append((addr, value))
            add_entry()
            if len(buf) >= self.entries_per_line:
                self._flush_wc(core, txn, mc_id)
        if max(self._outstanding.values(), default=0) <= self.wcb_capacity:
            on_done()
        else:
            self._add_wcb_stalls()
            self._wcb_waiters.append(on_done)

    def _flush_wc(self, core: int, txn: _TxnState, mc_id: int) -> None:
        """Write one combined log line; posted (the store never waits)."""
        buf = txn.wc_buffers[mc_id]
        if not buf:
            return
        payload = self._encode_line(buf)
        del txn.wc_buffers[mc_id]
        txn.log_lines[mc_id] += 1
        addr = self._next_log_addr(mc_id, core)
        mc = self.controllers[mc_id]
        core_tile = core
        mc_tile = self._mc_tile[mc_id]
        self._add_log_line_writes()
        self._outstanding[mc_id] += 1
        self.mesh.send_streamed(core_tile, mc_tile, CACHE_LINE_BYTES,
                                _LogLineWrite(self, mc, addr, payload, mc_id))

    def _log_write_drained(self, mc_id: int) -> None:
        self._outstanding[mc_id] -= 1
        if (
            self._wcb_waiters
            and max(self._outstanding.values(), default=0) <= self.wcb_capacity
        ):
            waiters, self._wcb_waiters = self._wcb_waiters, []
            for fn in waiters:
                self.engine.post(0, fn)

    def _encode_line(self, buf) -> bytes:
        parts = []
        for addr, value in buf[: self.entries_per_line]:
            word = value.ljust(8, b"\x00")[:8]
            parts.append(_ENTRY.pack(addr, int.from_bytes(word, "little")))
        blob = b"".join(parts)
        return blob.ljust(CACHE_LINE_BYTES, b"\x00")

    def _next_log_addr(self, mc_id: int, core: int) -> int:
        key = (mc_id, core)
        offset = self._cursors.get(key, 0)
        base = self._log_slice_base[mc_id] + core * self._slice_bytes
        addr = base + offset
        self._cursors[key] = (offset + CACHE_LINE_BYTES) % max(
            CACHE_LINE_BYTES, self._slice_bytes
        )
        return addr

    def commit(self, core: int, info, on_done: Callable[[], None]) -> None:
        """Drain WC buffers, persist commit records, hand off to backend."""
        txn = self._active.pop(core, None)
        if txn is None:
            self.system.cores[core].notify_commit(info)
            self.engine.post(1, on_done)
            return
        for mc_id in list(txn.wc_buffers):
            self._flush_wc(core, txn, mc_id)
        engaged = sorted(txn.log_lines) or [core % len(self.controllers)]
        remaining = {"count": len(engaged)}
        core_tile = self.topology.core_tile(core)
        trc = self.tracer
        if trc is not None:
            trc.redo_commit_begin(core, txn.txn_id, self.engine.now)

        def record_persisted() -> None:
            remaining["count"] -= 1
            if remaining["count"]:
                return
            # Durability point: all commit records persisted.
            self._durable_commits[txn.txn_id] = list(txn.words)
            self._commit_order.append(txn.txn_id)
            self.dom.add("commits")
            trc = self.tracer
            if trc is not None:
                trc.redo_commit_durable(txn.txn_id, self.engine.now)
            self.system.cores[core].notify_commit(info)
            on_done()
            self._backend_apply(txn)

        for mc_id in engaged:
            mc = self.controllers[mc_id]
            mc_tile = self.topology.mc_tile(mc_id)
            addr = self._next_log_addr(mc_id, core)
            payload = b"COMMIT__" + txn.txn_id.to_bytes(8, "little")
            payload = payload.ljust(CACHE_LINE_BYTES, b"\x00")
            # No queue priority: the commit record must persist after the
            # transaction's log lines, which the FIFO write queue gives.
            self.mesh.send(
                core_tile, mc_tile, CACHE_LINE_BYTES,
                lambda mc=mc, addr=addr, payload=payload: mc.write_log_line(
                    addr, payload, on_persist=record_persisted,
                ),
            )

    # -- backend controller -------------------------------------------------------------

    def _backend_apply(self, txn: _TxnState) -> None:
        """Read the log back, then write the new values in place.

        Called at the durability point, i.e. in commit order: the
        transaction's per-line apply slots are reserved *now*, so each
        line's read-modify-writes happen in commit order.  The log
        read-backs (which complete out of order between transactions)
        merely mark the slots ready to issue.  Reads and writes ride
        the normal channel queues, so they contend with demand traffic
        — the effect behind Figure 7.
        """
        by_line: dict[int, list[tuple[int, bytes]]] = defaultdict(list)
        for addr, value in txn.words:
            by_line[line_of(addr)].append((addr, value))
        trc = self.tracer
        if trc is not None:
            trc.backend_apply_begin(txn.txn_id, len(by_line),
                                    self.engine.now)
        if not by_line:
            self._mark_applied(txn)
            return
        entry = {"txn": txn, "ready": False, "writes_left": len(by_line)}
        for line_addr, words in by_line.items():
            queue = self._line_apply_q.setdefault(line_addr, deque())
            queue.append({"words": words, "entry": entry, "issued": False})

        pending = {"reads": 0}

        def all_reads_done() -> None:
            entry["ready"] = True
            for line_addr in by_line:
                self._pump_line(line_addr)

        def one_read_done(_payload: bytes) -> None:
            pending["reads"] -= 1
            if pending["reads"] == 0:
                all_reads_done()

        total = 0
        for mc_id in sorted(txn.log_lines):
            mc = self.controllers[mc_id]
            lines = txn.log_lines[mc_id]
            total += lines
            for i in range(lines):
                pending["reads"] += 1
                addr = self.layout.bucket_base(mc_id, 0)
                self.dom.add("log_line_reads")
                mc.read_log_line(addr + i * CACHE_LINE_BYTES, one_read_done)
        if total == 0:
            all_reads_done()

    def _pump_line(self, line_addr: int) -> None:
        """Issue the line's next apply if it is ready and not in flight."""
        queue = self._line_apply_q.get(line_addr)
        if not queue:
            return
        head = queue[0]
        if head["issued"] or not head["entry"]["ready"]:
            return
        head["issued"] = True
        mc = self.controllers[self.layout.controller_of(line_addr)]
        payload = bytearray(self.image.durable_line(line_addr))
        for addr, value in head["words"]:
            off = addr - line_addr
            payload[off : off + len(value)] = value
        self.dom.add("in_place_writes")

        def done() -> None:
            live = self._line_apply_q.get(line_addr)
            if not live or live[0] is not head:
                return  # crash dropped the queue mid-flight
            live.popleft()
            if live:
                self._pump_line(line_addr)
            else:
                del self._line_apply_q[line_addr]
            entry = head["entry"]
            entry["writes_left"] -= 1
            if entry["writes_left"] == 0:
                self._mark_applied(entry["txn"])

        # backend_apply: this persist restores an earlier committed
        # transaction's state and may legitimately land while the line
        # is parked for a later, still-unapplied writer.
        mc.write_data_line(line_addr, bytes(payload), on_persist=done,
                           backend_apply=True)

    def _mark_applied(self, txn: _TxnState) -> None:
        self._applied.add(txn.txn_id)
        self.dom.add("applied")
        trc = self.tracer
        if trc is not None:
            trc.backend_apply_end(txn.txn_id, self.engine.now)
        for line_addr in [
            l for l, txns in self._line_txns.items() if txn.txn_id in txns
        ]:
            pending = self._line_txns[line_addr]
            pending.discard(txn.txn_id)
            if not pending:
                del self._line_txns[line_addr]
        for mc in self.controllers:
            if mc.victim_cache is not None:
                for line_addr in mc.victim_cache.release_txn(txn.txn_id):
                    # Other writers still pending: the line stays parked.
                    still = self._line_txns.get(line_addr)
                    if still:
                        mc.victim_cache.park(line_addr, min(still))

    # -- victim-cache parking hook (wired to SharedL2) ------------------------------------

    def park_dirty_eviction(self, line_addr: int) -> bool:
        """Park a dirty eviction whose transaction is not applied yet."""
        pending = self._line_txns.get(line_addr)
        if not pending:
            return False
        mc = self.controllers[self.layout.controller_of(line_addr)]
        if mc.victim_cache is None:
            return False
        mc.victim_cache.park(line_addr, min(pending))
        return True

    # -- crash / recovery ------------------------------------------------------------------

    def backend_apply_pending(self) -> bool:
        """True while committed lines still await their in-place apply
        (the "backend apply" crash window sampled by ``System.crash``)."""
        return bool(self._line_apply_q)

    def log_writes_outstanding(self) -> bool:
        """True while commit-path log-line writes are not yet durable
        (REDO's analogue of the posted-log drain window)."""
        return any(count > 0 for count in self._outstanding.values())

    def crash(self) -> None:
        """Power failure: volatile WC buffers and victim cache vanish."""
        self._active.clear()
        self._line_txns.clear()
        self._line_apply_q.clear()
        for mc in self.controllers:
            if mc.victim_cache is not None:
                mc.victim_cache.drop_all()

    def durable_log(self) -> tuple[list[int], set[int]]:
        """Copies of the commit order and the applied set.

        With the durable image they are all that recovery reads, so a
        power cut (``System.power_cut``) keeps them for its own
        recovery.  Committed word lists never change once recorded, so
        the cut shares them.
        """
        return list(self._commit_order), set(self._applied)

    def recover(self, write_budget: int | None = None,
                cut=None) -> RecoveryReport:
        """Redo-apply the committed log beyond the truncated prefix.

        Backend applies complete in log-read order, not commit order, so
        ``_applied`` can hold a *later* transaction while an earlier one
        is still pending — and the log can only be truncated up to the
        first unapplied transaction.  Recovery therefore replays every
        committed transaction past that prefix, in commit order; replay
        is idempotent, and re-running an already-applied later
        transaction restores any of its words an earlier replay just
        overwrote.  ``updates_rolled_back`` of the returned report counts
        the transactions replayed.

        ``cut`` (a ``System.power_cut`` result) recovers that cut's image
        and its copy of the commit order and applied set instead of the
        machine's own; the machine is left as it was.

        ``write_budget`` caps the durable word writes (crash-storm mode:
        power dies again mid-replay).  An interrupted replay marks *no*
        transaction applied — partially replayed words are harmless
        because the next pass replays the same full suffix from the same
        prefix (marking a replayed txn early would let the prefix skip
        past it and leave its words clobbered by an *earlier* txn's
        replay).  ``report.interrupted`` records the cut.

        The replay's modeled traffic lands in ``report.cost``: the
        backend re-reads each replayed transaction's combined log lines
        plus its commit record, then writes each reconstructed data
        line in place.  With the checksum plane enabled a media scrub
        precedes the replay; its flagged lines land in
        ``report.corrupt_lines`` and its traffic in the cost.
        """
        if cut is None:
            image, order, applied = (self.image, self._commit_order,
                                     self._applied)
        else:
            image, order, applied = cut.image, cut.commit_order, cut.applied
        report = RecoveryReport()
        scrub_counts, report.corrupt_lines = scrub_media(image, self.layout)
        scrub_lines = sum(scrub_counts)
        prefix = 0
        while prefix < len(order) and order[prefix] in applied:
            prefix += 1
        writes = PassWrites(image, write_budget)
        replayed = entries = log_lines = 0
        try:
            for txn_id in order[prefix:]:
                words = self._durable_commits[txn_id]
                for addr, value in words:
                    writes.persist(addr, value)
                entries += len(words)
                log_lines += -(-len(words) // self.entries_per_line) + 1
                replayed += 1
        except RecoveryInterrupted:
            report.interrupted = True
        else:
            applied.update(order[prefix:])
        report.lines_changed = writes.lines_changed()
        cost = redo_replay_cost(
            self.system.config.memory, replayed=replayed, entries=entries,
            log_lines_read=log_lines,
            data_lines_written=len(writes.pre_images),
        )
        if scrub_lines:
            mem = self.system.config.memory
            cost.lines_scanned += scrub_lines
            cost.line_checksum_rejected = len(report.corrupt_lines)
            cost.cycles += scrub_lines * line_read_cycles(mem)
        report.updates_rolled_back = replayed
        report.cost = cost
        return report
