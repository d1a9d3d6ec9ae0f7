"""The OoO-lite core model.

A core executes one workload thread (a generator of
:mod:`~repro.cpu.ops` micro-ops).  Fidelity targets the properties the
paper's results hinge on, not cycle-accurate pipelines:

* loads block the thread on a miss (MLP within a thread is limited, as
  with a blocking data dependence), hits are charged the L1 latency;
* stores issue into the bounded store queue and retire asynchronously —
  when the queue is full the core stalls and the stall cycles are
  accounted (Figure 6's metric);
* ``Atomic_Begin``/``Atomic_End`` implement the ISA extension: begin
  acquires an AUS slot (structural overflow stalls), end drains the SQ,
  flushes the transaction's write set (the programming model's "Flush
  Modified Data" loop, also performed by the NON-ATOMIC design), then
  commits/truncates the log at the engaged controllers.

Bounded-skew execution: the core runs ops inline on a local clock and
re-synchronizes with the global event queue every
``CoreConfig.max_inline_cycles``.

Transaction-side bookkeeping done here (the LogI module's core half):

* the **write set** (lines modified in the open atomic region), flushed
  at ``Atomic_End``;
* the **logged set**, mirroring the L1 log bits: a store to an un-logged
  line is a *first write* — the core snapshots the line's old value at
  issue (before applying the store) as the undo payload.  Losing the L1
  line (eviction/invalidation) drops it from the set, so the next store
  re-logs, exactly as the paper's log bit behaves (section III-B).
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from functools import partial

from repro.common.stats import Stats
from repro.common.units import (CACHE_LINE_BYTES, CACHE_LINE_SHIFT,
                                WORD_BYTES, line_of, split_by_line)
from repro.config import CoreConfig
from repro.cpu import ops
from repro.cpu.lockmgr import LockManager
from repro.cpu.store_queue import StoreEntry, StoreQueue
from repro.engine import Engine

#: Sentinel: the dispatched op suspended the thread; a callback resumes.
_SUSPEND = object()


class Core:
    """One core executing one workload thread."""

    def __init__(
        self,
        core_id: int,
        cfg: CoreConfig,
        engine: Engine,
        l1,
        l2,
        image,
        policy,
        lockmgr: LockManager,
        stats: Stats,
    ):
        self.core_id = core_id
        self.cfg = cfg
        self.engine = engine
        self.l1 = l1
        self.l2 = l2
        self.image = image
        self.policy = policy
        self.lockmgr = lockmgr
        self.stats = stats.domain(f"core{core_id}")
        self._add_sq_full = self.stats.counter("sq_full_cycles")
        self._gen: Generator | None = None
        self._t = 0  # local clock (>= engine.now, bounded skew)
        self.done = False
        #: Fired as fn(core_id, info) when a transaction commits.
        self.on_commit: Callable[[int, object], None] | None = None
        #: Fired as fn(core_id) when the thread generator finishes.
        self.on_done: Callable[[int], None] | None = None

        # Transaction state.
        self.atomic_depth = 0
        self.txn_write_lines: set[int] = set()
        self.txn_logged: set[int] = set()
        self.txn_id: int | None = None
        self._txn_counter = 0
        #: True while the commit-time write-set flush loop is in flight
        #: (the "flush loop" crash window sampled by System.crash).
        self.commit_flushing = False
        #: Lifecycle tracer (repro.obs.trace.Tracer) or None.  Checked
        #: only at transaction-level events — begin, flush window,
        #: durability, commit — never in the per-op interpreter loop.
        self.tracer = None

        self._l1_latency = l1.cfg.latency
        self._issue_cycles = cfg.issue_cycles
        self._capture_undo = policy.capture_undo
        self._capture_redo = policy.capture_redo
        self.sq = StoreQueue(
            engine,
            cfg.store_queue_size,
            # The policy is fixed for the system's lifetime; handing the
            # bound method straight to the drainer skips a delegation
            # frame per store (see _drain_store).
            partial(policy.execute_store, self),
            self.stats,
        )
        l1.on_line_lost = self._line_lost

    # -- thread lifecycle ------------------------------------------------------

    def start(self, thread: Generator) -> None:
        """Begin executing a workload thread generator."""
        self._gen = thread
        self._t = self.engine.now
        self.engine.post(0, lambda: self._run(None))

    def _line_lost(self, line: int) -> None:
        """L1 line evicted/invalidated: its log bit (if any) is gone."""
        self.txn_logged.discard(line)

    # -- main execution loop -----------------------------------------------------

    def _run(self, send_value) -> None:
        now = self.engine.now
        if self._t < now:
            self._t = now
        horizon = now + self.cfg.max_inline_cycles
        gen_send = self._gen.send
        dispatch = self._dispatch
        # The three dominant ops — single-line L1-hit loads, computes,
        # and single-line stores — are handled inline (mirroring
        # _do_load's and _do_store's fast paths exactly); everything
        # else dispatches.
        l1 = self.l1
        l1_sets = l1._sets
        l1_nsets = l1.num_sets
        add_load_hit = l1._add_load_hits
        # Bounds are enforced by the workloads' own allocator; the inline
        # hit path reads straight off the volatile view (mirrors
        # MemoryImage.read without the call).
        vol_view = self.image._vol_view
        image_size = self.image.size_bytes
        l1_lat = self._l1_latency
        do_store = self._do_store
        while True:
            if self._t > horizon:
                value = send_value
                self.engine.post_at(self._t, lambda: self._run(value))
                return
            try:
                op = gen_send(send_value)
            except StopIteration:
                self._finish()
                return
            cls = op.__class__
            if cls is ops.Load:
                addr = op.addr
                size = op.size
                if size > 0 and (addr >> CACHE_LINE_SHIFT) == (
                        (addr + size - 1) >> CACHE_LINE_SHIFT):
                    line = addr & ~(CACHE_LINE_BYTES - 1)
                    entry = l1_sets[
                        (line >> CACHE_LINE_SHIFT) % l1_nsets
                    ].get(line)
                    if entry is not None and entry.state.readable:
                        l1._use_clock += 1
                        entry.last_use = l1._use_clock
                        add_load_hit()
                        self._t += l1_lat
                        words = size // WORD_BYTES - 1
                        if words > 0:
                            self._t += words
                        end = addr + size
                        if addr < 0 or end > image_size:
                            self.image._check(addr, size)
                        send_value = vol_view[addr:end].tobytes()
                        continue
                send_value = self._do_load(op)
            elif cls is ops.Compute:
                self._t += op.cycles
                send_value = None
                continue
            elif cls is ops.Store:
                send_value = do_store(op)
            else:
                send_value = dispatch(op)
            if send_value is _SUSPEND:
                return

    def _resume(self, value=None) -> None:
        self._t = max(self._t, self.engine.now)
        self._run(value)

    def _finish(self) -> None:
        self.done = True
        self.stats.put("finish_cycle", self._t)
        if self.on_done is not None:
            self.on_done(self.core_id)

    # -- op dispatch -------------------------------------------------------------

    def _dispatch(self, op):
        # Exact-type checks: ops are final __slots__ classes, and this
        # dispatcher runs once per workload micro-op.
        cls = op.__class__
        if cls is ops.Compute:
            self._t += op.cycles
            return None
        if cls is ops.Load:
            return self._do_load(op)
        if cls is ops.Store:
            return self._do_store(op)
        if cls is ops.AtomicBegin:
            return self._do_atomic_begin()
        if cls is ops.AtomicEnd:
            return self._do_atomic_end(op)
        if cls is ops.Lock:
            return self._do_lock(op)
        if cls is ops.Unlock:
            return self._do_unlock(op)
        if cls is ops.Flush:
            # Order after earlier stores: a line still in the store queue
            # has not reached the cache, so the flush must drain first.
            self.sq.when_empty(
                lambda: self.l2.flush(self.core_id, line_of(op.addr),
                                      self._resume)
            )
            return _SUSPEND
        raise TypeError(f"unknown op {op!r}")

    # -- loads ------------------------------------------------------------------------

    def _do_load(self, op: ops.Load):
        addr = op.addr
        size = op.size
        # Fast path: the load lives in one line (word loads dominate).
        # Mirrors L1Cache.load_hit + the inline block in _run — keep
        # all three in sync.
        if size > 0 and (addr >> CACHE_LINE_SHIFT) == (
                (addr + size - 1) >> CACHE_LINE_SHIFT):
            line = addr & ~(CACHE_LINE_BYTES - 1)
            if self.l1.load_hit(line):
                self._t += self._l1_latency
                words = size // WORD_BYTES - 1
                if words > 0:
                    self._t += words
                return self.image.read(addr, size)
            self.l1.load_miss(
                line, lambda o=op: self._load_continue([], o)
            )
            return _SUSPEND
        chunks = split_by_line(op.addr, op.size)
        for index, (addr, size) in enumerate(chunks):
            line = line_of(addr)
            if self.l1.load_hit(line):
                self._t += self._l1_latency
                words = size // WORD_BYTES - 1
                if words > 0:
                    self._t += words
                continue
            # Miss: suspend, then continue with the remaining chunks.
            rest = chunks[index + 1:]
            self.l1.load_miss(
                line, lambda r=rest, o=op: self._load_continue(r, o)
            )
            return _SUSPEND
        return self.image.read(op.addr, op.size)

    def _load_continue(self, chunks, op: ops.Load) -> None:
        self._t = max(self._t, self.engine.now)
        for index, (addr, size) in enumerate(chunks):
            line = line_of(addr)
            if self.l1.load_hit(line):
                self._t += self._l1_latency
                continue
            rest = chunks[index + 1:]
            self.l1.load_miss(
                line, lambda r=rest, o=op: self._load_continue(r, o)
            )
            return
        self._run(self.image.read(op.addr, op.size))

    # -- stores -----------------------------------------------------------------------

    def _do_store(self, op: ops.Store):
        data = op.data
        total = len(data)
        addr = op.addr
        # Fast path: single-line chunk (word stores dominate).  Mirrors
        # _make_entries/_issue_entries exactly: undo payload snapshots
        # *before* the functional write, issue cycles charged before the
        # SQ push.
        if total > 0 and (addr >> CACHE_LINE_SHIFT) == (
                (addr + total - 1) >> CACHE_LINE_SHIFT):
            atomic = self.atomic_depth > 0
            needs_log = False
            undo = None
            redo_words: tuple = ()
            if atomic:
                line = addr & ~(CACHE_LINE_BYTES - 1)
                if self._capture_undo and line not in self.txn_logged:
                    needs_log = True
                    undo = self.image.volatile_line(line)
                    self.txn_logged.add(line)
                if self._capture_redo:
                    redo_words = tuple(
                        (addr + w_off, data[w_off:w_off + WORD_BYTES])
                        for w_off in range(0, total, WORD_BYTES)
                    )
                self.txn_write_lines.add(line)
            entry = StoreEntry(addr=addr, size=total, needs_log=needs_log,
                               undo_payload=undo, redo_words=redo_words,
                               atomic=atomic)
            self.image.write(addr, data)
            self._t += entry.slots * self._issue_cycles
            if self.sq.try_push(entry):
                return None
            stall_start = self._t
            self.sq.when_space(
                lambda e=[entry], s=stall_start: self._retry_issue(e, 0, s)
            )
            return _SUSPEND
        entries = self._make_entries(op, total)
        # Apply functionally at issue: program order is preserved for this
        # thread, and undo payloads were snapshotted first.
        self.image.write(op.addr, op.data)
        return self._issue_entries(entries, 0)

    def _make_entries(self, op: ops.Store, total: int) -> list[StoreEntry]:
        atomic = self.atomic_depth > 0
        entries: list[StoreEntry] = []
        offset = 0
        for addr, size in split_by_line(op.addr, total):
            line = line_of(addr)
            needs_log = False
            undo = None
            if atomic and self.policy.capture_undo and line not in self.txn_logged:
                needs_log = True
                undo = self.image.volatile_line(line)
                self.txn_logged.add(line)
            redo_words: tuple = ()
            if atomic and self.policy.capture_redo:
                words = []
                for w_off in range(0, size, WORD_BYTES):
                    w_addr = addr + w_off
                    w_size = min(WORD_BYTES, size - w_off)
                    words.append(
                        (w_addr, bytes(op.data[offset + w_off:
                                               offset + w_off + w_size]))
                    )
                redo_words = tuple(words)
            if atomic:
                self.txn_write_lines.add(line)
            entries.append(
                StoreEntry(
                    addr=addr,
                    size=size,
                    needs_log=needs_log,
                    undo_payload=undo,
                    redo_words=redo_words,
                    atomic=atomic,
                )
            )
            offset += size
        return entries

    def _issue_entries(self, entries: list[StoreEntry], index: int):
        """Push SQ chunks, stalling (and accounting) when the SQ fills."""
        while index < len(entries):
            entry = entries[index]
            self._t += entry.slots * self.cfg.issue_cycles
            if self.sq.try_push(entry):
                index += 1
                continue
            stall_start = self._t
            self.sq.when_space(
                lambda e=entries, i=index, s=stall_start:
                    self._retry_issue(e, i, s)
            )
            return _SUSPEND
        return None

    def _retry_issue(self, entries, index, stall_start) -> None:
        self._t = max(self._t, self.engine.now, stall_start)
        self._add_sq_full(self._t - stall_start)
        result = self._issue_entries_resumed(entries, index)
        if result is not _SUSPEND:
            self._run(None)

    def _issue_entries_resumed(self, entries, index):
        while index < len(entries):
            entry = entries[index]
            if self.sq.try_push(entry):
                self._t += entry.slots * self.cfg.issue_cycles
                index += 1
                continue
            stall_start = self._t
            self.sq.when_space(
                lambda e=entries, i=index, s=stall_start:
                    self._retry_issue(e, i, s)
            )
            return _SUSPEND
        return None

    def _drain_store(self, entry: StoreEntry, on_retired: Callable[[], None]) -> None:
        """SQ head execution: delegated to the active design policy.

        Kept for tests/introspection; the store queue holds a pre-bound
        ``partial(policy.execute_store, self)`` for the hot path.
        """
        self.policy.execute_store(self, entry, on_retired)

    # -- atomic regions -----------------------------------------------------------------

    def _do_atomic_begin(self):
        self.atomic_depth += 1
        self._t += 1
        if self.atomic_depth > 1:
            return None  # nesting flattens (section IV-B)
        self.txn_write_lines = set()
        self.txn_logged = set()
        self.txn_id = self._next_txn_id()
        self.stats.add("atomic_begins")
        trc = self.tracer
        if trc is not None:
            trc.txn_begin(self.core_id, self.txn_id, self.engine.now)
        self.policy.atomic_begin(self, self._resume)
        return _SUSPEND

    def _next_txn_id(self) -> int:
        self._txn_counter += 1
        return self.core_id * 1_000_000 + self._txn_counter

    def _do_atomic_end(self, op: ops.AtomicEnd):
        self._t += 1
        if self.atomic_depth > 1:
            self.atomic_depth -= 1
            return None
        self.sq.when_empty(lambda: self._flush_write_set(op))
        return _SUSPEND

    def _flush_write_set(self, op: ops.AtomicEnd) -> None:
        if not self.policy.needs_flush_at_end:
            self._commit(op)
            return
        lines = sorted(self.txn_write_lines)
        self.stats.add("flushed_lines", len(lines))
        if not lines:
            self._commit(op)
            return
        self.commit_flushing = True
        trc = self.tracer
        if trc is not None:
            trc.flush_begin(self.core_id, self.txn_id, self.engine.now)
        pending = {"outstanding": 0, "next": 0}

        window = self.cfg.flush_window

        def issue_more() -> None:
            while (
                pending["next"] < len(lines)
                and pending["outstanding"] < window
            ):
                line = lines[pending["next"]]
                pending["next"] += 1
                pending["outstanding"] += 1
                self.l2.flush(self.core_id, line, flushed)

        def flushed() -> None:
            pending["outstanding"] -= 1
            if pending["next"] < len(lines):
                issue_more()
            elif pending["outstanding"] == 0:
                self._commit(op)

        issue_more()

    def notify_commit(self, info) -> None:
        """The design's durability point was reached for the open txn.

        Called by the policy (or the system's truncation tracker) at the
        moment the transaction can no longer be lost: first log
        truncation for undo designs, commit-record persist for REDO,
        flush completion for NON-ATOMIC.
        """
        self.stats.add("txns_committed")
        trc = self.tracer
        if trc is not None:
            trc.txn_durable(self.core_id, self.txn_id, self.engine.now)
        if self.on_commit is not None:
            self.on_commit(self.core_id, info)

    def _commit(self, op: ops.AtomicEnd) -> None:
        self.commit_flushing = False
        trc = self.tracer
        if trc is not None:
            trc.flush_end(self.core_id, self.engine.now)

        def committed() -> None:
            trc = self.tracer
            if trc is not None:
                trc.txn_end(self.core_id, self.txn_id, self.engine.now)
            self.atomic_depth -= 1
            self.txn_write_lines = set()
            self.txn_logged = set()
            self.txn_id = None
            self._resume()

        self.policy.atomic_end(self, op.info, committed)

    # -- locks ----------------------------------------------------------------------------

    def _do_lock(self, op: ops.Lock):
        self.lockmgr.acquire(self.core_id, op.lock_id, self._resume)
        return _SUSPEND

    def _do_unlock(self, op: ops.Unlock):
        self._t += 1
        self.lockmgr.release(self.core_id, op.lock_id)
        return None

    def __repr__(self) -> str:
        return f"Core({self.core_id}, t={self._t}, done={self.done})"
