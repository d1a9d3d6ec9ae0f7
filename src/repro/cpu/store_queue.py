"""The store queue and its drain engine.

The store queue is where ATOM's benefit materializes (paper section
VI-B): stores normally retire out of the critical path through the SQ,
but when a log persist sits in the drain path of every first-write store
the queue backs up, fills, and stalls the pipeline.  Figure 6 plots
exactly the "SQ full" cycles this module accounts.

Occupancy is counted in 8-byte word slots (Table I: 32 entries): a 64 B
line-chunk store occupies 8 slots, matching the word stores a payload
memcpy compiles into.

Draining is in order.  The head entry is handed to the active design
policy, which decides what must happen before the store may retire:
nothing (NON-ATOMIC, or no logging needed), a posted-log ack round trip
(ATOM), a durable log write (BASE), or a write-combining append (REDO).
Each entry drains and retires on its own events, head first.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.common.stats import StatDomain
from repro.common.units import WORD_BYTES
from repro.engine import Engine


class StoreEntry:
    """One line-resident chunk of a program store.

    A plain ``__slots__`` class (not a dataclass): one is created per
    store, and the generated ``__init__``/``__post_init__`` pair showed
    up in wall-clock samples.
    """

    __slots__ = ("addr", "size", "needs_log", "undo_payload", "redo_words",
                 "atomic", "issue_time", "slots")

    def __init__(self, addr: int, size: int, needs_log: bool = False,
                 undo_payload: bytes | None = None,
                 redo_words: tuple = (), atomic: bool = False,
                 issue_time: int = 0):
        self.addr = addr
        self.size = size
        #: True when this chunk performs the first write to its line in
        #: the current atomic update (decided at issue; triggers logging).
        self.needs_log = needs_log
        #: Old value of the whole line, snapshotted at issue *before* the
        #: store applied — the undo entry payload.
        self.undo_payload = undo_payload
        #: New values of the words this chunk writes (REDO log payloads).
        self.redo_words = redo_words
        #: Issued inside an atomic region?
        self.atomic = atomic
        self.issue_time = issue_time
        #: SQ word slots this chunk occupies (computed once at creation;
        #: the issue and retire paths both read it repeatedly).
        self.slots = max(1, (size + WORD_BYTES - 1) // WORD_BYTES)

    def __repr__(self) -> str:
        return (f"StoreEntry(addr={self.addr:#x}, size={self.size}, "
                f"atomic={self.atomic}, needs_log={self.needs_log})")


class StoreQueue:
    """In-order bounded store queue with an asynchronous drainer."""

    def __init__(
        self,
        engine: Engine,
        capacity_slots: int,
        execute: Callable[[StoreEntry, Callable[[], None]], None],
        stats: StatDomain,
    ):
        self.engine = engine
        self.capacity = capacity_slots
        self._execute = execute
        self.stats = stats
        self._entries: deque[StoreEntry] = deque()
        # Hot-path counters, bound once (see StatDomain.counter).
        self._peak_slots = stats.peaker("sq_peak_slots")
        self._add_retired = stats.counter("stores_retired")
        self._add_latency = stats.counter("store_latency_cycles")
        self._used_slots = 0
        self._draining = False
        self._space_waiters: deque[Callable[[], None]] = deque()
        self._empty_waiters: list[Callable[[], None]] = []
        # Drain continuations, bound once: the drain engine runs twice
        # per store and a fresh bound method (or closure) per hop is
        # pure allocator traffic.
        self._drain_cb = self._drain_head
        self._retire_cb = self._retire_head
        #: Lifecycle tracer (repro.obs.trace.Tracer) or None — one
        #: predictable branch per push/retire, the injector-gate cost.
        self.tracer = None

    # -- producer side -----------------------------------------------------

    def try_push(self, entry: StoreEntry) -> bool:
        """Append ``entry`` if it fits; False when the SQ is full."""
        if self._used_slots + entry.slots > self.capacity:
            return False
        entry.issue_time = self.engine.now
        self._entries.append(entry)
        self._used_slots += entry.slots
        self._peak_slots(self._used_slots)
        trc = self.tracer
        if trc is not None:
            trc.sq_push(self, self._used_slots, self.engine.now)
        self._start_drain()
        return True

    def when_space(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` when at least one slot frees (FIFO)."""
        self._space_waiters.append(fn)

    def when_empty(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the queue fully drains (AtomicEnd barrier)."""
        if not self._entries:
            fn()
        else:
            self._empty_waiters.append(fn)

    def occupancy(self) -> int:
        """Currently used word slots."""
        return self._used_slots

    def empty(self) -> bool:
        return not self._entries

    # -- drain side ------------------------------------------------------------

    def _start_drain(self) -> None:
        if self._draining or not self._entries:
            return
        self._draining = True
        self.engine.post(0, self._drain_cb)

    def _drain_head(self) -> None:
        if not self._entries:
            self._draining = False
            self._notify_empty()
            return
        self._execute(self._entries[0], self._retire_cb)

    def _retire_head(self) -> None:
        entry = self._entries.popleft()
        self._used_slots -= entry.slots
        self._add_retired()
        self._add_latency(self.engine.now - entry.issue_time)
        trc = self.tracer
        if trc is not None:
            trc.sq_retire(self, entry.issue_time, self._used_slots,
                          self.engine.now)
        while self._space_waiters and self._used_slots < self.capacity:
            self.engine.post(0, self._space_waiters.popleft())
        if self._entries:
            self.engine.post(0, self._drain_cb)
        else:
            self._draining = False
            self._notify_empty()

    def _notify_empty(self) -> None:
        if not self._empty_waiters:
            return
        waiters, self._empty_waiters = self._empty_waiters, []
        for fn in waiters:
            fn()

    def __repr__(self) -> str:
        return f"StoreQueue({self._used_slots}/{self.capacity} slots)"
