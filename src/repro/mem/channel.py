"""Memory channel timing model.

Each memory controller owns one or two channels (Figure 7 evaluates a
two-channel configuration where logging traffic is segregated onto its
own channel).  A channel models:

* **device latency** — NVM array access time, 240/360 cycles for
  reads/writes at the paper's 10x-DRAM operating point;
* **serialization** — peak bandwidth of 5.3 GB/s (~24 cycles per 64 B
  transfer at 2 GHz), modelled as exclusive bus occupancy;
* **scheduling** — reads have priority over writes (writes are posted
  into a bounded write queue) until the write queue crosses a drain
  watermark, after which writes drain first.  This is the standard
  read-priority/write-drain policy and it is what makes REDO's log reads
  interfere with demand reads (paper section VI-D).

The channel is purely a timing device: completion callbacks receive the
finish cycle and the caller updates functional state (durable image).

Arbitration is one engine event per device slot: ``_issue_next``
picks one request by the policy above, occupies the bus for it, posts
its completion, wakes one writer parked on a full write queue when the
request was a write, and posts itself again at the next free slot while
work is queued.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from enum import Enum

from repro.common.stats import StatDomain
from repro.config import MemoryConfig
from repro.engine import Engine


class AccessKind(Enum):
    """What a channel request is for — drives stats and scheduling."""

    DATA_READ = "data_read"
    DATA_WRITE = "data_write"
    LOG_WRITE = "log_write"
    LOG_READ = "log_read"

    @property
    def is_read(self) -> bool:
        return self in (AccessKind.DATA_READ, AccessKind.LOG_READ)


class ChannelRequest:
    """One line-sized (or smaller) NVM access.

    A plain ``__slots__`` class (not a dataclass): one is created per
    NVM access, and the generated dataclass ``__init__`` showed up in
    wall-clock samples.
    """

    __slots__ = ("kind", "addr", "size", "on_done", "enqueue_time",
                 "issue_time")

    def __init__(self, kind: AccessKind, addr: int, size: int,
                 on_done: Callable[[], None] | None = None,
                 enqueue_time: int = 0):
        self.kind = kind
        self.addr = addr
        self.size = size
        self.on_done = on_done
        self.enqueue_time = enqueue_time
        #: Set by the channel when the request is issued to the device.
        self.issue_time = -1

    def __repr__(self) -> str:
        return (f"ChannelRequest({self.kind.value}, addr={self.addr:#x}, "
                f"size={self.size}, t={self.enqueue_time})")


class Channel:
    """One NVM channel: queues, arbiter and device timing."""

    def __init__(
        self,
        engine: Engine,
        cfg: MemoryConfig,
        stats: StatDomain,
        name: str = "channel",
    ):
        self.engine = engine
        self.cfg = cfg
        self.stats = stats
        self.name = name
        self._read_q: deque[ChannelRequest] = deque()
        self._write_q: deque[ChannelRequest] = deque()
        #: Writes issued to the device but not yet persisted.  The
        #: arbiter pops a request from the queue at *issue* time, so
        #: without this list the write on the wires would be invisible
        #: to a clean shutdown drain — draining the queue behind it
        #: while dropping it would persist a record header whose entry
        #: line never landed (exactly the ordering recovery relies on).
        #: Tracking costs a closure + deque bookkeeping per write, so it
        #: is off unless the fault taps (the only drain/drop consumer
        #: that needs it) flip ``track_inflight_writes`` on.
        self._inflight_writes: deque[ChannelRequest] = deque()
        self.track_inflight_writes = False
        self._busy_until = 0
        self._scheduled = False
        #: Callbacks waiting for write-queue space (backpressure).
        self._write_waiters: deque[Callable[[], None]] = deque()
        # -- per-channel timing constants and bound counters ---------------
        # cfg.read_cycles/write_cycles are computed properties and the
        # arbiter runs once per NVM access, so everything derivable from
        # the config is captured here once.
        self._depth = cfg.write_queue_depth
        self._watermark = cfg.write_drain_watermark * cfg.write_queue_depth
        self._bytes_per_cycle = cfg.bytes_per_cycle
        banks = max(1, cfg.device_banks)
        #: kind -> (device latency, bank-occupancy floor, bytes counter,
        #: is_read) — one dict read replaces two enum-property calls and
        #: an f-string per issued request.
        self._kind_info = {}
        for kind in AccessKind:
            latency = cfg.read_cycles if kind.is_read else cfg.write_cycles
            self._kind_info[kind] = (
                latency,
                round(latency / banks),
                stats.counter(f"{kind.value}_bytes"),
                kind.is_read,
            )
        self._count_add = {
            kind: stats.counter(f"{kind.value}_count") for kind in AccessKind
        }
        #: request size -> serialization cycles, filled on first use.
        self._ser_cache: dict[int, int] = {}
        self._add_busy = stats.counter("busy_cycles")
        self._add_queue_wait = stats.counter("queue_wait_cycles")
        self._add_wq_full = stats.counter("write_queue_full_events")
        self._peak_wq = stats.peaker("write_queue_peak")

    # -- public interface ---------------------------------------------------

    def read(self, kind: AccessKind, addr: int, size: int,
             on_done: Callable[[], None]) -> None:
        """Enqueue a read; ``on_done`` fires when data is back."""
        assert kind is AccessKind.DATA_READ or kind is AccessKind.LOG_READ
        req = ChannelRequest(kind, addr, size, on_done, self.engine.now)
        self._read_q.append(req)
        self._count_add[kind]()
        self._kick()

    def write(self, kind: AccessKind, addr: int, size: int,
              on_done: Callable[[], None] | None = None,
              priority: bool = False) -> bool:
        """Enqueue a posted write.

        Returns False (and does not enqueue) when the write queue is full;
        the caller should register with :meth:`when_write_space`.
        ``on_done`` fires when the write has persisted in the NVM cells.
        ``priority`` writes jump the queue (commit records — ordering
        hazards are the caller's responsibility).
        """
        assert kind is AccessKind.DATA_WRITE or kind is AccessKind.LOG_WRITE
        write_q = self._write_q
        if len(write_q) >= self._depth:
            self._add_wq_full()
            return False
        req = ChannelRequest(kind, addr, size, on_done, self.engine.now)
        if priority:
            write_q.appendleft(req)
        else:
            write_q.append(req)
        self._count_add[kind]()
        self._peak_wq(len(write_q))
        self._kick()
        return True

    def when_write_space(self, fn: Callable[[], None]) -> None:
        """Call ``fn`` once a write-queue slot frees up."""
        self._write_waiters.append(fn)

    def pending_writes(self) -> int:
        """Writes queued but not yet persisted (discarded on a crash)."""
        return len(self._write_q)

    def pending_requests(self) -> int:
        """Requests a power failure would drop (see :meth:`drop_pending`)."""
        return (len(self._read_q) + len(self._write_q)
                + len(self._inflight_writes))

    def pending_writes_in_drain_order(self) -> list:
        """What :meth:`drain_pending` would complete, in its order.

        The completion callbacks of the writes in the device, then of
        the write queue, then the writers parked on backpressure (each
        re-submits one write).  Read-only: nothing runs or moves.
        """
        return ([req.on_done for req in self._inflight_writes]
                + [req.on_done for req in self._write_q]
                + list(self._write_waiters))

    def drop_pending(self) -> int:
        """Power failure: discard queued work.  Returns count dropped.

        Per paper section IV-D, pending log writes in controller buffers
        are safely discarded because Invariant 2 guarantees no dependent
        data write persisted either.
        """
        dropped = self.pending_requests()
        self._read_q.clear()
        self._write_q.clear()
        self._inflight_writes.clear()
        self._write_waiters.clear()
        return dropped

    def drain_pending(self) -> int:
        """Clean shutdown: complete every pending write, drop the reads.

        The single-controller-loss fault model gives *surviving*
        controllers time to empty their write path before the machine
        stops.  Order matters: the write already issued to the device
        is *older* than anything queued behind it, so it completes
        first — otherwise a record header could persist over an entry
        line that never landed, which is exactly the issue-order
        guarantee recovery's prefix walk relies on.  Completions can
        free queue slots and re-admit writers parked on backpressure,
        so the loop runs until device, queue, and waiter list are all
        empty.  Timing is irrelevant here — the engine is already
        stopped; only the durable side effects matter.  Returns the
        number of writes drained.
        """
        drained = 0
        self._read_q.clear()
        while self._inflight_writes or self._write_q or self._write_waiters:
            if self._inflight_writes:
                req = self._inflight_writes.popleft()
            elif not self._write_q:
                # Parked writers re-submit synchronously into the queue.
                self._write_waiters.popleft()()
                continue
            else:
                req = self._write_q.popleft()
            if req.on_done is not None:
                req.on_done()
            drained += 1
        return drained

    # -- arbiter --------------------------------------------------------------

    def _kick(self) -> None:
        if self._scheduled:
            return
        now = self.engine.now
        busy = self._busy_until
        self._scheduled = True
        self.engine.post_at(busy if busy > now else now, self._issue_next)

    def _select(self) -> ChannelRequest | None:
        """Read-priority with write-drain watermark."""
        draining = len(self._write_q) >= self._watermark
        if self._read_q and not draining:
            return self._read_q.popleft()
        if self._write_q:
            return self._write_q.popleft()
        if self._read_q:
            return self._read_q.popleft()
        return None

    def _issue_next(self) -> None:
        self._scheduled = False
        req = self._select()
        if req is None:
            return
        engine = self.engine
        now = engine.now
        latency, bank_floor, add_bytes, is_read = self._kind_info[req.kind]
        # Effective occupancy: bus serialization, or the device-bank
        # bottleneck when the array latency outruns the banks.
        size = req.size
        ser = self._ser_cache.get(size)
        if ser is None:
            ser = self._serialization_cycles(size)
        if bank_floor > ser:
            ser = bank_floor
        req.issue_time = now
        busy = now + ser
        self._busy_until = busy
        self._add_busy(ser)
        add_bytes(size)
        self._add_queue_wait(now - req.enqueue_time)
        if req.on_done is not None:
            if is_read or not self.track_inflight_writes:
                engine.post_at(busy + latency, req.on_done)
            else:
                # Track the write while it is in the device so a crash
                # (drop or clean drain) can account for it; the posted
                # completion removes it again.  Same single event, same
                # firing time.
                self._inflight_writes.append(req)
                engine.post_at(busy + latency, self._write_completion(req))
        if not is_read and self._write_waiters:
            # The issued write freed a queue slot: wake one parked writer.
            engine.post(0, self._write_waiters.popleft())
        if self._read_q or self._write_q:
            self._scheduled = True
            engine.post_at(busy, self._issue_next)

    def _write_completion(self, req: ChannelRequest):
        """Completion thunk for a write in the device.

        Removes the request from the in-flight list before running its
        callback.  Completions normally pop the head (issue order), but
        mixed request sizes can reorder completion times, so fall back
        to a scan.
        """
        def complete() -> None:
            inflight = self._inflight_writes
            if inflight and inflight[0] is req:
                inflight.popleft()
            else:
                try:
                    inflight.remove(req)
                except ValueError:
                    return  # a crash already dropped or drained it
            req.on_done()

        return complete

    def _serialization_cycles(self, size: int) -> int:
        ser = self._ser_cache.get(size)
        if ser is None:
            ser = max(1, round(size / self._bytes_per_cycle))
            self._ser_cache[size] = ser
        return ser

    def __repr__(self) -> str:
        return (
            f"Channel({self.name}, reads={len(self._read_q)}, "
            f"writes={len(self._write_q)}, busy_until={self._busy_until})"
        )
