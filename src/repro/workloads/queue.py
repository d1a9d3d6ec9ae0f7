"""Queue micro-benchmark: a copy-while-locked persistent FIFO.

The paper's queue follows the copy-while-locked design of Pelley et
al. [19]: the whole enqueue/dequeue — including the payload copy — runs
inside the critical section, and the structural update is the atomic
durable region.

Layout (per thread instance)::

    meta:   [head u64][tail u64]          (indices, monotonically growing)
    slots:  capacity x entry_bytes        (ring buffer of payloads)

Enqueue copies the payload into ``slots[tail % capacity]`` and bumps
``tail``; dequeue bumps ``head``.  The payload copy is the dominant
store burst — with 4 KB entries it is 64 cache lines of stores, which is
exactly the store-queue pressure pattern behind the queue benchmark's
large ATOM gains (Figure 5/6 discussion).
"""

from __future__ import annotations

from repro.common.errors import WorkloadError
from repro.runtime.api import PMem
from repro.workloads.base import Workload, payload_for, payload_tag


class QueueWorkload(Workload):
    """Copy-while-locked ring-buffer FIFO, one instance per thread."""

    name = "queue"

    def __init__(self, system, params=None, capacity: int = 256, **kw):
        super().__init__(system, params, **kw)
        self.capacity = capacity
        self.metas: list[int] = []
        self.slots: list[int] = []
        #: Golden model: per-thread list of payload tags (FIFO order).
        self.golden: list[list[int]] = [[] for _ in range(self.threads_count)]
        self._next_val = [7_000_000 * (t + 1) for t in range(self.threads_count)]

    def _slot_addr(self, tid: int, index: int) -> int:
        return self.slots[tid] + (index % self.capacity) * self.params.entry_bytes

    # -- setup -------------------------------------------------------------------

    def _setup_thread(self, tid: int, driver) -> None:
        meta = self.heap.alloc(16, arena=tid)
        slots = self.heap.alloc(
            self.capacity * self.params.entry_bytes, arena=tid
        )
        self.metas.append(meta)
        self.slots.append(slots)
        driver.run(PMem.store_u64(meta, 0))
        driver.run(PMem.store_u64(meta + 8, 0))
        for _ in range(self.params.initial_items):
            val = self._fresh_val(tid)
            driver.run(self._enqueue(tid, val))
            self.golden[tid].append(payload_tag(val, 0))

    def _fresh_val(self, tid: int) -> int:
        val = self._next_val[tid]
        self._next_val[tid] += 1
        return val

    # -- operations --------------------------------------------------------------------

    def _enqueue(self, tid: int, val: int):
        meta = self.metas[tid]
        head = yield from PMem.load_u64(meta)
        tail = yield from PMem.load_u64(meta + 8)
        if tail - head >= self.capacity:
            raise WorkloadError("queue overflow (raise capacity)")
        yield from PMem.store_bytes(
            self._slot_addr(tid, tail),
            payload_for(val, 0, self.params.entry_bytes),
        )
        yield from PMem.store_u64(meta + 8, tail + 1)

    def _dequeue(self, tid: int):
        """Read the head payload's tag and advance; None when empty."""
        meta = self.metas[tid]
        head = yield from PMem.load_u64(meta)
        tail = yield from PMem.load_u64(meta + 8)
        if head == tail:
            return None
        tag_raw = yield from PMem.load_bytes(self._slot_addr(tid, head), 8)
        yield from PMem.store_u64(meta, head + 1)
        return int.from_bytes(tag_raw, "little")

    # -- transaction stream ----------------------------------------------------------------

    def thread_body(self, tid: int):
        rng = self.rngs[tid]
        lock = self.lock_id(tid)
        depth = len(self.golden[tid])
        for _ in range(self.params.txns_per_thread):
            yield from PMem.compute(self.params.compute_cycles)
            do_enqueue = depth == 0 or (
                depth < self.capacity and rng.random() < 0.5
            )
            yield from PMem.lock(lock)
            yield from PMem.atomic_begin()
            if do_enqueue:
                val = self._fresh_val(tid)
                yield from self._enqueue(tid, val)
                yield from PMem.atomic_end(("enq", tid, val))
                depth += 1
            else:
                got = yield from self._dequeue(tid)
                yield from PMem.atomic_end(("deq", tid))
                depth -= 1
                self.check(got is not None, "dequeue from empty queue")
            yield from PMem.unlock(lock)

    # -- golden / verification -----------------------------------------------------------------

    def golden_apply(self, info) -> None:
        if info[0] == "enq":
            _, tid, val = info
            self.golden[tid].append(payload_tag(val, 0))
        elif info[0] == "deq":
            _, tid = info
            self.golden[tid].pop(0)

    def verify_durable(self, image=None) -> None:
        reader = self.reader(image)
        for tid in range(self.threads_count):
            head = reader.load_u64(self.metas[tid])
            tail = reader.load_u64(self.metas[tid] + 8)
            self.check(tail >= head, f"thread {tid}: tail behind head")
            contents = [
                reader.load_u64(self._slot_addr(tid, i))
                for i in range(head, tail)
            ]
            self.check(
                contents == self.golden[tid],
                f"thread {tid}: durable queue (len {len(contents)}) diverges "
                f"from golden (len {len(self.golden[tid])})",
            )
            # Verify a full payload, not just the tag, for the head entry.
            if contents:
                payload = reader.load_bytes(
                    self._slot_addr(tid, head), self.params.entry_bytes
                )
                self.check(
                    payload[:8] * (len(payload) // 8) == payload[: len(payload) // 8 * 8],
                    f"thread {tid}: head payload corrupt",
                )
