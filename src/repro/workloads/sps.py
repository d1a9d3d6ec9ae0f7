"""SPS micro-benchmark: random swaps between entries in an array.

Layout (per thread instance): ``n_entries x entry_bytes`` contiguous
payload slots.  A transaction reads two random entries and writes each
into the other's slot — pure payload movement with no pointer updates,
the highest store-to-load ratio of the suite.  The golden model tracks
the permutation (which original payload occupies each slot).
"""

from __future__ import annotations

from repro.runtime.api import PMem
from repro.workloads.base import Workload, payload_for, payload_tag


class SpsWorkload(Workload):
    """Array-swap workload with per-thread instances."""

    name = "sps"

    def __init__(self, system, params=None, **kw):
        super().__init__(system, params, **kw)
        self.n_entries = max(2, self.params.initial_items)
        self.arrays: list[int] = []
        #: Golden model: per-thread permutation, slot -> original index.
        self.golden: list[list[int]] = [
            list(range(self.n_entries)) for _ in range(self.threads_count)
        ]

    def _slot_addr(self, tid: int, index: int) -> int:
        return self.arrays[tid] + index * self.params.entry_bytes

    # -- setup ---------------------------------------------------------------------------

    def _setup_thread(self, tid: int, driver) -> None:
        base = self.heap.alloc(
            self.n_entries * self.params.entry_bytes, arena=tid
        )
        self.arrays.append(base)
        for index in range(self.n_entries):
            driver.run(
                PMem.store_bytes(
                    self._slot_addr(tid, index),
                    payload_for(tid * 10_000 + index, 0,
                                self.params.entry_bytes),
                )
            )

    # -- operations ---------------------------------------------------------------------------

    def _swap(self, tid: int, i: int, j: int):
        size = self.params.entry_bytes
        a = yield from PMem.load_bytes(self._slot_addr(tid, i), size)
        b = yield from PMem.load_bytes(self._slot_addr(tid, j), size)
        yield from PMem.store_bytes(self._slot_addr(tid, i), b)
        yield from PMem.store_bytes(self._slot_addr(tid, j), a)

    # -- transaction stream ------------------------------------------------------------------------

    def thread_body(self, tid: int):
        rng = self.rngs[tid]
        lock = self.lock_id(tid)
        for _ in range(self.params.txns_per_thread):
            yield from PMem.compute(self.params.compute_cycles)
            i = rng.randrange(self.n_entries)
            j = rng.randrange(self.n_entries)
            while j == i:
                j = rng.randrange(self.n_entries)
            yield from PMem.lock(lock)
            yield from PMem.atomic_begin()
            yield from self._swap(tid, i, j)
            yield from PMem.atomic_end(("swap", tid, i, j))
            yield from PMem.unlock(lock)

    # -- golden / verification ----------------------------------------------------------------------

    def golden_apply(self, info) -> None:
        _, tid, i, j = info
        perm = self.golden[tid]
        perm[i], perm[j] = perm[j], perm[i]

    def verify_durable(self, image=None) -> None:
        reader = self.reader(image)
        for tid in range(self.threads_count):
            for slot, original in enumerate(self.golden[tid]):
                tag = reader.load_u64(self._slot_addr(tid, slot))
                expect = payload_tag(tid * 10_000 + original, 0)
                self.check(
                    tag == expect,
                    f"thread {tid}: slot {slot} holds tag {tag:#x}, "
                    f"expected entry {original} ({expect:#x})",
                )
