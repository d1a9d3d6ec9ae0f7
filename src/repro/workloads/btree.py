"""BTree micro-benchmark: insert/delete nodes in a B-tree.

Uses the persistent :class:`~repro.workloads.bplustree.BPlusTree`
substrate; each key's entry payload (512 B or 4 KB) lives in an
out-of-line block pointed to by the leaf value, so an insert is a tree
descent with possible splits plus a payload memcpy — the same access
shape as the paper's benchmark.
"""

from __future__ import annotations

from repro.runtime.api import PMem
from repro.workloads.base import Workload, payload_for, payload_tag
from repro.workloads.bplustree import BPlusTree


class BTreeWorkload(Workload):
    """B+-tree keyed store with per-thread instances."""

    name = "btree"

    def __init__(self, system, params=None, order: int = 8, **kw):
        super().__init__(system, params, **kw)
        self.order = order
        self.trees: list[BPlusTree] = []
        self.golden: list[dict[int, int]] = [
            dict() for _ in range(self.threads_count)
        ]
        self._next_key = [1 for _ in range(self.threads_count)]

    def _fresh_key(self, tid: int) -> int:
        key = self._next_key[tid]
        self._next_key[tid] += 1
        return ((key * 2654435761) & 0xFFFFFF) * 64 + tid + 1

    # -- setup ---------------------------------------------------------------------

    def _setup_thread(self, tid: int, driver) -> None:
        tree = BPlusTree(self.heap, arena=tid, order=self.order)
        driver.run(tree.create())
        self.trees.append(tree)
        for _ in range(self.params.initial_items):
            key = self._fresh_key(tid)
            driver.run(self._insert(tid, key, 0))
            self.golden[tid][key] = payload_tag(key, 0)

    # -- operations ---------------------------------------------------------------------

    def _insert(self, tid: int, key: int, version: int):
        payload = self.heap.alloc(self.params.entry_bytes, arena=tid)
        yield from PMem.store_bytes(
            payload, payload_for(key, version, self.params.entry_bytes)
        )
        yield from self.trees[tid].put(key, payload)

    def _delete(self, tid: int, key: int):
        found = yield from self.trees[tid].delete(key)
        return found

    # -- transaction stream ------------------------------------------------------------------

    def thread_body(self, tid: int):
        rng = self.rngs[tid]
        live = list(self.golden[tid])
        lock = self.lock_id(tid)
        tree = self.trees[tid]
        for _ in range(self.params.txns_per_thread):
            yield from PMem.compute(self.params.compute_cycles)
            do_insert = (not live) or rng.random() < 0.55
            yield from PMem.lock(lock)
            if do_insert:
                key = self._fresh_key(tid)
                while key in self.golden[tid] or key in live:
                    key = self._fresh_key(tid)
                yield from tree.get(rng.choice(live) if live else key)
                yield from PMem.atomic_begin()
                yield from self._insert(tid, key, 0)
                yield from PMem.atomic_end(("ins", tid, key, 0))
                live.append(key)
            else:
                key = live.pop(rng.randrange(len(live)))
                value = yield from tree.get(key)
                self.check(value is not None, f"live key {key} missing")
                yield from PMem.atomic_begin()
                found = yield from self._delete(tid, key)
                yield from PMem.atomic_end(("del", tid, key))
                self.check(found, f"delete missed live key {key}")
            yield from PMem.unlock(lock)

    # -- golden / verification ------------------------------------------------------------------

    def golden_apply(self, info) -> None:
        if info[0] == "ins":
            _, tid, key, version = info
            self.golden[tid][key] = payload_tag(key, version)
        elif info[0] == "del":
            _, tid, key = info
            self.golden[tid].pop(key, None)

    def verify_durable(self, image=None) -> None:
        reader = self.reader(image)
        for tid in range(self.threads_count):
            pairs = self.trees[tid].walk_durable(reader)
            found = {
                key: reader.load_u64(ptr) for key, ptr in pairs.items()
            }
            self.check(
                found == self.golden[tid],
                f"thread {tid}: durable btree ({len(found)} keys) diverges "
                f"from golden ({len(self.golden[tid])} keys)",
            )
