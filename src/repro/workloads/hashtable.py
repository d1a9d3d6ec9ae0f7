"""Hash micro-benchmark: insert/delete entries in a chained hash table.

Layout (per thread instance)::

    buckets:  n_buckets x u64   head pointer per bucket (0 = empty)
    node:     [key u64][next u64][payload entry_bytes]

A transaction searches for a random key, then inserts a new entry or
deletes an existing one (coin flip, biased to keep the table near its
initial size).  Each structural update — pointer splices, the payload
copy — happens inside an ``Atomic_Begin``/``Atomic_End`` region under the
thread's lock, mirroring Figure 2(b)'s programming model.
"""

from __future__ import annotations

import struct

from repro.cpu import ops
from repro.runtime.api import PMem

# Hot-path op helpers: the structure methods below yield ops directly
# instead of delegating to PMem generators — one generator frame less
# per simulated memory access (see the kernel perf notes in README).
_Load = ops.Load
_Store = ops.Store
_u64 = struct.Struct("<Q")
_unpack = _u64.unpack
_pack = _u64.pack

from repro.workloads.base import Workload, payload_for, payload_tag

NODE_HDR = 16  # key + next


class HashTableWorkload(Workload):
    """Chained hash table with per-thread instances."""

    name = "hash"

    def __init__(self, system, params=None, n_buckets: int = 64, **kw):
        super().__init__(system, params, **kw)
        self.n_buckets = n_buckets
        self.node_bytes = NODE_HDR + self.params.entry_bytes
        #: Per-thread bucket-array base addresses.
        self.tables: list[int] = []
        #: Golden model: per-thread dict key -> payload tag.
        self.golden: list[dict[int, int]] = [
            dict() for _ in range(self.threads_count)
        ]
        #: Per-thread key version counters (payload determinism).
        self._versions: list[dict[int, int]] = [
            dict() for _ in range(self.threads_count)
        ]
        self._next_key = [1_000_000 * (t + 1) for t in range(self.threads_count)]

    def _bucket_of(self, key: int) -> int:
        return (key * 2654435761) % self.n_buckets

    def _bucket_addr(self, tid: int, bucket: int) -> int:
        return self.tables[tid] + bucket * 8

    # -- setup ---------------------------------------------------------------------

    def _setup_thread(self, tid: int, driver) -> None:
        table = self.heap.alloc(self.n_buckets * 8, arena=tid)
        self.tables.append(table)
        driver.run(PMem.memset(table, self.n_buckets * 8))
        for _ in range(self.params.initial_items):
            key = self._fresh_key(tid)
            driver.run(self._insert(tid, key, 0))
            self.golden[tid][key] = payload_tag(key, 0)
            self._versions[tid][key] = 0

    def _fresh_key(self, tid: int) -> int:
        key = self._next_key[tid]
        self._next_key[tid] += 1
        return key

    # -- structure operations (generators) ----------------------------------------------

    def _insert(self, tid: int, key: int, version: int):
        """Allocate, fill, and splice a node at its bucket head."""
        node = self.heap.alloc(self.node_bytes, arena=tid)
        head_addr = self._bucket_addr(tid, self._bucket_of(key))
        head = _unpack((yield _Load(head_addr, 8)))[0]
        yield _Store(node, _pack(key))
        yield _Store(node + 8, _pack(head))
        yield from PMem.store_bytes(
            node + NODE_HDR,
            payload_for(key, version, self.params.entry_bytes),
        )
        yield _Store(head_addr, _pack(node))

    def _delete(self, tid: int, key: int):
        """Unlink the node holding ``key``; returns True if found."""
        head_addr = self._bucket_addr(tid, self._bucket_of(key))
        prev_addr = head_addr
        node = _unpack((yield _Load(head_addr, 8)))[0]
        while node:
            node_key = _unpack((yield _Load(node, 8)))[0]
            nxt = _unpack((yield _Load(node + 8, 8)))[0]
            if node_key == key:
                yield _Store(prev_addr, _pack(nxt))
                self.heap.free(node, self.node_bytes, arena=tid)
                return True
            prev_addr = node + 8
            node = nxt
        return False

    def _search(self, tid: int, key: int):
        """Find ``key``; returns the node address or 0."""
        node = _unpack((yield _Load(
            self._bucket_addr(tid, self._bucket_of(key)), 8)))[0]
        while node:
            node_key = _unpack((yield _Load(node, 8)))[0]
            if node_key == key:
                return node
            node = _unpack((yield _Load(node + 8, 8)))[0]
        return 0

    # -- transaction stream -----------------------------------------------------------------

    def thread_body(self, tid: int):
        rng = self.rngs[tid]
        live = list(self.golden[tid])
        lock = self.lock_id(tid)
        for _ in range(self.params.txns_per_thread):
            yield from PMem.compute(self.params.compute_cycles)
            do_insert = (not live) or rng.random() < 0.55
            if do_insert:
                key = self._fresh_key(tid)
                version = 0
                yield from PMem.lock(lock)
                search = rng.choice(live) if live else key
                yield from self._search(tid, search)
                yield from PMem.atomic_begin()
                yield from self._insert(tid, key, version)
                yield from PMem.atomic_end(("ins", tid, key, version))
                yield from PMem.unlock(lock)
                live.append(key)
            else:
                key = live.pop(rng.randrange(len(live)))
                yield from PMem.lock(lock)
                yield from self._search(tid, key)
                yield from PMem.atomic_begin()
                found = yield from self._delete(tid, key)
                yield from PMem.atomic_end(("del", tid, key))
                yield from PMem.unlock(lock)
                self.check(found, f"delete missed live key {key}")

    # -- golden model / verification -------------------------------------------------------

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
            found: dict[int, int] = {}
            for bucket in range(self.n_buckets):
                node = reader.load_u64(self._bucket_addr(tid, bucket))
                hops = 0
                while node:
                    key = reader.load_u64(node)
                    tag = reader.load_u64(node + NODE_HDR)
                    self.check(key not in found, f"duplicate key {key}")
                    self.check(
                        self._bucket_of(key) == bucket,
                        f"key {key} in wrong bucket {bucket}",
                    )
                    found[key] = tag
                    node = reader.load_u64(node + 8)
                    hops += 1
                    self.check(hops < 1_000_000, "cycle in chain")
            self.check(
                found == self.golden[tid],
                f"thread {tid}: durable table diverges from golden model "
                f"({len(found)} vs {len(self.golden[tid])} keys)",
            )
