"""SDG micro-benchmark: insert/delete edges in a scalable directed graph.

Layout (per thread instance)::

    vertex table:  n_vertices x u64   head pointer of each adjacency list
    edge node:     [dst u64][next u64][payload entry_bytes]

An edge insert prepends a node to the source vertex's adjacency list; a
delete unlinks it.  Transactions are single-edge updates, so the write
set is small and scattered — the low-update-intensity end of the
micro-benchmark spectrum.
"""

from __future__ import annotations

from repro.runtime.api import PMem
from repro.workloads.base import Workload, payload_for, payload_tag

EDGE_HDR = 16  # dst + next


class GraphWorkload(Workload):
    """Adjacency-list directed graph with per-thread instances."""

    name = "sdg"

    def __init__(self, system, params=None, n_vertices: int = 64, **kw):
        super().__init__(system, params, **kw)
        self.n_vertices = n_vertices
        self.edge_bytes = EDGE_HDR + self.params.entry_bytes
        self.tables: list[int] = []
        #: Golden model: per-thread dict (src, dst) -> payload tag.
        self.golden: list[dict[tuple[int, int], int]] = [
            dict() for _ in range(self.threads_count)
        ]

    def _vertex_addr(self, tid: int, vertex: int) -> int:
        return self.tables[tid] + vertex * 8

    def _edge_key(self, src: int, dst: int) -> int:
        return src * self.n_vertices + dst

    # -- setup -------------------------------------------------------------------------

    def _setup_thread(self, tid: int, driver) -> None:
        table = self.heap.alloc(self.n_vertices * 8, arena=tid)
        self.tables.append(table)
        driver.run(PMem.memset(table, self.n_vertices * 8))
        rng = self.rngs[tid]
        added = 0
        while added < self.params.initial_items:
            src = rng.randrange(self.n_vertices)
            dst = rng.randrange(self.n_vertices)
            if (src, dst) in self.golden[tid]:
                continue
            driver.run(self._insert_edge(tid, src, dst))
            self.golden[tid][(src, dst)] = payload_tag(
                self._edge_key(src, dst), 0
            )
            added += 1

    # -- operations -----------------------------------------------------------------------

    def _insert_edge(self, tid: int, src: int, dst: int):
        edge = self.heap.alloc(self.edge_bytes, arena=tid)
        head_addr = self._vertex_addr(tid, src)
        head = yield from PMem.load_u64(head_addr)
        yield from PMem.store_u64(edge, dst)
        yield from PMem.store_u64(edge + 8, head)
        yield from PMem.store_bytes(
            edge + EDGE_HDR,
            payload_for(self._edge_key(src, dst), 0, self.params.entry_bytes),
        )
        yield from PMem.store_u64(head_addr, edge)

    def _delete_edge(self, tid: int, src: int, dst: int):
        head_addr = self._vertex_addr(tid, src)
        prev_addr = head_addr
        edge = yield from PMem.load_u64(head_addr)
        while edge:
            edge_dst = yield from PMem.load_u64(edge)
            nxt = yield from PMem.load_u64(edge + 8)
            if edge_dst == dst:
                yield from PMem.store_u64(prev_addr, nxt)
                self.heap.free(edge, self.edge_bytes, arena=tid)
                return True
            prev_addr = edge + 8
            edge = nxt
        return False

    def _scan_edges(self, tid: int, src: int):
        """Walk one adjacency list (the search part of a transaction)."""
        count = 0
        edge = yield from PMem.load_u64(self._vertex_addr(tid, src))
        while edge:
            yield from PMem.load_u64(edge)
            edge = yield from PMem.load_u64(edge + 8)
            count += 1
        return count

    # -- transaction stream ---------------------------------------------------------------------

    def thread_body(self, tid: int):
        rng = self.rngs[tid]
        live = list(self.golden[tid])
        lock = self.lock_id(tid)
        for _ in range(self.params.txns_per_thread):
            yield from PMem.compute(self.params.compute_cycles)
            do_insert = (not live) or rng.random() < 0.55
            yield from PMem.lock(lock)
            if do_insert:
                src = rng.randrange(self.n_vertices)
                dst = rng.randrange(self.n_vertices)
                while (src, dst) in self.golden[tid] or (src, dst) in live:
                    src = rng.randrange(self.n_vertices)
                    dst = rng.randrange(self.n_vertices)
                yield from self._scan_edges(tid, src)
                yield from PMem.atomic_begin()
                yield from self._insert_edge(tid, src, dst)
                yield from PMem.atomic_end(("ins", tid, src, dst))
                live.append((src, dst))
            else:
                src, dst = live.pop(rng.randrange(len(live)))
                yield from self._scan_edges(tid, src)
                yield from PMem.atomic_begin()
                found = yield from self._delete_edge(tid, src, dst)
                yield from PMem.atomic_end(("del", tid, src, dst))
                self.check(found, f"delete missed live edge {(src, dst)}")
            yield from PMem.unlock(lock)

    # -- golden / verification ---------------------------------------------------------------------

    def golden_apply(self, info) -> None:
        if info[0] == "ins":
            _, tid, src, dst = info
            self.golden[tid][(src, dst)] = payload_tag(
                self._edge_key(src, dst), 0
            )
        elif info[0] == "del":
            _, tid, src, dst = info
            self.golden[tid].pop((src, dst), None)

    def verify_durable(self, image=None) -> None:
        reader = self.reader(image)
        for tid in range(self.threads_count):
            found: dict[tuple[int, int], int] = {}
            for src in range(self.n_vertices):
                edge = reader.load_u64(self._vertex_addr(tid, src))
                hops = 0
                while edge:
                    dst = reader.load_u64(edge)
                    tag = reader.load_u64(edge + EDGE_HDR)
                    self.check(
                        (src, dst) not in found,
                        f"duplicate edge {(src, dst)}",
                    )
                    found[(src, dst)] = tag
                    edge = reader.load_u64(edge + 8)
                    hops += 1
                    self.check(hops < 1_000_000, "cycle in adjacency list")
            self.check(
                found == self.golden[tid],
                f"thread {tid}: durable graph ({len(found)} edges) diverges "
                f"from golden ({len(self.golden[tid])} edges)",
            )
