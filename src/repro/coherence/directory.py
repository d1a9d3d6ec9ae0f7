"""Shared banked L2 with an inclusive MESI directory.

One L2 bank lives on every tile; a line's home bank is determined by line
interleaving (``Topology.l2_home_tile``).  The directory tracks, per
resident line, the exclusive owner (an L1 holding M/E) or the sharers (a
bitmask of core ids), plus a dirty flag for data surrendered by
downgraded/written-back owners.

The tag store holds only what is resident.  One line -> entry map serves
every lookup; a (bank, set) way map, which capacity and LRU eviction
need, is created by the first insert into that set, so a machine pays
for the sets its working set touches, not for all banks x sets.  An
entry allocates its waiter queue only when a request first queues on it.

Protocol modelling choice: each transaction is *serialized per line*
with a busy/waiter queue, and directory metadata is updated
synchronously while message latencies are charged onto the
transaction's completion time.  This keeps the protocol race-free without
modelling transient states, at the cost of bounded timing skew — adequate
for the queueing-level fidelity this reproduction targets.

Flush (``clwb``-like) and dirty writebacks to memory are also directory
transactions; the actual persist is gated by the memory controller's LogM
module, which is where ATOM's ordering enforcement lives.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.coherence.l1 import (FILL_EXCLUSIVE, FILL_MODIFIED,
                                FILL_MODIFIED_SOURCE_LOGGED, FILL_SHARED,
                                FillInfo, L1Cache)
from repro.coherence.states import MESI
from repro.common.stats import Stats
from repro.common.units import CACHE_LINE_BYTES, CACHE_LINE_SHIFT
from repro.config import CacheConfig
from repro.engine import Engine
from repro.mem.controller import MemoryController
from repro.mem.image import MemoryImage
from repro.mem.layout import AddressLayout
from repro.noc.mesh import Mesh
from repro.noc.topology import Topology

#: Payload sizes for timing purposes.
CTRL_BYTES = 8
DATA_BYTES = CACHE_LINE_BYTES


class _FillDone:
    """Completion of one directory transaction (release + fill reply).

    ``__slots__`` continuation instead of a closure pair: this fires
    once per L2 hit/miss — one of the hottest completion chains in the
    model (see ISSUE 5's allocation-free completion chains).
    """

    __slots__ = ("l2", "line", "on_fill", "info")

    def __init__(self, l2, line, on_fill, info):
        self.l2 = l2
        self.line = line
        self.on_fill = on_fill
        self.info = info

    def __call__(self) -> None:
        self.l2._release(self.line)
        self.on_fill(self.info)


class _MissFetch:
    """L2-miss continuation pair: forward to the controller, then fill.

    ``__call__`` runs at the request's arrival at the memory controller;
    ``fetched`` is the controller's data reply.
    """

    __slots__ = ("l2", "line", "core", "on_fill", "mc", "exclusive",
                 "atomic", "reply_lat")

    def __init__(self, l2, line, core, on_fill, mc, exclusive, atomic,
                 reply_lat):
        self.l2 = l2
        self.line = line
        self.core = core
        self.on_fill = on_fill
        self.mc = mc
        self.exclusive = exclusive
        self.atomic = atomic
        self.reply_lat = reply_lat

    def __call__(self) -> None:
        if self.exclusive:
            self.mc.fetch_line(
                self.line, self.fetched, exclusive=True,
                atomic_core=self.core if self.atomic else None,
            )
        else:
            self.mc.fetch_line(self.line, self.fetched)

    def fetched(self, _payload: bytes, source_logged: bool) -> None:
        l2 = self.l2
        line = self.line
        new = l2._insert(line)
        new.owner = self.core
        queued = l2._pending_fetch.pop(line, None)
        if queued:
            new.waiters = deque(queued)
        if self.exclusive:
            info = (FILL_MODIFIED_SOURCE_LOGGED if source_logged
                    else FILL_MODIFIED)
        else:
            info = FILL_EXCLUSIVE
        l2.engine.post(
            self.reply_lat, _FillDone(l2, line, self.on_fill, info)
        )


def _cores(mask: int) -> Iterator[int]:
    """The core ids set in a sharer bitmask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(slots=True)
class L2Line:
    """Directory + tag entry for one L2-resident line."""

    line: int
    owner: int | None = None
    #: Cores holding the line in S: bit ``c`` is set for core ``c``.
    sharers: int = 0
    dirty: bool = False
    last_use: int = 0
    busy: bool = False
    #: Requests queued behind the transaction in flight, in arrival
    #: order; None until the first one queues.
    waiters: deque | None = None

    def wait(self, fn: Callable[[], None]) -> None:
        """Queue ``fn`` until the transaction in flight releases the line."""
        if self.waiters is None:
            self.waiters = deque()
        self.waiters.append(fn)


class SharedL2:
    """The multi-banked shared L2 and its directory."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        mesh: Mesh,
        tile_cfg: CacheConfig,
        image: MemoryImage,
        layout: AddressLayout,
        controllers: list[MemoryController],
        stats: Stats,
    ):
        self.engine = engine
        self.topology = topology
        self.mesh = mesh
        self.cfg = tile_cfg
        self.image = image
        self.layout = layout
        self.controllers = controllers
        self.stats = stats.domain("l2")
        # Hot-path counters, bound once (see StatDomain.counter).
        self._add_hits = self.stats.counter("hits")
        self._add_misses = self.stats.counter("misses")
        self._add_owner_forwards = self.stats.counter("owner_forwards")
        self._add_owner_invals = self.stats.counter("owner_invalidations")
        self._add_sharer_invals = self.stats.counter("sharer_invalidations")
        self._add_l1_writebacks = self.stats.counter("l1_writebacks")
        self._add_evictions = self.stats.counter("evictions")
        self._add_inclusive_recalls = self.stats.counter("inclusive_recalls")
        self._add_parked_evictions = self.stats.counter("parked_evictions")
        self._add_memory_writebacks = self.stats.counter("memory_writebacks")
        self._add_flushes = self.stats.counter("flushes")
        self.num_banks = topology.num_tiles
        #: Every resident line -> its entry.
        self._lines: dict[int, L2Line] = {}
        #: Resident entries by (bank, set), keyed by line index mod
        #: (banks x sets); a set's map is created by its first insert.
        self._sets: dict[int, dict[int, L2Line]] = {}
        self._set_count = self.num_banks * tile_cfg.num_sets
        self._use_clock = 0
        self._l1s: list[L1Cache] = []
        #: Misses currently being fetched from memory: line -> queued
        #: request retries, drained once the fill inserts the line.
        self._pending_fetch: dict[int, list[Callable[[], None]]] = {}
        #: REDO hook, set by the system builder: fn(line_addr) -> bool,
        #: True when the dirty eviction was parked in the victim cache
        #: instead of being written to NVM.
        self.park_dirty_eviction: Callable[[int], bool] | None = None
        # -- precomputed timing tables --------------------------------------
        # The directory charges only two message payload classes (8 B
        # control, 64 B data); both latency tables are materialized once
        # so protocol transactions do pure table reads.  Core/tile is an
        # identity map and stays that way (one core per tile).
        tiles = range(topology.num_tiles)
        self._ctrl_lat = [
            [mesh.latency(s_, d, CTRL_BYTES) for d in tiles] for s_ in tiles
        ]
        self._data_lat = [
            [mesh.latency(s_, d, DATA_BYTES) for d in tiles] for s_ in tiles
        ]
        self._mc_tile = [
            topology.mc_tile(mc.mc_id) for mc in controllers
        ]
        self._l2_lat = tile_cfg.latency

    def attach_l1s(self, l1s: list[L1Cache]) -> None:
        """Wire up the private caches (called once by the system builder)."""
        self._l1s = l1s
        for l1 in l1s:
            l1.l2 = self

    # -- tag store ------------------------------------------------------------

    def probe(self, line: int) -> L2Line | None:
        """Directory lookup without LRU side effects."""
        return self._lines.get(line)

    def _touch(self, entry: L2Line) -> None:
        self._use_clock += 1
        entry.last_use = self._use_clock

    def home_tile(self, line: int) -> int:
        """Tile of the line's home bank."""
        return self.topology.l2_home_tile(line)

    # -- transaction serialization ------------------------------------------------

    def _with_line(self, line: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` when the line has no transaction in flight."""
        entry = self.probe(line)
        if entry is not None and entry.busy:
            entry.wait(fn)
            return
        if entry is not None:
            entry.busy = True
        fn()

    def _release(self, line: int) -> None:
        entry = self.probe(line)
        if entry is None:
            return
        entry.busy = False
        if entry.waiters:
            fn = entry.waiters.popleft()
            entry.busy = True
            self.engine.post(0, fn)

    # -- GetS ------------------------------------------------------------------

    def get_shared(
        self, core: int, line: int, on_fill: Callable[[FillInfo], None]
    ) -> None:
        """A load miss from ``core``'s L1 (Figure: GetS)."""
        # _with_line inlined: the non-busy case is the common one and
        # skips a closure allocation.
        entry = self.probe(line)
        if entry is not None:
            if entry.busy:
                entry.wait(lambda: self._do_get_shared(core, line, on_fill))
                return
            entry.busy = True
        self._do_get_shared(core, line, on_fill)

    def _do_get_shared(self, core, line, on_fill) -> None:
        req_tile = core
        home = (line >> CACHE_LINE_SHIFT) % self.num_banks
        entry = self.probe(line)
        req_lat = self._ctrl_lat[req_tile][home]
        if entry is not None:
            self._add_hits()
            self._use_clock += 1
            entry.last_use = self._use_clock
            extra = 0
            if entry.owner is not None and entry.owner != core:
                # Forward to the M/E owner; it downgrades and surrenders
                # dirty data to the bank (3-hop miss).
                owner_tile = entry.owner
                extra = self._ctrl_lat[home][owner_tile]
                dirty = self._l1s[entry.owner].remote_downgrade(line)
                if dirty:
                    entry.dirty = True
                entry.sharers |= 1 << entry.owner
                entry.owner = None
                self._add_owner_forwards()
                data_lat = self._data_lat[owner_tile][req_tile]
            else:
                data_lat = self._data_lat[home][req_tile]
            entry.sharers |= 1 << core
            total = req_lat + self._l2_lat + extra + data_lat
            self.engine.post(total, _FillDone(self, line, on_fill,
                                              FILL_SHARED))
            return
        # L2 miss: fetch from memory, requester gets Exclusive.
        if line in self._pending_fetch:
            self._pending_fetch[line].append(
                lambda: self._do_get_shared(core, line, on_fill)
            )
            return
        self._pending_fetch[line] = []
        self._add_misses()
        mc = self.controllers[self.layout.controller_of(line)]
        mc_tile = self._mc_tile[mc.mc_id]
        to_mc = self._ctrl_lat[home][mc_tile]
        from_mc = self._data_lat[mc_tile][home]
        data_lat = self._data_lat[home][req_tile]
        self.engine.post(
            req_lat + self._l2_lat + to_mc,
            _MissFetch(self, line, core, on_fill, mc, False, False,
                       from_mc + data_lat),
        )

    # -- GetX -----------------------------------------------------------------------

    def get_exclusive(
        self,
        core: int,
        line: int,
        atomic: bool,
        on_fill: Callable[[FillInfo], None],
    ) -> None:
        """A store miss/upgrade from ``core``'s L1 (Figure: GetX)."""
        entry = self.probe(line)
        if entry is not None:
            if entry.busy:
                entry.wait(
                    lambda: self._do_get_exclusive(core, line, atomic, on_fill)
                )
                return
            entry.busy = True
        self._do_get_exclusive(core, line, atomic, on_fill)

    def _do_get_exclusive(self, core, line, atomic, on_fill) -> None:
        req_tile = core
        home = (line >> CACHE_LINE_SHIFT) % self.num_banks
        entry = self.probe(line)
        req_lat = self._ctrl_lat[req_tile][home]
        if entry is not None:
            self._add_hits()
            self._use_clock += 1
            entry.last_use = self._use_clock
            extra = 0
            others = entry.sharers & ~(1 << core)
            if entry.owner is not None and entry.owner != core:
                owner_tile = entry.owner
                extra = self._ctrl_lat[home][owner_tile]
                dirty = self._l1s[entry.owner].remote_invalidate(line)
                if dirty:
                    entry.dirty = True
                self._add_owner_invals()
            elif others:
                # Invalidate every other sharer; latency is the worst
                # round trip (invalidations fan out in parallel).
                worst = 0
                ctrl_from_home = self._ctrl_lat[home]
                for sharer in _cores(others):
                    trip = ctrl_from_home[sharer] + self._ctrl_lat[sharer][home]
                    if trip > worst:
                        worst = trip
                    self._l1s[sharer].remote_invalidate(line)
                    self._add_sharer_invals()
                extra = worst
            entry.owner = core
            entry.sharers = 0
            data_lat = self._data_lat[home][req_tile]
            total = req_lat + self._l2_lat + extra + data_lat
            self.engine.post(total, _FillDone(self, line, on_fill,
                                              FILL_MODIFIED))
            return
        # L2 miss: fetch-exclusive from memory.  This is the source-logging
        # window: the controller reads the old value from NVM anyway.
        if line in self._pending_fetch:
            self._pending_fetch[line].append(
                lambda: self._do_get_exclusive(core, line, atomic, on_fill)
            )
            return
        self._pending_fetch[line] = []
        self._add_misses()
        mc = self.controllers[self.layout.controller_of(line)]
        mc_tile = self._mc_tile[mc.mc_id]
        to_mc = self._ctrl_lat[home][mc_tile]
        from_mc = self._data_lat[mc_tile][home]
        data_lat = self._data_lat[home][req_tile]
        self.engine.post(
            req_lat + self._l2_lat + to_mc,
            _MissFetch(self, line, core, on_fill, mc, True, atomic,
                       from_mc + data_lat),
        )

    # -- evictions and writebacks ----------------------------------------------------

    def writeback_dirty(self, core: int, line: int) -> None:
        """An L1 evicted a MODIFIED line: data returns to the bank."""
        entry = self.probe(line)
        if entry is not None:
            entry.dirty = True
            if entry.owner == core:
                entry.owner = None
            entry.sharers &= ~(1 << core)
        self._add_l1_writebacks()
        home = (line >> CACHE_LINE_SHIFT) % self.num_banks
        # Timing-only message; metadata was updated synchronously.
        self.mesh.send(core, home, DATA_BYTES, lambda: None)

    def evict_clean(self, core: int, line: int) -> None:
        """An L1 silently dropped a clean (E/S) line."""
        entry = self.probe(line)
        if entry is not None:
            if entry.owner == core:
                entry.owner = None
            entry.sharers &= ~(1 << core)

    def _insert(self, line: int) -> L2Line:
        """Install ``line`` busy, evicting its set's LRU idle way when the
        set is full (a set whose ways are all busy grows past them)."""
        key = (line >> CACHE_LINE_SHIFT) % self._set_count
        target = self._sets.get(key)
        if target is None:
            target = self._sets[key] = {}
        elif len(target) >= self.cfg.ways:
            victims = [e for e in target.values() if not e.busy]
            if victims:
                self._evict(min(victims, key=lambda e: e.last_use), target)
        entry = L2Line(line=line, busy=True)
        target[line] = entry
        self._lines[line] = entry
        self._touch(entry)
        return entry

    def _evict(self, victim: L2Line, target: dict[int, L2Line]) -> None:
        """Inclusive eviction: recall L1 copies, write dirty data to NVM."""
        del target[victim.line]
        del self._lines[victim.line]
        self._add_evictions()
        dirty = victim.dirty
        if victim.owner is not None:
            dirty |= self._l1s[victim.owner].remote_invalidate(victim.line)
            self._add_inclusive_recalls()
        for sharer in _cores(victim.sharers):
            self._l1s[sharer].remote_invalidate(victim.line)
        if dirty:
            self._write_line_to_memory(victim.line)

    def _write_line_to_memory(self, line: int, on_persist=None) -> None:
        """Send a dirty line to its controller (the overtaking path that
        LogM's header-match gate protects against)."""
        if self.park_dirty_eviction is not None and self.park_dirty_eviction(line):
            self._add_parked_evictions()
            if on_persist is not None:
                self.engine.post(1, on_persist)
            return
        self._add_memory_writebacks()
        mc = self.controllers[self.layout.controller_of(line)]
        mc_tile = self._mc_tile[mc.mc_id]
        home = (line >> CACHE_LINE_SHIFT) % self.num_banks
        payload = self.image.volatile_line(line)
        self.mesh.send(
            home, mc_tile, DATA_BYTES,
            lambda: mc.write_data_line(line, payload, on_persist),
        )

    # -- flush (clwb-like) ----------------------------------------------------------

    def flush(self, core: int, line: int, on_done: Callable[[], None]) -> None:
        """Write a line's modified data durably to NVM, keeping copies.

        This is the "Flush Modified Data" loop from the programming model
        (Figure 2): the owning L1 downgrades M->S, its log bit clears when
        the persist completes, and the controller's LogM gate enforces
        log -> data ordering.
        """
        self._with_line(line, lambda: self._do_flush(core, line, on_done))

    def _do_flush(self, core, line, on_done) -> None:
        req_tile = core
        home = (line >> CACHE_LINE_SHIFT) % self.num_banks
        req_lat = self._ctrl_lat[req_tile][home]
        entry = self.probe(line)
        acquired = entry is not None
        dirty = False
        extra = 0
        if entry is not None:
            self._touch(entry)
            if entry.owner is not None:
                owner_tile = entry.owner
                extra = (self._ctrl_lat[home][owner_tile]
                         + self._data_lat[owner_tile][home])
                if self._l1s[entry.owner].remote_downgrade(line):
                    entry.dirty = True
                entry.sharers |= 1 << entry.owner
                entry.owner = None
            dirty = entry.dirty
            if dirty:
                entry.dirty = False
        if not dirty:
            ack = self._ctrl_lat[home][req_tile]
            self._complete_flush(
                line, req_lat + self._l2_lat + extra + ack, on_done, acquired
            )
            return
        self._add_flushes()

        def persisted() -> None:
            # Inclusion means only L1s in the directory entry can hold
            # the line; clearing the log bit elsewhere is a no-op, so
            # skip the probe storm over every cache.
            holder = self.probe(line)
            if holder is not None:
                if holder.owner is not None:
                    self._l1s[holder.owner].clear_log_bit(line)
                for sharer in _cores(holder.sharers):
                    self._l1s[sharer].clear_log_bit(line)
            mc_id = self.controllers[self.layout.controller_of(line)].mc_id
            ack = self._ctrl_lat[self._mc_tile[mc_id]][req_tile]

            def finish() -> None:
                if acquired:
                    self._release(line)
                on_done()

            self.engine.post(ack, finish)

        self.engine.post(
            req_lat + self._l2_lat + extra,
            lambda: self._write_line_to_memory(line, persisted),
        )

    def _complete_flush(self, line, delay, on_done, acquired: bool) -> None:
        def finish() -> None:
            if acquired:
                self._release(line)
            on_done()

        self.engine.post(delay, finish)

    def resident_lines(self) -> list[int]:
        """All L2-resident line addresses (test aid)."""
        return list(self._lines)

    def __repr__(self) -> str:
        return (f"SharedL2(banks={self.num_banks}, "
                f"resident={len(self._lines)})")
